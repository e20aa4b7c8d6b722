"""Randomized property suites behind the `check` subcommand.

Each suite re-verifies the library's structural guarantees on freshly
generated random instances: exact solvers against brute-force oracles,
FFT paths against direct summation, proved inequalities on random inputs
(any violation is an implementation bug, not bad luck), and bit-exact
reproducibility of every seeded operation.  One check states one
property: its boundary sizes and fixed sets are among its inputs, not
checks of their own, and its oracle, if it needs one, lives in
`reference`.  A master seed fans out to one independent stream per
check, so single suites and `all` runs see identical instances.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

import numpy as np

from . import core, reference, solver, spectral, structure, weights
from . import equidist as eq
from .core import (
    IntegerSet,
    default_n_prime,
    embed_signal,
    indicator_vector,
    interval_signal,
    rng_from_seed,
)

_REL_TOL = 1e-9


def _random_subset(rng, max_element: int, size: int) -> IntegerSet:
    size = min(size, max_element)
    elems = rng.choice(np.arange(1, max_element + 1), size=size, replace=False)
    return IntegerSet(tuple(sorted(int(x) for x in elems)))


def _random_set(rng, max_size: int, max_element: int) -> IntegerSet:
    size = int(rng.integers(1, max_size + 1))
    return _random_subset(rng, max_element, size)


# ---------------------------------------------------------------- solver


def _check_dilation_floor(rng):
    for _ in range(30):
        A = _random_set(rng, 14, 200)
        cert = solver.dilation_sweep(A)
        floor = solver.one_third_floor(len(A))
        top = max(sum(x <= a < 2 * x for a in A.elements) for x in A.elements)  # some theta takes all of [x, 2x)
        assert cert.size >= max(floor, top), f"{A.elements}: sweep {cert.size} < floor {floor} or interval {top}"


def _check_exact_vs_oracle(rng):
    for max_size, max_element in [(13, 45), (20, 70)] * 20:
        A = _random_set(rng, max_size, max_element)
        for conv in (solver.ALLOW_EQUAL, solver.DISTINCT_ONLY):
            fast = solver.max_sum_free_subset(A, conv)
            slow_opt, slow_witness = reference.exhaustive_max_sum_free(A, conv)
            assert fast.exact, "branch and bound should finish on tiny sets"
            assert fast.optimum == slow_opt, (
                f"{A.elements} {conv.value}: {fast.optimum} != oracle {slow_opt}"
            )
            assert fast.witness.elements == slow_witness, (
                f"{A.elements} {conv.value}: witness tie-break diverged"
            )


def _check_convention_order(rng):
    for _ in range(20):
        A = _random_set(rng, 12, 60)
        eq_opt = solver.max_sum_free_subset(A, solver.ALLOW_EQUAL).optimum
        ne_opt = solver.max_sum_free_subset(A, solver.DISTINCT_ONLY).optimum
        assert ne_opt >= eq_opt, f"{A.elements}: distinct {ne_opt} < allow-equal {eq_opt}"


def _check_top_interval(rng):
    for _ in range(20):
        A = _random_set(rng, 14, 80)
        top = sum(1 for a in A.elements if 2 * a > A.elements[-1])
        opt = solver.max_sum_free_subset(A, solver.ALLOW_EQUAL).optimum
        assert opt >= top, f"{A.elements}: optimum {opt} below top-interval count {top}"


def _check_compose_additivity(rng):
    for _ in range(12):
        A = _random_set(rng, 7, 30)
        B = _random_set(rng, 7, 30)
        C = solver.compose(A, B)
        got = reference.exhaustive_max_sum_free(C, solver.ALLOW_EQUAL)[0]
        want = (
            reference.exhaustive_max_sum_free(A, solver.ALLOW_EQUAL)[0]
            + reference.exhaustive_max_sum_free(B, solver.ALLOW_EQUAL)[0]
        )
        assert got == want, f"compose optimum {got} != {want}"


def _check_heuristic_bounds(rng):
    # The sweep runs within 2·10^6 events (_SWEEP_EVENT_CAP) and never past
    # them; which side a set takes is pinned by tests/test_solver.py's FROZEN
    # rows for the 100- and 500-subsets, test_witness_past_the_sweep_cap and
    # the solve_heuristic golden.  Multiples of 99991 are past that cap, and
    # multiples of 2520·99991, which every residue class misses, take the
    # prime dilations: 99991·{1..12} and 2520·99991·{2^0..2^11} among them.
    sets = [_random_set(rng, s, e) for s, e in [(14, 60)] * 10 + [(20, 400)] * 15 + [(20, 10**6)] * 15]
    sets += [IntegerSet.from_iterable(99_991 * (rng.choice(10, size=5, replace=False) + 1)) for _ in range(2)]
    sets += [IntegerSet.from_iterable(2520 * 99_991 * (rng.choice(40, size=8, replace=False) + 1)) for _ in range(3)]
    sets += [IntegerSet(tuple(99_991 * k for k in range(1, 13)))]
    sets += [IntegerSet(tuple(2520 * 99_991 * 2**i for i in range(12)))]
    for A in sets:
        seed = int(rng.integers(0, 2**32))
        heur = solver.heuristic_sum_free(A, seed=seed)
        again = solver.heuristic_sum_free(A, seed=seed)
        assert heur.witness == again.witness, "heuristic not reproducible"
        assert not heur.exact and solver.is_sum_free(heur.witness), f"{A.elements}: bad heuristic witness"
        floor = solver.one_third_floor(len(A))
        exact = solver.max_sum_free_subset(A).optimum
        assert floor <= heur.optimum <= exact, (
            f"{A.elements}: heuristic {heur.optimum} outside [{floor}, {exact}]"
        )


def _check_residue_rows_exact(rng):
    # The heuristic's residue rows against their definitions, for q = 2..10,
    # where all 2^q - 1 masks are tested (176 are sum-free, 22 of them middle
    # thirds), and the primes p = 2 (mod 3) through 83, read at the residues
    # of _row_residues' one reduction; and _middle_thirds for two drawn
    # primes past 83.  The elements hold every residue mod 83, are drawn,
    # past 2^64, and next to multiples of each modulus.
    primes = rng.choice(list(reference.primes_2_mod_3(89, 600)), size=2, replace=False).tolist()
    big = int(rng.integers(2, 10**9))
    elems = [*range(1, 84), *rng.integers(1, 10**12, size=60).tolist()]
    elems += [2**64 + x for x in rng.integers(0, 2**62, size=20).tolist()]
    elems += [m * q + r for q in (*solver._ROW_MODULI, *primes) for m in (2, big, 2**70) for r in (-2, -1, 1, 2)]
    reduced = solver._row_residues(elems)
    for q in solver._ROW_MODULI:
        rows = reference.residue_rows_direct(q, q <= 10)
        got = solver._residue_rows(q)[:, reduced % q].tolist()
        assert got == [[row[a % q] for a in elems] for row in rows], f"the rows mod {q} differ from their definition"
    classes = [(q, row) for q in range(2, 11) for row in reference.residue_rows_direct(q, True)]
    assert len(classes) == 176 and sum(row in reference.residue_rows_direct(q, False) for q, row in classes) == 22
    for p in primes:
        got = solver._middle_thirds(p, np.array([a % p for a in elems])).tolist()
        assert got == [[p < 3 * (x * a % p) < 2 * p for a in elems] for x in range(1, p // 2 + 1)], f"mod {p}"


def _check_prime_floor(rng):
    # What the heuristic's start guarantees: the rows' winner beats the size
    # given exactly when some row, counted by definition, does, and is then
    # sum-free on A and holds that most; while neither reaches the floor, the
    # tail's x/p, p = 2 (mod 3) prime past 83, selects a sum-free set that
    # does.  Built sets, multiples of 2520, which every class mod q <= 10
    # misses, have every prime through 83 in each element and 2n/(p+1)
    # multiples of p = 89 or 101, then not admissible; or every prime but 83,
    # from the floor, which only x/83 can beat; or residues 1, 3, 8 and 10
    # mod 11, all selected by 5/11, the last row of 11.  Two more, multiples
    # of L, which every row misses, probe p = 89: at z·(p+1) = 2n, where each
    # x/89 selects n/3, it is not admissible; and with 60 elements in one
    # residue mod 89, only x/89 scored on the counts reaches the floor.
    # Drawn sets take multiples of products of 11, 17, 23 and 29, and of
    # 2520·99991.
    below_83 = 2520 * prod(reference.primes_2_mod_3(11, 71))
    L = below_83 * 83
    cases = []
    for p, lower in ((89, L), (101, L * 89)):
        ks = [k for k in rng.choice(10**4, size=p, replace=False).tolist() if k % p][: (p + 1) // 2]
        cases.append((IntegerSet.from_iterable([lower * p * ks[0]] + [lower * k for k in ks[1:]]), 0))
    ks = [k for k in rng.choice(10**4, size=60, replace=False).tolist() if k % 83][:40]
    cases.append((IntegerSet.from_iterable(below_83 * k for k in ks), solver.one_third_floor(40)))
    ks = rng.choice(10**4, size=20, replace=False).tolist()
    cases.append((IntegerSet.from_iterable(11 * k + (1, 3, 8, 10)[k % 4] for k in ks), 0))
    cases.append((IntegerSet.from_iterable([L * (r + 89 * 2**r) for r in range(1, 89)] + [L * 89 * 3, L * 89 * 5]), 0))
    by_counts = [L * (1 + 89 * 2**t) for t in range(60)] + [L * (r + 89 * 2 ** (r + 30)) for r in range(30, 60)]
    cases.append((IntegerSet.from_iterable(by_counts), 0))
    for _ in range(8):
        n = int(rng.integers(3, 30))
        factors = [prod(p for p in (11, 17, 23, 29) if rng.random() < 0.5) for _ in range(n)]
        ks = rng.choice(10**5, size=n, replace=False) + 1
        cases.append((IntegerSet.from_iterable(f * int(k) for f, k in zip(factors, ks)), int(rng.integers(0, n))))
    for _ in range(3):
        ks = rng.choice(10**3, size=int(rng.integers(3, 30)), replace=False) + 1
        cases.append((IntegerSet.from_iterable(2520 * 99_991 * int(k) for k in ks), int(rng.integers(0, 3))))
    cases.append((IntegerSet(tuple(2520 * 99_991 * 2**i for i in range(31))), 1))
    moduli = (*range(2, 11), *reference.primes_2_mod_3(11, 83))
    rows = [(q, row) for q in moduli for row in reference.residue_rows_direct(q, q <= 10)]
    for A, start in cases:
        floor = solver.one_third_floor(len(A))
        best = max(sum(row[a % q] for a in A.elements) for q, row in rows)
        got = solver._residue_winner(solver._row_residues(A.elements), start)
        assert (got is None) == (best <= start), f"{A.elements} from {start}: the rows take {got}, the most is {best}"
        if got is not None:
            q, i = got
            picked = IntegerSet.from_iterable(a for a in A.elements if solver._residue_rows(q)[i][a % q])
            assert solver.is_sum_free(picked) and len(picked) == best, f"{A.elements}: row {got} takes {picked.elements}"
        if max(best, start) < floor:
            theta = solver._prime_floor(A.elements)
            p, picked = theta.denominator, solver.dilation_select(A, theta)
            assert p > 83 and list(reference.primes_2_mod_3(p, p)) == [p], f"{A.elements}: the tail takes {theta}"
            assert solver.is_sum_free(picked) and len(picked) >= floor, f"{A.elements}: {theta} takes {picked.elements}"


def _check_local_search_vs_oracle(rng):
    # The heuristic's local search, with its kept conflicts and skipped
    # swaps, against the oracle that tests every move with is_sum_free, both
    # from the same start and on two copies of one draw stream.  Small dense
    # sets draw each x again and again, and compositions and sets scaled past
    # 2^63 take the upper scan ranges and Python ints.
    sets = [_random_subset(rng, 2 * n, n) for n in rng.integers(6, 30, size=14).tolist()]
    sets += [solver.compose_iterate(_random_set(rng, 6, 16), 3) for _ in range(5)]
    sets += [IntegerSet.from_iterable((2**63 + 1) * x for x in _random_subset(rng, 40, 20).elements) for _ in range(3)]
    for A in sets:
        start = set(solver.dilation_select(A, Fraction(int(rng.integers(1, 1009)), 1009)).elements)
        seed = int(rng.integers(0, 2**32))
        for allow_eq in (True, False):
            fast, slow = (
                search(A.elements, start, solver._draws(rng_from_seed(seed, "local-search")), allow_eq)
                for search in (solver._local_search, reference.local_search)
            )
            assert fast == slow, f"{A.elements} allow_eq={allow_eq} seed {seed}: {sorted(fast)} != oracle {sorted(slow)}"


def _check_packing_vs_oracle(rng):
    # The branch and bound's greedy packing against the oracle written from
    # the values, at every node of one unpruned suffix search, for every need
    # from 1 to free/2.  Each node's opened masks and active set are rebuilt
    # from the tables and its chosen set.  Dense sets hold many triples and
    # pairs, and compositions hold them within each copy only.
    sets = [_random_subset(rng, 2 * n, n) for n in rng.integers(8, 14, size=6).tolist()]
    sets += [solver.compose_iterate(_random_set(rng, 5, 12), 3) for _ in range(3)]
    for A in sets:
        vals, n, i = A.elements, len(A), int(rng.integers(0, 3))
        suffix = ((1 << n) - 1) >> i << i
        for allow_eq in (True, False):
            double, opens, reach, triples, grouped = solver._conflict_tables(vals, allow_eq)
            stack = [(0, suffix)]
            while stack:
                chosen, allowed = stack.pop()
                opened, active = list(double), grouped
                for c in range(n):
                    if (chosen >> c) & 1:
                        for d, bit in opens[c]:
                            opened[d] |= bit
                        active |= reach[c]
                packed = len(reference.greedy_packing(vals, chosen, allowed, allow_eq))
                for need in range(1, allowed.bit_count() // 2 + 1):
                    got = solver._packs(allowed, need, opened, active, triples)
                    assert got == (packed >= need), f"{vals} allow_eq={allow_eq} chosen {chosen:#x} allowed {allowed:#x}: need {need}, oracle packs {packed}"
                if allowed:
                    low = allowed & -allowed
                    rest = allowed ^ low
                    stack += [(chosen, rest), (chosen | low, rest & ~opened[low.bit_length() - 1])]


def _sum_free_paths(A: IntegerSet, conv) -> dict[str, object]:
    """A's verdict by is_sum_free and by every path that applies to A, with pair counts.

    The set scan always applies, and the pair kernel when A is within
    _PAIR_SAFE_BOUND; its entry is named for the lookup core._pair_lookup
    picks from A, "span table" or "filter".  Up to 200 elements, the
    definition applies too: reference.pair_sum_count.  Each "count" entry
    is the kernel's or the definition's number of pairs x <= y (x < y under
    DISTINCT_ONLY) whose sum is in A.
    """
    distinct = conv is solver.DISTINCT_ONLY
    out: dict[str, object] = {"is_sum_free": solver.is_sum_free(A, conv), "scan": solver._scan_sum_free(A, conv)}
    elems = A.elements
    if len(elems) <= 200:
        count = reference.pair_sum_count(A, conv)
        out["definition"], out["definition count"] = count == 0, count
    if elems and -core._PAIR_SAFE_BOUND < elems[0] and elems[-1] < core._PAIR_SAFE_BOUND:
        a = np.array(elems, dtype=np.int64)
        ends = core._pair_ends(a)
        name = "span table" if core._pair_lookup(a)[3] else "filter"
        out[name] = not core._pair_sum_hits(a, ends, distinct=distinct, first=True)
        out[name + " count"] = core._pair_sum_hits(a, ends, distinct=distinct, first=False)
    return out


def _check_sum_free_paths_agree(rng):
    # Every path of _sum_free_paths gives one verdict and one pair count.
    # Small sets: the empty set, a singleton, all-negative sets, and draws
    # from short windows around zero, which hold many sums, with their
    # classes 1 mod 3 plus one intruder.  Then sizes at the set-scan cutoff,
    # 190, and random sizes below it and large enough that a third of the
    # set passes it too, each from 1 and from below zero: a draw; a run of
    # the class 1 mod 3, sum-free whatever the signs, alone and with 2 max
    # added, which only the pair (max, max) reaches; the draw's class 1 mod
    # 3, alone, with an intruder and with 2 max, all on the span table from
    # the kernel's cutoff; odd multiples of the filter prime plus 1 and
    # plus 2, too wide for a span table, whose residues collide on every
    # pair of the first kind while no sum is in the set, alone and with a
    # sum added; and the run's first 190 elements moved past the int64-safe
    # bound, alone and with a sum.
    p, cutoff = core._filter_prime(core._LOOKUP_BYTES // 2), solver._KERNEL_MIN_SIZE
    small = [[], [1], [-4], [-2, -1]]
    for _ in range(150):
        lo = int(rng.integers(-60, 20))
        pool = [v for v in range(lo, lo + int(rng.integers(2, 90))) if v != 0]
        picks = [int(v) for v in rng.choice(pool, size=int(rng.integers(0, min(len(pool), 25) + 1)), replace=False)]
        small += [picks, [v for v in picks if v % 3 == 1] + [int(rng.choice(pool))]]
    shapes = [(size, lo, 20 * size) for size in (2, cutoff - 1, cutoff, cutoff + 1, 190) for lo in (1, -20 * size)]
    for r in range(8):
        size = int(rng.integers(2, cutoff) if r % 2 == 0 else rng.integers(4 * cutoff, 6 * cutoff))
        shapes.append((size, int(rng.integers(1, 1000) if r % 4 < 2 else rng.integers(-40 * size, 0)), 40 * size))
    large = []
    for size, lo, width in shapes:
        picks = [int(x) for x in rng.choice(np.arange(lo, lo + width), size, replace=False) if x != 0]
        run = [x for x in range(lo, lo + 3 * size) if x % 3 == 1]
        tame = [x for x in picks if x % 3 == 1]
        ks = [2 * int(k) + 1 for k in rng.choice(np.arange(-2000, 2000), size, replace=False)]
        half = size // 2
        collide = [p * k + 1 for k in ks[:half]] + [p * k + 2 for k in ks[half:]]
        huge = [3**41 * x + 1 for x in run[:190]]
        large += [picks, run, run + [2 * max(run)], tame, tame + [3 * picks[0]], tame + [2 * max(tame, default=1)]]
        large += [collide, collide + [collide[0] + collide[1]], huge, huge + [huge[0] + huge[-1]]]
    taken, free = set(), {conv: 0 for conv in (solver.ALLOW_EQUAL, solver.DISTINCT_ONLY)}
    for i, elems in enumerate(small + large):
        A = IntegerSet.from_iterable(set(elems))
        path = solver._sum_free_path(A)
        if A.elements and max(-A.elements[0], A.elements[-1]) >= core._PAIR_SAFE_BOUND:
            assert path == "scan", f"{A.elements[:8]}...: past the int64-safe bound, is_sum_free took the {path}"
        for conv in free:
            paths = _sum_free_paths(A, conv)
            verdicts = {k: v for k, v in paths.items() if "count" not in k}
            counts = {k: v for k, v in paths.items() if "count" in k}
            assert len(set(verdicts.values())) == 1, f"{A.elements[:8]}... {conv.value}: {verdicts}"
            assert len(set(counts.values())) <= 1, f"{A.elements[:8]}... {conv.value}: {counts}"
            took = "scan" if path == "scan" else "span table" if "span table" in paths else "filter"
            taken.add((took, took == "span table" and A.elements[0] < 0, paths["scan"]))
            if i < len(small):
                free[conv] += paths["scan"]
    # small sets: plenty of each verdict under each convention
    assert all(50 < n < len(small) - 50 for n in free.values()), f"sum-free small sets: {free}"
    # (path is_sum_free took, a span table holding negatives, verdict)
    kinds = {("scan", False), ("span table", False), ("span table", True), ("filter", False)}
    missed = {(*kind, verdict) for kind in kinds for verdict in (True, False)} - taken
    assert not missed, f"paths not taken: {sorted(missed)}"


# --------------------------------------------------------------- spectral


def _check_u2_fft_vs_direct(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = interval_signal(vals)
        fast = spectral.u2_group_norm(f)
        slow = reference.u2_group_norm_direct(f)
        assert abs(fast - slow) <= _REL_TOL * max(1.0, fast), (
            f"U2 group norm fft {fast} != direct {slow}"
        )
    # a set's norms from its exact additive energy, on both count paths:
    # three in four sizes straddle |A|^2 = N, empty sets included.  The
    # interval-normalised norm takes one value at all three N'.
    for i in range(40):
        N = int(rng.integers(1, 300))
        size = int(rng.integers(0, min(N, 2 * isqrt(N) + 2) + 1) if i % 4 else rng.integers(1, N + 1))
        A, norms = _random_subset(rng, N, size), []
        for n_prime in (None, 2 * default_n_prime(N), 8 * N + 3):
            rep = spectral.set_u2(A, N, n_prime)
            sig = embed_signal(A, N, n_prime)
            assert rep.n_prime == sig.n_prime, f"{A.elements}: N' {rep.n_prime} != {sig.n_prime}"
            for got, want in ((rep.u2_group_norm, spectral.u2_group_norm(sig)), (rep.u2_norm, spectral.u2_norm(sig))):
                assert abs(got - want) <= 1e-12 * want, f"{A.elements} at N'={rep.n_prime}: energy {got} != fft {want}"
            norms.append(rep.u2_norm)
        assert max(norms) - min(norms) <= 1e-12 * max(norms), f"{A.elements}: u2_norm depends on N': {norms}"


def _check_pairs_vs_fft(rng):
    # difference counts: set sizes straddle |A|^2 = N, with equality when N
    # is a square; each set of two or more elements holds 1 and N
    cases = [(IntegerSet(()), 5), (IntegerSet((1,)), 1), (IntegerSet((4,)), 4)]
    for _ in range(8):
        root = int(rng.integers(3, 20))
        for N in (root * root, root * root + int(rng.integers(1, 2 * root + 1))):
            for size in (root - 1, root, root + 1):
                inner = _random_subset(rng, N - 2, size - 2).elements
                cases.append((IntegerSet((1, *(x + 1 for x in inner), N)), N))
    for _ in range(30):
        N = int(rng.integers(1, 300))
        cases.append((_random_subset(rng, N, int(rng.integers(0, min(N, 2 * isqrt(N) + 2) + 1))), N))
    # ordered triples: sizes on both sides of the kernel/FFT crossover, near
    # 8 sqrt(N) for random sets, at N from 64 to 2000, and at fixed N from 1
    # to 3000; dense and sparse sets at N = 2000 and 5000; the full interval
    for _ in range(6):
        N = int(rng.integers(64, 2000))
        for size in (4 * isqrt(N), min(N, 16 * isqrt(N))):
            cases.append((_random_subset(rng, N, size), N))
    for N in (1, 2, 7, 64, 500, 3000):
        cases += [(_random_subset(rng, N, size), N) for size in sorted({1, 2, N // 8, N // 3, min(N, 1000)}) if size >= 1]
    for N, density in ((2000, 0.9), (2000, 0.5), (2000, 0.02), (5000, 0.01)):
        cases.append((IntegerSet(tuple(int(x) + 1 for x in np.nonzero(rng.random(N) < density)[0])), N))
    cases.append((IntegerSet(tuple(range(1, 1001))), 1000))
    taken = set()  # (kernel or FFT, span table or filter)
    for A, N in cases:
        a, elems = indicator_vector(A, N), np.array(A.elements, dtype=np.int64)
        counts = {"difference_counts": spectral.difference_counts(A, N)}
        counts["pairs"], counts["fft"] = spectral._differences_by_pairs(elems, N), spectral._differences_by_fft(a)
        # the definition's counts take |A| N membership tests, so large sets compare with the pair path
        want = reference.difference_counts_direct(A, N) if len(A) * N <= 20_000 else counts["pairs"].tolist()
        for name, got in counts.items():
            assert got.dtype == np.int64 and got.tolist() == want, f"{A.elements} in [1, {N}]: {name} difference counts differ"
        want = reference.ordered_triples_direct(A)
        paths = {"ordered_triples": spectral.ordered_triples(A, N), "fft": spectral._triples_by_fft(a)}
        if A.elements:
            ends = core._pair_ends(elems)
            paths["kernel"] = spectral._triples_by_kernel(elems, ends)
            taken.add((spectral._use_kernel(ends, N), core._pair_lookup(elems)[3]))
        assert set(paths.values()) == {want}, f"{len(A)} elements in [1, {N}]: {paths} != oracle {want}"
    # sparse sets in [1, 10^6], too wide for a span table: the kernel takes
    # the residue filter, alone and with a sum added (the FFT is compared above)
    for _ in range(2):
        sparse = _random_subset(rng, 10**6, 100).elements
        for A in (IntegerSet(sparse), IntegerSet.from_iterable({*sparse, sparse[0] + sparse[1]})):
            elems = np.array(A.elements, dtype=np.int64)
            taken.add((spectral._use_kernel(core._pair_ends(elems), 10**6), core._pair_lookup(elems)[3]))
            got, want = spectral.ordered_triples(A, 10**6), reference.ordered_triples_direct(A)
            assert got == want, f"{A.elements} in [1, 10^6]: {got} != oracle {want}"
    assert {(True, True), (True, False), (False, True)} <= taken, f"ordered triples paths taken: {sorted(taken)}"


def _check_triples_zero_iff_sum_free(rng):
    # ordered_triples(A, N) == 0 exactly when A is ALLOW_EQUAL sum-free, and
    # t_count of A's indicator is that count over N^2, so it vanishes
    # exactly then too.  At each N the sizes fall below is_sum_free's
    # set-scan cutoff and on both sides of ordered_triples' kernel/FFT
    # crossover, near 8 sqrt(N) for random sets; each set is drawn from
    # {1..N} and from its odd numbers, which are sum-free.  A set below the
    # cutoff never reaches the FFT, since n^2/4 pairs > 16N would need
    # n > 8 sqrt(N) > 64.
    taken = set()  # (is_sum_free by the kernel, ordered_triples by the kernel, T = 0)
    for _ in range(6):
        N = int(rng.integers(300, 3000))
        cross = 8 * int(np.sqrt(N))
        for size in (int(rng.integers(1, solver._KERNEL_MIN_SIZE)), cross // 2, 2 * cross):
            for step in (1, 2):
                pool = np.arange(1, N + 1, step)
                A = IntegerSet(tuple(sorted(int(x) for x in rng.choice(pool, min(size, len(pool)), replace=False))))
                triples = spectral.ordered_triples(A, N)
                zero = triples == 0
                assert zero == solver.is_sum_free(A, solver.ALLOW_EQUAL), f"{len(A)} elements in [1, {N}]: T = 0 is {zero}"
                t = spectral.t_count(indicator_vector(A, N))
                assert abs(t * N**2 - triples) <= 1e-6, f"{len(A)} elements in [1, {N}]: t_count N^2 = {t * N**2} != {triples}"
                count = spectral._use_kernel(core._pair_ends(np.array(A.elements, dtype=np.int64)), N)
                taken.add((solver._sum_free_path(A) != "scan", count, zero))
    want = {(check, count, zero) for check in (True, False) for count in (True, not check) for zero in (True, False)}
    assert want <= taken, f"paths not taken: {sorted(want - taken)}"


def _check_t_count_direct(rng):
    for _ in range(25):
        n = int(rng.integers(2, 28))
        vals = rng.uniform(-1.0, 1.0, size=n)
        fast = spectral.t_count(vals)
        slow = reference.t_count_direct(vals)
        assert abs(fast - slow) <= 1e-12, f"t_count fft {fast} != direct {slow}"


def _check_t_stability(rng):
    for _ in range(20):
        n = int(rng.integers(4, 64))
        f = rng.uniform(-1.0, 1.0, size=n)
        g = np.clip(f + rng.uniform(-0.5, 0.5, size=n), -1.0, 1.0)
        gap = spectral.t_stability_gap(f, g)
        assert gap.t_gap <= 7.0 * gap.l1_gap + 1e-12, (
            f"stability violated: {gap.t_gap} > 7 * {gap.l1_gap}"
        )


def _check_mean_envelope(rng):
    for _ in range(15):
        n = int(rng.integers(4, 80))
        vals = rng.uniform(-1.0, 1.0, size=n)
        f = interval_signal(vals)
        mean = abs(vals.mean())
        assert mean <= 8.0 * spectral.u2_norm(f) + _REL_TOL, "mean above 8 * U2(N)"


def _check_pollard_lattice(rng):
    for _ in range(40):
        p = int(rng.choice([5, 7, 11, 13]))
        s1 = _random_subset(rng, p, int(rng.integers(1, p + 1))).elements
        s2 = _random_subset(rng, p, int(rng.integers(1, p + 1))).elements
        s1 = tuple(x - 1 for x in s1)
        s2 = tuple(x - 1 for x in s2)
        k = int(rng.integers(0, min(len(s1), len(s2)) + 1))
        report = spectral.pollard_check(s1, s2, p, Fraction(k, p))
        assert report.holds, f"p={p} S1={s1} S2={s2} t={k}/{p}: {report.lhs} < {report.rhs}"


def _check_decomposition(rng):
    # complex normal values cut at their 80% quantile, and real uniform
    # values cut at tau = 0.05
    for i in range(12):
        n = int(rng.integers(4, 40))
        f = interval_signal(rng.uniform(-1.0, 1.0, n) if i % 2 else rng.normal(size=n) + 1j * rng.normal(size=n))
        hat = np.abs(spectral.spectrum(f))
        tau = 0.05 if i % 2 else float(np.quantile(hat, 0.8)) + 1e-12
        pair = spectral.fourier_decompose(f, tau)
        recon = pair.f_structured.values + pair.f_residual.values
        assert np.max(np.abs(recon - f.values)) <= 1e-12, "decomposition not additive"
        resid_hat = np.abs(spectral.spectrum(pair.f_residual))
        assert resid_hat.max() < tau + 1e-12, "residual keeps a large coefficient"
        assert pair.frequency_count == int(np.sum(hat >= tau)), "frequency count wrong"
        # Parseval bounds the large coefficients, and sum |hat|^4 <= tau^2 sum |hat|^2 the residual
        mean_sq = float(np.mean(np.abs(f.values) ** 2))
        assert pair.frequency_count * tau**2 <= mean_sq + 1e-12, "more large coefficients than Parseval allows"
        assert spectral.u2_group_norm(pair.f_residual) <= tau**0.5 * mean_sq**0.25 + 1e-12, "residual U2 above its bound"


# -------------------------------------------------------------- structure


def _check_dense_progression_vs_naive(rng):
    # random sets at target 1/2, and the full interval {1..N} at target 1,
    # which its best window, all of it, meets with equality
    cases = []
    for _ in range(12):
        N = int(rng.integers(8, 61))
        cases.append((_random_set(rng, N, N), N, int(rng.integers(1, 7)), Fraction(1, 2)))
    N = int(rng.integers(5, 40))
    cases.append((IntegerSet(tuple(range(1, N + 1))), N, 1, Fraction(1)))
    for A, N, min_length, target in cases:
        report = structure.find_dense_progression(A, N, min_length, target)
        prog = report.progression
        got = (report.hits, prog.length, prog.start, prog.step)
        naive = reference.dense_progression_direct(A, N, min_length)
        assert got == naive, f"N={N} L0={min_length} {A.elements}: {got} != {naive}"
        assert report.density == Fraction(report.hits, prog.length) and report.target == target
        assert report.meets_target == (report.density >= target), f"N={N}: density {report.density}, target {target}"


def _check_alpha_tilde_random(rng):
    # grids in eighths, and grids with a single nonzero cell c, the equality
    # case lhs = rhs = 4c at eta = 0
    grids = []
    for i in range(33):
        q, M = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        if i < 30:
            values = [Fraction(int(x), 8) for x in rng.integers(0, 9, size=q * M)]
        else:
            values = [Fraction(0)] * (q * M)
            values[int(rng.integers(0, q * M))] = Fraction(int(rng.integers(1, 16)), 16)
        grids.append(structure.AlphaGrid.from_values(q, M, values))
    for grid in grids:
        q, M = grid.modulus, grid.levels
        total = sum(v for row in grid.values for v in row)
        for eta in (Fraction(0), Fraction(1, 10), Fraction(3, 10)):
            report = structure.alpha_tilde(grid, eta)
            lhs, rhs = report.lhs_total, report.rhs_bound
            assert lhs == reference.alpha_tilde_direct(grid, eta), f"{grid.values} eta={eta}: lhs {lhs} != oracle"
            assert rhs == 4 * total - 4 * eta * q * M, f"{grid.values} eta={eta}: rhs {rhs}"
            assert report.holds and lhs >= rhs, f"q={q} M={M} eta={eta}: {lhs} < {rhs}"


def _check_difference_set_invariance(rng):
    for _ in range(15):
        A = _random_set(rng, 12, 60)
        diffs, size = structure.difference_set(A)
        assert 0 in diffs and size == len(diffs)
        assert all(-d in diffs for d in diffs), "difference set not symmetric"
        shift = int(rng.integers(0, 20))
        scale = int(rng.integers(1, 5))
        shifted = IntegerSet(tuple(a + shift for a in A.elements))
        scaled = IntegerSet(tuple(a * scale for a in A.elements))
        assert structure.difference_set(shifted)[0] == diffs, "translation changed diffs"
        assert structure.difference_set(scaled)[0] == tuple(
            d * scale for d in diffs
        ), "dilation not equivariant"


def _check_popular_differences_monotone(rng):
    for _ in range(15):
        N = int(rng.integers(8, 64))
        A = _random_set(rng, 12, N)
        diffs, _ = structure.difference_set(A)
        prev = None
        for t in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            popular = structure.popular_differences(A, N, t)
            assert set(popular) <= set(diffs), "popular difference not a difference"
            if prev is not None:
                assert set(popular) <= set(prev), "popularity not monotone in t"
            prev = popular


def _check_doubling_report(rng):
    for _ in range(10):
        N = int(rng.integers(20, 80))
        A = _random_set(rng, min(24, N), N)
        eps = Fraction(int(rng.integers(1, 5)), 10)
        delta = 0.1
        report = structure.check_doubling_hypothesis(A, N, eps, delta)
        allowance = 4 * len(A) - eps * N
        assert report.doubling_allowance == allowance
        want = report.popular_count <= allowance
        assert report.hypothesis_met == want, "hypothesis flag inconsistent"
        if report.hypothesis_met:
            assert report.progression is not None


def _check_avoid_zero_mass(rng):
    # sparse and dense grids, so that strides and interval ends tie; index
    # bounds below q and past it, and interval floors on and between the
    # grid lines
    for _ in range(40):
        q, K = int(rng.integers(1, 13)), int(rng.integers(1, 9))
        grid = structure.GridSet(q, K, rng.uniform(size=(q, K)) < rng.uniform(0.05, 0.6))
        index_bound = int(rng.integers(1, q + 3))
        min_interval = Fraction(int(rng.integers(1, 2 * K + 1)), 2 * K)
        report = structure.avoid_zero_diagnostic(grid, index_bound, min_interval)
        got = (report.subgroup_stride, report.interval_end, report.mass)
        want = reference.avoid_zero_direct(grid, index_bound, min_interval)
        assert got == want, f"q={q} K={K} bound {index_bound} from {min_interval}: {got} != oracle {want}"
        assert report.subgroup == tuple(range(0, q, report.subgroup_stride)), f"subgroup {report.subgroup}"


def _check_lev_random(rng):
    for _ in range(25):
        size = int(rng.integers(13, 21))
        start = int(rng.integers(1, 50))
        step = int(rng.integers(1, 9))
        P = structure.Progression(start, step, size)
        picks = rng.permutation(size)[: size // 2 + 1 + int(rng.integers(0, size // 4))]
        X = IntegerSet(tuple(sorted(start + step * int(i) for i in picks)))
        assert structure.lev_check(P, X), f"lev failed: |P|={size}, |X|={len(X)}"


def _check_lev_cover_vs_oracle(rng):
    # X of any size in [0, L), so that the cover fails as well as holds;
    # every other X spans [0, top], whose 5X - 4X ends at 5 top, and the
    # range ends there or one past it
    seen = set()
    for case in range(80):
        if case % 2:
            length = int(rng.integers(1, 41))
            size = int(rng.integers(1, length + 1))
            xs = sorted(int(x) for x in rng.choice(length, size=size, replace=False))
        else:
            top = int(rng.integers(0, 9))
            xs = sorted({0, top, *(int(x) for x in rng.integers(0, top + 1, size=top))})
            length = 5 * top + 1 + int(rng.integers(0, 2))
        want = reference.lev_cover_direct(xs, length)
        assert structure._lev_covers(xs, length) == want, f"cover differs: L={length}, X={xs}"
        seen.add(want)
    assert seen == {True, False}, f"only {seen} drawn"


# ---------------------------------------------------------------- weights


def _random_params(rng, max_steps=3):
    return weights.IterationParams(
        modulus_factor=int(rng.integers(2, 4)),
        interval_shrink=Fraction(int(rng.integers(1, 5)), 4),
        t_samples=int(rng.integers(2, 7)),
        steps=int(rng.integers(1, max_steps + 1)),
    )


def _check_weight_mean_floor(rng):
    for _ in range(8):
        params = _random_params(rng)
        K = int(rng.integers(1, 10))
        eps = Fraction(1, int(rng.integers(2, 10)))
        report = weights.build_weight(eps, params, K)
        stats = weights.weight_stats(report.weight)
        assert abs(stats.mean - 1.0) <= 1e-12, f"mean {stats.mean} drifted"
        assert stats.minimum >= 0.25, f"floor violated: {stats.minimum}"


def _check_alpha_recurrence(rng):
    eps = Fraction(1, int(rng.integers(2, 20)))
    steps = int(rng.integers(1, 30))
    trail = weights.alpha_schedule(eps, steps)
    fp = weights.alpha_fixed_point(eps)
    assert weights.alpha_next(fp, eps) == fp, "fixed point not fixed"
    for k in range(steps):
        assert trail[k + 1] - fp == Fraction(3, 4) * (trail[k] - fp), "contraction off"
    assert trail[-1] - fp == Fraction(3, 4) ** steps * (trail[0] - fp)


def _check_snapshot_mean(rng):
    for _ in range(6):
        params = _random_params(rng, max_steps=1)
        K = int(rng.integers(1, 9))
        w = weights.uniform_weight(K)
        t = Fraction(int(rng.integers(1, 5)), 4)
        snap = weights.pushforward_snapshot(w, params, Fraction(1, 2), t)
        assert abs(float(snap.values.mean()) - 1.0) <= 1e-12, "node mean drifted"
        assert snap.values.min() >= 0.25


def _check_uniform_sampler_full(rng):
    K = int(rng.integers(1, 9))
    w = weights.uniform_weight(K)
    N = int(rng.integers(K, 200))
    p = weights.sample_probabilities(w, N)
    assert p.shape == (N,) and np.all(p == 1.0), "uniform weight must give probability 1"
    for seed in rng.integers(0, 2**32, size=3):
        A = weights.sample_set(w, N, int(seed))
        assert A.elements == tuple(range(1, N + 1)), "uniform sample not full interval"


def _check_sampler_reproducible(rng):
    params = _random_params(rng, max_steps=2)
    w = weights.build_weight(Fraction(1, 4), params, 8).weight
    N = max(512, w.modulus * w.cells)
    seed = int(rng.integers(0, 2**32))
    a = weights.sample_set(w, N, seed)
    b = weights.sample_set(w, N, seed)
    assert a.elements == b.elements, "sampling not reproducible"


def _check_sampler_u2_scaling(rng):
    params = weights.IterationParams(steps=2)
    w = weights.build_weight(Fraction(1, 4), params, 8).weight
    p = None
    for N in (1 << 10, 1 << 12, 1 << 14):
        p = weights.sample_probabilities(w, N)
        scaled = []
        for seed in rng.integers(0, 2**32, size=5):
            A = weights.sample_set(w, N, int(seed))
            gap = indicator_vector(A, N) - p
            dist = spectral.u2_norm(interval_signal(gap))
            scaled.append(dist * N**0.25)
        med = float(np.median(scaled))
        assert med <= 3.0, f"U2 sampling error too large at N={N}: {med}"


def _check_experiment_reproducible(rng):
    params = weights.IterationParams(steps=1, t_samples=2)
    seeds = [int(s) for s in rng.integers(0, 2**32, size=2)]
    a = weights.density_experiment(Fraction(1, 2), params, 4, 256, seeds)
    b = weights.density_experiment(Fraction(1, 2), params, 4, 256, seeds)
    assert a.to_json_dict() == b.to_json_dict(), "experiment not bit-reproducible"


# --------------------------------------------------------------- equidist


def _check_irrationality_monotone(rng):
    theta = eq.Theta((float(rng.uniform()),))
    prev = np.inf
    for a in range(1, 13):
        report = eq.irrationality_check(theta, a, 1000)
        assert report.worst_distance <= prev + 1e-15, "worst distance increased with A"
        prev = report.worst_distance


def _check_scan_vs_oracle(rng):
    # 4 000 places at a = 1, then d <= 4 with theta uniform, or in eighths
    # and twelfths, where many vectors tie; the golden ratio, whose worst
    # vector at a = 10 is (8,), and 1/2, rational, so it fails at distance 0
    cases = [(tuple(float(t) for t in rng.uniform(size=4000)), Fraction(1), 100)]
    cases += [(eq.golden_theta().components, Fraction(10), 1000), ((0.5,), Fraction(2), 100)]
    for _ in range(60):
        d = int(rng.integers(1, 5))
        den = int(rng.choice([0, 8, 12]))
        theta = rng.uniform(size=d) if den == 0 else rng.integers(0, den, size=d) / den
        k = int(rng.integers(1, 4))
        a = Fraction(int(rng.integers(1, 9 * k)), k)  # floor(a) in 0..8
        cases.append((tuple(float(t) for t in theta), a, int(rng.integers(1, 200))))
    for theta, a, N in cases:
        report = eq.irrationality_check(eq.Theta(theta), a, N)
        got = (report.worst_vector, report.worst_distance, report.holds)
        assert got == reference.irrationality_direct(theta, a, N), f"scan differs at d={len(theta)}, a={a}"


def _check_evaluate_vs_direct(rng):
    # Each term after the first is fresh, or negates the previous term's
    # frequencies (a conjugate pair), repeats them, or is all zero.  The
    # points include 0 and negatives, theta is uniform or in eighths, so
    # zero phases occur, and coefficients are complex, real or 0.
    for _ in range(40):
        d, q = int(rng.integers(0, 4)), int(rng.integers(1, 8))
        terms = []
        for _ in range(int(rng.integers(1, 7))):
            kind = int(rng.integers(0, 4)) if terms else 0
            if kind == 0:
                key = tuple(int(f) for f in rng.integers(-4, 5, size=d + 2))
            elif kind == 1:
                key = tuple(-f for f in key)
            elif kind == 3:
                key = (0,) * (d + 2)
            # kind 2 keeps the key: a repeated term
            coef = (complex(rng.normal(), rng.normal()), float(rng.normal()), 0j)[int(rng.integers(0, 3))]
            terms.append(eq.TrigTerm(coef, key[0], key[1], key[2:]))
        F = eq.LipschitzTestFunction(q, d, terms)
        raw = rng.uniform(size=max(d, 1)) if rng.random() < 0.5 else rng.integers(0, 8, size=max(d, 1)) / 8
        theta = tuple(float(t) for t in raw)
        N = int(rng.integers(1, 3000))
        n = rng.integers(-N, 2 * N, size=int(rng.integers(1, 400)))
        got = F.evaluate(n, N, eq.Theta(theta))
        want = reference.evaluate_direct(F, n, N, theta)
        assert got.tobytes() == want.tobytes(), f"evaluate differs from the per-term loop: {terms}"


def _check_geometric_envelope(rng):
    # the golden theta with the cosine orbit, then random theta and frequencies
    cases = [(eq.golden_theta(), eq.cosine_orbit(), 1, 1000)]
    for _ in range(15):
        m = int(rng.integers(1, 7))
        F = eq.LipschitzTestFunction(modulus=1, orbit_dim=1, terms=(eq.TrigTerm(1.0, 0, 0, (m,)),))
        cases.append((eq.Theta((float(rng.uniform()),)), F, m, 500))
    for theta, F, m, N in cases:
        dist = eq.torus_distance(m * theta.components[0])
        if dist < 1e-3:
            continue
        report = eq.equidist_error(theta, F, N)
        assert report.error <= 2.0 / (N * dist), f"geometric envelope failed: {report.error} > 2/({N}*{dist})"


def _check_constant_exact(rng):
    for N in (100, 500):
        report = eq.equidist_error(eq.golden_theta(), eq.constant_function(1.0), N)
        assert report.error == 0.0 and report.empirical == 1.0, f"constant-1 error {report.error} at N={N}"
    value = complex(rng.normal(), rng.normal())
    wobbly = eq.equidist_error(eq.golden_theta(), eq.constant_function(value), 100)
    assert wobbly.error <= 1e-14 * (1.0 + abs(value)), f"constant error {wobbly.error}"


def _check_riemann_uniform(rng):
    # N a multiple of K and N not one
    for _ in range(5):
        K = int(rng.integers(1, 9))
        w = weights.uniform_weight(K)
        N = K * int(rng.integers(1, 50))
        for n in (N, N + int(rng.integers(1, max(K, 2)))):
            assert weights.riemann_error(w, n) == 0.0, f"uniform weight should integrate exactly: K={K}, N={n}"


# Owner suite -> (check name, check) in run order.  Each check takes the
# generator rng_from_seed(seed, owner, name) and raises on a violation.
SUITES: dict[str, list[tuple[str, object]]] = {
    "solver": [
        ("dilation_floor", _check_dilation_floor),
        ("exact_vs_oracle", _check_exact_vs_oracle),
        ("convention_order", _check_convention_order),
        ("top_interval_bound", _check_top_interval),
        ("compose_additivity", _check_compose_additivity),
        ("heuristic_bounds", _check_heuristic_bounds),
        ("residue_rows_exact", _check_residue_rows_exact),
        ("prime_floor", _check_prime_floor),
        ("local_search_vs_oracle", _check_local_search_vs_oracle),
        ("packing_vs_oracle", _check_packing_vs_oracle),
        ("sum_free_paths_agree", _check_sum_free_paths_agree),
    ],
    "spectral": [
        ("u2_fft_vs_direct", _check_u2_fft_vs_direct),
        ("pairs_vs_fft", _check_pairs_vs_fft),
        ("t_count_direct", _check_t_count_direct),
        ("triples_zero_iff_sum_free", _check_triples_zero_iff_sum_free),
        ("t_stability", _check_t_stability),
        ("mean_envelope", _check_mean_envelope),
        ("pollard_lattice", _check_pollard_lattice),
        ("decomposition", _check_decomposition),
    ],
    "structure": [
        ("dense_progression_vs_naive", _check_dense_progression_vs_naive),
        ("alpha_tilde_random", _check_alpha_tilde_random),
        ("difference_set_invariance", _check_difference_set_invariance),
        ("popular_differences_monotone", _check_popular_differences_monotone),
        ("doubling_report", _check_doubling_report),
        ("avoid_zero_mass", _check_avoid_zero_mass),
        ("lev_random", _check_lev_random),
        ("lev_cover_vs_oracle", _check_lev_cover_vs_oracle),
    ],
    "weights": [
        ("weight_mean_floor", _check_weight_mean_floor),
        ("alpha_recurrence", _check_alpha_recurrence),
        ("snapshot_mean", _check_snapshot_mean),
        ("uniform_sampler_full", _check_uniform_sampler_full),
        ("sampler_reproducible", _check_sampler_reproducible),
        ("sampler_u2_scaling", _check_sampler_u2_scaling),
        ("experiment_reproducible", _check_experiment_reproducible),
    ],
    "equidist": [
        ("irrationality_monotone", _check_irrationality_monotone),
        ("scan_vs_oracle", _check_scan_vs_oracle),
        ("evaluate_vs_direct", _check_evaluate_vs_direct),
        ("geometric_envelope", _check_geometric_envelope),
        ("constant_exact", _check_constant_exact),
        ("riemann_uniform", _check_riemann_uniform),
    ],
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(suite: str, seed: int = 0) -> dict:
    """Run one named suite (or 'all'), returning a JSON-ready report.

    Check streams are seeded as (seed, owning suite, check name), so a
    check sees the same instances whether run alone or under 'all'.
    Failures are report content, not exceptions.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    names = list(SUITES) if suite == "all" else [suite]
    checks = []
    for owner in names:
        for check_name, fn in SUITES[owner]:
            rng = rng_from_seed(seed, owner, check_name)
            label = f"{owner}.{check_name}"
            try:
                fn(rng)
            except Exception as exc:  # noqa: BLE001 - failures become report rows
                checks.append(
                    {
                        "name": label,
                        "passed": False,
                        "detail": f"{type(exc).__name__}: {exc}",
                    }
                )
            else:
                checks.append({"name": label, "passed": True, "detail": None})
    failed = [c["name"] for c in checks if not c["passed"]]
    return {
        "suite": suite,
        "seed": seed,
        "passed": not failed,
        "checks": checks,
        "failed": failed,
    }
