import hashlib
import tracemalloc
from fractions import Fraction
from math import prod
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumfree import core, solver
from sumfree.core import IntegerSet, rng_from_seed
from sumfree.reference import exhaustive_max_sum_free, primes_2_mod_3
from sumfree.solver import (
    ALLOW_EQUAL,
    DISTINCT_ONLY,
    _conflict,
    _draws,
    catalog,
    compose,
    compose_iterate,
    dilation_select,
    dilation_sweep,
    heuristic_sum_free,
    is_sum_free,
    max_sum_free_subset,
    one_third_floor,
)

DECADE = IntegerSet(tuple(range(1, 11)))


def random_set(rng, max_size, max_element):
    size = int(rng.integers(1, max_size + 1))
    size = min(size, max_element)
    picks = rng.choice(range(1, max_element + 1), size=size, replace=False)
    return IntegerSet(tuple(sorted(int(x) for x in picks)))


class TestIsSumFree:
    def test_allow_equal_catches_doubling(self):
        assert not is_sum_free(IntegerSet((3, 6)), ALLOW_EQUAL)
        assert is_sum_free(IntegerSet((3, 6)), DISTINCT_ONLY)

    def test_distinct_pair(self):
        assert not is_sum_free(IntegerSet((2, 3, 5)), DISTINCT_ONLY)

    def test_odd_numbers(self):
        assert is_sum_free(IntegerSet((1, 3, 5, 7, 9)), ALLOW_EQUAL)

    @pytest.mark.parametrize("conv", [ALLOW_EQUAL, DISTINCT_ONLY], ids=lambda c: c.value)
    def test_no_table_without_a_pair_to_look_up(self, conv, monkeypatch):
        # the kernel runs, and picks its lookup table, only when a pair has a
        # sum to look up; top-half sets, like the heuristic's witnesses
        # A ∩ [x, 2x), and small sets are scanned
        assert not hasattr(core, "_member_table")
        calls = []
        real = solver._pair_sum_hits
        monkeypatch.setattr(solver, "_pair_sum_hits", lambda a, ends, **k: calls.append(len(a)) or real(a, ends, **k))
        assert is_sum_free(IntegerSet(tuple(range(1, 126, 2))), conv) and calls == []
        for lo in (150_001, 10**14):
            top = IntegerSet(tuple(range(lo, lo + 150_000, 100)))
            assert len(top) == 1500
            assert is_sum_free(top, conv) and calls == []
            assert not is_sum_free(IntegerSet.from_iterable(top.elements + (100,)), conv)
            assert calls == [1501]
            calls.clear()

    def test_path_selector_boundary(self):
        # the scan up to 63 elements, the kernel from 64
        assert solver._KERNEL_MIN_SIZE == 64
        assert solver._sum_free_path(IntegerSet(tuple(range(1, 127, 2)))) == "scan"
        assert solver._sum_free_path(IntegerSet(tuple(range(1, 129, 2)))) == "kernel"

    def test_dense_set_past_the_filter_prime_confirms_nothing(self, monkeypatch):
        # 15 001 elements, sum-free, up to 279 999 > 262 139 (the filter prime
        # of _LOOKUP_BYTES): their span fits a span table, so no wrapped sum
        # is confirmed, and searchsorted runs once, for the pair ends (2 575
        # times through a residue filter mod 262 139)
        A = IntegerSet(tuple(range(1, 20_000, 2)) + tuple(range(130_001, 140_000, 2)) + (279_999,))
        assert len(A) == 15_001 and A.elements[-1] > core._filter_prime(core._LOOKUP_BYTES // 2)
        calls = []
        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1) or real(*a, **k))
        assert is_sum_free(A, ALLOW_EQUAL)
        assert len(calls) == 1

    def test_wide_set_filter_prime_grows_with_the_set(self, monkeypatch):
        # 16 384 random odd numbers below 10^8 are too wide for a span table,
        # and their budget of 64 bytes an element gives the filter prime
        # 524 287.  The filter confirms the sums that hit A's residues, about
        # a 1 - exp(-|A|/p) share: 2 039 112 of them, against 4 025 693
        # (1.97x) mod 262 139, the prime of a 2^19-byte budget
        rng = rng_from_seed(0, "wide-odd")
        A = IntegerSet(tuple(sorted((rng.choice(5 * 10**7, size=16_384, replace=False) * 2 + 1).tolist())))
        assert core._filter_prime(64 * len(A) // 2) == 524_287
        confirmed = []
        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda a, v, **k: confirmed.append(np.size(v)) or real(a, v, **k))
        assert is_sum_free(A, ALLOW_EQUAL)
        # the first call finds the pair ends
        assert confirmed[0] == len(A) and 1.9 * sum(confirmed[1:]) < 4_025_693


class TestExactSolver:
    def test_decade_frozen_witness(self):
        rep = max_sum_free_subset(DECADE, ALLOW_EQUAL)
        assert rep.optimum == 5
        assert rep.witness.elements == (1, 3, 5, 7, 9)
        assert rep.exact

    @pytest.mark.parametrize("conv", [ALLOW_EQUAL, DISTINCT_ONLY], ids=lambda c: c.value)
    def test_no_search_runs_twice(self, conv, monkeypatch):
        # a leaf found for suffix 0 is the whole set's first leaf reaching
        # doll[0]: a last search would repeat suffix 0's allowed set and target
        searches = []
        real = solver._first_leaf

        def spy(allowed, target, *rest):
            searches.append((allowed, target))
            return real(allowed, target, *rest)

        monkeypatch.setattr(solver, "_first_leaf", spy)
        sum_free = IntegerSet((1, 4, 7, 10))
        rep = max_sum_free_subset(sum_free, conv)
        assert rep.nodes_explored == 14 and rep.witness.elements == exhaustive_max_sum_free(sum_free, conv)[1]
        rng = rng_from_seed(2024, "solver-repeat")
        for A in [sum_free, DECADE] + [random_set(rng, 16, 40) for _ in range(20)]:
            searches.clear()
            max_sum_free_subset(A, conv)
            assert len(set(searches)) == len(searches), A.elements

    # (kind, n, convention, budget, optimum, nodes_explored, exact, witness).
    # "dense" is a seeded n-subset of [1, 4n]; "random" is 5 copies of one
    # (compose_iterate); a catalog name is n copies of that set.  The
    # 5-copy row takes the exact corpus's node budget, which it does not
    # reach; the 48-subset runs out of a smaller one, so its witness is the
    # best leaf found by then.  Any change to the packing bound or to the
    # order of the search moves nodes_explored.
    FROZEN = [
        ("dense", 24, ALLOW_EQUAL, None, 18, 219, True, (1, 3, 13, 15, 17, 23, 29, 31, 47, 59, 67, 69, 71, 73, 77, 87, 89, 95)),
        ("dense", 24, DISTINCT_ONLY, None, 18, 221, True, (1, 3, 13, 15, 17, 23, 29, 31, 47, 59, 67, 69, 71, 73, 77, 87, 89, 95)),
        ("dense", 30, ALLOW_EQUAL, None, 18, 458, True, (6, 7, 33, 37, 46, 57, 58, 61, 73, 77, 85, 87, 97, 99, 100, 108, 112, 117)),
        ("dense", 30, DISTINCT_ONLY, None, 18, 640, True, (6, 7, 26, 30, 42, 46, 57, 58, 60, 61, 73, 75, 77, 85, 97, 108, 110, 112)),
        ("dense", 36, ALLOW_EQUAL, None, 21, 1617, True, (2, 5, 8, 17, 20, 26, 38, 39, 45, 51, 54, 67, 73, 79, 82, 100, 101, 113, 125, 129, 144)),
        ("dense", 36, DISTINCT_ONLY, None, 22, 1161, True, (2, 5, 8, 16, 17, 20, 26, 38, 39, 45, 49, 67, 73, 79, 82, 100, 101, 113, 125, 134, 137, 144)),
        ("klarner", 3, ALLOW_EQUAL, None, 9, 150, True, (2, 3, 8, 42, 63, 168, 842, 1263, 3368)),
        ("klarner", 3, DISTINCT_ONLY, None, 12, 202, True, (2, 3, 4, 8, 42, 63, 84, 168, 842, 1263, 1684, 3368)),
        ("malouf", 3, ALLOW_EQUAL, None, 12, 291, True, (1, 3, 5, 9, 37, 111, 185, 333, 1333, 3999, 6665, 11997)),
        ("malouf", 3, DISTINCT_ONLY, None, 18, 876, True, (2, 3, 4, 8, 9, 18, 74, 111, 148, 296, 333, 666, 2666, 3999, 5332, 10664, 11997, 23994)),
        ("random", 8, ALLOW_EQUAL, 100_000, 25, 519, True, (4, 5, 11, 18, 19, 244, 305, 671, 1098, 1159, 14644, 18305, 40271, 65898, 69559, 878644, 1098305, 2416271, 3953898, 4173559, 52718644, 65898305, 144976271, 237233898, 250413559)),
        ("random", 8, DISTINCT_ONLY, 100_000, 30, 666, True, (5, 9, 11, 18, 19, 22, 305, 549, 671, 1098, 1159, 1342, 18305, 32949, 40271, 65898, 69559, 80542, 1098305, 1976949, 2416271, 3953898, 4173559, 4832542, 65898305, 118616949, 144976271, 237233898, 250413559, 289952542)),
        ("dense", 48, ALLOW_EQUAL, 5_000, 27, 5001, False, (82, 89, 91, 102, 104, 105, 107, 112, 115, 119, 124, 134, 135, 142, 146, 147, 148, 150, 156, 160, 166, 172, 174, 177, 181, 183, 185)),
        ("dense", 48, DISTINCT_ONLY, 5_000, 27, 5001, False, (82, 89, 91, 102, 104, 105, 107, 112, 115, 119, 124, 134, 135, 142, 146, 147, 148, 150, 156, 160, 166, 172, 174, 177, 181, 183, 185)),
    ]

    @pytest.mark.parametrize(
        "kind, n, conv, budget, optimum, nodes, exact, witness",
        FROZEN,
        ids=[f"{row[0]}{row[1]}-{row[2].value}" for row in FROZEN],
    )
    def test_frozen_nodes(self, kind, n, conv, budget, optimum, nodes, exact, witness):
        if kind in ("klarner", "malouf"):
            A = compose_iterate(next(e.elements for e in catalog() if e.name == kind), n)
        else:
            rng = rng_from_seed(2024, "frozen-nodes", kind, n)
            A = IntegerSet(tuple(sorted(int(x) for x in rng.choice(4 * n, size=n, replace=False) + 1)))
            A = A if kind == "dense" else compose_iterate(A, 5)
        rep = max_sum_free_subset(A, conv, budget=budget)
        assert (rep.optimum, rep.nodes_explored, rep.exact, rep.witness.elements) == (optimum, nodes, exact, witness)

    def test_empty_set(self):
        rep = max_sum_free_subset(IntegerSet(()))
        assert rep.optimum == 0 and rep.witness.elements == ()

    @pytest.mark.parametrize("conv", [ALLOW_EQUAL, DISTINCT_ONLY], ids=lambda c: c.value)
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("name", ["klarner", "malouf"])
    def test_catalog_compositions_exact_and_cheap(self, name, k, conv):
        part = next(e.elements for e in catalog() if e.name == name)
        rep = max_sum_free_subset(compose_iterate(part, k), conv)
        assert rep.exact
        assert rep.optimum == k * exhaustive_max_sum_free(part, conv)[0]
        assert rep.nodes_explored <= 10_000

    def test_budget_soft_fail(self):
        A = IntegerSet(tuple(range(1, 41)))
        rep = max_sum_free_subset(A, ALLOW_EQUAL, budget=5)
        assert not rep.exact
        assert rep.nodes_explored == 6
        assert is_sum_free(rep.witness, ALLOW_EQUAL)
        assert rep.optimum == len(rep.witness)

    def test_budget_stops_short_with_sum_free_witness(self):
        rng = rng_from_seed(2024, "solver-budget")
        A = IntegerSet(tuple(sorted(int(x) for x in rng.choice(160, size=40, replace=False) + 1)))
        full = max_sum_free_subset(A, DISTINCT_ONLY)
        for budget in (1, 50, full.nodes_explored // 2, full.nodes_explored - 1):
            rep = max_sum_free_subset(A, DISTINCT_ONLY, budget=budget)
            assert not rep.exact
            assert rep.nodes_explored == budget + 1
            assert set(rep.witness.elements) <= set(A.elements)
            assert is_sum_free(rep.witness, DISTINCT_ONLY)
            assert 0 < rep.optimum <= full.optimum
        rep = max_sum_free_subset(A, DISTINCT_ONLY, budget=full.nodes_explored)
        assert rep.exact and rep.witness == full.witness

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            max_sum_free_subset(IntegerSet(tuple(range(1, 70))))

    def test_rejects_negative_elements(self):
        with pytest.raises(ValueError):
            max_sum_free_subset(IntegerSet((-3, 2)))

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            max_sum_free_subset(DECADE, budget=-3)
        rep = max_sum_free_subset(DECADE, budget=0)
        assert not rep.exact and rep.nodes_explored == 1


class TestDilation:
    def test_select_is_sum_free(self):
        rng = rng_from_seed(2024, "dilation-select")
        for _ in range(30):
            A = random_set(rng, 12, 300)
            theta = Fraction(int(rng.integers(1, 97)), 97)
            sel = dilation_select(A, theta)
            assert is_sum_free(sel, ALLOW_EQUAL)

    def test_sweep_certificate_reselects(self):
        cert = dilation_sweep(DECADE)
        again = dilation_select(DECADE, cert.theta)
        assert again.elements == cert.selected.elements

    def test_sweep_empty_rejected(self):
        with pytest.raises(ValueError):
            dilation_sweep(IntegerSet(()))

    def test_sweep_handles_large_elements(self):
        # 10^7 breakpoints below 1/2, swept in blocks: memory stays near one block
        A = IntegerSet((10**6, 2 * 10**6 + 1, 7 * 10**6 + 3))
        tracemalloc.start()
        try:
            cert = dilation_sweep(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.theta == Fraction(28000013, 42000039000009)
        assert cert.selected == A and cert.size == 3
        assert peak < 16 * 2**20


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    # The sweep's docstring bounds its memory as a multiple of core._BLOCK's
    # 8-byte entries, and the prime scorer's by PRIME_DILATION_LIMIT's
    # entries, plus O(|A|); 512 and 64 bytes an element are the O(|A|)
    # allowance here.
    def test_sweep_keeps_three_block_arrays(self):
        rng = rng_from_seed(2024, "sweep-memory")
        A = IntegerSet(tuple(sorted(int(x) for x in rng.choice(2000, size=1000, replace=False) + 1)))
        assert 1.9e6 < 2 * sum(A.elements) <= solver._SWEEP_EVENT_CAP
        assert _traced_peak(dilation_sweep, A) <= 3 * 8 * solver._BLOCK + 512 * len(A)

    def test_certificate_check_takes_no_member_table(self):
        # one element far out: the certificate's is_sum_free adds its pair
        # blocks and residue filter, not a table of max(A) bytes, and the
        # sweep's block arrays are gone by then
        A = IntegerSet((*range(1, 201), 8_000_001))
        bound = 3 * 8 * solver._BLOCK + core._LOOKUP_BYTES + 512 * len(A)
        assert _traced_peak(dilation_sweep, A) <= bound < A.elements[-1]

    def test_span_table_is_bounded_by_the_set(self):
        # 10 000 negative elements 64 apart span 639 936 > _LOOKUP_BYTES,
        # and every pair is looked up: a span table of at most 64 bytes an
        # element, the kernel's two blocks (int64 sums, bool hits) and at
        # most eight int64 arrays of |A| entries.  A table sized by
        # |min(A)| would take 10 MB
        A = IntegerSet(tuple(range(-10**7 - 639_990, -10**7, 64)))
        n = len(A)
        assert n == 10_000 and core._LOOKUP_BYTES < A.elements[-1] - A.elements[0] + 3 <= 64 * n
        assert _traced_peak(is_sum_free, A) <= 64 * n + 9 * solver._BLOCK + 8 * 8 * n

    def test_dilation_hits_within_the_prime_limit(self):
        # 129 residues mod 2027 are the widest matrix the limit admits, 1013
        # rows x/2027 of 129 int64 entries, with 24 bytes an entry for the
        # products, their residues and one temporary; a full 1013 x 2027
        # matrix, 37 MB at its peak, is 16 times as wide
        rng = rng_from_seed(2024, "dilation-hits-memory")
        counts = np.bincount(rng.choice(2027, size=129, replace=False), minlength=2027)
        residues = np.flatnonzero(counts)
        assert len(residues) * (2027 // 2) <= solver.PRIME_DILATION_LIMIT

        def hits():
            return solver._middle_thirds(2027, residues) @ counts[residues]

        assert _traced_peak(hits) <= 24 * solver.PRIME_DILATION_LIMIT + 64 * 2027


def _greedy_sum_free(elems, conv):
    S: set[int] = set()
    for v in elems:
        if is_sum_free(IntegerSet.from_iterable(S | {v}), conv):
            S.add(v)
    return S


class TestConflict:
    @pytest.mark.parametrize("conv", [ALLOW_EQUAL, DISTINCT_ONLY], ids=lambda c: c.value)
    def test_matches_is_sum_free(self, conv):
        allow_eq = conv is ALLOW_EQUAL
        rng = rng_from_seed(2024, "can-add")
        # x = 6 has x/2 in the first two fixed sets, with a second pair 1 + 5
        # in one; x = 8 > max(S) has x/2 in {1, 4}; x = 10 and x = 3 have the
        # one member as x/2 and as 2x; every x up to 2 max(S) + 1 is tried
        cases = [(S, range(1, 2 * max(S, default=0) + 2)) for S in [{3, 10}, {1, 3, 5}, {1, 4}, {5}, {6}, set()]]
        for _ in range(60):
            S = _greedy_sum_free((rng.permutation(int(rng.integers(8, 60))) + 1).tolist()[: int(rng.integers(1, 30))], conv)
            cases.append((S, range(1, 2 * max(S) + 2)))
        # Compositions, where the upper ranges are the shorter for x in an
        # upper copy, and sets scaled past 2^63; x runs over the set and the
        # sums, differences, doubles and halves of the members.
        for scale, copies in [(1, 3)] * 8 + [(2**63 + 1, 1)] * 4 + [(2**64 - 1, 2)] * 2:
            part = IntegerSet(tuple(sorted(int(v) + 1 for v in rng.choice(24, size=int(rng.integers(3, 9)), replace=False))))
            A = [scale * v for v in compose_iterate(part, copies).elements]
            S = _greedy_sum_free(rng.permutation(A).tolist(), conv)
            xs = {*A, *(s + t for s in S for t in S), *(t - s for s in S for t in S if t > s), *(s // 2 for s in S if s > 1)}
            cases.append((S, sorted(xs)))
        for S, xs in cases:
            ordered = sorted(S)
            for x in xs:
                if x in S:
                    continue
                w = _conflict(x, S, ordered, allow_eq)
                if is_sum_free(IntegerSet.from_iterable(S | {x}), conv):
                    assert w is None, (S, x)
                else:  # w names members of S that close a forbidden triple with x
                    assert w is not None and set(w) <= S, (S, x, w)
                    assert not is_sum_free(IntegerSet.from_iterable({*w, x}), conv), (S, x, w)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.sampled_from([ALLOW_EQUAL, DISTINCT_ONLY]),
        st.lists(st.integers(1, 40), max_size=12),
        st.integers(1, 40),
        st.integers(0, 11),
    )
    def test_swap_precheck_misses_no_unblocking_pick(self, conv, draws, x, j):
        # a pick outside x's conflict leaves x blocked once it is dropped
        S = _greedy_sum_free(draws, conv)
        w = _conflict(x, S, sorted(S), conv is ALLOW_EQUAL) if x not in S else None
        assume(w is not None)
        pick = sorted(S)[j % len(S)]
        if pick not in w:
            assert not is_sum_free(IntegerSet.from_iterable((S - {pick}) | {x}), conv)


def _frozen_set(n, top, copies):
    """compose_iterate of the first random n-subset of [1, top] drawn at TestHeuristic.FROZEN's seed."""
    rng = rng_from_seed(2024, "frozen-witness")
    A = IntegerSet(tuple(sorted(int(x) for x in rng.choice(top, size=n, replace=False) + 1)))
    return compose_iterate(A, copies)


def _largest_conflict(x, S, ordered, allow_eq):
    """The conflict of x with S, in _conflict's form, whose largest member is largest, by a plain scan."""
    found = [(t - x, t) for t in ordered if t - x in S] + [(x - t, t) for t in ordered if 2 * t > x and x - t in S]
    if allow_eq and 2 * x in S:
        found.append((2 * x,))
    if allow_eq and x % 2 == 0 and x // 2 in S:
        found.append((x // 2,))
    return max(found, key=max, default=None)


class TestHeuristic:
    # (n, max element, convention, optimum, sha256 of the witness tuple's
    # repr, copies): the set is compose_iterate of a random n-subset of
    # [1, max element].  A 400-subset of [1, 4000] takes the exact sweep,
    # but the local search reaches the same witness without it.  A
    # 100-subset of [1, 19000] (1 954 030 events) takes it too: the sweep's
    # 56 elements tie the best interval in another set, from which the
    # search reaches another witness of 92, so this row changes when the
    # sweep does not run.  A 500-subset of [1, 10^4] (5 069 458 events,
    # within the sweep's limit), a 1000-subset of [1, 10^5] and a
    # 3000-subset of [1, 3*10^5] are past the sweep's cap, so no sweep runs
    # (it would give the 500-subset 263 under both conventions); the odd
    # class starts their search, as no prime dilation x/p beats it.  So
    # does a 200-subset of [1, 3000] in 4 copies (800 elements up to
    # 6.3e14, the large corpus's compose200_3000x4 shape), whose search
    # scans the upper ranges for x in an upper copy.  All make hundreds of
    # plateau-swap attempts, so these pin the order of the local search's
    # draws.
    FROZEN = [
        (400, 4000, ALLOW_EQUAL, 209, "e3ae82c68c48ee2f50dfc4bcae13467ff4aea9641a12c8ee189d32832a14a04d", 1),
        (400, 4000, DISTINCT_ONLY, 209, "e3ae82c68c48ee2f50dfc4bcae13467ff4aea9641a12c8ee189d32832a14a04d", 1),
        (100, 19000, ALLOW_EQUAL, 92, "a9e67bea0923e5f3968b15a6d039ca2918671c671e7425dc65b37f431630f514", 1),
        (100, 19000, DISTINCT_ONLY, 92, "a9e67bea0923e5f3968b15a6d039ca2918671c671e7425dc65b37f431630f514", 1),
        (500, 10**4, ALLOW_EQUAL, 261, "3c238295d148ff8ad790d50a97ab6a83075368273f50e60957349f5c526d77bc", 1),
        (500, 10**4, DISTINCT_ONLY, 261, "3c238295d148ff8ad790d50a97ab6a83075368273f50e60957349f5c526d77bc", 1),
        (1000, 10**5, ALLOW_EQUAL, 518, "58e52ee7bc29e1f5789060c33f4e9822f5d5d647c00f84986ab7fade7f1c0567", 1),
        (1000, 10**5, DISTINCT_ONLY, 520, "0e35c35aae8016a9a3010e18ec99919a79381df9f47475d7821e8bcd5448c6ee", 1),
        (3000, 3 * 10**5, ALLOW_EQUAL, 1510, "30c573dff7778620e305285e7751ff81600cd5f0e9f2679175a37b0257dd434d", 1),
        (3000, 3 * 10**5, DISTINCT_ONLY, 1510, "30c573dff7778620e305285e7751ff81600cd5f0e9f2679175a37b0257dd434d", 1),
        (200, 3000, ALLOW_EQUAL, 372, "7cffa16472f370ea4e31c4efdfe3d6c74dafdb4162710322c7203038061704e9", 4),
        (200, 3000, DISTINCT_ONLY, 372, "7cffa16472f370ea4e31c4efdfe3d6c74dafdb4162710322c7203038061704e9", 4),
    ]

    # ids: the row's values, with the copies only when there are several
    @pytest.mark.parametrize(
        "n, top, conv, optimum, digest, copies",
        FROZEN,
        ids=["-".join(map(str, row[:5])) + (f"-x{row[5]}" if row[5] > 1 else "") for row in FROZEN],
    )
    def test_frozen_witness(self, n, top, conv, optimum, digest, copies):
        rep = heuristic_sum_free(_frozen_set(n, top, copies), conv, seed=5)
        assert rep.optimum == optimum
        assert hashlib.sha256(repr(rep.witness.elements).encode()).hexdigest() == digest

    def test_witness_reads_only_whether_a_conflict_exists(self, monkeypatch):
        # A scan that names another conflict, the one with the largest
        # member, must leave every witness as it is: on the FROZEN inputs,
        # and on compositions, where the two scans search other ranges
        scan, other = _conflict, []

        def largest_conflict(x, S, ordered, allow_eq):
            w, first = _largest_conflict(x, S, ordered, allow_eq), scan(x, S, ordered, allow_eq)
            assert (w is None) == (first is None), (x, ordered)
            other.append(w != first)
            return w

        klarner = catalog()[0].elements
        runs = [(_frozen_set(n, top, copies), conv, 5) for n, top, conv, _, _, copies in self.FROZEN]
        runs += [(compose_iterate(klarner, 5), conv, seed) for conv in (ALLOW_EQUAL, DISTINCT_ONLY) for seed in (0, 1)]
        runs += [(compose_iterate(_frozen_set(30, 90, 1), 3), ALLOW_EQUAL, seed) for seed in (2, 3)]
        witnesses = [heuristic_sum_free(A, conv, seed).witness for A, conv, seed in runs]
        monkeypatch.setattr(solver, "_conflict", largest_conflict)
        assert [heuristic_sum_free(A, conv, seed).witness for A, conv, seed in runs] == witnesses
        assert sum(other) > len(other) // 10, "the two scans seldom differ"

    def test_draws_replay_bounded_integers(self):
        # 2^31 + 1 is rejected about half the time, 1 consumes nothing, and
        # 2^32 takes the word itself; the odd warm-up leaves Philox holding
        # half a 64-bit word, and 3000 draws cross several refills
        sizes = (1, 2, 3, 7, 1000, 2**31 + 1, 2**32)
        picks = rng_from_seed(8, "draw-sizes").integers(0, len(sizes), size=3000)
        bulk, scalar = rng_from_seed(8, "draws"), rng_from_seed(8, "draws")
        for rng in (bulk, scalar):
            rng.integers(0, 2**32, size=3, dtype=np.uint64)
        draw = _draws(bulk)
        for i in picks.tolist():
            assert draw(sizes[i]) == int(scalar.integers(0, sizes[i])), sizes[i]

    def test_deterministic_per_seed(self):
        A = IntegerSet(tuple(range(3, 60, 2)))
        a = heuristic_sum_free(A, seed=11)
        b = heuristic_sum_free(A, seed=11)
        assert a.witness.elements == b.witness.elements

    def test_large_elements_past_the_sweep_cap_reach_the_floor(self):
        A = IntegerSet(tuple(10**15 * x for x in (17, 28, 31, 38, 48)))
        rep = heuristic_sum_free(A, seed=4)
        assert is_sum_free(rep.witness, ALLOW_EQUAL)
        assert set(rep.witness.elements) <= set(A.elements)
        assert rep.optimum >= -(-(len(A) + 1) // 3)

    @pytest.mark.parametrize(
        "A, within, want",
        [
            # past the sweep's cap the interval 99991·{6..11} reaches the
            # floor 5, and no residue class or prime dilation beats it: no
            # sweep runs, though it would within its limit (this row and
            # FROZEN's 500-subset rows change if it does; FROZEN's 100-subset
            # rows and the solve_heuristic golden, if no sweep runs at all)
            (IntegerSet(tuple(99_991 * k for k in range(1, 13))), True, tuple(99_991 * k for k in range(6, 12))),
            # the exact sweep would need about 9e9 events; A ∩ [x, 2x) holds
            # 150 elements and the odd residue class 151
            (IntegerSet((1, *(99_991 * k for k in range(1, 301)))), False, (1, *(99_991 * k for k in range(1, 301, 2)))),
        ],
        ids=["within-the-limit", "past-the-limit"],
    )
    def test_witness_past_the_sweep_cap(self, A, within, want):
        events = 2 * sum(A.elements)
        assert events > solver._SWEEP_EVENT_CAP and (events <= solver.SWEEP_EVENT_LIMIT) == within
        assert heuristic_sum_free(A).witness.elements == want

    @pytest.mark.parametrize("conv, optimum", [(ALLOW_EQUAL, 16), (DISTINCT_ONLY, 31)], ids=["allow-equal", "distinct"])
    def test_prime_candidate_reaches_floor(self, conv, optimum):
        # multiples of 2520 * 99991 defeat every residue class mod q <= 10,
        # and each dyadic interval holds one element; of the 212 dilations
        # x/p for p = 11..83, 2/17, row 1 of 17, is the first to select the
        # most, and it starts the search
        A = IntegerSet(tuple(2520 * 99_991 * 2**i for i in range(31)))
        assert solver._residue_winner(solver._row_residues(A.elements), 1) == (17, 1)
        assert len(dilation_select(A, Fraction(2, 17))) >= one_third_floor(len(A)) == 11
        rep = heuristic_sum_free(A, conv)
        assert rep.optimum == optimum

    @pytest.mark.parametrize("seed", [0, 1])
    def test_residue_classes_that_are_no_dilation(self, seed):
        # {1} mod 3 and {3, 4, 5} mod 10 lie under no middle-third row of
        # their own modulus, and both sets are past the sweep's cap
        for A in (IntegerSet(tuple(range(1, 3000, 3))), IntegerSet.from_iterable(10 * k + r for k in range(400) for r in (3, 4, 5))):
            assert 2 * sum(A.elements) > solver._SWEEP_EVENT_CAP
            assert heuristic_sum_free(A, seed=seed).witness == A

    def test_start_reads_no_seed(self):
        # 5 copies of the klarner set are past the sweep's cap; with the
        # search cut out, every seed must give one start, as every candidate
        # reads A alone
        A = compose_iterate(catalog()[0].elements, 5)
        assert 2 * sum(A.elements) > solver._SWEEP_EVENT_CAP
        with patch.object(solver, "_local_search", lambda elems, start, draw, allow_eq: start):
            witnesses = {heuristic_sum_free(A, seed=seed).witness for seed in (0, 1, 2**64 - 1)}
        assert len(witnesses) == 1

    def test_widest_prime_scored(self):
        # M holds every prime p = 2 (mod 3) below 2^15, so no residue class,
        # interval or x/p through 83 reaches the floor of 2 on 2520·M·{1, 4,
        # 16}, and the first admissible prime, 32771, is scored on all its
        # 16 385 rows
        M = prod(primes_2_mod_3(2, 2**15))
        A = IntegerSet(tuple(2520 * M * k for k in (1, 4, 16)))
        assert solver._residue_winner(solver._row_residues(A.elements), 1) is None
        assert solver._prime_floor(A.elements) == Fraction(1, 32771)
        assert heuristic_sum_free(A).optimum == 3

    def test_prime_steps_count_past_83(self):
        # 16 385 multiples of 2520·99991, spread evenly over five octaves, so
        # that each dyadic interval holds at most 3 277 < n/3; 11 is
        # admissible, and scanned with no limit, as every prime through 83 is
        n = 16_385
        A = IntegerSet(tuple(2520 * 99_991 * int(2 ** (14 + 5 * i / n)) for i in range(n)))
        assert len(A) == n and 12 * sum(a % 11 == 0 for a in A.elements) < 2 * n
        assert heuristic_sum_free(A).optimum >= one_third_floor(n) == 5462


class TestCompose:
    def test_two_copies_frozen(self):
        K = catalog()[0].elements
        C = compose(K, K)
        assert len(C) == 14
        assert exhaustive_max_sum_free(C, ALLOW_EQUAL)[0] == 6

    def test_three_copies_frozen(self):
        K = catalog()[0].elements
        C = compose_iterate(K, 3)
        assert len(C) == 21
        opt = max_sum_free_subset(C, ALLOW_EQUAL)
        assert opt.exact and opt.optimum == 9

    def test_singletons(self):
        C = compose(IntegerSet((1,)), IntegerSet((1,)))
        assert C.elements == (1, 3)

    def test_multiplier_must_separate(self):
        A = IntegerSet((1, 2))
        with pytest.raises(ValueError):
            compose(A, A, M=4)  # needs M > 2 max(A)

    def test_overflow_detected(self):
        A = IntegerSet((2**61,))
        with pytest.raises(OverflowError):
            compose(A, IntegerSet((4,)))


class TestCatalog:
    def test_klarner_entry(self):
        entry = catalog()[0]
        assert entry.elements.elements == (2, 3, 4, 5, 6, 8, 10)
        assert entry.density_bound == Fraction(3, 7)
        assert max_sum_free_subset(entry.elements).optimum == 3

    def test_malouf_entry(self):
        entry = catalog()[1]
        assert entry.elements.elements == (1, 2, 3, 4, 5, 6, 8, 9, 10, 18)
        assert entry.density_bound == Fraction(2, 5)
        assert max_sum_free_subset(entry.elements).optimum == 4
