"""Slow oracles, one per fast path; each docstring names its path and any logic they share."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import CyclicSignal, IntegerSet, SumFreeConvention, _check_limit
from .solver import is_sum_free
from .spectral import _interval_group_norm
from .structure import AlphaGrid, GridSet
from .weights import GridWeight

_DIRECT_SIZE_CAP = 512
_EXHAUSTIVE_SIZE_CAP = 22


def _popcount_u32(a: np.ndarray) -> np.ndarray:
    a = a - ((a >> 1) & np.uint32(0x55555555))
    a = (a & np.uint32(0x33333333)) + ((a >> 2) & np.uint32(0x33333333))
    a = (a + (a >> 4)) & np.uint32(0x0F0F0F0F)
    return (a * np.uint32(0x01010101)) >> 24


def exhaustive_max_sum_free(
    A: IntegerSet,
    convention: SumFreeConvention = SumFreeConvention.ALLOW_EQUAL,
) -> tuple[int, tuple[int, ...]]:
    """solver.max_sum_free_subset's oracle, classifying all 2^|A| subsets.

    A subset is sum-free iff dropping its largest element leaves a sum-free
    set and no remaining pair sums to that element, so one vectorised pass
    per element classifies every mask.  Returns (optimum, witness) with the
    same lexicographic tie-break as the search solver, but computed by
    maximising the bit-reversed mask over all optimal subsets.
    """
    A.require_positive("exhaustive_max_sum_free")
    n = len(A)
    _check_limit("exhaustive reference elements", n, _EXHAUSTIVE_SIZE_CAP)
    vals = A.elements
    if n == 0:
        return 0, ()
    allow_eq = convention is SumFreeConvention.ALLOW_EQUAL
    index_of = {v: i for i, v in enumerate(vals)}
    masks = np.arange(1 << n, dtype=np.uint32)
    sumfree = np.ones(1 << n, dtype=bool)
    for k in range(n):
        half = 1 << k
        bad = np.zeros(half, dtype=bool)
        for i in range(k):
            j = index_of.get(vals[k] - vals[i])
            if j is None or j >= k or j < i:
                continue  # each unordered pair handled once, at its smaller index
            if i == j and not allow_eq:
                continue
            pair = np.uint32((1 << i) | (1 << j))
            bad |= (masks[:half] & pair) == pair
        sumfree[half : 2 * half] = sumfree[:half] & ~bad
    pc = _popcount_u32(masks)
    scored = np.where(sumfree, pc, np.uint32(0))
    best = int(scored.max())
    cands = np.nonzero(scored == best)[0].astype(np.uint64)
    rev = np.zeros(len(cands), dtype=np.uint64)
    for i in range(n):
        rev |= ((cands >> np.uint64(i)) & np.uint64(1)) << np.uint64(n - 1 - i)
    pick = int(cands[int(np.argmax(rev))])
    witness = tuple(vals[i] for i in range(n) if (pick >> i) & 1)
    return best, witness


def dilation_sweep_direct(A: IntegerSet) -> tuple[Fraction, tuple[int, ...]]:
    """solver.dilation_sweep's (theta, selection), scanning every interval.

    x is selected at theta = p/q when 1/3 < frac(theta x) < 2/3, that is
    q < 3 (p x mod q) < 2q; the selection can only change at the exact
    breakpoints (3k+1)/(3x) and (3k+2)/(3x).  Each midpoint of two adjacent
    distinct breakpoints is tried in increasing order, and the first with
    the most elements is returned.
    """
    points = sorted(
        {Fraction(3 * k + r, 3 * x) for x in A.elements for k in range(x) for r in (1, 2)}
    )
    best = None
    for lo, hi in zip(points, points[1:]):
        theta = (lo + hi) / 2
        p, q = theta.numerator, theta.denominator
        picked = tuple(x for x in A.elements if q < 3 * (p * x % q) < 2 * q)
        if best is None or len(picked) > len(best[1]):
            best = (theta, picked)
    return best


def primes_2_mod_3(lo: int, hi: int):
    """The primes p = 2 (mod 3) in [lo, hi], lo >= 2, by trial division: solver._ROW_MODULI's and _prime_floor's."""
    return (p for p in range(lo, hi + 1) if p % 3 == 2 and all(p % d for d in range(2, math.isqrt(p) + 1)))


def residue_rows_direct(q: int, classes: bool) -> list[list[bool]]:
    """solver._residue_rows(q) by definition: the masks with no x + y = z mod q (x = y allowed) in order, or x/q for x = 1..q//2."""
    if not classes:
        return [[q < 3 * (x * r % q) < 2 * q for r in range(q)] for x in range(1, q // 2 + 1)]
    sets = [{r for r in range(q) if mask >> r & 1} for mask in range(1, 2**q)]
    return [[r in S for r in range(q)] for S in sets if not any((x + y) % q in S for x in S for y in S)]


def u2_group_norm_direct(signal: CyclicSignal) -> float:
    """spectral.u2_group_norm from the quadruple average, O(N'^2).

    Substituting y = x + h2 in E_{x,h1,h2} f(x) conj(f(x+h1) f(x+h2))
    f(x+h1+h2) factors the average as E_h |E_x f(x) conj f(x+h)|^2, an
    identity in physical space that shares nothing with the FFT path.
    """
    v = signal.values
    n = len(v)
    _check_limit("direct U2 reference group order", n, _DIRECT_SIZE_CAP)
    total = sum(abs(np.vdot(np.roll(v, -h), v)) ** 2 for h in range(n))
    return float(total / n**3) ** 0.25


def u2_norm_direct(signal: CyclicSignal) -> float:
    """spectral.u2_norm with the group norm computed directly.

    The normaliser is the closed-form norm of 1_{1..N} that u2_norm
    divides by as well, the one logic the two share;
    tests/test_reference.py::test_interval_norm_closed_form_counts_quadruples
    checks it against a direct quadruple count.
    """
    return u2_group_norm_direct(signal) / _interval_group_norm(signal.ref_n, signal.n_prime)


def t_count_direct(f) -> float:
    """spectral.t_count's (1/N^2) sum_{x + y <= N} f(x) f(y) f(x+y), summed directly in O(N^2)."""
    arr = np.asarray(f, dtype=np.float64)
    n = len(arr)
    total = 0.0
    for x in range(1, n):
        # f(x) * sum_y f(y) f(x + y) over y = 1..N-x
        total += arr[x - 1] * float(np.dot(arr[: n - x], arr[x:]))
    return total / n**2


def ordered_triples_direct(A: IntegerSet) -> int:
    """spectral.ordered_triples from the full |A|^2 table of pair sums.

    #{(x, y) in A^2 : x + y in A}: every ordered pair is summed, with no
    bound on the sum, and each sum is matched against A by np.isin.
    """
    a = np.array(A.elements, dtype=np.int64)
    return int(np.count_nonzero(np.isin(np.add.outer(a, a), a)))


def pair_sum_count(A: IntegerSet, convention: SumFreeConvention = SumFreeConvention.ALLOW_EQUAL) -> int:
    """#{x <= y in A : x + y in A} (x < y under DISTINCT_ONLY), on Python ints.

    Every such pair is tried, with no bound on the sum; A is sum-free
    exactly when the count is 0, solver.is_sum_free's oracle.
    """
    members = A.member_set
    elems = A.elements
    skip = int(convention is SumFreeConvention.DISTINCT_ONLY)
    return sum(x + y in members for i, x in enumerate(elems) for y in elems[i + skip :])


def difference_counts_direct(A: IntegerSet, N: int) -> list[int]:
    """spectral.difference_counts, each |A ∩ (A + d)| a membership count on Python ints."""
    members = A.member_set
    return [sum(a - d in members for a in A.elements) for d in range(N)]


def dense_progression_direct(
    A: IntegerSet, N: int, min_length: int
) -> tuple[int, int, int, int]:
    """structure.find_dense_progression's window, by enumerating every window.

    Walks each chain start, start+step, .. <= N and scores each of its
    prefixes of length >= min_length.  Returns (hits, length, start, step)
    of the best window: highest density hits/length, then longest, then
    earliest start, then smallest step.
    """
    elems = A.member_set
    max_step = max(1, N - 1 if min_length == 1 else (N - 1) // (min_length - 1))
    best = None
    for step in range(1, max_step + 1):
        for start in range(1, N + 1):
            hits = 0
            for length, x in enumerate(range(start, N + 1, step), 1):
                hits += x in elems
                if length < min_length:
                    continue
                if best is None:
                    best = (hits, length, start, step)
                    continue
                bh, bl, bs, bd = best
                lhs, rhs = hits * bl, bh * length
                if lhs > rhs or (lhs == rhs and (length, -start, -step) > (bl, -bs, -bd)):
                    best = (hits, length, start, step)
    return best


def alpha_tilde_direct(grid: AlphaGrid, eta) -> Fraction:
    """Grand sum of structure.alpha_tilde's pair-maximum table, by a Fraction loop.

    Every ordered pair of cells with values > eta updates the two table
    entries its level difference reaches, comparing Fractions; O(P^2) for
    P such cells.
    """
    eta_f = Fraction(eta)
    q, M = grid.modulus, grid.levels
    positives = [
        (a, i, grid.values[a][i - 1])
        for a in range(q)
        for i in range(1, M + 1)
        if grid.values[a][i - 1] > eta_f
    ]
    width = 2 * M + 1
    table = [[Fraction(0)] * width for _ in range(q)]
    for a, i, v in positives:
        for a2, i2, v2 in positives:
            s = v + v2
            x = (a - a2) % q
            delta = i - i2
            for y in (delta, delta + 1):
                col = y + M
                if s > table[x][col]:
                    table[x][col] = s
    return sum((entry for row in table for entry in row), Fraction(0))


def avoid_zero_direct(grid: GridSet, index_bound: int, min_interval) -> tuple[int, Fraction, Fraction]:
    """structure.avoid_zero_diagnostic's (stride, interval_end, mass), over every admissible box.

    A box is H x [0, j/K] for the subgroup H of stride d, with d | q and
    d <= index_bound, and j/K >= min_interval; its mass counts the member
    cells (a, i) with a in H and i <= j, over q*K.  The least mass wins,
    then the smallest subgroup, then the shortest interval.
    """
    q, K, low = grid.modulus, grid.cells, Fraction(min_interval)
    boxes = [
        (Fraction(sum(bool(grid.membership[a, i]) for a in range(0, q, d) for i in range(j)), q * K), q // d, j, d)
        for d in range(1, q + 1)
        if q % d == 0 and d <= index_bound
        for j in range(1, K + 1)
        if Fraction(j, K) >= low
    ]
    mass, _, j, stride = min(boxes)
    return stride, Fraction(j, K), mass


def pushforward_direct(w: GridWeight, factor: int, shrink: Fraction, t: Fraction) -> np.ndarray:
    """Single-node pushforward values of weights._node_values, by a Fraction loop.

    The image of source cell i under y -> t*shrink*y is an interval of
    length t*shrink/K; its overlap with each destination cell is computed
    as an exact rational, walking the destination cells left to right
    until the image ends.  3/4 of the mass lands on the image at residue
    factor*r, and a flat 1/4 covers the whole grid.
    """
    Q, K = w.modulus, w.cells
    width = t * shrink
    if not 0 < width <= 1:
        raise ValueError("t * interval_shrink must lie in (0, 1]")
    out = np.full((factor * Q, K), 0.25, dtype=np.float64)
    rows = factor * np.arange(Q)
    scale = 0.75 * factor
    for i in range(1, K + 1):
        lo = (i - 1) * width / K
        hi = i * width / K
        j = math.floor(lo * K) + 1
        while True:
            ov = min(hi, Fraction(j, K)) - max(lo, Fraction(j - 1, K))
            if ov > 0:
                portion = ov * K / width  # fraction of cell i's image in cell j
                out[rows, j - 1] += scale * float(portion) * w.values[:, i - 1]
            if Fraction(j, K) >= hi:
                break
            j += 1
    return out


def canonical_vectors(dim: int, budget: int):
    """All nonzero q with sum |q_i| <= budget and first nonzero > 0, lex order.

    Each q comes as its nonzero entries, ((i, q_i), ...) by place.  The
    recursion takes one level per entry, so neither its depth nor the cost
    of a vector grows with dim.
    """

    def rec(entries, pos, remaining):
        # entries lie before pos.  In lex order the negatives at each place j
        # come first (zeros before j), then no further entry, then the
        # positives, last place first
        if entries:
            for j in range(pos, dim):
                for v in range(-remaining, 0):
                    yield from grow(entries + ((j, v),), j + 1, remaining + v)
            yield entries
        for j in range(dim - 1, pos - 1, -1):
            for v in range(1, remaining + 1):
                yield from grow(entries + ((j, v),), j + 1, remaining - v)

    def grow(entries, pos, remaining):
        # a vector with no budget or place left is its own only completion
        return rec(entries, pos, remaining) if remaining and pos < dim else (entries,)

    yield from rec((), 0, budget)


def irrationality_direct(theta: tuple[float, ...], a_bound, N: int):
    """(worst_vector, worst_distance, holds) of equidist.irrationality_check, one vector at a time.

    Walks canonical_vectors in lex order and keeps the first vector of
    least torus distance.  Each q . theta is summed from 0.0 in place order
    by an explicit loop of float additions (sum() compensates from Python
    3.12 on).  holds compares that float distance exactly with a_bound / N.
    """
    a_frac = Fraction(a_bound)
    worst, worst_dist = None, math.inf
    for entries in canonical_vectors(len(theta), math.floor(a_frac)):
        total = 0.0
        for i, q in entries:
            total += q * theta[i]
        dist = abs(total - round(total))
        if dist < worst_dist:
            worst, worst_dist = entries, dist
    if worst is None:
        return (), None, True
    vector = [0] * len(theta)
    for i, q in worst:
        vector[i] = q
    return tuple(vector), worst_dist, Fraction(worst_dist) >= a_frac / N


def evaluate_direct(F, n, N: int, theta: tuple[float, ...]) -> np.ndarray:
    """equidist.LipschitzTestFunction.evaluate, one exponential per term.

    Each term's phase is built and exponentiated afresh, with no wave shared
    between terms, and the terms are added in order from 0.
    """
    arr = np.asarray(n, dtype=np.float64)
    res = np.asarray(n, dtype=np.int64) % F.modulus
    out = np.zeros(arr.shape, dtype=np.complex128)
    for t in F.terms:
        phase = t.residue_freq * res / F.modulus + t.interval_freq * arr / N
        for k, m in enumerate(t.orbit_freq):
            if m != 0:
                phase = phase + m * theta[k] * arr
        out += t.coefficient * np.exp(2j * np.pi * phase)
    return out


def lev_cover_direct(xs, length: int) -> bool:
    """structure._lev_covers' test of {0,..,length-1} inside 5X - 4X, on Python sets of sums."""
    folds = [{0}]
    for _ in range(5):
        folds.append({s + x for s in folds[-1] for x in xs})
    cover = {s - t for s in folds[5] for t in folds[4]}
    return set(range(length)) <= cover


def local_search(elems: tuple[int, ...], start: set[int], draw, allow_eq: bool) -> set[int]:
    """The heuristic's add/swap local search with every move judged by is_sum_free.

    Four rounds of 150 moves, each from the best set so far.  A move draws
    x = elems[draw(n)] and skips a member; it adds x when S ∪ {x} is
    sum-free, and otherwise draws pick = sorted(S)[draw(|S|)] and trades
    it for x when (S - {pick}) ∪ {x} is.  Nothing is kept between moves,
    where solver._local_search keeps conflicts and skips swaps.  The moves
    are tested with solver.is_sum_free, which the search checked here does
    not call and the solver suite checks against pair_sum_count.
    """
    conv = SumFreeConvention.ALLOW_EQUAL if allow_eq else SumFreeConvention.DISTINCT_ONLY

    def sum_free(members) -> bool:
        return is_sum_free(IntegerSet.from_iterable(members), conv)

    current = set(start)
    best = set(start)
    for _ in range(4):
        for _ in range(150):
            x = elems[draw(len(elems))]
            if x in current:
                continue
            if sum_free(current | {x}):
                current.add(x)
            else:
                pick = sorted(current)[draw(len(current))]
                if sum_free((current - {pick}) | {x}):
                    current = (current - {pick}) | {x}
            if len(current) > len(best):
                best = set(current)
        current = set(best)
    return best


def greedy_packing(vals: tuple[int, ...], chosen: int, allowed: int, allow_eq: bool) -> list[tuple[int, ...]]:
    """The branch and bound's greedy packing of disjoint conflicts inside `allowed`.

    chosen and allowed are disjoint index bitmasks into the sorted `vals`.
    The indices a in allowed are taken in increasing order, and each not
    yet in a group starts one: the pair {a, b} with vals[d] + vals[a] =
    vals[b] for the least d < a in chosen, or d = a under ALLOW_EQUAL, whose
    b is still free; else the triple {a, d, b} with vals[a] + vals[d] =
    vals[b] for the least d > a with d and b both free.  Returns the groups
    in the order taken, each as its indices.
    """
    index_of = {v: i for i, v in enumerate(vals)}
    n = len(vals)
    free = {i for i in range(n) if (allowed >> i) & 1}
    groups: list[tuple[int, ...]] = []
    for a in range(n):
        if a not in free:
            continue
        free.discard(a)
        partners = [d for d in range(a) if (chosen >> d) & 1] + ([a] if allow_eq else [])
        pairs = [index_of.get(vals[a] + vals[d]) for d in partners]
        b = next((b for b in pairs if b in free), None)
        if b is not None:
            free.discard(b)
            groups.append((a, b))
            continue
        for d in range(a + 1, n):
            b = index_of.get(vals[a] + vals[d])
            if d in free and b in free:
                free -= {d, b}
                groups.append((a, d, b))
                break
    return groups
