"""Sum-free subset solvers.

A set is sum-free when no equation x + y = z holds inside it; the two
conventions differ on whether x = y counts (see core.SumFreeConvention).
This module provides an exact branch-and-bound solver with a deterministic
witness, an exact sweep over dilation parameters, a verified heuristic
portfolio for sets too large to solve exactly, and a composition that
glues two sets so their optima add.  The exhaustive solver the search is
checked against lives in `reference`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, islice

import numpy as np

from .core import IntegerSet, JsonReport, SumFreeConvention, rng_from_seed

ALLOW_EQUAL = SumFreeConvention.ALLOW_EQUAL
DISTINCT_ONLY = SumFreeConvention.DISTINCT_ONLY

EXACT_SIZE_CAP = 64
# breakpoint events: dilation_sweep refuses more, the heuristic samples above the cap
SWEEP_EVENT_LIMIT = 40_000_000
_SWEEP_EVENT_CAP = 2_000_000


def one_third_floor(n: int) -> int:
    """ceil((n+1)/3): the size every n-element set's dilation sweep reaches."""
    return -(-(n + 1) // 3)


def is_sum_free(A: IntegerSet, convention: SumFreeConvention = ALLOW_EQUAL) -> bool:
    """Pair enumeration with membership lookup, at most |A|^2 / 2 lookups.

    For each x only the partners y >= x (y > x under DISTINCT_ONLY) with
    x + y <= max(A) are looked up, in one C-level `isdisjoint` pass: a larger
    sum is not in A, whatever the signs.  That bound falls as x grows, so
    the scan stops at the first x left with no partner.  Exact on Python
    ints of any size.
    """
    members = A.member_set
    elems = A.elements
    if not elems:
        return True
    top = elems[-1]
    offset = 0 if convention is ALLOW_EQUAL else 1
    for i, x in enumerate(elems):
        end = bisect_right(elems, top - x)
        if end <= i + offset:
            break
        if not members.isdisjoint(map(x.__add__, elems[i + offset : end])):
            return False
    return True


@dataclass(frozen=True)
class SolveReport(JsonReport):
    """Outcome of a solver run; the witness is re-verified on construction.

    `optimum` is the certified size when `exact` is True, otherwise the best
    lower bound found within budget.  The witness always attains `optimum`.
    """

    input_size: int
    convention: SumFreeConvention
    optimum: int
    witness: IntegerSet
    nodes_explored: int
    exact: bool

    def __post_init__(self):
        if self.optimum != len(self.witness):
            raise ValueError("witness size does not match reported optimum")
        if not is_sum_free(self.witness, self.convention):
            raise ValueError("witness is not sum-free under the stated convention")


def max_sum_free_subset(
    A: IntegerSet,
    convention: SumFreeConvention = ALLOW_EQUAL,
    budget: int | None = None,
) -> SolveReport:
    """Exact maximum sum-free subset by Russian-doll branch and bound.

    Every search is an include-first depth-first search over a bitset of
    the elements still allowed: including x blocks each later element that
    would close a forbidden triple with the current choice.  Each leaf is a
    sum-free set, every sum-free set is a leaf, and leaves come in
    decreasing lexicographic order of their membership vectors.

    The suffixes vals[i:] of the sorted elements are solved for
    i = n-1, ..., 0.  Their optima satisfy doll[i] = doll[i+1] or
    doll[i+1] + 1, so the search for suffix i only asks for a leaf reaching
    doll[i+1] + 1 -- one that holds vals[i] -- and stops at the first.  A
    last search over the whole set asks for the first leaf reaching
    doll[0].  A node with chosen set C and allowed set R, all at or after
    index p, is cut when |C| plus either of two upper bounds on what R can
    still add misses the target:

    - doll[p], since the additions form a sum-free subset of vals[p:];
    - |R| minus a greedy packing of disjoint conflicts inside R -- triples
      {x, y, x+y}, pairs {x, 2x} under ALLOW_EQUAL, and pairs {y, y+c} for
      chosen c -- each of which costs a sum-free set one of its elements.
      The packing is only tried when it could cut (it has at most |R|/2
      groups) and stops as soon as it does.

    Both bounds are valid, so no cut subtree holds a leaf that reaches the
    target, and each search returns the first such leaf in search order.
    The last one therefore returns the first optimal leaf, the
    lexicographically smallest witness -- the one an unpruned search meets
    first and `reference.exhaustive_max_sum_free` picks -- with no incumbent
    and no re-selection pass.  Keeping that canonical witness makes the
    report a function of the set alone: a stronger bound changes
    nodes_explored and nothing else.  The last search is needed even though
    suffix 0 was searched: when doll[0] = doll[1], an optimum may still hold
    vals[0].

    `budget` caps the nodes of all searches together.  On exhaustion the
    report has exact=False, nodes_explored = budget + 1, and the larger of
    the last suffix leaf found and the greedy include-first leaf (the
    greedy one on a tie, as it comes first in search order).
    """
    A.require_positive("max_sum_free_subset")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    n = len(A)
    if n > EXACT_SIZE_CAP:
        raise ValueError(f"exact solver capped at {EXACT_SIZE_CAP} elements; use heuristic_sum_free")
    tables = _conflict_tables(A.elements, convention is ALLOW_EQUAL)
    full = (1 << n) - 1
    # doll[i] bounds the optimum of vals[i:] from above; it starts at n - i
    # and is exact once suffix i has been searched.
    doll = [n - i for i in range(n + 1)]
    best = 0
    nodes = 0
    for i in range(n - 1, -1, -1):
        doll[i] = doll[i + 1] + 1
        leaf, nodes = _first_leaf(full >> i << i, doll[i], doll, tables, nodes, budget)
        if budget is not None and nodes > budget:
            break
        if leaf is None:
            doll[i] -= 1
        else:
            best = leaf
    else:
        leaf, nodes = _first_leaf(full, doll[0], doll, tables, nodes, budget)
        if leaf is not None:
            best = leaf
    exact = budget is None or nodes <= budget
    if not exact:
        greedy, _ = _first_leaf(full, 0, doll, tables, 0, None)
        if greedy.bit_count() >= best.bit_count():
            best = greedy

    witness = IntegerSet(tuple(v for i, v in enumerate(A.elements) if (best >> i) & 1))
    return SolveReport(
        input_size=n,
        convention=convention,
        optimum=best.bit_count(),
        witness=witness,
        nodes_explored=nodes,
        exact=exact,
    )


def _conflict_tables(vals: tuple[int, ...], allow_eq: bool):
    """Index bitmasks of the forbidden triples, bucketed by lowest index.

    For each vals[a] + vals[d] = vals[b]: when d < a, or d = a under
    ALLOW_EQUAL, sums[a] holds (bit d, bit b) -- including a blocks b once
    d is chosen, and {a, b} is then a conflicting pair; when d > a,
    triples[a] holds bit d | bit b.
    """
    index_of = {v: i for i, v in enumerate(vals)}
    n = len(vals)
    sums: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    triples: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for d in range(n):
            b = index_of.get(vals[a] + vals[d])
            if b is None or (d == a and not allow_eq):
                continue
            if d <= a:
                sums[a].append((1 << d, 1 << b))
            else:
                triples[a].append((1 << d) | (1 << b))
    return sums, triples


def _first_leaf(allowed, target, doll, tables, nodes, budget):
    """First leaf under the node (nothing chosen, `allowed`) with >= target elements.

    Returns (leaf mask or None, node count); the count goes on from `nodes`
    and the search gives up, with no leaf, once it passes `budget`.
    """
    sums, triples = tables
    stack = [(0, allowed)]
    while stack:
        chosen, allowed = stack.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            return None, nodes
        size = chosen.bit_count()
        if not allowed:
            if size >= target:
                return chosen, nodes
            continue
        low = allowed & -allowed
        pos = low.bit_length() - 1
        free = allowed.bit_count()
        if size + min(free, doll[pos]) < target:
            continue
        need = size + free - target + 1  # disjoint conflicts that would cut
        if 2 * need <= free and _packs(allowed, chosen, need, sums, triples):
            continue
        rest = allowed ^ low
        stack.append((chosen, rest))  # exclude branch, explored second
        chosen |= low
        blocked = 0
        for c, s in sums[pos]:
            if c & chosen:
                blocked |= s
        stack.append((chosen, rest & ~blocked))
    return None, nodes


def _packs(allowed: int, chosen: int, need: int, sums, triples) -> bool:
    """Whether a greedy packing finds `need` disjoint conflicts inside `allowed`.

    Lowest indices a are taken in increasing order, each with its first
    pair {a, b}, else its first triple, that still fits.  Every conflict
    holding a has its lowest index at or below a, so a is done once passed.
    """
    free = allowed
    groups = 0
    while free:
        low = free & -free
        free ^= low
        a = low.bit_length() - 1
        context = chosen | low
        take = 0
        for d, b in sums[a]:
            if d & context and b & free:
                take = b
                break
        else:
            for t in triples[a]:
                if t & free == t:
                    take = t
                    break
        if take:
            free ^= take
            groups += 1
            if groups >= need:
                return True
    return False


@dataclass(frozen=True)
class DilationCertificate(JsonReport):
    """A dilation parameter and the subset it selects.

    Construction checks that theta lies in (0, 1), that size counts the
    selection, and that the selection is sum-free under ALLOW_EQUAL; the
    sweep builds the selection by an exact re-selection at theta.
    """

    theta: Fraction
    selected: IntegerSet
    size: int

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie strictly between 0 and 1")
        if self.size != len(self.selected):
            raise ValueError("size does not match selection")
        if not is_sum_free(self.selected, ALLOW_EQUAL):
            raise ValueError("dilation selection is not sum-free")


def dilation_select(A: IntegerSet, theta: Fraction) -> IntegerSet:
    """{x in A : 1/3 < frac(theta x) < 2/3}, evaluated exactly."""
    num, den = theta.numerator, theta.denominator
    picked = []
    for x in A.elements:
        r = (num * x) % den
        if den < 3 * r < 2 * den:
            picked.append(x)
    return IntegerSet(tuple(picked))


def dilation_sweep(A: IntegerSet) -> DilationCertificate:
    """Exact sweep over dilation parameters theta in (0, 1).

    For real theta the selection {x : 1/3 < frac(theta x) < 2/3} is sum-free
    under ALLOW_EQUAL: two fractional parts inside (1/3, 2/3) add to
    something in (2/3, 4/3) mod 1, which misses (1/3, 2/3).  As theta grows,
    x enters the selection at (3k+1)/(3x) and leaves at (3k+2)/(3x), so the
    selection size is piecewise constant between those breakpoints.  The
    sweep sorts the entry points and the exit points, counts the selection
    just after each entry, and returns the exact midpoint of the first
    maximising interval -- midpoints of adjacent breakpoints are never
    breakpoints themselves, so the certificate never sits on a boundary.

    Only the breakpoints below 1/2 are generated.  frac((1-theta) x) =
    1 - frac(theta x), and (1/3, 2/3) is symmetric about 1/2, so the size is
    symmetric about 1/2; and 1/2 is never a breakpoint, since 3x/2 is never
    3k+1 or 3k+2.  Every interval after the one holding 1/2 mirrors one
    before it, so the first maximising interval starts below 1/2.  If no
    exit lies between its start lo and 1/2, it is the interval holding 1/2,
    which the mirror of lo, 1 - lo, closes; theta is then 1/2.

    The average selection size over theta is |A|/3, while neighbourhoods of
    0 and 1 select nothing; some interval therefore beats the average, which
    pins the guaranteed floor of ceil((|A|+1)/3).
    """
    A.require_positive("dilation_sweep")
    if len(A) == 0:
        raise ValueError("dilation_sweep needs a nonempty set")
    if 2 * sum(A.elements) > SWEEP_EVENT_LIMIT:
        raise ValueError("too many breakpoints for the exact sweep; use heuristic_sum_free")
    # numerators below 3x/2 are the breakpoints below 1/2
    enter = np.concatenate([np.arange(1, (3 * x + 1) // 2, 3) / (3 * x) for x in A.elements])
    enter.sort()
    leave = np.concatenate([np.arange(2, (3 * x + 1) // 2, 3) / (3 * x) for x in A.elements])
    leave.sort()
    # The event limit gives max(A) <= 2e7, so every key is one correctly
    # rounded division of ints below 2^53: equal breakpoints, entry or exit,
    # give equal floats.  Every denominator 3x is <= 6e7, so two distinct
    # breakpoints differ by at least 1/3.6e15 > 2^-53.  Each key lies within
    # 2^-54 of its rational, so float order and ties are exact, and the
    # fraction with denominator <= 3 max(A) closest to a key is its breakpoint.
    #
    # The count just after enter[i] is the i + 1 entries so far minus the
    # exits at or before it.  A breakpoint with no entry lowers the count, so
    # the first maximising interval starts at an entry; along a run of equal
    # entries the count rises, so argmax takes the run's last, where the
    # interval starts.  A breakpoint with no exit raises the count, so the
    # next breakpoint after it holds an exit: leave[gone[i]], or the mirror
    # 1 - lo of the start when no exit lies between it and 1/2.
    gone = np.searchsorted(leave, enter, side="right")
    counts = np.arange(1, len(enter) + 1)
    counts -= gone
    i = int(np.argmax(counts))
    size = int(counts[i])
    max_den = 3 * A.elements[-1]
    lo = Fraction(float(enter[i])).limit_denominator(max_den)
    if gone[i] == len(leave):
        hi = 1 - lo
    else:
        hi = Fraction(float(leave[gone[i]])).limit_denominator(max_den)
    theta = (lo + hi) / 2
    return DilationCertificate(theta=theta, selected=dilation_select(A, theta), size=size)


@cache
def _sum_free_residue_masks(q: int) -> tuple[int, ...]:
    """All subsets of Z/qZ with no x + y = z mod q (x = y allowed)."""
    masks = []
    for mask in range(1, 1 << q):
        bits = [r for r in range(q) if (mask >> r) & 1]
        ok = True
        for i, x in enumerate(bits):
            for y in bits[i:]:
                if (mask >> ((x + y) % q)) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            masks.append(mask)
    return tuple(masks)


def _residue_candidate(A: IntegerSet, q: int) -> tuple[int, int]:
    """Best sum-free residue selection mod q: (size, mask)."""
    weights = [0] * q
    for x in A.elements:
        weights[x % q] += 1
    best_size, best_mask = 0, 0
    for mask in _sum_free_residue_masks(q):
        total = 0
        m = mask
        while m:
            b = m & -m
            m ^= b
            total += weights[b.bit_length() - 1]
        if total > best_size:
            best_size, best_mask = total, mask
    return best_size, best_mask


def _can_add(x: int, S: set[int], ordered: list[int], allow_eq: bool) -> bool:
    """Whether S ∪ {x} stays sum-free, for sum-free S of positive ints not holding x.

    `ordered` is S sorted.  Only partners that can close a triple are
    looked up, in C-level scans: s with x + s <= max(S) for x + s = t, and
    the smaller member s < x/2 for s + t = x.  Under ALLOW_EQUAL, 2x and
    x/2 are looked up directly; under DISTINCT_ONLY, x/2 + x/2 = x is no
    conflict.
    """
    if allow_eq and (2 * x in S or (x % 2 == 0 and x // 2 in S)):
        return False
    if ordered and not S.isdisjoint(map(x.__add__, islice(ordered, bisect_right(ordered, ordered[-1] - x)))):
        return False
    return S.isdisjoint(map(x.__sub__, islice(ordered, bisect_left(ordered, (x + 1) // 2))))


def _may_unblock(x: int, pick: int, S: set[int], allow_eq: bool) -> bool:
    """Whether pick lies in a conflict of x with S, for pick in S.

    Dropping pick can only make x addable when it does: x + pick, x - pick
    or pick - x in S, or pick = 2x under ALLOW_EQUAL (pick = x/2 gives
    x - pick = pick).
    """
    return x + pick in S or x - pick in S or pick - x in S or (allow_eq and pick == 2 * x)


def heuristic_sum_free(
    A: IntegerSet,
    convention: SumFreeConvention = ALLOW_EQUAL,
    seed: int = 0,
) -> SolveReport:
    """Verified lower bound from a candidate portfolio plus local search.

    Candidates: the exact dilation sweep (or exact-rational sampled
    dilations when the full sweep would be too large), dyadic intervals
    A ∩ [x, 2x), and sum-free residue classes mod q <= 10.  The best
    candidate is improved by four rounds of seeded add/swap local search.
    The returned witness is re-verified; optimum is a lower bound
    (exact=False).  Output is a deterministic function of (A, convention,
    seed).

    The dilation stage guarantees at least ceil((|A|+1)/3) elements: the
    exact sweep certifies that floor, and when sampling is used instead the
    sweep is run as a fallback if every sample missed the floor, unless the
    set is past SWEEP_EVENT_LIMIT: then some other candidate must reach it.
    """
    A.require_positive("heuristic_sum_free")
    if len(A) == 0:
        raise ValueError("heuristic_sum_free needs a nonempty set")
    rng = rng_from_seed(seed, "heuristic")
    n = len(A)
    allow_eq = convention is ALLOW_EQUAL
    floor = one_third_floor(n)

    best_set: set[int] = set()

    # Dilation candidates select sum-free sets under ALLOW_EQUAL hence both
    # conventions (an ALLOW_EQUAL-sum-free set is DISTINCT_ONLY-sum-free).
    events = 2 * sum(A.elements)
    if events <= _SWEEP_EVENT_CAP:
        cert = dilation_sweep(A)
        best_set = set(cert.selected.elements)
    else:
        q = 99_991  # prime modulus: theta = k/q evaluated in exact integer arithmetic
        lo, width = q // 3 + 1, (2 * q - 1) // 3 - q // 3  # q < 3r < 2q  <=>  lo <= r < lo + width
        # x % q on Python ints, so elements past int64 are fine;
        # k * residue < q^2 < 10^10 cannot overflow int64
        residues = np.array([x % q for x in A.elements], dtype=np.int64)

        def inside(k):
            return ((k * residues) % q - lo).view(np.uint64) < width

        ks = rng.integers(1, q, size=192)
        rows = max(1, min(32, (1 << 17) // n))  # a block's int64 temporaries stay near 1 MiB
        hits = np.concatenate(
            [np.count_nonzero(inside(ks[i : i + rows, None]), axis=1) for i in range(0, len(ks), rows)]
        )
        first = int(np.argmax(hits))  # the first k with the most hits
        best_count = int(hits[first])
        best_set = set(compress(A.elements, inside(ks[first]).tolist()))
        if best_count < floor and events <= SWEEP_EVENT_LIMIT:
            cert = dilation_sweep(A)  # exact fallback restores the guarantee
            best_set = set(cert.selected.elements)

    # A ∩ [x, 2x) is sum-free; the first x with the most elements wins
    elems = A.elements
    counts = [bisect_left(elems, 2 * x) - i for i, x in enumerate(elems)]
    top = max(counts)
    if top > len(best_set):
        i = counts.index(top)
        best_set = set(elems[i : i + top])

    for q in range(2, 11):
        count, mask = _residue_candidate(A, q)
        if count > len(best_set):
            best_set = {a for a in A.elements if (mask >> (a % q)) & 1}
    if len(best_set) < floor:  # the sampled dilations missed and the sweep is too large
        raise ValueError(f"heuristic_sum_free: best candidate {len(best_set)} < floor {floor}")

    # Local search: random add moves, falling back to 1-swaps.
    # `ordered` is `current` in sorted order, kept in step with it.
    current = set(best_set)
    best = set(best_set)
    for _ in range(4):
        ordered = sorted(current)
        for _ in range(150):
            x = int(elems[rng.integers(0, n)])
            if x in current:
                continue
            if _can_add(x, current, ordered, allow_eq):
                current.add(x)
                insort(ordered, x)
            elif current:
                # plateau 1-swap: trade a random member for x when legal
                j = int(rng.integers(0, len(ordered)))
                pick = ordered[j]
                if not _may_unblock(x, pick, current, allow_eq):
                    continue  # x stays blocked without pick
                current.remove(pick)
                del ordered[j]
                if _can_add(x, current, ordered, allow_eq):
                    current.add(x)
                    insort(ordered, x)
                else:
                    current.add(pick)
                    ordered.insert(j, pick)
            if len(current) > len(best):
                best = set(current)
        current = set(best)

    witness = IntegerSet.from_iterable(best)
    return SolveReport(
        input_size=n,
        convention=convention,
        optimum=len(witness),
        witness=witness,
        nodes_explored=0,
        exact=False,
    )


def compose(A: IntegerSet, B: IntegerSet, M: int | None = None) -> IntegerSet:
    """A ∪ M·B with M > 2·max(A) (default 2·max(A)+1); optima add.

    No forbidden triple can mix the parts: a sum of two elements of A stays
    below M <= every element of M·B; a difference of two elements of M·B is
    at least M and so outside A; and a sum of two elements of M·B is at
    least 2M and so outside both parts' reach.  Hence a maximum sum-free
    subset of the composition is a disjoint union of maximum sum-free
    subsets of A and of B, under either convention.
    """
    A.require_positive("compose")
    B.require_positive("compose")
    if len(A) == 0 or len(B) == 0:
        raise ValueError("compose needs nonempty sets")
    max_a = A.elements[-1]
    if M is None:
        M = 2 * max_a + 1
    if M <= 2 * max_a:
        raise ValueError(f"M must exceed 2*max(A) = {2 * max_a}")
    if M * B.elements[-1] > 2**63 - 1:
        raise OverflowError("M * max(B) exceeds the 64-bit range")
    return IntegerSet.from_iterable(list(A.elements) + [M * b for b in B.elements])


def compose_iterate(A: IntegerSet, k: int) -> IntegerSet:
    """Left-fold compose(..., A) applied k-1 times; optimum scales by k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = A
    for _ in range(k - 1):
        out = compose(out, A)
    return out


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    elements: IntegerSet
    density_bound: Fraction  # optimum / size, an upper bound certificate


def catalog() -> tuple[CatalogEntry, ...]:
    """Small sets whose largest sum-free subsets are unusually small.

    Each entry's density bound equals (exact optimum) / (set size) under
    ALLOW_EQUAL, certifying that no sum-free subset does better.
    """
    return (
        CatalogEntry(
            name="klarner",
            elements=IntegerSet((2, 3, 4, 5, 6, 8, 10), name="klarner"),
            density_bound=Fraction(3, 7),
        ),
        CatalogEntry(
            name="malouf",
            elements=IntegerSet((1, 2, 3, 4, 5, 6, 8, 9, 10, 18), name="malouf"),
            density_bound=Fraction(2, 5),
        ),
    )
