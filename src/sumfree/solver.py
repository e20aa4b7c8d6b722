"""Sum-free subset solvers.

A set is sum-free when no equation x + y = z holds inside it; the two
conventions differ on whether x = y counts (see core.SumFreeConvention).
This module provides an exact branch-and-bound solver with a deterministic
witness, an exact sweep over dilation parameters, a verified heuristic for
sets too large to solve exactly, whose start is the first largest of its
candidates (the sweep or an interval, the residue rows, and Erdős's prime
dilation), and a composition that glues two sets so their optima add.  The
exhaustive solver the search is checked against lives in `reference`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, count, islice, repeat
from math import lcm
from operator import sub

import numpy as np

from .core import (
    _BLOCK,
    _PAIR_SAFE_BOUND,
    IntegerSet,
    JsonReport,
    SumFreeConvention,
    _check_limit,
    _is_prime,
    _pair_ends,
    _pair_sum_hits,
    rng_from_seed,
)

ALLOW_EQUAL = SumFreeConvention.ALLOW_EQUAL
DISTINCT_ONLY = SumFreeConvention.DISTINCT_ONLY

EXACT_SIZE_CAP = 64
# is_sum_free scans sets smaller than this.  When every pair is looked up
# the pair blocks tie the scan near 36 elements with the residue filter and
# near 24 with a span table, and win about 2.4x and 3.5x at 64.
_KERNEL_MIN_SIZE = 64
# breakpoint events: dilation_sweep refuses more, the heuristic skips it above the cap
SWEEP_EVENT_LIMIT = 40_000_000
_SWEEP_EVENT_CAP = 2_000_000
# the moduli of the heuristic's residue rows, q <= 10 and the primes p = 2 (mod 3)
# through 83; their lcm, 2520·4 429 079 517 334 813, is below 2^64
_ROW_MODULI = (*range(2, 11), 11, 17, 23, 29, 41, 47, 53, 59, 71, 83)
_ROW_MODULUS = lcm(*_ROW_MODULI)
# the heuristic's steps past 83: n residues per prime tried, and the
# n·(p//2) entries of the scored prime's test matrix
PRIME_DILATION_LIMIT = 1 << 17


def one_third_floor(n: int) -> int:
    """ceil((n+1)/3): the size every n-element set's dilation sweep reaches."""
    return -(-(n + 1) // 3)


def _sum_free_path(A: IntegerSet) -> str:
    """The path is_sum_free takes on A: "kernel" or "scan".

    The pair-block kernel runs from _KERNEL_MIN_SIZE elements, within
    _PAIR_SAFE_BOUND, where the sums stay in int64, and when
    2 min(A) <= max(A).  Otherwise, as in a top-half set, where no pair has
    a sum to look up, A is scanned.
    """
    elems = A.elements
    if len(elems) >= _KERNEL_MIN_SIZE and -_PAIR_SAFE_BOUND < elems[0] and 2 * elems[0] <= elems[-1] < _PAIR_SAFE_BOUND:
        return "kernel"
    return "scan"


def is_sum_free(A: IntegerSet, convention: SumFreeConvention = ALLOW_EQUAL) -> bool:
    """Whether no pair x <= y (x < y under DISTINCT_ONLY) has x + y in A.

    Only partners with x + y <= max(A) are looked up: a larger sum is not
    in A, whatever the signs.  That bound falls as x grows, so the partners
    run out at some x.  _sum_free_path picks the path.  The kernel,
    core._pair_sum_hits, looks sums up in the table core._pair_lookup picks
    from A: an exact span table, or a residue filter whose hits it confirms.
    It stops at the first block holding a hit, and each lookup takes at most
    B = max(core._LOOKUP_BYTES, 64·|A|) bytes, whatever max(A) is.  The scan
    runs on Python ints, one C-level `isdisjoint` pass per x; both are exact.
    """
    if _sum_free_path(A) == "scan":
        return _scan_sum_free(A, convention)
    a = np.array(A.elements, dtype=np.int64)
    return not _pair_sum_hits(a, _pair_ends(a), distinct=convention is DISTINCT_ONLY, first=True)


def _scan_sum_free(A: IntegerSet, convention: SumFreeConvention) -> bool:
    """is_sum_free's set scan: per x, one `isdisjoint` pass over its partners."""
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
    doll[i+1] + 1 -- one that holds vals[i] -- and stops at the first.  When
    suffix 0's search finds none, a last search over the whole set asks for
    the first leaf reaching doll[0] = doll[1].  A node with chosen set C and
    allowed set R, all at or after index p, is cut when |C| plus either of
    two upper bounds on what R can still add misses the target:

    - doll[p], since the additions form a sum-free subset of vals[p:];
    - |R| minus a greedy packing of disjoint conflicts inside R -- triples
      {x, y, x+y}, pairs {x, 2x} under ALLOW_EQUAL, and pairs {y, y+c} for
      chosen c -- each of which costs a sum-free set one of its elements.
      The packing is only tried when it could cut (it has at most |R|/2
      groups) and stops as soon as it does.

    A node costs bitmask work only.  Its stack entry carries opened[a] for
    each element a: the bits b with vals[c] + vals[a] = vals[b] for a
    chosen c, or c = a under ALLOW_EQUAL.  Including x blocks opened[x],
    with no scan of sums.  The packing takes a's pair as the lowest bit of
    opened[a] among the free elements.  That is the pair of least c, which
    a scan in c order takes first, as b grows with c.  And the packing
    visits only the elements with a triple or a pair of their own.  No
    group is missed, since a group's members all sit at or after its
    lowest index, so an element with no group of its own neither starts
    a group nor blocks one.  So the nodes, the cuts and the witness are
    those of the list scan that `reference.greedy_packing` keeps.

    Both bounds are valid, so no cut subtree holds a leaf that reaches the
    target, and each search returns the first such leaf in search order.
    So the search over the whole set that reaches doll[0] returns the first
    optimal leaf, the lexicographically smallest witness -- the one an
    unpruned search meets first and `reference.exhaustive_max_sum_free`
    picks -- with no incumbent and no re-selection pass.  That search is
    suffix 0's when it finds a leaf, whose allowed set and target the last
    search would repeat; otherwise the last one, as an optimum of doll[1]
    may still hold vals[0].  Keeping that canonical witness makes the
    report a function of the set alone: a stronger bound changes
    nodes_explored and nothing else.

    `budget` caps the nodes of all searches together.  On exhaustion the
    report has exact=False, nodes_explored = budget + 1, and the larger of
    the last suffix leaf found and the greedy include-first leaf (the
    greedy one on a tie, as it comes first in search order).
    """
    A.require_positive("max_sum_free_subset")
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    n = len(A)
    _check_limit("exact solver elements", n, EXACT_SIZE_CAP, "use heuristic_sum_free")
    tables = _conflict_tables(A.elements, convention is ALLOW_EQUAL)
    full = (1 << n) - 1
    # doll[i] bounds the optimum of vals[i:] from above; it starts at n - i
    # and is exact once suffix i has been searched.
    doll = [n - i for i in range(n + 1)]
    best = 0
    nodes = 0
    leaf = None
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
        if leaf is None:  # else suffix 0's leaf is the first to reach doll[0]
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
    """Index bitmasks of the conflicts, bucketed by lowest index.

    For each vals[a] + vals[d] = vals[b] with a <= d (so d < b, as the
    elements are positive and sorted):
    - d = a, under ALLOW_EQUAL: double[a] = bit b, the pair {a, b};
    - d > a: opens[a] holds (d, bit b), as choosing a makes {d, b} a
      conflicting pair, and triples[a] holds bit d | bit b.
    Each list runs in increasing d, so in increasing b.  For a fixed a,
    the pairs {a, b} come from partners c <= a, chosen or a itself, and b
    grows with c, so double[a] lies above every b a chosen c opens for a.
    `grouped` has the bit of each a with a triple or a doubling pair, and
    reach[a] the bit of each d that opens[a] names.
    """
    index_of = {v: i for i, v in enumerate(vals)}
    n = len(vals)
    double = [0] * n
    opens: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    triples: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for d in range(a, n):
            b = index_of.get(vals[a] + vals[d])
            if b is None:
                continue
            if d > a:
                opens[a].append((d, 1 << b))
                triples[a].append((1 << d) | (1 << b))
            elif allow_eq:
                double[a] = 1 << b
    grouped = sum(1 << a for a in range(n) if double[a] or triples[a])
    reach = [sum(1 << d for d, _ in row) for row in opens]
    return double, opens, reach, triples, grouped


def _first_leaf(allowed, target, doll, tables, nodes, budget):
    """First leaf under the node (nothing chosen, `allowed`) with >= target elements.

    Returns (leaf mask or None, node count); the count goes on from `nodes`
    and the search gives up, with no leaf, once it passes `budget`.

    Each stack entry carries, beside the chosen and allowed masks, a list
    `opened` of one bitmask per element and a mask `active`.  opened[a]
    holds the bits b that close a pair with a: double[a], and each b with
    vals[c] + vals[a] = vals[b] for a chosen c.  The search takes the lowest allowed index
    first, so every chosen c lies below every allowed a.  Including pos
    therefore blocks exactly opened[pos], and no list of sums is scanned.
    The include child copies the list and ORs in opens[pos]; the exclude
    child shares it, as no entry is changed once pushed.  `active` has the
    bit of each element with a triple or a pair of its own: `grouped`,
    plus reach[c] for each chosen c.
    """
    double, opens, reach, triples, grouped = tables
    stack = [(0, allowed, double, grouped)]
    while stack:
        chosen, allowed, opened, active = stack.pop()
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
        if size + free < target or size + doll[pos] < target:
            continue
        need = size + free - target + 1  # disjoint conflicts that would cut
        if 2 * need <= free and _packs(allowed, need, opened, active, triples):
            continue
        rest = allowed ^ low
        stack.append((chosen, rest, opened, active))  # exclude branch, explored second
        grown = opened.copy()
        for d, bit in opens[pos]:
            grown[d] |= bit
        stack.append((chosen | low, rest & ~opened[pos], grown, active | reach[pos]))
    return None, nodes


def _packs(allowed: int, need: int, opened: list[int], active: int, triples) -> bool:
    """Whether a greedy packing finds `need` disjoint conflicts inside `allowed`.

    Lowest indices a are taken in increasing order, each with its first
    pair {a, b}, else its first triple, that still fits: the packing that
    `reference.greedy_packing` writes out from the values.  A pair {a, b}
    comes from vals[d] + vals[a] = vals[b] with d chosen or d = a.  For a
    fixed a, vals[b] = vals[a] + vals[d] grows with d, so b does, and the
    first free pair in d order is the lowest bit of opened[a] & free.
    Only the elements in `active` are visited.  Every member of a group
    sits at or after the group's lowest index, so an element a with no
    triple and no pair starts no group, and no later group holds it:
    passing over a changes nothing that the walk takes after it.
    """
    walk = allowed & active
    if walk.bit_count() < need:  # each group starts at an element of walk
        return False
    free = allowed
    groups = 0
    while walk:
        low = walk & -walk
        walk ^= low
        a = low.bit_length() - 1
        take = opened[a] & free
        if take:
            take &= -take
        else:
            for t in triples[a]:
                if t & free == t:
                    take = t
                    break
            else:
                continue
        free ^= take
        walk &= free
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
    sweep counts the selection just after each entry, in increasing order,
    and returns the exact midpoint of the first maximising interval --
    midpoints of adjacent breakpoints are never breakpoints themselves, so
    the certificate never sits on a boundary.

    Only the breakpoints below 1/2 are generated.  frac((1-theta) x) =
    1 - frac(theta x), and (1/3, 2/3) is symmetric about 1/2, so the size is
    symmetric about 1/2; and 1/2 is never a breakpoint, since 3x/2 is never
    3k+1 or 3k+2.  Every interval after the one holding 1/2 mirrors one
    before it, so the first maximising interval starts below 1/2.  If no
    exit lies between its start lo and 1/2, it is the interval holding 1/2,
    which the mirror of lo, 1 - lo, closes; theta is then 1/2.

    (0, 1/2) is swept in B = ceil(sum(A)/_BLOCK) blocks [b/2B, (b+1)/2B).
    Block b holds the numerators j of x with 3x b <= 2B j < 3x (b+1):
    entries j = 1 mod 3 and exits j = 2 mod 3, counted below a bound in
    closed form.  Each breakpoint's key is the bit pattern of its float,
    shifted left once, with the low bit set for an entry; the floats are
    positive and below 1/2, so the keys fit in int64 and sort in float
    order, with exits before entries on a tie.  One sort per block and a
    running sum of +-1, carried from block to block, give the count just
    after every breakpoint.  A breakpoint with no entry lowers the count,
    so the first maximising interval starts at an entry; along a run of
    equal entries the count rises, so the first maximum is the run's last
    entry, where the interval starts.  A later block wins only with a
    strictly larger count.  An entry raises the count, so the key right
    after the start is an exit, the next breakpoint: the next key in its
    block, else the first key of the next nonempty block, or the mirror
    1 - lo when no key follows before 1/2.

    Each of the 2|A| groups (x, residue) has at most x/2B + 1 numerators
    in a block, so a block holds at most _BLOCK + 2|A| breakpoints.  The
    keys are divided in place from float numerators, exact below 2^53,
    beside one np.repeat; then the keys and their running sum are live.
    So at most three block arrays exist at once, and the loop's memory is
    24·_BLOCK bytes plus O(|A|), whatever sum(A) is.  The last block's
    arrays are dropped before the certificate is built, so its is_sum_free
    check adds only its own pair blocks and residue filter.

    The average selection size over theta is |A|/3, while neighbourhoods of
    0 and 1 select nothing; some interval therefore beats the average, which
    pins the guaranteed floor of ceil((|A|+1)/3).
    """
    A.require_positive("dilation_sweep")
    if len(A) == 0:
        raise ValueError("dilation_sweep needs a nonempty set")
    hint = "too many breakpoints for the exact sweep, use heuristic_sum_free"
    _check_limit("sweep events", 2 * sum(A.elements), SWEEP_EVENT_LIMIT, hint)
    # The event limit gives max(A) <= 2e7, so every key's float is one
    # correctly rounded division of ints below 2^53: equal breakpoints, entry
    # or exit, give equal floats.  Every denominator 3x is <= 6e7, so two
    # distinct breakpoints differ by at least 1/3.6e15 > 2^-53.  Each float
    # lies within 2^-54 of its rational, so float order and ties are exact,
    # and the fraction with denominator <= 3 max(A) closest to a float is its
    # breakpoint.
    n = len(A)
    x3 = 3 * np.array(A.elements, dtype=np.int64)
    den = np.concatenate([x3, x3])  # entry groups, then exit groups
    residue = np.repeat(np.array([1, 2], dtype=np.int64), n)
    blocks = -(-sum(A.elements) // _BLOCK)  # x has about x breakpoints below 1/2
    done = np.zeros_like(den)  # per group, its numerators in earlier blocks
    carry = best = 0
    lo_key = hi_key = None
    for b in range(1, blocks + 1):
        # ceil(3x b / 2B) bounds the numerators up to block b, and
        # (c + 2 - r) // 3 of residue r lie below c
        upto = ((den * b + 2 * blocks - 1) // (2 * blocks) + 2 - residue) // 3
        counts, first, done = upto - done, done, upto
        size = int(counts.sum())
        if not size:
            continue
        offsets = np.cumsum(counts) - counts
        # numerators as floats, exact below 2^53, divided in place
        keys = np.arange(0.0, 3 * size, 3)
        keys += np.repeat(3 * (first - offsets) + residue, counts)
        keys /= np.repeat(den, counts)
        keys = keys.view(np.int64)
        keys <<= 1
        keys[: int(counts[:n].sum())] |= 1
        keys.sort()
        if hi_key is None and lo_key is not None:
            hi_key = keys[0]  # an exit, or an entry that lifts this block past best
        run = keys & 1
        run <<= 1
        run -= 1
        np.cumsum(run, out=run)
        i = int(np.argmax(run))
        if carry + int(run[i]) > best:
            best = carry + int(run[i])
            lo_key = keys[i]
            hi_key = keys[i + 1] if i + 1 < size else None  # the count falls after its maximum
        carry += int(run[-1])
    del keys, run
    max_den = 3 * A.elements[-1]
    lo = _breakpoint(lo_key, max_den)
    hi = 1 - lo if hi_key is None else _breakpoint(hi_key, max_den)
    theta = (lo + hi) / 2
    return DilationCertificate(theta=theta, selected=dilation_select(A, theta), size=best)


def _breakpoint(key: np.int64, max_den: int) -> Fraction:
    """The breakpoint a sweep key stands for: the fraction with denominator <= max_den nearest its float."""
    return Fraction(float(np.int64(key >> 1).view(np.float64))).limit_denominator(max_den)


@cache
def _residue_rows(q: int) -> np.ndarray:
    """The heuristic's read-only bool rows over Z/qZ: row i selects the a with a mod q in it.

    For q <= 10, the sum-free classes (no x + y = z mod q, x = y allowed),
    in increasing order of their masks; for a prime p, _middle_thirds.
    """
    if q > 10:
        rows = _middle_thirds(q, np.arange(q))
    else:
        subsets = ((np.arange(1, 1 << q)[:, None] >> np.arange(q)) & 1) == 1  # in mask order
        x, y = np.divmod(np.arange(q * q), q)
        rows = subsets[~(subsets[:, x] & subsets[:, y] & subsets[:, (x + y) % q]).any(1)]
    rows.flags.writeable = False
    return rows


def _middle_thirds(p: int, residues: np.ndarray) -> np.ndarray:
    """Whether Erdős's dilation x/p selects residue r: p < 3 (x r mod p) < 2p, for x = 1..p//2 by each r.

    For p = 3k + 2 prime, x/p selects {a : x a mod p in [k+1, 2k+1]}, which
    is sum-free, as two residues of [k+1, 2k+1] add to one of [2k+2, 4k+2],
    that is, of [2k+2, 3k+1] or [0, k] mod p.  x and p - x select the same
    set.  The products x r < p^2 are exact in int64.
    """
    s = np.outer(np.arange(1, p // 2 + 1, dtype=np.int64), residues) % p
    return (p < 3 * s) & (3 * s < 2 * p)


def _row_residues(elems: tuple[int, ...]) -> np.ndarray:
    """The elements mod _ROW_MODULUS, reduced once on Python ints, so any size is fine."""
    return np.fromiter(map(_ROW_MODULUS.__rmod__, elems), dtype=np.uint64, count=len(elems))


def _residue_winner(reduced: np.ndarray, size: int) -> tuple[int, int] | None:
    """The first (q, i) whose row _residue_rows(q)[i] holds the most elements, if more than `size`.

    `reduced` is _row_residues(A.elements); q runs in _ROW_MODULI's order.
    """
    winner = None
    for q in _ROW_MODULI:
        totals = _residue_rows(q) @ np.bincount((reduced % q).astype(np.intp), minlength=q)
        i = int(np.argmax(totals))
        if totals[i] > size:
            size, winner = int(totals[i]), (q, i)
    return winner


def _prime_floor(elems: tuple[int, ...]) -> Fraction:
    """Erdős's x/p for the first admissible prime p = 2 (mod 3) past 83: its first x with the most elements.

    As x runs over 1..p-1, exactly k+1 of its 3k+1 values select each of
    the n - z_p elements not divisible by p = 3k + 2, so the mean selection
    exceeds n/3 exactly when z_p·(p+1) < 2n: p is then admissible, and its
    best x reaches ceil((n+1)/3).  Such a p exists, as z_p = 0 once
    p > max(A).  The x <= p/2 are scored on the distinct residues.  The
    work, n residues per prime tried plus n·(p//2) tests, is refused past
    PRIME_DILATION_LIMIT before it is done, even where another dilation
    reaches the floor, as for 2520·M·{2^0, ..., 2^99}, M the product of
    the primes p = 2 (mod 3) below 3000.
    """
    n = len(elems)
    hint = "every other candidate misses the floor"
    primes = filter(_is_prime, count(89, 6))  # odd, 2 (mod 3)
    for tried, p in enumerate(primes, 1):
        _check_limit("prime dilation steps", n * (tried + p // 2), PRIME_DILATION_LIMIT, hint)
        counts = np.bincount(np.fromiter(map(p.__rmod__, elems), dtype=np.int64, count=n), minlength=p)
        if counts[0] * (p + 1) >= 2 * n:  # not admissible
            continue
        residues = np.flatnonzero(counts)
        hits = _middle_thirds(p, residues) @ counts[residues]
        return Fraction(int(np.argmax(hits)) + 1, p)


def _conflict(x: int, S: set[int], ordered: list[int], allow_eq: bool) -> tuple[int, ...] | None:
    """The members of one conflict of x with S, or None when S ∪ {x} stays sum-free.

    S is a sum-free set of positive ints not holding x, and `ordered` is S
    sorted.  A conflict is (s, x+s) for x + s = t, (s, x-s) with s < x/2
    for s + t = x, or, under ALLOW_EQUAL, (2x,) or (x/2,); under
    DISTINCT_ONLY, x/2 + x/2 = x is none.  Each kind of pair is scanned
    over the shorter of two ranges that list the same pairs, in C-level
    scans: for x + s = t, s in [min S, max S - x] or t in [x + min S, max S];
    for s + t = x, s below x/2 or t in (x/2, x - min S].  On a composition,
    for x in an upper copy, the upper ranges hold only that copy.
    """
    if allow_eq:
        if 2 * x in S:
            return (2 * x,)
        if x % 2 == 0 and x // 2 in S:
            return (x // 2,)
    if not ordered:
        return None
    low, top, n = ordered[0], ordered[-1], len(ordered)
    # next(filter(S.__contains__, ...)) is the first partner looked up that is in S
    end, start = bisect_right(ordered, top - x), bisect_left(ordered, x + low)
    if end <= n - start:
        t = next(filter(S.__contains__, map(x.__add__, islice(ordered, end))), None)
        if t is not None:
            return (t - x, t)
    else:
        s = next(filter(S.__contains__, map(x.__rsub__, islice(ordered, start, None))), None)
        if s is not None:
            return (s, x + s)
    end, start, stop = bisect_left(ordered, (x + 1) // 2), bisect_right(ordered, x // 2), bisect_right(ordered, x - low)
    if end <= stop - start:
        t = next(filter(S.__contains__, map(x.__sub__, islice(ordered, end))), None)
        return None if t is None else (x - t, t)
    s = next(filter(S.__contains__, map(x.__sub__, islice(ordered, start, stop))), None)
    return None if s is None else (s, x - s)


def _draws(rng: np.random.Generator):
    """draw(m), for 1 <= m <= 2^32, returning what int(rng.integers(0, m)) would.

    numpy's bounded draw below 2^32 is Lemire's multiply-shift over the
    generator's 32-bit stream: w * m >> 32, drawn again while the low word
    w * m mod 2^32 is below (2^32 - m) mod m; m = 1 consumes nothing.  The
    words are read 1024 at a time from rng.integers(0, 2**32, dtype=uint64),
    which returns that same stream, so rng runs ahead of what is drawn.
    """

    def stream():
        while True:
            yield from rng.integers(0, 2**32, size=1024, dtype=np.uint64).tolist()

    word = stream().__next__

    def draw(m: int) -> int:
        if m == 1:
            return 0
        p = word() * m
        if p & 0xFFFFFFFF < m:  # m bounds the threshold; most draws stop here
            threshold = (2**32 - m) % m
            while p & 0xFFFFFFFF < threshold:
                p = word() * m
        return p >> 32

    return draw


def _local_search(elems: tuple[int, ...], start: set[int], draw, allow_eq: bool) -> set[int]:
    """The largest set met by four rounds of 150 add/swap moves from `start`.

    Each move draws x = elems[draw(n)]; a member x is skipped.  x is added
    when no conflict blocks it.  Otherwise a member pick = sorted(S)[draw(|S|)]
    is dropped for x when (S - {pick}) ∪ {x} is sum-free.  Each round starts
    from the best set so far.  `start` must be sum-free, and the result is.

    An add grows the set and a swap keeps its size, so every add sets a
    record, and the best set so far is the set as it was right after the
    last add.  It is copied only when a swap first leaves it: `best` is None
    while the current set is the best, and a round that ends with no swap
    since its last add needs no reset and no sort.

    Each drawn x keeps the conflict _conflict names.  A conflict is a
    relation between x and its members alone, and only a swap or a reset
    removes a member, so a drawn x whose kept members are all present is
    blocked with no scan.  When pick is not in x's conflict, that conflict
    blocks x without pick too, so the swap is skipped once pick is drawn.
    So the result reads whether x has a conflict, never which one
    _conflict names: a kept conflict only skips a swap that would fail
    anyway, and a full rescan decides every other swap.
    """
    n = len(elems)
    current = set(start)
    ordered = sorted(current)  # current in sorted order, kept in step with it
    best: set[int] | None = None  # the best set so far, once a swap has left it
    conflicts: dict[int, tuple[int, ...] | None] = {}  # x -> its last conflict
    for _ in range(4):
        if best is not None:
            current, best = best, None
            ordered = sorted(current)
        for _ in range(150):
            x = elems[draw(n)]
            if x in current:
                continue
            w = conflicts.get(x)
            if w is None or not current.issuperset(w):
                w = conflicts[x] = _conflict(x, current, ordered, allow_eq)
            if w is None:
                current.add(x)
                insort(ordered, x)
                best = None
            else:
                # plateau 1-swap: trade a random member for x when legal
                j = draw(len(ordered))
                pick = ordered[j]
                if pick not in w:
                    continue  # w still blocks x without pick
                current.remove(pick)
                del ordered[j]
                w = conflicts[x] = _conflict(x, current, ordered, allow_eq)
                if w is None:
                    if best is None:
                        best = current | {pick}  # the set before this swap
                    current.add(x)
                    insort(ordered, x)
                else:
                    current.add(pick)
                    ordered.insert(j, pick)
    return current if best is None else best


def heuristic_sum_free(
    A: IntegerSet,
    convention: SumFreeConvention = ALLOW_EQUAL,
    seed: int = 0,
) -> SolveReport:
    """Verified lower bound from a candidate portfolio plus local search.

    Candidates, in order: the exact sweep within _SWEEP_EVENT_CAP events,
    else the first dyadic interval A ∩ [x, 2x) with the most elements; the
    residue rows of _residue_winner, the sum-free classes mod q <= 10 and
    Erdős's x/p for p = 11..83; and, only while the best misses the floor
    ceil((|A|+1)/3), _prime_floor's x/p, which reaches it or is refused
    past PRIME_DILATION_LIMIT.  A later candidate wins only when strictly
    larger.  No interval or x/p beats the sweep: each theta in
    (1/(3x), 2/(3(2x-1))) selects all of [x, 2x).  Four rounds of seeded
    add/swap local search improve the winner.  The witness is re-verified;
    optimum is a lower bound (exact=False).

    So the search starts from a function of A alone, and the seed drives
    the search alone.  Its draws are the values rng.integers(0, m) would
    give, read in bulk through _draws, so the words drawn ahead change
    nothing returned.  Output is a deterministic function of (A,
    convention, seed).
    """
    A.require_positive("heuristic_sum_free")
    if len(A) == 0:
        raise ValueError("heuristic_sum_free needs a nonempty set")
    rng = rng_from_seed(seed, "heuristic")
    n = len(A)
    allow_eq = convention is ALLOW_EQUAL
    elems = A.elements

    # Dilation candidates select sum-free sets under ALLOW_EQUAL hence both
    # conventions (an ALLOW_EQUAL-sum-free set is DISTINCT_ONLY-sum-free).
    if 2 * sum(elems) <= _SWEEP_EVENT_CAP:
        best_set = set(dilation_sweep(A).selected.elements)
    else:
        # A ∩ [x, 2x) is sum-free; the first x with the most elements wins.
        # Each bisect_left runs at C speed, on Python ints exact past int64.
        ends = map(bisect_left, repeat(elems), map((2).__mul__, elems))
        counts = list(map(sub, ends, range(n)))
        top = max(counts)
        i = counts.index(top)
        best_set = set(elems[i : i + top])

    reduced = _row_residues(elems)
    winner = _residue_winner(reduced, len(best_set))
    if winner is not None:
        q, i = winner
        best_set = set(compress(elems, _residue_rows(q)[i][reduced % q].tolist()))
    if len(best_set) < one_third_floor(n):
        best_set = set(dilation_select(A, _prime_floor(elems)).elements)

    best = _local_search(elems, best_set, _draws(rng), allow_eq)
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
