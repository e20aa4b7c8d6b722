"""Additive structure analysis on {1,..,N} and on residue-interval grids.

Three families of diagnostics live here: difference sets and the dense
progression scanner (is a set unusually concentrated on some arithmetic
progression?), the exact grid form of the doubling inequality for functions
on Z/qZ x {1,..,M}, and the avoid-zero diagnostic for grid sets (how little
mass can a set have near the origin, over subgroup-times-interval boxes?).
All verdicts are computed in exact integer or rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import IntegerSet, JsonReport, _check_limit, indicator_vector, parse_rational, read_grid_json
from .spectral import popular_differences

# window ends find_dense_progression may visit: its grids hold about twice as
# many cells, and each Dinkelbach round costs a few numpy passes over them
PROGRESSION_WINDOW_LIMIT = 2_000_000
# ordered pairs of cells above eta alpha_tilde may visit: its pair arrays
# take about 130 MB at this many
ALPHA_PAIR_LIMIT = 1 << 22


@dataclass(frozen=True)
class Progression(JsonReport):
    """Arithmetic progression start, start+step, .., start+(length-1)*step."""

    start: int
    step: int
    length: int

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("progression start must be >= 1")
        if self.step < 1:
            raise ValueError("progression step must be >= 1")
        if self.length < 1:
            raise ValueError("progression length must be >= 1")

    @property
    def last(self) -> int:
        return self.start + (self.length - 1) * self.step

    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.last + 1, self.step))

    def __len__(self) -> int:
        return self.length


def difference_set(A: IntegerSet) -> tuple[tuple[int, ...], int]:
    """A - A as a sorted tuple, 0 and negatives included, with its size.

    |A - A| >= 2|A| - 1 for nonempty A, with equality exactly for arithmetic
    progressions; the size is invariant under translating or dilating A.
    """
    diffs = {a - b for a in A.elements for b in A.elements}
    out = tuple(sorted(diffs))
    return out, len(out)


@dataclass(frozen=True)
class DenseProgressionReport(JsonReport):
    progression: Progression
    hits: int
    density: Fraction
    target: Fraction
    meets_target: bool


def _max_step(N: int, min_length: int) -> int:
    """The largest step of a window of length >= min_length in {1,..,N}, at least 1."""
    return max(1, N - 1 if min_length == 1 else (N - 1) // (min_length - 1))


def _window_ends(N: int, min_length: int) -> int:
    """The window ends find_dense_progression visits: the sum over steps d of N - (min_length-1)*d.

    Every term is positive, and each falls as min_length grows while the
    steps get fewer, so the count never rises with min_length.
    """
    m = _max_step(N, min_length)
    return m * N - (min_length - 1) * m * (m + 1) // 2


def _default_min_length(N: int) -> int:
    """The least min_length >= max(1, N // 10) whose scan fits PROGRESSION_WINDOW_LIMIT.

    _window_ends never rises with min_length and is 1 at N, so bisection
    finds it.  It is N // 10 wherever that length fits.
    """
    lo, hi = max(1, N // 10), max(1, N)
    while lo < hi:
        mid = (lo + hi) // 2
        if _window_ends(N, mid) <= PROGRESSION_WINDOW_LIMIT:
            hi = mid
        else:
            lo = mid + 1
    return lo


def find_dense_progression(
    A: IntegerSet, N: int, min_length: int, target_density
) -> DenseProgressionReport:
    """Exhaustive scan for the densest progression window of length >= min_length.

    Every progression inside {1,..,N} is a window of some residue chain
    r, r+d, r+2d, .. <= N.  For each step d the indicator, padded to a
    (rows, d) grid whose columns are the chains, gives every chain's prefix
    sums P in one cumsum.  Steps run up to (N-1)/(min_length-1), the
    largest step any qualifying window can have, one at a time, so memory
    stays O(N).

    The best density p/q is found by Dinkelbach iteration, from 0/1: with
    V[i] = q*P[i] - p*i, a window (k, j] is denser than p/q exactly when
    V[j] > V[k], so a prefix minimum of V over the starts k <= j - min_length
    finds the best window ending at each j.  While some window of the step
    beats p/q, the one with the largest V[j] - V[k] sets the next p/q;
    density strictly rises and takes finitely many values, so the rounds
    stop.  The windows with V[j] equal to that minimum are the ones at
    density p/q, and each takes its first minimum (its longest window).
    Since p/q only rises, the best window found at the final p/q is the
    answer.  All arithmetic is exact in int64 (|q*P| <= N^2 <= 2^46).  Ties
    prefer longer windows, then earlier starts, then smaller steps.

    The scan is refused before it starts when its window ends, the sum over
    steps of N - (min_length-1)*step, pass PROGRESSION_WINDOW_LIMIT.
    """
    member = indicator_vector(A, N).astype(np.int8)
    if not 1 <= min_length <= N:
        raise ValueError(f"min_length must lie in [1, {N}]")
    target = Fraction(target_density)

    L = min_length
    max_step = _max_step(N, L)
    _check_limit("progression window ends", _window_ends(N, L), PROGRESSION_WINDOW_LIMIT, "raise min_length or lower N")
    padded = np.zeros(N + max_step, dtype=np.int8)
    padded[:N] = member
    index = np.arange(N + 1, dtype=np.int64)[:, None]
    p, q = 0, 1
    best = None  # (hits, length, start, step) of the best window at density p/q
    for d in range(1, max_step + 1):
        rows = -(-N // d)  # the longest chain, r = 1; chains r > full are one shorter
        full = N - (rows - 1) * d
        P = np.zeros((rows + 1, d), dtype=np.int64)
        np.cumsum(padded[: rows * d].reshape(rows, d), axis=0, dtype=np.int64, out=P[1:])
        while True:  # Dinkelbach rounds on this step's windows
            V = P * q
            V -= p * index[: rows + 1]
            M = np.minimum.accumulate(V[: rows + 1 - L], axis=0)
            gain = V[L:]  # gain[j - L] = V[j] - min V[0..j - L]
            gain -= M
            gain[-1, full:] = -1  # ends past a chain's last point; any negative value works
            top = int(gain.max())
            if top <= 0:
                break
            i, c = divmod(int(gain.argmax()), d)
            k = int(np.argmin(P[: i + 1, c] * q - p * index[: i + 1, 0]))
            p, q = int(P[i + L, c] - P[k, c]), i + L - k
            best = None
        if top == 0:  # some windows of this step have density p/q
            # first[i]: the first start k <= i with V[k] = M[i], so the longest window
            first = np.zeros_like(M)
            first[1:] = np.where(M[1:] < M[:-1], index[1 : rows + 1 - L], 0)
            np.maximum.accumulate(first, axis=0, out=first)
            i, c = np.nonzero(gain == 0)
            k = first[i, c]
            length = i + L - k
            longest = np.flatnonzero(length == length.max())
            t = longest[np.argmin(c[longest] + k[longest] * d)]
            j, c, k = int(i[t]) + L, int(c[t]), int(k[t])
            cand = (int(P[j, c] - P[k, c]), j - k, c + 1 + k * d, d)
            if best is None or (cand[1], -cand[2]) > (best[1], -best[2]):
                best = cand

    hits, length, start, step = best
    prog = Progression(start=start, step=step, length=length)
    density = Fraction(hits, length)
    return DenseProgressionReport(
        progression=prog,
        hits=hits,
        density=density,
        target=target,
        meets_target=density >= target,
    )


@dataclass(frozen=True)
class DoublingReport(JsonReport):
    n: int
    set_size: int
    delta: float
    eps: Fraction
    popular_count: int
    doubling_allowance: Fraction
    hypothesis_met: bool
    min_length: int
    progression: DenseProgressionReport | None


def check_doubling_hypothesis(
    A: IntegerSet, N: int, eps, delta: float, min_length: int | None = None
) -> DoublingReport:
    """Test |D_delta(A)| <= 4|A| - eps*N and, if it holds, hunt a dense window.

    D_delta(A) is the set of delta-popular differences.  When the count
    stays under the allowance, the structural prediction is a progression
    of density at least 1/2 + eps/5 somewhere in {1,..,N}; the scanner then
    reports the best window of length >= min_length together with whether
    it meets that target.  The default min_length is _default_min_length(N):
    N // 10, since the predicted length constant is not effective, raised
    where needed until the scan fits its limit.  An explicit min_length
    outside [1, N] is refused first; against the limit it is checked only
    when the scan runs, after the popular differences.  The popular count
    uses exact thresholding, and the allowance comparison exact rationals.
    """
    eps_f = Fraction(eps)
    if not 0 < eps_f <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if min_length is None:
        min_length = _default_min_length(N)
    elif not 1 <= min_length <= N:
        raise ValueError(f"min_length must lie in [1, {N}]")
    popular = popular_differences(A, N, delta)
    allowance = 4 * len(A) - eps_f * N
    met = len(popular) <= allowance
    progression = None
    if met:
        progression = find_dense_progression(
            A, N, min_length, Fraction(1, 2) + eps_f / 5
        )
    return DoublingReport(
        n=N,
        set_size=len(A),
        delta=float(delta),
        eps=eps_f,
        popular_count=len(popular),
        doubling_allowance=allowance,
        hypothesis_met=met,
        min_length=min_length,
        progression=progression,
    )


@dataclass(frozen=True)
class AlphaGrid:
    """[0,1]-valued function on Z/qZ x {1,..,M}, stored exactly.

    Entries are Fractions (floats convert exactly), so the doubling
    inequality below is decided with no rounding anywhere.  Construction
    range-checks each distinct value once.
    """

    modulus: int
    levels: int
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.modulus < 1 or self.levels < 1:
            raise ValueError("grid dimensions must be >= 1")
        if len(self.values) != self.modulus:
            raise ValueError("value rows must match the modulus")
        for row in self.values:
            if len(row) != self.levels:
                raise ValueError("value row length must match the level count")
        for v in dict.fromkeys(v for row in self.values for v in row):  # each distinct value once
            if not 0 <= v <= 1:
                raise ValueError(f"grid value {v} outside [0, 1]")

    @classmethod
    def from_values(cls, modulus: int, levels: int, values) -> "AlphaGrid":
        """Build from row-major values (numbers, floats, or 'a/b' strings).

        Each distinct value is parsed once, a string by core.parse_rational,
        which refuses a numerator or denominator of more than
        core.MAX_RATIONAL_DIGITS digits, and an exponent past that many.
        """
        values = list(values)
        parsed = {v: parse_rational(v) if isinstance(v, str) else Fraction(v) for v in dict.fromkeys(values)}
        flat = [parsed[v] for v in values]
        if len(flat) != modulus * levels:
            raise ValueError(f"expected {modulus * levels} values, got {len(flat)}")
        rows = tuple(
            tuple(flat[a * levels : (a + 1) * levels]) for a in range(modulus)
        )
        return cls(modulus=modulus, levels=levels, values=rows)


@dataclass(frozen=True)
class AlphaTildeReport(JsonReport):
    """Both sides of the grid doubling inequality, exactly.

    lhs_total is the grand sum of the pair-maximum table that alpha_tilde
    describes, and rhs_bound is 4*(sum of the grid) - 4*eta*q*M.  The
    inequality lhs >= rhs is a theorem, so holds=False on any input means
    an implementation bug.
    """

    eta: Fraction
    lhs_total: Fraction
    rhs_bound: Fraction
    holds: bool


def alpha_tilde(grid: AlphaGrid, eta) -> AlphaTildeReport:
    """Exact inequality sum of the pair-maximum table >= 4*sum - 4*eta*q*M.

    The table has an entry at each (x, y) for x in Z/qZ and y in {-M,..,M}:
    the largest value(a,i) + value(a',i') over pairs with both entries
    > eta, a - a' = x mod q, and i - i' in {y, y-1}; an empty pair set
    contributes 0.  Identical cells do pair with themselves: a single
    positive cell c gives entries 2c at (0, 0) and (0, 1) and total 4c, the
    equality case.

    The values are scaled to integer numerators over their common
    denominator and each ordered pair is visited once.  The numerators are
    Python ints, since float entries can push that denominator past int64.
    The pairs, P^2 for P cells above eta, are refused past ALPHA_PAIR_LIMIT
    before any pair array is built.
    """
    eta_f = Fraction(eta)
    if eta_f < 0:
        raise ValueError("eta must be >= 0")
    q, M = grid.modulus, grid.levels
    den = math.lcm(*(v.denominator for row in grid.values for v in row))
    nums = np.array(
        [[v.numerator * (den // v.denominator) for v in row] for row in grid.values],
        dtype=object,
    )
    a, i = np.nonzero(nums * eta_f.denominator > eta_f.numerator * den)
    _check_limit("alpha_tilde cell pairs", len(a) ** 2, ALPHA_PAIR_LIMIT)
    v = nums[a, i]
    # best[x, d + M] is the largest pair sum with a - a' = x mod q and i - i' = d
    best = np.zeros((q, 2 * M + 1), dtype=object)
    np.maximum.at(
        best,
        (np.subtract.outer(a, a).ravel() % q, np.subtract.outer(i, i).ravel() + M),
        np.add.outer(v, v).ravel(),
    )
    # column y takes the differences y and y - 1; |d| < M keeps columns 0
    # and 2M of best at 0, so the roll wraps in nothing
    table = np.maximum(best, np.roll(best, 1, axis=1))
    lhs = Fraction(int(table.sum()), den)
    rhs = Fraction(4 * int(nums.sum()), den) - 4 * eta_f * q * M
    return AlphaTildeReport(eta=eta_f, lhs_total=lhs, rhs_bound=rhs, holds=lhs >= rhs)


@dataclass(frozen=True)
class GridSet:
    """Subset of Z/qZ x {1,..,K}; cell (a, i) stands for {a} x ((i-1)/K, i/K].

    Measure is uniform: each cell weighs 1/(q*K).
    """

    modulus: int
    cells: int
    membership: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.membership, dtype=bool)
        m.flags.writeable = False
        object.__setattr__(self, "membership", m)
        if self.modulus < 1 or self.cells < 1:
            raise ValueError("grid dimensions must be >= 1")
        if m.shape != (self.modulus, self.cells):
            raise ValueError(
                f"membership shape {m.shape} != ({self.modulus}, {self.cells})"
            )

    def measure(self) -> Fraction:
        return Fraction(int(self.membership.sum()), self.modulus * self.cells)


@dataclass(frozen=True)
class AvoidZeroReport(JsonReport):
    """Minimizing subgroup-times-interval box and the set's mass on it.

    subgroup is {0, stride, 2*stride, ..} in Z/qZ (index = stride); the
    interval is [0, interval_end].  Small mass is the signature of a set
    that stays away from the origin in both coordinates.
    """

    subgroup_stride: int
    subgroup: tuple[int, ...]
    interval_end: Fraction
    mass: Fraction


def avoid_zero_diagnostic(
    A: GridSet, index_bound: int, min_interval
) -> AvoidZeroReport:
    """Minimize the mass of A over boxes H x [0, l], H a subgroup, l >= min_interval.

    One subgroup per divisor d <= index_bound of the modulus (the subgroup
    of stride d, which has index d) and one interval endpoint per grid line
    l = j/K with l >= min_interval.  Ties prefer the smallest subgroup,
    then the shortest interval, so the reported box is deterministic.  An
    index_bound above the modulus admits the same strides as the modulus
    itself, since no larger stride divides it.  Every mass is a cell count
    over q*K, so the counts are compared as integers, one argmin over the
    interval ends per subgroup.
    """
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    mi = Fraction(min_interval)
    if not 0 < mi <= 1:
        raise ValueError("min_interval must lie in (0, 1]")
    q, K = A.modulus, A.cells
    j_min = math.ceil(mi * K)
    prefix = np.cumsum(A.membership, axis=1)

    # every mass is count / (q*K): compare the counts.  Strides run from the
    # smallest subgroup up, and argmin takes the shortest interval, so a
    # strict improvement keeps both tie-breaks
    best = None  # (count, j, stride)
    for stride in range(q, 0, -1):
        if q % stride != 0 or stride > index_bound:
            continue
        counts = prefix[0:q:stride, j_min - 1 :].sum(axis=0)
        k = int(counts.argmin())
        if best is None or counts[k] < best[0]:
            best = (int(counts[k]), j_min + k, stride)
    count, j, stride = best
    return AvoidZeroReport(
        subgroup_stride=stride,
        subgroup=tuple(range(0, q, stride)),
        interval_end=Fraction(j, K),
        mass=Fraction(count, q * K),
    )


def lev_check(P: Progression, X: IntegerSet) -> bool:
    """Does the 5-fold minus 4-fold sumset of X cover P?

    Requires |P| > 12, X contained in P, and |X| > |P| / 2; under those
    hypotheses coverage always holds (a theorem), so False indicates a bug
    rather than an interesting input.  The sizes are checked first and
    membership in P arithmetically, so a huge |P| is refused at once.  X
    is affinely normalized to {0,..,|P|-1}, and _lev_covers tests the
    cover on integer bitmasks with one shift per point of P.
    """
    if P.length <= 12:
        raise ValueError("covering check requires |P| > 12")
    if 2 * len(X) <= P.length:
        raise ValueError("X must fill more than half of P")
    start, last, step = P.start, P.last, P.step
    if not all(start <= x <= last and (x - start) % step == 0 for x in X.elements):
        raise ValueError("X must be contained in P")
    return _lev_covers([(x - start) // step for x in X.elements], P.length)


def _lev_covers(xs: list[int], length: int) -> bool:
    """Is {0,..,length-1} inside 5X - 4X, for X = xs in [0, length)?

    The k-fold sumsets are bitmasks, each built from the last by one shift
    per point of X.  Point m of the range is covered when some b in 4X has
    m + b in 5X, that is when (5X >> m) & 4X is nonzero: one shift per
    point of the range, where testing 5X - b for each b in 4X would take
    one per point of 4X, up to four times as many.
    """
    folds = [1]  # bitmask of the k-fold sumset, starting with {0}
    for _ in range(5):
        acc = 0
        cur = folds[-1]
        for v in xs:
            acc |= cur << v
        folds.append(acc)
    five, four = folds[5], folds[4]
    return all((five >> m) & four for m in range(length))


def load_alpha_grid(path: str | Path) -> AlphaGrid:
    """Read an AlphaGrid from JSON {q, M, values row-major}.

    Each value is an integer, a float or a rational string such as "1/3".
    """
    raw = read_grid_json(path, "q", "M")
    if not set(map(type, raw["values"])) <= {int, float, str}:  # JSON gives exact types
        bad = next(v for v in raw["values"] if type(v) not in (int, float, str))
        raise ValueError(f"{path}: grid values must be numbers or rational strings, got {bad!r}")
    try:
        return AlphaGrid.from_values(raw["q"], raw["M"], raw["values"])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # Fraction(inf) overflows
        raise ValueError(f"{path}: {exc}") from exc


def load_grid_set(path: str | Path) -> GridSet:
    """Read a GridSet from JSON {q, K, values row-major} with 0/1 entries.

    Each entry is the integer 0 or 1: JSON's true, false, 1.0 and 0.0 are refused.
    """
    raw = read_grid_json(path, "q", "K")
    q, K, values = raw["q"], raw["K"], raw["values"]
    if not set(map(type, values)) <= {int} or not set(values) <= {0, 1}:  # JSON gives exact types
        bad = next(v for v in values if type(v) is not int or v not in (0, 1))
        raise ValueError(f"{path}: membership values must be 0 or 1, got {bad!r}")
    return GridSet(modulus=q, cells=K, membership=np.array(values, dtype=bool).reshape(q, K))
