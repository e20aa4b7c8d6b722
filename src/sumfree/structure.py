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
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import IntegerSet, JsonReport, indicator_vector, read_grid_json
from .spectral import popular_differences


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


def _candidate_beats(cand, best) -> bool:
    # (hits, length, start, step); higher density, then longer, then earlier
    # start, then smaller step.  Density compared by cross-multiplication.
    ch, cl, cs, cd = cand
    bh, bl, bs, bd = best
    if ch * bl != bh * cl:
        return ch * bl > bh * cl
    if cl != bl:
        return cl > bl
    if cs != bs:
        return cs < bs
    return cd < bd


def find_dense_progression(
    A: IntegerSet, N: int, min_length: int, target_density
) -> DenseProgressionReport:
    """Exhaustive scan for the densest progression window of length >= min_length.

    Every progression inside {1,..,N} is some window of a residue chain
    r, r+d, r+2d, ..; within one chain the best window ending at index j is
    found on the lower convex hull of the prefix-sum points (window density
    is a slope), so each chain costs O(length * log).  Steps run up to
    (N-1)/(min_length-1), the largest step any qualifying window can have.
    All comparisons are exact integer cross-multiplications; ties prefer
    longer windows, then earlier starts, then smaller steps.
    """
    member = indicator_vector(A, N)
    if not 1 <= min_length <= N:
        raise ValueError(f"min_length must lie in [1, {N}]")
    target = Fraction(target_density)

    max_step = N - 1 if min_length == 1 else (N - 1) // (min_length - 1)
    max_step = max(1, max_step)
    best = None
    for step in range(1, max_step + 1):
        for r in range(1, step + 1):
            chain = member[r - 1 :: step]  # the points r, r + step, .. <= N
            m = len(chain)
            if m < min_length:
                continue
            prefix = [0, *np.cumsum(chain, dtype=np.int64).tolist()]
            hull: list[tuple[int, int]] = []
            for j in range(min_length, m + 1):
                k = j - min_length
                px, py = k, prefix[k]
                while len(hull) >= 2:
                    x1, y1 = hull[-2]
                    x2, y2 = hull[-1]
                    if (y2 - y1) * (px - x2) >= (py - y2) * (x2 - x1):
                        hull.pop()
                    else:
                        break
                hull.append((px, py))
                yj = prefix[j]
                lo, hi = 0, len(hull) - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    x1, y1 = hull[mid]
                    x2, y2 = hull[mid + 1]
                    if (yj - y2) * (j - x1) > (yj - y1) * (j - x2):
                        lo = mid + 1
                    else:
                        hi = mid
                x0, y0 = hull[lo]
                cand = (yj - y0, j - x0, r + x0 * step, step)
                if best is None or _candidate_beats(cand, best):
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
    reports the best window of length >= min_length (default N // 10, since
    the predicted length constant is not effective) together with whether
    it meets that target.  The popular count uses exact thresholding, and
    the allowance comparison is exact rational arithmetic.
    """
    eps_f = Fraction(eps)
    if not 0 < eps_f <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if min_length is None:
        min_length = max(1, N // 10)
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
    inequality below is decided with no rounding anywhere.
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
            for v in row:
                if not 0 <= v <= 1:
                    raise ValueError(f"grid value {v} outside [0, 1]")

    @classmethod
    def from_values(cls, modulus: int, levels: int, values) -> "AlphaGrid":
        """Build from row-major values (numbers, floats, or 'a/b' strings)."""
        flat = [Fraction(v) for v in values]
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

    @classmethod
    def full(cls, modulus: int, cells: int) -> "GridSet":
        return cls(modulus, cells, np.ones((modulus, cells), dtype=bool))

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
    index_bound above the modulus is clamped with a warning.
    """
    if index_bound < 1:
        raise ValueError("index_bound must be >= 1")
    mi = Fraction(min_interval)
    if not 0 < mi <= 1:
        raise ValueError("min_interval must lie in (0, 1]")
    q, K = A.modulus, A.cells
    if index_bound > q:
        warnings.warn(
            f"index bound {index_bound} exceeds modulus {q}; clamping to {q}",
            stacklevel=2,
        )
        index_bound = q
    j_min = math.ceil(mi * K)
    prefix = np.cumsum(A.membership, axis=1)

    best = None  # (mass, subgroup size, j, stride)
    for stride in range(q, 0, -1):
        if q % stride != 0 or stride > index_bound:
            continue
        rows = prefix[0:q:stride]
        counts = rows.sum(axis=0)
        for j in range(j_min, K + 1):
            mass = Fraction(int(counts[j - 1]), q * K)
            cand = (mass, q // stride, j, stride)
            if best is None or cand[:3] < best[:3]:
                best = cand
    mass, _, j, stride = best
    return AvoidZeroReport(
        subgroup_stride=stride,
        subgroup=tuple(range(0, q, stride)),
        interval_end=Fraction(j, K),
        mass=mass,
    )


def lev_check(P: Progression, X: IntegerSet) -> bool:
    """Does the 5-fold minus 4-fold sumset of X cover P?

    Requires |P| > 12, X contained in P, and |X| > |P| / 2; under those
    hypotheses coverage always holds (a theorem), so False indicates a bug
    rather than an interesting input.  X is affinely normalized to
    {0,..,|P|-1} first, and the iterated sumsets run on integer bitmasks.
    """
    if P.length <= 12:
        raise ValueError("covering check requires |P| > 12")
    if 2 * len(X) <= P.length:
        raise ValueError("X must fill more than half of P")
    if not all(P.start <= x <= P.last and (x - P.start) % P.step == 0 for x in X.elements):
        raise ValueError("X must be contained in P")
    xs = [(x - P.start) // P.step for x in X.elements]

    mask = 0
    for v in xs:
        mask |= 1 << v
    folds = [1]  # bitmask of the k-fold sumset, starting with {0}
    for _ in range(5):
        acc = 0
        cur = folds[-1]
        for v in xs:
            acc |= cur << v
        folds.append(acc)
    five, four = folds[5], folds[4]
    cover = 0
    rem = four
    while rem:
        bit = rem & -rem
        rem ^= bit
        cover |= five >> (bit.bit_length() - 1)
    want = (1 << P.length) - 1
    return cover & want == want


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
    """Read a GridSet from JSON {q, K, values row-major} with 0/1 entries."""
    raw = read_grid_json(path, "q", "K")
    q, K, values = raw["q"], raw["K"], raw["values"]
    for v in values:
        if v not in (0, 1):
            raise ValueError(f"{path}: membership values must be 0 or 1, got {v!r}")
    return GridSet(modulus=q, cells=K, membership=np.array(values, dtype=bool).reshape(q, K))
