"""Irrationality certification and equidistribution error measurement.

The orbit of interest is n -> (n mod q, n/N, theta*n mod 1) for a real
vector theta.  Test functions are trigonometric polynomials with integer
frequencies in every coordinate, so their integral against the uniform
measure is exactly the sum of the fully-constant coefficients and the
empirical-vs-integral gap is measured with no quadrature error on the
reference side.  The irrationality check certifies quantitatively that no
small integer combination of the theta coordinates is near an integer,
which is the hypothesis that makes such orbits equidistribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _BLOCK, MAX_SIGNAL_LENGTH, JsonReport, _check_limit
from .structure import Progression

# vectors irrationality_check may scan: the count at d = 3, a_bound = 135.
# The scan takes a few array operations per vector and holds one block of
# _BLOCK states per level (a level per nonzero entry), so this count
# bounds its time and the block its memory.
MAX_TORUS_VECTORS = 1_658_655


@dataclass(frozen=True)
class Theta:
    """A point of the d-torus, stored as floats in [0, 1)."""

    components: tuple[float, ...]

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) == 0:
            raise ValueError("theta needs at least one component")
        for c in comps:
            if not 0.0 <= c < 1.0:
                raise ValueError(f"theta component {c!r} outside [0, 1)")

    @property
    def dimension(self) -> int:
        return len(self.components)


def golden_theta() -> Theta:
    """(sqrt(5)-1)/2, the canonical badly-approximable fixture."""
    return Theta(((math.sqrt(5.0) - 1.0) / 2.0,))


def torus_distance(x: float) -> float:
    """Distance from x to the nearest integer."""
    return abs(x - round(x))


@dataclass(frozen=True)
class TrigTerm:
    """One exponential c * e(a*x/q + m*y + sum_k m_k * z_k).

    residue_freq is the frequency a on Z/qZ, interval_freq the integer
    frequency m on the [0, 1] coordinate, orbit_freq the integer frequency
    vector on the torus coordinates.
    """

    coefficient: complex
    residue_freq: int = 0
    interval_freq: int = 0
    orbit_freq: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(self, "orbit_freq", tuple(int(m) for m in self.orbit_freq))


@dataclass(frozen=True)
class LipschitzTestFunction:
    """Trig polynomial on Z/qZ x [0, 1] x (R/Z)^d."""

    modulus: int
    orbit_dim: int
    terms: tuple[TrigTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if self.orbit_dim < 0:
            raise ValueError("orbit_dim must be >= 0")
        for term in self.terms:
            if not isinstance(term, TrigTerm):
                raise ValueError("terms must be TrigTerm instances")
            if len(term.orbit_freq) != self.orbit_dim:
                raise ValueError(
                    f"term orbit frequency has {len(term.orbit_freq)} coordinates, "
                    f"expected {self.orbit_dim}"
                )

    @property
    def lipschitz_bound(self) -> float:
        """sum |c| * 2*pi * (|a|/q + |m| + sum |m_k|) over the terms.

        This bounds the true Lipschitz constant coordinate-wise (residues at
        metric |x - x'|/q).
        """
        total = 0.0
        for t in self.terms:
            freq_mass = abs(t.residue_freq) / self.modulus + abs(t.interval_freq)
            freq_mass += sum(abs(m) for m in t.orbit_freq)
            total += abs(t.coefficient) * 2.0 * math.pi * freq_mass
        return total

    def exact_integral(self) -> complex:
        """Integral against uniform measure: only fully-constant terms survive."""
        total = 0j
        for t in self.terms:
            if t.residue_freq % self.modulus == 0 and t.interval_freq == 0:
                if all(m == 0 for m in t.orbit_freq):
                    total += t.coefficient
        return total

    def evaluate(self, n: np.ndarray, N: int, theta: Theta) -> np.ndarray:
        """F at the orbit points of the integers n (shape preserved, complex).

        Terms are added in order, each as coefficient * e(phase).  A term
        whose frequencies (residue, interval, orbit) repeat the previous
        term's reuses its wave, and one whose frequencies negate them (the
        second half of a cosine) takes the wave's conjugate: one exponential
        per pair, and one wave kept from a term to the next.  The sum is bit for
        bit the per-term one.  Negated frequencies negate the phase exactly,
        since every operation on it is sign-symmetric, except that a zero
        phase stays +0; 2j*pi*phase then has real part +-0, and
        np.exp(conj z) is conj(np.exp z) in every bit.  So a reused wave
        differs from the computed one at most in the sign of a zero, and
        out, which starts at +0 and so never holds -0, absorbs that sign.
        """
        if theta.dimension != self.orbit_dim and self.orbit_dim > 0:
            raise ValueError(
                f"theta has {theta.dimension} components, function expects {self.orbit_dim}"
            )
        arr = np.asarray(n, dtype=np.float64)
        res = np.asarray(n, dtype=np.int64) % self.modulus
        out = np.zeros(arr.shape, dtype=np.complex128)
        last, wave = (), None  # the previous term's frequencies and wave
        for t in self.terms:
            key = (t.residue_freq, t.interval_freq, *t.orbit_freq)
            if key != last:
                if key == tuple(-f for f in last):
                    wave = np.conj(wave)
                else:
                    wave = None  # freed before the next one is built
                    phase = t.residue_freq * res / self.modulus + t.interval_freq * arr / N
                    for k, m in enumerate(t.orbit_freq):
                        if m != 0:
                            phase = phase + m * theta.components[k] * arr
                    wave = np.exp(2j * np.pi * phase)
                last = key
            out += t.coefficient * wave
        return out


def constant_function(value: complex, modulus: int = 1, orbit_dim: int = 1) -> LipschitzTestFunction:
    return LipschitzTestFunction(
        modulus=modulus,
        orbit_dim=orbit_dim,
        terms=(TrigTerm(value, 0, 0, (0,) * orbit_dim),),
    )


def cosine_orbit(orbit_dim: int = 1, coordinate: int = 0, modulus: int = 1) -> LipschitzTestFunction:
    """cos(2*pi*z_k) as the two conjugate exponentials; Lipschitz bound 2*pi."""
    if not 0 <= coordinate < orbit_dim:
        raise ValueError("coordinate must index an orbit dimension")
    plus = tuple(1 if k == coordinate else 0 for k in range(orbit_dim))
    minus = tuple(-m for m in plus)
    return LipschitzTestFunction(
        modulus=modulus,
        orbit_dim=orbit_dim,
        terms=(TrigTerm(0.5, 0, 0, plus), TrigTerm(0.5, 0, 0, minus)),
    )


@dataclass(frozen=True)
class IrrationalityReport(JsonReport):
    """Exhaustive small-denominator scan of a torus point.

    holds means every nonzero integer vector with coordinate-sum of
    absolute values at most a_bound keeps q . theta at torus distance at
    least a_bound / n, compared exactly.  worst_vector is the canonical
    (first nonzero positive, lexicographically first) minimizer and
    worst_distance its torus distance; when a_bound < 1 leaves no vector
    to scan, holds is vacuously true, worst_vector is () and
    worst_distance is None.  threshold is float(a_bound / n), printed.
    """

    a_bound: Fraction
    n: int
    holds: bool
    worst_vector: tuple[int, ...]
    worst_distance: float | None
    threshold: float


def _vector_count(dim: int, budget: int) -> int | str:
    """How many vectors irrationality_check scans, none built.

    The scan visits every nonzero q with sum |q_i| <= budget whose first
    nonzero entry is positive.  Of the sum_k 2^k C(dim, k) C(budget, k)
    vectors with sum |q_i| <= budget (k nonzero places, their sizes and
    signs), all but 0 pair off with their negatives.  The sum stops, giving
    a description, once it passes the limit: at k = 1 for a huge dim or
    budget.
    """
    ball = 1
    for k in range(1, min(dim, budget) + 1):
        ball += 2**k * math.comb(dim, k) * math.comb(budget, k)
        if ball > 2 * MAX_TORUS_VECTORS + 1:
            return f"more than {MAX_TORUS_VECTORS}"
    return (ball - 1) // 2


def _scan_ball(theta: np.ndarray, budget: int) -> tuple[float, tuple[tuple[int, int], ...]]:
    """Torus distance and nonzero entries ((i, q_i), ...) of the worst vector.

    Level k of the scan holds the vectors with k nonzero entries: level 1
    places a first entry 1..budget anywhere, and each later level adds one
    entry +-1..(budget left) at a later place.  A block of a level holds,
    for each state, its parent's row in the block above, the place and
    value of its new entry, the budget it has left and its partial sum of
    q_i t_i, added in place order from 0.0.  The children of a level are
    numbered parent by parent from their closed-form counts and expanded
    _BLOCK at a time, depth first, so at most one block per level is
    alive.  Children come in the lex order of their full vectors, so a
    block's first least distance is its lex-first; across blocks, entry
    (i, v) sorts as (i - d, v) when v < 0 and as (d - i, v) when v > 0,
    and a vector that ends sorts as 0 there, as its zeros do.  A vector
    costs a few array operations whatever d, which enters only to write
    out the worst vector.
    """
    d = len(theta)
    best = [math.inf, ()]  # distance, entries

    def lex_key(entries):
        return tuple(x for i, v in entries for x in ((i - d, v) if v < 0 else (d - i, v))) + (0,)

    def expand(blocks, sums, left, last, signed):
        # Parent p has n = d - 1 - last[p] places and r = left[p] values for
        # its child entry.  When signed, children k < n r are the negatives,
        # place by place; the rest (all of them, unsigned) are the positives,
        # last place first: the lex order of the full vectors.
        half = (d - 1 - last) * left
        counts = (1 + signed) * half
        ends = counts.cumsum()
        starts = ends - counts
        if not signed:
            starts -= half  # numbered as the positive half of a signed parent
        for lo in range(0, int(ends[-1]), _BLOCK):
            child = np.arange(lo, min(lo + _BLOCK, int(ends[-1])))
            parent = ends.searchsorted(child, side="right")
            k, h = child - starts[parent], half[parent]
            del child  # each temporary goes before the next level's block is built
            neg = k < h
            r = left[parent]
            place, m = np.divmod(np.where(neg, k, 2 * h - 1 - k), r)
            del k, h
            place += last[parent] + 1
            value = np.where(neg, m - r, r - m)
            del neg, m
            r -= np.abs(value)  # the budget each child leaves
            visit(blocks + ((parent, place, value),), sums[parent] + value * theta[place], r)

    def visit(blocks, sums, left):
        dist = np.abs(sums - np.rint(sums))
        j = int(dist.argmin())
        low = float(dist[j])
        if low <= best[0]:
            entries = []
            for parent, place, value in reversed(blocks):
                entries.append((int(place[j]), int(value[j])))
                j = parent[j]
            entries = tuple(reversed(entries))
            if low < best[0] or lex_key(entries) < lex_key(best[1]):
                best[:] = low, entries
        if len(blocks) < min(d, budget):  # no vector has more nonzero entries
            expand(blocks, sums, left, blocks[-1][1], True)

    if budget > 0:
        expand((), np.zeros(1), np.array([budget]), np.array([-1]), False)
    return tuple(best)


def irrationality_check(theta: Theta, a_bound, N: int) -> IrrationalityReport:
    """Scan all small integer vectors for a near-integer combination.

    Exhaustive over sum |q_i| <= a_bound (vectors identified with their
    negatives).  Each q . theta is summed from 0.0 in place order, one
    IEEE addition per nonzero entry, whatever the interpreter (Python's
    sum() compensates from 3.12 on).  The verdict compares the worst torus
    distance exactly with a_bound / N, not with the reported threshold,
    its float, which can underflow to 0.0; since no distance exceeds 1/2,
    any a_bound / N above 1/2 fails.  The scan is refused before it starts
    when its vector count passes MAX_TORUS_VECTORS; reduce a_bound in that
    case.
    """
    a_frac = Fraction(a_bound)
    if a_frac <= 0:
        raise ValueError("a_bound must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    budget = math.floor(a_frac)
    d = theta.dimension
    _check_limit("torus vectors", _vector_count(d, budget), MAX_TORUS_VECTORS, "reduce a_bound")
    worst_dist, worst = _scan_ball(np.array(theta.components), budget)
    worst_vec = [0] * d if worst else []
    for i, q in worst:
        worst_vec[i] = q
    # budget < 1 leaves nothing to scan: vacuously irrational, at no distance
    holds = not worst or Fraction(worst_dist) >= a_frac / N
    return IrrationalityReport(
        a_frac, N, holds, tuple(worst_vec), worst_dist if worst else None, float(a_frac / N)
    )


@dataclass(frozen=True)
class EquidistErrorReport(JsonReport):
    n: int
    sample_count: int
    empirical: complex
    integral: complex
    error: float


def equidist_error(
    theta: Theta,
    F: LipschitzTestFunction,
    N: int,
    progression: Progression | None = None,
) -> EquidistErrorReport:
    """Empirical orbit average of F minus its exact integral.

    The average runs over the given progression (default all of
    {1,..,N}), which must stay inside {1,..,N}.  For a single nonconstant
    orbit frequency the geometric-series envelope
    |error| <= 2 / (N * dist(q . theta)) applies; for rational theta with
    a constant orbit the error can be as large as the coefficient mass.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    P = progression if progression is not None else Progression(1, 1, N)
    if P.last > N:
        raise ValueError(f"progression reaches {P.last} > N = {N}")
    _check_limit("sample points", P.length, MAX_SIGNAL_LENGTH)
    points = np.arange(P.start, P.last + 1, P.step, dtype=np.int64)
    values = F.evaluate(points, N, theta)
    empirical = complex(values.mean())
    integral = F.exact_integral()
    return EquidistErrorReport(
        n=N,
        sample_count=len(points),
        empirical=empirical,
        integral=integral,
        error=abs(empirical - integral),
    )
