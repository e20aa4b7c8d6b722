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

from .core import MAX_SIGNAL_LENGTH, JsonReport
from .structure import Progression

_MAX_ENUM_VECTORS = 20_000_000
_MAX_EXHAUSTIVE_BOUND = 1000


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
        """F at the orbit points of the integers n (shape preserved, complex)."""
        if theta.dimension != self.orbit_dim and self.orbit_dim > 0:
            raise ValueError(
                f"theta has {theta.dimension} components, function expects {self.orbit_dim}"
            )
        arr = np.asarray(n, dtype=np.float64)
        res = np.asarray(n, dtype=np.int64) % self.modulus
        out = np.zeros(arr.shape, dtype=np.complex128)
        for t in self.terms:
            phase = t.residue_freq * res / self.modulus + t.interval_freq * arr / N
            for k, m in enumerate(t.orbit_freq):
                if m != 0:
                    phase = phase + m * theta.components[k] * arr
            out += t.coefficient * np.exp(2j * np.pi * phase)
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
    least a_bound / n.  worst_vector is the canonical (first nonzero
    positive, lexicographically first) minimizer; threshold is
    float(a_bound / n), the distance the verdict compares against.
    """

    a_bound: Fraction
    n: int
    holds: bool
    worst_vector: tuple[int, ...]
    worst_distance: float
    threshold: float


def _canonical_vectors(dim: int, budget: int):
    """All nonzero q with sum |q_i| <= budget and first nonzero > 0, lex order."""

    def rec(prefix: list[int], remaining: int, started: bool):
        pos = len(prefix)
        if pos == dim:
            if started:
                yield tuple(prefix)
            return
        lo = -remaining if started else 0
        for v in range(lo, remaining + 1):
            prefix.append(v)
            yield from rec(prefix, remaining - abs(v), started or v != 0)
            prefix.pop()

    yield from rec([], budget, False)


def irrationality_check(theta: Theta, a_bound, N: int) -> IrrationalityReport:
    """Scan all small integer vectors for a near-integer combination.

    Exhaustive over sum |q_i| <= a_bound (vectors identified with their
    negatives).  The verdict compares the worst torus distance against
    a_bound / N; since no distance exceeds 1/2, any a_bound / N above 1/2
    fails automatically.  The enumeration is refused when the vector count
    would be excessive; reduce a_bound in that case.
    """
    a_frac = Fraction(a_bound)
    if a_frac <= 0:
        raise ValueError("a_bound must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    budget = math.floor(a_frac)
    if budget > _MAX_EXHAUSTIVE_BOUND:
        raise ValueError(
            f"a_bound {a_bound} too large for exhaustive enumeration "
            f"(cap {_MAX_EXHAUSTIVE_BOUND}); reduce it"
        )
    d = theta.dimension
    if (2 * budget + 1) ** d > _MAX_ENUM_VECTORS:
        raise ValueError(
            "vector enumeration too large for exhaustive mode; reduce a_bound"
        )
    worst_vec: tuple[int, ...] | None = None
    worst_dist = math.inf
    for vec in _canonical_vectors(d, budget):
        combo = sum(q * t for q, t in zip(vec, theta.components))
        dist = torus_distance(combo)
        if dist < worst_dist:
            worst_dist = dist
            worst_vec = vec
    threshold = float(a_frac / N)
    if worst_vec is None:
        # budget < 1 leaves nothing to scan; vacuously irrational
        return IrrationalityReport(a_frac, N, True, (), math.inf, threshold)
    holds = worst_dist >= float(a_frac) / N
    return IrrationalityReport(a_frac, N, holds, worst_vec, worst_dist, threshold)


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
    if P.length > MAX_SIGNAL_LENGTH:
        raise ValueError(f"{P.length} sample points exceed the limit {MAX_SIGNAL_LENGTH}")
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
