"""Fourier-side numerics for interval-supported signals.

All quantities live on a cyclic group Z/N'Z with N' > 4N, large enough that
additive quadruples of interval positions never wrap; interval-normalised
quantities are therefore independent of the particular N' (tested, not just
asserted).  The fourth-moment identity

    ||f||_{U2}^4 = E_{x,h1,h2} f(x) conj(f(x+h1) f(x+h2)) f(x+h1+h2)
                 = sum_r |fhat(r)|^4,      fhat(r) = E_x f(x) e(-rx/N'),

turns the quadruple average into one FFT; `reference` holds the direct
quadruple average and triple sum that the FFT paths are checked against.
For a set A the quadruples are counted exactly instead: with nothing
wrapping, ||1_A||_{U2}^4 = E(A) / N'^3 for the additive energy
E(A) = sum_d |A ∩ (A+d)|^2, so `set_u2` builds no N'-point signal.
The set counts (`difference_counts`, `ordered_triples`) enumerate the
|A|^2 element pairs when |A|^2 <= N, and correlate the indicator by FFT
otherwise.  Interval quantities use N = ref_n and the convention that
array index i holds the value at n = i + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    CyclicSignal,
    IntegerSet,
    JsonReport,
    group_order,
    indicator_vector,
    interval_signal,
)


def spectrum(signal: CyclicSignal) -> np.ndarray:
    """Normalised Fourier coefficients fhat(r) = E_x f(x) e(-rx/N').

    Parseval holds exactly up to float error: sum_r |fhat(r)|^2 equals the
    mean square E_x |f(x)|^2.
    """
    return np.fft.fft(signal.values) / signal.n_prime


def u2_group_norm(signal: CyclicSignal) -> float:
    """U2 norm over the ambient cyclic group, via the fourth-moment identity."""
    coeffs = spectrum(signal)
    return float(np.sum(np.abs(coeffs) ** 4) ** 0.25)


def _interval_group_norm(ref_n: int, n_prime: int) -> float:
    """Group U2 norm of 1_{1..N} in Z/N'Z, in closed form.

    With N' > 4N nothing wraps, so the fourth power is N'^-3 times the
    number of additive quadruples a + b = c + d in {1,..,N}, which is
    sum_s r(s)^2 = (2N^3 + N)/3 for r(s) = #{(a, b) : a + b = s}.
    """
    return ((2 * ref_n**3 + ref_n) / (3 * n_prime**3)) ** 0.25


def u2_norm(signal: CyclicSignal) -> float:
    """Interval-normalised U2 norm: group norm of f over that of 1_{1..N}.

    Because N' > 4N prevents wraparound, both fourth powers are 1/N'^3
    times wrap-free quadruple counts, so the ratio does not depend on which
    valid N' the signal was embedded with.  The indicator of {1,..,N} itself
    gets norm 1 up to float rounding.
    """
    return u2_group_norm(signal) / _interval_group_norm(signal.ref_n, signal.n_prime)


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length numpy's FFT splits into radix-2/3/4/5 passes.

    Never longer than the least power of two >= n.  Over 2N+1 for
    N in [10^3, 2*10^5], it averages 1.01 (2N+1) against 1.46 for powers of two.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _self_convolution(arr: np.ndarray) -> np.ndarray:
    """conv[m] = sum of arr[i] arr[j] over i + j = m: the mass at n + n' = m + 2.

    The FFT length is _fft_length(2N+1), so linear sums never wrap.
    """
    length = _fft_length(2 * len(arr) + 1)
    F = np.fft.rfft(arr, length)
    return np.fft.irfft(F * F, length)


def t_count(f: np.ndarray | list[float]) -> float:
    """(1/N^2) sum_{n,n' <= N} f(n) f(n') f(n+n'), f zero outside {1,..,N}.

    For a set indicator this is N^-2 times the number of ordered pairs
    (n, n') of elements whose sum is again an element (ordered_triples
    counts them exactly), so it vanishes iff the set is ALLOW_EQUAL
    sum-free.
    """
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("f must be a nonempty 1-d array")
    n = len(arr)
    upto = n - 1  # m ranges over 0..N-2 so that m+2 <= N
    total = float(np.dot(_self_convolution(arr)[:upto], arr[1 : upto + 1]))
    return total / n**2


def _use_pairs(A: IntegerSet, N: int) -> bool:
    """Whether a set count enumerates element pairs instead of running an FFT.

    The FFT transforms at least 2N points; with |A|^2 <= N the pair arrays
    and the N-entry result are no larger, and the work no more.
    """
    return len(A) ** 2 <= N


def _triples_by_pairs(a: np.ndarray) -> int:
    e = np.flatnonzero(a)
    sums = np.add.outer(e, e).ravel() + 1  # index of x + y for x = e_i + 1, y = e_j + 1
    return int(np.count_nonzero(a[sums[sums < len(a)]]))


def _triples_by_fft(a: np.ndarray) -> int:
    # each rounded count and their sum stay below 2^53, so the float sum is exact
    return int(np.rint(_self_convolution(a)[: len(a) - 1][a[1:] > 0]).sum())


def ordered_triples(A: IntegerSet, N: int) -> int:
    """#{(x, y) in A^2 : x + y in A} for A inside {1,..,N}, exactly.

    When |A|^2 <= N each pair sum is looked up in the indicator; otherwise
    the pair-sum counts are the indicator's self-convolution rounded to
    integers, as difference_counts rounds its correlation.
    """
    a = indicator_vector(A, N)
    return (_triples_by_pairs if _use_pairs(A, N) else _triples_by_fft)(a)


def _differences_by_pairs(a: np.ndarray) -> np.ndarray:
    e = np.flatnonzero(a)
    diffs = np.subtract.outer(e, e).ravel()
    return np.bincount(diffs[diffs >= 0], minlength=len(a))


def _differences_by_fft(a: np.ndarray) -> np.ndarray:
    length = _fft_length(2 * len(a) + 1)
    F = np.fft.rfft(a, length)
    corr = np.fft.irfft(F * np.conj(F), length)
    return np.rint(corr[: len(a)]).astype(np.int64)


def difference_counts(A: IntegerSet, N: int) -> np.ndarray:
    """Exact counts |A ∩ (A+d)| for d = 0..N-1 (symmetric in d).

    From the |A|^2 pairwise differences when |A|^2 <= N, else from the
    indicator's autocorrelation by FFT, rounded to integers.
    """
    a = indicator_vector(A, N)
    return (_differences_by_pairs if _use_pairs(A, N) else _differences_by_fft)(a)


def additive_energy(A: IntegerSet, N: int) -> int:
    """E(A) = #{(a, b, c, d) in A^4 : a - b = c - d} = c(0)^2 + 2 sum_{d>=1} c(d)^2.

    Here c = difference_counts(A, N).  Each c(d)^2 is at most
    MAX_SIGNAL_LENGTH^2 = 2^46, so a block of 2^16 squares sums below 2^62
    in int64; the blocks add as Python ints, since E can pass 2^63.
    """
    squares = difference_counts(A, N) ** 2
    step = 1 << 16
    blocks = (int(squares[i : i + step].sum()) for i in range(1, N, step))
    return int(squares[0]) + 2 * sum(blocks)


@dataclass(frozen=True)
class SetU2(JsonReport):
    n: int
    n_prime: int
    u2_group_norm: float
    u2_norm: float
    additive_energy: int


def set_u2(A: IntegerSet, N: int, n_prime: int | None = None) -> SetU2:
    """U2 norms of 1_A in Z/N'Z from its exact additive energy.

    N' > 4N leaves every quadruple of {1,..,N} unwrapped, so the group
    norm is (E(A) / N'^3)^(1/4), the value u2_group_norm takes on
    embed_signal(A, N, n_prime) up to float rounding.  N' is checked
    before any count.  For A = {1,..,N}, E is the closed form of
    _interval_group_norm and u2_norm is exactly 1.0.
    """
    n_prime = group_order(N, n_prime)
    energy = additive_energy(A, N)
    group = (energy / n_prime**3) ** 0.25
    return SetU2(N, n_prime, group, group / _interval_group_norm(N, n_prime), energy)


def popular_differences(A: IntegerSet, N: int, t) -> list[int]:
    """{d : |A ∩ (A+d)| / N >= t} with exact integer thresholding.

    For t > 0 every returned d is an actual difference of two elements, so
    the result is contained in A - A; it is symmetric about 0 and shrinks as
    t grows.
    """
    tf = Fraction(t)
    if not 0 < tf <= 1:
        raise ValueError("threshold t must satisfy 0 < t <= 1")
    counts = difference_counts(A, N)
    # counts * den >= num * N  <=>  counts >= ceil(num * N / den), which is <= N
    need = -(-tf.numerator * N // tf.denominator)
    both = np.concatenate((counts[:0:-1], counts))  # index d + N - 1 holds d
    return (np.nonzero(both >= need)[0] - (N - 1)).tolist()


@dataclass(frozen=True)
class DecompositionPair:
    """Split of a signal into large-spectrum and small-spectrum parts.

    f_structured keeps exactly the frequencies with |fhat| >= threshold, so
    frequency_count * threshold^2 cannot exceed the mean square of f
    (Parseval), and the leftover part has group-U2 norm at most
    sqrt(threshold) * (mean square)^(1/4).
    """

    f_structured: CyclicSignal
    f_residual: CyclicSignal
    threshold: float
    frequency_count: int

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.f_structured.n_prime != self.f_residual.n_prime:
            raise ValueError("parts must share a group order")
        if self.f_structured.ref_n != self.f_residual.ref_n:
            raise ValueError("parts must share ref_n")
        if self.frequency_count < 0:
            raise ValueError("frequency_count must be >= 0")


def fourier_decompose(signal: CyclicSignal, tau: float) -> DecompositionPair:
    """Threshold the spectrum at tau and split the signal accordingly."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    coeffs = spectrum(signal)
    keep = np.abs(coeffs) >= tau
    structured = np.fft.ifft(np.where(keep, coeffs, 0.0) * signal.n_prime)
    residual = signal.values - structured
    return DecompositionPair(
        f_structured=CyclicSignal(structured, signal.ref_n),
        f_residual=CyclicSignal(residual, signal.ref_n),
        threshold=tau,
        frequency_count=int(keep.sum()),
    )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PollardCheck(JsonReport):
    p: int
    t: Fraction
    lhs: Fraction
    rhs: Fraction
    holds: bool


def pollard_check(s1, s2, p: int, t) -> PollardCheck:
    """Exact convolution-threshold inequality on a prime cyclic group.

    With c(x) = #{(a, b) in S1 x S2 : a + b = x mod p}, both sides of

        (1/p) sum_x min(c(x)/p, t)  >=  t * min(|S1|/p + |S2|/p - t, 1)

    are evaluated in exact rational arithmetic and compared.  The inequality
    is guaranteed whenever t*p is an integer (the representation-count form
    of the bound on Z/pZ); fractional t in range is evaluated faithfully and
    may legitimately fail, which is why the verdict is returned rather than
    asserted.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    S1 = _validate_subset(s1, p, "S1")
    S2 = _validate_subset(s2, p, "S2")
    tf = Fraction(t)
    bound = Fraction(min(len(S1), len(S2)), p)
    if not 0 <= tf <= bound:
        raise ValueError(f"t must lie in [0, {bound}]")
    counts = np.zeros(p, dtype=np.int64)
    if S1 and S2:
        sums = (np.add.outer(np.array(S1), np.array(S2)) % p).ravel()
        counts = np.bincount(sums, minlength=p).astype(np.int64)
    tau = tf * p
    lhs = Fraction(0)
    for c in counts:
        lhs += min(Fraction(int(c)), tau)
    lhs /= p * p
    rhs = tf * min(Fraction(len(S1) + len(S2), p) - tf, Fraction(1))
    return PollardCheck(p=p, t=tf, lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def _validate_subset(s, p: int, label: str) -> list[int]:
    elems = [int(x) for x in s]
    if len(set(elems)) != len(elems):
        raise ValueError(f"{label} has duplicate elements")
    for x in elems:
        if not 0 <= x < p:
            raise ValueError(f"{label} element {x} outside Z/{p}Z")
    return sorted(elems)


@dataclass(frozen=True)
class TStabilityGap:
    t_gap: float
    l1_gap: float
    u2_gap: float


def t_stability_gap(f, g) -> TStabilityGap:
    """Compare T(f) and T(g) for [-1, 1]-valued f, g on {1,..,N}.

    Returns |T(f) - T(g)|, the normalised l1 gap (1/N) sum |f - g|, and the
    interval U2 norm of f - g.  Replacing one argument of the triple sum at
    a time bounds the first by 7 times the second; the U2 gap is reported
    for observation alongside.
    """
    fa = np.asarray(f, dtype=np.float64)
    ga = np.asarray(g, dtype=np.float64)
    if fa.shape != ga.shape or fa.ndim != 1 or len(fa) == 0:
        raise ValueError("f and g must be nonempty 1-d arrays of equal length")
    slack = 1 + 1e-12
    if np.abs(fa).max() > slack or np.abs(ga).max() > slack:
        raise ValueError("t_stability_gap requires values in [-1, 1]")
    diff = fa - ga
    return TStabilityGap(
        t_gap=abs(t_count(fa) - t_count(ga)),
        l1_gap=float(np.abs(diff).mean()),
        u2_gap=u2_norm(interval_signal(diff)),
    )
