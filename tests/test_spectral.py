import math
from fractions import Fraction

import numpy as np
import pytest

from sumfree.core import IntegerSet, embed_signal, indicator_vector, interval_signal, rng_from_seed
from sumfree.reference import t_count_direct
from sumfree.spectral import (
    _differences_by_pairs,
    _fft_length,
    _triples_by_pairs,
    additive_energy,
    difference_counts,
    fourier_decompose,
    ordered_triples,
    pollard_check,
    popular_differences,
    set_u2,
    spectrum,
    t_count,
    t_stability_gap,
    u2_group_norm,
    u2_norm,
)

POW2 = IntegerSet((1, 2, 4, 8))


class TestTCount:
    def test_frozen_small_interval(self):
        # ordered pairs (n, n') in {1..4}^2 with n + n' <= 4: six of them
        assert t_count([1.0, 1.0, 1.0, 1.0]) == pytest.approx(6 / 16, abs=1e-15)

    def test_frozen_decade(self):
        f = indicator_vector(IntegerSet(tuple(range(1, 11))), 10)
        assert t_count(f) == pytest.approx(0.45, abs=1e-12)

    def test_sum_free_vanishes(self):
        f = indicator_vector(IntegerSet((1, 3, 5, 7, 9)), 10)
        assert abs(t_count(f)) <= 1e-12

    def test_matches_direct_triple_sum(self):
        rng = rng_from_seed(90, "tcount")
        for _ in range(25):
            n = int(rng.integers(2, 28))
            f = rng.uniform(-1, 1, n)
            assert t_count(f) == pytest.approx(t_count_direct(f), abs=1e-12)

    def test_ordered_triples_match_a_pair_count(self):
        # no set was found on which round(t_count * N^2) is wrong; the exact
        # count is pinned against a direct pair count on dense sets instead
        rng = rng_from_seed(91, "triples")
        # the last three take the pair path, |A|^2 <= N
        for N, density in ((2000, 0.9), (2000, 0.5), (2000, 0.02), (5000, 0.01), (1, 1.0)):
            A = IntegerSet(tuple(int(x) + 1 for x in np.nonzero(rng.random(N) < density)[0]))
            member = np.zeros(2 * N + 1, dtype=bool)
            member[list(A.elements)] = True
            a = np.array(A.elements, dtype=np.int64)
            assert ordered_triples(A, N) == int(member[np.add.outer(a, a)].sum())
        assert ordered_triples(IntegerSet(tuple(range(1, 1001))), 1000) == 1000 * 999 // 2
        assert ordered_triples(IntegerSet(()), 5) == 0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            t_count([])
        with pytest.raises(ValueError):
            t_count(np.ones((3, 3)))


class TestFFTLength:
    def test_least_five_smooth_at_most_the_power_of_two(self):
        smooth = sorted(
            2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(7) if 2**a * 3**b * 5**c <= 8192
        )
        for n in range(1, 5001):
            want = next(m for m in smooth if m >= n)
            assert _fft_length(n) == want <= 1 << (n - 1).bit_length()

    @pytest.mark.parametrize("N", [10**5, 3 * 10**5])
    def test_set_counts_at_non_power_of_two_lengths(self, N):
        length = _fft_length(2 * N + 1)
        assert length & (length - 1)  # not a power of two
        full = IntegerSet(tuple(range(1, N + 1)))
        assert ordered_triples(full, N) == N * (N - 1) // 2
        assert np.array_equal(difference_counts(full, N), np.arange(N, 0, -1))
        rng = rng_from_seed(92, "fft-length")
        for size in (600, 2000):  # |A|^2 > N: both counts take the FFT
            A = IntegerSet(tuple(sorted(int(x) + 1 for x in rng.choice(N, size=size, replace=False))))
            a = indicator_vector(A, N)
            assert ordered_triples(A, N) == _triples_by_pairs(a)
            assert np.array_equal(difference_counts(A, N), _differences_by_pairs(a))


class TestU2:
    def test_interval_indicator_norm_is_one(self):
        for n in (3, 17, 100):
            sig = interval_signal(np.ones(n))
            assert u2_norm(sig) == pytest.approx(1.0, abs=1e-13)

    def test_parseval(self):
        rng = rng_from_seed(90, "parseval")
        v = rng.uniform(-1, 1, 37)
        sig = interval_signal(v)
        coeffs = spectrum(sig)
        lhs = float(np.sum(np.abs(coeffs) ** 2))
        rhs = float(np.mean(np.abs(sig.values) ** 2))
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_embedding_independence(self):
        rng = rng_from_seed(90, "u2-embed")
        v = rng.uniform(-1, 1, 19)
        a = u2_norm(interval_signal(v))
        b = u2_norm(interval_signal(v, n_prime=512))
        assert a == pytest.approx(b, abs=1e-6)


def _sparse_and_dense_sets(seed):
    """Seeded sets on both sides of |A|^2 = N, with their N."""
    rng = rng_from_seed(seed, "pairs")
    for _ in range(30):
        N = int(rng.integers(1, 300))
        size = int(rng.integers(0, min(N, 2 * math.isqrt(N) + 2) + 1))
        yield IntegerSet(tuple(sorted(int(x) + 1 for x in rng.choice(N, size, replace=False)))), N


class TestEnergy:
    def test_full_interval_closed_form(self):
        for N in range(1, 60):
            assert additive_energy(IntegerSet(tuple(range(1, N + 1))), N) == (2 * N**3 + N) // 3

    def test_full_interval_past_int64(self):
        N = 2_500_000
        energy = additive_energy(IntegerSet(tuple(range(1, N + 1))), N)
        assert energy == (2 * N**3 + N) // 3 > 2**63

    def test_matches_quadruple_count(self):
        for A, N in _sparse_and_dense_sets(12):
            a = np.array(A.elements, dtype=np.int64)
            _, reps = np.unique(np.subtract.outer(a, a), return_counts=True)
            assert additive_energy(A, N) == int((reps**2).sum())

    def test_set_u2_matches_the_signal_norm(self):
        for A, N in _sparse_and_dense_sets(13):
            for n_prime in (None, 8 * N + 3):
                rep = set_u2(A, N, n_prime)
                sig = embed_signal(A, N, n_prime)
                assert rep.n_prime == sig.n_prime
                assert rep.u2_group_norm == pytest.approx(u2_group_norm(sig), rel=1e-12, abs=1e-300)
                assert rep.u2_norm == pytest.approx(u2_norm(sig), rel=1e-12, abs=1e-300)

    def test_set_u2_checks_group_order_first(self):
        outside = IntegerSet((1, 99))  # not in {1..10}: the N' message comes first
        with pytest.raises(ValueError, match="^group order 40 too small for N = 10; need > 40$"):
            set_u2(outside, 10, 40)


class TestDifferences:
    def test_frozen_counts(self):
        counts = difference_counts(POW2, 8)
        assert counts.tolist() == [4, 1, 1, 1, 1, 0, 1, 1]
        # |A|^2 = N: counted from pairs
        assert difference_counts(POW2, 16).tolist() == [4, 1, 1, 1, 1, 0, 1, 1] + [0] * 8

    def test_both_paths_match_the_definition(self):
        for A, N in _sparse_and_dense_sets(14):
            counts = difference_counts(A, N)
            assert counts.dtype == np.int64 and len(counts) == N
            assert counts.tolist() == [sum(a - d in A for a in A) for d in range(N)]

    def test_difference_set_size(self):
        counts = difference_counts(POW2, 8)
        size = sum(2 for c in counts[1:] if c > 0) + 1
        assert size == 13

    def test_popular_frozen(self):
        assert popular_differences(POW2, 8, Fraction(1, 4)) == [0]

    def test_popular_monotone_and_contained(self):
        counts = difference_counts(POW2, 8)
        loose = popular_differences(POW2, 8, Fraction(1, 8))
        tight = popular_differences(POW2, 8, Fraction(1, 2))
        assert set(tight) <= set(loose)
        for d in loose:
            assert counts[abs(d)] > 0

    def test_popular_matches_definition(self):
        rng = rng_from_seed(6, "popdiff")
        for _ in range(20):
            N = int(rng.integers(1, 60))
            size = int(rng.integers(1, N + 1))
            A = IntegerSet.from_iterable(int(x) + 1 for x in rng.choice(N, size, replace=False))
            k = int(rng.integers(1, N + 1))
            for t in (Fraction(1, 10**30), Fraction(7, 10**20 + 3), Fraction(k, N)):
                want = [
                    d
                    for d in range(-(N - 1), N)
                    if sum(a - d in A for a in A) * t.denominator >= t.numerator * N
                ]
                assert popular_differences(A, N, t) == want

    def test_threshold_validated(self):
        for bad in (0, Fraction(-1, 2), 2):
            with pytest.raises(ValueError):
                popular_differences(POW2, 8, bad)


class TestPollard:
    def test_real_t_counterexample(self):
        rep = pollard_check((0,), (0,), 5, Fraction(1, 10))
        assert rep.lhs == Fraction(1, 50)
        assert rep.rhs == Fraction(3, 100)
        assert not rep.holds

    def test_validation(self):
        with pytest.raises(ValueError):
            pollard_check((0,), (1,), 6, 0)  # composite modulus
        with pytest.raises(ValueError):
            pollard_check((0, 0), (1,), 5, 0)  # duplicates
        with pytest.raises(ValueError):
            pollard_check((5,), (1,), 5, 0)  # out of range
        with pytest.raises(ValueError):
            pollard_check((0,), (1, 2), 5, Fraction(2, 5))  # t beyond min size

    def test_json_shape(self):
        d = pollard_check((0, 1), (2,), 5, Fraction(1, 5)).to_json_dict()
        assert set(d) == {"p", "t", "lhs", "rhs", "holds"}
        assert d["t"] == "1/5"
        d = pollard_check((0, 1), (2,), 5, 0).to_json_dict()
        assert (d["t"], d["lhs"], d["rhs"]) == ("0", "0", "0")  # integral: no "/1"


class TestStability:
    def test_identical_inputs(self):
        f = np.linspace(-1, 1, 50)
        rep = t_stability_gap(f, f)
        assert rep.t_gap == 0.0 and rep.l1_gap == 0.0

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            t_stability_gap([2.0], [0.0])
        with pytest.raises(ValueError):
            t_stability_gap([0.0, 0.0], [0.0])


class TestDecomposition:
    def test_reconstruction_and_invariants(self):
        rng = rng_from_seed(90, "decompose")
        v = rng.uniform(-1, 1, 30)
        sig = interval_signal(v)
        tau = 0.05
        pair = fourier_decompose(sig, tau)
        total = pair.f_structured.values + pair.f_residual.values
        assert np.allclose(total, sig.values, atol=1e-12)
        resid = np.abs(spectrum(pair.f_residual))
        assert resid.max() < tau + 1e-12
        mean_sq = float(np.mean(np.abs(sig.values) ** 2))
        assert pair.frequency_count * tau**2 <= mean_sq + 1e-12
        assert u2_group_norm(pair.f_residual) <= tau**0.5 * mean_sq**0.25 + 1e-12

    def test_huge_tau_leaves_nothing(self):
        sig = interval_signal(np.ones(10))
        pair = fourier_decompose(sig, 10.0)
        assert pair.frequency_count == 0
        assert np.allclose(pair.f_structured.values, 0.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            fourier_decompose(interval_signal(np.ones(4)), 0.0)
