from fractions import Fraction

import numpy as np
import pytest

from sumfree.core import IntegerSet, indicator_vector, interval_signal, rng_from_seed
from sumfree.reference import t_count_direct
from sumfree.spectral import (
    difference_counts,
    fourier_decompose,
    ordered_triples,
    pollard_check,
    popular_differences,
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
        for N, density in ((2000, 0.9), (2000, 0.5), (1, 1.0)):
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


class TestDifferences:
    def test_frozen_counts(self):
        counts = difference_counts(POW2, 8)
        assert counts.tolist() == [4, 1, 1, 1, 1, 0, 1, 1]

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
