import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sumfree import spectral
from sumfree.core import (
    _BLOCK,
    CyclicSignal,
    IntegerSet,
    _pair_ends,
    indicator_vector,
    interval_signal,
    rng_from_seed,
)
from sumfree.reference import difference_counts_direct, ordered_triples_direct
from sumfree.spectral import (
    _differences_by_fft,
    _differences_by_pairs,
    _fft_length,
    _triples_by_fft,
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

    def test_kernel_path_refuses_before_allocating(self):
        # a sparse set takes the kernel; N past the limit and an element
        # outside {1..N} are refused by the indicator's own messages
        with pytest.raises(ValueError, match="^N = 100000000000 exceeds the limit 8388608$"):
            ordered_triples(IntegerSet((1, 2, 3)), 10**11)
        with pytest.raises(ValueError, match=r"^set not contained in \{1,..,10\}$"):
            ordered_triples(IntegerSet((1, 2**70)), 10)
        with pytest.raises(ValueError, match="^N must be >= 1$"):
            ordered_triples(IntegerSet(()), 0)

    def test_kernel_rule_boundary(self, monkeypatch):
        # {1..240} has 240^2/4 pairs x <= y with x + y <= 240, exactly
        # _PAIRS_PER_FFT_POINT per point at N = 899: the kernel counts them,
        # and one pair more goes to the FFT
        A, N = IntegerSet(tuple(range(1, 241))), 899
        ends = _pair_ends(np.array(A.elements, dtype=np.int64))
        assert int(np.maximum(ends - np.arange(240), 0).sum()) == 14_400 == 8 * _fft_length(2 * N + 1)
        assert spectral._use_kernel(ends, N)
        ends[0] += 1
        assert not spectral._use_kernel(ends, N)
        monkeypatch.setattr(spectral, "_triples_by_fft", lambda a: pytest.fail("FFT at the boundary"))
        assert ordered_triples(A, N) == ordered_triples_direct(A)

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
        for size in (600, 2000):  # |A|^2 > N: difference_counts takes the FFT
            A = IntegerSet(tuple(sorted(int(x) + 1 for x in rng.choice(N, size=size, replace=False))))
            a = indicator_vector(A, N)
            assert _triples_by_fft(a) == ordered_triples(A, N) == ordered_triples_direct(A)
            pairs = _differences_by_pairs(np.array(A.elements, dtype=np.int64), N)
            assert np.array_equal(difference_counts(A, N), pairs)


class TestSpectrum:
    def test_frozen_short_signal(self):
        # f = 2 at 0 and i at 2 on Z/8Z: fhat(r) = (2 + i (-i)^r) / 8, so the
        # order of the frequencies and the sign of the phase both show
        f = CyclicSignal(np.array([2, 0, 1j, 0, 0, 0, 0, 0]), ref_n=1)
        want = np.array([2 + 1j, 3, 2 - 1j, 1] * 2) / 8
        assert np.abs(spectrum(f) - want).max() <= 1e-15


class TestU2:
    def test_interval_indicator_norm_is_one(self):
        for n in (3, 17, 100):
            sig = interval_signal(np.ones(n))
            assert u2_norm(sig) == pytest.approx(1.0, abs=1e-13)

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

    def test_pair_path_takes_its_output_and_one_difference_array(self):
        # 300^2 <= 10^6, so the pairs are formed at once: the int64 result of
        # N entries, the |A|^2 differences, and no N-entry float indicator
        N = 10**6
        rng = rng_from_seed(39, "pair-memory")
        A = IntegerSet.from_iterable(int(x) + 1 for x in rng.choice(N, 300, replace=False))
        tracemalloc.start()
        try:
            counts = difference_counts(A, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.dtype == np.int64 and counts[0] == 300 and int(counts[1:].sum()) == 300 * 299 // 2
        assert peak <= 8 * N + 16 * len(A) ** 2 + 2**16

    def test_pair_rule_boundary(self, monkeypatch):
        # |A|^2 = N takes the pairs, |A|^2 = N + 1 the FFT
        A = IntegerSet(tuple(range(1, 31)))
        assert spectral._use_pairs(A, 900) and not spectral._use_pairs(A, 899)
        for N, unused in ((900, "_differences_by_fft"), (899, "_differences_by_pairs")):
            with monkeypatch.context() as m:
                m.setattr(spectral, unused, lambda *a: pytest.fail(f"{unused} at N = {N}"))
                assert difference_counts(A, N).tolist() == difference_counts_direct(A, N)

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
            counts = difference_counts_direct(A, N)
            for t in (Fraction(1, 10**30), Fraction(7, 10**20 + 3), Fraction(k, N)):
                want = [d for d in range(-(N - 1), N) if counts[abs(d)] * t.denominator >= t.numerator * N]
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

    def test_elements_and_modulus_are_integers(self):
        # neither truncated (1.5 read as 1) nor coerced (True as 1); numpy ints are integers
        for s1, s2, p in (([1.5, 2.7], [3], 5), ([1], [True, 3], 5), ([1], [2], 5.0)):
            with pytest.raises(ValueError, match="^non-integer"):
                pollard_check(s1, s2, p, Fraction(1, 5))
        got = pollard_check(np.array([0, 1]), [np.int64(2)], np.int64(5), Fraction(1, 5))
        assert got == pollard_check((0, 1), (2,), 5, Fraction(1, 5))

    def test_modulus_is_bounded(self):
        # refused before the primality test and before a p-entry array; just
        # inside the limit the p counts are summed by value
        with pytest.raises(ValueError, match="^modulus = 10000000019 exceeds the limit 8388608$"):
            pollard_check((0,), (0,), 10**10 + 19, 0)
        p = 1_000_003
        rep = pollard_check((0,), (0,), p, Fraction(1, p))
        assert rep.lhs == rep.rhs == Fraction(1, p * p) and rep.holds

    def test_memory_is_bounded_by_the_modulus(self):
        # 3 000 x 3 000 sums mod 1 000 003, counted in blocks of at most
        # _BLOCK sums: the p int64 counts, one bincount result a block and
        # np.unique's sorted copy (145 MiB when every sum was formed at once),
        # with the value that forming every sum at once gave
        p = 1_000_003
        rng = rng_from_seed(5, "pollard-memory")
        s1, s2 = (rng.choice(p, 3_000, replace=False).tolist() for _ in range(2))
        tracemalloc.start()
        try:
            rep = pollard_check(s1, s2, p, Fraction(3, p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * p + 32 * _BLOCK + 2**16
        assert rep.lhs == Fraction(2_992_759, p * p) and rep.holds

    def test_a_row_longer_than_a_block_is_split(self):
        # |S2| = 32 769 > _BLOCK; t·p = 2, so the lhs is sum min(c, 2) / p^2
        p, s1, s2 = 65_537, (0, 5, 65_000), tuple(range(0, 65_537, 2))
        counts = np.bincount((np.add.outer(s1, s2) % p).ravel(), minlength=p)
        rep = pollard_check(s1, s2, p, Fraction(2, p))
        assert rep.lhs == Fraction(int(np.minimum(counts, 2).sum()), p * p)

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
    def test_huge_tau_leaves_nothing(self):
        sig = interval_signal(np.ones(10))
        pair = fourier_decompose(sig, 10.0)
        assert pair.frequency_count == 0
        assert np.allclose(pair.f_structured.values, 0.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            fourier_decompose(interval_signal(np.ones(4)), 0.0)
