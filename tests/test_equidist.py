import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sumfree.equidist import (
    MAX_TORUS_VECTORS,
    LipschitzTestFunction,
    Theta,
    TrigTerm,
    _vector_count,
    cosine_orbit,
    equidist_error,
    golden_theta,
    irrationality_check,
    torus_distance,
)
from sumfree.reference import irrationality_direct
from sumfree.structure import Progression
from sumfree.weights import riemann_error, uniform_weight


class TestTheta:
    def test_golden_value(self):
        th = golden_theta()
        assert th.dimension == 1
        assert th.components[0] == pytest.approx(0.6180339887498949, abs=1e-16)

    def test_validation(self):
        with pytest.raises(ValueError):
            Theta(())
        with pytest.raises(ValueError):
            Theta((1.0,))
        with pytest.raises(ValueError):
            Theta((-0.1,))

    def test_torus_distance(self):
        assert torus_distance(0.3) == pytest.approx(0.3, abs=1e-15)
        assert torus_distance(0.7) == pytest.approx(0.3, abs=1e-15)
        assert torus_distance(2.0) == 0.0
        assert torus_distance(-1.25) == 0.25


class TestIrrationality:
    def test_golden_frozen(self):
        rep = irrationality_check(golden_theta(), 10, 1000)
        assert rep.holds
        assert rep.worst_vector == (8,)
        assert rep.worst_distance == pytest.approx(0.05572809000084078, abs=1e-12)
        assert rep.threshold == pytest.approx(0.01)

    def test_golden_fails_when_threshold_tight(self):
        rep = irrationality_check(golden_theta(), 10, 50)
        assert not rep.holds
        assert rep.worst_vector == (8,)

    def test_holds_monotone_in_n(self):
        th = golden_theta()
        dist = irrationality_check(th, 5, 1000).worst_distance
        for n in (100, 400, 2000):
            rep = irrationality_check(th, 5, n)
            assert rep.holds == (dist >= 5 / n)

    def test_verdict_uses_the_printed_threshold(self):
        # float(4/3) / 11 rounds below the distance; the printed float(4/33),
        # like 4/33 itself, which the verdict compares with, lies above it
        rep = irrationality_check(Theta((0.1212121212121212,)), Fraction(4, 3), 11)
        assert rep.worst_vector == (1,) and rep.worst_distance == 0.1212121212121212
        assert rep.threshold == 0.12121212121212122 and not rep.holds

    def test_verdict_compares_exactly(self):
        # 3/10^330 prints as 0.0, which the distance 0.0 of 2 * 1/2 would
        # meet; the distance 1/4 of 1 * 1/4 meets 1/4 with equality
        rep = irrationality_check(Theta((0.5,)), 3, 10**330)
        assert (rep.worst_vector, rep.worst_distance, rep.threshold) == ((2,), 0.0, 0.0)
        assert not rep.holds
        assert irrationality_direct((0.5,), 3, 10**330) == ((2,), 0.0, False)
        assert irrationality_check(Theta((0.25,)), 1, 4).holds

    def test_distance_is_the_plain_float_sum(self):
        # 3*t0 + t1 + 2*t2 summed left to right, as 3.11's sum() does; the
        # compensated sum() of 3.12 on rounds it as math.fsum does, one ulp off
        rng = random.Random(3)
        t = tuple(rng.random() for _ in range(3))
        rep = irrationality_check(Theta(t), 6, 1000)
        assert rep.worst_vector == (3, 1, 2) and rep.worst_distance == 0.001966560332215428
        exact = math.fsum((3 * t[0], t[1], 2 * t[2]))
        assert abs(exact - round(exact)) == 0.00196656033221565

    def test_fractional_budget_vacuous(self):
        rep = irrationality_check(golden_theta(), Fraction(1, 2), 10)
        assert rep.holds
        assert rep.worst_vector == ()
        assert rep.worst_distance is None

    def test_enumeration_caps(self):
        limit = MAX_TORUS_VECTORS
        message = f"^torus vectors = more than {limit} exceeds the limit {limit}; reduce a_bound$"
        with pytest.raises(ValueError, match=message):
            irrationality_check(golden_theta(), MAX_TORUS_VECTORS + 1, 10**6)
        with pytest.raises(ValueError, match=message):
            irrationality_check(Theta((0.1,) * 9), 10, 100)
        with pytest.raises(ValueError, match=message):
            irrationality_check(Theta((0.1, 0.2, 0.3)), 136, 100)
        # in one dimension the count is a_bound itself
        assert irrationality_check(golden_theta(), 2000, 10**6).worst_vector != ()

    def test_long_theta_neither_recurses_nor_scans_per_place(self):
        # the enumeration goes one level per nonzero entry, not per place
        theta = Theta(tuple((k + 1) / 8192 for k in range(4000)))
        start = time.perf_counter()
        rep = irrationality_check(theta, 1, 10)
        assert time.perf_counter() - start < 1.0
        assert rep.worst_vector == (1,) + (0,) * 3999 and rep.worst_distance == 1 / 8192
        # the limit is the count at d = 3, a_bound = 135; d = 2 reaches a_bound = 1000
        assert _vector_count(3, 135) == MAX_TORUS_VECTORS
        assert _vector_count(2, 1000) == 1_001_000
        assert _vector_count(10**6, 0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            irrationality_check(golden_theta(), 0, 10)
        with pytest.raises(ValueError):
            irrationality_check(golden_theta(), 1, 0)

    def test_json_shape(self):
        d = irrationality_check(golden_theta(), 3, 100).to_json_dict()
        assert set(d) == {
            "a_bound",
            "n",
            "holds",
            "worst_vector",
            "worst_distance",
            "threshold",
        }


class TestTestFunctions:
    def test_lipschitz_bound_computed_from_terms(self):
        term = TrigTerm(1.0, 0, 3, (0,))
        F = LipschitzTestFunction(1, 1, (term,))
        assert F.lipschitz_bound == pytest.approx(6 * math.pi)

    def test_orbit_dim_checked(self):
        with pytest.raises(ValueError):
            LipschitzTestFunction(1, 2, (TrigTerm(1.0, 0, 0, (1,)),))

    def test_exact_integral_selects_constant_terms(self):
        terms = (
            TrigTerm(2.0, 3, 0, (0,)),  # residue freq 3 on Z/3Z is constant
            TrigTerm(1.0, 1, 0, (0,)),
            TrigTerm(0.5, 0, 2, (0,)),
            TrigTerm(0.25, 0, 0, (1,)),
        )
        F = LipschitzTestFunction(3, 1, terms)
        assert F.exact_integral() == 2.0

    def test_cosine_orbit_shape(self):
        F = cosine_orbit()
        assert len(F.terms) == 2
        assert F.lipschitz_bound == pytest.approx(2 * math.pi)
        with pytest.raises(ValueError):
            cosine_orbit(orbit_dim=1, coordinate=1)

    def test_evaluate_dimension_mismatch(self):
        F = cosine_orbit(orbit_dim=2, coordinate=0)
        with pytest.raises(ValueError):
            F.evaluate(np.arange(1, 5), 4, golden_theta())

    def test_exp_conjugation_symmetric_bitwise(self):
        # evaluate takes a conjugate pair's second wave as np.conj of the
        # first: that needs np.exp(conj z) == conj(np.exp z) in every bit,
        # and the sign of a zero real part not to matter
        rng = np.random.default_rng(24)
        im = np.concatenate([
            2 * np.pi * rng.uniform(-1, 1, 50_000),
            2 * np.pi * rng.uniform(-1e6, 1e6, 50_000),  # n * theta * m at the largest N
            rng.uniform(-1e15, 1e15, 10_000),
            [0.0, -0.0, np.pi, -np.pi, 1e300],
        ])
        for re in (0.0, -0.0, rng.uniform(-5, 5, len(im))):
            z = np.empty(len(im), dtype=np.complex128)
            z.real, z.imag = re, im
            assert np.exp(np.conj(z)).tobytes() == np.conj(np.exp(z)).tobytes()
        plus, minus = np.empty(len(im), dtype=np.complex128), np.empty(len(im), dtype=np.complex128)
        plus.real, minus.real = 0.0, -0.0
        plus.imag = minus.imag = im
        assert np.exp(plus).tobytes() == np.exp(minus).tobytes()


class TestEquidistError:
    def test_golden_cosine_frozen(self):
        rep = equidist_error(golden_theta(), cosine_orbit(), 1000)
        assert rep.sample_count == 1000
        assert rep.integral == 0.0
        assert rep.error == pytest.approx(5.255927713227615e-05, rel=1e-9)

    def test_zero_theta_cosine(self):
        # at theta = 0 the orbit never moves: cos(0) = 1 at every n, against
        # an integral of 0
        for N in (200, 1000):
            rep = equidist_error(Theta((0.0,)), cosine_orbit(), N)
            assert abs(rep.empirical - 1.0) <= 1e-12
            assert rep.integral == 0j and abs(rep.error - 1.0) <= 1e-12

    def test_progression_restriction(self):
        pr = Progression(2, 2, 500)
        rep = equidist_error(golden_theta(), cosine_orbit(), 1000, progression=pr)
        assert rep.sample_count == 500

    def test_progression_must_fit(self):
        with pytest.raises(ValueError):
            equidist_error(
                golden_theta(), cosine_orbit(), 100, progression=Progression(1, 1, 101)
            )

    def test_n_validated(self):
        with pytest.raises(ValueError):
            equidist_error(golden_theta(), cosine_orbit(), 0)

    def test_json_shape(self):
        d = equidist_error(golden_theta(), cosine_orbit(), 64).to_json_dict()
        assert d["sample_count"] == 64
        assert isinstance(d["empirical"], list) and len(d["empirical"]) == 2


class TestRiemann:
    def test_precondition(self):
        with pytest.raises(ValueError):
            riemann_error(uniform_weight(8), 4)
