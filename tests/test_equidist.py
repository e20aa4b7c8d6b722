import math
from fractions import Fraction

import numpy as np
import pytest

from sumfree.equidist import (
    LipschitzTestFunction,
    Theta,
    TrigTerm,
    constant_function,
    cosine_orbit,
    equidist_error,
    golden_theta,
    irrationality_check,
    torus_distance,
)
from sumfree.structure import Progression
from sumfree.weights import GridWeight, riemann_error, uniform_weight


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

    def test_fractional_budget_vacuous(self):
        rep = irrationality_check(golden_theta(), Fraction(1, 2), 10)
        assert rep.holds
        assert rep.worst_vector == ()
        assert rep.worst_distance == math.inf

    def test_enumeration_caps(self):
        with pytest.raises(ValueError, match="reduce"):
            irrationality_check(golden_theta(), 2000, 10**6)
        with pytest.raises(ValueError, match="reduce"):
            irrationality_check(Theta((0.1,) * 9), 10, 100)

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


class TestEquidistError:
    def test_constant_exact_zero(self):
        rep = equidist_error(golden_theta(), constant_function(1.0), 500)
        assert rep.error == 0.0
        assert rep.empirical == 1.0

    def test_golden_cosine_frozen(self):
        rep = equidist_error(golden_theta(), cosine_orbit(), 1000)
        assert rep.sample_count == 1000
        assert rep.integral == 0.0
        assert rep.error == pytest.approx(5.255927713227615e-05, rel=1e-9)

    def test_geometric_envelope(self):
        th = golden_theta()
        envelope = 2.0 / (1000 * torus_distance(th.components[0]))
        rep = equidist_error(th, cosine_orbit(), 1000)
        assert rep.error <= envelope

    def test_zero_theta_gives_error_one(self):
        rep = equidist_error(Theta((0.0,)), cosine_orbit(), 200)
        assert rep.error == pytest.approx(1.0, abs=1e-12)

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
    def test_uniform_is_exact(self):
        assert riemann_error(uniform_weight(4), 32) == 0.0
        assert riemann_error(uniform_weight(4), 33) == 0.0

    def test_staircase_frozen_halving(self):
        w = GridWeight(1, 3, np.array([[0.5, 1.0, 1.5]]), 0, Fraction(1))
        errs = [riemann_error(w, n) for n in (100, 200, 400)]
        assert errs[0] == pytest.approx(1 / 200, abs=1e-15)
        assert errs[0] == 2 * errs[1]
        assert errs[1] == 2 * errs[2]

    def test_precondition(self):
        with pytest.raises(ValueError):
            riemann_error(uniform_weight(8), 4)
