import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sumfree.core import IntegerSet, rng_from_seed
from sumfree.reference import alpha_tilde_direct, dense_progression_direct
from sumfree.structure import (
    AlphaGrid,
    GridSet,
    Progression,
    alpha_tilde,
    avoid_zero_diagnostic,
    check_doubling_hypothesis,
    difference_set,
    find_dense_progression,
    lev_check,
    load_alpha_grid,
    load_grid_set,
)


class TestProgression:
    def test_elements_and_last(self):
        P = Progression(start=3, step=4, length=5)
        assert P.last == 19
        assert P.elements() == (3, 7, 11, 15, 19)
        assert len(P) == 5

    def test_validation(self):
        for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                Progression(*bad)


class TestDifferenceSet:
    def test_pow2_frozen(self):
        _, size = difference_set(IntegerSet((1, 2, 4, 8)))
        assert size == 13

    def test_lower_bound_and_ap_equality(self):
        diffs, size = difference_set(IntegerSet((2, 5, 8, 11)))
        assert size == 2 * 4 - 1
        assert 0 in diffs


class TestDenseProgression:
    def test_half_interval_frozen(self):
        rep = find_dense_progression(
            IntegerSet(tuple(range(1, 51))), 100, 10, Fraction(1, 2)
        )
        assert rep.progression == Progression(start=1, step=1, length=50)
        assert rep.density == 1
        assert rep.hits == 50
        assert rep.meets_target

    @pytest.mark.parametrize("n", [1, 2, 9, 24])
    @pytest.mark.parametrize(
        "kind", ["empty", "full", "even", "multiple_of_3", "odd_interval_and_evens"]
    )
    def test_tie_heavy_sets_match_the_oracle(self, kind, n):
        # every window of these sets ties with many others on density
        members = {
            "empty": (),
            "full": range(1, n + 1),
            "even": range(2, n + 1, 2),
            "multiple_of_3": range(3, n + 1, 3),
            "odd_interval_and_evens": [x for x in range(1, n + 1) if x % 2 == 0 or x <= n // 2],
        }[kind]
        A = IntegerSet(tuple(members))
        for min_length in sorted({1, min(2, n), max(1, n // 3), n}):
            rep = find_dense_progression(A, n, min_length, Fraction(1, 2))
            got = (rep.hits, rep.progression.length, rep.progression.start, rep.progression.step)
            assert got == dense_progression_direct(A, n, min_length), (kind, n, min_length)

    @pytest.mark.parametrize(
        "n, min_length, members, want",
        [
            # step 3 from 1 and step 1 from 4 both give 4 hits in 4 terms:
            # the earlier start wins although its step is larger
            (14, 2, (1, 4, 5, 6, 7, 9, 10, 12), (4, 4, 1, 3)),
            # 4 hits in 5 terms at step 3 from 1, step 1 from 4, step 2 from 5
            (13, 4, (1, 4, 5, 7, 8, 11, 13), (4, 5, 1, 3)),
            # steps 1, 2 and 3 from 1 all give 3 hits in 4 terms: step 1 wins
            (12, 4, (1, 2, 3, 7, 10, 12), (3, 4, 1, 1)),
            # steps 2, 3 and 5 from 2, and step 1 from 4: the start, then the step
            (7, 2, (2, 4, 5, 7), (2, 2, 2, 2)),
        ],
    )
    def test_steps_tying_on_density_and_length(self, n, min_length, members, want):
        A = IntegerSet(members)
        rep = find_dense_progression(A, n, min_length, Fraction(1, 2))
        got = (rep.hits, rep.progression.length, rep.progression.start, rep.progression.step)
        assert got == want == dense_progression_direct(A, n, min_length)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_dense_progression(IntegerSet((5,)), 0, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            find_dense_progression(IntegerSet((5,)), 4, 1, Fraction(1, 2))


class TestDoubling:
    def test_half_interval_met(self):
        A = IntegerSet(tuple(range(1, 51)))
        rep = check_doubling_hypothesis(A, 100, Fraction(1, 2), 0.3)
        assert rep.popular_count == 41
        assert rep.doubling_allowance == 150
        assert rep.hypothesis_met
        assert rep.min_length == 10
        assert rep.progression.progression == Progression(1, 1, 50)
        assert rep.progression.meets_target

    def test_sparse_not_met(self):
        rep = check_doubling_hypothesis(IntegerSet((1, 50)), 100, 1, 0.01)
        assert not rep.hypothesis_met
        assert rep.doubling_allowance == -92
        assert rep.progression is None

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            check_doubling_hypothesis(IntegerSet((1,)), 10, 0, 0.5)

    def test_json_round_trip_fields(self):
        rep = check_doubling_hypothesis(
            IntegerSet(tuple(range(1, 51))), 100, Fraction(1, 2), 0.3
        )
        d = rep.to_json_dict()
        assert d["eps"] == "1/2"
        assert d["popular_count"] == 41
        assert d["progression"]["density"] == "1"


class TestAlphaTilde:
    def test_single_cell_equality(self):
        grid = AlphaGrid.from_values(1, 1, [Fraction(3, 5)])
        rep = alpha_tilde(grid, 0)
        assert rep.lhs_total == rep.rhs_bound == Fraction(12, 5)
        assert rep.holds

    def test_frozen_two_by_two(self):
        grid = AlphaGrid.from_values(2, 2, ["1/2", "1/4", "0", "3/4"])
        rep = alpha_tilde(grid, Fraction(1, 10))
        assert rep.lhs_total == Fraction(19, 2)
        assert rep.rhs_bound == Fraction(22, 5)
        assert rep.holds

    def test_matches_fraction_loop(self):
        rng = rng_from_seed(6, "alphatilde-direct")
        primes = (3, 5, 7, 11, 13, 17, 19, 23)
        past_int64 = 0
        for trial in range(200):
            q = int(rng.integers(1, 7))
            M = int(rng.integers(1, 7))
            values = []
            for kind in rng.integers(0, 3, q * M):
                if kind == 0:
                    values.append(Fraction(int(rng.integers(0, 9)), 8))
                elif kind == 1:
                    p = int(rng.choice(primes))
                    values.append(Fraction(int(rng.integers(0, p + 1)), p))
                else:
                    values.append(float(rng.random()))
            grid = AlphaGrid.from_values(q, M, values)
            den = math.lcm(*(v.denominator for row in grid.values for v in row))
            past_int64 += den > 2**63
            eta = (Fraction(0), Fraction(1, 10), Fraction(3, 10))[trial % 3]
            assert alpha_tilde(grid, eta).lhs_total == alpha_tilde_direct(grid, eta)
        assert past_int64 > 0

    def test_eta_validated(self):
        grid = AlphaGrid.from_values(1, 1, [1])
        with pytest.raises(ValueError):
            alpha_tilde(grid, -1)

    def test_values_validated(self):
        with pytest.raises(ValueError):
            AlphaGrid.from_values(1, 2, [0, 2])
        with pytest.raises(ValueError):
            AlphaGrid.from_values(2, 2, [0, 1])


class TestAvoidZero:
    FULL = GridSet(2, 2, np.ones((2, 2), dtype=bool))

    def test_empty_corner_found(self):
        g = GridSet(2, 2, np.array([[False, True], [True, True]]))
        rep = avoid_zero_diagnostic(g, 2, Fraction(1, 2))
        assert rep.mass == 0
        assert rep.subgroup_stride == 2
        assert rep.subgroup == (0,)
        assert rep.interval_end == Fraction(1, 2)

    def test_tie_prefers_smallest_subgroup(self):
        g = GridSet(4, 2, np.zeros((4, 2), dtype=bool))
        rep = avoid_zero_diagnostic(g, 4, Fraction(1, 4))
        assert rep.subgroup_stride == 4
        assert rep.subgroup == (0,)
        assert rep.interval_end == Fraction(1, 2)

    def test_index_bound_past_the_modulus_is_the_modulus(self):
        # no stride above q divides q: a larger bound gives the same report, and no warning
        sparse = GridSet(6, 4, np.arange(24).reshape(6, 4) % 5 == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in (self.FULL, sparse):
                for bound in (g.modulus + 1, 99, 10**12):
                    got = avoid_zero_diagnostic(g, bound, Fraction(1, 2))
                    assert got == avoid_zero_diagnostic(g, g.modulus, Fraction(1, 2))
        assert avoid_zero_diagnostic(self.FULL, 10, Fraction(1, 2)).mass == Fraction(1, 4)

    def test_validation(self):
        g = self.FULL
        with pytest.raises(ValueError):
            avoid_zero_diagnostic(g, 0, Fraction(1, 2))
        with pytest.raises(ValueError):
            avoid_zero_diagnostic(g, 2, 0)
        with pytest.raises(ValueError, match="min_interval"):
            avoid_zero_diagnostic(g, 3, 0)  # an index bound past the modulus is no excuse


class TestLev:
    def test_majority_subset_covers(self):
        P = Progression(start=1, step=1, length=14)
        X = IntegerSet(tuple(range(1, 12)))
        assert lev_check(P, X)

    def test_preconditions(self):
        P = Progression(1, 1, 12)
        with pytest.raises(ValueError, match="requires"):
            lev_check(P, IntegerSet(tuple(range(1, 10))))  # P too short
        P = Progression(1, 1, 14)
        with pytest.raises(ValueError, match="contained"):
            lev_check(P, IntegerSet((*range(1, 11), 15)))  # majority, one element outside
        with pytest.raises(ValueError, match="more than half"):
            lev_check(P, IntegerSet((1, 2, 3)))  # under half
        with pytest.raises(ValueError, match="contained"):
            lev_check(Progression(3, 2, 14), IntegerSet(tuple(range(3, 20))))  # off the step


class TestGridLoaders:
    def test_alpha_grid_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"q": 2, "M": 2, "values": ["1/2", "1/4", "0", "3/4"]}))
        grid = load_alpha_grid(path)
        assert grid.values[1][1] == Fraction(3, 4)

    def test_grid_entry_exponent_is_refused_before_fraction(self, tmp_path):
        # Fraction('1e-3000000') would form 10^3000000 first
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"q": 1, "M": 1, "values": ["1e-3000000"]}))
        with pytest.raises(ValueError) as exc:
            load_alpha_grid(path)
        assert str(exc.value) == f"{path}: decimal exponent of '1e-3000000' is past 4300"

    def test_grid_set_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"q": 2, "K": 2, "values": [0, 1, 1, 1]}))
        g = load_grid_set(path)
        assert g.measure() == Fraction(3, 4)

    def test_error_paths(self, tmp_path):
        cases = [
            ("not json", load_grid_set),
            (json.dumps([1, 2]), load_grid_set),
            (json.dumps({"q": 2, "values": []}), load_grid_set),
            (json.dumps({"q": "2", "K": 2, "values": []}), load_grid_set),
            (json.dumps({"q": 1, "K": 1, "values": 5}), load_grid_set),
            (json.dumps({"q": 1, "K": 1, "values": [2]}), load_grid_set),
            (json.dumps({"q": 1, "K": 2, "values": [1]}), load_grid_set),
            (json.dumps({"q": 1, "M": 1, "values": [2]}), load_alpha_grid),
            (json.dumps({"q": True, "K": 2, "values": [0, 1]}), load_grid_set),
            (json.dumps({"q": 1, "M": True, "values": ["1/2"]}), load_alpha_grid),
            (json.dumps({"q": 1, "M": 1, "values": [None]}), load_alpha_grid),
            (json.dumps({"q": 1, "M": 1, "values": [{}]}), load_alpha_grid),
            (json.dumps({"q": 1, "M": 1, "values": [[1]]}), load_alpha_grid),
            (json.dumps({"q": -1, "K": -2, "values": [1, 1]}), load_grid_set),
        ]
        for text, loader in cases:
            path = tmp_path / "bad.json"
            path.write_text(text)
            with pytest.raises(ValueError) as exc:
                loader(path)
            assert str(exc.value).startswith(f"{path}: "), text
