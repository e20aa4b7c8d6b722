from fractions import Fraction

import pytest

from sumfree.core import IntegerSet, rng_from_seed
from sumfree.reference import exhaustive_max_sum_free
from sumfree.solver import (
    ALLOW_EQUAL,
    DISTINCT_ONLY,
    catalog,
    compose,
    compose_iterate,
    dilation_select,
    dilation_sweep,
    heuristic_sum_free,
    is_sum_free,
    max_sum_free_subset,
)

DECADE = IntegerSet(tuple(range(1, 11)))


def random_set(rng, max_size, max_element):
    size = int(rng.integers(1, max_size + 1))
    size = min(size, max_element)
    picks = rng.choice(range(1, max_element + 1), size=size, replace=False)
    return IntegerSet(tuple(sorted(int(x) for x in picks)))


class TestIsSumFree:
    def test_allow_equal_catches_doubling(self):
        assert not is_sum_free(IntegerSet((3, 6)), ALLOW_EQUAL)
        assert is_sum_free(IntegerSet((3, 6)), DISTINCT_ONLY)

    def test_distinct_pair(self):
        assert not is_sum_free(IntegerSet((2, 3, 5)), DISTINCT_ONLY)

    def test_odd_numbers(self):
        assert is_sum_free(IntegerSet((1, 3, 5, 7, 9)), ALLOW_EQUAL)


class TestExactSolver:
    def test_decade_frozen_witness(self):
        rep = max_sum_free_subset(DECADE, ALLOW_EQUAL)
        assert rep.optimum == 5
        assert rep.witness.elements == (1, 3, 5, 7, 9)
        assert rep.exact

    def test_matches_exhaustive_oracle(self):
        rng = rng_from_seed(2024, "solver-oracle")
        for max_size, max_element in [(13, 45)] * 40 + [(20, 70)] * 30:
            A = random_set(rng, max_size, max_element)
            for conv in (ALLOW_EQUAL, DISTINCT_ONLY):
                rep = max_sum_free_subset(A, conv)
                opt, witness = exhaustive_max_sum_free(A, conv)
                assert rep.exact and rep.optimum == opt
                assert rep.witness.elements == witness

    def test_empty_set(self):
        rep = max_sum_free_subset(IntegerSet(()))
        assert rep.optimum == 0 and rep.witness.elements == ()

    @pytest.mark.parametrize("conv", [ALLOW_EQUAL, DISTINCT_ONLY], ids=lambda c: c.value)
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("name", ["klarner", "malouf"])
    def test_catalog_compositions_exact_and_cheap(self, name, k, conv):
        part = next(e.elements for e in catalog() if e.name == name)
        rep = max_sum_free_subset(compose_iterate(part, k), conv)
        assert rep.exact
        assert rep.optimum == k * exhaustive_max_sum_free(part, conv)[0]
        assert rep.nodes_explored <= 10_000

    def test_budget_soft_fail(self):
        A = IntegerSet(tuple(range(1, 41)))
        rep = max_sum_free_subset(A, ALLOW_EQUAL, budget=5)
        assert not rep.exact
        assert rep.nodes_explored == 6
        assert is_sum_free(rep.witness, ALLOW_EQUAL)
        assert rep.optimum == len(rep.witness)

    def test_budget_stops_short_with_sum_free_witness(self):
        rng = rng_from_seed(2024, "solver-budget")
        A = IntegerSet(tuple(sorted(int(x) for x in rng.choice(160, size=40, replace=False) + 1)))
        full = max_sum_free_subset(A, DISTINCT_ONLY)
        for budget in (1, 50, full.nodes_explored // 2, full.nodes_explored - 1):
            rep = max_sum_free_subset(A, DISTINCT_ONLY, budget=budget)
            assert not rep.exact
            assert rep.nodes_explored == budget + 1
            assert set(rep.witness.elements) <= set(A.elements)
            assert is_sum_free(rep.witness, DISTINCT_ONLY)
            assert 0 < rep.optimum <= full.optimum
        rep = max_sum_free_subset(A, DISTINCT_ONLY, budget=full.nodes_explored)
        assert rep.exact and rep.witness == full.witness

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            max_sum_free_subset(IntegerSet(tuple(range(1, 70))))

    def test_rejects_negative_elements(self):
        with pytest.raises(ValueError):
            max_sum_free_subset(IntegerSet((-3, 2)))

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            max_sum_free_subset(DECADE, budget=-3)
        rep = max_sum_free_subset(DECADE, budget=0)
        assert not rep.exact and rep.nodes_explored == 1


class TestDilation:
    def test_select_is_sum_free(self):
        rng = rng_from_seed(2024, "dilation-select")
        for _ in range(30):
            A = random_set(rng, 12, 300)
            theta = Fraction(int(rng.integers(1, 97)), 97)
            sel = dilation_select(A, theta)
            assert is_sum_free(sel, ALLOW_EQUAL)

    def test_sweep_certificate_reselects(self):
        cert = dilation_sweep(DECADE)
        again = dilation_select(DECADE, cert.theta)
        assert again.elements == cert.selected.elements

    def test_sweep_empty_rejected(self):
        with pytest.raises(ValueError):
            dilation_sweep(IntegerSet(()))

    def test_sweep_handles_large_elements(self):
        A = IntegerSet((10**6, 2 * 10**6 + 1, 7 * 10**6 + 3))
        cert = dilation_sweep(A)
        assert cert.size >= 2  # floor for 3 elements


class TestHeuristic:
    def test_reaches_floor_and_verifies(self):
        rng = rng_from_seed(2024, "heuristic")
        for _ in range(15):
            A = random_set(rng, 20, 400)
            rep = heuristic_sum_free(A, seed=int(rng.integers(0, 2**32)))
            assert rep.optimum >= (len(A) + 1 + 2) // 3
            assert is_sum_free(rep.witness, ALLOW_EQUAL)
            assert not rep.exact

    def test_deterministic_per_seed(self):
        A = IntegerSet(tuple(range(3, 60, 2)))
        a = heuristic_sum_free(A, seed=11)
        b = heuristic_sum_free(A, seed=11)
        assert a.witness.elements == b.witness.elements

    def test_sampled_dilations_near_int64_limit(self):
        A = IntegerSet(tuple(10**15 * x for x in (17, 28, 31, 38, 48)))
        rep = heuristic_sum_free(A, seed=4)
        assert is_sum_free(rep.witness, ALLOW_EQUAL)
        assert set(rep.witness.elements) <= set(A.elements)
        assert rep.optimum >= -(-(len(A) + 1) // 3)


class TestCompose:
    def test_two_copies_frozen(self):
        K = catalog()[0].elements
        C = compose(K, K)
        assert len(C) == 14
        assert exhaustive_max_sum_free(C, ALLOW_EQUAL)[0] == 6

    def test_three_copies_frozen(self):
        K = catalog()[0].elements
        C = compose_iterate(K, 3)
        assert len(C) == 21
        opt = max_sum_free_subset(C, ALLOW_EQUAL)
        assert opt.exact and opt.optimum == 9

    def test_singletons(self):
        C = compose(IntegerSet((1,)), IntegerSet((1,)))
        assert C.elements == (1, 3)

    def test_multiplier_must_separate(self):
        A = IntegerSet((1, 2))
        with pytest.raises(ValueError):
            compose(A, A, M=4)  # needs M > 2 max(A)

    def test_overflow_detected(self):
        A = IntegerSet((2**61,))
        with pytest.raises(OverflowError):
            compose(A, IntegerSet((4,)))


class TestCatalog:
    def test_klarner_entry(self):
        entry = catalog()[0]
        assert entry.elements.elements == (2, 3, 4, 5, 6, 8, 10)
        assert entry.density_bound == Fraction(3, 7)
        assert max_sum_free_subset(entry.elements).optimum == 3

    def test_malouf_entry(self):
        entry = catalog()[1]
        assert entry.elements.elements == (1, 2, 3, 4, 5, 6, 8, 9, 10, 18)
        assert entry.density_bound == Fraction(2, 5)
        assert max_sum_free_subset(entry.elements).optimum == 4
