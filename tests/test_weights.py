import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree import weights
from sumfree.core import GridOverflowError
from sumfree.reference import pushforward_direct
from sumfree.solver import ALLOW_EQUAL, heuristic_sum_free, is_sum_free
from sumfree.weights import (
    GridWeight,
    IterationParams,
    alpha_fixed_point,
    alpha_next,
    alpha_schedule,
    build_weight,
    default_step_count,
    density_experiment,
    load_weight,
    pushforward_snapshot,
    pushforward_step,
    quadrature_nodes,
    riemann_error,
    sample_probabilities,
    sample_set,
    save_weight,
    uniform_weight,
    weight_stats,
)


class TestAlphaRecurrence:
    def test_fixed_point_values(self):
        assert alpha_fixed_point(Fraction(1, 2)) == Fraction(19, 48)
        assert alpha_fixed_point(Fraction(1, 10)) == Fraction(83, 240)

    def test_fixed_point_is_fixed(self):
        fp = alpha_fixed_point(Fraction(1, 4))
        assert alpha_next(fp, Fraction(1, 4)) == fp

    def test_schedule_frozen(self):
        assert alpha_schedule(Fraction(1, 10), 1) == (Fraction(1), Fraction(803, 960))

    def test_contraction_exact(self):
        eps = Fraction(1, 4)
        fp = alpha_fixed_point(eps)
        trail = alpha_schedule(eps, 6)
        for prev, nxt in zip(trail, trail[1:]):
            assert nxt - fp == Fraction(3, 4) * (prev - fp)

    def test_default_step_counts(self):
        frozen = {Fraction(1, 2): 8, Fraction(1, 4): 11, Fraction(1, 8): 13}
        others = [Fraction(k, 97) for k in range(1, 97)] + [Fraction(1, 10**30)]
        for eps in [*frozen, *others]:
            steps = default_step_count(eps)
            assert steps == frozen.get(eps, steps)
            trail = alpha_schedule(eps, steps)
            assert trail[-1] < Fraction(1, 3) + eps / 4 <= trail[-2]  # one step fewer misses

    def test_eps_validated(self):
        for bad in (0, 1, Fraction(3, 2)):
            with pytest.raises(ValueError):
                default_step_count(bad)

    def test_default_steps_reach_target(self):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            final = alpha_schedule(eps, default_step_count(eps))[-1]
            assert final < Fraction(1, 3) + eps / 4


class TestQuadrature:
    def test_two_nodes(self):
        assert quadrature_nodes(2) == (Fraction(5, 8), Fraction(7, 8))

    def test_nodes_are_midpoints(self):
        nodes = quadrature_nodes(8)
        assert nodes[0] == Fraction(17, 32)
        assert nodes[-1] == Fraction(31, 32)
        assert all(Fraction(1, 2) < t < 1 for t in nodes)
        gaps = {b - a for a, b in zip(nodes, nodes[1:])}
        assert gaps == {Fraction(1, 16)}


class TestPushforward:
    def test_snapshot_frozen(self):
        w = pushforward_snapshot(
            uniform_weight(8), IterationParams(), Fraction(1, 2), Fraction(1, 2)
        )
        want = np.full((2, 8), 0.25)
        want[0, 0] = want[0, 1] = 6.25
        assert w.values.tolist() == want.tolist()
        assert w.generation == 1
        assert w.alpha_bound == Fraction(163, 192)

    def test_build_frozen(self):
        rep = build_weight(Fraction(1, 2), IterationParams(steps=2), 8)
        assert (rep.weight.modulus, rep.weight.cells) == (4, 8)
        assert rep.weight.generation == 2
        assert rep.weight.alpha_bound == Fraction(565, 768)
        assert rep.alpha_trail == (
            Fraction(1),
            Fraction(163, 192),
            Fraction(565, 768),
        )

    def test_uncached_node_maps_match_the_cached_build(self, monkeypatch):
        # int64 node maps must give the Python-int maps' values bit for bit
        params = IterationParams(interval_shrink=Fraction(2, 3), t_samples=5, steps=3)
        int64 = build_weight(Fraction(1, 2), params, 16).weight
        monkeypatch.setattr(weights, "_FLOAT_EXACT", 0)  # every map on Python ints
        python_ints = build_weight(Fraction(1, 2), params, 16).weight
        assert python_ints.values.tobytes() == int64.values.tobytes()

    def test_node_map_dtype_boundary(self, monkeypatch):
        # at t = 1, K*b = 2^53 - 8 maps in int64 and K*b = 2^53 on Python
        # ints; both match the Fraction loop
        K, b = 8, 1 << 50
        w = GridWeight(2, K, np.linspace(0.5, 1.5, 2 * K).reshape(2, K), 0, Fraction(1))
        arange, dtypes = np.arange, []

        def spy(*args, **kwargs):
            if "dtype" in kwargs:  # only _node_map passes one
                dtypes.append(kwargs["dtype"])
            return arange(*args, **kwargs)

        for shrink, dtype in ((Fraction(b - 2, b - 1), np.int64), (Fraction(1, b), object)):
            want = pushforward_direct(w, 2, shrink, Fraction(1))
            dtypes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "arange", spy)
                got = pushforward_snapshot(w, IterationParams(interval_shrink=shrink), Fraction(1, 2), 1)
            assert dtypes == [dtype]
            assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["repeated-rows", "distinct-rows"])
    def test_row_path_matches_fraction_loop(self, kind):
        # equal rows are pushed once and gathered; the grid must still be the Fraction loop's
        rng = np.random.default_rng(11)
        values = rng.random((6, 12)) + 0.1
        if kind == "repeated-rows":
            values = values[[0, 3, 0, 0, 3, 5]]
        w = GridWeight(6, 12, values / values.mean(), 0, Fraction(1))
        assert len(np.unique(w.values, axis=0)) == (3 if kind == "repeated-rows" else 6)
        for factor, shrink, t in ((2, Fraction(1, 2), Fraction(17, 32)), (3, Fraction(2, 3), Fraction(1))):
            params = IterationParams(modulus_factor=factor, interval_shrink=shrink)
            got = pushforward_snapshot(w, params, Fraction(1, 2), t)
            assert got.values.tobytes() == pushforward_direct(w, factor, shrink, t).tobytes()

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_k_steps_leave_at_most_k_plus_one_distinct_rows(self, factor):
        # a residue's row depends only on how often the factor divides it
        w = uniform_weight(16)
        for k in range(1, 6 if factor == 2 else 4):
            w = pushforward_step(w, IterationParams(modulus_factor=factor, t_samples=3), Fraction(1, 2))
            assert len(np.unique(w.values, axis=0)) <= k + 1

    def test_tracker_digits_refused_before_any_step(self, monkeypatch):
        # eps meets the digit bound, but its tracker's denominator grows by about 4 a step
        steps = []
        monkeypatch.setattr(weights, "pushforward_step", lambda *args: steps.append(args))
        eps, params = Fraction(1, 10**4299), IterationParams(steps=10)
        refused = "^rational digits = more than 4300 exceeds the limit 4300$"
        with pytest.raises(ValueError, match=refused):
            build_weight(eps, params, 4096)
        with pytest.raises(ValueError, match=refused):
            density_experiment(eps, params, 4096, 1 << 22, (1,))
        assert steps == []

    def test_zero_steps_is_uniform(self):
        rep = build_weight(Fraction(1, 2), IterationParams(steps=0), 4)
        assert rep.weight.modulus == 1
        assert rep.weight.values.tolist() == [[1.0] * 4]
        assert rep.alpha_trail == (Fraction(1),)

    def test_default_steps_overflow(self):
        # 22 default steps at eps = 1/100: 2^22 x 8 cells, past the cap
        with pytest.raises(GridOverflowError):
            build_weight(Fraction(1, 100), IterationParams(), 8)

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            build_weight(0, IterationParams(steps=1), 4)
        with pytest.raises(ValueError):
            build_weight(1, IterationParams(steps=1), 4)


class TestStats:
    def test_uniform(self):
        s = weight_stats(uniform_weight(5))
        assert (s.mean, s.minimum, s.maximum, s.lipschitz) == (1.0, 1.0, 1.0, 0.0)

    def test_snapshot(self):
        w = pushforward_snapshot(
            uniform_weight(8), IterationParams(), Fraction(1, 2), Fraction(1, 2)
        )
        s = weight_stats(w)
        assert s.maximum == 6.25
        assert s.minimum == 0.25
        assert s.lipschitz == 48.0


class TestRiemannError:
    def test_staircase_error_halves(self):
        # the staircase 1/2, 1, 3/2 on three cells: the error is 1/(2N), and
        # it halves exactly as N doubles
        w = GridWeight(1, 3, np.array([[0.5, 1.0, 1.5]]), 0, Fraction(1))
        errs = [riemann_error(w, N) for N in (100, 200, 400)]
        assert abs(errs[0] - 1 / 200) <= 1e-15
        assert errs[0] == 2 * errs[1] == 4 * errs[2]


class TestParamsValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            IterationParams(modulus_factor=1)
        with pytest.raises(ValueError):
            IterationParams(interval_shrink=0)
        with pytest.raises(ValueError):
            IterationParams(interval_shrink=Fraction(3, 2))
        with pytest.raises(ValueError):
            IterationParams(t_samples=1)
        with pytest.raises(ValueError):
            IterationParams(steps=-1)

    def test_weight_invariants_enforced(self):
        with pytest.raises(ValueError):
            GridWeight(1, 2, np.array([[1.0, -1.0]]), 0, Fraction(1))
        with pytest.raises(ValueError):
            GridWeight(1, 2, np.array([[2.0, 2.0]]), 0, Fraction(1))
        with pytest.raises(ValueError):
            GridWeight(1, 2, np.array([[1.0, 1.0]]), -1, Fraction(1))


class TestSampling:
    def test_uniform_probabilities_are_one(self):
        p = sample_probabilities(uniform_weight(4), 32)
        assert p.tolist() == [1.0] * 32

    def test_uniform_sample_is_full_interval(self):
        A = sample_set(uniform_weight(4), 40, seed=9)
        assert A.elements == tuple(range(1, 41))

    def test_probability_range_and_peak(self):
        rep = build_weight(Fraction(1, 2), IterationParams(steps=2), 8)
        p = sample_probabilities(rep.weight, 256)
        assert p.max() == 1.0
        assert p.min() > 0.0

    def test_reproducible(self):
        rep = build_weight(Fraction(1, 2), IterationParams(steps=1), 8)
        a = sample_set(rep.weight, 200, seed=4)
        b = sample_set(rep.weight, 200, seed=4)
        c = sample_set(rep.weight, 200, seed=5)
        assert a.elements == b.elements
        assert a.elements != c.elements

    def test_interval_too_short(self):
        rep = build_weight(Fraction(1, 2), IterationParams(steps=2), 8)
        with pytest.raises(ValueError):
            sample_probabilities(rep.weight, 16)  # needs N >= Q*K = 32

    def test_seed_validated(self):
        with pytest.raises(ValueError):
            sample_set(uniform_weight(2), 10, seed=-1)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 700))
    def test_cell_map_is_the_division_form(self, Q, K, extra):
        # tiled residues and repeated cells are n mod Q and ceil(n*K/N) - 1, K dividing N or not
        N = Q * K + extra
        residues, cells = weights._cell_map(GridWeight(Q, K, np.ones((Q, K)), 0, Fraction(1)), N)
        n = np.arange(1, N + 1, dtype=np.int64)
        assert residues.tolist() == (n % Q).tolist()
        assert cells.tolist() == (-(-n * K // N) - 1).tolist()


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        rep = build_weight(Fraction(1, 3), IterationParams(steps=2, t_samples=3), 8)
        path = tmp_path / "w.json"
        save_weight(rep.weight, path)
        back = load_weight(path)
        assert back.values.tolist() == rep.weight.values.tolist()
        assert back.alpha_bound == rep.weight.alpha_bound
        assert back.generation == rep.weight.generation

    def test_save_formats_each_distinct_row_once(self, tmp_path):
        # 64 rows of 4096 values, 7 of them distinct: formatting value by value
        # would take 262 144 float objects, several times this bound
        w = build_weight(Fraction(1, 2), IterationParams(steps=6), 4096).weight
        texts = {row.tobytes(): ",".join(map(repr, row.tolist())) for row in w.values}
        assert len(texts) == 7
        tracemalloc.start()
        try:
            save_weight(w, tmp_path / "w.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= w.values.nbytes + sum(map(len, texts.values()))

    def test_load_errors(self, tmp_path):
        import json

        cases = [
            "not json",
            json.dumps([1]),
            json.dumps({"Q": 1, "K": 1, "generation": 0, "values": [1.0]}),
            json.dumps({"Q": "1", "K": 1, "generation": 0, "alpha_bound": "1", "values": [1.0]}),
            json.dumps({"Q": 1, "K": 2, "generation": 0, "alpha_bound": "1", "values": [1.0]}),
            json.dumps({"Q": 1, "K": 1, "generation": 0, "alpha_bound": "1", "values": [-1.0]}),
            json.dumps({"Q": True, "K": 1, "generation": 0, "alpha_bound": "1", "values": [1.0]}),
            json.dumps({"Q": 1, "K": 1, "generation": 0, "alpha_bound": "1", "values": [{}]}),
            json.dumps({"Q": 1, "K": 1, "generation": "0", "alpha_bound": "1", "values": [1.0]}),
            json.dumps({"Q": -1, "K": -1, "generation": 0, "alpha_bound": "1", "values": [1.0]}),
        ]
        for text in cases:
            path = tmp_path / "bad.json"
            path.write_text(text)
            with pytest.raises(ValueError) as exc:
                load_weight(path)
            assert str(exc.value).startswith(f"{path}: "), text


class TestExperiment:
    def test_reproducible_and_verified(self):
        args = (Fraction(1, 2), IterationParams(steps=1), 4, 64, (1, 2))
        rep1 = density_experiment(*args)
        rep2 = density_experiment(*args)
        assert rep1.to_json_dict() == rep2.to_json_dict()
        assert rep1.weight_generation == 1
        for row in rep1.rows:
            assert row.floor_size == -(-(row.set_size + 1) // 3)
            assert row.heuristic_size >= row.floor_size
            assert row.heuristic_density == Fraction(row.heuristic_size, row.set_size)
            if row.exact_size is not None:
                assert row.heuristic_size <= row.exact_size <= row.set_size

    def test_heuristic_subsets_verify(self):
        rep = density_experiment(
            Fraction(1, 2), IterationParams(steps=1), 4, 64, (3,)
        )
        row = rep.rows[0]
        w = build_weight(Fraction(1, 2), IterationParams(steps=1), 4).weight
        A = sample_set(w, 64, seed=3)
        assert len(A) == row.set_size
        heur = heuristic_sum_free(A, ALLOW_EQUAL, seed=3)
        assert heur.optimum == row.heuristic_size
        assert is_sum_free(heur.witness, ALLOW_EQUAL)

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            density_experiment(Fraction(1, 2), IterationParams(steps=1), 4, 64, ())
