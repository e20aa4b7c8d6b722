"""End-to-end acceptance gate.

Twelve checks, one per headline guarantee of the package: exact solver
results on the reference sets, the one-third selection floor, additivity
under composition, FFT-vs-direct agreement for both spectral statistics,
the exact rational convolution inequality, the grid doubling inequality,
scanner-vs-naive agreement, sumset covering, the weight pipeline
invariants, sampler pseudorandomness, and bit-reproducibility of the
sampling experiment.  Each test prints one PASS line with its runtime and
asserts the stated time budget, so slowdowns fail as loudly as wrong
answers.

Run with `pytest -v tests/test_acceptance.py` for one verdict line per
check.
"""

import time
from fractions import Fraction

import numpy as np

from sumfree.core import (
    IntegerSet,
    indicator_vector,
    interval_signal,
    rng_from_seed,
)
from sumfree.reference import (
    dense_progression_direct,
    exhaustive_max_sum_free,
    t_count_direct,
    u2_norm_direct,
)
from sumfree.solver import (
    ALLOW_EQUAL,
    catalog,
    compose,
    dilation_sweep,
    max_sum_free_subset,
)
from sumfree.spectral import (
    pollard_check,
    t_count,
    t_stability_gap,
    u2_norm,
)
from sumfree.structure import (
    AlphaGrid,
    Progression,
    alpha_tilde,
    find_dense_progression,
    lev_check,
)
from sumfree.weights import (
    IterationParams,
    alpha_schedule,
    build_weight,
    default_step_count,
    density_experiment,
    pushforward_step,
    riemann_error,
    sample_probabilities,
    sample_set,
    uniform_weight,
)

SEED = 2026


def _rng(name):
    return rng_from_seed(SEED, "acceptance", name)


def _random_set(rng, size, max_element):
    picks = rng.choice(np.arange(1, max_element + 1), size=size, replace=False)
    return IntegerSet(tuple(sorted(int(x) for x in picks)))


def _finish(name, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded {budget}s budget"
    print(f"PASS: {name} - {detail} ({elapsed:.2f}s)")


def test_01_reference_set_optima():
    t0 = time.perf_counter()
    first, second = catalog()
    rep_a = max_sum_free_subset(first.elements, ALLOW_EQUAL)
    rep_b = max_sum_free_subset(second.elements, ALLOW_EQUAL)
    assert rep_a.exact and rep_a.optimum == 3
    assert rep_b.exact and rep_b.optimum == 4
    _finish("reference set optima", "optima 3 and 4, both exact", t0, 1.0)


def test_02_selection_floor_500_sets():
    t0 = time.perf_counter()
    rng = _rng("floor")
    for trial in range(500):
        size = int(rng.integers(1, 41))
        max_element = 10**6 if trial >= 490 else 10**4
        size = min(size, 8) if trial >= 490 else size
        A = _random_set(rng, size, max_element)
        cert = dilation_sweep(A)
        floor = -(-(len(A) + 1) // 3)
        assert cert.size >= floor, (A.elements, cert.size, floor)
    _finish("selection floor", "500/500 sweeps at or above ceil((n+1)/3)", t0, 30.0)


def test_03_composition_additivity_100_pairs():
    t0 = time.perf_counter()
    rng = _rng("compose")
    for _ in range(100):
        size_a = int(rng.integers(1, 11))
        size_b = int(rng.integers(1, 21 - size_a))
        A = _random_set(rng, size_a, 50)
        B = _random_set(rng, size_b, 50)
        C = compose(A, B)
        opt_a, _ = exhaustive_max_sum_free(A)
        opt_b, _ = exhaustive_max_sum_free(B)
        opt_c, _ = exhaustive_max_sum_free(C)
        assert opt_c == opt_a + opt_b, (A.elements, B.elements)
        solver_rep = max_sum_free_subset(C)
        assert solver_rep.exact and solver_rep.optimum == opt_c
    _finish("composition additivity", "100/100 pairs additive", t0, 60.0)


def test_04_u2_fft_vs_direct_200_signals():
    t0 = time.perf_counter()
    rng = _rng("u2")
    worst_gap = 0.0
    worst_embed = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 64))
        sig = interval_signal(rng.uniform(-1, 1, n))
        assert sig.n_prime <= 256
        gap = abs(u2_norm(sig) - u2_norm_direct(sig))
        assert gap <= 1e-9
        wide = interval_signal(sig.values[1 : n + 1].real, n_prime=2 * sig.n_prime)
        embed_gap = abs(u2_norm(sig) - u2_norm(wide))
        assert embed_gap <= 1e-6
        worst_gap = max(worst_gap, gap)
        worst_embed = max(worst_embed, embed_gap)
    detail = f"200 signals, worst direct gap {worst_gap:.1e}, embed gap {worst_embed:.1e}"
    _finish("u2 fft vs direct", detail, t0, 60.0)


def test_05_t_count_correctness_and_stability():
    t0 = time.perf_counter()
    rng = _rng("tcount")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 513))
        f = rng.uniform(-1, 1, n)
        gap = abs(t_count(f) - t_count_direct(f))
        assert gap <= 1e-9
        worst = max(worst, gap)
    for _ in range(1000):
        n = int(rng.integers(2, 257))
        f = rng.uniform(-1, 1, n)
        g = np.clip(f + rng.uniform(-0.5, 0.5, n), -1, 1)
        rep = t_stability_gap(f, g)
        assert rep.t_gap <= 7 * rep.l1_gap + 1e-12
    detail = f"200 direct comparisons (worst {worst:.1e}), 1000 stability pairs"
    _finish("triple count", detail, t0, 60.0)


def test_06_convolution_threshold_inequality_10k_trials():
    t0 = time.perf_counter()
    rng = _rng("pollard")
    primes = (5, 7, 11, 13)
    for trial in range(10_000):
        p = primes[trial % 4]
        s1 = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
        s2 = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
        k = int(rng.integers(0, min(len(s1), len(s2)) + 1))
        rep = pollard_check([int(x) for x in s1], [int(x) for x in s2], p, Fraction(k, p))
        assert rep.holds, rep
    _finish("convolution threshold", "10000/10000 exact trials hold", t0, 60.0)


def test_07_grid_doubling_inequality_10k_grids():
    t0 = time.perf_counter()
    rng = _rng("alphatilde")
    etas = (Fraction(0), Fraction(1, 10), Fraction(3, 10))
    for trial in range(10_000):
        q = int(rng.integers(1, 7))
        M = int(rng.integers(1, 7))
        vals = [Fraction(int(x), 8) for x in rng.integers(0, 9, q * M)]
        grid = AlphaGrid.from_values(q, M, vals)
        assert alpha_tilde(grid, etas[trial % 3]).holds
    for k in range(1, 9):
        grid = AlphaGrid.from_values(1, 1, [Fraction(k, 8)])
        rep = alpha_tilde(grid, 0)
        assert rep.lhs_total == rep.rhs_bound == 4 * Fraction(k, 8)
    _finish("grid doubling", "10000 random grids hold, single-cell equality exact", t0, 60.0)


def test_08_dense_progression_scanner_vs_naive():
    t0 = time.perf_counter()
    rng = _rng("scanner")
    for _ in range(50):
        n = int(rng.integers(20, 201))
        size = int(rng.integers(1, n + 1))
        A = _random_set(rng, size, n)
        min_length = int(rng.integers(1, 9))
        rep = find_dense_progression(A, n, min_length, Fraction(1, 2))
        got = (rep.hits, rep.progression.length, rep.progression.start, rep.progression.step)
        assert got == dense_progression_direct(A, n, min_length)
    half = IntegerSet(tuple(range(1, 101)))
    rep = find_dense_progression(half, 200, 10, Fraction(1))
    assert rep.density == 1 and rep.meets_target
    assert rep.progression == Progression(start=1, step=1, length=100)
    _finish("dense progression scanner", "50/50 oracle matches, half-interval density 1", t0, 120.0)


def test_09_sumset_covering_1000_instances():
    t0 = time.perf_counter()
    rng = _rng("lev")
    for _ in range(1000):
        length = int(rng.integers(13, 25))
        P = Progression(
            start=int(rng.integers(1, 30)),
            step=int(rng.integers(1, 6)),
            length=length,
        )
        size = int(rng.integers(length // 2 + 1, length + 1))
        picks = rng.choice(P.elements(), size=size, replace=False)
        X = IntegerSet(tuple(sorted(int(x) for x in picks)))
        assert lev_check(P, X)
    _finish("sumset covering", "1000/1000 majority subsets cover", t0, 30.0)


def test_10_weight_pipeline_invariants():
    t0 = time.perf_counter()
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        params = IterationParams()
        w = uniform_weight(8)
        trail = alpha_schedule(eps, 3)
        for step in range(1, 4):
            w = pushforward_step(w, params, eps)
            assert abs(float(w.values.mean()) - 1.0) <= 1e-12
            assert w.values.min() >= 0.25
            assert w.alpha_bound == trail[step]
        steps = default_step_count(eps)
        final = alpha_schedule(eps, steps)[-1]
        assert final < Fraction(1, 3) + eps / 4, (eps, steps, final)
    _finish(
        "weight pipeline",
        "mean 1, floor 1/4, exact recurrence below 1/3 + eps/4 at default depth",
        t0,
        10.0,
    )


def test_11_sampler_spectral_flatness():
    t0 = time.perf_counter()
    N = 4096
    w = build_weight(Fraction(1, 4), IterationParams(steps=2), 8).weight
    p = sample_probabilities(w, N)
    bound = 5 * N**-0.25
    within = 0
    worst = 0.0
    for seed in range(100):
        A = sample_set(w, N, seed)
        gap = indicator_vector(A, N) - p
        norm = u2_norm(interval_signal(gap))
        worst = max(worst, norm)
        if norm <= bound:
            within += 1
    assert within >= 95, f"only {within}/100 under {bound:.4f}"
    detail = f"{within}/100 runs within {bound:.3f} (worst {worst:.4f})"
    _finish("sampler flatness", detail, t0, 120.0)


def test_12_density_experiment_reproducible():
    t0 = time.perf_counter()
    args = (Fraction(1, 2), IterationParams(steps=2), 8, 10_000, (1, 2, 3))
    first = density_experiment(*args)
    second = density_experiment(*args)
    assert first.to_json_dict() == second.to_json_dict()
    for row in first.rows:
        assert row.floor_size == -(-(row.set_size + 1) // 3)
        assert 3 * row.floor_size >= row.set_size + 1
        assert row.heuristic_size >= row.floor_size
        assert row.heuristic_density == Fraction(row.heuristic_size, row.set_size)
    lines = ", ".join(
        f"seed {r.seed}: {r.heuristic_size}/{r.set_size} "
        f"(density {float(r.heuristic_density):.3f}, floor {r.floor_size})"
        for r in first.rows
    )
    print(f"observational report: {lines}")
    _finish("density experiment", "bit-identical reruns; " + lines, t0, 120.0)


def test_13_riemann_consistency_smoke():
    # not one of the twelve headline checks; ties the weight grids to the
    # integer sampling the experiment relies on
    t0 = time.perf_counter()
    w = build_weight(Fraction(1, 2), IterationParams(steps=2), 8).weight
    cells = w.modulus * w.cells
    assert riemann_error(w, 64 * cells) == 0.0  # every cell hit equally often
    ragged = 64 * cells + 2
    # each cell count deviates by at most one from the equidistributed count
    err = riemann_error(w, ragged)
    assert err <= cells * float(w.values.max()) / ragged
    _finish("riemann consistency", f"exact zero on aligned N, gap {err:.2e} ragged", t0, 10.0)
