import json
from fractions import Fraction

import pytest

from sumfree import checks, cli, reference, solver, spectral, structure, weights
from sumfree import equidist as eq
from sumfree.checks import SUITE_NAMES, SUITES, run_suite
from sumfree.cli import main
from sumfree.core import IntegerSet, default_n_prime, embed_signal, indicator_vector, rng_from_seed

CHECKS = [(owner, name, fn) for owner, table in SUITES.items() for name, fn in table]


# Properties whose inputs went into a check of the suites but that keep a
# test of their own: each states its property on the library and the
# `reference` oracles, not through the check it went into.


def _u2_embedding_free(rng):
    for _ in range(10):
        A = checks._random_set(rng, 10, 24)
        N, norms = A.elements[-1], []
        for n_prime in (None, 2 * default_n_prime(N), 8 * N + 3):
            rep, sig = spectral.set_u2(A, N, n_prime), embed_signal(A, N, n_prime)
            assert rep.n_prime == sig.n_prime
            assert rep.u2_group_norm == pytest.approx(spectral.u2_group_norm(sig), rel=1e-12)
            assert rep.u2_norm == pytest.approx(spectral.u2_norm(sig), rel=1e-12)
            norms.append(rep.u2_norm)
        assert max(norms) == pytest.approx(min(norms), rel=1e-12), f"{A.elements}: u2_norm depends on N'"


def _t_count_zero_iff_sum_free(rng):
    for _ in range(20):
        N = int(rng.integers(6, 50))
        A = checks._random_set(rng, 10, N)
        triples = spectral.ordered_triples(A, N)
        assert (triples == 0) == solver.is_sum_free(A, solver.ALLOW_EQUAL), f"{A.elements}: T = {triples}"
        assert spectral.t_count(indicator_vector(A, N)) * N**2 == pytest.approx(triples, abs=1e-6)


def _full_interval_density(rng):
    del rng
    for N in range(1, 40):
        A = IntegerSet(tuple(range(1, N + 1)))
        report = structure.find_dense_progression(A, N, 1, Fraction(1))
        prog = report.progression
        assert (report.hits, prog.length, prog.start, prog.step) == reference.dense_progression_direct(A, N, 1)
        assert report.density == 1 and report.meets_target, f"N={N}: density {report.density}"


def _alpha_tilde_single_cell(rng):
    for q in range(1, 6):
        for M in range(1, 6):
            values = [Fraction(0)] * (q * M)
            values[int(rng.integers(0, q * M))] = Fraction(int(rng.integers(1, 16)), 16)
            grid = structure.AlphaGrid.from_values(q, M, values)
            for eta in (Fraction(0), Fraction(1, 10), Fraction(3, 10)):
                report = structure.alpha_tilde(grid, eta)
                assert report.lhs_total == reference.alpha_tilde_direct(grid, eta), f"{values} eta={eta}"
                assert report.rhs_bound == 4 * sum(values) - 4 * eta * q * M, f"{values} eta={eta}"
                assert report.holds and report.lhs_total >= report.rhs_bound, f"q={q} M={M} eta={eta}"


def _scan(theta, a, N):
    report = eq.irrationality_check(eq.Theta(theta), a, N)
    assert (report.worst_vector, report.worst_distance, report.holds) == reference.irrationality_direct(theta, a, N)
    return report


def _golden_fixture(rng):
    del rng
    report = _scan(eq.golden_theta().components, Fraction(10), 1000)
    assert report.holds and report.worst_vector == (8,)


def _rational_fails(rng):
    del rng
    report = _scan((0.5,), Fraction(2), 100)
    assert not report.holds and report.worst_vector == (2,) and report.worst_distance == 0.0


# A fixed input that left the suites: it draws nothing, so one run holds it.


def _overflow_fails_fast(rng):
    del rng
    with pytest.raises(weights.GridOverflowError):
        weights.build_weight(Fraction(1, 2), weights.IterationParams(steps=40), 8)


FOLDED = [
    ("spectral", "u2_embedding_free", _u2_embedding_free),
    ("spectral", "t_count_zero_iff_sum_free", _t_count_zero_iff_sum_free),
    ("structure", "full_interval_density", _full_interval_density),
    ("structure", "alpha_tilde_single_cell", _alpha_tilde_single_cell),
    ("equidist", "golden_fixture", _golden_fixture),
    ("equidist", "rational_fails", _rational_fails),
    ("weights", "overflow_fails_fast", _overflow_fails_fast),
]


@pytest.mark.parametrize(
    ("owner", "name", "fn"),
    CHECKS + FOLDED,
    ids=[f"{owner}.{name}" for owner, name, _ in CHECKS + FOLDED],
)
def test_check(owner, name, fn):
    # the stream run_suite(..., seed=0) hands this check
    fn(rng_from_seed(0, owner, name))


def test_suite_names():
    assert SUITE_NAMES == ("solver", "spectral", "structure", "weights", "equidist", "all")


def test_cli_offers_every_suite():
    assert cli.SUITE_NAMES == SUITE_NAMES
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_check_names_unique():
    labels = [f"{owner}.{name}" for owner, name, _ in CHECKS]
    assert len(labels) == len(set(labels)) == 40


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


@pytest.fixture
def drawn(monkeypatch):
    """Swap in a table of cheap checks that record their first draw."""
    seen = {}

    def recorder(label):
        return lambda rng: seen.setdefault(label, []).append(int(rng.integers(2**62)))

    table = {
        owner: [(name, recorder(f"{owner}.{name}")) for name, _ in entries]
        for owner, entries in SUITES.items()
    }
    monkeypatch.setattr(checks, "SUITES", table)
    return seen


def test_all_suites_pass_and_report_shape(drawn):
    report = run_suite("all", seed=0)
    assert report["suite"] == "all"
    assert report["seed"] == 0
    assert report["passed"] and report["failed"] == []
    assert [c["name"] for c in report["checks"]] == [f"{o}.{n}" for o, n, _ in CHECKS]
    assert all(c["passed"] and c["detail"] is None for c in report["checks"])
    for owner, name, _ in CHECKS:
        want = int(rng_from_seed(0, owner, name).integers(2**62))
        assert drawn[f"{owner}.{name}"] == [want]


def test_single_suite_matches_all(drawn):
    solo = run_suite("solver", seed=3)
    combined = run_suite("all", seed=3)
    solo_names = [c["name"] for c in solo["checks"]]
    assert solo_names == [f"solver.{name}" for name, _ in SUITES["solver"]]
    assert [c for c in combined["checks"] if c["name"] in solo_names] == solo["checks"]
    for label in solo_names:
        alone, together = drawn[label]
        assert alone == together


def test_failing_check_is_reported(monkeypatch, capsys):
    def boom(rng):
        raise AssertionError("boom")

    monkeypatch.setattr(checks, "SUITES", {**SUITES, "solver": [("boom", boom)]})
    report = run_suite("solver", seed=0)
    assert report["checks"] == [
        {"name": "solver.boom", "passed": False, "detail": "AssertionError: boom"}
    ]
    assert not report["passed"] and report["failed"] == ["solver.boom"]

    assert main(["check", "--suite", "solver", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["report"] == report
    assert captured.err.strip() == "check: FAILED solver.boom"
