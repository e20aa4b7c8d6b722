import contextlib
import functools
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sumfree
from sumfree.cli import _build_parser, main
from sumfree.core import SCHEMA_VERSION, VERSION, IntegerSet, load_set
from sumfree.reference import pair_sum_count

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", GOLDEN_DIR / "regenerate.py"
)
_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_golden)

COMMANDS = _golden.COMMANDS
fixture = _golden.fixture


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_equal(actual, expected, path="report"):
    """Exact on ints/strings/bools, approximate on floats."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), path
        for key in expected:
            assert_json_equal(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_equal(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12), path
    else:
        assert actual == expected, path


# 2048 weight values in 2 distinct rows of 1024, which write_json formats once each
_STDOUT_ONLY = {"weight_build_1024_cells": ["weight", "build", "--eps", "1/5", "--cells", "1024", "--steps", "1"]}


@functools.cache
def golden_run(name: str) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr on a golden command, run once for every test that reads them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main({**COMMANDS, **_STDOUT_ONLY}[name])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(strict_loads, name):
    code, out, err = golden_run(name)
    assert code == 0
    envelope = strict_loads(out)
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_json_equal(envelope["report"], expected)
    assert err.strip(), "human summary expected on stderr"


@pytest.mark.parametrize("name", [*sorted(COMMANDS), *_STDOUT_ONLY])
def test_stdout_is_the_stdlib_compact_text(first_difference, name):
    # the goldens hold re-encoded reports, so they pin no byte of what main writes
    code, out, _ = golden_run(name)
    assert code == 0
    assert first_difference(out, json.dumps(json.loads(out), separators=(",", ":")) + "\n") is None


def test_vacuous_irrationality_check_prints_strict_json(capsys, strict_loads):
    # a_bound < 1 scans no vector, so there is no worst distance to print
    code, out, err = run_cli(capsys, ["equidist", "check", "--theta", "0.3", "--a", "1/2", "--n", "10"])
    assert code == 0 and err == "equidist check: holds, no vector scanned\n"
    report = strict_loads(out)["report"]
    assert report["holds"] is True and report["worst_vector"] == [] and report["worst_distance"] is None


_M_PAST_83 = math.prod(p for p in range(2, 2**11) if p % 3 == 2 and all(p % d for d in range(2, p)))
# set files for the strict-JSON commands below, by name
_STRICT_SETS = {
    "lev_x": [*range(1, 601, 2), 600],
    "past_cap_interval": [99_991 * k for k in range(1, 13)],
    "one_mod_three": list(range(1, 3000, 3)),
    "prime_floor": [2520 * 99_991 * 2**i for i in range(31)],
    "past_83": [2520 * _M_PAST_83 * k for k in (1, 4, 16)],
    "past_int64": [2**63 * k for k in range(1, 41)],
    "part": sorted(random.Random(3).sample(range(1, 3001), 200)),
    "dense36": sorted(random.Random(36).sample(range(1, 145), 36)),
    "klarner": [2, 3, 4, 5, 6, 8, 10],
}
# id: argv, and the optimum its report must hold (None for no check)
_STRICT_COMMANDS = {
    "catalog": (["catalog", "--verify"], None),
    "weight-build": (["weight", "build", "--eps", "1/2", "--cells", "8", "--steps", "2"], None),
    "equidist-vacuous": (["equidist", "check", "--theta", "0.3", "--a", "1/2", "--n", "10"], None),
    "equidist-check-at-the-limit": (["equidist", "check", "--theta", "0.1,0.2,0.3", "--a", "135", "--n", "1000"], None),
    "equidist-error": (["equidist", "error", "--theta", "0.1,0.2,0.3", "--freq", "cos:1;2;3", "--n", "1000"], None),
    "lev": (["structure", "lev", "--start", "1", "--step", "1", "--length", "600", "--subset", "{lev_x}"], None),
    "past-cap-interval": (["solve", "--set", "{past_cap_interval}", "--heuristic"], None),
    "one-mod-three": (["solve", "--set", "{one_mod_three}", "--heuristic"], 1000),
    "prime-floor": (["solve", "--set", "{prime_floor}", "--heuristic"], None),
    "past-83": (["solve", "--set", "{past_83}", "--heuristic"], 3),
    "past-int64": (["solve", "--set", "{past_int64}", "--heuristic"], None),
    "compose": (["compose", "--set-a", "{part}", "--copies", "3", "--out", "{composed}"], None),
    "composed-heuristic": (["solve", "--set", "{composed}", "--heuristic"], None),
    "dense36-allow-equal": (["solve", "--set", "{dense36}", "--convention", "allow-equal"], None),
    "dense36-distinct": (["solve", "--set", "{dense36}", "--convention", "distinct"], None),
    "compose-klarner": (["compose", "--set-a", "{klarner}", "--copies", "5", "--out", "{klarner5}"], None),
    "klarner5-budget": (["solve", "--set", "{klarner5}", "--budget", "20000"], None),
}


@pytest.fixture(scope="module")
def strict_paths(tmp_path_factory):
    """The set files of _STRICT_SETS, and the two that the compose commands write."""
    root = tmp_path_factory.mktemp("strict")
    paths = {name: str(root / f"{name}.json") for name in (*_STRICT_SETS, "composed", "klarner5")}
    for name, elements in _STRICT_SETS.items():
        Path(paths[name]).write_text(json.dumps({"elements": elements}))
    for name in ("compose", "compose-klarner"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([arg.format(**paths) for arg in _STRICT_COMMANDS[name][0]]) == 0
    return paths


@pytest.mark.parametrize("name", _STRICT_COMMANDS)
def test_envelope_is_one_line_of_strict_json(capsys, strict_loads, strict_paths, name):
    argv, optimum = _STRICT_COMMANDS[name]
    code, out, _ = run_cli(capsys, [arg.format(**strict_paths) for arg in argv])
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    report = strict_loads(out)["report"]
    if optimum is not None:
        assert report["optimum"] == optimum


def test_irrationality_verdict_matches_the_printed_threshold(capsys):
    argv = ["equidist", "check", "--theta", "0.1212121212121212", "--a", "4/3", "--n", "11"]
    code, out, err = run_cli(capsys, argv)
    report = json.loads(out)["report"]
    assert report["worst_distance"] < report["threshold"]
    assert code == 0 and report["holds"] is False and err.startswith("equidist check: fails")


def test_envelope_shape(capsys):
    code, out, _ = run_cli(capsys, COMMANDS["solve"])
    assert code == 0
    envelope = json.loads(out)
    assert set(envelope) == {
        "schema_version",
        "version",
        "command",
        "elapsed_seconds",
        "report",
    }
    assert envelope["schema_version"] == SCHEMA_VERSION
    assert envelope["version"] == VERSION
    assert envelope["command"] == COMMANDS["solve"]
    assert isinstance(envelope["elapsed_seconds"], float)


def test_text_set_format(capsys):
    code, out, _ = run_cli(capsys, ["solve", "--set", fixture("plain.txt")])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["input_size"] == 3
    assert report["optimum"] == 3


def test_heuristic_on_elements_near_int64_limit(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"elements": [10**15 * x for x in (17, 28, 31, 38, 48)]}))
    code, out, _ = run_cli(capsys, ["solve", "--set", str(big), "--heuristic", "--seed", "4"])
    assert code == 0
    assert json.loads(out)["report"]["optimum"] >= 2


def test_heuristic_on_elements_past_int64(capsys, tmp_path):
    elements = [3, 7, 10**20, 2 * 10**20 + 1]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"elements": elements}))
    code, out, _ = run_cli(capsys, ["solve", "--set", str(big), "--heuristic"])
    assert code == 0
    witness = json.loads(out)["report"]["witness"]
    assert witness and set(witness) <= set(elements)
    assert pair_sum_count(IntegerSet(tuple(witness))) == 0


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--no-such-flag"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert VERSION in capsys.readouterr().out


def test_domain_errors_exit_1(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"elements": []}))
    bool_q = tmp_path / "bool_q.json"
    bool_q.write_text(json.dumps({"q": True, "K": 2, "values": [0, 1]}))
    tall = tmp_path / "tall.json"
    tall.write_text(json.dumps(_TALL_GRID))
    cases = [
        ["solve", "--set", str(tmp_path / "missing.json")],
        ["sweep", "--set", str(empty)],
        ["solve", "--set", fixture("deca.json"), "--budget", "-3"],
        ["solve", "--set", fixture("deca.json"), "--heuristic", "--budget", "-3"],
        ["compose", "--set-a", fixture("klarner.json")],
        ["spectral", "u2", "--set", fixture("deca.json"), "--n", "10", "--n-prime", "3"],
        # sizes past MAX_SIGNAL_LENGTH, refused before numpy allocates
        ["spectral", "u2", "--set", fixture("deca.json"), "--n", "20", "--n-prime", str(10**12)],
        ["spectral", "tcount", "--set", fixture("deca.json"), "--n", str(10**11)],
        ["spectral", "popdiff", "--set", fixture("deca.json"), "--n", str(10**11), "--threshold", "1/2"],
        ["weight", "build", "--eps", "1/100", "--cells", "8"],  # default steps overflow
        ["weight", "build", "--eps", "1e-400", "--cells", "8"],  # eps below the float range
        ["weight", "sample", "--weight", fixture("w.json"), "--n", str(10**11), "--seed", "1"],
        ["equidist", "check", "--theta", "1.5", "--a", "2", "--n", "10"],
        ["equidist", "error", "--theta", "0.618", "--freq", "1", "--n", str(10**11)],
        ["equidist", "error", "--theta", "0.618", "--freq", "1", "--n", str(10**12),
         "--progression", f"1,1,{10**11}"],
        ["structure", "lev", "--start", "1", "--step", "1", "--length", str(10**12),
         "--subset", fixture("lev_x.json")],
        ["structure", "avoidzero", "--grid", str(bool_q), "--index-bound", "1", "--min-interval", "1/2"],
        # refused before the work they ask for: 10^12 quadrature nodes, and
        # a modulus 2^(10^12) formed only to be compared with the cap
        ["weight", "build", "--eps", "1/2", "--cells", "8", "--t-samples", str(10**12), "--steps", "1"],
        ["weight", "build", "--eps", "1/2", "--cells", "8", "--steps", str(10**12)],
        # 2049^2 pairs of cells above eta, refused before the pair arrays
        ["structure", "alphatilde", "--grid", str(tall), "--eta", "1/4"],
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compose", "--set-a", fixture("klarner.json"), "--set-b", fixture("deca.json"), "--copies", "3"],
         "--copies composes --set-a with itself; drop it or --set-b"),
        (["compose", "--set-a", fixture("klarner.json"), "--copies", "2", "--multiplier", "100"],
         "--multiplier scales --set-b; drop it or --copies"),
        (["solve", "--set", fixture("deca.json"), "--seed", "5"],
         "--seed seeds the heuristic; drop it or add --heuristic"),
    ],
    ids=["copies-with-set-b", "multiplier-with-copies", "seed-without-heuristic"],
)
def test_flag_that_would_be_ignored_is_refused(capsys, argv, message):
    # each flag has no effect on the path the others choose, so it is an error, not dropped
    assert run_cli(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("values, shown", [([True, False], "True"), ([1.0, 0], "1.0")], ids=["true", "float-one"])
def test_grid_set_entries_are_the_integers_0_and_1(capsys, tmp_path, values, shown):
    # the alpha-grid and weight loaders refuse booleans by exact type too
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"q": 1, "K": 2, "values": values}))
    argv = ["structure", "avoidzero", "--grid", str(grid), "--index-bound", "1", "--min-interval", "1/2"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {grid}: membership values must be 0 or 1, got {shown}\n")


# a 2049 x 1 grid of 1/2: 2049^2 = 4198401 pairs of cells above eta = 1/4
_TALL_GRID = {"q": 2049, "M": 1, "values": ["1/2"] * 2049}
# 100 multiples of 2520·99991 and of each prime p = 2 (mod 3) below 3000,
# one per dyadic interval: every candidate misses the floor 34, and the
# primes tried pass the limit before one is admissible
_PRIMED = 2520 * 99_991 * math.prod(p for p in range(2, 3000) if p % 3 == 2 and all(p % d for d in range(2, p)))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "tcount", "--set", fixture("deca.json"), "--n", str(10**11)],
         "N = 100000000000 exceeds the limit 8388608"),
        (["spectral", "u2", "--set", fixture("deca.json"), "--n", "20", "--n-prime", str(10**12)],
         "group order = 1000000000000 exceeds the limit 8388608"),
        (["weight", "sample", "--weight", fixture("w.json"), "--n", str(10**11), "--seed", "1"],
         "N = 100000000000 exceeds the limit 8388608"),
        (["equidist", "error", "--theta", "0.618", "--freq", "1", "--n", str(10**12), "--progression", f"1,1,{10**11}"],
         "sample points = 100000000000 exceeds the limit 8388608"),
        (["solve", "--set", "{wide}"],
         "exact solver elements = 65 exceeds the limit 64; use heuristic_sum_free"),
        (["sweep", "--set", "{heavy}"],
         "sweep events = 200000000 exceeds the limit 40000000; "
         "too many breakpoints for the exact sweep, use heuristic_sum_free"),
        (["structure", "doubling", "--set", "{half}", "--n", "4096", "--eps", "1/10000", "--delta", "1/1000",
          "--min-length", "1"],
         "progression window ends = 16773120 exceeds the limit 2000000; raise min_length or lower N"),
        (["weight", "build", "--eps", "1/2", "--cells", "8", "--steps", "20"],
         "grid cells = 8388608 exceeds the limit 4194304; "
         "reduce steps (alpha_schedule tracks the recurrence without a grid)"),
        (["equidist", "check", "--theta", "0.618", "--a", "1e4299", "--n", "10"],
         "torus vectors = more than 1658655 exceeds the limit 1658655; reduce a_bound"),
        (["equidist", "check", "--theta", ",".join(["0.1"] * 10**5), "--a", "2", "--n", "10"],
         "torus vectors = more than 1658655 exceeds the limit 1658655; reduce a_bound"),
        (["structure", "alphatilde", "--grid", "{tall}", "--eta", "1/4"],
         "alpha_tilde cell pairs = 4198401 exceeds the limit 4194304"),
        (["solve", "--set", "{primed}", "--heuristic"],
         "prime dilation steps = 131600 exceeds the limit 131072; every other candidate misses the floor"),
    ],
    ids=["tcount-n", "u2-group-order", "sample-n", "equidist-points", "exact-size", "sweep-events",
         "progression-ends", "grid-cells", "vectors-a", "vectors-theta", "alpha-pairs", "prime-steps"],
)
def test_each_limit_refused_at_once_in_its_wording(capsys, tmp_path, argv, message):
    files = {
        "wide": {"elements": list(range(1, 66))},
        "heavy": {"elements": [10**8]},
        "half": {"elements": list(range(1, 2049))},  # meets the hypothesis in {1..4096}
        "tall": _TALL_GRID,
        "primed": {"elements": [_PRIMED << i for i in range(100)]},
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_readme_limits_are_the_constants():
    # each row of README's limits table names a module constant, `module.NAME`,
    # and its value, as 2^23, 4·10^7 or 1 658 655
    lines = (GOLDEN_DIR.parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Stage | Work unit | Count | Constant | Value |") + 2
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    assert rows
    for row in rows:
        *_, constant, value = (cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1])
        module, name = constant.strip("`").split(".")
        want = 1
        for factor in value.replace(" ", "").split("·"):
            base, _, exponent = factor.partition("^")
            want *= int(base) ** int(exponent or 1)
        assert getattr(importlib.import_module(f"sumfree.{module}"), name) == want, row


def test_readme_commands_parse():
    # each `sumfree ...` line of README's command block, up to a pipe or a
    # comment, is an argv the parser accepts
    text = (GOLDEN_DIR.parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.startswith("sumfree ")]
    assert lines
    for line in lines:
        _build_parser().parse_args(shlex.split(line.partition("|")[0], comments=True)[1:])


def test_long_theta_at_a_bound_one_runs(capsys):
    # one vector per place, each scanned by its one entry: no deep recursion
    theta = ",".join(["0.5"] + ["0.25"] * 1999)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["equidist", "check", "--theta", theta, "--a", "1", "--n", "10"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err.startswith("equidist check: holds")
    report = json.loads(out)["report"]
    assert report["worst_vector"] == [0] * 1999 + [1] and report["worst_distance"] == 0.25


def test_grid_cap_message_for_huge_modulus(capsys):
    # about 34 400 default steps: the modulus 2^34400 has more digits than str() allows
    code, out, err = run_cli(capsys, ["weight", "build", "--eps", "1e-4299", "--cells", "8"])
    assert code == 1 and out == ""
    assert "grid cells = (" in err and "-bit modulus) x 8 exceeds the limit 4194304; reduce steps" in err


def test_grid_cap_refused_before_the_exact_step_count(capsys):
    # the largest denominator eps may have: the exact step count forms 3^k
    # and 4^k, k near 34 400, in milliseconds, and the cap refuses k
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["weight", "build", "--eps", "1/" + "9" * 4300, "--cells", "8"])
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert "grid cells = (" in err and "-bit modulus) x 8 exceeds the limit 4194304; reduce steps" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # the cap check reads k * log2(3) instead of forming 3^k, k near 34 400
        (["weight", "build", "--eps", "1e-4299", "--cells", "8", "--factor", "3"], "-bit modulus"),
        # refused before Fraction builds 10^3000000
        (["weight", "build", "--eps", "1e-3000000", "--cells", "8"], "decimal exponent"),
    ],
)
def test_tiny_eps_refused_in_constant_time(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_rational_past_the_digit_bound_is_refused_in_its_wording(capsys, tmp_path):
    # 1e-5000 was read, then failed in str() with Python's message; 1/p over
    # the 600 primes below 10^8 sums to a denominator of about 4 800 digits
    code, out, err = run_cli(capsys, ["structure", "alphatilde", "--grid", fixture("grid.json"), "--eta", "1e-5000"])
    assert (code, out, err) == (1, "", "error: decimal exponent of '1e-5000' is past 4300\n")
    top = 10**8
    prime = np.ones(20_000, dtype=bool)  # prime[j]: top - 20 000 + j is prime
    for d in range(2, math.isqrt(top) + 1):
        prime[-(top - 20_000) % d :: d] = False
    primes = top - 20_000 + np.nonzero(prime)[0][-600:]
    grid = tmp_path / "primes.json"
    grid.write_text(json.dumps({"q": 600, "M": 1, "values": [f"1/{p}" for p in primes]}))
    code, out, err = run_cli(capsys, ["structure", "alphatilde", "--grid", str(grid), "--eta", "1/4"])
    assert (code, out, err) == (1, "", "error: rational digits = more than 4300 exceeds the limit 4300\n")


def test_weight_build_default_steps(capsys):
    code, out, _ = run_cli(capsys, ["weight", "build", "--eps", "1/2", "--cells", "8"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["steps"] == 8
    assert (report["weight"]["Q"], report["weight"]["K"]) == (256, 8)


def test_failed_catalog_verification_unused_flag_ok(capsys):
    code, out, _ = run_cli(capsys, ["catalog"])
    assert code == 0
    entries = json.loads(out)["report"]["entries"]
    assert all("verified" not in e for e in entries)


def test_compose_out_round_trips(capsys, tmp_path):
    out_path = tmp_path / "composed.json"
    code, out, _ = run_cli(
        capsys,
        [
            "compose",
            "--set-a",
            fixture("klarner.json"),
            "--set-b",
            fixture("klarner.json"),
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    written = load_set(out_path)
    assert list(written.elements) == json.loads(out)["report"]["set"]["elements"]


def test_weight_out_round_trips(capsys, tmp_path):
    w_path = tmp_path / "w.json"
    code, _, _ = run_cli(
        capsys,
        ["weight", "build", "--eps", "1/2", "--cells", "4", "--steps", "1",
         "--out", str(w_path)],
    )
    assert code == 0
    assert w_path.read_text().count("\n") == 1 and ": " not in w_path.read_text()  # compact
    code, out, _ = run_cli(
        capsys,
        ["weight", "sample", "--weight", str(w_path), "--n", "32", "--seed", "1",
         "--out", str(tmp_path / "sampled.json")],
    )
    assert code == 0
    sampled = load_set(tmp_path / "sampled.json")
    assert list(sampled.elements) == json.loads(out)["report"]["set"]["elements"]


def test_check_subcommand_passes(capsys):
    code, out, err = run_cli(capsys, ["check", "--suite", "equidist", "--seed", "7"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["passed"] and report["failed"] == []
    assert "checks passed" in err



def _python(args, check=False):
    """python run with args in a new process that imports this sumfree, under Python's own warning filters."""
    src = str(Path(sumfree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=check,
    )


def _new_process(argv, check=False):
    """argv run by the CLI in a new process."""
    return _python(["-m", "sumfree.cli", *argv], check)


def test_cli_import_leaves_the_suites_unloaded():
    # the suites and their oracle load when first used, through the package too
    script = """if True:
        import json, sys
        import sumfree.cli
        lazy = ("sumfree.checks", "sumfree.reference")
        before = [m for m in lazy if m in sys.modules]
        from sumfree import SUITE_NAMES, exhaustive_max_sum_free, run_suite
        print(json.dumps([before, [m for m in lazy if m in sys.modules]]))
    """
    out = _python(["-c", script], check=True).stdout
    assert json.loads(out) == [[], ["sumfree.checks", "sumfree.reference"]]


def test_package_import_loads_no_submodule_and_no_numpy():
    # a submodule, or a name's defining module, loads when first used
    script = """if True:
        import json, sys
        import sumfree
        loaded = sorted(m for m in sys.modules if m.startswith("sumfree.") or m.split(".")[0] == "numpy")
        print(json.dumps([loaded, sumfree.solver.__name__, sumfree.__version__]))
    """
    out = _python(["-c", script], check=True).stdout
    assert json.loads(out) == [[], "sumfree.solver", "0.1.0"]


def test_every_public_name_resolves_through_the_package():
    namespace = {}
    exec("from sumfree import *", namespace)
    del namespace["__builtins__"]
    assert len(sumfree.__all__) == 60 and sumfree.__all__ == sorted(namespace)
    assert {*sumfree.__all__, "__version__", "solver", "cli"} <= set(dir(sumfree))
    for module, names in sumfree._EXPORTS.items():
        for name in names.split():  # each name is listed under the module that defines it
            value = getattr(sumfree, name)
            assert namespace[name] is value is getattr(importlib.import_module(f"sumfree.{module}"), name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"sumfree.{module}", name
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        sumfree.missing


def _first_call_report(argv):
    """The report argv gives as the first CLI call of a new process."""
    return json.loads(_new_process(argv, check=True).stdout)["report"]


@pytest.mark.parametrize(
    "argv, code",
    [
        # no stride above the modulus 2 divides it, so the bound 99 needs no note
        (["structure", "avoidzero", "--grid", fixture("gridset.json"), "--index-bound", "99", "--min-interval", "1/2"], 0),
        # the values' sum would overflow, and numpy would print a warning first
        (["weight", "sample", "--weight", "{huge}", "--n", "64", "--seed", "3"], 1),
    ],
    ids=["avoidzero-bound-past-modulus", "weight-values-near-float-max"],
)
def test_one_stderr_line_in_a_new_process(tmp_path, argv, code):
    # pytest turns warnings into errors in process; a new process prints them
    weight = json.loads(Path(fixture("w.json")).read_text())
    weight["values"][:2] = [1e308, 1e308]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(weight))
    done = _new_process([arg.format(huge=huge) for arg in argv])
    assert done.returncode == code
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n"), done.stderr


PLAIN_SOLVE = ["solve", "--set", fixture("deca.json")]


@pytest.fixture(scope="module")
def plain_solve_report():
    return _first_call_report(PLAIN_SOLVE)


@pytest.mark.parametrize(
    "first, first_code",
    [
        # no heuristic flag or seed may carry over to the next call
        (["solve", "--set", fixture("deca.json"), "--heuristic", "--seed", "3"], 0),
        (["solve", "--set", fixture("deca.json"), "--no-such-flag"], 2),
        (["--version"], 0),
    ],
)
def test_reused_parser_keeps_no_state(capsys, plain_solve_report, first, first_code):
    try:
        code = main(first)
    except SystemExit as exc:
        code = exc.code
    assert code == first_code
    capsys.readouterr()
    code, out, _ = run_cli(capsys, PLAIN_SOLVE)
    assert code == 0
    report = json.loads(out)["report"]
    assert report == plain_solve_report
    assert report["exact"] and report["nodes_explored"] > 0


def test_parser_built_once_per_process(capsys):
    for name in ("sweep", "solve", "solve_heuristic", "catalog"):
        assert run_cli(capsys, COMMANDS[name])[0] == 0
    assert _build_parser.cache_info().misses == 1


def test_progression_scan_refused_past_its_window_limit(capsys, tmp_path):
    # {1..2048} meets the hypothesis in {1..4096}; min length 1 would scan
    # about 1.7e7 window ends in Python, about a minute
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"elements": list(range(1, 2049))}))
    argv = ["structure", "doubling", "--set", str(half), "--n", "4096",
            "--eps", "1/10000", "--delta", "1/1000", "--min-length", "1"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "window ends" in err


def test_default_min_length_fits_the_window_limit(capsys, tmp_path):
    # N // 10 = 45 000 would scan 2 025 055 window ends, past the limit; the
    # default is the least longer length that fits
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"elements": list(range(1, 225_001))}))
    argv = ["structure", "doubling", "--set", str(half), "--n", "450000", "--eps", "1/10", "--delta", "1/5"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["hypothesis_met"] and report["min_length"] == 45_557
    assert report["progression"]["progression"] == {"start": 1, "step": 1, "length": 225_000}


@pytest.mark.parametrize("min_length", [-5, 1001])
def test_explicit_min_length_outside_1_to_n_refused(capsys, min_length):
    # the hypothesis fails here, so no scan runs; the length is still refused
    argv = ["structure", "doubling", "--set", _golden.fixture("deca.json"), "--n", "1000",
            "--eps", "1/2", "--delta", "1/2", "--min-length", str(min_length)]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == "error: min_length must lie in [1, 1000]\n"


@pytest.mark.parametrize("n", [1, 10, 4096])
def test_u2_of_the_full_interval_is_exactly_one(capsys, tmp_path, n):
    # the energy of {1..N} is the closed form the interval norm divides by
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"elements": list(range(1, n + 1))}))
    code, out, _ = run_cli(capsys, ["spectral", "u2", "--set", str(full), "--n", str(n)])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["u2_norm"] == 1.0
    assert report["additive_energy"] == (2 * n**3 + n) // 3


@pytest.mark.parametrize(
    "n_prime, message",
    [
        ("3", "error: group order 3 too small for N = 10; need > 40\n"),
        ("40", "error: group order 40 too small for N = 10; need > 40\n"),
        (str((1 << 23) + 1), "error: group order = 8388609 exceeds the limit 8388608\n"),
    ],
)
def test_u2_group_order_checked_with_its_message(capsys, n_prime, message):
    argv = ["spectral", "u2", "--set", fixture("deca.json"), "--n", "10", "--n-prime", n_prime]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", message)
