import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sumfree
from sumfree.cli import _build_parser, main
from sumfree.core import SCHEMA_VERSION, VERSION, load_set

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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(capsys, name):
    code, out, err = run_cli(capsys, COMMANDS[name])
    assert code == 0
    envelope = json.loads(out)
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_json_equal(envelope["report"], expected)
    assert err.strip(), "human summary expected on stderr"


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
    assert not any(x + y in witness for x in witness for y in witness)


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
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error:"), argv


def test_grid_cap_message_for_huge_modulus(capsys):
    # about 40 000 default steps: the modulus 2^40000 has more digits than str() allows
    code, out, err = run_cli(capsys, ["weight", "build", "--eps", "1e-5000", "--cells", "8"])
    assert code == 1 and out == ""
    assert "-cell cap" in err and "-bit modulus" in err


def test_grid_cap_refused_before_the_exact_step_count(capsys):
    # about 8e6 default steps: the exact test would form 3^k and 4^k first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["weight", "build", "--eps", "1e-1000000", "--cells", "8"])
    assert time.perf_counter() - start < 5.0
    assert code == 1 and out == ""
    assert "-cell cap" in err and "-bit modulus" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # the cap check reads k * log2(3) instead of forming 3^k, k near 8e6
        (["weight", "build", "--eps", "1e-1000000", "--cells", "8", "--factor", "3"], "-bit modulus"),
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



def _first_call_report(argv):
    """The report argv gives as the first CLI call of a new process."""
    src = str(Path(sumfree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "sumfree.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)["report"]


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
