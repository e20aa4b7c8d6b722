"""Rebuild the golden CLI reports in this directory.

Each golden file freezes the "report" member of the CLI's JSON envelope
for one subcommand invocation; the envelope metadata (argv echo, elapsed
time) is deliberately not stored.  The command table below is the single
source of truth: the CLI tests import it, so adding an entry here adds a
golden test automatically.

Run after an intentional behaviour change, then review the diff:

    python3 tests/golden/regenerate.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
FIXTURES = GOLDEN_DIR / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# name -> argv; every subcommand appears at least once and every argv is
# deterministic (explicit seeds, no machine-dependent inputs)
COMMANDS = {
    "solve": ["solve", "--set", fixture("klarner.json")],
    "solve_heuristic": [
        "solve", "--set", fixture("deca.json"), "--heuristic", "--seed", "5",
    ],
    "sweep": ["sweep", "--set", fixture("deca.json")],
    "compose": [
        "compose", "--set-a", fixture("klarner.json"), "--set-b", fixture("klarner.json"),
    ],
    "compose_copies": ["compose", "--set-a", fixture("klarner.json"), "--copies", "3"],
    "catalog": ["catalog", "--verify"],
    "spectral_u2": ["spectral", "u2", "--set", fixture("pow2.json"), "--n", "10"],
    "spectral_tcount": ["spectral", "tcount", "--set", fixture("deca.json"), "--n", "10"],
    "spectral_popdiff": [
        "spectral", "popdiff", "--set", fixture("pow2.json"), "--n", "8",
        "--threshold", "1/4",
    ],
    "structure_doubling": [
        "structure", "doubling", "--set", fixture("deca.json"), "--n", "20",
        "--eps", "1/10", "--delta", "1/5",
    ],
    "structure_alphatilde": [
        "structure", "alphatilde", "--grid", fixture("grid.json"), "--eta", "1/10",
    ],
    "structure_avoidzero": [
        "structure", "avoidzero", "--grid", fixture("gridset.json"),
        "--index-bound", "2", "--min-interval", "1/2",
    ],
    "structure_lev": [
        "structure", "lev", "--start", "1", "--step", "1", "--length", "14",
        "--subset", fixture("lev_x.json"),
    ],
    "weight_build": [
        "weight", "build", "--eps", "1/2", "--cells", "8", "--steps", "2",
    ],
    "weight_sample": [
        "weight", "sample", "--weight", fixture("w.json"), "--n", "64", "--seed", "3",
    ],
    "experiment": [
        "experiment", "--eps", "1/2", "--cells", "4", "--n", "64",
        "--seeds", "1,2", "--steps", "1",
    ],
    "equidist_check": [
        "equidist", "check", "--theta", "0.6180339887498949", "--a", "10", "--n", "1000",
    ],
    "equidist_error": [
        "equidist", "error", "--theta", "0.6180339887498949", "--freq", "cos:1",
        "--n", "1000",
    ],
    "check": ["check", "--suite", "solver", "--seed", "0"],
}


def run_report(argv: list[str]) -> tuple[int, dict]:
    """Run the CLI in-process; return (exit code, parsed report)."""
    from sumfree.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    return code, json.loads(out.getvalue())["report"]


def regenerate() -> None:
    from fractions import Fraction

    from sumfree.weights import IterationParams, build_weight, load_weight

    # The sampling fixture weight is the build of `weight build --eps 1/2
    # --cells 8 --steps 2`, kept in an indented layout, which `write_json`
    # does not write, so that the loader stays tested on both layouts.  It is
    # checked, not rewritten.
    want = build_weight(Fraction(1, 2), IterationParams(steps=2), 8).weight.to_json_dict()
    assert load_weight(fixture("w.json")).to_json_dict() == want, "fixtures/w.json is stale"
    for name, argv in COMMANDS.items():
        code, report = run_report(argv)
        assert code == 0, f"{name}: exit {code}"
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")


if __name__ == "__main__":
    sys.exit(regenerate())
