"""The CLI input contract on drawn argv.

Every invocation either exits 0 with one JSON envelope on stdout, one line
of strict JSON (no NaN or Infinity), or exits 1 or 2 without a traceback;
exit 0 and exit 1 print exactly one stderr line.  The
argv are drawn for every subcommand from small values (tiny set files,
N <= 2^12, the small fixture grids) and from boundary values: 0,
negatives, 10^12 and malformed numbers and rationals.  `check` is drawn
only with invalid seeds, since a valid seed runs the full property suite.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumfree.checks import SUITE_NAMES
from sumfree.cli import main

FIXTURES = Path(__file__).resolve().parent / "golden" / "fixtures"
SET_A, SET_B = "@set_a", "@set_b"  # replaced by the paths of the drawn set files

_BOUNDARY = st.sampled_from([0, -1, 10**12])
_INT = st.one_of(st.integers(-2, 2**12), _BOUNDARY).map(str)
_SMALL = st.one_of(st.integers(1, 8), _BOUNDARY).map(str)
_MALFORMED = st.sampled_from(["", "x", "1/0", "1/2/3", "nan", "inf", "0x10", "1e99", "1e-9999999"])
_RATIONAL = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12).map(str),
    st.sampled_from(["0", "0.25", "1e-5", "1e-5000", str(10**12)]),
    _MALFORMED,
)
_SEED = st.one_of(st.integers(0, 2**12), st.sampled_from([-1, 2**64 - 1, 2**64])).map(str)
_THETA = st.sampled_from(["0.618", "0.25,0.7", "0.1,0.2,0.3", "0", "1.5", "-0.1", "", "x"])
_FREQ = st.sampled_from(["1", "cos:1", "2;-1", "cos:0;3", "", "cos:", "x", "1;;2"])
_PROGRESSION = st.sampled_from(["1,1,10", "2,3,5", "1,2", "0,1,5", "1,0,3", "x", f"1,1,{10**12}"])
_ELEMENTS = st.lists(st.one_of(st.integers(-3, 2**12), _BOUNDARY), max_size=8)


@st.composite
def _set_file(draw) -> str:
    """A set file's text: mostly valid JSON or one integer a line, sometimes broken."""
    elems = draw(_ELEMENTS)
    form = draw(st.sampled_from(["json", "text", "broken"]))
    if form == "json":
        return json.dumps({"elements": elems})
    if form == "text":
        return "".join(f"{x}\n" for x in elems)
    return draw(st.sampled_from(['{"elements": [1, "2"]}', "{", "1\nx\n", '{"elements": 3}']))


def _opt(draw, flag, values) -> list[str]:
    return [flag, draw(values)] if draw(st.booleans()) else []


def _flag(draw, flag) -> list[str]:
    return [flag] if draw(st.booleans()) else []


def _params(draw) -> list[str]:
    return (
        _opt(draw, "--factor", st.one_of(st.sampled_from(["2", "3"]), _BOUNDARY.map(str)))
        + _opt(draw, "--shrink", _RATIONAL)
        + _opt(draw, "--t-samples", _SMALL)
        + _opt(draw, "--steps", st.one_of(st.integers(0, 4), _BOUNDARY).map(str))
    )


_BUILDERS = {
    "solve": lambda d: ["solve", "--set", SET_A]
    + _opt(d, "--convention", st.sampled_from(["allow-equal", "distinct"]))
    + _flag(d, "--heuristic")
    + _opt(d, "--budget", _INT)
    + _opt(d, "--seed", _SEED),
    "sweep": lambda d: ["sweep", "--set", SET_A],
    "compose": lambda d: ["compose", "--set-a", SET_A]
    + _opt(d, "--set-b", st.just(SET_B))
    + _opt(d, "--copies", _INT)
    + _opt(d, "--multiplier", _INT),
    "catalog": lambda d: ["catalog"] + _flag(d, "--verify"),
    "spectral u2": lambda d: ["spectral", "u2", "--set", SET_A, "--n", d(_INT)]
    + _opt(d, "--n-prime", _INT),
    "spectral tcount": lambda d: ["spectral", "tcount", "--set", SET_A, "--n", d(_INT)],
    "spectral popdiff": lambda d: [
        "spectral", "popdiff", "--set", SET_A, "--n", d(_INT), "--threshold", d(_RATIONAL),
    ],
    # the progression scan runs numpy passes over O(N^2 / min_length) grid
    # cells, up to structure.PROGRESSION_WINDOW_LIMIT, so N reaches 2^11
    "structure doubling": lambda d: [
        "structure", "doubling", "--set", SET_A, "--n", d(st.integers(-1, 2048).map(str)),
        "--eps", d(_RATIONAL), "--delta", d(_RATIONAL),
    ]
    + _opt(d, "--min-length", _INT),
    "structure alphatilde": lambda d: [
        "structure", "alphatilde", "--grid", str(FIXTURES / "grid.json"), "--eta", d(_RATIONAL),
    ],
    "structure avoidzero": lambda d: [
        "structure", "avoidzero", "--grid", str(FIXTURES / "gridset.json"),
        "--index-bound", d(_INT), "--min-interval", d(_RATIONAL),
    ],
    "structure lev": lambda d: [
        "structure", "lev", "--start", d(_INT), "--step", d(_INT), "--length", d(_INT),
        "--subset", SET_A,
    ],
    "weight build": lambda d: ["weight", "build", "--eps", d(_RATIONAL), "--cells", d(_SMALL)]
    + _params(d),
    "weight sample": lambda d: [
        "weight", "sample", "--weight", str(FIXTURES / "w.json"), "--n", d(_INT), "--seed", d(_SEED),
    ],
    # sampled sets of up to 64 elements get an exact solve, so N stays small
    "experiment": lambda d: [
        "experiment", "--eps", d(_RATIONAL), "--cells", d(_SMALL),
        "--n", d(st.one_of(st.integers(1, 64), _BOUNDARY).map(str)),
        "--seeds", ",".join(d(st.lists(_SEED, max_size=3))),
    ]
    + _params(d),
    "equidist check": lambda d: [
        "equidist", "check", "--theta", d(_THETA), "--a", d(_RATIONAL), "--n", d(_INT),
    ],
    "equidist error": lambda d: [
        "equidist", "error", "--theta", d(_THETA), "--freq", d(_FREQ), "--n", d(_INT),
    ]
    + _opt(d, "--modulus", _INT)
    + _opt(d, "--residue-freq", _INT)
    + _opt(d, "--interval-freq", _INT)
    + _opt(d, "--progression", _PROGRESSION),
    "check": lambda d: [
        "check", "--suite", d(st.sampled_from(SUITE_NAMES)),
        "--seed", d(st.sampled_from(["-1", str(2**64), str(-(2**70))])),
    ],
}


@st.composite
def _invocations(draw):
    argv = _BUILDERS[draw(st.sampled_from(sorted(_BUILDERS)))](draw)
    return argv, draw(_set_file()), draw(_set_file())


def run(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in process: (exit code, stdout, stderr); any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --version
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv: list[str], strict_loads) -> None:
    code, out, err = run(argv)
    if code == 0:
        assert out.endswith("\n") and out.count("\n") == 1, argv
        envelope = strict_loads(out)
        assert set(envelope) == {"schema_version", "version", "command", "elapsed_seconds", "report"}
        assert envelope["command"] == argv
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    else:
        assert code in (1, 2), (argv, code)
        assert "Traceback" not in err, argv
    if code == 1:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_drawn_argv_keep_the_contract(tmp_path, strict_loads):
    paths = {SET_A: tmp_path / "a.txt", SET_B: tmp_path / "b.txt"}

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_invocations())
    def check(drawn):
        argv, text_a, text_b = drawn
        paths[SET_A].write_text(text_a)
        paths[SET_B].write_text(text_b)
        assert_contract([str(paths.get(arg, arg)) for arg in argv], strict_loads)

    check()
