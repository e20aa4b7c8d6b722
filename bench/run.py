"""Seeded benchmark of the sumfree CLI.

    python3 bench/run.py --workload {exact,large,construction} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  The workload's corpus is generated from --seed into .bench_work/,
and each job takes one input through its chain of `sumfree.cli.main(argv)`
calls, in this process, with stdout captured: one closed-loop client.
Every call's output is checked (see verify.py).  The corpus holds about
--seconds of work on a 2-core reference machine and runs once.

--trace 0 prints the end-to-end metrics; setup_s is the median over
SETUP_PROBES fresh processes, each timed from start until its corpus is
ready, spread between the jobs.  --trace 1 builds a corpus of half the
size and runs every job twice, once plain and once with every layer's
public functions wrapped in spans (tracing.py), so that it takes about as
long as an untraced run, and prints the per-layer metrics.  Either way the last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the
line before it holds the details (environment, failing job ids, sample
counts).  A job fails when a call raises, exits non-zero or fails its
check; `correct` is false when an output fails its check or a call fails
other than by a listed known defect.  Exit status is 0 when the run
completed, whatever it found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("exact", "large", "construction")
# One process generates the load; numpy's BLAS and FFT pools stay at one thread.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Fresh-process set-ups per untraced run, spread evenly between its jobs so
# that their median spans the host's slow and fast spells.
SETUP_PROBES = 7

# Figures from ROADMAP.md's baseline table (random dense n-subsets of [1, 4n]).
ROADMAP_NODES = {40: 280_000, 45: 1_500_000}
ROADMAP_SETS = 3

# Failures that are known defects of the program, by the call that fails.
KNOWN_DEFECTS = {
    "heuristic-int64-overflow": "solve --heuristic raises AssertionError when k*x overflows int64 in the sampled dilations",
    "floor-fallback-refusal": "solve --heuristic exits 1 when sampling misses the floor and the exact sweep is too large",
}

CLI_SUBCOMMANDS = (
    "solve", "sweep", "compose", "catalog", "spectral.u2", "spectral.tcount", "spectral.popdiff",
    "structure.doubling", "structure.alphatilde", "structure.avoidzero", "structure.lev",
    "weight.build", "weight.sample", "experiment", "equidist.check", "equidist.error",
)

# (span name, fields) reported from the traced run; fields are summed over spans.
SPAN_METRICS = (
    ("solver.max_sum_free_subset", ("calls", "busy_s", "self_s", "nodes", "inexact")),
    ("solver.dilation_sweep", ("calls", "busy_s", "events")),
    ("solver.heuristic_sum_free", ("calls", "busy_s", "self_s", "failed")),
    ("solver.is_sum_free", ("calls", "busy_s")),
    ("spectral.u2_norm", ("calls", "busy_s")),
    ("spectral.t_count", ("calls", "busy_s")),
    ("spectral.difference_counts", ("calls", "busy_s")),
    ("spectral.popular_differences", ("self_s",)),
    ("structure.check_doubling_hypothesis", ("calls", "self_s")),
    ("structure.find_dense_progression", ("calls", "busy_s", "windows")),
    ("structure.alpha_tilde", ("calls", "busy_s", "pairs")),
    ("structure.avoid_zero_diagnostic", ("busy_s",)),
    ("structure.lev_check", ("busy_s",)),
    ("weights.build_weight", ("calls", "busy_s")),
    ("weights.pushforward_step", ("calls", "busy_s")),
    ("weights.sample_set", ("busy_s",)),
    ("weights.load_weight", ("busy_s",)),
    ("weights.save_weight", ("busy_s",)),
    ("weights.density_experiment", ("self_s",)),
    ("equidist.irrationality_check", ("busy_s", "vectors")),
    ("equidist.equidist_error", ("busy_s",)),
    ("core.load_set", ("calls", "busy_s")),
    ("core.embed_signal", ("calls", "busy_s")),
    ("core.indicator_vector", ("calls", "busy_s")),
) + tuple((f"cli.{sub}", ("calls", "busy_s")) for sub in CLI_SUBCOMMANDS)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up as a fresh process would, say "ready", and exit.
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ calls


class Failure(Exception):
    def __init__(self, call: int, argv: list[str], reason: str, known: str | None = None, check: bool = False):
        super().__init__(reason)
        self.call, self.argv, self.reason, self.known, self.check = call, argv, reason, known, check


def _known_defect(argv: list[str], exc: BaseException | None, stderr: str) -> str | None:
    if argv[0] != "solve" or "--heuristic" not in argv:
        return None
    if isinstance(exc, AssertionError) and "non-sum-free witness" in str(exc):
        return "heuristic-int64-overflow"
    if exc is None and "too many breakpoints" in stderr:
        return "floor-fallback-refusal"
    return None


def _invoke(cli, argv: list[str]):
    """One in-process CLI call: (seconds, exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a traceback is a failed job, not a failed benchmark
        exc = e
    return perf_counter() - start, code, out.getvalue(), err.getvalue(), exc


def run_job(cli, job) -> tuple[float, list, int]:
    """Run the chain; return (latency, heuristic pairs, stdout bytes) or raise Failure."""
    import verify

    st = dict(job.state, heuristic=[])
    latency = 0.0
    out_bytes = 0
    for i, call in enumerate(job.calls):
        dt, code, out, err, exc = _invoke(cli, call.argv)
        latency += dt
        out_bytes += len(out)
        if exc is not None or code != 0:
            why = f"{type(exc).__name__}: {exc}" if exc is not None else f"exit {code}: {err.strip()[:200]}"
            raise Failure(i, call.argv, why, _known_defect(call.argv, exc, err))
        try:
            envelope = json.loads(out)
            verify.require(envelope["command"] == call.argv and envelope["schema_version"] == 1, "envelope")
            call.check(envelope["report"], st)
        except Exception as e:  # any mismatch or malformed report is a wrong output
            raise Failure(i, call.argv, f"check: {type(e).__name__}: {e}", check=True) from e
    return latency, st["heuristic"], out_bytes


# ------------------------------------------------------------------ setup


def _setup(args) -> tuple[list, Path]:
    import corpus

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    seconds = args.seconds / 2 if args.trace else args.seconds  # traced runs take each job twice
    return corpus.build(args.workload, args.seed, seconds, workdir), workdir


def _probe_setup(args) -> float:
    """Seconds from starting a fresh process until its first job is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def _environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": THREAD_ENV,
        "load_generators": 1,
    }


# ---------------------------------------------------------------- metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(setups, latencies, attempted, heur, rss_kb) -> dict:
    ok = len(latencies)
    h_sum, n_sum = (sum(x) for x in zip(*heur)) if heur else (0, 0)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "jobs_per_s": _metric(ok / sum(latencies), "jobs/s"),
        "job_p50_s": _metric(statistics.median(latencies), "s"),
        "job_p90_s": _metric(statistics.quantiles(latencies, n=10)[-1], "s"),
        "ok_frac": _metric(ok / attempted, "ratio"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
        "heuristic_density": _metric(h_sum / n_sum, "ratio"),
    }


def _per_layer(tracer, plain_s, traced_s, out_bytes) -> dict:
    summary = tracer.summary()
    zero = {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0}

    def row(name):
        return summary.get(name, zero)

    metrics = {}
    for name, fields in SPAN_METRICS:
        for f in fields:
            metrics[f"{name}.{f}"] = _metric(row(name).get(f, 0), UNITS.get(f, "count"))
    sweep = row("solver.dilation_sweep")
    metrics["solver.dilation_sweep.events_per_s"] = _metric(
        sweep.get("events", 0) / sweep["busy_s"] if sweep["busy_s"] else 0.0, "1/s")
    metrics["solver.heuristic_sum_free.sweep_calls"] = _metric(
        tracer.children_named("solver.heuristic_sum_free", "solver.dilation_sweep"), "count")
    doubling = row("structure.check_doubling_hypothesis")
    metrics["structure.check_doubling_hypothesis.met_frac"] = _metric(
        doubling.get("met", 0) / doubling["calls"] if doubling["calls"] else 0.0, "ratio")
    metrics["spectral.fft_points"] = _metric(
        sum(row(n).get("fft_points", 0) for n in ("spectral.spectrum", "spectral.t_count", "spectral.difference_counts")),
        "count")
    metrics["weights.cell_updates"] = _metric(row("weights.pushforward_step").get("cell_updates", 0), "count")
    metrics["cli.self_s"] = _metric(sum(r["self_s"] for n, r in summary.items() if n.startswith("cli.")), "s")
    metrics["cli.output_bytes"] = _metric(out_bytes, "bytes")
    metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1.0, "ratio")
    return metrics


def _roadmap_baseline(cli, seed: int, workdir: Path) -> dict:
    """B&B nodes on random dense n = 40 and 45 sets, next to ROADMAP's figures."""
    import corpus

    out = {}
    for n, roadmap in ROADMAP_NODES.items():
        rng = corpus.rng_for(seed, 40, n)
        nodes = []
        for j in range(ROADMAP_SETS):
            f = corpus.write_set(workdir / f"roadmap{n}_{j}.json", corpus.random_subset(rng, n, 4 * n))
            _, code, stdout, _, exc = _invoke(cli, ["solve", "--set", f])
            if exc is None and code == 0:
                nodes.append(json.loads(stdout)["report"]["nodes_explored"])
        out[f"n{n}"] = {"nodes": nodes, "median": statistics.median(nodes) if nodes else None, "roadmap": roadmap}
    return out


# -------------------------------------------------------------------- run


def run(args) -> dict:
    from sumfree import cli

    import corpus
    import tracing
    import verify

    jobs, workdir = _setup(args)
    setups: list[float] = []
    probe_at = set() if args.trace else {i * len(jobs) // SETUP_PROBES for i in range(SETUP_PROBES)}
    tracer = tracing.Tracer() if args.trace else None
    latencies, heur, failures = [], [], []
    kinds: dict[str, list] = {}  # job kind -> [jobs, seconds], plain runs that succeeded
    plain_s = traced_s = 0.0
    out_bytes = 0
    for index, job in enumerate(jobs):
        if index in probe_at:
            setups.append(_probe_setup(args))
        # Traced runs take every job plain and traced, alternating which goes first.
        modes = (False,) if tracer is None else ((False, True) if index % 2 == 0 else (True, False))
        failed = False
        for traced in modes:
            try:
                if traced:
                    tracer.job = job.id
                    tracer.install()
                try:
                    latency, pairs, nbytes = run_job(cli, job)
                finally:
                    if traced:
                        tracer.uninstall()
            except Failure as f:
                if not failed:
                    failures.append({"job": job.id, "call": f.call, "argv": f.argv, "reason": f.reason,
                                     "known_defect": f.known, "wrong_output": f.check})
                failed = True
                continue
            if traced:
                traced_s += latency
                out_bytes += nbytes
            else:
                plain_s += latency
                latencies.append(latency)
                heur.extend(pairs)
                kind = kinds.setdefault(job.kind, [0, 0.0])
                kind[0] += 1
                kind[1] += latency
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": _environment(),
        "jobs": len(jobs),
        "latency_samples": len(latencies),
        "failed_jobs": failures,
        "kinds": kinds,
        "known_defects": KNOWN_DEFECTS,
        "unmeasured": corpus.UNMEASURED,
        "limits": {"sweep_events": corpus.SWEEP_EVENT_LIMIT, "tcount_n": corpus.TCOUNT_N_LIMIT,
                   "float_rtol": verify.FLOAT_RTOL, "float_atol": verify.FLOAT_ATOL},
    }
    if tracer is None:
        detail["setup_probes_s"] = setups
        metrics = _end_to_end(setups, latencies, len(jobs), heur, rss_kb)
    else:
        metrics = _per_layer(tracer, plain_s, traced_s, out_bytes)
        spans = WORK / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"{args.workload}-{args.seed}.jsonl")
        if args.workload == "exact":
            detail["roadmap_baseline_nodes"] = _roadmap_baseline(cli, args.seed, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    correct = not any(f["wrong_output"] or f["known_defect"] is None for f in failures)
    return {"correct": correct, "attempted": len(jobs), "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "sumfree" / "__init__.py").is_file():
        print(f"error: no sumfree sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import sumfree

    if not Path(sumfree.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported sumfree from {sumfree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, workdir = _setup(args)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
