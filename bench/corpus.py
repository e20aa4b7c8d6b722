"""Seeded corpus generator and job chains for the three workloads.

`build(workload, seed, seconds, workdir)` writes the set and grid files the
CLI reads into `workdir` and returns the job list.  A job is one input taken
through its workload's chain of CLI calls; every call carries a check from
`verify`.  The same (workload, seed, seconds) gives the same files and jobs.

Class sizes and counts are fixed per workload and only the instances are
drawn from the seed, so that run-to-run spread comes from the program and
from genuinely different inputs of the same shape.  Counts are given per
UNIT_SECONDS of work on a 2-core x86 reference machine and scale with
--seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import verify

UNIT_SECONDS = 20

# The CLI sweep and `spectral tcount` are only called where their arrays stay
# small: 2*sum(A) <= SWEEP_EVENT_LIMIT keeps the sweep's event arrays near
# 0.2 GB, and max(A) <= TCOUNT_N_LIMIT keeps the FFT at 2^21 points.
SWEEP_EVENT_LIMIT = 2_000_000
TCOUNT_N_LIMIT = 1_000_000

# Paths no workload reaches, on purpose.
UNMEASURED = {
    "solver._sweep_events_exact": (
        "the pure-Fraction sweep taken when an element exceeds 10^7; one job would hold "
        "tens of millions of Fractions (gigabytes) on a 7 GB machine shared with others"
    ),
    "sumfree check": "the property suite; its cost is tracked as tier-1 test wall time",
}

CATALOG = {"klarner": [2, 3, 4, 5, 6, 8, 10], "malouf": [1, 2, 3, 4, 5, 6, 8, 9, 10, 18]}
CONVENTIONS = ("allow-equal", "distinct")

Check = Callable[[dict, dict], None]


@dataclass
class Call:
    argv: list[str]
    check: Check


@dataclass
class Job:
    id: str
    kind: str
    calls: list[Call] = field(default_factory=list)
    # What the checks start from; each run of the job gets a fresh copy, to
    # which checks add what later checks need, and (witness size, input
    # size) pairs under "heuristic" for each heuristic call or experiment row.
    state: dict = field(default_factory=dict)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _count(per_unit: int, scale: float) -> int:
    return max(1, round(per_unit * scale))


def write_set(path: Path, elems) -> str:
    path.write_text(json.dumps({"elements": [int(x) for x in elems]}))
    return str(path)


def rat(x: Fraction) -> str:
    """A rational as the CLI parses it, "num/den"."""
    return f"{x.numerator}/{x.denominator}"


def random_subset(rng: np.random.Generator, n: int, top: int) -> list[int]:
    return sorted(int(x) for x in rng.choice(top, size=n, replace=False) + 1)


# ------------------------------------------------------------ shared checks


_EXHAUSTIVE: dict[tuple[tuple[int, ...], str], int] = {}


def exhaustive_optimum(part: list[int], convention: str) -> int:
    """Reference optimum of a small part from the package's exhaustive oracle."""
    from sumfree import IntegerSet, SumFreeConvention, exhaustive_max_sum_free

    key = (tuple(part), convention)
    if key not in _EXHAUSTIVE:
        conv = SumFreeConvention.parse(convention)
        _EXHAUSTIVE[key] = exhaustive_max_sum_free(IntegerSet(tuple(part)), conv)[0]
    return _EXHAUSTIVE[key]


def _composed_job(d: Path, kind: str, j: int, part: list[int], k: int) -> tuple[Job, str, list[int]]:
    """A job whose chain starts with `compose --copies k`: (job, output file, composed set)."""
    job = Job(f"{kind}-{j}", kind)
    part_file = write_set(d / f"{kind}_{j}_part.json", part)
    out = str(d / f"{kind}_{j}.json")
    elems = verify.compose_copies(part, k)

    def check(report, st):
        verify.require(report["set"]["elements"] == elems, "compose: elements differ")
        st["elements"] = elems

    job.calls.append(Call(["compose", "--set-a", part_file, "--copies", str(k), "--out", out], check))
    return job, out, elems


def _sweep_call(job: Job, set_file: str) -> None:
    def check(report, st):
        size = verify.sweep(report, st["elements"])
        if "optimum" in st:
            verify.require(size <= st["optimum"], "sweep: above the exact optimum")

    job.calls.append(Call(["sweep", "--set", set_file], check))


def _heuristic_call(job: Job, set_file: str, convention: str, seed: int) -> None:
    def check(report, st):
        size = verify.heuristic(report, st["elements"], convention)
        if "optimum" in st:
            verify.require(size <= st["optimum"], "heuristic: above the exact optimum")
        st["heuristic"].append((size, len(st["elements"])))

    argv = ["solve", "--set", set_file, "--heuristic", "--convention", convention, "--seed", str(seed)]
    job.calls.append(Call(argv, check))


# ------------------------------------------------------------------ exact

# Random dense n-subsets of [1, 4n]: (n, jobs per unit).  B&B time grows
# about 4x per 4 elements and varies 50-70% between instances of one n
# (76% at n = 40), so a class with few heavy instances moves a whole run:
# the loop stops at n = 36, and n = 40 and 45 are solved on their own in
# traced runs.  Most jobs are n = 30 and 32, where the median job falls, so
# that the median is taken inside one mass of similar jobs.
DENSE = ((24, 6), (26, 6), (28, 10), (30, 24), (32, 24), (34, 8), (36, 3))
# k-fold compositions of random parts of [1, 3n]: (part size, copies, jobs
# per unit).  B&B cost on compositions is heavy-tailed in the part (8 x 4
# ranged from 0.03 to 5 s), so random parts stay at 3 copies; drawn from
# [1, 3n], their sweeps stay below klarner x 4's, which sets peak memory.
RANDOM_COMPOSE = ((8, 2, 2), (8, 3, 3), (10, 2, 2), (12, 2, 2), (14, 2, 2))
# k-fold compositions of the catalog sets, exact: malouf x 4 alone takes 86 s.
CATALOG_COMPOSE = (("klarner", 2), ("klarner", 3), ("klarner", 4), ("malouf", 2), ("malouf", 3))
# 5-copy compositions solved under a node budget (unbounded: millions of nodes).
BUDGET_PARTS = (("klarner", 0), ("malouf", 0), ("random", 8), ("random", 10))
BUDGET_NODES = 100_000
BUDGET_PER_PART = 3


def _exact_chain(job: Job, set_file: str, elems: list[int], convention: str, seed: int, solve: Call) -> None:
    job.calls.append(solve)
    if 2 * sum(elems) <= SWEEP_EVENT_LIMIT:
        _sweep_call(job, set_file)
    _heuristic_call(job, set_file, convention, seed)


def _solve_call(set_file: str, convention: str, expected: Callable[[], int] | None) -> Call:
    def check(report, st):
        verify.solve_exact(report, st["elements"], convention, expected() if expected else None)
        st["optimum"] = report["optimum"]

    return Call(["solve", "--set", set_file, "--convention", convention], check)


def _exact_jobs(seed: int, scale: float, d: Path) -> list[Job]:
    jobs: list[Job] = []
    for ci, (n, per_unit) in enumerate(DENSE):
        rng = rng_for(seed, 1, ci)
        for j in range(_count(per_unit, scale)):
            conv = CONVENTIONS[j % 2]
            elems = random_subset(rng, n, 4 * n)
            f = write_set(d / f"dense{n}_{j}.json", elems)
            job = Job(f"dense{n}-{j}", f"dense{n}", state={"elements": elems})
            _exact_chain(job, f, elems, conv, j, _solve_call(f, conv, None))
            jobs.append(job)

    def composed(kind: str, part: list[int], k: int, conv: str, j: int) -> Job:
        job, out, elems = _composed_job(d, kind, j, part, k)
        _exact_chain(job, out, elems, conv, j, _solve_call(out, conv, lambda: k * exhaustive_optimum(part, conv)))
        return job

    for ci, (n, k, per_unit) in enumerate(RANDOM_COMPOSE):
        rng = rng_for(seed, 2, ci)
        for j in range(_count(per_unit, scale)):
            jobs.append(composed(f"rand{n}x{k}", random_subset(rng, n, 3 * n), k, CONVENTIONS[j % 2], j))
    for name, k in CATALOG_COMPOSE:
        for j in range(_count(1, scale)):
            for conv in CONVENTIONS:
                jobs.append(composed(f"{name}x{k}-{conv}", CATALOG[name], k, conv, j))

    rng = rng_for(seed, 3)
    for name, n in BUDGET_PARTS:
        for j in range(_count(BUDGET_PER_PART, scale)):
            part = CATALOG[name] if name in CATALOG else random_subset(rng, n, 4 * n)
            job, out, elems = _composed_job(d, f"budget-{name}{n or ''}x5", j, part, 5)

            def check(report, st, part=part):
                upper = 5 * exhaustive_optimum(part, "allow-equal")
                verify.solve_budget(report, st["elements"], "allow-equal", BUDGET_NODES, upper)

            solve = Call(["solve", "--set", out, "--budget", str(BUDGET_NODES)], check)
            _exact_chain(job, out, elems, "allow-equal", j, solve)
            jobs.append(job)

    for j in range(_count(1, scale)):
        job = Job(f"catalog-{j}", "catalog")
        job.calls.append(Call(["catalog", "--verify"], lambda report, st: verify.catalog(
            report, {name: (elems, exhaustive_optimum(elems, "allow-equal")) for name, elems in CATALOG.items()})))
        jobs.append(job)
    return jobs


# ------------------------------------------------------------------ large

# Full-sweep sets (2*sum(A) <= SWEEP_EVENT_LIMIT): (n, max element, jobs per unit).
SWEEP_SETS = ((200, 1000, 3), (250, 2000, 3), (300, 3000, 3), (400, 4000, 3))
# Sampled-dilation sets (2*sum(A) > 2e6 inside the heuristic).
SAMPLED_N = (200, 500, 1000, 2000, 3000)
SAMPLED_MAX = (10_000, 100_000, 300_000)
SAMPLED_PER_UNIT = 5
# compose --copies outputs: part (n, max element); copies grow while the
# largest element stays <= COMPOSE_MAX, which reaches 10^14..10^15 where
# k*x in the sampled dilations leaves the int64 range.
COMPOSE_PARTS = ((100, 1_000), (200, 3_000), (300, 10_000), (200, 50_000), (400, 60_000), (500, 200_000))
COMPOSE_PER_UNIT = 5
COMPOSE_MAX = 10**15
# compose --copies 3 of 2520*A (A a random n-subset of [1, top]).  Every
# element is 0 mod each q <= 10, so no residue candidate can outvote the
# sampled dilations, whose k*x leaves the int64 range at these sizes: the
# jobs where the heuristic's known overflow shows instead of being masked.
DILATED_PARTS = ((40, 100), (60, 150))
DILATED_PER_UNIT = 3
DILATION = 2520


def _large_chain(job: Job, set_file: str, elems: list[int], seed: int) -> None:
    if 2 * sum(elems) <= SWEEP_EVENT_LIMIT:
        _sweep_call(job, set_file)
    _heuristic_call(job, set_file, "allow-equal", seed)
    top = max(elems)
    if top <= TCOUNT_N_LIMIT:
        job.calls.append(
            Call(
                ["spectral", "tcount", "--set", set_file, "--n", str(top)],
                lambda report, st: verify.tcount(report, st["elements"], top),
            )
        )


def _large_jobs(seed: int, scale: float, d: Path) -> list[Job]:
    jobs: list[Job] = []
    for ci, (n, top, per_unit) in enumerate(SWEEP_SETS):
        rng = rng_for(seed, 11, ci)
        for j in range(_count(per_unit, scale)):
            elems = random_subset(rng, n, top)
            f = write_set(d / f"sweep{n}_{top}_{j}.json", elems)
            job = Job(f"sweep{n}_{top}-{j}", "sweep", state={"elements": elems})
            _large_chain(job, f, elems, j)
            jobs.append(job)
    ci = 0
    for n in SAMPLED_N:
        for top in SAMPLED_MAX:
            rng = rng_for(seed, 12, ci)
            ci += 1
            for j in range(_count(SAMPLED_PER_UNIT, scale)):
                elems = random_subset(rng, n, top)
                f = write_set(d / f"sampled{n}_{top}_{j}.json", elems)
                job = Job(f"sampled{n}_{top}-{j}", "sampled", state={"elements": elems})
                _large_chain(job, f, elems, j)
                jobs.append(job)
    for ci, (n, top) in enumerate(COMPOSE_PARTS):
        rng = rng_for(seed, 13, ci)
        k = 1
        while verify.compose_copies([top], k + 1)[-1] <= COMPOSE_MAX and k < 4:
            k += 1
        for j in range(_count(COMPOSE_PER_UNIT, scale)):
            job, out, elems = _composed_job(d, f"compose{n}_{top}x{k}", j, random_subset(rng, n, top), k)
            _large_chain(job, out, elems, j)
            jobs.append(job)
    for ci, (n, top) in enumerate(DILATED_PARTS):
        rng = rng_for(seed, 14, ci)
        for j in range(_count(DILATED_PER_UNIT, scale)):
            part = [DILATION * x for x in random_subset(rng, n, top)]
            job, out, elems = _composed_job(d, f"dilated{n}_{top}x3", j, part, 3)
            _large_chain(job, out, elems, j)
            jobs.append(job)
    return jobs


# ----------------------------------------------------------- construction

# Weight chains: (cells K, steps, sample N, doubling hypothesis meant to hold).
# "met" chains use eps 1/10^4 and delta 1/1000, so few differences are
# popular and the progression scan runs; the others use eps 1/2 and delta
# 2/N, whose allowance 4|A| - N/2 is negative for these sparse samples.
WEIGHT_CHAINS = ((64, 4, 20_000, True), (128, 5, 50_000, True), (256, 6, 100_000, False),
                 (512, 7, 400_000, False), (1024, 8, 1_000_000, False))
# experiment: (cells, steps, N, jobs per unit); the first slot's rows stay
# under 64 elements, so the exact solver runs on them.
EXPERIMENTS = ((8, 2, 120, 6), (16, 3, 2_000, 4), (32, 4, 20_000, 4))
# alpha grids q x M and grid sets q x K: (q, M, jobs per unit).
GRIDS = ((8, 8, 10), (12, 12, 10), (16, 16, 6), (20, 20, 6), (24, 24, 2))
GRID_DEN = 16
GRID_POSITIVE = 0.6  # share of cells above eta: fixes the O(P^2) pair count per shape
# equidist chains: (torus dimension, a_bound, N, jobs per unit)
EQUIDIST = ((1, 200, 100_000, 18), (2, 60, 100_000, 18), (3, 16, 200_000, 18))
SHRINKS = ("1/2", "2/3", "3/4")


def _weight_chain(job: Job, d: Path, cells: int, steps: int, n: int, met: bool, rng) -> None:
    eps = Fraction(1, int(rng.integers(3, 13)))
    shrink = SHRINKS[int(rng.integers(0, len(SHRINKS)))]
    seed = int(rng.integers(0, 2**32))
    wfile, sfile = str(d / f"{job.id}_w.json"), str(d / f"{job.id}_s.json")
    build = ["weight", "build", "--eps", rat(eps), "--cells", str(cells),
             "--steps", str(steps), "--shrink", shrink, "--out", wfile]

    def check_build(report, st):
        verify.weight_build(report, eps, cells, steps, factor=2)  # the CLI's default --factor
        st["weight"] = report["weight"]

    job.calls.append(Call(build, check_build))

    def check_sample(report, st):
        st["elements"] = verify.sample(report, st["weight"], n, seed)
        verify.require(len(st["elements"]) > 0, "sample: empty")

    job.calls.append(Call(["weight", "sample", "--weight", wfile, "--n", str(n), "--seed", str(seed),
                           "--out", sfile], check_sample))
    job.calls.append(Call(["spectral", "u2", "--set", sfile, "--n", str(n)],
                          lambda report, st: verify.u2(report, st["elements"], n)))
    job.calls.append(Call(["spectral", "tcount", "--set", sfile, "--n", str(n)],
                          lambda report, st: verify.tcount(report, st["elements"], n)))
    t = Fraction(2, n)
    job.calls.append(Call(["spectral", "popdiff", "--set", sfile, "--n", str(n), "--threshold", rat(t)],
                          lambda report, st: verify.popdiff(report, st["elements"], n, t)))
    d_eps, delta = (Fraction(1, 10_000), Fraction(1, 1000)) if met else (Fraction(1, 2), t)

    def check_doubling(report, st):
        verify.doubling(report, st["elements"], n, d_eps, delta)

    job.calls.append(Call(["structure", "doubling", "--set", sfile, "--n", str(n), "--eps",
                           rat(d_eps), "--delta", rat(delta)], check_doubling))


def _grid_chain(job: Job, d: Path, q: int, m: int, rng) -> None:
    cells = q * m
    positive = rng.permutation(cells) < round(GRID_POSITIVE * cells)
    eta = Fraction(int(rng.integers(1, 4)), GRID_DEN)  # 1/16 .. 3/16
    low = int(eta * GRID_DEN)
    nums = np.where(positive, rng.integers(low + 1, GRID_DEN + 1, cells), rng.integers(0, low + 1, cells))
    gfile = d / f"{job.id}_alpha.json"
    gfile.write_text(json.dumps({"q": q, "M": m, "values": [f"{int(v)}/{GRID_DEN}" for v in nums]}))
    job.calls.append(Call(["structure", "alphatilde", "--grid", str(gfile), "--eta", rat(eta)],
                          lambda report, st: verify.alphatilde(report, q, m, nums, GRID_DEN, eta)))
    member = rng.random((q, m)) < 0.5
    sfile = d / f"{job.id}_set.json"
    sfile.write_text(json.dumps({"q": q, "K": m, "values": [int(v) for v in member.ravel()]}))
    divisors = [s for s in range(1, q + 1) if q % s == 0]
    bound = divisors[int(rng.integers(0, len(divisors)))]
    lo = Fraction(int(rng.integers(1, m + 1)), m)
    job.calls.append(Call(["structure", "avoidzero", "--grid", str(sfile), "--index-bound", str(bound),
                           "--min-interval", rat(lo)],
                          lambda report, st: verify.avoidzero(report, member, bound, lo)))


def _equidist_chain(job: Job, d: Path, dim: int, a_bound: int, n: int, rng) -> None:
    theta = [float(x) for x in rng.random(dim)]
    theta_arg = ",".join(repr(x) for x in theta)
    job.calls.append(Call(["equidist", "check", "--theta", theta_arg, "--a", str(a_bound), "--n", str(n)],
                          lambda report, st: verify.irrationality(report, theta, a_bound, n)))
    orbit = [int(x) for x in rng.integers(1, 6, dim)]
    modulus = int(rng.integers(1, 8))
    residue, interval = int(rng.integers(0, modulus)), int(rng.integers(0, 4))
    step = int(rng.integers(1, 8))
    length = int(rng.integers(n // (4 * step), n // step))
    start = int(rng.integers(1, n - (length - 1) * step + 1))
    points = np.arange(start, start + length * step, step, dtype=np.int64)
    argv = ["equidist", "error", "--theta", theta_arg, "--freq", "cos:" + ";".join(map(str, orbit)),
            "--n", str(n), "--modulus", str(modulus), "--residue-freq", str(residue),
            "--interval-freq", str(interval), "--progression", f"{start},{step},{length}"]
    job.calls.append(Call(argv, lambda report, st: verify.equidist_error(
        report, theta, orbit, n, modulus, residue, interval, points)))
    # Lev covering: a dense subset X of a progression P of 13..600 terms.
    p_len = int(rng.integers(13, 601))
    p_start, p_step = int(rng.integers(1, 1000)), int(rng.integers(1, 50))
    k = int(rng.integers(p_len // 2 + 1, p_len + 1))
    idx = np.sort(rng.choice(p_len, size=k, replace=False))
    xfile = write_set(d / f"{job.id}_x.json", (p_start + p_step * idx).tolist())
    job.calls.append(Call(["structure", "lev", "--start", str(p_start), "--step", str(p_step),
                           "--length", str(p_len), "--subset", xfile],
                          lambda report, st: verify.lev(report, p_start, p_step, p_len, k)))


def _construction_jobs(seed: int, scale: float, d: Path) -> list[Job]:
    jobs: list[Job] = []
    for ci, (cells, steps, n, met) in enumerate(WEIGHT_CHAINS):
        rng = rng_for(seed, 21, ci)
        for j in range(_count(1, scale)):
            job = Job(f"weight{cells}_{steps}-{j}", "weight")
            _weight_chain(job, d, cells, steps, n, met, rng)
            jobs.append(job)
    for ci, (cells, steps, n, per_unit) in enumerate(EXPERIMENTS):
        rng = rng_for(seed, 22, ci)
        for j in range(_count(per_unit, scale)):
            eps = Fraction(1, int(rng.integers(3, 13)))
            seeds = [int(s) for s in rng.integers(0, 2**32, 3)]
            argv = ["experiment", "--eps", rat(eps), "--cells", str(cells),
                    "--n", str(n), "--seeds", ",".join(map(str, seeds)), "--steps", str(steps)]
            job = Job(f"experiment{cells}_{steps}-{j}", "experiment")

            def check(report, st, eps=eps, cells=cells, n=n, steps=steps, seeds=seeds):
                st["heuristic"].extend(verify.experiment(report, eps, cells, n, steps, seeds))

            job.calls.append(Call(argv, check))
            jobs.append(job)
    for ci, (q, m, per_unit) in enumerate(GRIDS):
        rng = rng_for(seed, 23, ci)
        for j in range(_count(per_unit, scale)):
            job = Job(f"grid{q}x{m}-{j}", "grid")
            _grid_chain(job, d, q, m, rng)
            jobs.append(job)
    for ci, (dim, a_bound, n, per_unit) in enumerate(EQUIDIST):
        rng = rng_for(seed, 24, ci)
        for j in range(_count(per_unit, scale)):
            job = Job(f"equidist{dim}-{j}", "equidist")
            _equidist_chain(job, d, dim, a_bound, n, rng)
            jobs.append(job)
    return jobs


JOB_LISTS = {"exact": _exact_jobs, "large": _large_jobs, "construction": _construction_jobs}


def build(workload: str, seed: int, seconds: float, workdir: Path) -> list[Job]:
    """Write the workload's input files into workdir and return its jobs in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = JOB_LISTS[workload](seed, seconds / UNIT_SECONDS, workdir)
    order = rng_for(seed, 99).permutation(len(jobs))
    return [jobs[i] for i in order]
