"""Command line front end.

Every invocation prints one JSON document to stdout wrapped in a fixed
envelope (schema_version, package version, argv echo, elapsed seconds,
report) and a one-line human summary to stderr.  Exit status is 0 on
success, 1 on a domain error (bad input file, violated precondition,
failed check suite), 2 on usage errors from the argument parser.  All
randomized subcommands take an explicit --seed, making reruns
reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache

from . import solver, spectral, structure, weights
from . import equidist as eqd
from .core import (
    SCHEMA_VERSION,
    VERSION,
    IntegerSet,
    SumFreeConvention,
    format_rational,
    load_set,
    parse_rational,
    save_set,
    write_json,
)


# checks.SUITE_NAMES, spelled out so that the parser runs without importing
# the suites and their oracles; a test keeps the two equal
SUITE_NAMES = ("solver", "spectral", "structure", "weights", "equidist", "all")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _set_dict(A: IntegerSet) -> dict:
    obj: dict = {"elements": list(A.elements), "size": len(A)}
    if A.name is not None:
        obj["name"] = A.name
    return obj


def _parse_ints(text: str, label: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{label}: expected comma-separated integers, got {text!r}") from exc


def _parse_theta(text: str) -> eqd.Theta:
    try:
        comps = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"--theta: expected comma-separated reals, got {text!r}") from exc
    return eqd.Theta(comps)


def _parse_progression(text: str) -> structure.Progression:
    parts = _parse_ints(text, "--progression")
    if len(parts) != 3:
        raise ValueError("--progression: expected start,step,length")
    return structure.Progression(*parts)


def _parse_freq(args) -> eqd.LipschitzTestFunction:
    """Build a test function from --freq: 'm1;m2;..' or 'cos:m1;m2;..'.

    The plain form is the single exponential with coefficient 1; the cos:
    form is its real part.  --residue-freq, --interval-freq, and
    --modulus contribute the Z/qZ and [0,1] frequencies.
    """
    spec = args.freq
    cos = spec.startswith("cos:")
    body = spec[4:] if cos else spec
    try:
        orbit = tuple(int(x) for x in body.split(";")) if body else ()
    except ValueError as exc:
        raise ValueError(f"--freq: bad orbit frequencies in {spec!r}") from exc
    a, m = args.residue_freq, args.interval_freq
    if cos:
        terms = (
            eqd.TrigTerm(0.5, a, m, orbit),
            eqd.TrigTerm(0.5, -a, -m, tuple(-x for x in orbit)),
        )
    else:
        terms = (eqd.TrigTerm(1.0, a, m, orbit),)
    return eqd.LipschitzTestFunction(args.modulus, len(orbit), terms)


def _iteration_params(args) -> weights.IterationParams:
    return weights.IterationParams(
        modulus_factor=args.factor,
        interval_shrink=parse_rational(args.shrink),
        t_samples=args.t_samples,
        steps=args.steps,
    )


# ------------------------------------------------------------- handlers


def _cmd_solve(args):
    A = load_set(args.set)
    conv = SumFreeConvention.parse(args.convention)
    if args.heuristic:
        if args.budget is not None:
            raise ValueError("--budget bounds the exact search; drop it or --heuristic")
        rep = solver.heuristic_sum_free(A, conv, seed=0 if args.seed is None else args.seed)
        kind = "verified lower bound"
    else:
        if args.seed is not None:
            raise ValueError("--seed seeds the heuristic; drop it or add --heuristic")
        rep = solver.max_sum_free_subset(A, conv, budget=args.budget)
        kind = "exact" if rep.exact else "budget-limited lower bound"
    return rep.to_json_dict(), f"solve: {rep.optimum} of {len(A)} elements ({kind})", 0


def _cmd_sweep(args):
    A = load_set(args.set)
    cert = solver.dilation_sweep(A)
    note = f"sweep: selected {cert.size} of {len(A)} (floor {solver.one_third_floor(len(A))})"
    return cert.to_json_dict(), note, 0


def _cmd_compose(args):
    A = load_set(args.set_a)
    if args.set_b is not None:
        if args.copies is not None:
            raise ValueError("--copies composes --set-a with itself; drop it or --set-b")
        B = load_set(args.set_b)
        C = solver.compose(A, B, M=args.multiplier)
        note = f"compose: |A|={len(A)}, |B|={len(B)} -> {len(C)} elements"
    elif args.copies is not None:
        if args.multiplier is not None:
            raise ValueError("--multiplier scales --set-b; drop it or --copies")
        C = solver.compose_iterate(A, args.copies)
        note = f"compose: {args.copies} copies of |A|={len(A)} -> {len(C)} elements"
    else:
        raise ValueError("compose needs --set-b or --copies")
    if args.out:
        save_set(C, args.out)
    return {"set": _set_dict(C)}, note, 0


def _cmd_catalog(args):
    entries = []
    code = 0
    for entry in solver.catalog():
        optimum = int(entry.density_bound * len(entry.elements))
        item = {
            "name": entry.name,
            "elements": list(entry.elements.elements),
            "size": len(entry.elements),
            "optimum": optimum,
            "density_bound": format_rational(entry.density_bound),
        }
        if args.verify:
            rep = solver.max_sum_free_subset(entry.elements)
            item["verified"] = bool(rep.exact and rep.optimum == optimum)
            item["witness"] = list(rep.witness)
            if not item["verified"]:
                code = 1
        entries.append(item)
    note = "catalog: " + ", ".join(
        f"{e['name']} {e['optimum']}/{e['size']}" for e in entries
    )
    return {"entries": entries}, note, code


def _cmd_spectral_u2(args):
    A = load_set(args.set)
    rep = spectral.set_u2(A, args.n, args.n_prime)
    return rep.to_json_dict(), f"u2: {rep.u2_norm:.6g} at N'={rep.n_prime}", 0


def _cmd_spectral_tcount(args):
    A = load_set(args.set)
    triples = spectral.ordered_triples(A, args.n)
    t = triples / args.n**2
    report = {"n": args.n, "t_count": t, "ordered_triples": triples}
    return report, f"tcount: {t:.6g} ({triples} ordered triples)", 0


def _cmd_spectral_popdiff(args):
    A = load_set(args.set)
    t = parse_rational(args.threshold)
    diffs = spectral.popular_differences(A, args.n, t)
    report = {
        "n": args.n,
        "threshold": format_rational(t),
        "count": len(diffs),
        "differences": diffs,
    }
    return report, f"popdiff: {len(diffs)} differences at threshold {args.threshold}", 0


def _cmd_structure_doubling(args):
    A = load_set(args.set)
    rep = structure.check_doubling_hypothesis(
        A, args.n, parse_rational(args.eps), parse_rational(args.delta), args.min_length
    )
    verdict = "met" if rep.hypothesis_met else "not met"
    return rep.to_json_dict(), f"doubling: hypothesis {verdict}", 0


def _cmd_structure_alphatilde(args):
    grid = structure.load_alpha_grid(args.grid)
    rep = structure.alpha_tilde(grid, parse_rational(args.eta))
    note = (
        f"alphatilde: lhs {format_rational(rep.lhs_total)} vs "
        f"rhs {format_rational(rep.rhs_bound)}"
    )
    return rep.to_json_dict(), note, 0


def _cmd_structure_avoidzero(args):
    grid = structure.load_grid_set(args.grid)
    rep = structure.avoid_zero_diagnostic(
        grid, args.index_bound, parse_rational(args.min_interval)
    )
    note = (
        f"avoidzero: mass {format_rational(rep.mass)} on stride "
        f"{rep.subgroup_stride} x [0, {format_rational(rep.interval_end)}]"
    )
    return rep.to_json_dict(), note, 0


def _cmd_structure_lev(args):
    P = structure.Progression(args.start, args.step, args.length)
    X = load_set(args.subset)
    covers = structure.lev_check(P, X)
    report = {
        "progression": P.to_json_dict(),
        "subset_size": len(X),
        "covers": covers,
    }
    return report, f"lev: covers={covers}", 0


def _cmd_weight_build(args):
    rep = weights.build_weight(parse_rational(args.eps), _iteration_params(args), args.cells)
    if args.out:
        weights.save_weight(rep.weight, args.out)
    note = (
        f"weight build: {rep.steps} steps -> Q={rep.weight.modulus}, "
        f"alpha {float(rep.weight.alpha_bound):.6f}"
    )
    return rep.to_json_dict(), note, 0


def _cmd_weight_sample(args):
    w = weights.load_weight(args.weight)
    A = weights.sample_set(w, args.n, args.seed)
    if args.out:
        save_set(A, args.out)
    report = {"n": args.n, "seed": args.seed, "set": _set_dict(A)}
    return report, f"sample: {len(A)} of {args.n} integers kept", 0


def _cmd_experiment(args):
    seeds = _parse_ints(args.seeds, "--seeds")
    rep = weights.density_experiment(
        parse_rational(args.eps), _iteration_params(args), args.cells, args.n, seeds
    )
    sizes = [row.set_size for row in rep.rows]
    note = f"experiment: {len(rep.rows)} runs, set sizes {sizes}"
    return rep.to_json_dict(), note, 0


def _cmd_equidist_check(args):
    theta = _parse_theta(args.theta)
    rep = eqd.irrationality_check(theta, parse_rational(args.a), args.n)
    verdict = "holds" if rep.holds else "fails"
    worst = (
        "no vector scanned"
        if rep.worst_distance is None
        else f"worst vector {list(rep.worst_vector)} at distance {rep.worst_distance:.6g}"
    )
    note = f"equidist check: {verdict}, {worst}"
    return rep.to_json_dict(), note, 0


def _cmd_equidist_error(args):
    theta = _parse_theta(args.theta)
    F = _parse_freq(args)
    prog = _parse_progression(args.progression) if args.progression else None
    rep = eqd.equidist_error(theta, F, args.n, prog)
    return rep.to_json_dict(), f"equidist error: {rep.error:.6g}", 0


def _cmd_check(args):
    from . import checks

    rep = checks.run_suite(args.suite, args.seed)
    if rep["passed"]:
        note = f"check: {len(rep['checks'])} checks passed"
        return rep, note, 0
    note = "check: FAILED " + ", ".join(rep["failed"])
    return rep, note, 1


# --------------------------------------------------------------- parser


def _add_set_arg(p, flag="--set"):
    p.add_argument(flag, required=True, help="path to a set file (JSON or text)")


def _add_params_args(p):
    p.add_argument("--factor", type=int, default=2, help="residue modulus factor per step")
    p.add_argument("--shrink", default="1/2", help="interval contraction per step (rational)")
    p.add_argument("--t-samples", type=int, default=8, help="quadrature nodes in [1/2, 1]")
    p.add_argument("--steps", type=int, default=None, help="iteration steps (default: first with alpha below 1/3 + eps/4)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    Reuse is safe: parse_args returns a fresh Namespace each call, and no
    default is mutable.
    """
    p = argparse.ArgumentParser(
        prog="sumfree",
        description="Sum-free subset bounds, spectral diagnostics, and weight iteration.",
    )
    p.add_argument("--version", action="version", version=VERSION)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="maximum sum-free subset of a set")
    _add_set_arg(sp)
    sp.add_argument(
        "--convention",
        default="allow-equal",
        choices=[c.value for c in SumFreeConvention],
        help="whether x+x=z counts as a violating sum",
    )
    sp.add_argument("--heuristic", action="store_true", help="verified lower bound instead of exact search")
    sp.add_argument("--budget", type=int, default=None, help="node budget for the exact search")
    sp.add_argument("--seed", type=int, default=None, help="heuristic random seed (default 0)")
    sp.set_defaults(handler=_cmd_solve)

    sp = sub.add_parser("sweep", help="largest dilation-selected subset, with certificate")
    _add_set_arg(sp)
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("compose", help="combine sets so optima add")
    sp.add_argument("--set-a", required=True, help="first set file")
    sp.add_argument("--set-b", default=None, help="second set file")
    sp.add_argument("--copies", type=int, default=None, help="compose a set with itself this many times")
    sp.add_argument("--multiplier", type=int, default=None, help="scale for the second set (default 2 max(A)+1)")
    sp.add_argument("--out", default=None, help="write the composed set to this file")
    sp.set_defaults(handler=_cmd_compose)

    sp = sub.add_parser("catalog", help="reference sets with small sum-free density")
    sp.add_argument("--verify", action="store_true", help="re-derive each recorded optimum")
    sp.set_defaults(handler=_cmd_catalog)

    spectral_p = sub.add_parser("spectral", help="Fourier-side diagnostics")
    ssub = spectral_p.add_subparsers(dest="subcommand", required=True)
    sp = ssub.add_parser("u2", help="U2 norms of a set's indicator")
    _add_set_arg(sp)
    sp.add_argument("--n", type=int, required=True, help="ambient interval length N")
    sp.add_argument("--n-prime", type=int, default=None, help="cyclic embedding length (default next power of two above 4N)")
    sp.set_defaults(handler=_cmd_spectral_u2)
    sp = ssub.add_parser("tcount", help="normalised count of x+y=z triples")
    _add_set_arg(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_spectral_tcount)
    sp = ssub.add_parser("popdiff", help="popular differences of a set")
    _add_set_arg(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--threshold", required=True, help="popularity threshold t (rational), counts >= t N")
    sp.set_defaults(handler=_cmd_spectral_popdiff)

    structure_p = sub.add_parser("structure", help="additive structure diagnostics")
    ssub = structure_p.add_subparsers(dest="subcommand", required=True)
    sp = ssub.add_parser("doubling", help="popular-difference doubling hypothesis")
    _add_set_arg(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--eps", required=True, help="doubling slack (rational)")
    sp.add_argument("--delta", required=True, help="popularity threshold (rational)")
    sp.add_argument("--min-length", type=int, default=None)
    sp.set_defaults(handler=_cmd_structure_doubling)
    sp = ssub.add_parser("alphatilde", help="grid doubling inequality")
    sp.add_argument("--grid", required=True, help="alpha grid JSON file")
    sp.add_argument("--eta", required=True, help="level threshold (rational)")
    sp.set_defaults(handler=_cmd_structure_alphatilde)
    sp = ssub.add_parser("avoidzero", help="minimal subgroup-box mass of a grid set")
    sp.add_argument("--grid", required=True, help="grid set JSON file")
    sp.add_argument("--index-bound", type=int, required=True)
    sp.add_argument("--min-interval", required=True, help="smallest interval endpoint (rational)")
    sp.set_defaults(handler=_cmd_structure_avoidzero)
    sp = ssub.add_parser("lev", help="five-fold sumset covering check")
    sp.add_argument("--start", type=int, required=True)
    sp.add_argument("--step", type=int, required=True)
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--subset", required=True, help="set file with the dense subset X")
    sp.set_defaults(handler=_cmd_structure_lev)

    weight_p = sub.add_parser("weight", help="weight iteration and sampling")
    wsub = weight_p.add_subparsers(dest="subcommand", required=True)
    sp = wsub.add_parser("build", help="iterate the pushforward from the uniform start")
    sp.add_argument("--eps", required=True, help="target slack (rational in (0,1))")
    sp.add_argument("--cells", type=int, required=True, help="interval cells K")
    _add_params_args(sp)
    sp.add_argument("--out", default=None, help="write the final weight to this file")
    sp.set_defaults(handler=_cmd_weight_build)
    sp = wsub.add_parser("sample", help="Bernoulli-sample a set from a weight")
    sp.add_argument("--weight", required=True, help="weight JSON file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None, help="write the sampled set to this file")
    sp.set_defaults(handler=_cmd_weight_sample)

    sp = sub.add_parser("experiment", help="build, sample, and bound end to end")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--cells", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seeds", required=True, help="comma-separated sample seeds")
    _add_params_args(sp)
    sp.set_defaults(handler=_cmd_experiment)

    equidist_p = sub.add_parser("equidist", help="irrationality and equidistribution")
    esub = equidist_p.add_subparsers(dest="subcommand", required=True)
    sp = esub.add_parser("check", help="quantitative irrationality scan")
    sp.add_argument("--theta", required=True, help="comma-separated torus coordinates")
    sp.add_argument("--a", required=True, help="denominator budget A (rational)")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_equidist_check)
    sp = esub.add_parser("error", help="orbit average minus exact integral")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--freq", required=True, help="'m1;m2;..' exponential or 'cos:m1;..'")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--modulus", type=int, default=1, help="residue modulus q")
    sp.add_argument("--residue-freq", type=int, default=0)
    sp.add_argument("--interval-freq", type=int, default=0)
    sp.add_argument("--progression", default=None, help="start,step,length to average over")
    sp.set_defaults(handler=_cmd_equidist_error)

    sp = sub.add_parser("check", help="randomized property suites")
    sp.add_argument("--suite", required=True, choices=SUITE_NAMES)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=_cmd_check)

    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    # by name, so a wrapper set on this module after the build is the one called
    handler = globals()[args.handler.__name__]
    start = time.perf_counter()
    try:
        report, note, code = handler(args)
    except (ValueError, OverflowError, OSError) as exc:
        _note(f"error: {exc}")
        return 1
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "version": VERSION,
        "command": argv,
        "elapsed_seconds": round(time.perf_counter() - start, 6),
        "report": report,
    }
    write_json(envelope, sys.stdout)
    _note(note)
    return code


if __name__ == "__main__":
    sys.exit(main())
