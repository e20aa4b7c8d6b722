"""Span tracing of the sumfree layers from outside the package.

`Tracer.install()` replaces every public function of core, solver,
spectral, structure, weights and equidist -- plus the CLI entry point and
its subcommand handlers -- with a timing wrapper, in every module namespace
that binds the function.  A call from one layer into another therefore
goes through the wrapper too (``weights.heuristic_sum_free``,
``structure.popular_differences``, ``solver.is_sum_free`` as called by
``SolveReport``), and each span records its parent.  `uninstall()` puts the
original bindings back.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import sumfree
from sumfree import cli, core, equidist, solver, spectral, structure, weights

LAYERS = (core, solver, spectral, structure, weights, equidist)
# Every namespace a wrapped function can be looked up from at call time.
NAMESPACES = (sumfree, cli, core, solver, spectral, structure, weights, equidist)

# Per-element helpers called inside the layers' inner loops: a span per call
# would measure the tracer, not the layer.
UNTRACED = frozenset({"equidist.torus_distance", "core.format_rational", "core.parse_rational"})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fft_len(n: int) -> int:
    return 1 << (2 * n).bit_length()


def _windows(N: int, min_length: int) -> int:
    """Chain positions find_dense_progression scans, from its loop bounds."""
    max_step = max(1, N - 1 if min_length == 1 else (N - 1) // (min_length - 1))
    total = 0
    for step in range(1, max_step + 1):
        r = np.arange(1, step + 1)
        m = (N - r) // step + 1
        total += int(np.maximum(m - min_length + 1, 0).sum())
    return total


def _l1_vectors(dim: int, budget: int) -> int:
    """Nonzero integer vectors with sum |q_i| <= budget, up to sign."""
    ball = sum(2**k * math.comb(dim, k) * math.comb(budget, k) for k in range(dim + 1))
    return (ball - 1) // 2


def _count_sweep(args, kwargs, result):
    return {"events": 2 * sum(_arg(args, kwargs, 0, "A").elements)}


def _count_solve(args, kwargs, result):
    return {"nodes": result.nodes_explored, "inexact": int(not result.exact)}


def _count_spectrum(args, kwargs, result):
    return {"fft_points": _arg(args, kwargs, 0, "signal").n_prime}


def _count_tcount(args, kwargs, result):
    return {"fft_points": 2 * _fft_len(len(_arg(args, kwargs, 0, "f")))}


def _count_diffs(args, kwargs, result):
    return {"fft_points": 2 * _fft_len(_arg(args, kwargs, 1, "N"))}


def _count_doubling(args, kwargs, result):
    return {"met": int(result.hypothesis_met)}


def _count_progression(args, kwargs, result):
    return {"windows": _windows(_arg(args, kwargs, 1, "N"), _arg(args, kwargs, 2, "min_length"))}


def _count_alpha(args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    eta = _arg(args, kwargs, 1, "eta")
    positives = sum(v > eta for row in grid.values for v in row)
    return {"pairs": positives * positives}


def _count_push(args, kwargs, result):
    w = _arg(args, kwargs, 0, "w")
    return {"cell_updates": w.modulus * w.cells * _arg(args, kwargs, 1, "params").t_samples}


def _count_irrationality(args, kwargs, result):
    theta = _arg(args, kwargs, 0, "theta")
    budget = math.floor(_arg(args, kwargs, 1, "a_bound"))
    return {"vectors": _l1_vectors(theta.dimension, budget)}


# Counts derived from a call's arguments or result, keyed by span name.
COUNTERS = {
    "solver.dilation_sweep": _count_sweep,
    "solver.max_sum_free_subset": _count_solve,
    "spectral.spectrum": _count_spectrum,
    "spectral.t_count": _count_tcount,
    "spectral.difference_counts": _count_diffs,
    "structure.check_doubling_hypothesis": _count_doubling,
    "structure.find_dense_progression": _count_progression,
    "structure.alpha_tilde": _count_alpha,
    "weights.pushforward_step": _count_push,
    "equidist.irrationality_check": _count_irrationality,
}


class Tracer:
    """Records spans as [name, start, end, parent index, job id, ok, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: str | None = None
        self._targets = self._collect()
        self._saved: list[tuple[object, str, object]] = []

    def _collect(self) -> dict[int, tuple[object, str]]:
        """Original function id -> (function, span name)."""
        targets = {}
        for mod in LAYERS:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                span = f"{short}.{name}"
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                    and span not in UNTRACED
                ):
                    targets[id(fn)] = (fn, span)
        for name, fn in vars(cli).items():
            if inspect.isfunction(fn) and name.startswith("_cmd_"):
                targets[id(fn)] = (fn, "cli." + name[len("_cmd_"):].replace("_", ".", 1))
        targets[id(cli.main)] = (cli.main, "cli.main")
        return targets

    def _wrap(self, fn, name):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = True
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if span[5] and count is not None:
                    span[6] = count(args, kwargs, result)

        return traced

    def install(self) -> None:
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in self._targets.items()}
        for ns in NAMESPACES:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, value = self._saved.pop()
            setattr(ns, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed, busy_s, self_s and summed counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, job, ok, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["failed"] += int(not ok)
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        return sum(
            1
            for name, _s, _e, parent, *_ in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "job", "ok", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
