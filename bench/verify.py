"""Output checks, written independently of the sumfree code they check.

Each check takes a CLI report (the envelope's "report" member) and raises
CheckFailed on the first mismatch.  Exact fields (integers, rationals,
witnesses, booleans) must match exactly; float fields must agree with an
independent recomputation within FLOAT_RTOL (relative) or FLOAT_ATOL
(absolute), whichever is looser.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction

import numpy as np

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got: float, want: float, what: str) -> None:
    require(
        math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL),
        f"{what}: got {got!r}, expected {want!r}",
    )


def floor_size(n: int) -> int:
    return -(-(n + 1) // 3)


# ----------------------------------------------------------------- sets


def _pair_sums_hit(a: np.ndarray, distinct: bool) -> bool:
    """Is some x + y (x <= y, or x < y when distinct) again in sorted a?"""
    n = len(a)
    cols = np.arange(n)
    for lo in range(0, n, 256):
        rows = np.arange(lo, min(lo + 256, n))
        sums = a[rows, None] + a[None, :]
        keep = cols[None, :] > rows[:, None] if distinct else cols[None, :] >= rows[:, None]
        idx = np.minimum(np.searchsorted(a, sums), n - 1)
        if np.any(keep & (a[idx] == sums)):
            return True
    return False


def is_sum_free(elems, allow_equal: bool = True) -> bool:
    elems = sorted(elems)
    if not elems:
        return True
    if elems[-1] < 2**62 and elems[0] > -(2**62):
        return not _pair_sums_hit(np.asarray(elems, dtype=np.int64), not allow_equal)
    members = set(elems)
    return not any(
        x + y in members for i, x in enumerate(elems) for y in elems[i if allow_equal else i + 1 :]
    )


def ordered_triples(elems) -> int:
    """#{(x, y) in A^2 : x + y in A}, counted exactly."""
    a = np.asarray(sorted(elems), dtype=np.int64)
    n = len(a)
    total = 0
    for lo in range(0, n, 256):
        sums = a[lo : lo + 256, None] + a[None, :]
        idx = np.minimum(np.searchsorted(a, sums), n - 1)
        total += int(np.count_nonzero(a[idx] == sums))
    return total


def compose(parts_a: list[int], part_b: list[int]) -> list[int]:
    m = 2 * max(parts_a) + 1
    return sorted(set(parts_a) | {m * b for b in part_b})


def compose_copies(part: list[int], k: int) -> list[int]:
    out = list(part)
    for _ in range(k - 1):
        out = compose(out, part)
    return out


def dilation_select(elems, theta: Fraction) -> list[int]:
    num, den = theta.numerator, theta.denominator
    return [x for x in elems if den < 3 * (num * x % den) < 2 * den]


def witness(report: dict, elems, allow_equal: bool, what: str) -> list[int]:
    wit = report["witness"]
    require(wit == sorted(set(wit)), f"{what}: witness not strictly increasing")
    require(set(wit) <= set(elems), f"{what}: witness is not a subset of the input")
    require(is_sum_free(wit, allow_equal), f"{what}: witness is not sum-free")
    require(report["optimum"] == len(wit), f"{what}: optimum != witness size")
    require(report["input_size"] == len(elems), f"{what}: input_size mismatch")
    return wit


def solve_exact(report: dict, elems, convention: str, expected: int | None) -> None:
    require(report["convention"] == convention, "solve: convention mismatch")
    require(report["exact"] is True, "solve: not exact without a budget")
    require(report["nodes_explored"] >= 1, "solve: no nodes explored")
    witness(report, elems, convention == "allow-equal", "solve")
    if expected is not None:
        require(report["optimum"] == expected, f"solve: optimum {report['optimum']} != expected {expected}")


def solve_budget(report: dict, elems, convention: str, budget: int, upper: int) -> None:
    witness(report, elems, convention == "allow-equal", "solve --budget")
    if report["exact"]:
        require(report["optimum"] == upper, "solve --budget: exact optimum != expected")
        require(report["nodes_explored"] <= budget, "solve --budget: exact beyond budget")
    else:
        require(report["nodes_explored"] == budget + 1, "solve --budget: node count != budget + 1")
        require(report["optimum"] <= upper, "solve --budget: lower bound above the optimum")


def sweep(report: dict, elems) -> int:
    theta = Fraction(report["theta"])
    require(0 < theta < 1, "sweep: theta outside (0, 1)")
    sel = dilation_select(elems, theta)
    require(report["selected"] == sel, "sweep: selection differs from re-selection at theta")
    require(report["size"] == len(sel), "sweep: size != selection size")
    require(len(sel) >= floor_size(len(elems)), "sweep: below ceil((n+1)/3)")
    require(is_sum_free(sel, True), "sweep: selection is not sum-free")
    return len(sel)


def heuristic(report: dict, elems, convention: str) -> int:
    require(report["exact"] is False and report["nodes_explored"] == 0, "heuristic: bad flags")
    require(report["convention"] == convention, "heuristic: convention mismatch")
    wit = witness(report, elems, convention == "allow-equal", "heuristic")
    require(len(wit) >= floor_size(len(elems)), "heuristic: below ceil((n+1)/3)")
    return len(wit)


def catalog(report: dict, expected: dict[str, tuple[list[int], int]]) -> None:
    entries = {e["name"]: e for e in report["entries"]}
    require(set(entries) == set(expected), "catalog: entry names differ")
    for name, (elems, optimum) in expected.items():
        e = entries[name]
        require(e["elements"] == elems and e["size"] == len(elems), f"catalog: {name} elements")
        require(e["optimum"] == optimum, f"catalog: {name} optimum {e['optimum']} != {optimum}")
        require(Fraction(e["density_bound"]) == Fraction(optimum, len(elems)), f"catalog: {name} density")
        require(e["verified"] is True, f"catalog: {name} not verified")
        w = e["witness"]
        require(len(w) == optimum and set(w) <= set(elems) and is_sum_free(w), f"catalog: {name} witness")


def tcount(report: dict, elems, n: int) -> None:
    triples = ordered_triples(elems)
    require(report["n"] == n, "tcount: n mismatch")
    require(report["ordered_triples"] == triples, f"tcount: ordered_triples {report['ordered_triples']} != {triples}")
    close(report["t_count"], triples / n**2, "tcount: t_count")


# ------------------------------------------------------------- spectral


def overlap_counts(elems, n: int) -> np.ndarray:
    """|A ∩ (A + d)| for d = 0..n-1, counted from all pairwise differences."""
    a = np.asarray(elems, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, len(a), 256):
        diffs = (a[None, :] - a[lo : lo + 256, None]).ravel()
        counts += np.bincount(diffs[diffs >= 0], minlength=n)[:n]
    return counts


def popular(elems, n: int, t: Fraction) -> list[int]:
    counts = overlap_counts(elems, n)
    pos = np.nonzero(counts * t.denominator >= t.numerator * n)[0]
    return sorted({int(d) for d in pos} | {-int(d) for d in pos})


def u2(report: dict, elems, n: int) -> None:
    n_prime = 1 << (4 * n).bit_length()
    require(report["n"] == n and report["n_prime"] == n_prime, "u2: sizes")
    v = np.zeros(n_prime)
    v[np.asarray(elems)] = 1.0
    c4 = np.abs(np.fft.rfft(v) / n_prime) ** 4  # real signal: the other half mirrors r = 1..n'/2-1
    group = float((c4[0] + c4[-1] + 2 * c4[1:-1].sum()) ** 0.25)
    interval = ((2 * n**3 + n) / (3 * n_prime**3)) ** 0.25  # additive quadruples of [1, N]
    close(report["u2_group_norm"], group, "u2: group norm")
    close(report["u2_norm"], group / interval, "u2: interval norm")


def popdiff(report: dict, elems, n: int, t: Fraction) -> None:
    want = popular(elems, n, t)
    require(report["threshold"] == f"{t.numerator}/{t.denominator}", "popdiff: threshold")
    require(report["differences"] == want and report["count"] == len(want), "popdiff: differences")


def doubling(report: dict, elems, n: int, eps: Fraction, delta: Fraction) -> bool:
    count = len(popular(elems, n, delta))
    allowance = 4 * len(elems) - eps * n
    met = count <= allowance
    require(report["popular_count"] == count, "doubling: popular_count")
    require(Fraction(report["doubling_allowance"]) == allowance, "doubling: allowance")
    require(report["hypothesis_met"] is met, "doubling: verdict")
    require(report["delta"] == float(delta) and report["set_size"] == len(elems), "doubling: echo")
    prog = report["progression"]
    require((prog is not None) is met, "doubling: progression present iff met")
    if met:
        p = prog["progression"]
        last = p["start"] + (p["length"] - 1) * p["step"]
        require(p["start"] >= 1 and last <= n and p["length"] >= report["min_length"], "doubling: window")
        hits = len(set(range(p["start"], last + 1, p["step"])) & set(elems))
        require(prog["hits"] == hits, "doubling: hits")
        require(Fraction(prog["density"]) == Fraction(hits, p["length"]), "doubling: density")
        target = Fraction(1, 2) + eps / 5
        require(Fraction(prog["target"]) == target, "doubling: target")
        require(prog["meets_target"] is (Fraction(hits, p["length"]) >= target), "doubling: meets_target")
    return met


# -------------------------------------------------------------- weights


def alpha_trail(eps: Fraction, steps: int) -> list[Fraction]:
    fixed = Fraction(1, 3) + eps / 8
    out = [Fraction(1)]
    for _ in range(steps):
        out.append(Fraction(3, 4) * out[-1] + Fraction(1, 4) * fixed)
    return out


def weight_build(report: dict, eps: Fraction, cells: int, steps: int, factor: int) -> None:
    trail = alpha_trail(eps, steps)
    require(Fraction(report["eps"]) == eps and report["steps"] == steps, "build: echo")
    require([Fraction(a) for a in report["alpha_trail"]] == trail, "build: alpha trail")
    w = report["weight"]
    require(w["Q"] == factor**steps and w["K"] == cells and w["generation"] == steps, "build: shape")
    require(Fraction(w["alpha_bound"]) == trail[-1], "build: alpha bound")
    values = np.asarray(w["values"])
    require(values.size == w["Q"] * w["K"], "build: value count")
    close(float(values.mean()), 1.0, "build: mean")
    require(float(values.min()) >= 0.25 - FLOAT_ATOL, "build: values below the 1/4 floor")


def sample(report: dict, weight: dict, n: int, seed: int) -> list[int]:
    """Re-derive the Bernoulli sample from the documented stream rule."""
    Q, K = weight["Q"], weight["K"]
    values = np.asarray(weight["values"], dtype=np.float64).reshape(Q, K)
    x = np.arange(1, n + 1, dtype=np.int64)
    p = values[x % Q, -(-x * K // n) - 1] / values.max()
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(b"sample"),))
    u = np.random.Generator(np.random.Philox(ss)).random(n)
    want = [int(v) for v in np.nonzero(u < p)[0] + 1]
    require(report["n"] == n and report["seed"] == seed, "sample: echo")
    require(report["set"]["elements"] == want, "sample: set differs from re-derived sample")
    return want


def experiment(report: dict, eps: Fraction, cells: int, n: int, steps: int, seeds: list[int]) -> list[tuple[int, int]]:
    require(Fraction(report["eps"]) == eps and report["cells"] == cells and report["n"] == n, "experiment: echo")
    require(report["weight_generation"] == steps, "experiment: generation")
    require(Fraction(report["weight_alpha_bound"]) == alpha_trail(eps, steps)[-1], "experiment: alpha bound")
    rows = report["rows"]
    require([r["seed"] for r in rows] == seeds, "experiment: seeds")
    sizes = []
    for r in rows:
        size, h = r["set_size"], r["heuristic_size"]
        require(0 <= size <= n, "experiment: set size")
        if size == 0:
            continue
        require(r["floor_size"] == floor_size(size) and h >= r["floor_size"], "experiment: floor")
        require(Fraction(r["heuristic_density"]) == Fraction(h, size), "experiment: density")
        if size <= 64:
            require(r["exact_size"] is not None and r["exact_size"] >= h, "experiment: exact row")
        else:
            require(r["exact_size"] is None, "experiment: exact size on a large row")
        require(r["triple_count"] >= 0.0, "experiment: triple count")
        sizes.append((h, size))
    return sizes


# ------------------------------------------------------------ structure


def alphatilde(report: dict, q: int, m: int, nums: np.ndarray, den: int, eta: Fraction) -> None:
    """Pair-maximum table recomputed on integer numerators over den."""
    vals = nums.reshape(q, m)
    a, i = np.nonzero(vals * eta.denominator > eta.numerator * den)
    v = vals[a, i]
    table = np.zeros((q, 2 * m + 1), dtype=np.int64)
    x = (a[:, None] - a[None, :]) % q
    s = v[:, None] + v[None, :]
    dy = i[:, None] - i[None, :]
    for shift in (0, 1):
        np.maximum.at(table, (x.ravel(), (dy + shift + m).ravel()), s.ravel())
    lhs = Fraction(int(table.sum()), den)
    rhs = 4 * Fraction(int(nums.sum()), den) - 4 * eta * q * m
    require(Fraction(report["eta"]) == eta, "alphatilde: eta")
    require(Fraction(report["lhs_total"]) == lhs, "alphatilde: lhs_total")
    require(Fraction(report["rhs_bound"]) == rhs, "alphatilde: rhs_bound")
    require(report["holds"] is (lhs >= rhs) and report["holds"], "alphatilde: inequality")


def avoidzero(report: dict, member: np.ndarray, index_bound: int, min_interval: Fraction) -> None:
    q, k = member.shape
    best = None
    for stride in range(q, 0, -1):
        if q % stride or stride > index_bound:
            continue
        for j in range(math.ceil(min_interval * k), k + 1):
            cand = (Fraction(int(member[::stride, :j].sum()), q * k), q // stride, j, stride)
            if best is None or cand[:3] < best[:3]:
                best = cand
    mass, _, j, stride = best
    require(report["subgroup_stride"] == stride, "avoidzero: stride")
    require(report["subgroup"] == list(range(0, q, stride)), "avoidzero: subgroup")
    require(Fraction(report["interval_end"]) == Fraction(j, k), "avoidzero: interval")
    require(Fraction(report["mass"]) == mass, "avoidzero: mass")


def lev(report: dict, start: int, step: int, length: int, size: int) -> None:
    require(report["progression"] == {"start": start, "step": step, "length": length}, "lev: echo")
    require(report["subset_size"] == size and report["covers"] is True, "lev: covering")


# ------------------------------------------------------------- equidist


def irrationality(report: dict, theta: list[float], a_bound: int, n: int) -> None:
    d = len(theta)
    grids = np.meshgrid(*[np.arange(-a_bound, a_bound + 1)] * d, indexing="ij")
    vecs = np.stack([g.ravel() for g in grids], axis=1)
    vecs = vecs[(np.abs(vecs).sum(axis=1) <= a_bound) & (np.abs(vecs).sum(axis=1) > 0)]
    combo = vecs.astype(np.float64) @ np.asarray(theta)
    worst = float(np.min(np.abs(combo - np.round(combo))))
    require(report["n"] == n and Fraction(report["a_bound"]) == a_bound, "check: echo")
    close(report["worst_distance"], worst, "check: worst distance")
    q = report["worst_vector"]
    require(0 < sum(abs(c) for c in q) <= a_bound, "check: worst vector outside the budget")
    c = sum(qi * ti for qi, ti in zip(q, theta))
    close(abs(c - round(c)), worst, "check: worst vector distance")
    close(report["threshold"], a_bound / n, "check: threshold")
    if not math.isclose(worst, a_bound / n, rel_tol=1e-6):
        require(report["holds"] is (worst >= a_bound / n), "check: verdict")


def equidist_error(report: dict, theta: list[float], orbit: list[int], n: int, modulus: int,
                   residue: int, interval: int, points: np.ndarray) -> None:
    x = points.astype(np.float64)
    phase = residue * (points % modulus) / modulus + interval * x / n
    for m, t in zip(orbit, theta):
        phase = phase + m * t * x
    mean = float(np.mean(np.cos(2 * np.pi * phase)))
    constant = residue % modulus == 0 and interval == 0 and not any(orbit)
    integral = 1.0 if constant else 0.0
    require(report["n"] == n and report["sample_count"] == len(points), "error: echo")
    close(report["empirical"][0], mean, "error: empirical")
    require(abs(report["empirical"][1]) <= 1e-9, "error: imaginary part of a cosine average")
    close(report["integral"][0], integral, "error: integral")
    close(report["error"], abs(mean - integral), "error: error")
