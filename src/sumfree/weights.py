"""Mass-concentrating weight iteration and Bernoulli set sampling.

A grid weight is a positive mean-1 density on Z/QZ x {1,..,K} (cell i
standing for ((i-1)/K, i/K]).  Each iteration step pushes the density
through (x, y) -> (M*x, t*shrink*y) for quadrature nodes t in [1/2, 1],
keeps 3/4 of the mass there and spreads 1/4 uniformly, then averages over
the nodes.  The mass therefore piles up near the origin of both
coordinates while the mean stays exactly 1, and an exact rational tracker
alpha_bound contracts by 3/4 per step toward the fixed point 1/3 + eps/8.
Sampling turns a weight into a concrete integer set: n is included
independently with probability proportional to the weight over its cell,
and riemann_error measures that integer-to-cell map against the grid mean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import (
    MAX_SIGNAL_LENGTH,
    SCHEMA_VERSION,
    GridOverflowError,
    IntegerSet,
    JsonReport,
    format_rational,
    indicator_vector,
    parse_rational,
    read_grid_json,
    rng_from_seed,
    validate_seed,
)
from .solver import ALLOW_EQUAL, EXACT_SIZE_CAP, heuristic_sum_free, max_sum_free_subset, one_third_floor
from .spectral import t_count

MAX_GRID_CELLS = 1 << 22
# each quadrature node costs one pass over the grid per step
MAX_T_SAMPLES = 1 << 10
_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class GridWeight:
    """Strictly positive density on Z/QZ x {1,..,K} with cell-mean exactly 1.

    `generation` counts iteration steps from the uniform start and
    `alpha_bound` is the exact rational tracker the iteration contracts;
    both ride along so that serialized weights stay self-describing.
    """

    modulus: int
    cells: int
    values: np.ndarray
    generation: int
    alpha_bound: Fraction

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.modulus < 1 or self.cells < 1:
            raise ValueError("grid dimensions must be >= 1")
        if v.shape != (self.modulus, self.cells):
            raise ValueError(f"value shape {v.shape} != ({self.modulus}, {self.cells})")
        if not np.all(v > 0):
            raise ValueError("weight values must be strictly positive")
        mean = float(v.mean())
        if abs(mean - 1.0) > _MEAN_TOL:
            raise ValueError(f"weight mean {mean!r} is not 1 within {_MEAN_TOL}")
        if self.generation < 0:
            raise ValueError("generation must be >= 0")
        if not isinstance(self.alpha_bound, Fraction):
            raise ValueError("alpha_bound must be a Fraction")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "Q": self.modulus,
            "K": self.cells,
            "generation": self.generation,
            "alpha_bound": format_rational(self.alpha_bound),
            "values": self.values.ravel().tolist(),
        }


def uniform_weight(cells: int) -> GridWeight:
    """Generation-0 start: modulus 1, all values 1, tracker at 1."""
    if cells < 1:
        raise ValueError("cells must be >= 1")
    return GridWeight(
        modulus=1,
        cells=cells,
        values=np.ones((1, cells)),
        generation=0,
        alpha_bound=Fraction(1),
    )


@dataclass(frozen=True)
class IterationParams(JsonReport):
    """Knobs of one iteration step.

    The contraction constants the construction needs are existence-only, so
    they are explicit parameters here: modulus_factor is the residue scale
    M per step, interval_shrink the interval contraction, t_samples the
    number of midpoint quadrature nodes for the averaging over t in
    [1/2, 1], and steps the iteration count (None means
    default_step_count(eps), the first generation whose tracked alpha is
    below 1/3 + eps/4).
    """

    modulus_factor: int = 2
    interval_shrink: Fraction = Fraction(1, 2)
    t_samples: int = 8
    steps: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "interval_shrink", Fraction(self.interval_shrink))
        if self.modulus_factor < 2:
            raise ValueError("modulus_factor must be >= 2")
        if not 0 < self.interval_shrink <= 1:
            raise ValueError("interval_shrink must lie in (0, 1]")
        if not 2 <= self.t_samples <= MAX_T_SAMPLES:
            raise ValueError(f"t_samples must lie in [2, {MAX_T_SAMPLES}]")
        if self.steps is not None and self.steps < 0:
            raise ValueError("steps must be >= 0")


def default_step_count(eps) -> int:
    """The first generation whose tracked alpha is below 1/3 + eps/4.

    The tracker's gap to 1/3 + eps/8 starts at 2/3 - eps/8 and contracts
    by 3/4 per step, so for eps = p/q the test reads
    (16q - 3p) * 3^k < 3p * 4^k.  A float logarithm places k within one
    step (see _step_estimate) and the integer test settles it, so tiny eps
    cost no iteration: 8, 11 and 13 steps for eps = 1/2, 1/4 and 1/8.
    """
    steps, gap, allowance = _step_estimate(eps)
    while gap * 3**steps >= allowance * 4**steps:
        steps += 1
    return steps


def _step_estimate(eps) -> tuple[int, int, int]:
    """(k, 16q - 3p, 3p) for eps = p/q, where k <= default_step_count(eps)."""
    eps_f = _checked_eps(eps)
    gap, allowance = 16 * eps_f.denominator - 3 * eps_f.numerator, 3 * eps_f.numerator
    steps = max(0, math.floor((math.log(gap) - math.log(allowance)) / math.log(4 / 3)) - 1)
    return steps, gap, allowance


def _checked_eps(eps) -> Fraction:
    eps_f = Fraction(eps)
    if not 0 < eps_f < 1:
        raise ValueError("eps must lie in (0, 1)")
    return eps_f


def alpha_fixed_point(eps) -> Fraction:
    return Fraction(1, 3) + Fraction(eps) / 8


def alpha_next(alpha: Fraction, eps) -> Fraction:
    """One exact tracker step: alpha' = (3/4) alpha + (1/4)(1/3 + eps/8)."""
    return Fraction(3, 4) * alpha + Fraction(1, 4) * alpha_fixed_point(eps)


def alpha_schedule(eps, steps: int) -> tuple[Fraction, ...]:
    """Exact tracker values for generations 0..steps, starting from 1.

    The gap to the fixed point contracts by exactly 3/4 per step, so the
    sequence is strictly decreasing toward 1/3 + eps/8 (for eps < 16/9 the
    start value 1 is above the fixed point).  This is pure rational
    arithmetic and is usable far beyond any materializable grid.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = [Fraction(1)]
    for _ in range(steps):
        out.append(alpha_next(out[-1], eps))
    return tuple(out)


def quadrature_nodes(t_samples: int) -> tuple[Fraction, ...]:
    """Midpoints of t_samples equal parts of [1/2, 1], as exact rationals."""
    if t_samples < 1:
        raise ValueError("t_samples must be >= 1")
    return tuple(
        Fraction(1, 2) + Fraction(2 * j - 1, 4 * t_samples) for j in range(1, t_samples + 1)
    )


def _node_values(w: GridWeight, factor: int, shrink: Fraction, t: Fraction) -> np.ndarray:
    """Single-node pushforward: 3/4 of the mass lands on the image, 1/4 is flat.

    Under y -> t*shrink*y = (a/b)*y with a <= b, the image of a cell is at
    most one cell long, so it meets at most two destination cells.  In
    units of 1/(K*b), source cell i is (i*a, (i+1)*a] and destination cell
    j is (j*b, (j+1)*b]; the share (cut - i*a)/a of cell i's mass lands in
    j0 = i*a // b and the rest in j0 + 1, all in exact Python integers.
    Residues map r -> factor*r, so only every factor-th residue receives
    image mass.  Each destination is summed in increasing source order.
    """
    Q, K = w.modulus, w.cells
    width = t * shrink
    if not 0 < width <= 1:
        raise ValueError("t * interval_shrink must lie in (0, 1]")
    a, b = width.numerator, width.denominator
    lo = np.arange(K, dtype=object) * a  # Python ints: b may pass 2^63
    j0 = lo // b
    cut = np.minimum(lo + a, (j0 + 1) * b)
    scale = 0.75 * factor
    first = scale * ((cut - lo) / a).astype(np.float64)
    second = scale * ((lo + a - cut) / a).astype(np.float64)
    j0 = j0.astype(np.int64)
    out = np.full((factor * Q, K), 0.25, dtype=np.float64)
    rows = factor * np.arange(Q)[:, None]
    # a destination's second parts come from lower sources than its first parts
    spill = np.nonzero(second)[0]
    np.add.at(out, (rows, j0[spill] + 1), second[spill] * w.values[:, spill])
    np.add.at(out, (rows, j0), first * w.values)
    return out


def _push(w: GridWeight, params: IterationParams, eps, nodes) -> GridWeight:
    """Average the single-node pushforwards of w over the given t nodes."""
    eps_f = _checked_eps(eps)
    _check_grid_size(w.cells, params.modulus_factor, base=w.modulus)
    new_modulus = params.modulus_factor * w.modulus
    acc = np.zeros((new_modulus, w.cells), dtype=np.float64)
    for t in nodes:
        acc += _node_values(w, params.modulus_factor, params.interval_shrink, t)
    acc /= len(nodes)
    return GridWeight(
        modulus=new_modulus,
        cells=w.cells,
        values=acc,
        generation=w.generation + 1,
        alpha_bound=alpha_next(w.alpha_bound, eps_f),
    )


def pushforward_snapshot(w: GridWeight, params: IterationParams, eps, t) -> GridWeight:
    """The single-t building block that pushforward_step averages.

    Hand-checkable: from the uniform K = 8 start with factor 2, shrink 1/2
    and t = 1/2, the image is residue 0 x (0, 1/4], so cells (0, 1) and
    (0, 2) get 1/4 + (3/4) * 2 * 4 = 6.25 and every other cell 1/4.
    """
    t_f = Fraction(t)
    if not 0 < t_f <= 1:
        raise ValueError("t must lie in (0, 1]")
    return _push(w, params, eps, (t_f,))


def pushforward_step(w: GridWeight, params: IterationParams, eps) -> GridWeight:
    """One full iteration step: average the single-t pushforwards over nodes.

    Every node preserves the cell-mean exactly (3/4 of a mean-1 density
    plus a flat 1/4), so the average does too; the pointwise floor 1/4
    survives because every node contributes at least its flat part.
    """
    return _push(w, params, eps, quadrature_nodes(params.t_samples))


def _check_grid_size(cells: int, factor: int, steps: int = 1, base: int = 1) -> None:
    """Refuse a grid of base * factor**steps residues x cells past the cap.

    Past 64 bits the modulus exceeds the cap whatever the cells, so it goes
    by its bit length: forming it costs time that grows with steps, and
    str() of an int refuses more than 4300 digits.
    """
    log_modulus = math.log2(base) + steps * math.log2(factor)
    if log_modulus <= 64:
        modulus = base * factor**steps
        if modulus * cells <= MAX_GRID_CELLS:
            return
        rows = modulus if modulus.bit_length() <= 64 else f"({modulus.bit_length()}-bit modulus)"
    else:
        rows = f"({math.floor(log_modulus) + 1}-bit modulus)"
    raise GridOverflowError(
        f"grid of {rows} x {cells} cells exceeds the {MAX_GRID_CELLS}-cell cap; "
        "reduce steps (alpha_schedule tracks the recurrence without a grid)"
    )


@dataclass(frozen=True)
class WeightBuildReport(JsonReport):
    eps: Fraction
    params: IterationParams
    steps: int
    alpha_trail: tuple[Fraction, ...]
    weight: GridWeight


def build_weight(eps, params: IterationParams, cells: int) -> WeightBuildReport:
    """Iterate pushforward_step from the uniform start, with full provenance.

    The step count is params.steps, defaulting to default_step_count(eps);
    the final grid size is checked up front so an over-deep build fails
    before any work.  The alpha trail is the exact recurrence, one value
    per generation; the final value sits below 1/3 + eps/4 once
    (3/4)^steps * (2/3 - eps/8) < eps/8, and the default step count is
    the first that satisfies it.
    """
    eps_f = _checked_eps(eps)
    steps = params.steps
    if steps is None:
        # the estimate is at most the default, so a default past the cap is
        # refused before default_step_count forms 3^k and 4^k exactly
        _check_grid_size(cells, params.modulus_factor, _step_estimate(eps_f)[0])
        steps = default_step_count(eps_f)
    _check_grid_size(cells, params.modulus_factor, steps)
    w = uniform_weight(cells)
    for _ in range(steps):
        w = pushforward_step(w, params, eps_f)
    return WeightBuildReport(
        weight=w,
        eps=eps_f,
        params=params,
        steps=steps,
        alpha_trail=alpha_schedule(eps_f, steps),
    )


@dataclass(frozen=True)
class WeightStats:
    mean: float
    minimum: float
    maximum: float
    lipschitz: float


def weight_stats(w: GridWeight) -> WeightStats:
    """Mean, range, and the discrete Lipschitz constant along the interval.

    The Lipschitz statistic is max |w(a, i+1) - w(a, i)| * K over grid
    neighbours in the same residue: the steepest per-unit-length jump the
    discretization can certify.  A uniform weight scores 0.
    """
    v = w.values
    if w.cells > 1:
        lip = float(np.abs(np.diff(v, axis=1)).max() * w.cells)
    else:
        lip = 0.0
    return WeightStats(
        mean=float(v.mean()),
        minimum=float(v.min()),
        maximum=float(v.max()),
        lipschitz=lip,
    )


def _cell_map(w: GridWeight, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Residue and 0-based cell of each n = 1..N: (n mod Q, ceil(n*K/N) - 1).

    Right-closed cells: n belongs to cell i iff (i-1)/K < n/N <= i/K.
    """
    Q, K = w.modulus, w.cells
    if N < Q * K:
        raise ValueError(f"N must be at least Q*K = {Q * K}")
    if N > MAX_SIGNAL_LENGTH:
        raise ValueError(f"N = {N} exceeds the limit {MAX_SIGNAL_LENGTH}")
    n = np.arange(1, N + 1, dtype=np.int64)
    return n % Q, -(-n * K // N) - 1


def sample_probabilities(w: GridWeight, N: int) -> np.ndarray:
    """p(n) = w(n mod Q, ceil(n*K/N)) / max(w) for n = 1..N (index n-1).

    Values lie in (0, 1] and the maximum-weight cells get exactly 1.
    """
    residues, cells = _cell_map(w, N)
    return w.values[residues, cells] / w.values.max()


def riemann_error(w: GridWeight, N: int) -> float:
    """|average of w over the first N integers - grid mean|, exactly.

    Integer n lands in the cell that sample_probabilities reads; both the
    empirical average and the grid mean are accumulated as exact rationals
    over the float cell values, so the returned gap is the true one up to
    a single final rounding.  It vanishes when every cell is hit equally
    often (e.g. Q = 1 and K dividing N) and decays like 1/N in general.
    """
    residues, cells = _cell_map(w, N)
    counts = np.bincount(residues * w.cells + cells, minlength=w.values.size).tolist()
    values = [Fraction(v) for v in w.values.ravel().tolist()]
    gap = sum(c * v for c, v in zip(counts, values)) / N - sum(values) / len(values)
    return abs(float(gap))


def sample_set(w: GridWeight, N: int, seed: int) -> IntegerSet:
    """Bernoulli sample: include n independently with probability p(n).

    Deterministic given the seed (one counter-based stream per call); a
    uniform weight has p identically 1 and returns all of {1,..,N} for
    every seed.
    """
    rng = rng_from_seed(seed, "sample")
    p = sample_probabilities(w, N)
    u = rng.random(N)
    elements = np.nonzero(u < p)[0] + 1
    return IntegerSet(tuple(int(x) for x in elements))


@dataclass(frozen=True)
class ExperimentRow(JsonReport):
    seed: int
    set_size: int
    heuristic_size: int
    heuristic_density: Fraction
    floor_size: int
    exact_size: int | None
    triple_count: float


@dataclass(frozen=True)
class ExperimentReport(JsonReport):
    """Observational end-to-end run: build, sample, bound, count triples.

    Per seed: the sampled set's size, the verified heuristic sum-free lower
    bound and its density, the universal floor ceil((|A|+1)/3) that the
    dilation argument guarantees for any set, the exact optimum when the
    set is small enough, and the normalised triple count of the sampled
    set on {1,..,N}.  Rows are a pure function of (parameters, seed), so
    reports reproduce bit-for-bit.
    """

    eps: Fraction
    params: IterationParams
    cells: int
    n: int
    weight_generation: int
    weight_alpha_bound: Fraction
    rows: tuple[ExperimentRow, ...]


def density_experiment(eps, params: IterationParams, cells: int, N: int, seeds) -> ExperimentReport:
    """Build a weight, sample one set per seed, and report verified bounds."""
    seed_list = [validate_seed(int(s)) for s in seeds]
    if not seed_list:
        raise ValueError("at least one seed is required")
    build = build_weight(eps, params, cells)
    w = build.weight
    rows = []
    for seed in seed_list:
        A = sample_set(w, N, seed)
        size = len(A)
        if size == 0:
            rows.append(
                ExperimentRow(seed, 0, 0, Fraction(0), 0, 0, 0.0)
            )
            continue
        heur = heuristic_sum_free(A, ALLOW_EQUAL, seed=seed)
        # with no budget the exact solve always finishes exact
        exact = max_sum_free_subset(A, ALLOW_EQUAL).optimum if size <= EXACT_SIZE_CAP else None
        rows.append(
            ExperimentRow(
                seed=seed,
                set_size=size,
                heuristic_size=heur.optimum,
                heuristic_density=Fraction(heur.optimum, size),
                floor_size=one_third_floor(size),
                exact_size=exact,
                triple_count=t_count(indicator_vector(A, N)),
            )
        )
    return ExperimentReport(
        eps=Fraction(eps),
        params=params,
        cells=cells,
        n=N,
        weight_generation=w.generation,
        weight_alpha_bound=w.alpha_bound,
        rows=tuple(rows),
    )


def save_weight(w: GridWeight, path: str | Path) -> None:
    Path(path).write_text(json.dumps(w.to_json_dict(), indent=2) + "\n")


def load_weight(path: str | Path) -> GridWeight:
    """Read a GridWeight from its JSON form (values row-major)."""
    raw = read_grid_json(path, "Q", "K")
    for key in ("generation", "alpha_bound"):
        if key not in raw:
            raise ValueError(f"{path}: missing key {key!r}")
    Q, K, values, generation = raw["Q"], raw["K"], raw["values"], raw["generation"]
    if not set(map(type, values)) <= {int, float}:  # JSON gives exact types; bool is not int here
        bad = next(v for v in values if type(v) not in (int, float))
        raise ValueError(f"{path}: weight values must be numbers, got {bad!r}")
    if not isinstance(generation, int) or isinstance(generation, bool) or generation < 0:
        raise ValueError(f"{path}: generation must be an integer >= 0, got {generation!r}")
    try:
        return GridWeight(
            modulus=Q,
            cells=K,
            values=np.array(values, dtype=np.float64).reshape(Q, K),
            generation=generation,
            alpha_bound=parse_rational(str(raw["alpha_bound"])),
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise ValueError(f"{path}: {exc}") from exc
