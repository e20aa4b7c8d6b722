import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from sumfree import equidist, solver
from sumfree.core import CyclicSignal, IntegerSet, default_n_prime, interval_signal, rng_from_seed
from sumfree.equidist import Theta, _vector_count, irrationality_check
from sumfree.reference import (
    avoid_zero_direct,
    canonical_vectors,
    dilation_sweep_direct,
    irrationality_direct,
    primes_2_mod_3,
    pushforward_direct,
    residue_rows_direct,
    u2_group_norm_direct,
)
from sumfree.solver import dilation_sweep
from sumfree.spectral import _interval_group_norm
from sumfree.structure import GridSet
from sumfree.weights import GridWeight, _node_map, _node_values


def test_direct_cap():
    sig = interval_signal(np.ones(200), n_prime=1024)
    with pytest.raises(ValueError):
        u2_group_norm_direct(sig)


def test_u2_direct_matches_quadruple_definition():
    rng = rng_from_seed(6, "u2-quadruples")
    for n in range(5, 13):
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        total = 0j
        for x in range(n):
            for h1 in range(n):
                for h2 in range(n):
                    total += (
                        f[x]
                        * np.conj(f[(x + h1) % n] * f[(x + h2) % n])
                        * f[(x + h1 + h2) % n]
                    )
        want = abs(total / n**3) ** 0.25
        assert u2_group_norm_direct(CyclicSignal(f, ref_n=1)) == pytest.approx(want, rel=1e-12)


def test_interval_norm_closed_form_counts_quadruples():
    for N in range(1, 31):
        r = Counter(a + b for a in range(1, N + 1) for b in range(1, N + 1))
        quadruples = sum(c * c for c in r.values())
        assert 3 * quadruples == 2 * N**3 + N
        for n_prime in (default_n_prime(N), 2 * default_n_prime(N)):
            norm4 = _interval_group_norm(N, n_prime) ** 4
            assert norm4 * n_prime**3 == pytest.approx(quadruples, rel=1e-13)


def test_pushforward_matches_fraction_loop():
    rng = rng_from_seed(7, "pushforward")
    wide = 10**20 + 3  # a shrink denominator past 2^63
    for case in range(300):
        Q, K = int(rng.integers(1, 9)), int(rng.integers(1, 40))
        factor = int(rng.integers(2, 4))
        values = rng.random((Q, K)) + 0.1
        w = GridWeight(Q, K, values / values.mean(), 0, Fraction(1))
        m = int(rng.integers(1, 30))
        shrink = Fraction(int(rng.integers(1, m + 1)), m)
        t = Fraction(int(rng.integers(1, 65)), 64)
        if case % 10 == 0:
            shrink, t = Fraction(1), Fraction(1)  # t * shrink = 1: each image is one cell
        elif case % 10 == 1:
            shrink = Fraction(1, wide)
        elif case % 10 == 2:
            shrink = Fraction(wide - 2, wide)
        fast = _node_values(w, factor, _node_map(K, factor, t * shrink))
        assert fast.tobytes() == pushforward_direct(w, factor, shrink, t).tobytes(), case


@cache
def _sweep_oracle_sets() -> dict[tuple[int, ...], tuple]:
    """Small sets and their `dilation_sweep_direct` answers."""
    rng = rng_from_seed(9, "sweep-oracle")
    sets = [tuple(range(1, n + 1)) for n in range(1, 21)]
    for top in (12, 30, 60):
        for _ in range(60):
            n = int(rng.integers(1, 13))
            sets.append(tuple(int(v) for v in rng.choice(np.arange(1, top + 1), n, replace=False)))
    return {elems: dilation_sweep_direct(IntegerSet.from_iterable(elems)) for elems in sets}


def test_sweep_matches_interval_scan():
    for elems, want in _sweep_oracle_sets().items():
        cert = dilation_sweep(IntegerSet.from_iterable(elems))
        assert (cert.theta, cert.selected.elements) == want, elems


def _neighbours(elems, theta):
    """The breakpoints j/(3x), j not divisible by 3, closest below and above theta."""
    below, above = [], []
    for x in elems:
        j = math.ceil(3 * x * theta) - 1
        below.append(Fraction(j - (j % 3 == 0), 3 * x))
        j = math.floor(3 * x * theta) + 1
        above.append(Fraction(j + (j % 3 == 0), 3 * x))
    return max(below), min(above)


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_sweep_blocks_match_interval_scan(monkeypatch, block):
    # Blocks of a few breakpoints: the interval a block starts may close in
    # a later block, or at the mirror 1 - lo after the last one.
    monkeypatch.setattr(solver, "_BLOCK", block)
    closes = set()
    for elems, want in _sweep_oracle_sets().items():
        cert = dilation_sweep(IntegerSet.from_iterable(elems))
        assert (cert.theta, cert.selected.elements) == want, elems
        lo, hi = _neighbours(elems, cert.theta)
        blocks = -(-sum(elems) // block)
        if hi > Fraction(1, 2):
            closes.add("mirror")
        elif int(lo * 2 * blocks) < int(hi * 2 * blocks):
            closes.add("later block")
    assert closes == {"mirror", "later block"}


def test_sweep_at_one_half_closes_at_the_mirror():
    # The first maximising interval holds 1/2: no exit lies between its start
    # and 1/2 ({1} has no exit below 1/2 at all), so 1 - lo closes it.
    odd = tuple(range(1, 32, 2))
    for elems in ((1,), (1, 3), (3, 5, 7), (1, 2, 3, 5, 7, 9, 11), (3, 4, 5, 7, 9, 11, 13, 15), odd):
        A = IntegerSet(elems)
        cert = dilation_sweep(A)
        assert cert.theta == Fraction(1, 2), elems
        assert (cert.theta, cert.selected.elements) == dilation_sweep_direct(A), elems


def test_residue_oracles_by_hand():
    # Z/5Z's sum-free classes in mask order, and its middle thirds 1/5
    # ({2, 3}) and 2/5 ({1, 4}), which are two of those classes
    assert list(primes_2_mod_3(2, 100)) == [2, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89]
    rows = [[r in S for r in range(5)] for S in ({1}, {2}, {3}, {2, 3}, {4}, {1, 4})]
    assert residue_rows_direct(5, True) == rows
    assert residue_rows_direct(5, False) == [rows[3], rows[5]]


def test_avoid_zero_oracle_by_hand():
    # Rows 2 and 3 hold one cell each in the first column, rows 1 and 5 are
    # full.  Strides 3 ({0, 3}) and 2 ({0, 2, 4}) both count 1 at either
    # end, so the smaller subgroup and the shorter interval win; stride 6
    # ({0}) counts 0 once the index bound admits it.
    rows = {1: [1, 1], 2: [1, 0], 3: [1, 0], 5: [1, 1]}
    grid = GridSet(6, 2, np.array([rows.get(a, [0, 0]) for a in range(6)], dtype=bool))
    half, one = Fraction(1, 2), Fraction(1)
    assert avoid_zero_direct(grid, 3, half) == (3, half, Fraction(1, 12))
    assert avoid_zero_direct(grid, 2, half) == (2, half, Fraction(1, 12))
    assert avoid_zero_direct(grid, 3, one) == (3, one, Fraction(1, 12))
    assert avoid_zero_direct(grid, 1, Fraction(1, 3)) == (1, half, Fraction(4, 12))
    assert avoid_zero_direct(grid, 10, Fraction(1, 4)) == (6, half, 0)


def test_vector_count_is_the_enumeration_length():
    for d in range(1, 5):
        for b in range(13):
            assert _vector_count(d, b) == len(list(canonical_vectors(d, b))), (d, b)


def test_vectors_in_lex_order_as_their_entries():
    for d in range(1, 5):
        for b in range(6):
            ball = itertools.product(range(-b, b + 1), repeat=d)
            want = [q for q in ball if 0 < sum(map(abs, q)) <= b and next(filter(None, q)) > 0]
            got = []
            for entries in canonical_vectors(d, b):
                q = [0] * d
                for i, v in entries:
                    q[i] = v
                got.append(tuple(q))
            assert got == want, (d, b)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_scan_blocks_match_the_vector_walk(monkeypatch, block):
    # Blocks of a few states split one parent's children, and one block
    # spans several parents; eighths tie many vectors at each distance.
    monkeypatch.setattr(equidist, "_BLOCK", block)
    rng = random.Random(block)
    for _ in range(40):
        d, a = rng.randint(1, 4), rng.randint(1, 5)
        theta = tuple(rng.randrange(8) / 8 if rng.random() < 0.5 else rng.random() for _ in range(d))
        rep = irrationality_check(Theta(theta), a, 100)
        assert (rep.worst_vector, rep.worst_distance, rep.holds) == irrationality_direct(theta, a, 100), theta
