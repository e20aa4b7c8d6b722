from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sumfree.core import CyclicSignal, IntegerSet, default_n_prime, interval_signal, rng_from_seed
from sumfree.reference import dilation_sweep_direct, pushforward_direct, u2_group_norm_direct
from sumfree.solver import dilation_sweep
from sumfree.spectral import _interval_group_norm
from sumfree.weights import GridWeight, _node_values


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
        fast = _node_values(w, factor, shrink, t)
        assert fast.tobytes() == pushforward_direct(w, factor, shrink, t).tobytes(), case


def test_sweep_matches_interval_scan():
    rng = rng_from_seed(9, "sweep-oracle")
    sets = [tuple(range(1, n + 1)) for n in range(1, 21)]
    for top in (12, 30, 60):
        for _ in range(60):
            n = int(rng.integers(1, 13))
            sets.append(tuple(int(v) for v in rng.choice(np.arange(1, top + 1), n, replace=False)))
    for elems in sets:
        A = IntegerSet.from_iterable(elems)
        cert = dilation_sweep(A)
        assert (cert.theta, cert.selected.elements) == dilation_sweep_direct(A), elems


def test_sweep_at_one_half_closes_at_the_mirror():
    # The first maximising interval holds 1/2: no exit lies between its start
    # and 1/2 ({1} has no exit below 1/2 at all), so 1 - lo closes it.
    odd = tuple(range(1, 32, 2))
    for elems in ((1,), (1, 3), (3, 5, 7), (1, 2, 3, 5, 7, 9, 11), (3, 4, 5, 7, 9, 11, 13, 15), odd):
        A = IntegerSet(elems)
        cert = dilation_sweep(A)
        assert cert.theta == Fraction(1, 2), elems
        assert (cert.theta, cert.selected.elements) == dilation_sweep_direct(A), elems
