from collections import Counter

import numpy as np
import pytest

from sumfree.core import CyclicSignal, default_n_prime, interval_signal, rng_from_seed
from sumfree.reference import u2_group_norm_direct
from sumfree.spectral import _interval_group_norm


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
