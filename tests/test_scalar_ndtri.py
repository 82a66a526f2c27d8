"""rng.scalar_ndtri against scipy.special.ndtri, bit for bit.

``standard_normals`` (synth's stream) inverts its uniforms through the
package's scalar copy of Cephes ``ndtri``; ``normal_block`` (the oracle's
tiles) keeps scipy's.  scipy is the reference here: every point must give
the same float, sign of zero and nan included.  The points cover the Philox
uniforms synth actually inverts (floored at ``_U_FLOOR``), each branch
boundary of the routine with its neighbours, the edges of the domain and a
log-spaced sweep of both tails.
"""

import math

import numpy as np
import pytest
import scipy.special
from numpy.random import Generator, Philox

from curveforge import rng
from curveforge.rng import normal_block, path_generator, scalar_ndtri, standard_normals


def _neighbours(x):
    """x and the floats either side of it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def _assert_bits_match(u):
    u = np.asarray(u, dtype=float)
    got = np.array([scalar_ndtri(v) for v in u.tolist()], dtype=float)
    expected = scipy.special.ndtri(u)
    differ = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert differ.size == 0, [(u[i], got[i], expected[i]) for i in differ[:5]]


def test_philox_uniforms_as_synth_floors_them():
    u = Generator(Philox(key=[2024, 0])).random(1_000_000)
    u[:3] = 0.0  # random() may return exactly 0.0
    np.maximum(u, rng._U_FLOOR, out=u)
    _assert_bits_match(u)


def test_branch_boundaries_and_domain_edges():
    exp_m2 = math.exp(-2.0)
    points = [
        0.0, 1.0, 5e-324, 1e-300,
        *_neighbours(exp_m2),  # central rational approximation against the tails
        *_neighbours(1.0 - exp_m2),  # the reflection y -> 1 - y
        *_neighbours(math.exp(-32.0)),  # z = 8: P1/Q1 against P2/Q2
        *_neighbours(1.0 - math.exp(-32.0)),
        *_neighbours(0.5),
        1.0 - 2.0**-53, np.nextafter(1.0 - 2.0**-53, 0.0),
        math.nan, -0.1, 1.1, -0.0, -math.inf, math.inf,
    ]
    _assert_bits_match(points)


def test_edge_results():
    assert scalar_ndtri(0.0) == -math.inf
    assert scalar_ndtri(1.0) == math.inf
    for y in (math.nan, -0.1, 1.1):
        assert math.isnan(scalar_ndtri(y))


def test_log_spaced_sweep_of_both_tails():
    lower = np.logspace(-300, np.log10(0.5), 200_001)
    _assert_bits_match(lower)
    _assert_bits_match(1.0 - np.logspace(-16, np.log10(0.5), 100_001))


@pytest.mark.parametrize("seed, n", [(0, 1), (7, 520), (2**64 - 1, 4001)])
def test_synth_stream_equals_the_oracle_stream(seed, n):
    # the two samplers invert the same Philox uniforms through different
    # copies of one routine, so one path's normals agree bit for bit
    got = standard_normals(path_generator(seed, 0), n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == normal_block(seed, 0, 1, n)[0].tobytes()
