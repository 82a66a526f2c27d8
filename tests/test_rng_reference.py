"""rng.normal_block against a frozen copy of the per-path construction it
replaced.

``_ref_normal_block`` below is a verbatim copy of the earlier
implementation, kept here as a differential oracle: it builds a fresh
``Generator(Philox(key=(seed, path)))`` for every row.  The re-keyed single
bit generator must give the same block bit for bit, raise the same errors,
and leave every Monte-Carlo estimate unchanged.
"""

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtri

from curveforge import montecarlo, rng
from curveforge.curve import flat_curve
from curveforge.hjm import ShortRateState
from curveforge.montecarlo import SimConfig, mc_zero_price
from curveforge.rng import normal_block, path_generator, standard_normals
from curveforge.shortrate import G2Params, G2State, VasicekParams

_U_FLOOR = 1e-300


def _ref_path_generator(seed, path_index=0):
    if seed < 0 or path_index < 0:
        raise ValueError("seed and path index must be non-negative")
    key = np.array([seed, path_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def _ref_normal_block(seed, first_path, n_paths, n_draws):
    u = np.empty((n_paths, n_draws))
    for i in range(n_paths):
        u[i] = _ref_path_generator(seed, first_path + i).random(n_draws)
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u)


def _ref_standard_normals(gen, n):
    u = gen.random(n)
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u)


@pytest.mark.parametrize(
    "n_paths, n_draws", [(1, 1), (4, 3), (7, 757), (300, 1512)]
)
@pytest.mark.parametrize("first_path", [0, 5])
def test_block_matches_per_path_streams(first_path, n_paths, n_draws):
    # odd draw counts end a row mid-way through Philox's four-word buffer,
    # so the next row only matches if the buffer is reset with the key
    expected = _ref_normal_block(17, first_path, n_paths, n_draws)
    got = normal_block(17, first_path, n_paths, n_draws)
    assert got.shape == (n_paths, n_draws)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "seed, first_path",
    [(0, 0), (2**64 - 1, 0), (0, 2**63), (2**64 - 1, 2**63), (2**40, 2**33)],
)
def test_extreme_keys_match(seed, first_path):
    np.testing.assert_array_equal(
        normal_block(seed, first_path, 5, 9), _ref_normal_block(seed, first_path, 5, 9)
    )


@pytest.mark.parametrize(
    "seed, first_path", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (0, 2**64 - 2)]
)
def test_bad_keys_raise_what_the_reference_raises(seed, first_path):
    with pytest.raises(Exception) as expected:
        _ref_normal_block(seed, first_path, 3, 4)
    with pytest.raises(type(expected.value)):
        normal_block(seed, first_path, 3, 4)


def test_negative_key_is_rejected_before_any_bit_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Philox built for a rejected key")

    # rng imports Philox from numpy.random on first use
    monkeypatch.setattr(np.random, "Philox", refuse)
    for seed, first_path in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            normal_block(seed, first_path, 3, 4)


def test_one_bit_generator_per_block(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("key"))
        return Philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    block = normal_block(3, 10, 50, 7)
    assert len(built) == 1
    np.testing.assert_array_equal(block, _ref_normal_block(3, 10, 50, 7))


@pytest.mark.parametrize("first_draw", [0, 4, 8, 100, 1508])
@pytest.mark.parametrize("n_draws", [1, 3, 4, 5])
def test_offset_block_matches_columns_of_the_whole_row_block(first_draw, n_draws):
    # a block may start each row at any draw that opens a Philox counter
    whole = normal_block(17, 5, 6, 1512)
    expected = whole[:, first_draw : first_draw + n_draws]
    got = normal_block(17, 5, 6, min(n_draws, 1512 - first_draw), first_draw)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(
        got, _ref_normal_block(17, 5, 6, first_draw + n_draws)[:, first_draw:1512]
    )


@pytest.mark.parametrize("first_draw", [-4, 1, 2, 3, 6])
def test_offset_off_a_counter_is_refused(first_draw):
    with pytest.raises(ValueError, match="multiple of 4"):
        normal_block(17, 5, 6, 8, first_draw)


def test_standard_normals_match_reference():
    np.testing.assert_array_equal(
        standard_normals(path_generator(9, 4), 1001),
        _ref_standard_normals(_ref_path_generator(9, 4), 1001),
    )


@pytest.mark.parametrize(
    "model, params, state0, curve",
    [
        (
            "vasicek",
            VasicekParams(a=1.7051, b=0.0937, sigma=0.3721),
            ShortRateState(r=0.05),
            None,
        ),
        (
            "g2pp",
            G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99),
            G2State(0.01, -0.01, 0.0),
            flat_curve(0.04, span=40.0, n_pillars=40),
        ),
    ],
)
def test_multi_block_estimate_matches_reference_block(monkeypatch, model, params, state0, curve):
    # 256-pair tiles of at most 10,240 normals make 700 paths (350
    # antithetic pairs) of 50 steps run as 256 + 94 pairs, each in chunks
    # of 36 + 14 one-factor steps or 20 + 20 + 10 two-factor steps
    monkeypatch.setattr(montecarlo, "_TILE_PATHS", 256)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 256 * 40)
    tiles = []

    def counted(seed, first_path, n_paths, n_draws, first_draw=0):
        tiles.append((first_path, n_paths, n_draws, first_draw))
        return normal_block(seed, first_path, n_paths, n_draws, first_draw)

    monkeypatch.setattr(montecarlo, "normal_block", counted)
    config = SimConfig(n_paths=700, step=0.02, seed=11)
    got = mc_zero_price(model, params, state0, 1.0, config, curve=curve)
    chunks = {"vasicek": [(36, 0), (14, 36)], "g2pp": [(40, 0), (40, 40), (20, 80)]}[model]
    assert tiles == [
        (first, count, n_draws, first_draw)
        for first, count in ((0, 256), (256, 94))
        for n_draws, first_draw in chunks
    ]

    def reference(seed, first_path, n_paths, n_draws, first_draw=0):
        # the same columns of the per-path reference's whole rows
        block = _ref_normal_block(seed, first_path, n_paths, first_draw + n_draws)
        return block[:, first_draw:]

    monkeypatch.setattr(montecarlo, "normal_block", reference)
    expected = mc_zero_price(model, params, state0, 1.0, config, curve=curve)
    assert got == expected
