"""The Monte-Carlo oracle in path x step tiles.

``_trapezoid_discounts`` draws the normals of its antithetic pairs in
tiles of at most ``_TILE_PATHS`` pairs (128) by as many steps as keep a
tile within ``_BLOCK_ELEMENTS`` normals (2^17, 1 MiB), and carries each
pair tile's integral from one step chunk to the next.  Every pair adds its
weighted normals in draw order whatever the tiling, so an estimate must not
move by a bit when the tiles change; and only one tile may be alive at a
time, which a fresh ``oracle`` process shows in its peak memory: the
tiles add no more than a few MB to that of the same command at 4 paths,
whatever the path count or the maturity.
"""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from curveforge import montecarlo, rng
from curveforge.curve import flat_curve
from curveforge.hjm import HoLeeParams, HullWhiteParams, ShortRateState
from curveforge.montecarlo import SimConfig, mc_zero_price
from curveforge.rng import normal_block
from curveforge.shortrate import G2Params, G2State, VasicekParams

SRC = Path(__file__).resolve().parent.parent / "src"
CURVE = flat_curve(0.04, span=40.0, n_pillars=40)
MODELS = {
    "vasicek": (VasicekParams(a=1.7051, b=0.0937, sigma=0.3721), ShortRateState(r=0.05)),
    "holee": (HoLeeParams(sigma=0.01), ShortRateState(r=0.045, t=0.5)),
    "hullwhite": (HullWhiteParams(a=0.4, sigma=0.015), ShortRateState(r=0.05)),
    "g2pp": (
        G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99),
        G2State(0.01, -0.01, 0.0),
    ),
}
# 700 paths (350 antithetic pairs) of 75 steps: 128 + 128 + 94 pairs of
# one step chunk each at the default sizes
CONFIG = SimConfig(n_paths=700, step=0.02, seed=11)
HORIZON = 1.5


def one_tile(monkeypatch):
    """Make one tile hold all of CONFIG's pairs; the default step budget
    already holds all of its steps."""
    monkeypatch.setattr(montecarlo, "_TILE_PATHS", CONFIG.n_paths // 2)


def discounts(model, monkeypatch, tiles, horizon=HORIZON):
    """The estimate and the (pairs, 2) discount array of a 75-step price
    (or of ``horizon``), recording each tile drawn as (first pair, pairs,
    draws, first draw)."""
    params, state0 = MODELS[model]
    kernel = montecarlo._trapezoid_discounts
    out = []

    def spy(*args):
        out.append(kernel(*args))
        return out[-1]

    def counted(seed, first_path, n_paths, n_draws, first_draw=0):
        tiles.append((first_path, n_paths, n_draws, first_draw))
        return normal_block(seed, first_path, n_paths, n_draws, first_draw)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_trapezoid_discounts", spy)
        patch.setattr(montecarlo, "normal_block", counted)
        est = mc_zero_price(model, params, state0, state0.t + horizon, CONFIG, curve=CURVE)
    return est, out[0]


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("budget", [1, 256 * 36])
def test_shrunken_tiles_are_bit_identical(monkeypatch, model, budget):
    k = 2 if model == "g2pp" else 1
    # the default sizes against one tile of the whole price
    default = []
    got, got_out = discounts(model, monkeypatch, default)
    assert default == [(0, 128, 75 * k, 0), (128, 128, 75 * k, 0), (256, 94, 75 * k, 0)]
    one_tile(monkeypatch)
    whole = []
    want, want_out = discounts(model, monkeypatch, whole)
    assert whole == [(0, 350, 75 * k, 0)]
    assert want_out.shape == (350, 2)
    assert got_out.tobytes() == want_out.tobytes()
    assert got == want
    # 256 + 94 pairs; steps in chunks of 4 (budget 1), or of 36 for one
    # factor and 12 for two (18 rounded down to an odd multiple of 4), the
    # last chunk short
    monkeypatch.setattr(montecarlo, "_TILE_PATHS", 256)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", budget)
    tiles = []
    got, got_out = discounts(model, monkeypatch, tiles)
    assert got_out.tobytes() == want_out.tobytes()
    assert got == want
    assert sorted({(first, count) for first, count, _, _ in tiles}) == [
        (0, 256), (256, 94)
    ]
    chunk = 4 if budget == 1 else {1: 36, 2: 12}[k]
    chunks = [(k * min(chunk, 75 - s0), k * s0) for s0 in range(0, 75, chunk)]
    assert len(chunks) >= 3 and chunks[-1][0] < k * chunk
    assert tiles == [
        (first, count, n_draws, first_draw)
        for first, count in ((0, 256), (256, 94))
        for n_draws, first_draw in chunks
    ]


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("budget", [1, 256 * 36])
def test_one_step_last_chunk_is_bit_identical(monkeypatch, model, budget):
    # 73 steps: chunks of 4, 36 or 12 steps all leave a last chunk of one
    one_tile(monkeypatch)
    whole = []
    want, want_out = discounts(model, monkeypatch, whole, horizon=1.45)
    k = 2 if model == "g2pp" else 1
    assert whole == [(0, 350, 73 * k, 0)]
    monkeypatch.setattr(montecarlo, "_TILE_PATHS", 256)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", budget)
    tiles = []
    got, got_out = discounts(model, monkeypatch, tiles, horizon=1.45)
    assert got_out.tobytes() == want_out.tobytes()
    assert got == want
    assert tiles[-1] == (256, 94, k, 72 * k)


@pytest.mark.parametrize(
    "n_paths, k, steps",
    [(45000, 1, 1020), (45000, 2, 508), (128, 2, 508), (100, 1, 1308), (10, 2, 6548)],
)
def test_tile_steps_fill_the_budget_with_an_odd_multiple_of_4(n_paths, k, steps):
    # 2^17 // (128 k) steps, a power of two, would give every row of a
    # tile a 2^13-byte stride
    assert montecarlo._tile_steps(n_paths, k) == steps
    assert steps % 8 == 4
    assert min(n_paths, montecarlo._TILE_PATHS) * k * steps <= montecarlo._BLOCK_ELEMENTS


def test_one_tile_alive_at_a_time(monkeypatch):
    # 2 pair tiles (350 pairs) x 7 step chunks; each draw finds every
    # earlier tile gone
    monkeypatch.setattr(montecarlo, "_TILE_PATHS", 200)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 200 * 2 * 12)
    drawn = []

    def watched(seed, first_path, n_paths, n_draws, first_draw=0):
        alive = [i for i, ref in enumerate(drawn) if ref() is not None]
        assert not alive, f"tile {len(drawn)} drawn while tiles {alive} are alive"
        block = normal_block(seed, first_path, n_paths, n_draws, first_draw)
        drawn.append(weakref.ref(block))
        return block

    monkeypatch.setattr(montecarlo, "normal_block", watched)
    params, state0 = MODELS["g2pp"]
    mc_zero_price("g2pp", params, state0, HORIZON, CONFIG, curve=CURVE)
    assert len(drawn) == 2 * 7


def test_a_price_builds_one_bit_generator_for_all_its_tiles(monkeypatch):
    # 3 pair tiles x 3 step chunks, drawn through one Philox; the shared
    # generator is gone after the price, so a lone block builds its own
    from numpy.random import Philox

    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("key"))
        return Philox(*args, **kwargs)

    tiles = []
    monkeypatch.setattr(np.random, "Philox", counting)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 128 * 40)
    est, _ = discounts("vasicek", monkeypatch, tiles)
    assert len(tiles) == 9 and len(built) == 1
    assert rng._shared is None
    normal_block(11, 0, 2, 4)
    assert len(built) == 2
    monkeypatch.undo()
    assert est == discounts("vasicek", monkeypatch, [])[0]


# runs one oracle command in a child of its own and prints that child's peak
# resident set in KiB, so nothing else this test process ran counts
_PEAK = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-c",
                "import sys; from curveforge.cli import main; main(sys.argv[1:])",
                *sys.argv[1:]], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def oracle_peak_mb(out_dir, *args):
    """The peak resident set, in MB, of one g2pp ``oracle`` command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _PEAK, "--output-dir", str(out_dir),
         "oracle", "--model", "g2pp", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (out_dir / "oracle.txt").exists()
    return int(done.stdout.split()[-1]) / 1024


@pytest.fixture(scope="module")
def floor_mb(tmp_path_factory):
    """The peak of the same command at 4 paths: the imports, the closed
    form and two pairs of normals, with no tile worth the name."""
    return oracle_peak_mb(tmp_path_factory.mktemp("floor"), "--paths", "4")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize(
    "args",
    [
        # the benchmark's g2pp oracle: 45,000 paths of 756 two-factor steps
        ("--paths", "45000"),
        # 4,000 paths of 7,560 two-factor steps: the peak must not grow
        # with the maturity either
        ("--maturity", "30", "--paths", "4000"),
    ],
    ids=["45000-paths", "30-years"],
)
def test_oracle_peak_memory(tmp_path, floor_mb, args):
    # one 1 MiB tile and its per-pair sums; 2^22-normal tiles added ~24 MB
    extra_mb = oracle_peak_mb(tmp_path, *args) - floor_mb
    assert extra_mb < 8, f"the tiles added {extra_mb:.1f} MB to a {floor_mb:.1f} MB peak"
