"""Which commands load scipy and ``numpy.random``.

scipy.optimize takes about half a second to import, and only Hull-White's
refine (``calibration.minimize``, Powell) and the oracle's inverse normal
CDF (``rng.ndtri``, scipy's vectorised ``ndtri``) use scipy.
``numpy.random`` serves only the random streams (``rng.path_generator``)
and fit-ml's restart draws.  Each of them is imported on first call, so
importing the package, and running a command that neither fits nor
simulates, must leave every ``scipy`` and ``numpy.random`` module unloaded.
So must a Ho-Lee ``calibrate``: its one-parameter search is the package's
own.  ``fit-ml``'s Nelder-Mead (``estimation.minimize``) is the package's
own too, so it loads ``numpy.random`` for its restart draws and no scipy
module.  ``synth`` inverts its few uniforms through the package's scalar
copy of Cephes ``ndtri`` (``rng.scalar_ndtri``), so it loads
``numpy.random`` for its stream and no scipy module either; only the
``oracle`` loads ``scipy.special``.  Each check runs in a fresh
interpreter, since this test process has both loaded already.
"""

import datetime as dt
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from curveforge import fileio, rng
from curveforge.curve import flat_curve
from curveforge.daycount import year_fraction
from curveforge.estimation import StateSeries
from curveforge.hjm import HoLeeParams, holee_price
from curveforge.montecarlo import synth_panel
from curveforge.shortrate import G2Params, G2State, VasicekParams

SRC = Path(__file__).resolve().parent.parent / "src"
ASOF = dt.date(2013, 1, 7)

# runs the commands given as a JSON list of argument lists through cli.main,
# then prints the loaded scipy and numpy.random modules as the last line of
# output
_RUN = """
import json, sys
{preload}
import curveforge
from curveforge.cli import main
for args in json.loads(sys.argv[1]):
    main(args, standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] == "scipy" or m.startswith("numpy.random"))))
"""


def lazy_modules_after(commands=(), preload=""):
    """scipy and numpy.random modules loaded in a fresh interpreter after
    ``commands``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _RUN.format(preload=preload), json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    curve = flat_curve(0.04, span=40.0, n_pillars=40, asof=ASOF)
    fileio.write_curve(root / "curve.csv", curve)
    g2 = G2Params(a=0.13, b=0.3526, sigma=0.2062, eta=0.4892, rho=-0.99)
    fileio.params_to_file(root / "g2pp.params", "g2pp", g2)
    fileio.state_to_file(root / "g2.state", G2State(x=0.01, y=-0.01, t=0.0))
    fileio.write_states(
        root / "states_2f.csv",
        StateSeries(times=np.array([0.0, 0.5]), values=np.array([[0.01, -0.01], [0.02, -0.02]])),
    )
    vasicek = VasicekParams(a=1.7051, b=0.0937, sigma=0.3721)
    schedule = [ASOF + dt.timedelta(weeks=k) for k in range(60)]
    panel = synth_panel("vasicek", vasicek, schedule, [("Z", dt.date(2056, 1, 4))], seed=3)
    fileio.write_panel(root / "panel.csv", panel)
    bonds = [("L", dt.date(2041, 1, 4)), ("XL", dt.date(2051, 1, 4))]
    panel = synth_panel("g2pp", g2, schedule, bonds, curve=curve, seed=4)
    fileio.write_panel(root / "panel_2f.csv", panel)
    sections = []
    for weeks in (60, 61):
        date = ASOF + dt.timedelta(weeks=weeks)
        t = year_fraction(ASOF, date)
        quotes = [(tau, holee_price(HoLeeParams(sigma=0.02), curve, 0.05, t, t + tau))
                  for tau in (0.25, 1.0, 5.0, 10.0)]
        sections.append((date, quotes))
    fileio.write_cross_sections(root / "sections.csv", sections)
    return root


def test_importing_the_package_loads_no_scipy():
    assert lazy_modules_after() == []


def _scipy_free_commands(inputs):
    g2pp = ["--model", "g2pp", "--params", str(inputs / "g2pp.params"),
            "--curve", str(inputs / "curve.csv")]
    return {
        "surface": ["surface", *g2pp, "--states", str(inputs / "states_2f.csv")],
        "price": ["price", *g2pp, "--state", str(inputs / "g2.state"), "--maturity", "5.0"],
        "check-arbitrage": ["check-arbitrage", *g2pp, "--state", str(inputs / "g2.state")],
        "calibrate": ["calibrate", "--model", "holee",
                      "--cross-section", str(inputs / "sections.csv"),
                      "--curve", str(inputs / "curve.csv")],
    }


@pytest.mark.parametrize("command", ["surface", "price", "check-arbitrage", "calibrate"])
def test_command_without_fit_or_simulation_loads_no_scipy(inputs, tmp_path, command):
    args = ["--output-dir", str(tmp_path), *_scipy_free_commands(inputs)[command]]
    assert lazy_modules_after([args]) == []
    assert (tmp_path / "run_log.jsonl").exists()


ARTIFACTS = {
    "oracle": ["oracle.txt", "run_log.jsonl"],
    "fit-ml": ["fit_params.txt", "fit_states.csv", "fit_report.txt", "run_log.jsonl"],
    "synth": ["panel.csv", "run_log.jsonl"],
}
PRELOADED = "import numpy.random, scipy.optimize, scipy.special"


def _deferred_and_preloaded(command, argv, tmp_path):
    """(loaded modules, written artifacts) of ``argv`` run in a fresh
    interpreter, as is and after importing every lazy module first:
    {"deferred": ..., "preloaded": ...}."""
    runs = {}
    for name, preload in (("deferred", ""), ("preloaded", PRELOADED)):
        outdir = tmp_path / name
        loaded = lazy_modules_after([["--output-dir", str(outdir), *argv]], preload)
        runs[name] = loaded, {a: (outdir / a).read_bytes() for a in ARTIFACTS[command]}
    return runs


def _scipy_commands(inputs):
    return {
        "oracle": ["oracle", "--model", "vasicek", "--maturity", "2.0",
                   "--paths", "2000", "--step", "0.02", "--seed", "7"],
    }


@pytest.mark.parametrize("command", ["oracle"])
def test_command_that_needs_scipy_loads_it_and_writes_the_same_artifacts(
    inputs, tmp_path, command
):
    runs = _deferred_and_preloaded(command, _scipy_commands(inputs)[command], tmp_path)
    loaded, written = runs["deferred"]
    assert "scipy" in loaded and "numpy.random" in loaded
    assert written == runs["preloaded"][1]


def _synth_commands(inputs):
    return {
        "vasicek": ["synth", "--model", "vasicek", "--n-obs", "20", "--seed", "5"],
        "g2pp": ["synth", "--model", "g2pp", "--curve", str(inputs / "curve.csv"),
                 "--n-obs", "20", "--seed", "5"],
    }


@pytest.mark.parametrize("model", ["vasicek", "g2pp"])
def test_synth_loads_numpy_random_and_no_scipy_and_writes_the_same_artifacts(
    inputs, tmp_path, model
):
    runs = _deferred_and_preloaded("synth", _synth_commands(inputs)[model], tmp_path)
    loaded, written = runs["deferred"]
    assert "numpy.random" in loaded
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]
    assert written == runs["preloaded"][1]


def _fit_commands(inputs):
    return {
        "vasicek": ["fit-ml", "--model", "vasicek", "--panel", str(inputs / "panel.csv"),
                    "--restarts", "2", "--seed", "1"],
        "g2pp": ["fit-ml", "--model", "g2pp", "--panel", str(inputs / "panel_2f.csv"),
                 "--curve", str(inputs / "curve.csv"), "--restarts", "2", "--seed", "1"],
    }


@pytest.mark.parametrize("model", ["vasicek", "g2pp"])
def test_fit_loads_numpy_random_and_no_scipy_and_writes_the_same_artifacts(
    inputs, tmp_path, model
):
    runs = _deferred_and_preloaded("fit-ml", _fit_commands(inputs)[model], tmp_path)
    loaded, written = runs["deferred"]
    assert "numpy.random" in loaded
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]
    assert written == runs["preloaded"][1]


def test_ndtri_writes_in_place_bit_equal_to_scipy():
    u = np.random.default_rng(0).random((3, 1000))
    u[0, 0] = 1e-300
    expected = scipy.special.ndtri(u)
    assert rng.ndtri(u).tobytes() == expected.tobytes()
    assert rng.ndtri(u, out=u) is u
    assert u.tobytes() == expected.tobytes()
