"""Artifact digests: the sha256 of every file a small run of each seeded
command family writes.

``run_cases`` writes its inputs as plain text (so they do not depend on the
package's writers) into the current directory, runs every command of
``CASES`` through click's ``CliRunner`` with relative paths, each into its
own output directory, and hashes every file there, run logs included.  The
cases cover:

* ``oracle`` for all four models over more than one tile of antithetic
  pairs (128 pairs), the two-factor one also over more than one step
  chunk;
* ``synth`` and ``fit-ml`` (2 restarts) for both models;
* Ho-Lee and Hull-White ``calibrate`` on a few dates of Ho-Lee quotes
  (Hull-White's a lands on its lower bound), Hull-White on Hull-White
  quotes at an interior a, and Ho-Lee again with ``--per-date-curve``
  (each date anchored on the previous date's quotes);
* ``surface`` for all four models;
* ``check-arbitrage`` on a two-factor state whose dP/dT changes sign and on
  an inverted curve, ``price`` for all four models, and ``bootstrap``.

``tests/test_artifact_digests.py`` compares the digests with the committed
manifest.  A change that moves an output on purpose regenerates it with

    PYTHONPATH=src python3 tests/fixtures/artifact_digests.py

and names the manifest's diff.
"""

import datetime as dt
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

from click.testing import CliRunner

from curveforge.cli import main as cli

OUT_PATH = os.path.join(os.path.dirname(__file__), "artifact_digests.json")

ASOF = dt.date(2013, 1, 7)
RATE = 0.04
PARAMS = {
    "vasicek": {"a": 5.0, "b": 0.05, "sigma": 0.1},
    "g2pp": {"a": 0.3, "b": 0.6, "sigma": 0.03, "eta": 0.02, "rho": 0.4},
    "holee": {"sigma": 0.0215},
    "hullwhite": {"a": 0.0813, "sigma": 0.0215},
}
# the CLI's built-in two-factor parameters: long bonds price above 1 for
# some states, so the state in "audit.state" shows a dP/dT sign change
ARBITRAGE_PARAMS = {"a": 0.13, "b": 0.3526, "sigma": 0.2062, "eta": 0.4892, "rho": -0.99}
TENORS = (0.25, 1.0, 2.0, 5.0, 10.0, 20.0)
# the damped-vol parameters of "inputs/sections_hw.csv"
HW_INTERIOR = {"a": 0.1, "sigma": 0.0215}
SURFACE_WEEKS = 12
# 2,050 antithetic pairs: 16 full 128-pair tiles and one of 2 pairs
ORACLE_PATHS = "4100"


def _write(path: str, lines) -> str:
    Path(path).write_text("\n".join(lines) + "\n")
    return path


def _years(date: dt.date) -> float:
    return (date - ASOF).days / 365.0


def write_inputs() -> None:
    """The input files of ``CASES``, under ``inputs/``."""
    os.makedirs("inputs", exist_ok=True)
    _write("inputs/curve.csv", [f"# asof={ASOF.isoformat()}", "tau,discount_factor"] + [
        f"{float(i)!r},{math.exp(-RATE * i)!r}" for i in range(1, 81)])
    _write("inputs/inverted.csv", ["tau,discount_factor", "1.0,0.9", "2.0,0.95", "3.0,0.85"])
    for model, values in PARAMS.items():
        _write(f"inputs/{model}.params",
               [f"model={model}"] + [f"{k}={v!r}" for k, v in values.items()])
    _write("inputs/arbitrage.params",
           ["model=g2pp"] + [f"{k}={v!r}" for k, v in ARBITRAGE_PARAMS.items()])
    _write("inputs/audit.state", ["x=0.02", "y=0.0", "t=5.0"])
    _write("inputs/short.state", ["r=0.045", "t=0.5"])
    _write("inputs/g2.state", ["x=0.004", "y=-0.003", "t=0.5"])
    dates = [ASOF + dt.timedelta(weeks=k) for k in range(SURFACE_WEEKS)]
    _write("inputs/states_r.csv", ["date,time,r"] + [
        f"{d.isoformat()},{_years(d)!r},{RATE + 0.002 * math.sin(k)!r}"
        for k, d in enumerate(dates)])
    _write("inputs/states_xy.csv", ["date,time,x,y"] + [
        f"{d.isoformat()},{_years(d)!r},{0.003 * math.sin(k)!r},{-0.002 * math.cos(k)!r}"
        for k, d in enumerate(dates)])
    # Ho-Lee quotes off the flat curve with a small deterministic wobble
    rows = ["date,maturity_years,zero_price"]
    for k in range(3):
        asof = ASOF + dt.timedelta(weeks=53 + 4 * k)
        t = _years(asof)
        r = RATE + 0.01 * math.sin(k)
        for j, tau in enumerate(TENORS):
            price = math.exp(-0.5 * 0.0215**2 * t * tau * tau - tau * r)
            rows.append(f"{asof.isoformat()},{tau!r},{price + 1e-5 * math.cos(j + k)!r}")
    _write("inputs/sections.csv", rows)
    # Hull-White quotes at an interior reversion speed, so the damped-vol
    # fit lands inside A_BOUNDS, with a smaller wobble
    a, sigma = HW_INTERIOR["a"], HW_INTERIOR["sigma"]
    rows = ["date,maturity_years,zero_price"]
    for k in range(3):
        asof = ASOF + dt.timedelta(weeks=53 + 4 * k)
        t = _years(asof)
        r = RATE + 0.01 * math.sin(k)
        variance = sigma**2 * -math.expm1(-2.0 * a * t) / (4.0 * a)
        for j, tau in enumerate(TENORS):
            b = -math.expm1(-a * tau) / a
            price = math.exp(-RATE * tau + b * RATE - variance * b * b - b * r)
            rows.append(f"{asof.isoformat()},{tau!r},{price + 1e-6 * math.cos(j + k)!r}")
    _write("inputs/sections_hw.csv", rows)
    _write("inputs/bonds.csv", [
        "id,face,coupon_rate,frequency,maturity,first_coupon",
        "A,100.0,0.0,0,2013-07-07,",
        "B,100.0,0.04,2,2015-01-07,2012-07-07",
        "C,100.0,0.05,1,2018-01-07,2012-01-07",
    ])
    _write("inputs/quotes.csv", [
        "id,settlement,price",
        "A,2013-01-07,98.1",
        "B,2013-01-07,99.7",
        "C,2013-01-07,101.2",
    ])


def _cases():
    cases = {}
    for model in ("vasicek", "holee", "hullwhite"):
        cases[f"oracle-{model}"] = [
            "oracle", "--model", model, "--paths", ORACLE_PATHS, "--seed", "5",
            "--curve", "inputs/curve.csv"]
    # 1,260 daily steps: three step chunks (508 + 508 + 244) of a two-factor
    # tile
    cases["oracle-g2pp"] = [
        "oracle", "--model", "g2pp", "--paths", ORACLE_PATHS, "--seed", "6",
        "--maturity", "5.0", "--curve", "inputs/curve.csv"]
    for model in ("vasicek", "g2pp"):
        cases[f"synth-{model}"] = [
            "synth", "--model", model, "--params", f"inputs/{model}.params",
            "--curve", "inputs/curve.csv", "--n-obs", "60", "--seed", "3"]
        curve = ["--curve", "inputs/curve.csv"] if model == "g2pp" else []
        cases[f"fit-ml-{model}"] = [
            "fit-ml", "--model", model, "--panel", f"synth-{model}/panel.csv",
            "--restarts", "2", "--seed", "3", *curve]
    for model in ("holee", "hullwhite"):
        cases[f"calibrate-{model}"] = [
            "calibrate", "--model", model, "--cross-section", "inputs/sections.csv",
            "--curve", "inputs/curve.csv"]
    cases["calibrate-hullwhite-interior"] = [
        "calibrate", "--model", "hullwhite", "--cross-section", "inputs/sections_hw.csv",
        "--curve", "inputs/curve.csv"]
    cases["calibrate-holee-per-date"] = [
        "calibrate", "--model", "holee", "--cross-section", "inputs/sections.csv",
        "--curve", "inputs/curve.csv", "--per-date-curve"]
    for model in PARAMS:
        states = "inputs/states_xy.csv" if model == "g2pp" else "inputs/states_r.csv"
        curve = [] if model == "vasicek" else ["--curve", "inputs/curve.csv"]
        cases[f"surface-{model}"] = [
            "surface", "--model", model, "--params", f"inputs/{model}.params",
            "--states", states, *curve]
        state = "inputs/g2.state" if model == "g2pp" else "inputs/short.state"
        cases[f"price-{model}"] = [
            "price", "--model", model, "--params", f"inputs/{model}.params",
            "--state", state, "--maturity", "7.5", *curve]
    cases["check-arbitrage-g2pp"] = [
        "check-arbitrage", "--model", "g2pp", "--params", "inputs/arbitrage.params",
        "--state", "inputs/audit.state", "--curve", "inputs/curve.csv"]
    cases["check-arbitrage-curve"] = ["check-arbitrage", "--curve", "inputs/inverted.csv"]
    cases["bootstrap"] = [
        "bootstrap", "--bonds", "inputs/bonds.csv", "--quotes", "inputs/quotes.csv",
        "--clean"]
    return cases


CASES = _cases()


def run_cases() -> dict[str, str]:
    """Write the inputs into the current directory, run every case into its
    own output directory and return {"case/file": sha256} over every file
    written, plus each command's standard output as "case/stdout".
    Raises AssertionError naming a command that does not exit 0."""
    write_inputs()
    runner = CliRunner()
    digests = {}
    for name, args in CASES.items():
        result = runner.invoke(cli, ["--output-dir", name, *args])
        assert result.exit_code == 0, f"{name}: exit {result.exit_code}\n{result.output}"
        digests[f"{name}/stdout"] = hashlib.sha256(result.output.encode()).hexdigest()
        for path in sorted(Path(name).iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def versions() -> dict[str, str]:
    """The interpreter and library versions the digests were taken with."""
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = run_cases()
        finally:
            os.chdir(cwd)
    with open(OUT_PATH, "w") as handle:
        json.dump({"versions": versions(), "digests": digests}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT_PATH}: {len(digests)} digests", file=sys.stderr)


if __name__ == "__main__":
    main()
