"""The model records: each model's step moments against a reference, the
error types of the likelihood and the simulators at the edges, and the
facts the rest of the package reads from the table.

The one-factor moments are checked against ``_ref_vasicek_transition``,
a frozen copy of the scalar one-gap transition the package used to export;
the two-factor moments against the frozen reference
``_ref_g2pp_transition`` in ``test_kfactor_reference.py``.

Bounds are in units of EPS = 2^-52, the spacing of floats in [1, 2); one
correctly rounded operation errs by at most EPS / 2, relative.  numpy's exp
and expm1 err by at most 4 ulp (the SVML bound of AVX-512 hosts), the math
module's by under 1 ulp, and an ulp of a float is at most EPS times it, so
the two differ by at most 5 EPS, relative.
"""

import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from curveforge import fileio
from curveforge.curve import flat_curve
from curveforge.errors import BoundaryError, DegenerateStepError
from curveforge.estimation import loglik_g2pp
from curveforge.hjm import HoLeeParams, HullWhiteParams, ShortRateState
from curveforge.models import MODELS, fitted_by, param_fields
from curveforge.montecarlo import SimConfig, mc_zero_price, synth_panel
from curveforge.shortrate import G2Params, G2State, VasicekParams

EPS = 2.0**-52
# a variance sigma^2 (-expm1(-2 a h)) / 2a: the two expm1 differ by 5 EPS
# and the product and the division add EPS / 2 on each side
VAR_RTOL = 7 * EPS
START = dt.date(2013, 1, 7)
CURVE = flat_curve(0.04, span=80.0)
PARAMS = {
    "vasicek": VasicekParams(a=0.8, b=0.05, sigma=0.02),
    "g2pp": G2Params(a=0.3, b=0.6, sigma=0.03, eta=0.02, rho=0.4),
    "holee": HoLeeParams(sigma=0.01),
    "hullwhite": HullWhiteParams(a=0.4, sigma=0.015),
}


def _gaps(rng, n=50):
    """Gaps log-uniform on [1e-8, 5] years."""
    return np.exp(rng.uniform(math.log(1e-8), math.log(5.0), size=n))


def _ref_vasicek_transition(params, r_s, dt):
    """Exact conditional (mean, variance) of r after a step of dt years."""
    if dt <= 0:
        raise DegenerateStepError(f"step must be positive, got {dt}")
    a, b, sigma = params.a, params.b, params.sigma
    decay = math.exp(-a * dt)
    mean = r_s * decay + b * (1.0 - decay)
    var = sigma**2 * (-math.expm1(-2.0 * a * dt)) / (2.0 * a)
    return mean, var


def test_vasicek_moments_against_the_scalar_transition():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = VasicekParams(
            a=float(rng.uniform(0.05, 8.0)),
            b=float(rng.uniform(0.005, 0.2)),
            sigma=float(rng.uniform(0.005, 0.8)),
        )
        r = float(rng.normal(0.05, 0.05))
        gaps = _gaps(rng)
        (decay,), (drift,), ((var,),) = MODELS["vasicek"].moments(p, gaps)
        for h, d, m, v in zip(gaps.tolist(), decay, drift, var):
            want_mean, want_var = _ref_vasicek_transition(p, r, h)
            # r decay + b (1 - decay): the decays differ by 5 EPS decay, and
            # each side rounds two products, a difference and a sum, each
            # within EPS / 2 of a term no larger than |r| + b
            assert abs(r * d + m - want_mean) <= 9 * EPS * (abs(r) + p.b)
            assert v == pytest.approx(want_var, rel=VAR_RTOL, abs=0.0)


def test_holee_moments_are_the_brownian_limit():
    rng = np.random.default_rng(6)
    p = HoLeeParams(sigma=0.0123)
    gaps = _gaps(rng)
    (decay,), drift, ((var,),) = MODELS["holee"].moments(p, gaps)
    assert drift is None
    # exp(-0 g) is 1 and sigma^2 g is the same two roundings: equal bits
    np.testing.assert_array_equal(decay, np.ones_like(gaps))
    np.testing.assert_array_equal(var, p.sigma**2 * gaps)


def test_hullwhite_moments_are_the_ou_formula():
    rng = np.random.default_rng(7)
    p = HullWhiteParams(a=0.0813, sigma=0.0215)
    gaps = _gaps(rng)
    (decay,), drift, ((var,),) = MODELS["hullwhite"].moments(p, gaps)
    assert drift is None
    for h, d, v in zip(gaps.tolist(), decay, var):
        # np.exp against math.exp: 5 EPS
        assert d == pytest.approx(math.exp(-p.a * h), rel=5 * EPS, abs=0.0)
        want = p.sigma**2 * (-math.expm1(-2.0 * p.a * h)) / (2.0 * p.a)
        assert v == pytest.approx(want, rel=VAR_RTOL, abs=0.0)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("gap", [0.0, -0.5])
def test_non_positive_gap_is_a_degenerate_step(model, gap):
    with pytest.raises(DegenerateStepError):
        MODELS[model].moments(PARAMS[model], np.array([0.02, gap, 0.02]))


class TestRhoAtOne:
    @pytest.fixture(scope="class")
    def panel(self):
        schedule = [START + dt.timedelta(weeks=k) for k in range(20)]
        instruments = [("A", dt.date(2030, 1, 7)), ("B", dt.date(2040, 1, 7))]
        return synth_panel("g2pp", PARAMS["g2pp"], schedule, instruments, curve=CURVE)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    @pytest.mark.parametrize("b", [0.6, 0.3])
    def test_likelihood_refuses_simulators_run(self, panel, rho, b):
        params = dataclasses.replace(PARAMS["g2pp"], b=b, rho=rho)
        with pytest.raises(BoundaryError):
            loglik_g2pp(params, CURVE, panel)
        # the simulators take the step covariance as it is: with a == b it is
        # singular, and the Cholesky factor's clamp absorbs the rounding
        estimate = mc_zero_price(
            "g2pp", params, G2State(0.0, 0.0), 2.0,
            SimConfig(n_paths=50, step=0.02, seed=1), curve=CURVE,
        )
        assert math.isfinite(estimate.value) and estimate.stderr > 0
        schedule = [START + dt.timedelta(weeks=k) for k in range(20)]
        synthetic = synth_panel("g2pp", params, schedule, panel.instruments, curve=CURVE)
        assert len(synthetic.observations) == 20


class TestTable:
    def test_default_states(self):
        assert MODELS["vasicek"].default_state(PARAMS["vasicek"], None) == ShortRateState(
            r=PARAMS["vasicek"].b)
        assert MODELS["g2pp"].default_state(PARAMS["g2pp"], CURVE) == G2State(0.0, 0.0)
        for model in ("holee", "hullwhite"):
            state = MODELS[model].default_state(PARAMS[model], CURVE)
            assert state == ShortRateState(r=CURVE.forward(0.0))

    def test_factor_values_follow_the_factor_count(self):
        assert MODELS["g2pp"].factor_values(G2State(0.1, -0.2, 0.5)) == [0.1, -0.2]
        for model in ("vasicek", "holee", "hullwhite"):
            assert MODELS[model].factor_values(ShortRateState(0.03, 0.5)) == [0.03]

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_records_agree_with_their_classes(self, model, tmp_path):
        spec = MODELS[model]
        params = PARAMS[model]
        assert isinstance(params, spec.params)
        decay, drift, cov = spec.moments(params, np.array([0.25]))
        assert len(decay) == len(cov) == spec.factors
        assert (drift is None) == (model != "vasicek")
        assert spec.needs_curve == (model != "vasicek")
        assert param_fields(model) == tuple(f.name for f in dataclasses.fields(params))
        fileio.params_to_file(tmp_path / "p", model, params)
        assert fileio.params_from_file(tmp_path / "p", model) == params

    def test_fit_kinds_partition_the_table(self):
        assert fitted_by("ml") + fitted_by("calibration") == list(MODELS)
