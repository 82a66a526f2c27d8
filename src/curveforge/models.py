"""The four models the package knows, one ``Model`` record each.

Every model prices log P(t, T) = alpha(t, T) - beta(t, T) . X for a state
of k factors that take exact Ornstein-Uhlenbeck steps (for the
forward-curve models, the stochastic part of the short rate).  A record
holds what the package needs of a model besides its closed-form price:
parameter and state classes (a parameter file's keys are the parameter
fields, in order), factor count, whether a market curve prices it, its
default state, how it is fitted and its step moments, from
``shortrate.ou_moments``.  Parameter files, surfaces, the likelihood, the
simulators and the CLI's ``--model`` choices all read ``MODELS``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from .hjm import HoLeeParams, HullWhiteParams, ShortRateState
from .shortrate import G2Params, G2State, VasicekParams, ou_moments


@dataclass(frozen=True)
class Model:
    """One model's facts; ``moments(params, gaps)`` gives the decays
    decay[i], the drifts drift[i] (None when there are none) and the
    covariance cov[i][j] of the factor step over each gap."""

    params: type
    state: type
    factors: int
    needs_curve: bool
    # "ml": exact maximum likelihood on a price panel (fit-ml, synth);
    # "calibration": cross-section least squares (calibrate)
    fit: str
    # (params, curve) -> the state at time 0 when none is given
    default_state: Callable
    moments: Callable

    def factor_values(self, state) -> list:
        """The state's k factor values, in the order of ``moments``."""
        return list(dataclasses.astuple(state)[: self.factors])


def _vasicek_moments(p: VasicekParams, gaps):
    decay, cov = ou_moments((p.a,), (p.sigma,), 0.0, gaps)
    return decay, [p.b * (1.0 - decay[0])], cov


def _g2pp_moments(p: G2Params, gaps):
    decay, cov = ou_moments((p.a, p.b), (p.sigma, p.eta), p.rho, gaps)
    return decay, None, cov


def _holee_moments(p: HoLeeParams, gaps):
    decay, cov = ou_moments((0.0,), (p.sigma,), 0.0, gaps)
    return decay, None, cov


def _hullwhite_moments(p: HullWhiteParams, gaps):
    decay, cov = ou_moments((p.a,), (p.sigma,), 0.0, gaps)
    return decay, None, cov


def _short_end(params, curve) -> ShortRateState:
    return ShortRateState(r=curve.forward(0.0))


MODELS = {
    "vasicek": Model(VasicekParams, ShortRateState, factors=1, needs_curve=False, fit="ml",
                     default_state=lambda p, curve: ShortRateState(r=p.b),
                     moments=_vasicek_moments),
    "g2pp": Model(G2Params, G2State, factors=2, needs_curve=True, fit="ml",
                  default_state=lambda p, curve: G2State(x=0.0, y=0.0),
                  moments=_g2pp_moments),
    "holee": Model(HoLeeParams, ShortRateState, factors=1, needs_curve=True,
                   fit="calibration", default_state=_short_end, moments=_holee_moments),
    "hullwhite": Model(HullWhiteParams, ShortRateState, factors=1, needs_curve=True,
                       fit="calibration", default_state=_short_end,
                       moments=_hullwhite_moments),
}


def record(model: str, params) -> Model:
    """The record of ``model``, after checking the class of ``params``."""
    spec = MODELS.get(model)
    if spec is None:
        raise ValueError(f"unknown model {model!r}")
    if not isinstance(params, spec.params):
        raise TypeError(f"{model} model needs {spec.params.__name__}")
    return spec


def fitted_by(fit: str) -> list[str]:
    """The names of the models fitted the ``fit`` way, in table order."""
    return [name for name, model in MODELS.items() if model.fit == fit]


def param_fields(model: str) -> tuple[str, ...]:
    """Parameter names of ``model`` in declaration order."""
    return tuple(f.name for f in dataclasses.fields(MODELS[model].params))
