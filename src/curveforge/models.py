"""The model names the package knows, and the parameter and state classes
of each.

Parameter files, surfaces, the Monte-Carlo oracle and the CLI all read
these tables; a model's parameter keys are the fields of its class, in
order.
"""

from __future__ import annotations

import dataclasses

from .hjm import HoLeeParams, HullWhiteParams, ShortRateState
from .shortrate import G2Params, G2State, VasicekParams

PARAM_TYPES = {
    "vasicek": VasicekParams,
    "g2pp": G2Params,
    "holee": HoLeeParams,
    "hullwhite": HullWhiteParams,
}

STATE_TYPES = {
    "vasicek": ShortRateState,
    "g2pp": G2State,
    "holee": ShortRateState,
    "hullwhite": ShortRateState,
}


def param_fields(model: str) -> tuple[str, ...]:
    """Parameter names of ``model`` in declaration order."""
    return tuple(f.name for f in dataclasses.fields(PARAM_TYPES[model]))
