"""Exponentials, squares and ordering checks for floats and arrays alike.

The closed-form prices are written once and take floats or numpy arrays.
On arrays their exponentials and squares still go through the math
module's routines, element by element: numpy's vectorised exp, expm1 and
x**2 round differently from libm's exp, expm1 and pow(x, 2) on part of the
inputs (np.exp on ~5% of draws in [-3, 0.5] on an AVX-512 host, x*x
against pow(x, 2) on ~0.09%), and a price computed over an array must
equal the scalar price bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _or_inf(fn, *args):
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _pointwise(fn, x: np.ndarray, *rest):
    """fn(element, *rest) of each element of an array, where an element
    that overflows becomes inf instead of raising; a 0-d array counts as a
    scalar."""
    if not x.ndim:
        return fn(float(x), *rest)
    flat = x.ravel().tolist()
    try:
        out = list(map(fn, flat, *map(itertools.repeat, rest)))
    except OverflowError:
        out = [_or_inf(fn, v, *rest) for v in flat]
    return np.array(out, dtype=float).reshape(x.shape)


def exp(x):
    """math.exp; element by element on arrays (not np.exp, see above)."""
    if isinstance(x, np.ndarray):
        return _pointwise(math.exp, x)
    return math.exp(x)


def expm1(x):
    """math.expm1; element by element on arrays."""
    if isinstance(x, np.ndarray):
        return _pointwise(math.expm1, x)
    return math.expm1(x)


def square(x):
    """x ** 2 through libm's pow, as Python floats compute it; element by
    element on arrays, as pow(v, 2.0): the same float power as v ** 2."""
    if isinstance(x, np.ndarray):
        return _pointwise(pow, x, 2.0)
    return x ** 2


def concatenated(*xs):
    """The elements of the arguments as one flat float array, and a
    function that splits an array over them back into one array per
    argument at its shape (0-d for a scalar).  An element-wise function
    called once on the flat array thus gives each argument what a call of
    its own would."""
    arrays = [np.asarray(x, dtype=float) for x in xs]
    ends = np.cumsum([a.size for a in arrays]).tolist()

    def split(flat):
        return [flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]

    return np.concatenate([a.ravel() for a in arrays]), split


def anywhere(cond) -> bool:
    """Whether a comparison holds anywhere: np.any on arrays, and the plain
    bool of a scalar comparison unchanged."""
    return cond.any() if isinstance(cond, np.ndarray) else cond
