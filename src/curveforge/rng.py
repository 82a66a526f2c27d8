"""Reproducible random streams for simulation.

Streams are counter-based (Philox) and keyed per path: path i of a run with
master seed s draws from the stream keyed (s, i), so its draws never depend
on how many paths are requested or in which order blocks execute.  A
Philox stream is a function of its key and counter alone, so a block of
paths re-keys one bit generator per row instead of building one per path,
and a block may start any row at a later draw by setting its counter: one
counter step covers four draws.  A price's tiles share that one bit
generator (``shared_streams``), since every row sets its whole state.
Normals come from the inverse CDF applied to uniforms, which is bit-stable
across platforms, unlike rejection samplers (Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2003, section 2.2).  Each sampler has one
inverse:

* ``normal_block`` (the oracle's tiles, up to 2^17 draws a call) inverts
  through scipy's vectorised ``ndtri`` (``ndtri`` below), ~20 ns a draw.
* ``standard_normals`` (the one path ``synth`` simulates, at most two draws
  a date) inverts through ``scalar_ndtri``, a Python copy of the Cephes
  routine scipy's is built from (Moshier, *Methods and Programs for
  Mathematical Functions*, 1989).  It costs ~1.2-1.5 us a draw, nothing
  beside the ~100 us of scalar pricing per date, and it spares ``synth``
  (and so every ``fit`` round) the ~18 MB and ~0.3 s of importing
  ``scipy.special``.  It returns scipy's results bit for bit: the same
  constants, branch tests and Horner order, with ``math.log``, which is
  the C library's ``log`` scipy calls.  A vectorised copy cannot do both:
  numpy's SIMD ``log`` rounds differently, and the copy is slower than
  scipy's.

The split is by sampler, not by size: a few-step oracle draws tiles of a
few hundred normals, which the Python loop would make ~60 times dearer per
draw.  scipy and ``numpy.random`` are imported on first use, not with this
module, so commands that never simulate load neither, and ``synth`` loads no
scipy module.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

_U_FLOOR = 1e-300  # random() can return exactly 0.0; ndtri(0) is -inf
# the generator every normal_block call re-keys inside shared_streams()
_shared: Generator | None = None


def ndtri(u, out=None):
    """``scipy.special.ndtri``, imported on first use; writes into ``out``."""
    from scipy.special import ndtri as scipy_ndtri

    return scipy_ndtri(u, out=out)


# Cephes ndtri's rational approximations: P0/Q0 for |y - 0.5| <= 3/8, and
# in z = sqrt(-2 log y), P1/Q1 for 2 <= z < 8 and P2/Q2 for 8 <= z <= 64.
# Q's leading coefficient 1 is implied (``_p1evl``).
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x: float, coef: tuple) -> float:
    """coef[0] x^n + ... + coef[n], in Horner's order."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coef: tuple) -> float:
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], in Horner's order."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def scalar_ndtri(y0: float) -> float:
    """The standard normal quantile of one float: Cephes ``ndtri`` step for
    step, so equal to ``scipy.special.ndtri(y0)`` bit for bit, -inf at 0,
    inf at 1 and nan outside [0, 1] (a nan passes through, sign-flipped as
    in C)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def path_generator(seed: int, path_index: int = 0) -> Generator:
    """Generator for one path's private stream."""
    from numpy.random import Generator, Philox

    if seed < 0 or path_index < 0:
        raise ValueError("seed and path index must be non-negative")
    key = np.array([seed, path_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def standard_normals(gen: Generator, n: int) -> np.ndarray:
    """n standard normals via the inverse CDF, ``scalar_ndtri`` of each
    floored uniform.  Only ``synth``'s one path draws here, a few normals a
    date, so the Python loop costs nothing that shows, and no scipy module
    is loaded; ``normal_block`` serves the oracle's large tiles."""
    u = gen.random(n)
    np.maximum(u, _U_FLOOR, out=u)
    return np.array([scalar_ndtri(v) for v in u.tolist()], dtype=float)


def _keyless_generator() -> Generator:
    """A Generator over a Philox of any key: every row sets its own."""
    from numpy.random import Generator, Philox

    return Generator(Philox())


@contextmanager
def shared_streams():
    """Inside the block, every ``normal_block`` call re-keys one bit
    generator built on entry instead of building its own (the oracle opens
    one per price, for all its tiles)."""
    global _shared
    outer, _shared = _shared, _shared or _keyless_generator()
    try:
        yield
    finally:
        _shared = outer


def normal_block(
    seed: int, first_path: int, n_paths: int, n_draws: int, first_draw: int = 0
) -> np.ndarray:
    """(n_paths, n_draws) normals; row i holds draws first_draw onwards of
    path first_path + i.

    Each row is drawn from its own keyed stream, so the block decomposition
    is invisible in the output: columns j:j+m of a block equal the block
    drawn with first_draw=j and m draws.  One bit generator serves the whole
    block (and every block inside ``shared_streams``): before each row it
    gets that row's key and a fresh state with counter first_draw // 4 and
    an empty buffer, which is exactly the state a new Philox(key) is in
    after its first first_draw draws.  first_draw must therefore be a
    multiple of 4.  numpy has no call that draws from several keys at once,
    so each row costs one state set and one ``random`` call.  The uniforms
    are inverted in place, so only the returned block is held.
    """
    if first_draw < 0 or first_draw % 4:
        raise ValueError(f"first draw {first_draw} must be a non-negative multiple of 4")
    if seed < 0 or first_path < 0:
        raise ValueError("seed and path index must be non-negative")
    gen = _shared or _keyless_generator()
    bitgen = gen.bit_generator
    # a fresh Philox's state, in plain ints, which set faster than arrays
    key = [seed, first_path]
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [first_draw // 4, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = np.empty((n_paths, n_draws))
    for i in range(n_paths):
        key[1] = first_path + i
        bitgen.state = fresh
        gen.random(out=u[i])
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u, out=u)
