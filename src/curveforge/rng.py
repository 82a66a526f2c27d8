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
across platforms, unlike rejection samplers.  The inverse CDF is scipy's
``ndtri``.  scipy and ``numpy.random`` are imported on first use, not with
this module, so commands that never simulate load neither.
"""

from __future__ import annotations

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


def path_generator(seed: int, path_index: int = 0) -> Generator:
    """Generator for one path's private stream."""
    from numpy.random import Generator, Philox

    if seed < 0 or path_index < 0:
        raise ValueError("seed and path index must be non-negative")
    key = np.array([seed, path_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def standard_normals(gen: Generator, n: int) -> np.ndarray:
    """n standard normals via the inverse CDF."""
    u = gen.random(n)
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u, out=u)


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
