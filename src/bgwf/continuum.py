"""Brownian excursion simulation and the continuum mass-height functional.

An excursion path on a uniform grid codes a continuum tree: the subtrees
above level r are the excursion pieces above r, each contributing its
duration (mass) and its peak minus r (height).  The functional

    Z_f = int_0^sigma ds int_0^{H(s)} f(duration, height of the piece at
          level r straddling s) dr

is evaluated by Fubini as int dr sum over pieces at level r of
duration * f(duration, height), with a midpoint rule over the levels.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .functionals import toll_sum
from .sampler import range_max, workspace

DEFAULT_LEVELS = 1024


@dataclass(frozen=True)
class Excursion:
    """Positive excursion of duration 1 on a uniform grid; values[0] = values[m] = 0."""

    values: np.ndarray

    @property
    def m(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return 1.0 / self.m

    @property
    def max(self) -> float:
        return float(self.values.max())

    def to_csv(self, path_or_buf) -> None:
        buf = path_or_buf if hasattr(path_or_buf, "write") else io.StringIO()
        buf.write("t,value\n")
        dt = self.dt
        for k, v in enumerate(self.values):
            buf.write(f"{k * dt:.12g},{v:.12g}\n")
        if buf is not path_or_buf:
            with open(path_or_buf, "w") as fh:
                fh.write(buf.getvalue())


def sample_excursion(m: int, rng: np.random.Generator) -> Excursion:
    """Normalized excursion: Gaussian bridge of m steps rotated at its minimum.

    The Vervaat rotation of the bridge at the argmin yields a nonnegative
    path with zero endpoints; draws with a non-unique minimum or nonpositive
    interior values (probability zero events up to float ties) are resampled.
    The values are a fresh array.
    """
    if m < 2:
        raise ValueError("need m >= 2 grid steps")
    while True:
        walk = np.cumsum(rng.standard_normal(m) * math.sqrt(1.0 / m))
        # cyc[k] = bridge[k - 1] = walk[k - 1] - k / m * walk[-1], and cyc[0] = 0
        cyc = np.concatenate(([0.0], walk[:-1] - np.arange(1, m) / m * walk[-1]))
        i_min = int(np.argmin(cyc))
        # rotated to start at the minimum, and closed there: values[m] = cyc[i_min] - cyc[i_min]
        values = np.concatenate((cyc[i_min:], cyc[: i_min + 1])) - cyc[i_min]
        if values[1:m].min() > 0.0:
            break
    values.setflags(write=False)
    return Excursion(values=values)


def _level_counts(v: np.ndarray, dr: float, levels: int) -> np.ndarray:
    """Exact count of the levels (k + 1/2) dr, k < levels, strictly below each v.

    A ceil estimate, corrected by one comparison each way with the level
    heights (c + 1/2) dr and (c - 1/2) dr.  At c = levels the first never
    compares true, as v <= max < (levels + 1/2) dr; at c = 0 the second
    does only for v <= -dr/2, and the count is put back to 0 there.
    """
    c = np.clip(np.ceil(v / dr - 0.5), 0, levels).astype(np.intp)
    c += (c + 0.5) * dr < v  # level c is below v after all
    c -= (c - 0.5) * dr >= v  # level c - 1 is not below v
    return np.maximum(c, 0, out=c)


def _crossings(c: np.ndarray, m: int, dtype) -> tuple:
    """(level, up edge, down edge) of each component, by (level, time).

    Edge e crosses the levels min(c[e], c[e+1]) .. max - 1, so its keys
    level * m + e start at min * m + e and step by m: the keys in edge order
    are a cumulative sum of those steps and of the jumps between edges.
    The levels have the key dtype and the edges are intp.  The rows returned
    live in the ``workspace``, as they stay in use for the rest of the
    decomposition.
    """
    counts = np.abs(np.diff(c))
    edges = np.flatnonzero(counts)
    n_e = counts[edges]
    first = np.minimum(c[edges], c[edges + 1]) * m + edges
    # from the previous edge's last key
    jump = np.empty_like(first)
    jump[0] = first[0]
    jump[1:] = first[1:] - ((n_e[:-1] - 1) * m + first[:-1])
    keys = np.full(int(n_e.sum()), m, dtype=dtype)
    keys[np.cumsum(n_e) - n_e] = jump
    keys = np.cumsum(keys, dtype=dtype)
    keys.sort()
    if len(keys) % 2:
        raise ValueError("level crossings do not pair: the path is not an excursion")
    level, level_dn = workspace("crossings.levels", dtype, 2, len(keys) // 2)
    e_up, e_dn = workspace("crossings.edges", np.intp, 2, len(keys) // 2)
    np.divmod(keys[0::2], m, out=(level, e_up))
    np.divmod(keys[1::2], m, out=(level_dn, e_dn))
    if (level != level_dn).any():
        raise ValueError("level crossings do not alternate up/down: the path is not an excursion")
    return level, e_up, e_dn


def _durations(v: np.ndarray, r_vals: np.ndarray, e_up: np.ndarray, e_dn: np.ndarray) -> np.ndarray:
    """Grid time from the up to the down crossing, each linearly interpolated."""
    slope = np.diff(v)
    s_up, s_dn = slope[e_up], slope[e_dn]
    if (s_up <= 0.0).any() or (s_dn >= 0.0).any():
        raise ValueError("level crossings do not alternate up/down: the path is not an excursion")
    return ((r_vals - v[e_dn]) / s_dn + e_dn) - ((r_vals - v[e_up]) / s_up + e_up)


def level_decomposition(exc: Excursion, levels: int = DEFAULT_LEVELS):
    """All (duration, height, level) triples over a midpoint level grid.

    Level k sits at r_k = (k + 1/2) dr with dr = max / levels, and a grid
    point is above it iff v > r_k, the convention of a superlevel set
    {v > r}.  The count c[i] of levels below v[i] is exact on the float grid
    (a ceil estimate, corrected by one comparison each way), so a value that
    ties a level is simply not above it, and edge e crosses the levels
    min(c[e], c[e+1]) .. max - 1.  The keys level * m + edge, sorted once,
    order the crossings by (level, time); they alternate up/down and pair
    into components.  The keys are int32 while levels * m < 2^31 and int64
    otherwise.  Component peaks are range maxima of v (``range_max``).  Work
    is O(m log m + C) with C the total crossing count (at most m per level).
    Only the components' levels and edges, and ``range_max``'s buffers, live
    in the ``workspace``; the other temporaries are plain numpy arrays.
    Returns (durations, heights, level_values, dr), the first three the rows
    of one fresh (3, C) array; raises ValueError if the crossings do not
    pair, i.e. the path does not start and end below the lowest level.
    """
    if levels < 1:
        raise ValueError("need levels >= 1")
    v = np.asarray(exc.values, dtype=float)
    m = exc.m
    vmax = float(v.max())
    dr = vmax / levels
    if not vmax > 0.0:
        return *np.zeros((3, 0)), dr
    key_dtype = np.int32 if levels * m < 2**31 else np.int64
    level, e_up, e_dn = _crossings(_level_counts(v, dr, levels), m, key_dtype)
    dur, height, r_vals = np.empty((3, len(level)))
    np.multiply(level + 0.5, dr, out=r_vals)
    np.multiply(_durations(v, r_vals, e_up, e_dn), exc.dt, out=dur)
    # the grid points above the level run from the up edge's right end to the
    # down edge's left end
    np.subtract(range_max(v[1:], e_up, e_dn), r_vals, out=height)
    return dur, height, r_vals, dr


def sweep_from_decomposition(decomp, toll) -> float:
    """dr * sum over the components of duration * f(duration, height): ``toll_sum`` with mu = eta = 1."""
    dur, height, _, dr = decomp
    return toll_sum(toll, dur, height, dr, 0.0, f"a level sweep of step dr={dr:g}")


def psi_level_sweep(exc: Excursion, toll, levels: int = DEFAULT_LEVELS) -> float:
    """Midpoint-rule value of Z_f over `levels` levels in (0, max)."""
    return sweep_from_decomposition(level_decomposition(exc, levels), toll)
