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

from .sampler import range_max

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
    """
    if m < 2:
        raise ValueError("need m >= 2 grid steps")
    while True:
        steps = rng.standard_normal(m) * math.sqrt(1.0 / m)
        walk = np.cumsum(steps)
        bridge = walk - np.arange(1, m + 1) / m * walk[-1]
        cyc = np.empty(m)
        cyc[0] = 0.0
        cyc[1:] = bridge[:-1]
        i_min = int(np.argmin(cyc))
        values = np.empty(m + 1)
        values[: m - i_min] = cyc[i_min:]
        values[m - i_min : m] = cyc[:i_min]
        values[:m] -= cyc[i_min]
        values[m] = 0.0
        if (values[1:m] > 0.0).all():
            break
    values.setflags(write=False)
    return Excursion(values=values)


def _level_counts(v: np.ndarray, dr: float, levels: int) -> np.ndarray:
    """Exact count of the levels (k + 1/2) dr, k < levels, strictly below each v."""
    grid = np.empty(levels + 2)  # level heights padded by -inf and +inf
    grid[0], grid[-1] = -np.inf, np.inf
    np.multiply(np.arange(levels) + 0.5, dr, out=grid[1:-1])
    est = v / dr
    est -= 0.5
    np.ceil(est, out=est)
    np.clip(est, 0, levels, out=est)
    c = est.astype(np.intp)
    c += grid[1:][c] < v  # level c is below v after all
    c -= grid[c] >= v  # level c - 1 is not below v
    return c


def _crossings(c: np.ndarray, m: int, dr: float, dtype) -> tuple:
    """(level height, up edge, down edge) of each component, by (level, time).

    Edge e crosses the levels min(c[e], c[e+1]) .. max - 1, so its keys
    level * m + e start at min * m + e and step by m: the keys in edge order
    are a cumulative sum of those steps and of the jumps between edges.
    """
    counts = np.diff(c)
    np.abs(counts, out=counts)
    edges = np.flatnonzero(counts)
    n_e = counts[edges]
    first = np.minimum(c[edges], c[edges + 1]) * m + edges
    jump = first.copy()
    jump[1:] -= first[:-1] + (n_e[:-1] - 1) * m  # from the previous edge's last key
    keys = np.full(int(n_e.sum()), m, dtype=dtype)
    keys[np.cumsum(n_e) - n_e] = jump
    np.cumsum(keys, out=keys)
    keys.sort()
    if len(keys) % 2:
        raise ValueError("level crossings do not pair: the path is not an excursion")
    level, e_up = np.divmod(keys[0::2], m)
    level_dn, e_dn = np.divmod(keys[1::2], m)
    if (level != level_dn).any():
        raise ValueError("level crossings do not alternate up/down: the path is not an excursion")
    r_vals = level + 0.5
    r_vals *= dr
    return r_vals, e_up, e_dn


def _durations(v: np.ndarray, r_vals: np.ndarray, e_up: np.ndarray, e_dn: np.ndarray) -> np.ndarray:
    """Grid time from the up to the down crossing, each linearly interpolated."""
    slope = np.diff(v)
    s_up, s_dn = slope[e_up], slope[e_dn]
    if (s_up <= 0.0).any() or (s_dn >= 0.0).any():
        raise ValueError("level crossings do not alternate up/down: the path is not an excursion")
    t_up = v[e_up]
    np.subtract(r_vals, t_up, out=t_up)
    t_up /= s_up
    t_up += e_up
    dur = v[e_dn]
    np.subtract(r_vals, dur, out=dur)
    dur /= s_dn
    dur += e_dn
    dur -= t_up
    return dur


def _peaks(v: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """max(v[s + 1 : t + 1]) for each pair (s, t), from a range maximum of
    the ranks of v: a table of ``np.min_scalar_type(len(v) - 1)``."""
    order = np.argsort(v)
    rank = np.empty(len(v), dtype=np.min_scalar_type(len(v) - 1))
    rank[order] = np.arange(len(v))
    return v[order][range_max(rank[1:], starts, stops)]


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
    otherwise.  Component peaks are range maxima of the ranks of v, a table
    of ``np.min_scalar_type(m)`` (``range_max``).  Work is O(m log m + C)
    with C the total crossing count (at most m per level).
    Returns (durations, heights, level_values, dr); raises ValueError if the
    crossings do not pair, i.e. the path does not start and end below the
    lowest level.
    """
    if levels < 1:
        raise ValueError("need levels >= 1")
    v = np.asarray(exc.values, dtype=float)
    m = exc.m
    vmax = float(v.max())
    dr = vmax / levels
    if not vmax > 0.0:
        return np.zeros(0), np.zeros(0), np.zeros(0), dr
    key_dtype = np.int32 if levels * m < 2**31 else np.int64
    # each step is a function, so its temporaries are freed before the next
    # one allocates: at m = 10^4 that halves the page faults of a call
    r_vals, e_up, e_dn = _crossings(_level_counts(v, dr, levels), m, dr, key_dtype)
    dur = _durations(v, r_vals, e_up, e_dn)
    dur *= exc.dt
    # the grid points above the level run from the up edge's right end to the
    # down edge's left end
    height = _peaks(v, e_up, e_dn)
    height -= r_vals
    return dur, height, r_vals, dr


def sweep_from_decomposition(decomp, toll) -> float:
    dur, height, r_vals, dr = decomp
    if not len(dur):
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_vals = np.asarray(toll(dur, height), dtype=float)
    bad = ~np.isfinite(f_vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"toll not finite at level r={r_vals[i]:g} on a component of "
            f"duration {dur[i]:g} and height {height[i]:g}"
        )
    # a plain reduction: np.dot would start OpenBLAS's thread pool, which spins
    return dr * float((dur * f_vals).sum())


def psi_level_sweep(exc: Excursion, toll, levels: int = DEFAULT_LEVELS) -> float:
    """Midpoint-rule value of Z_f over `levels` levels in (0, max)."""
    return sweep_from_decomposition(level_decomposition(exc, levels), toll)
