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
    """Positive excursion on a uniform grid; values[0] = values[m] = 0."""

    values: np.ndarray
    duration: float = 1.0

    @property
    def m(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return self.duration / self.m

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


@dataclass(frozen=True)
class LevelComponent:
    """A maximal interval where the excursion exceeds a level."""

    level: float
    start: float
    end: float
    duration: float
    height: float


def sample_excursion(m: int, rng: np.random.Generator, duration: float = 1.0) -> Excursion:
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
        rotated = np.roll(cyc, -i_min) - cyc[i_min]
        values = np.empty(m + 1)
        values[:m] = rotated
        values[m] = 0.0
        if (values[1:m] > 0.0).all():
            break
    if duration != 1.0:
        values = values * math.sqrt(duration)
    values.setflags(write=False)
    return Excursion(values=values, duration=duration)


def components_above(exc: Excursion, r: float) -> list[LevelComponent]:
    """Maximal intervals where the path exceeds r, linearly interpolated.

    At r = 0 the whole excursion is the single component.  Returns the empty
    list when r >= max.
    """
    v = exc.values
    m = exc.m
    dt = exc.dt
    if r <= 0.0:
        return [LevelComponent(0.0, 0.0, exc.duration, exc.duration, exc.max)]
    if r >= exc.max:
        return []
    above = v > r
    # run boundaries of the boolean mask
    diff = np.diff(above.astype(np.int8))
    starts = np.flatnonzero(diff == 1) + 1  # first index above
    ends = np.flatnonzero(diff == -1)  # last index above
    comps = []
    for i, j in zip(starts, ends):
        t0 = (i - 1 + (r - v[i - 1]) / (v[i] - v[i - 1])) * dt
        t1 = (j + (v[j] - r) / (v[j] - v[j + 1])) * dt
        peak = float(v[i : j + 1].max())
        comps.append(LevelComponent(r, t0, t1, t1 - t0, peak - r))
    return comps


def level_decomposition(exc: Excursion, levels: int = DEFAULT_LEVELS):
    """All (duration, height, level) triples over a midpoint level grid.

    Each grid edge contributes one crossing per level it straddles; crossings
    sorted by (level, time) alternate up/down and pair into components, and
    component peaks come from a sparse range-max table (``range_max``).
    Work is O(m log m + C) with C the total crossing count (at most m per
    level).
    Returns (durations, heights, level_values, dr); None on the measure-zero
    event that a grid value ties a level exactly (callers fall back to the
    per-level scan).
    """
    v = exc.values
    m = exc.m
    dt = exc.dt
    vmax = float(v.max())
    dr = vmax / levels
    lo = np.minimum(v[:-1], v[1:])
    hi = np.maximum(v[:-1], v[1:])
    # level k has height (k + 1/2) dr; edge straddles it iff lo < r_k < hi
    kmin = np.floor(lo / dr - 0.5).astype(np.int64) + 1
    kmax = np.ceil(hi / dr - 0.5).astype(np.int64) - 1
    kmin = np.maximum(kmin, 0)
    kmax = np.minimum(kmax, levels - 1)
    counts = np.maximum(kmax - kmin + 1, 0)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0), np.zeros(0), np.zeros(0), dr
    # crossings in edge order: edge e crosses levels kmin[e] .. kmax[e]
    edge = np.repeat(np.arange(m), counts)
    ks = np.arange(total) + np.repeat(kmin - (np.cumsum(counts) - counts), counts)
    # within a level, edge order is time order, so a stable sort on the level
    # alone sorts the crossings by (level, time); numpy's stable sort is a
    # radix sort on keys of 16 bits or less
    order = np.argsort(ks.astype(np.min_scalar_type(levels)), kind="stable")
    ks_s = ks[order]
    edge_s = edge[order]
    slope = np.diff(v)[edge_s]
    up_s = slope > 0
    if total % 2 or not up_s[0::2].all() or up_s[1::2].any() or (ks_s[0::2] != ks_s[1::2]).any():
        return None
    t_s = edge_s + ((ks_s + 0.5) * dr - v[edge_s]) / slope
    dur = (t_s[1::2] - t_s[0::2]) * dt
    # the grid points above the level run from the up edge's right end to the
    # down edge's left end
    peak = range_max(v, edge_s[0::2] + 1, edge_s[1::2] + 1)
    r_vals = (ks_s[0::2] + 0.5) * dr
    return dur, peak - r_vals, r_vals, dr


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
    decomp = level_decomposition(exc, levels)
    if decomp is None:
        return _psi_sweep_reference(exc, toll, levels)
    return sweep_from_decomposition(decomp, toll)


def _psi_sweep_reference(exc: Excursion, toll, levels: int) -> float:
    vmax = exc.max
    dr = vmax / levels
    acc = 0.0
    for k in range(levels):
        r = (k + 0.5) * dr
        comps = components_above(exc, r)
        if not comps:
            continue
        durs = np.array([c.duration for c in comps])
        heights = np.array([c.height for c in comps])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f_vals = np.asarray(toll(durs, heights), dtype=float)
        if not np.isfinite(f_vals).all():
            raise ValueError(f"toll not finite at level r={r:g}")
        acc += float((durs * f_vals).sum())
    return dr * acc
