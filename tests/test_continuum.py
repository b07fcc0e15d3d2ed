import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import rng_for

from bgwf.continuum import (
    Excursion,
    level_decomposition,
    psi_level_sweep,
    sample_excursion,
)
from bgwf.functionals import TollFunction


@dataclass(frozen=True)
class LevelComponent:
    """A maximal interval where the excursion exceeds a level."""

    level: float
    start: float
    end: float
    duration: float
    height: float


def components_above(exc: Excursion, r: float) -> list[LevelComponent]:
    """Oracle: maximal intervals where the path exceeds r, linearly interpolated.

    At r = 0 the whole excursion is the single component.  Returns the empty
    list when r >= max.
    """
    v = exc.values
    dt = exc.dt
    if r <= 0.0:
        return [LevelComponent(0.0, 0.0, 1.0, 1.0, exc.max)]
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


def triangular(m=1000):
    half = np.linspace(0.0, 0.5, m // 2 + 1)
    values = np.concatenate([half, half[::-1][1:]])
    return Excursion(values=values)


def naive_sweep(exc, toll, levels):
    """Reference: loop over levels with components_above (independent path)."""
    dr = exc.max / levels
    acc = 0.0
    for k in range(levels):
        r = (k + 0.5) * dr
        for c in components_above(exc, r):
            acc += c.duration * float(toll(np.array([c.duration]), np.array([c.height]))[0])
    return dr * acc


def test_components_triangular():
    tri = triangular()
    comps = components_above(tri, 0.25)
    assert len(comps) == 1
    assert comps[0].duration == pytest.approx(0.5, abs=1e-12)
    assert comps[0].height == pytest.approx(0.25, abs=1e-12)
    assert components_above(tri, 0.5) == []
    whole = components_above(tri, 0.0)
    assert len(whole) == 1
    assert whole[0].duration == pytest.approx(1.0)
    assert whole[0].height == pytest.approx(0.5)


def test_sweep_triangular_closed_forms():
    # int_0^(1/2) (1-2r) dr = 1/4 and int_0^(1/2) (1-2r)^2 dr = 1/6
    tri = triangular()
    got = psi_level_sweep(tri, TollFunction.power(0, 0), 1000)
    assert got == pytest.approx(0.25, abs=1e-3)
    got = psi_level_sweep(tri, TollFunction.power(1, 0), 1000)
    assert got == pytest.approx(1 / 6, abs=1e-3)


def test_sweep_matches_reference_implementation():
    rng = rng_for(3, 0)
    for _ in range(5):
        exc = sample_excursion(400, rng)
        for toll in (TollFunction.power(0, 0), TollFunction.power(1, 1),
                     TollFunction.power(0.5, -0.5)):
            fast = psi_level_sweep(exc, toll, 64)
            slow = naive_sweep(exc, toll, 64)
            assert fast == pytest.approx(slow, rel=1e-10)


def lexsort_decomposition(exc, levels):
    """Reference: crossings sorted by (level, time) with lexsort, peaks by max()."""
    v, dt = exc.values, exc.dt
    dr = exc.max / levels
    ks, ts, ups = [], [], []
    for e in range(exc.m):
        lo, hi = sorted((v[e], v[e + 1]))
        kmin = max(math.floor(lo / dr - 0.5) + 1, 0)
        kmax = min(math.ceil(hi / dr - 0.5) - 1, levels - 1)
        for k in range(kmin, kmax + 1):
            ks.append(k)
            ts.append(e + ((k + 0.5) * dr - v[e]) / (v[e + 1] - v[e]))
            ups.append(v[e + 1] > v[e])
    order = np.lexsort((ts, ks))
    ks, ts, ups = np.array(ks)[order], np.array(ts)[order], np.array(ups)[order]
    assert ups[0::2].all() and not ups[1::2].any()
    t_up, t_dn = ts[0::2], ts[1::2]
    peak = [v[math.floor(a) + 1:math.floor(b) + 1].max() for a, b in zip(t_up, t_dn)]
    r_vals = (ks[0::2] + 0.5) * dr
    return (t_dn - t_up) * dt, np.array(peak) - r_vals, r_vals, dr


def test_decomposition_equals_lexsort_reference():
    rng = rng_for(7, 0)
    for m, levels in ((300, 64), (1000, 256), (2000, 1024)):
        exc = sample_excursion(m, rng)
        got, want = level_decomposition(exc, levels), lexsort_decomposition(exc, levels)
        for g, w in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(g, w)
        assert got[3] == want[3]


def tie_excursion(rng, scale, nudge):
    """A path whose interior values sit on level heights: (k + 1/2) dr below
    the maximum L * scale, with dr = (L * scale) / L for levels = L.  With
    `nudge` each such value moves to its float neighbour below or above, or
    stays, at random."""
    L = int(rng.integers(2, 12))
    m = int(rng.integers(4, 60))
    dr = L * scale / L
    v = np.zeros(m + 1)
    v[1:m] = (rng.integers(0, L, m - 1) + 0.5) * dr
    if nudge:
        v[1:m] = np.nextafter(v[1:m], v[1:m] + rng.integers(-1, 2, m - 1))
    v[rng.integers(1, m)] = L * scale
    return Excursion(values=v), L


@pytest.mark.parametrize("scale, nudge", [(1.0, False), (0.1, False), (math.pi, False),
                                          (0.1, True), (math.pi, True)])
def test_decomposition_exact_at_level_ties(scale, nudge):
    # A value that ties a level is not above it (v > r), as in the oracle.
    # At scale 1 (dr = 1) the ceil estimate of the level count is exact; at
    # the other scales it overshoots on some ties and, one ulp above a
    # level, falls short, and the correction mends both.
    rng = rng_for(59, 0)
    for _ in range(500):
        exc, levels = tie_excursion(rng, scale, nudge)
        dur, height, r_vals, dr = level_decomposition(exc, levels)
        assert dr == exc.max / levels
        total = 0
        for k in range(levels):
            r = (k + 0.5) * dr
            comps = components_above(exc, r)
            at = r_vals == r
            # the decomposition lists each level's components in time order
            np.testing.assert_allclose(dur[at], [c.duration for c in comps], rtol=0, atol=1e-15)
            np.testing.assert_allclose(height[at], [c.height for c in comps], rtol=0, atol=1e-15)
            total += len(comps)
        assert len(dur) == total


def test_decomposition_wide_keys():
    # levels * m = 2^32 takes int64 keys: the upper half of the levels' keys
    # overflow int32; a small grid keeps the rank table small
    m, levels = 2**12, 2**20
    tri = triangular(m)
    dur, height, r_vals, dr = level_decomposition(tri, levels)
    assert len(dur) == levels
    np.testing.assert_allclose(r_vals, (np.arange(levels) + 0.5) * dr, rtol=0, atol=0)
    np.testing.assert_allclose(dur, 1.0 - 2.0 * r_vals, rtol=1e-9)
    np.testing.assert_allclose(height, 0.5 - r_vals, rtol=1e-9)
    assert dur[-1] == pytest.approx(dr, rel=1e-9)


def test_decomposition_rejects_a_path_that_starts_above():
    v = np.array([0.5, 1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="not an excursion"):
        level_decomposition(Excursion(values=v), 4)


def test_excursion_is_the_rotated_bridge():
    # reference: the Vervaat rotation by np.roll on the same draws
    for seed in range(20):
        for m in (2, 3, 200):
            got = sample_excursion(m, rng_for(seed, 1))
            rng = rng_for(seed, 1)
            while True:
                walk = np.cumsum(rng.standard_normal(m) * math.sqrt(1.0 / m))
                cyc = np.concatenate([[0.0], (walk - np.arange(1, m + 1) / m * walk[-1])[:-1]])
                i = int(np.argmin(cyc))
                want = np.append(np.roll(cyc, -i) - cyc[i], 0.0)
                if (want[1:m] > 0.0).all():
                    break
            assert [x.hex() for x in got.values.tolist()] == [x.hex() for x in want.tolist()]


def test_excursion_endpoints_and_positivity():
    rng = rng_for(11, 0)
    for _ in range(20):
        exc = sample_excursion(200, rng)
        assert exc.values[0] == 0.0 and exc.values[-1] == 0.0
        assert (exc.values[1:-1] > 0.0).all()
        assert exc.max == exc.values.max()


def test_excursion_max_mean():
    # E[max] = sqrt(pi/2) ~ 1.2533; grid bias is downward, tolerance 2%
    rng = rng_for(29, 0)
    R, m = 20_000, 10_000
    tot = 0.0
    for _ in range(R):
        tot += sample_excursion(m, rng).max
    mean = tot / R
    assert mean == pytest.approx(math.sqrt(math.pi / 2), rel=0.02)
    assert mean < math.sqrt(math.pi / 2)  # downward bias


def test_occupation_identity():
    # toll 1 sweep equals the time integral of the excursion
    rng = rng_for(37, 0)
    for _ in range(10):
        exc = sample_excursion(5000, rng)
        sweep = psi_level_sweep(exc, TollFunction.power(0, 0), 1000)
        occupation = float(np.trapezoid(exc.values, dx=exc.dt))
        assert sweep == pytest.approx(occupation, rel=5e-3)


def test_component_nesting():
    rng = rng_for(41, 0)
    exc = sample_excursion(2000, rng)
    r1, r2 = 0.3 * exc.max, 0.6 * exc.max
    coarse = components_above(exc, r1)
    fine = components_above(exc, r2)
    for c in fine:
        owners = [d for d in coarse if d.start - 1e-12 <= c.start and c.end <= d.end + 1e-12]
        assert len(owners) == 1
    assert sum(c.duration for c in fine) <= sum(c.duration for c in coarse)


def test_total_duration_nonincreasing_in_level():
    rng = rng_for(43, 0)
    exc = sample_excursion(2000, rng)
    levels = np.linspace(0.05, 0.95, 10) * exc.max
    totals = [sum(c.duration for c in components_above(exc, r)) for r in levels]
    assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))


def test_sweep_toll_blowup_reported():
    tri = triangular()
    with pytest.raises(ValueError, match="not finite"):
        # the component masses are below 1, so mass^-2000 overflows
        psi_level_sweep(tri, TollFunction.power(-2000, 0), 64)


def test_excursion_csv_dump(tmp_path):
    exc = triangular(10)
    out = tmp_path / "exc.csv"
    exc.to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 12
    assert lines[1].startswith("0,")

