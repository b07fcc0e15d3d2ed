import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from bgwf import harness
from bgwf.functionals import TollFunction
from bgwf.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    LLT_MAX_COST,
    MODE_CONTINUUM,
    MODE_HEIGHT,
    MODE_MOMENT,
    MODE_PHASE,
    MODE_TAIL,
    _tail_exponent_fit,
    _tail_fit,
    exact_walk_law,
    exact_walk_point_probability,
    llt_cost,
    run_continuum,
    run_height_moments,
    run_llt,
    run_moment,
    run_phase_scan,
    run_selftest,
    run_tail_profile,
)
from bgwf.offspring import catalan_model, geometric_model, make_stable_family
from bgwf.theory import InfiniteMomentError, g0, stable_moment


def test_llt_catalan_101_binomial_oracle():
    # P(S_101 = 100) = C(101, 50) 2^-101 (draws are 2 * Bernoulli)
    cat = catalan_model()
    p = exact_walk_point_probability(cat, 101, 100)
    assert p == pytest.approx(math.comb(101, 50) * 2.0**-101, rel=1e-12)
    rep = run_llt(cat, [101])
    row = rep.rows[0]
    assert row.estimate == pytest.approx(math.sqrt(101) * p / 2, rel=1e-12)
    assert row.theory == pytest.approx(0.3989422804, rel=1e-9)
    assert abs(row.estimate / row.theory - 1.0) < 0.02


def test_llt_geometric_small():
    geo = geometric_model()
    # two-fold convolution: P(S_2 = 1) = 2 pmf(0) pmf(1) = 2 (1/2)(1/4)
    assert exact_walk_point_probability(geo, 2, 1) == pytest.approx(0.25, abs=1e-14)


def test_llt_span_obstruction():
    rep = run_llt(catalan_model(), [4, 6])
    assert all(r.estimate == 0.0 for r in rep.rows)


def test_llt_span_obstruction_needs_no_convolution(monkeypatch):
    # above FFT_MIN_LENGTH a transform would read rounding noise, not the
    # exact zero of an even Catalan size
    def no_convolution(*args):
        raise AssertionError("an obstructed size was convolved")

    monkeypatch.setattr(harness, "exact_walk_point_probability", no_convolution)
    rep = run_llt(catalan_model(), [10_000, 40_000])
    assert [r.estimate for r in rep.rows] == [0.0, 0.0]


def test_fft_length_is_smallest_5_smooth_without_wraparound():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for top in range(3000):
        want = next(m for m in range(2 * top + 1, 4 * top + 2) if smooth(m))
        assert harness._fft_length(top) == want


def test_llt_cost_counts_convolutions(monkeypatch):
    # n = 5 = 0b101, direct: two squarings and one product of length-5 arrays
    assert llt_cost(5) == 3 * 25
    assert llt_cost(1) == 0
    # n = 513 = 0b1000000001 on 1080 = 2^3 3^3 5 points: 9 squarings and 1
    # product, two transforms each, and the forward transform of base at the
    # top level; 11 = ceil(log2(1080))
    assert llt_cost(513) == (2 * 10 + 1) * 1080 * 11
    # n = 1024 = 2^10 on 2048 points: 10 squarings, no product
    assert llt_cost(1024) == 2 * 10 * 2048 * 11
    # the costliest n <= 2^20 is accepted; n = 3000001 (6.1e6 points) is not
    assert llt_cost(2**20 - 1) < LLT_MAX_COST < llt_cost(3_000_001)

    sizes = []
    for name in ("rfft", "irfft"):
        def counted(a, nfft, _f=getattr(np.fft, name)):
            sizes.append(nfft)
            return _f(a, nfft)

        monkeypatch.setattr(np.fft, name, counted)
    geo = geometric_model()
    for n, nfft in ((513, 1080), (700, 1440), (1024, 2048), (1999, 4000)):
        sizes.clear()
        exact_walk_point_probability(geo, n, n - 1)
        assert set(sizes) == {nfft}
        assert len(sizes) * nfft * (nfft - 1).bit_length() == llt_cost(n)


def _direct_walk_law(pmf, n, top):
    """Binary powering with a direct convolution at every product."""
    base, result = pmf, None
    while n:
        if n & 1:
            result = base if result is None else np.convolve(result, base)[: top + 1]
        n >>= 1
        if n:
            base = np.convolve(base, base)[: top + 1]
    return result


@pytest.mark.parametrize("top", [512, 2001, 4097])
@pytest.mark.parametrize("make", [lambda: make_stable_family(1.5, 0.5), geometric_model,
                                  catalan_model], ids=["stable", "geometric", "catalan"])
def test_exact_walk_law_fft_matches_direct(make, top):
    model = make()
    law = exact_walk_law(model, top + 1, top)
    ref = _direct_walk_law(model.pmf(np.arange(top + 1)), top + 1, top)
    assert law.shape == ref.shape and law.min() >= 0.0
    # about 45 ulps of 1; the largest gap seen is 2.3e-15 (Catalan, top 4097)
    assert np.abs(law - ref).max() <= 1e-14
    t = np.flatnonzero(ref)[-1]  # top, or top - 1 for Catalan's span 2 at odd top
    assert t >= top - 1
    assert law[t] == pytest.approx(ref[t], rel=1e-12)


def test_llt_otter_dwass_checks_pass():
    rep = run_llt(geometric_model(), [2, 5, 8, 9])
    assert rep.checks and all(ok for _, ok in rep.checks)


def test_moment_snaps_unsupported_sizes():
    cfg = ExperimentConfig(mode=MODE_MOMENT, model=catalan_model(), sizes=[10],
                           replicates=5, tolls=[TollFunction.power(0, 0)], master_seed=1)
    assert cfg.sizes == [11]
    rep = run_moment(cfg)
    assert rep.rows[0].n == 11


def test_moment_small_scale_sanity(rng):
    # quick version of the moment match at n=1001: within 12% already
    cfg = ExperimentConfig(mode=MODE_MOMENT, model=catalan_model(), sizes=[1001],
                           replicates=300, tolls=[TollFunction.power(1, 0)], master_seed=7)
    rep = run_moment(cfg)
    row = rep.rows[0]
    assert row.theory == pytest.approx(0.6266570687, rel=1e-9)
    assert abs(row.estimate / row.theory - 1.0) < 0.12
    assert row.zscore is not None and row.drops == 0


def test_moment_consistency_mode_stable():
    # gamma < 2: theory column comes from stable_moment with the simulated E[H^beta]
    st = make_stable_family(1.5, 0.5)
    cfg = ExperimentConfig(mode=MODE_MOMENT, model=st, sizes=[501], replicates=200,
                           tolls=[TollFunction.power(0.5, 1.0)], master_seed=3)
    rep = run_moment(cfg)
    row = rep.rows[0]
    assert row.theory is not None and row.theory > 0
    # self-consistency: simulated mean and calibrated theory in the same ballpark
    assert abs(row.estimate / row.theory - 1.0) < 0.5


def test_moment_infinite_regime_theory_is_empty():
    cfg = ExperimentConfig(mode=MODE_MOMENT, model=catalan_model(), sizes=[51],
                           replicates=50, tolls=[TollFunction.power(-1.0, 0.0)], master_seed=5)
    rep = run_moment(cfg)
    assert rep.rows[0].theory is None


def test_phase_scan_catalan_fast():
    cfg = ExperimentConfig(mode=MODE_PHASE, model=catalan_model(),
                           sizes=[101, 1001, 10001], replicates=60,
                           alpha_primes=[0.25, 1.5], beta=0.0, master_seed=13)
    rep = run_phase_scan(cfg)
    v = rep.extras["verdicts"]
    assert v[0.25]["verdict"] == "diverging" and v[0.25]["match"]
    assert v[1.5]["verdict"] == "converging" and v[1.5]["match"]
    assert rep.exit_code() == 0


def test_height_moments_catalan():
    cfg = ExperimentConfig(mode=MODE_HEIGHT, model=catalan_model(), sizes=[201, 2001],
                           replicates=800, p_list=[0.0, 1.0, -1.0], master_seed=17)
    rep = run_height_moments(cfg)
    by_p = {(r.beta, r.n): r for r in rep.rows}
    assert by_p[(0.0, 201)].estimate == 1.0
    # E[H] for kappa = 1/2 is 2 sqrt(2 pi) xi(1) = 2.5066; crude n, wide tolerance
    assert by_p[(1.0, 2001)].estimate == pytest.approx(2.5066, rel=0.10)
    assert by_p[(1.0, 2001)].theory == pytest.approx(2.5066282746, rel=1e-9)
    assert all(ok for _, ok in rep.checks)


def test_tail_profile_runs_and_reports():
    cfg = ExperimentConfig(mode=MODE_TAIL, model=catalan_model(), sizes=[501],
                           replicates=3000, master_seed=19)
    rep = run_tail_profile(cfg)
    fits = rep.extras["fits"]
    assert fits["lower_target"] == pytest.approx(2.0)
    assert fits["lower_exponent"] is not None
    assert len(rep.rows) == 2


def _kennedy_series(x):
    """Both theta series for P(M <= x), M the normalized Brownian excursion maximum.

    Kennedy (1976).  The Jacobi transformed series (first) converges fast for
    small x, the direct one for large x.
    """
    x = np.asarray(x, dtype=float)
    k = np.arange(1, 40).reshape(-1, *([1] * x.ndim))
    small = (math.sqrt(2.0) * math.pi**2.5 / x**3
             * (k**2 * np.exp(-((math.pi * k) ** 2) / (2.0 * x * x))).sum(0))
    large = 1.0 - 2.0 * ((4.0 * k**2 * x * x - 1.0) * np.exp(-2.0 * k**2 * x * x)).sum(0)
    return small, large


def kennedy_cdf(y):
    """P(2M <= y); 2M is the limit law of (b_n/n) H for gamma = 2."""
    small, large = _kennedy_series(np.asarray(y, dtype=float) / 2.0)
    return np.where(np.asarray(y) < 2.0, small, large)


def test_kennedy_theta_series_agree():
    small, large = _kennedy_series(np.array([0.8, 0.95, 1.1]))
    assert small == pytest.approx(large, abs=1e-12)
    # E[2M] = sqrt(2 pi), the gamma = 2 height moment used by the harness
    mean, _ = quad(lambda y: 1.0 - float(kennedy_cdf(y)), 0.0, 10.0, limit=200)
    assert mean == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-9)


@pytest.mark.parametrize("sign, fitted", [(-1, 2.43), (1, 2.34)], ids=["lower", "upper"])
def test_tail_exponent_fit_on_kennedy_exact_law(sign, fitted):
    # exact quantiles over the default window, of the CDF (lower tail) or the
    # survival function (upper tail): the polynomial prefactor of each tail
    # biases the fitted exponent 2, y^-3 to 2.43 below and y^2 to 2.34 above
    qs = np.exp(np.linspace(math.log(0.002), math.log(0.05), 12))
    tail = kennedy_cdf if sign < 0 else (lambda y: 1.0 - kennedy_cdf(y))
    ys = np.array([brentq(lambda y: tail(y) - q, 0.5, 8.0, xtol=1e-13) for q in qs])
    assert _tail_exponent_fit(ys, -np.log(qs), sign=sign) == pytest.approx(fitted, abs=0.011)


def test_tail_fit_lattice_pairing_matches_continuous():
    # a deterministic sample of Kennedy's law, y_i = F^-1((i - 1/2) / R)
    R = 10_000
    grid = np.linspace(0.3, 6.0, 20_001)
    y = np.interp((np.arange(R) + 0.5) / R, kennedy_cdf(grid), grid)
    continuous = {s: _tail_fit(y, 0.002, 0.05, survival=s) for s in (False, True)}
    assert continuous[False] == pytest.approx(2.43, abs=0.1)
    # the same sample rounded up onto lattices like (b_n/n) H at n = 2001
    # (step 0.022) or coarser: each fit stays with the continuous one, where
    # pairing levels with empirical quantiles gave 0.3 to 3.5
    for step in (0.02235509, 0.05):
        for offset in (0.0, 0.3, 0.7):
            lattice = step * (np.ceil(y / step - offset) + offset)
            for survival in (False, True):
                fitted = _tail_fit(lattice, 0.002, 0.05, survival=survival)
                assert fitted == pytest.approx(continuous[survival], abs=0.15), (step, offset, survival)


def test_tail_profile_degenerate_window_warns(caplog):
    cfg = ExperimentConfig(mode=MODE_TAIL, model=catalan_model(), sizes=[51],
                           replicates=40, master_seed=23)
    with caplog.at_level("WARNING", logger="bgwf"):
        rep = run_tail_profile(cfg)
    assert rep.extras["fits"]["lower_exponent"] is None
    assert "window" in caplog.text


def test_continuum_basic_and_errors():
    cfg = ExperimentConfig(mode=MODE_CONTINUUM, replicates=60, kappa=0.5, m_grid=1000,
                           levels=256, tolls=[TollFunction.power(0, 0)], master_seed=29)
    rep = run_continuum(cfg)
    assert rep.rows[0].estimate == pytest.approx(1.2533, rel=0.10)
    with pytest.raises(InfiniteMomentError):
        bad = ExperimentConfig(mode=MODE_CONTINUUM, replicates=2, kappa=0.5, m_grid=100,
                               tolls=[TollFunction.power(-0.6, 0.0)], master_seed=1)
        run_continuum(bad)
    with pytest.raises(ValueError, match="gamma = 2"):
        cfg2 = ExperimentConfig(mode=MODE_CONTINUUM, model=make_stable_family(1.5, 0.5),
                                replicates=2, tolls=[TollFunction.power(0, 0)], master_seed=1)
        run_continuum(cfg2)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_continuum_refuses_kappa_not_finite_before_drawing(kappa, monkeypatch):
    drawn = []
    monkeypatch.setattr(harness, "sample_excursion", lambda *args: drawn.append(args))
    cfg = ExperimentConfig(mode=MODE_CONTINUUM, replicates=2, kappa=kappa, m_grid=100, levels=16,
                           tolls=[TollFunction.power(0, 0)], master_seed=1)
    with pytest.raises(ValueError, match="kappa > 0"):
        run_continuum(cfg)
    assert drawn == []


def test_csv_schema_and_json_mirror(tmp_path):
    cfg = ExperimentConfig(mode=MODE_MOMENT, model=catalan_model(), sizes=[11],
                           replicates=5, tolls=[TollFunction.power(0, 0)], master_seed=31)
    rep = run_moment(cfg)
    text = rep.to_csv()
    assert text.splitlines()[0] == CSV_COLUMNS
    rows = json.loads(rep.to_json())
    assert set(rows[0]) == set(CSV_COLUMNS.split(","))
    path = tmp_path / "r.csv"
    rep.to_csv(str(path))
    assert path.read_text() == text


def test_rows_name_their_toll():
    # the acceptance fixture's pair: both read alpha' = 1.5 and beta = 0
    tolls = [TollFunction.power(0.5, 0), TollFunction.power_log(0.5)]
    rep = run_moment(ExperimentConfig(mode=MODE_MOMENT, model=catalan_model(), sizes=[11],
                                      replicates=4, tolls=tolls, master_seed=1))
    assert [(r.alpha_prime, r.beta) for r in rep.rows] == [(1.5, 0.0)] * 2
    assert [r.toll for r in rep.rows] == ["x^0.5*u^0", "|log x|*x^0.5"]
    assert rep.to_csv().splitlines()[2].endswith(",|log x|*x^0.5")
    assert run_llt(catalan_model(), [5]).rows[0].toll == ""


def test_beta_zero_theory_is_closed_form_below_gamma_2(caplog):
    # E[H^0] = 1, so a beta = 0 theory value needs no height estimate: it is
    # not logged as simulation-calibrated, and it stands when no tree was kept
    model = make_stable_family(1.5, 0.5)
    tolls = [TollFunction.power(0.5, 0), TollFunction.power(0, 1)]
    with caplog.at_level("INFO", logger="bgwf"):
        rep = run_moment(ExperimentConfig(mode=MODE_MOMENT, model=model, sizes=[101],
                                          replicates=8, tolls=tolls, master_seed=5))
    assert "E[H^0]" not in caplog.text and "x^0*u^1 is simulation-calibrated" in caplog.text
    closed = stable_moment(1.5, 0.5, 0.5, 0.0, 1.0)
    assert rep.rows[0].theory == closed
    empty = run_moment(ExperimentConfig(mode=MODE_MOMENT, model=model, sizes=[1001], replicates=2,
                                        tolls=tolls[:1], master_seed=3, max_attempts=1))
    assert empty.rows[0].drops == 2 and empty.rows[0].theory == closed


_TOLLS_1_X = [TollFunction.power(0, 0), TollFunction.power(1, 0)]


@pytest.mark.parametrize("run, kwargs", [
    (run_moment, dict(mode=MODE_MOMENT, model=geometric_model(), sizes=[51], replicates=40,
                      tolls=_TOLLS_1_X)),
    (run_phase_scan, dict(mode=MODE_PHASE, model=geometric_model(), sizes=[11, 101, 1001],
                          replicates=20, alpha_primes=[0.25, 1.5])),
    (run_height_moments, dict(mode=MODE_HEIGHT, model=geometric_model(), sizes=[51, 501],
                              replicates=40, p_list=[-1.0, 1.0, 2.0])),
    (run_tail_profile, dict(mode=MODE_TAIL, model=geometric_model(), sizes=[201], replicates=400)),
    (run_continuum, dict(mode=MODE_CONTINUUM, replicates=20, m_grid=500, levels=128,
                         tolls=_TOLLS_1_X)),
], ids=["moment", "phase-scan", "height-moments", "tail", "continuum"])
def test_determinism_across_worker_counts(run, kwargs):
    reports = [run(ExperimentConfig(master_seed=37, workers=workers, **kwargs)) for workers in (1, 2)]
    assert reports[0].to_csv() == reports[1].to_csv()
    assert reports[0].checks == reports[1].checks
    assert reports[0].extras == reports[1].extras


def test_drop_accounting_marks_invalid():
    cfg = ExperimentConfig(mode=MODE_MOMENT, model=geometric_model(), sizes=[501],
                           replicates=20, tolls=[TollFunction.power(0, 0)],
                           master_seed=41, max_attempts=1)
    rep = run_moment(cfg)
    assert rep.rows[0].drops > 0
    assert rep.invalid and rep.exit_code() == 3


def test_phase_scan_scans_each_snapped_size_once():
    # 10 snaps onto 11 under the Catalan law (odd sizes only)
    cfg = ExperimentConfig(mode=MODE_PHASE, model=catalan_model(), sizes=[10, 11, 101],
                           replicates=4, alpha_primes=[1.5], master_seed=3)
    rep = run_phase_scan(cfg)
    assert [r.n for r in rep.rows] == [11, 101]
    assert len(rep.extras["verdicts"][1.5]["growth_factors_per_decade"]) == 1


def test_height_moments_run_each_snapped_size_once():
    # 1000 snaps onto 1001 under the Catalan law: one size, so no stability check
    cfg = ExperimentConfig(mode=MODE_HEIGHT, model=catalan_model(), sizes=[1000, 1001],
                           replicates=4, p_list=[1.0, 2.0], master_seed=3)
    assert cfg.sizes == [1001]
    rep = run_height_moments(cfg)
    assert [(r.beta, r.n) for r in rep.rows] == [(1.0, 1001), (2.0, 1001)]
    assert rep.checks == []
    assert ExperimentConfig(mode=MODE_HEIGHT, model=catalan_model(), sizes=[101, 10, 11]).sizes == [11, 101]


def test_phase_scan_with_every_tree_dropped_is_invalid(monkeypatch, capsys):
    # stable gamma = 1.2 accepts far fewer than one degree sequence per attempt
    # at n >= 1000, so one attempt keeps no tree there
    cfg = ExperimentConfig(mode=MODE_PHASE, model=make_stable_family(1.2, 0.5),
                           sizes=[100, 1000, 10_000], replicates=3, alpha_primes=[0.4, 0.9],
                           master_seed=0, max_attempts=1)
    rep = run_phase_scan(cfg)
    assert rep.exit_code() == 3
    empty = [r for r in rep.rows if r.drops == 3]
    assert empty and all(math.isnan(r.estimate) and r.stderr is None for r in empty)
    assert sorted({r.n for r in empty}) == [1000, 10_000]
    for v in rep.extras["verdicts"].values():
        assert v["verdict"] is None and v["match"] is False
        assert v["empty_sizes"] == [1000, 10_000]
    assert [ok for _, ok in rep.checks] == [False, False]

    # the same scan through the CLI, whose trees get one attempt each
    from bgwf.cli import main
    from bgwf.sampler import sample_conditioned

    monkeypatch.setattr(harness, "sample_conditioned",
                        lambda model, n, rng, max_attempts=None: sample_conditioned(model, n, rng, 1))
    code = main(["phase-scan", "--family", "stable", "--gamma", "1.2", "--c", "0.5", "--n", "100",
                 "1000", "10000", "--R", "3", "--alpha-prime", "0.4", "0.9", "--seed", "0",
                 "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 3
    for aprime in ("0.4", "0.9"):
        assert f"# alpha'={aprime}: no verdict (n=1000, 10000 kept no tree)" in err
    assert "boundary" not in err


def test_selftest_passes():
    ok, lines = run_selftest()
    assert ok, "\n".join(lines)
    assert all(line.startswith("PASS") for line in lines)


def test_replicate_count_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(mode=MODE_MOMENT, model=catalan_model(), sizes=[5], replicates=1)
