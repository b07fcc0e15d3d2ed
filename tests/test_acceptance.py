"""Acceptance suite: quantitative desk-scale checks with pinned tolerances.

Each test prints one PASS/FAIL line.  Monte Carlo checks use fixed
preregistered seeds; sizes requested as powers of ten are snapped to the
nearest supported size (e.g. 10^4 -> 10001 under the span-2 Catalan law).
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import ACCEPT_SEED, enumerate_tree_law, mass_bound_check, tv_gap_bound_check

from bgwf.functionals import TollFunction, a_measure, rescaled_theorem1_sum
from bgwf.harness import (
    ExperimentConfig,
    MODE_HEIGHT,
    MODE_MOMENT,
    MODE_PHASE,
    MODE_TAIL,
    run_height_moments,
    run_llt,
    run_moment,
    run_phase_scan,
    run_tail_profile,
)
from bgwf.offspring import catalan_model, geometric_model, make_stable_family
from bgwf.sampler import sample_conditioned
from bgwf import theory


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _row(report, alpha_prime, beta):
    for r in report.rows:
        if r.alpha_prime == alpha_prime and r.beta == beta:
            return r
    raise KeyError((alpha_prime, beta))


def test_criterion_1_brownian_moment_match(catalan_acceptance_report):
    # Catalan, n = 10^4 (snapped to 10001), R = 10^4.  The 0.626657 anchor is
    # the toll-x moment (mass exponent 1); the height part is toll u against
    # the theory module's value with E[H] = 2 * 1.25331.
    t0 = time.time()
    rep = catalan_acceptance_report
    rx = _row(rep, 2.0, 0.0)
    ok_x = abs(rx.estimate / 0.626657 - 1.0) <= 0.05
    assert _report("1a (toll x vs 0.626657, 5%)", ok_x,
                   f"estimate {rx.estimate:.5f}, rel {(rx.estimate / 0.626657 - 1) * 100:+.2f}%")

    ru = _row(rep, 1.0, 1.0)
    height_first_moment = 2.0 * 1.2533141373155
    want = theory.stable_moment(2.0, 0.5, 0.0, 1.0, height_first_moment)
    assert want == pytest.approx(2.0, rel=1e-12)
    ok_u = abs(ru.estimate / want - 1.0) <= 0.05
    assert _report("1b (toll u vs theory 2.0, 5%)", ok_u,
                   f"estimate {ru.estimate:.5f}, rel {(ru.estimate / want - 1) * 100:+.2f}%")
    assert rep.wall_time < 300, f"run took {rep.wall_time:.0f}s, budget 5 min"


def test_criterion_2_continuum_discrete_agreement(catalan_acceptance_report,
                                                  continuum_acceptance_report):
    # Both estimators target the same limit; agreement within joint 95% CIs
    # for tolls 1, x, u at n = m = 10^4, R = 10^4 each.
    results = []
    for aprime, beta, label in ((1.0, 0.0, "1"), (2.0, 0.0, "x"), (1.0, 1.0, "u")):
        rd = _row(catalan_acceptance_report, aprime, beta)
        rc = _row(continuum_acceptance_report, aprime, beta)
        diff = abs(rd.estimate - rc.estimate)
        joint = 1.96 * math.hypot(rd.stderr, rc.stderr)
        ok = diff <= joint
        _report(f"2 (toll {label})", ok,
                f"discrete {rd.estimate:.5f} vs continuum {rc.estimate:.5f}, "
                f"|diff| {diff:.4f} vs joint95 {joint:.4f}")
        results.append((label, ok, diff, joint))
    failed = [r for r in results if not r[1]]
    assert not failed, (
        f"joint-CI agreement failed for tolls {[r[0] for r in failed]}: "
        "the discrete estimator at n=10001 carries a finite-size bias "
        "(about -4% to -5% for the height toll) that the m=10^4 excursion estimator "
        "does not share (about -1.4%), while the joint 95% band at R=10^4 is "
        "about +-1.3%; see ROADMAP.md, Fix first, item 1, for the analysis"
    )


def test_criterion_3_local_limit_theorem():
    t0 = time.time()
    cat_rep = run_llt(catalan_model(), [10_001])
    r = cat_rep.rows[0]
    rel = abs(r.estimate / r.theory - 1.0)
    assert _report("3 (llt catalan)", rel <= 0.02,
                   f"scaled {r.estimate:.6f} vs g(0) {r.theory:.6f}, rel {rel * 100:.3f}%")
    st_rep = run_llt(make_stable_family(1.5, 0.5), [10_000])
    r = st_rep.rows[0]
    rel = abs(r.estimate / r.theory - 1.0)
    assert _report("3 (llt stable 1.5)", rel <= 0.05,
                   f"scaled {r.estimate:.6f} vs g(0) {r.theory:.6f}, rel {rel * 100:.3f}%")
    elapsed = time.time() - t0
    assert elapsed < 60, f"llt took {elapsed:.0f}s, budget 1 min"


def test_criterion_4_phase_transition():
    t0 = time.time()
    all_ok = True
    for model, label in ((catalan_model(), "gamma=2"), (make_stable_family(1.5, 0.5), "gamma=1.5")):
        g = model.gamma
        cfg = ExperimentConfig(
            mode=MODE_PHASE, model=model, sizes=[100, 1000, 10_000], replicates=2000,
            alpha_primes=[1.0 / g - 0.25, 1.0 / g + 0.25], beta=0.0, master_seed=ACCEPT_SEED)
        rep = run_phase_scan(cfg)
        for aprime, v in rep.extras["verdicts"].items():
            ok = v["match"]
            all_ok &= ok
            _report(f"4 ({label}, alpha'={aprime:.3g})", ok,
                    f"verdict {v['verdict']}, predicted {v['predicted_regime']}, "
                    f"margin {v['margin']:+.2f}")
    elapsed = time.time() - t0
    assert all_ok
    assert elapsed < 600, f"phase scan took {elapsed:.0f}s, budget 10 min"


def test_criterion_5_exact_law_chi_square():
    t0 = time.time()
    rng = np.random.default_rng(ACCEPT_SEED)
    R = 100_000
    all_ok = True
    for model, name in ((catalan_model(), "catalan"), (geometric_model(), "geometric")):
        for n in (3, 5, 7):
            if not (n % model.span == 1 or model.span == 1):
                continue
            law = enumerate_tree_law(model, n)
            counts = Counter()
            for _ in range(R):
                counts[tuple(sample_conditioned(model, n, rng).degree)] += 1
            ok = set(counts) <= set(law)
            keys = sorted(law)
            if len(keys) == 1:
                # one shape leaves chisquare no degree of freedom (p = nan);
                # the support check alone decides the case
                detail = "1 shape, support check"
            elif ok:
                p = chisquare([counts.get(k, 0) for k in keys],
                              [law[k] * R for k in keys]).pvalue
                ok = p > 0.001
                detail = f"chi-square p = {p:.4f} over {len(keys)} shapes"
            else:
                detail = f"sampled shapes outside the {len(keys)} enumerated ones"
            all_ok &= ok
            _report(f"5 ({name} n={n})", ok, detail)
    elapsed = time.time() - t0
    assert all_ok
    assert elapsed < 60, f"exact-law test took {elapsed:.0f}s, budget 1 min"


def test_criterion_6_structural_properties():
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    geo = geometric_model()
    cat = catalan_model()
    violations = 0
    for i in range(10_000):
        model = geo if i % 2 else cat
        n = int(rng.integers(2, 120))
        if model.span == 2 and n % 2 == 0:
            n += 1
        tree = sample_conditioned(model, n, rng)
        if not mass_bound_check(tree, model):
            violations += 1
        if not tv_gap_bound_check(tree, model).ok:
            violations += 1
    assert _report("6 (mass/tv bounds)", violations == 0, f"{violations} violations in 10^4 trees")

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 150))
        tree = sample_conditioned(geo, n, rng)
        for _ in range(20):
            aprime = float(rng.uniform(-1.0, 3.0))
            beta = float(rng.uniform(-2.0, 3.0))
            lhs = rescaled_theorem1_sum(tree, geo, aprime, beta)
            rhs = a_measure(tree, geo, TollFunction.power(aprime - 1.0, beta))
            if lhs != rhs:
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert _report("6 (rescaled/a-measure identity)", worst <= 1e-12, f"worst rel {worst:.2e}")


def test_criterion_7_special_functions():
    rng = np.random.default_rng(ACCEPT_SEED + 3)
    worst_fe = max(
        abs(theory.riemann_xi(float(s)) / theory.riemann_xi(1.0 - float(s)) - 1.0)
        for s in rng.uniform(-10, 11, size=50)
    )
    ok = worst_fe <= 1e-10
    ok &= abs(theory.riemann_xi(2.0) - math.pi / 6) <= 1e-12
    worst_sb = 0.0
    count = 0
    while count < 50:
        kappa = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(-1.0, 3.0))
        beta = float(rng.uniform(-3.0, 4.0))
        if 2 * alpha + beta + 1 <= 0.05:
            continue
        hm = (2.0 / kappa) ** (beta / 2.0) * theory.max_excursion_moment(beta)
        lhs = theory.stable_moment(2.0, kappa, alpha, beta, hm)
        rhs = theory.brownian_moment(kappa, alpha, beta)
        worst_sb = max(worst_sb, abs(lhs / rhs - 1.0))
        count += 1
    ok &= worst_sb <= 1e-10
    # the finiteness form of the integral test, gamma (alpha'-1) + (gamma-1)(beta+1) > 0
    equiv = all(
        (g * (a - 1.0) + (g - 1.0) * (b + 1.0) > 0.0) == (theory.phase_margin(g, a, b) > 0.0)
        for g, a, b in zip(rng.uniform(1.01, 2.0, 1000), rng.uniform(-3, 3, 1000),
                           rng.uniform(-4, 4, 1000))
    )
    ok &= equiv
    assert _report("7 (special functions)", ok,
                   f"xi func-eq worst {worst_fe:.1e}, stable/brownian worst {worst_sb:.1e}, "
                   f"finiteness equivalence {equiv}")


# Measured cause of the red gamma=1.5 lower-tail clause of criterion 8.
GAMMA_15_TAIL_CAUSE = (
    "; the gamma=1.5 lower-tail exponent 3 is not visible in any tail window "
    "that R=10^4 reaches. The sampler reproduces the exact enumerated law of "
    "stable gamma=1.5 trees (chi-square p = 0.14, 0.19, 0.77 at n = 3, 5, 7, "
    "R=10^5 each). At this seed and R=10^4 the empirical-CDF fit gives "
    "1.55-1.87 at n = 300, 1000 and 3000 alike over the windows [0.002, 0.2] "
    "and [0.001, 0.5], so this is neither a finite-size effect nor a sampler "
    "fault. In the [0.002, 0.05] window the fit is mostly noise (bootstrap "
    "5-95% range 0.3-3.9 at n=3000). See ROADMAP.md, Fix first."
)
GAMMA_2_TAIL_CAUSE = (
    "; the gamma=2 fit in the [0.002, 0.05] window is mostly noise: a "
    "bootstrap of the pinned Catalan n=2001 sample spreads it over 1.8-6.0 "
    "(5-95%), and the windows [0.002, 0.2] and [0.001, 0.5] give 2.83 and "
    "2.68. The Catalan sampler is exact: its multiset is forced and only the "
    "order is random. See ROADMAP.md, Fix first."
)


def test_criterion_8_height_distribution():
    # moments clause instantiated with the geometric family (span 1, so the
    # sizes 10^3 and 10^4 are used exactly); tail fits cover both gammas
    t0 = time.time()
    cat = catalan_model()
    cfg = ExperimentConfig(mode=MODE_HEIGHT, model=geometric_model(), sizes=[1000, 10_000],
                           replicates=10_000, p_list=[-2.0, -1.0, 1.0, 2.0, 4.0],
                           master_seed=ACCEPT_SEED)
    rep = run_height_moments(cfg)
    per = {}
    for r in rep.rows:
        per.setdefault(r.beta, {})[r.n] = r.estimate
    failed = []
    for p, by_n in sorted(per.items()):
        lo_n, hi_n = min(by_n), max(by_n)
        ratio = by_n[hi_n] / by_n[lo_n]
        ok = abs(ratio - 1.0) <= 0.20
        if not ok:
            failed.append(f"moment p={p:g}")
        _report(f"8 (moment p={p:g})", ok, f"ratio across decade {ratio:.3f}")

    for model, n, label in ((cat, 2001, "gamma=2"), (make_stable_family(1.5, 0.5), 3000, "gamma=1.5")):
        cfg = ExperimentConfig(mode=MODE_TAIL, model=model, sizes=[n], replicates=10_000,
                               master_seed=ACCEPT_SEED)
        fitted = run_tail_profile(cfg).extras["fits"]["lower_exponent"]
        target = model.gamma / (model.gamma - 1.0)
        ok = fitted is not None and abs(fitted - target) <= 0.25 * target
        if not ok:
            failed.append(f"lower tail {label}")
        shown = "no fit" if fitted is None else f"fitted {fitted:.3f}"
        _report(f"8 (lower tail {label})", ok, f"{shown} vs gamma/(gamma-1) = {target:.3f}")
    print(f"criterion 8 wall time {time.time() - t0:.0f}s")
    assert not failed, f"criterion 8 failed for {failed}" + (
        GAMMA_15_TAIL_CAUSE if "lower tail gamma=1.5" in failed else "") + (
        GAMMA_2_TAIL_CAUSE if "lower tail gamma=2" in failed else "")


def test_criterion_9_divergence():
    cat = catalan_model()
    cfg = ExperimentConfig(mode=MODE_MOMENT, model=cat, sizes=[100, 1000, 10_000],
                           replicates=200, tolls=[TollFunction.power(-1.0, 0.0)],
                           master_seed=ACCEPT_SEED)
    rep = run_moment(cfg)
    means = {r.n: r.estimate for r in rep.rows}
    sizes = sorted(means)
    ok = True
    for n1, n2 in zip(sizes, sizes[1:]):
        factor = (means[n2] / means[n1]) ** (1.0 / math.log10(n2 / n1))
        ok &= factor >= 1.5
    assert _report("9 (divergence alpha'=0)", ok,
                   f"means {[f'{means[n]:.2f}' for n in sizes]} (want >= 1.5x per decade)")
