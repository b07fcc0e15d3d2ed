import math

import mpmath as mp
import numpy as np
import pytest

from bgwf.offspring import (
    OffspringError,
    catalan_model,
    geometric_model,
    make_finite_variance,
    make_stable_family,
    normalizer,
    snap_to_support,
    support_contains,
)


def series_pmf_oracle(gamma, c, kmax):
    """Coefficients of s + c(1-s)^gamma via mpmath binomials (independent route)."""
    out = [mp.mpf(c), 1 - c * mp.mpf(gamma)]
    for k in range(2, kmax + 1):
        out.append(c * (-1) ** k * mp.binomial(mp.mpf(gamma), k))
    return out


def test_stable_catalan_special_case():
    # expanding s + (1-s)^2/2 by hand: 1/2 + 0*s + s^2/2
    m = make_stable_family(2.0, 0.5)
    assert m.pmf(0) == pytest.approx(0.5, abs=1e-15)
    assert m.pmf(1) == pytest.approx(0.0, abs=1e-15)
    assert m.pmf(2) == pytest.approx(0.5, abs=1e-15)
    assert float(m.pmf(3)) == 0.0
    assert m.span == 2


def test_stable_pmf_against_series_oracle():
    gamma, c = 1.5, 0.5
    m = make_stable_family(gamma, c)
    oracle = series_pmf_oracle(gamma, c, 50)
    got = m.pmf(np.arange(51))
    for k in range(51):
        assert got[k] == pytest.approx(float(oracle[k]), abs=1e-15)
    assert got[0] == 0.5 and got[1] == 0.25
    assert got[2] == pytest.approx(0.1875, abs=1e-15)


@pytest.mark.parametrize("gamma", [1.05, 1.2, 1.5, 1.9])
@pytest.mark.parametrize("k", [2, 10, 1000, 10_000, 16_383])
def test_stable_pmf_relative_error_against_mpmath(gamma, k):
    # 16383 is the last entry of the capped table; a difference of
    # log-gamma values is 1.25e-11 off there
    m = make_stable_family(gamma, 0.5)
    assert m.truncation_K > k
    with mp.workdps(40):
        exact = 0.5 * (-1) ** k * mp.binomial(mp.mpf(gamma), k)
        for got in (m.table_probs[k], m.pmf(k)):
            assert abs(float((got - exact) / exact)) <= 1e-13


def test_stable_mean_is_one():
    for gamma, c in [(1.5, 0.5), (1.2, 0.3), (1.9, 0.5), (2.0, 0.4)]:
        m = make_stable_family(gamma, c)
        assert m.mean() == pytest.approx(1.0, abs=1e-12)
        assert m.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_stable_survival_matches_series():
    # sum of the pmf series up to K plus the closed-form tail must give 1;
    # the series side is summed in mpmath, independent of the gamma-function form
    gamma, c = 1.5, 0.5
    m = make_stable_family(gamma, c)
    for K in (5, 50, 500):
        head = mp.fsum(series_pmf_oracle(gamma, c, K))
        assert float(head) + m.survival(K) == pytest.approx(1.0, abs=1e-12)


def test_stable_generating_function_identity():
    gamma, c = 1.5, 0.5
    m = make_stable_family(gamma, c)
    for s in (0.3, 0.9, 0.99):
        K = 5000
        k = np.arange(K)
        series = math.fsum(m.pmf(k) * s**k)
        assert series == pytest.approx(s + c * (1 - s) ** gamma, abs=1e-9)


def test_stable_rejects_bad_parameters():
    for gamma, c in [(1.0, 0.5), (2.5, 0.3), (1.5, 0.0), (1.5, 0.7), (0.5, 0.1)]:
        with pytest.raises(OffspringError):
            make_stable_family(gamma, c)


def test_finite_variance_geometric():
    # oracles: sum k 2^-(k+1) = 1 and sum k^2 2^-(k+1) = 3
    mean = mp.nsum(lambda k: k * mp.mpf(2) ** (-k - 1), [0, mp.inf])
    second = mp.nsum(lambda k: k * k * mp.mpf(2) ** (-k - 1), [0, mp.inf])
    assert float(mean) == pytest.approx(1.0, abs=1e-12)
    assert float(second) == pytest.approx(3.0, abs=1e-12)
    geo = geometric_model()
    assert geo.sigma2 == pytest.approx(2.0, abs=1e-12)
    assert normalizer(geo, 100) == pytest.approx(math.sqrt(200), abs=1e-9)
    assert normalizer(geo, 2) == pytest.approx(2.0, abs=1e-12)


def test_finite_variance_catalan():
    cat = catalan_model()
    assert cat.sigma2 == pytest.approx(1.0, abs=1e-15)
    assert normalizer(cat, 9) == pytest.approx(3.0, abs=1e-15)
    assert cat.kappa == 0.5 and cat.gamma == 2.0


def test_finite_variance_rejections():
    with pytest.raises(OffspringError):
        make_finite_variance({1: 1.0})  # degenerate, pmf(0) = 0
    with pytest.raises(OffspringError):
        make_finite_variance({0: 0.4, 2: 0.6})  # mean 1.2, not critical
    with pytest.raises(OffspringError):
        make_finite_variance({0: 0.5, 2: 0.4})  # mass 0.9


def test_mass_mean_variance_against_mpmath():
    geo = geometric_model()
    vals = [mp.mpf(2) ** (-k - 1) for k in range(65)]
    assert geo.total_mass() == pytest.approx(float(mp.fsum(vals)), abs=1e-9)
    assert geo.mean() == pytest.approx(1.0, abs=1e-12)
    second = float(mp.fsum(k * k * v for k, v in enumerate(vals)))
    assert geo.sigma2 == pytest.approx(second - 1.0, abs=1e-9)


def test_normalizer_stable():
    m = make_stable_family(1.5, 0.5)
    assert normalizer(m, 32) == pytest.approx(32 ** (2 / 3), abs=1e-12)
    assert abs(normalizer(m, 32) - 10.0794) < 1e-3
    # b_n / n -> 0
    assert normalizer(m, 10**6) / 10**6 < 0.011


def test_span_matches_brute_force():
    for model in (catalan_model(), geometric_model(), make_stable_family(1.5, 0.5),
                  make_stable_family(2.0, 0.5), make_finite_variance({0: 0.75, 4: 0.25})):
        gcd = 0
        for k in range(1, 200):
            if float(model.pmf(k)) > 0:
                gcd = math.gcd(gcd, k)
        assert model.span == gcd


def test_support_contains():
    cat = catalan_model()
    assert not support_contains(cat, 4)  # even size, span 2
    assert support_contains(cat, 3)  # the cherry, probability 1/8
    assert support_contains(geometric_model(), 2)
    assert support_contains(cat, 1)
    # pmf(1) = 0 when c = 1/gamma: size 2 needs a single child
    m = make_stable_family(1.5, 1.0 / 1.5)
    assert not support_contains(m, 2)
    assert support_contains(m, 3)
    # gapped support: sums of {2, 9} cannot reach 1, 3, 5, 7
    gapped = make_finite_variance({0: 1 - 0.25 - 1 / 18.0, 2: 0.25, 9: 1 / 18.0})
    for n in (2, 4, 6, 8):
        assert not support_contains(gapped, n)
    assert support_contains(gapped, 3) and support_contains(gapped, 10)


def test_support_uses_every_generator():
    # {0, 2} plus 65 values of mass 1e-6: 4, 6, ..., 130 and 131.  A size-132
    # tree needs degree sum 131, an odd sum, so the 65th positive value, 131,
    # must count.
    pmf = {k: 1e-6 for k in range(4, 131, 2)}
    pmf[131] = 1e-6
    p2 = (1.0 - math.fsum(k * p for k, p in pmf.items())) / 2.0
    pmf[2] = p2
    pmf[0] = 1.0 - p2 - 1e-6 * 65
    model = make_finite_variance(pmf)
    from bgwf.harness import exact_walk_point_probability

    # sum 131 from 132 draws: one 131 and 131 zeros, 8.5e-44, which the direct
    # product keeps to full relative accuracy
    p = exact_walk_point_probability(model, 132, 131)
    assert p == pytest.approx(132 * float(model.pmf(131)) * float(model.pmf(0)) ** 131, rel=1e-9)
    assert support_contains(model, 132)
    assert snap_to_support(model, 132) == 132
    assert not support_contains(model, 130)  # odd sums start at 131


def test_cherry_probability_by_convolution():
    # P(S_3 = 2) for the Catalan law: one 2 among three draws = 3/8,
    # so P(|tau| = 3) = (1/3)(3/8) = 1/8
    from bgwf.harness import exact_walk_point_probability

    cat = catalan_model()
    assert exact_walk_point_probability(cat, 3, 2) == pytest.approx(3 / 8, abs=1e-15)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_stable_clt_laplace_convolution(lam):
    # E[exp(-lam (S_n - n)/n^(1/gamma))] -> exp(c lam^gamma), checked on the
    # exact law of S_n for n = 2048 (3% relative)
    from bgwf.harness import exact_walk_law

    gamma, c = 1.5, 0.5
    m = make_stable_family(gamma, c)
    n = 2048
    b = n ** (1.0 / gamma)
    smax = int(n + 100 * b)
    dist = exact_walk_law(m, n, smax)
    s = np.arange(smax + 1)
    val = float(np.sum(dist * np.exp(-lam * (s - n) / b)))
    assert val == pytest.approx(math.exp(c * lam**gamma), rel=0.03)


def test_sampling_matches_pmf(rng):
    m = make_stable_family(1.5, 0.5)
    draws = m.sample_above(1.0, 200_000, rng)
    for k in (0, 1, 2, 5):
        freq = float(np.mean(draws == k))
        assert freq == pytest.approx(float(m.pmf(k)), abs=4e-3)
    # heavy tail actually shows up
    assert (draws > 100).any()
