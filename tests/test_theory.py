import math

import mpmath as mp
import numpy as np
import pytest

from bgwf.theory import (
    _beta_fn,
    _digamma,
    InfiniteMomentError,
    brownian_moment,
    g0,
    max_excursion_moment,
    phase_margin,
    power_log_moment,
    riemann_xi,
    stable_moment,
)


def mp_xi(s):
    """High-precision completed zeta (reflected to dodge the Gamma poles)."""
    s = mp.mpf(s)
    if s < 0.5:
        s = 1 - s
    if s == 1:
        return mp.mpf("0.5")
    return 0.5 * s * (s - 1) * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def test_g0_values():
    assert g0(2.0, 0.5) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)
    assert g0(2.0, 1.0) == pytest.approx(1 / (2 * math.sqrt(math.pi)), abs=1e-15)
    # general formula reduces to the Gaussian one at gamma = 2 for any kappa
    rng = np.random.default_rng(5)
    for kappa in rng.uniform(0.05, 4.0, size=20):
        assert g0(2.0, kappa) == pytest.approx(1 / (2 * math.sqrt(kappa * math.pi)), rel=1e-12)


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
def test_g0_refuses_kappa_not_finite_and_positive(kappa):
    with pytest.raises(ValueError, match="kappa > 0"):
        g0(2.0, kappa)


def test_xi_special_values():
    assert riemann_xi(2.0) == pytest.approx(math.pi / 6, abs=1e-12)
    assert riemann_xi(1.0) == pytest.approx(0.5, abs=1e-13)
    assert riemann_xi(0.0) == pytest.approx(0.5, abs=1e-13)
    assert riemann_xi(4.0) == pytest.approx(math.pi**2 / 15, abs=1e-12)


def test_xi_functional_equation():
    rng = np.random.default_rng(17)
    for s in rng.uniform(-10.0, 11.0, size=50):
        lhs, rhs = riemann_xi(float(s)), riemann_xi(1.0 - float(s))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_xi_against_mpmath():
    rng = np.random.default_rng(23)
    for s in rng.uniform(-8.0, 10.0, size=25):
        assert riemann_xi(float(s)) == pytest.approx(float(mp_xi(float(s))), rel=1e-11)


def test_max_excursion_moments():
    assert max_excursion_moment(0.0) == pytest.approx(1.0, abs=1e-13)
    assert max_excursion_moment(1.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert max_excursion_moment(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)


def test_brownian_moment_values():
    assert brownian_moment(0.5, 0.0, 0.0) == pytest.approx(1.2533141373155, rel=1e-12)
    assert brownian_moment(0.5, 1.0, 0.0) == pytest.approx(0.6266570686578, rel=1e-12)
    assert brownian_moment(0.5, 0.0, 2.0) == pytest.approx(4.123238241866, rel=1e-11)
    with pytest.raises(InfiniteMomentError):
        brownian_moment(0.5, -0.6, 0.0)


def test_stable_moment_matches_brownian():
    # E[H^beta] = (2/kappa)^(beta/2) E[(max excursion)^beta] in the Brownian
    # case, against the closed form written out through xi
    rng = np.random.default_rng(31)
    count = 0
    while count < 50:
        kappa = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(-1.0, 3.0))
        beta = float(rng.uniform(-3.0, 4.0))
        if 2 * alpha + beta + 1 <= 0.05:
            continue
        closed = (1.0 / math.sqrt(math.pi * kappa) * (math.pi / kappa) ** (beta / 2.0) * riemann_xi(beta)
                  * _beta_fn(alpha + (beta + 1.0) / 2.0, 0.5))
        hm = (2.0 / kappa) ** (beta / 2.0) * max_excursion_moment(beta)
        assert stable_moment(2.0, kappa, alpha, beta, hm) == pytest.approx(closed, rel=1e-10)
        assert brownian_moment(kappa, alpha, beta) == pytest.approx(closed, rel=1e-10)
        count += 1
    # the worked instance: beta = 2, E[H^2] = 4 * (pi^2/6)
    hm = 4.0 * max_excursion_moment(2.0)
    assert hm == pytest.approx(6.5797362674, rel=1e-10)
    assert stable_moment(2.0, 0.5, 0.0, 2.0, hm) == pytest.approx(
        4.123238241866, rel=1e-10
    )
    assert stable_moment(2.0, 0.5, 0.0, 0.0, 1.0) == pytest.approx(
        1.2533141373155, rel=1e-12
    )
    with pytest.raises(InfiniteMomentError):
        stable_moment(1.5, 1.0, -1.0, 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(1e-3, 0.5), (0.25, 1 / 3), (1.0, 1.0), (2.5, 0.5), (40.0, 0.9),
                                  (120.3, 49.6), (169.0, 0.5), (300.0, 1 / 6)])
def test_beta_function_against_mpmath(a, b):
    with mp.workdps(40):
        assert _beta_fn(a, b) == pytest.approx(float(mp.beta(a, b)), rel=1e-12)


def test_mass_only_moment():
    # the power-log toll |log x| x^alpha is finite exactly where x^alpha is
    with pytest.raises(InfiniteMomentError):
        power_log_moment(2.0, 0.5, -0.5)


def test_mass_only_moment_power_log():
    # int x^(a-1)(1-x)^(b-1)(-log x) dx = B(a,b)(psi(a+b) - psi(a)):
    # a = b = 1/2 gives pi * 2 log 2; a = 1, b = 1/2 gives 4 - 4 log 2
    got = power_log_moment(2.0, 0.5, 0.0)
    assert got == pytest.approx(g0(2.0, 0.5) * 2 * math.pi * math.log(2), rel=1e-13)
    got = power_log_moment(2.0, 0.5, 0.5)
    assert got == pytest.approx(g0(2.0, 0.5) * (4 - 4 * math.log(2)), rel=1e-13)


@pytest.mark.parametrize("gamma", [1.05, 1.2, 1.5, 1.9, 2.0])
def test_power_log_moment_against_mpmath(gamma):
    # from near the finiteness edge alpha = 1/gamma - 1 up to alpha = 20; the
    # reference is minus the a-derivative of the beta integral, at 40 digits
    edge = 1.0 / gamma - 1.0
    for alpha in (0.9 * edge, 0.5 * edge, 0.0, 0.5, 1.0, 4.0, 20.0):
        with mp.workdps(40):
            g, b = mp.mpf(gamma), 1 - 1 / mp.mpf(gamma)
            g0_mp = 1 / (mp.mpf(0.5) ** (1 / g) * abs(mp.gamma(-1 / g)))
            want = -g0_mp * mp.diff(lambda a: mp.beta(a, b), mp.mpf(alpha) + b)
        assert power_log_moment(gamma, 0.5, alpha) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 1.4616321449683622, 2.5, 11.9, 12.0, 50.0, 1e3, 1e6])
def test_digamma_against_mpmath(x):
    # 1.4616... is the positive zero of digamma, where only an absolute bound holds
    assert _digamma(x) == pytest.approx(float(mp.digamma(x)), rel=1e-14, abs=1e-14)


def test_phase_margin_examples():
    assert phase_margin(2.0, 1.0, 0.0) == pytest.approx(1.0)
    assert phase_margin(2.0, 0.5, 0.0) == pytest.approx(0.0)
    for gamma in (1.1, 1.5, 2.0):
        assert phase_margin(gamma, 0.0, -1.0) == pytest.approx(-gamma)
    with pytest.raises(ValueError, match="gamma outside"):
        phase_margin(2.5, 1.0, 0.0)


def test_finiteness_examples():
    # the moment of toll x^alpha u^beta is finite iff phase_margin(gamma, alpha + 1, beta) > 0
    assert brownian_moment(0.5, 0.0, 0.0) > 0.0
    with pytest.raises(InfiniteMomentError):
        brownian_moment(0.5, -0.5, 0.0)  # boundary counts as infinite
    with pytest.raises(InfiniteMomentError):
        stable_moment(1.5, 0.5, 0.0, -1.0, 1.0)


def _finite_form(gamma, aprime, beta) -> bool:
    """The integral test as a.s. finiteness of toll x^a u^beta, a = alpha' - 1."""
    return gamma * (aprime - 1.0) + (gamma - 1.0) * (beta + 1.0) > 0.0


def test_finiteness_phase_equivalence():
    # gamma a' + (gamma-1) b > 1  <=>  gamma a + (gamma-1)(b+1) > 0 with a = a'-1
    rng = np.random.default_rng(41)
    for _ in range(1000):
        gamma = float(rng.uniform(1.01, 2.0))
        aprime = float(rng.uniform(-3.0, 3.0))
        beta = float(rng.uniform(-4.0, 4.0))
        assert _finite_form(gamma, aprime, beta) == (phase_margin(gamma, aprime, beta) > 0.0)


@pytest.mark.parametrize("gamma", [1.25, 1.5, 2.0])
def test_finiteness_phase_agree_on_dyadic_grid(gamma):
    # Dyadic gamma, alpha' and beta make both margins exact in floating point,
    # so the grid's boundary points (margin 0, such as alpha' = 1/2, beta = 0
    # at gamma = 2) test that both forms call the boundary non-global and infinite.
    on_boundary = 0
    for aprime in np.arange(-16, 25) / 8:
        for beta in np.arange(-16, 17) / 8:
            margin = phase_margin(gamma, aprime, beta)
            on_boundary += margin == 0.0
            assert _finite_form(gamma, aprime, beta) == (margin > 0.0)
    assert on_boundary >= 5
