"""Closed-form limit constants for functionals of stable continuum trees.

Conventions.  The branching mechanism is psi(lambda) = kappa lambda^gamma
with gamma in (1, 2]; gamma = 2 is the Brownian tree.  The limiting density
at zero of the centered rescaled sums is

    g(0) = 1 / (kappa^(1/gamma) |Gamma(-1/gamma)|),

which reduces to 1/(2 sqrt(kappa pi)) in the Brownian case.  The first
moment of the mass-and-height functional with toll x^alpha u^beta is

    g(0) * B(alpha + (beta+1)(1 - 1/gamma), 1 - 1/gamma) * E[H^beta],

finite exactly when the integral test of ``phase_margin`` holds.  In the
Brownian case E[H^beta] = 2 (pi/kappa)^(beta/2) xi(beta), through the
completed (xi) form of the zeta function (``brownian_height_moment``), giving

    (1/sqrt(pi kappa)) (pi/kappa)^(beta/2) xi(beta) B(alpha + (beta+1)/2, 1/2).

The mass-only toll |log x| x^alpha (power-log) has first moment

    g(0) * int_0^1 x^(-1/gamma) (1-x)^(-1/gamma) |log x| x^alpha dx
        = g(0) * B(a, b) (digamma(a + b) - digamma(a)),  a = alpha + b,  b = 1 - 1/gamma,

minus the a-derivative of Euler's beta integral; it is finite exactly when
the power toll x^alpha u^0 is.
"""

from __future__ import annotations

import math

GLOBAL = "global"
NON_GLOBAL = "non-global"

_LN2 = math.log(2.0)
_CVZ_TERMS = 36


class InfiniteMomentError(ValueError):
    """The requested moment is infinite (outside the finiteness region)."""


def g0(gamma: float, kappa: float) -> float:
    """Stable density at zero, 1/(kappa^(1/gamma) |Gamma(-1/gamma)|)."""
    if not (1.0 < gamma <= 2.0 and 0.0 < kappa < math.inf):  # NaN fails both
        raise ValueError("need gamma in (1,2] and finite kappa > 0")
    return 1.0 / (kappa ** (1.0 / gamma) * abs(math.gamma(-1.0 / gamma)))


def _beta_fn(a: float, b: float) -> float:
    """Euler's beta function B(a, b) for a, b > 0."""
    if a + b < 170.0:  # Gamma(a + b) below the float range's 1.8e308
        return math.gamma(a) / math.gamma(a + b) * math.gamma(b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _eta(s: float) -> float:
    # Alternating zeta sum_{k>=0} (-1)^k (k+1)^(-s) by the
    # Cohen-Rodriguez Villegas-Zagier acceleration; error ~ 5.83^(-N).
    n = _CVZ_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0
    for k in range(n):
        c = b - c
        acc += c * (k + 1.0) ** (-s)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return acc / d


def riemann_xi(s: float) -> float:
    """Completed zeta xi(s) = (1/2) s(s-1) pi^(-s/2) Gamma(s/2) zeta(s), entire.

    Arguments below 1/2 are reflected through xi(s) = xi(1-s); the pole of
    zeta at 1 cancels against the (s-1) factor, handled via expm1.
    """
    s = float(s)
    if s < 0.5:
        s = 1.0 - s
    if s == 1.0:
        return 0.5
    denom = -math.expm1((1.0 - s) * _LN2)  # 1 - 2^(1-s), same sign as s-1
    ratio = (s - 1.0) / denom  # analytic: (s-1) zeta(s) = eta(s) * ratio
    return 0.5 * s * math.pi ** (-s / 2.0) * math.gamma(s / 2.0) * _eta(s) * ratio


def max_excursion_moment(beta: float) -> float:
    """E[(max of the normalized Brownian excursion)^beta] = 2 (pi/2)^(beta/2) xi(beta)."""
    return 2.0 * (math.pi / 2.0) ** (beta / 2.0) * riemann_xi(beta)


def _require_finite(gamma: float, alpha: float, beta: float) -> None:
    """Raise InfiniteMomentError when the toll x^alpha u^beta fails the integral test."""
    if not phase_margin(gamma, alpha + 1.0, beta) > 0.0:  # NaN exponents fail too
        raise InfiniteMomentError(
            f"moment infinite: toll x^{alpha:g} u^{beta:g} fails the integral test at gamma = {gamma:g}"
        )


def brownian_height_moment(kappa: float, beta: float) -> float:
    """E[H^beta] of the Brownian tree of mechanism kappa lambda^2, of height sqrt(2/kappa) max e."""
    return (2.0 / kappa) ** (beta / 2.0) * max_excursion_moment(beta)


def brownian_moment(kappa: float, alpha: float, beta: float) -> float:
    """First moment of the Brownian-tree functional with toll x^alpha u^beta (``stable_moment``)."""
    _require_finite(2.0, alpha, beta)  # before xi, which overflows far outside the region
    return stable_moment(2.0, kappa, alpha, beta, brownian_height_moment(kappa, beta))


def stable_moment(gamma: float, kappa: float, alpha: float, beta: float, height_moment: float) -> float:
    """First moment for general gamma, taking E[H^beta] as an input.

    No closed form for E[H^beta] exists when gamma < 2; callers supply a
    simulation estimate there (self-consistency mode).
    """
    _require_finite(gamma, alpha, beta)
    a = alpha + (beta + 1.0) * (1.0 - 1.0 / gamma)
    return g0(gamma, kappa) * _beta_fn(a, 1.0 - 1.0 / gamma) * height_moment


def _digamma(x: float) -> float:
    """Digamma d(x) for x > 0: shift up by d(x) = d(x+1) - 1/x until x >= 12,
    then log x - 1/(2x) - sum_{k=1..5} B_2k / (2k x^(2k)); the next term is 2.4e-15 at x = 12."""
    shift = 0.0
    while x < 12.0:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (1 / 240 - inv2 / 132))))
    return shift + math.log(x) - 0.5 / x - series


def power_log_moment(gamma: float, kappa: float, alpha: float) -> float:
    """First moment of the mass-only functional with toll |log x| x^alpha."""
    _require_finite(gamma, alpha, 0.0)
    b = 1.0 - 1.0 / gamma
    a = alpha + b
    return g0(gamma, kappa) * _beta_fn(a, b) * (_digamma(a + b) - _digamma(a))


def phase_margin(gamma: float, alpha_prime: float, beta: float) -> float:
    """gamma*alpha' + (gamma-1)*beta - 1, the paper's integral test.

    Positive exactly when the rescaled sum with exponents (alpha', beta) is in
    the global regime, which is exactly when the stable-tree functional with
    toll x^(alpha'-1) u^beta is a.s. finite: gamma(alpha'-1) + (gamma-1)(beta+1)
    > 0 is the same test.  Zero counts as non-global and infinite.  Every first
    moment here raises InfiniteMomentError through it.
    """
    if not (1.0 < gamma <= 2.0):
        raise ValueError("gamma outside (1, 2]")
    return gamma * alpha_prime + (gamma - 1.0) * beta - 1.0
