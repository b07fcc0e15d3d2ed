"""Discrete additive functionals and rescaled measures on annotated trees.

Heights count edges throughout (a leaf has subtree height 0).  This matters:
an off-by-one in the height convention silently shifts every beta moment.
Power tolls use the convention 0^0 = 1 so that beta = 0 reduces exactly to
mass-only functionals.

One evaluator, ``toll_sum``, reduces every toll sum in factored form: the
tree sums ``a_measure`` and ``rescaled_theorem1_sum`` and the excursion level
sweep of ``continuum``.  Its terms are plain numpy arrays and its sums plain
numpy reductions.  The sums are not correctly rounded, but a tree's sum
depends only on the tree, so reports are still identical for any worker
count; integer-valued terms below 2^53 in total (sizes, heights and their
products) are summed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .offspring import OffspringModel, normalizer
from .sampler import AnnotatedTree

POWER = "power"
POWER_LOG = "power-log"


@dataclass(frozen=True)
class TollFunction:
    """Toll f(mass, scaled height): power f(x, u) = x^alpha u^beta, or
    power-log f(x, u) = |log x| x^alpha (mass only, beta = 0).

    A power-log toll is finite exactly where the power toll x^alpha u^0 is.
    Evaluation is vectorized.
    """

    kind: str
    alpha: float
    beta: float
    label: str

    @classmethod
    def power(cls, alpha: float, beta: float) -> "TollFunction":
        return cls(POWER, alpha, beta, f"x^{alpha:g}*u^{beta:g}")

    @classmethod
    def power_log(cls, alpha: float) -> "TollFunction":
        return cls(POWER_LOG, alpha, 0.0, f"|log x|*x^{alpha:g}")

    def __call__(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # pow(v, 0) = 1, 0^0 too
            if self.kind == POWER:
                return np.power(x, self.alpha) * np.power(np.asarray(u, dtype=float), self.beta)
            return np.abs(np.log(x)) * np.power(x, self.alpha)


def toll_sum(toll: TollFunction, mass, height, scale: float, log_mu: float, where: str) -> float:
    """Z = sum_i (mu m_i) f(mu m_i, eta h_i), times any outer weight, in factored form.

    A power toll gives mu^(alpha+1) eta^beta sum m^(alpha+1) h^beta and a
    power-log toll mu^(alpha+1) sum m^(alpha+1) |log m + log mu|.  The caller
    states that prefactor, with its outer weight, as ``scale`` and passes
    ``log_mu`` = log mu.  A zero height exponent takes no factor (0^0 = 1).
    The terms are plain numpy arrays.  Raises ValueError, naming ``where``,
    when the value is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.power(mass, toll.alpha + 1.0)
        if toll.kind == POWER_LOG:
            terms *= np.abs(np.log(mass) + log_mu)
        elif toll.beta != 0.0:
            terms *= np.power(height, toll.beta)
    value = scale * float(terms.sum())
    if not math.isfinite(value):
        # a term that is not finite makes the sum so; no such term: the sum or the scale overflowed
        bad = np.flatnonzero(~np.isfinite(terms))
        at = f", term {bad[0]} of mass {mass[bad[0]]:g} and height {height[bad[0]]:g}" if len(bad) else ""
        raise ValueError(f"toll {toll.label} not finite at {where}{at}")
    return value


def a_measure(tree: AnnotatedTree, model: OffspringModel, toll: TollFunction) -> float:
    """(b_n/n^2) sum_w |t_w| f(|t_w|/n, (b_n/n) H(t_w)) over internal vertices:
    (b_n/n) Z with mu = 1/n and eta = b_n/n, of prefactor b_n^(1+beta)/n^(1+alpha'+beta)."""
    n = tree.n
    b = normalizer(model, n)
    sizes, heights = tree.internal_stats
    alpha_prime, beta = toll.alpha + 1.0, toll.beta
    try:
        scale = b ** (1.0 + beta) / n ** (1.0 + alpha_prime + beta)
    except (OverflowError, ZeroDivisionError):
        scale = math.nan
    return toll_sum(toll, sizes, heights, scale, -math.log(n), f"n={n}")


def rescaled_theorem1_sum(
    tree: AnnotatedTree, model: OffspringModel, alpha_prime: float, beta: float
) -> float:
    """(b_n^(1+beta)/n^(1+alpha'+beta)) sum over internal w of |t_w|^alpha' H(t_w)^beta,
    Theorem 1's notation for ``a_measure`` with the power toll (alpha'-1, beta)."""
    return a_measure(tree, model, TollFunction.power(alpha_prime - 1.0, beta))
