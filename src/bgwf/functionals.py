"""Discrete additive functionals and rescaled measures on annotated trees.

Heights count edges throughout (a leaf has subtree height 0).  This matters:
an off-by-one in the height convention silently shifts every beta moment.
Power tolls use the convention 0^0 = 1 so that beta = 0 reduces exactly to
mass-only functionals.

Sums are plain numpy reductions.  They are not correctly rounded, but a tree's
sum depends only on the tree, so reports are still identical for any worker
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


def _pow(v: np.ndarray, e: float) -> np.ndarray:
    if e == 0.0:
        return np.ones_like(v, dtype=float)  # 0^0 = 1 convention
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.power(v, e, dtype=float)


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
        if self.kind == POWER:
            return _pow(x, self.alpha) * _pow(np.asarray(u, dtype=float), self.beta)
        with np.errstate(divide="ignore"):
            return np.abs(np.log(x)) * _pow(x, self.alpha)


def a_measure(tree: AnnotatedTree, model: OffspringModel, toll: TollFunction) -> float:
    """(b_n/n^2) sum_w |t_w| f(|t_w|/n, (b_n/n) H(t_w)) over internal vertices."""
    n = tree.n
    b = normalizer(model, n)
    sizes, heights = tree.internal_stats
    terms = sizes * np.asarray(toll(sizes / n, (b / n) * heights), dtype=float)
    bad = ~np.isfinite(terms)
    if bad.any():
        v = int(np.argmax(bad))
        raise ValueError(f"toll not finite at vertex with mask-index {v}")
    return (b / n**2) * float(terms.sum())


def rescaled_theorem1_sum(
    tree: AnnotatedTree, model: OffspringModel, alpha_prime: float, beta: float
) -> float:
    """(b_n^(1+beta)/n^(1+alpha'+beta)) sum over internal w of |t_w|^alpha' H(t_w)^beta.

    Algebraically identical to ``a_measure`` with the power toll (alpha'-1, beta).
    Raises ValueError when the prefactor or the sum leaves the float range.
    """
    n = tree.n
    b = normalizer(model, n)
    sizes, heights = tree.internal_stats
    terms = _pow(sizes, alpha_prime) * _pow(heights, beta)
    try:
        value = b ** (1.0 + beta) / n ** (1.0 + alpha_prime + beta) * float(terms.sum())
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"rescaled sum of toll x^{alpha_prime - 1.0:g}*u^{beta:g} not finite at n={n}")
    return value
