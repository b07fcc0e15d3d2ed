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
from typing import Callable, NamedTuple

import numpy as np

from .offspring import OffspringModel, normalizer
from .sampler import AnnotatedTree

POWER = "power"
POWER_LOG = "power-log"
CUSTOM = "custom"


def _pow(v: np.ndarray, e: float) -> np.ndarray:
    if e == 0.0:
        return np.ones_like(v, dtype=float)  # 0^0 = 1 convention
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.power(v, e, dtype=float)


@dataclass(frozen=True)
class TollFunction:
    """Toll f(mass, scaled height) from a closed family, or a custom callable.

    The power family is f(x, u) = x^alpha u^beta; power-log is
    f(x, u) = |log x| x^alpha (mass only).  Evaluation is vectorized.
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    fn: Callable | None = None
    label: str = ""

    @classmethod
    def power(cls, alpha: float, beta: float) -> "TollFunction":
        return cls(POWER, alpha, beta, None, f"x^{alpha:g}*u^{beta:g}")

    @classmethod
    def power_log(cls, alpha: float) -> "TollFunction":
        return cls(POWER_LOG, alpha, 0.0, None, f"|log x|*x^{alpha:g}")

    @classmethod
    def custom(cls, fn: Callable, label: str = "custom") -> "TollFunction":
        return cls(CUSTOM, None, None, fn, label)

    @property
    def exponents(self) -> tuple[float, float] | None:
        """(alpha, beta) when the toll is the plain power family, else None."""
        if self.kind == POWER:
            return (self.alpha, self.beta)
        return None

    def __call__(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.kind == POWER:
            return _pow(x, self.alpha) * _pow(u, self.beta)
        if self.kind == POWER_LOG:
            with np.errstate(divide="ignore"):
                return np.abs(np.log(x)) * _pow(x, self.alpha)
        return np.asarray(self.fn(x, u), dtype=float)


class GapBound(NamedTuple):
    gap: float
    bound: float
    ok: bool


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


def b1_index(tree: AnnotatedTree) -> float:
    """Sum of 1/H(t_w) over internal vertices other than the root."""
    mask = tree.internal.copy()
    mask[0] = False
    return float((1.0 / tree.subtree_height[mask]).sum())


def tv_gap_bound_check(tree: AnnotatedTree, model: OffspringModel) -> GapBound:
    """Total-variation gap between the all-vertex and internal-only measures.

    The two measures differ only by leaf atoms of weight a/n each (a = b_n/n),
    so the gap is exactly (1/2)(a/n)(number of leaves), bounded by a/2.
    """
    a = normalizer(model, tree.n) / tree.n
    gap = 0.5 * (a / tree.n) * tree.leaves
    bound = 0.5 * a
    return GapBound(gap, bound, gap <= bound + 1e-15)


def mass_bound_check(tree: AnnotatedTree, model: OffspringModel) -> bool:
    """Check total-mass bounds: A°(1) <= (b_n/n) H and A(1) <= (b_n/n)(H+1).

    A(1) is A°(1) plus the leaf atoms of tv_gap_bound_check, a/n per leaf.
    """
    a = normalizer(model, tree.n) / tree.n
    height = tree.height
    tol = 1e-12
    internal = a_measure(tree, model, TollFunction.power(0.0, 0.0))
    total = internal + (a / tree.n) * tree.leaves
    return internal <= a * height + tol and total <= a * (height + 1) + tol
