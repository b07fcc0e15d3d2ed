"""Discrete additive functionals and rescaled measures on annotated trees.

Heights count edges throughout (a leaf has subtree height 0).  This matters:
an off-by-one in the height convention silently shifts every beta moment.
Power tolls use the convention 0^0 = 1 so that beta = 0 reduces exactly to
mass-only functionals.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.power(v, e, dtype=float)


def _exact_sum(terms: np.ndarray) -> float:
    """The correctly rounded sum of the terms, as math.fsum gives it.

    Integer-valued terms whose absolute values add up to less than 2^53 have
    exact partial sums in any order, so np.sum gives the same bits at a
    fraction of fsum's cost; sums of sizes, heights and their products at
    n = 10^4 are of this kind.  fsum gets a list, which it reads faster than
    an array.
    """
    if (terms == np.trunc(terms)).all() and np.abs(terms).sum() < 2.0**53:
        return float(terms.sum())
    return math.fsum(terms.tolist())


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


@dataclass(frozen=True)
class FunctionalValue:
    value: float
    n: int
    scaling_applied: str  # exponents of b_n and n in the prefactor
    internal_only: bool


class GapBound(NamedTuple):
    gap: float
    bound: float
    ok: bool


def additive_functional(tree: AnnotatedTree, toll: Callable) -> float:
    """F(t) = sum over all vertices of toll(subtree size, subtree height).

    ``toll`` receives the full integer stat arrays and must return one float
    per vertex; any non-finite value aborts with the offending vertex named.
    """
    terms = np.asarray(toll(tree.subtree_size, tree.subtree_height), dtype=float)
    bad = ~np.isfinite(terms)
    if bad.any():
        v = int(np.argmax(bad))
        raise ValueError(
            f"toll not finite at vertex {v} "
            f"(size {tree.subtree_size[v]}, height {tree.subtree_height[v]})"
        )
    return _exact_sum(terms)


def a_measure(
    tree: AnnotatedTree, model: OffspringModel, toll: TollFunction, internal_only: bool = True
) -> FunctionalValue:
    """(b_n/n^2) sum_w |t_w| f(|t_w|/n, (b_n/n) H(t_w)) over internal vertices.

    With ``internal_only=False`` the sum extends over all vertices, which
    requires the toll to be finite at height zero (leaves).
    """
    n = tree.n
    b = normalizer(model, n)
    a = b / n
    if internal_only:
        sizes, heights = tree.internal_stats
    else:
        probe = np.asarray(toll(np.array([1.0 / n]), np.array([0.0])), dtype=float)
        if not np.isfinite(probe).all():
            raise ValueError("toll blows up at height 0; use internal_only=True")
        sizes = tree.subtree_size.astype(float)
        heights = tree.subtree_height.astype(float)
    terms = sizes * np.asarray(toll(sizes / n, a * heights), dtype=float)
    bad = ~np.isfinite(terms)
    if bad.any():
        v = int(np.argmax(bad))
        raise ValueError(f"toll not finite at vertex with mask-index {v}")
    value = (b / n**2) * _exact_sum(terms)
    return FunctionalValue(value, n, "bn^1*n^-2", internal_only)


def rescaled_theorem1_sum(
    tree: AnnotatedTree, model: OffspringModel, alpha_prime: float, beta: float
) -> FunctionalValue:
    """(b_n^(1+beta)/n^(1+alpha'+beta)) sum over internal w of |t_w|^alpha' H(t_w)^beta.

    Algebraically identical to ``a_measure`` with the power toll
    (alpha'-1, beta) restricted to internal vertices.
    """
    n = tree.n
    b = normalizer(model, n)
    sizes, heights = tree.internal_stats
    terms = _pow(sizes, alpha_prime) * _pow(heights, beta)
    scale = b ** (1.0 + beta) / n ** (1.0 + alpha_prime + beta)
    value = scale * _exact_sum(terms)
    return FunctionalValue(value, n, f"bn^{1 + beta:g}*n^-{1 + alpha_prime + beta:g}", True)


def b1_index(tree: AnnotatedTree) -> float:
    """Sum of 1/H(t_w) over internal vertices other than the root."""
    mask = tree.internal.copy()
    mask[0] = False
    return _exact_sum(1.0 / tree.subtree_height[mask])


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
    """Check total-mass bounds: A°(1) <= (b_n/n) H and A(1) <= (b_n/n)(H+1)."""
    one = TollFunction.power(0.0, 0.0)
    a = normalizer(model, tree.n) / tree.n
    height = tree.height
    tol = 1e-12
    lhs_internal = a_measure(tree, model, one, internal_only=True).value
    lhs_all = a_measure(tree, model, one, internal_only=False).value
    return lhs_internal <= a * height + tol and lhs_all <= a * (height + 1) + tol
