"""Reference values computed apart from bgwf.

Nothing here imports bgwf: the limit constants come from mpmath, the finite-n
Catalan expectation from Knuth's closed form, the tiny-tree laws from a
brute-force enumeration with this module's own offspring pmfs, and the local
limit value from J. C. P. Miller's power recurrence instead of the program's
binary-power convolution.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# limit constants
# ---------------------------------------------------------------------------


def xi(s: float) -> mpmath.mpf:
    """Completed zeta xi(s) = s(s-1) pi^(-s/2) Gamma(s/2) zeta(s) / 2."""
    if s in (0.0, 1.0):
        return mpmath.mpf(1) / 2  # the zeta pole cancels; xi(0) = xi(1) = 1/2
    s = mpmath.mpf(s)
    return s * (s - 1) * mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s) / 2


def g0(gamma: float, kappa: float) -> float:
    """Stable density at zero, 1/(kappa^(1/gamma) |Gamma(-1/gamma)|)."""
    gamma = mpmath.mpf(gamma)
    return float(1 / (mpmath.mpf(kappa) ** (1 / gamma) * abs(mpmath.gamma(-1 / gamma))))


def brownian_power_limit(kappa: float, alpha: float, beta: float) -> float:
    """Limit of the rescaled sum with toll x^alpha u^beta on the Brownian tree.

    (1/sqrt(pi kappa)) (pi/kappa)^(beta/2) xi(beta) B(alpha + (beta+1)/2, 1/2).
    """
    k = mpmath.mpf(kappa)
    return float(1 / mpmath.sqrt(mpmath.pi * k) * (mpmath.pi / k) ** (mpmath.mpf(beta) / 2)
                 * xi(beta) * mpmath.beta(mpmath.mpf(alpha) + (mpmath.mpf(beta) + 1) / 2, 0.5))


def brownian_powerlog_limit(kappa: float, alpha: float) -> float:
    """Limit with the mass-only toll |log x| x^alpha on the Brownian tree.

    g(0) int_0^1 x^(a-1) (1-x)^(-1/2) |log x| dx with a = alpha + 1/2, which
    is g(0) B(a, 1/2) (psi(a + 1/2) - psi(a)).
    """
    a = mpmath.mpf(alpha) + mpmath.mpf(1) / 2
    return float(g0(2.0, kappa) * mpmath.beta(a, 0.5) * (mpmath.digamma(a + 0.5) - mpmath.digamma(a)))


def phase_global(gamma: float, alpha_prime: float, beta: float) -> bool:
    """The global regime: gamma alpha' + (gamma - 1) beta > 1."""
    return gamma * alpha_prime + (gamma - 1.0) * beta > 1.0


# ---------------------------------------------------------------------------
# offspring laws and normalisers of the three families the benchmark uses
# ---------------------------------------------------------------------------


def catalan_pmf(k: int) -> float:
    return 0.5 if k in (0, 2) else 0.0


def geometric_pmf(k: int) -> float:
    return 2.0 ** (-k - 1)


def stable_pmf(gamma: float, c: float, kmax: int) -> np.ndarray:
    """pmf(0..kmax) of s + c(1-s)^gamma: c, 1 - c gamma, c (-1)^k binom(gamma, k)."""
    p = np.empty(kmax + 1)
    p[0] = c
    if kmax >= 1:
        p[1] = 1.0 - c * gamma
    if kmax >= 2:
        p[2] = c * gamma * (gamma - 1.0) / 2.0
    for k in range(3, kmax + 1):
        p[k] = p[k - 1] * (k - 1 - gamma) / k
    return p


def catalan_bn(n: int) -> float:
    return math.sqrt(n)  # sigma^2 = 1


def stable_bn(gamma: float, n: int) -> float:
    return n ** (1.0 / gamma)


def predicted_attempts(bn: float, span: int, gamma: float, kappa: float) -> float:
    """Expected rejection-sampler attempts per tree, b_n / (span g(0))."""
    return bn / (span * g0(gamma, kappa))


# ---------------------------------------------------------------------------
# tree enumeration
# ---------------------------------------------------------------------------


def ordered_trees(n: int):
    """Degree sequences, in depth-first order, of all ordered trees on n vertices."""
    def grow(prefix, open_slots):
        left = n - len(prefix)
        if left == 0:
            if open_slots == 0:
                yield tuple(prefix)
            return
        if open_slots == 0 or open_slots > left:
            return
        for d in range(left):
            yield from grow(prefix + [d], open_slots - 1 + d)

    yield from grow([], 1)


def tree_law(pmf, n: int) -> dict[tuple, float]:
    """Law of the BGW tree conditioned on n vertices, as {degree sequence: prob}."""
    weights = {}
    for seq in ordered_trees(n):
        w = math.prod(pmf(d) for d in seq)
        if w > 0.0:
            weights[seq] = w
    total = math.fsum(weights.values())
    return {seq: w / total for seq, w in weights.items()}


def subtree_sizes(seq: tuple) -> list[int]:
    """Subtree size of each vertex of a depth-first degree sequence."""
    size = [1] * len(seq)
    stack = []  # [vertex, open child slots]
    for v, d in enumerate(seq):
        if stack:
            stack[-1][1] -= 1
        stack.append([v, d])
        while stack and stack[-1][1] == 0:
            u = stack.pop()[0]
            if stack:
                size[stack[-1][0]] += size[u]
    return size


def catalan_toll1_exact(n: int) -> float:
    """E of (sqrt(n)/n^2) sum over internal w of |t_w| for a uniform binary tree.

    With k = (n-1)/2 internal vertices the sum is 2 IPL + 3k, and Knuth's
    E[IPL] = (k+1) 4^k / C(2k, k) - 3k - 1.  Exact rational arithmetic.
    """
    k = (n - 1) // 2
    ipl = Fraction((k + 1) * 4**k, math.comb(2 * k, k)) - 3 * k - 1
    return math.sqrt(n) / n**2 * float(2 * ipl + 3 * k)


def catalan_toll1_enumerated(n: int) -> float:
    """The same expectation by summing over every full binary tree on n vertices."""
    total = 0.0
    for seq, p in tree_law(catalan_pmf, n).items():
        sizes = subtree_sizes(seq)
        total += p * sum(s for s, d in zip(sizes, seq) if d > 0)
    return math.sqrt(n) / n**2 * total


# ---------------------------------------------------------------------------
# local limit theorem
# ---------------------------------------------------------------------------


def walk_point_probability(pmf: np.ndarray, n: int, target: int) -> float:
    """P(S_n = target) for n iid draws from pmf (pmf[0] > 0), O(target^2).

    J. C. P. Miller's recurrence for the coefficients w of f^n,
    k f_0 w_k = sum_{j=1..k} ((n+1) j - k) f_j w_{k-j}, has only positive
    terms when k <= n.  The prefix is rescaled whenever it grows large, and
    the scale is carried as a logarithm, because w_0 = f_0^n underflows.
    """
    if target >= n + 1:
        raise ValueError("the recurrence is positive only for target <= n")
    f = np.zeros(target + 1)
    m = min(len(pmf), target + 1)
    f[:m] = pmf[:m]
    jf = np.arange(target + 1) * f
    w = np.zeros(target + 1)
    w[0] = 1.0
    log_scale = n * math.log(f[0])
    for k in range(1, target + 1):
        rev = w[k - 1::-1]
        w[k] = ((n + 1) * np.dot(jf[1:k + 1], rev) - k * np.dot(f[1:k + 1], rev)) / (k * f[0])
        if w[k] > 1e250:
            w[:k + 1] *= 1e-250
            log_scale += 250 * math.log(10.0)
    return float(w[target] * math.exp(log_scale))


def convolution_madds(n: int) -> int:
    """Multiply-adds of P(S_n = n-1) by binary powering with direct convolution.

    Follows the powering loop: every product and every squaring convolves
    two arrays truncated to length n, costing n^2; the first factor is a copy.
    """
    madds, have_result, e = 0, False, n
    while e:
        if e & 1:
            madds += n * n if have_result else 0
            have_result = True
        e >>= 1
        if e:
            madds += n * n
    return madds
