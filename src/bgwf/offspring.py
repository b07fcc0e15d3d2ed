"""Critical offspring laws in the stable domain of attraction.

Two families are built in:

* ``stable-power`` has probability generating function ``s + c(1-s)^gamma``
  with ``gamma`` in (1, 2] and ``0 < c <= 1/gamma``.  It is critical, its
  centered partial sums rescaled by ``b_n = n^(1/gamma)`` converge to the
  spectrally positive stable law with Laplace transform ``exp(c lambda^gamma)``,
  so the stable constant is ``kappa = c`` exactly.
* ``finite-variance`` wraps an explicit critical pmf with variance
  ``sigma^2 in (0, inf)``.  The canonical normalization is
  ``b_n = sigma sqrt(n)`` with ``kappa = 1/2``.

Both choices make every limit constant downstream closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

STABLE_POWER = "stable-power"
FINITE_VARIANCE = "finite-variance"

CRITICALITY_TOL = 1e-12
_INPUT_TOL = 1e-9
# The sampling table stops at this tail mass or at the hard cap, whichever
# comes first; draws beyond the table use exact closed-form tail inversion,
# so the cutoff introduces no sampling bias.
_TABLE_TAIL = 1e-12
_TABLE_CAP = 1 << 14
# The degree sampler draws the values below this bound, other than 0 and the
# split value j, in one multinomial; the rest by inversion of the tail.
_TABLE_SPLIT = 256
# Exact support reachability is tabulated for targets below this bound;
# larger sizes are decided by the span congruence alone.
_REACH_LIMIT = 4096


class OffspringError(ValueError):
    """Raised for offspring laws violating criticality or nondegeneracy."""


@dataclass(frozen=True)
class DegreeSplit:
    """The law seen by the degree sampler: the pair {0, j} against the rest.

    ``j`` is the smallest positive support value, ``r = p_j / (p_0 + p_j)``
    and ``rest = 1 - p_0 - p_j``.  ``values`` is ``[0, j]`` followed by the
    other support values below _TABLE_SPLIT, whose probabilities, renormalized
    among themselves, are ``other_probs``.  ``tail_q`` is the mass above them,
    which ``rest`` includes.
    """

    j: int
    r: float
    rest: float
    values: np.ndarray
    other_probs: np.ndarray
    tail_q: float


@dataclass(frozen=True)
class OffspringModel:
    """A critical offspring law together with its normalizing data.

    ``table_values``/``table_probs``/``table_cdf`` hold the tabulated head of
    the law (the whole law for finite-variance models).  ``tail_prob`` is the
    mass strictly above the table; for the stable-power family it is sampled
    exactly through the closed-form survival function, and ``kappa`` is the
    constant c of its generating function.
    """

    family: str
    gamma: float
    kappa: float
    span: int
    sigma2: float  # math.inf for stable-power with gamma < 2
    table_values: np.ndarray
    table_probs: np.ndarray
    table_cdf: np.ndarray
    tail_prob: float
    split: DegreeSplit = field(repr=False)
    reachable: np.ndarray = field(repr=False)

    # -- law accessors -------------------------------------------------

    def pmf(self, k):
        """P(xi = k), vectorized over integer arrays, exact closed form."""
        k = np.asarray(k)
        scalar = k.shape == ()
        flat_k = np.atleast_1d(k)
        if self.family == STABLE_POWER:
            probs = _stable_pmf(self.kappa, self.gamma, int(flat_k.max(initial=0)) + 1)
            out = np.where(flat_k < 0, 0.0, probs[np.maximum(flat_k, 0)])
        else:
            out = np.zeros(flat_k.shape, dtype=float)
            idx = np.searchsorted(self.table_values, flat_k)
            idx = np.minimum(idx, len(self.table_values) - 1)
            hit = self.table_values[idx] == flat_k
            out[hit] = self.table_probs[idx[hit]]
        return float(out[0]) if scalar else out

    def survival(self, k) -> float:
        """P(xi > k) for scalar integer k."""
        k = int(k)
        if k < 0:
            return 1.0
        if self.family == STABLE_POWER:
            return _stable_survival(self.kappa, self.gamma, k)
        pos = np.searchsorted(self.table_values, k, side="right")
        return 0.0 if pos == 0 else float(max(0.0, 1.0 - self.table_cdf[pos - 1]))

    def mean(self) -> float:
        """Tabulated mean plus the closed-form tail correction (equals 1)."""
        head = math.fsum(self.table_values * self.table_probs)
        if self.family == STABLE_POWER and self.gamma < 2.0:
            head += _stable_tail_mean(self.kappa, self.gamma, len(self.table_values) - 1)
        return head

    def total_mass(self) -> float:
        return math.fsum(self.table_probs) + self.tail_prob

    # -- sampling ------------------------------------------------------

    def sample_above(self, q: float, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw iid values conditioned on falling in the top q of the law."""
        if size == 0:
            return np.zeros(0, dtype=np.int64)
        u = 1.0 - q * (1.0 - rng.random(size))  # in [1-q, 1)
        idx = np.searchsorted(self.table_cdf, u, side="right")
        over = idx >= len(self.table_values)
        out = self.table_values[np.minimum(idx, len(self.table_values) - 1)].copy()
        if over.any():
            out[over] = [self._tail_inverse(1.0 - ui) for ui in np.atleast_1d(u[over])]
        return out

    def _tail_inverse(self, s: float) -> int:
        # smallest k with survival(k) < s; doubling then integer bisection
        lo = len(self.table_values) - 1  # survival(lo) = tail_prob >= s
        hi = max(2 * lo, lo + 2)
        while self.survival(hi) >= s:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.survival(mid) < s:
                hi = mid
            else:
                lo = mid
        return hi


# ---------------------------------------------------------------------------
# stable-power closed forms
# ---------------------------------------------------------------------------


def _stable_pmf(c: float, gamma: float, top: int) -> np.ndarray:
    """pmf(0..top-1) of the law with generating function s + c(1-s)^gamma.

    For k >= 2, pmf(k) = c (-1)^k binom(gamma, k), so one cumulative product
    of the exact ratios pmf(k) / pmf(k-1) = 1 - (1 + gamma) / k builds the
    table from c; only pmf(1) = 1 - c*gamma takes the s term.  In this form
    the table is within 2e-14 of the exact values up to k = 16383 for gamma
    from 1.05 to 1.99; the form (k - 1 - gamma) / k loses 3e-13 there, as
    its numerator rounds the same way at every k.
    """
    k = np.arange(1.0, max(top, 2))
    out = np.cumprod(np.concatenate(([c], 1.0 - (1.0 + gamma) / k)))
    out[1] = max(0.0, 1.0 - c * gamma)
    return out[:top]


def _log_abs_gamma_1m(gamma: float) -> float:
    """log |Gamma(1 - gamma)| for gamma in (1, 2)."""
    return math.lgamma(2.0 - gamma) - math.log(gamma - 1.0)


def _stable_survival(c: float, gamma: float, k: int) -> float:
    """P(xi > k) = c Gamma(k+1-gamma) / (|Gamma(1-gamma)| Gamma(k+1)), k >= 1."""
    if k < 0:
        return 1.0
    if k == 0:
        return 1.0 - c
    if gamma == 2.0:
        return c if k == 1 else 0.0
    return c * math.exp(math.lgamma(k + 1.0 - gamma) - math.lgamma(k + 1.0) - _log_abs_gamma_1m(gamma))


def _stable_tail_mean(c: float, gamma: float, k: int) -> float:
    """sum_{j>k} j pmf(j) = c gamma Gamma(k+1-gamma) / (Gamma(2-gamma) Gamma(k)),
    for k >= 1 and gamma < 2."""
    return c * gamma * math.exp(math.lgamma(k + 1.0 - gamma) - math.lgamma(float(k)) - math.lgamma(2.0 - gamma))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _span_of(values: np.ndarray, probs: np.ndarray) -> int:
    g = 0
    for v, p in zip(values, probs):
        if v >= 1 and p > 0.0:
            g = math.gcd(g, int(v))
            if g == 1:
                break
    if g == 0:
        raise OffspringError("offspring law has no positive support")
    return g


def _reachability(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Boolean table: reach[m] == True iff m is a sum of positive support values."""
    gens = values[(values >= 1) & (values < _REACH_LIMIT) & (probs > 0.0)].tolist()
    reach = np.zeros(_REACH_LIMIT, dtype=bool)
    reach[0] = True
    for g in gens:
        if reach[g]:
            continue  # a sum of smaller generators adds nothing new
        shift = g
        while shift < _REACH_LIMIT:
            upd = reach.copy()
            upd[shift:] |= reach[:-shift]
            if (upd == reach).all():
                break
            reach = upd
            shift *= 2
    return reach


def _degree_split(values: np.ndarray, probs: np.ndarray, cdf: np.ndarray) -> DegreeSplit:
    j_at = int(np.flatnonzero((values > 0) & (probs > 0.0))[0])
    j = int(values[j_at])
    p0, pj = float(probs[0]), float(probs[j_at])  # values[0] == 0: pmf(0) > 0 is required
    head = min(len(values), _TABLE_SPLIT)
    keep = (values[:head] != 0) & (values[:head] != j) & (probs[:head] > 0.0)
    other_values = values[:head][keep]
    other_probs = probs[:head][keep]
    tail_q = float(max(0.0, 1.0 - cdf[head - 1]))
    other_mass = math.fsum(other_probs)
    rest = other_mass + tail_q
    split_values = np.concatenate(([0, j], other_values)).astype(np.int64)
    other_probs = other_probs / other_mass if other_mass else other_probs
    for arr in (split_values, other_probs):
        arr.setflags(write=False)
    return DegreeSplit(j=j, r=pj / (p0 + pj), rest=rest, values=split_values, other_probs=other_probs,
                       tail_q=tail_q)


def _finish_model(family, gamma, kappa, sigma2, values, probs, tail_prob) -> OffspringModel:
    values = np.ascontiguousarray(values, dtype=np.int64)
    probs = np.ascontiguousarray(probs, dtype=float)
    cdf = np.cumsum(probs)
    if tail_prob == 0.0:
        cdf[-1] = 1.0
    for arr in (values, probs, cdf):
        arr.setflags(write=False)
    return OffspringModel(
        family=family,
        gamma=float(gamma),
        kappa=float(kappa),
        span=_span_of(values, probs),
        sigma2=sigma2,
        table_values=values,
        table_probs=probs,
        table_cdf=cdf,
        tail_prob=float(tail_prob),
        split=_degree_split(values, probs, cdf),
        reachable=_reachability(values, probs),
    )


def make_stable_family(gamma: float, c: float) -> OffspringModel:
    """Offspring law with generating function s + c(1-s)^gamma.

    Critical by construction with b_n = n^(1/gamma) and kappa = c.  Requires
    gamma in (1, 2] and 0 < c <= 1/gamma (so that pmf(1) = 1 - c*gamma >= 0).
    """
    gamma = float(gamma)
    c = float(c)
    if not (1.0 < gamma <= 2.0):
        raise OffspringError(f"stability index gamma={gamma} outside (1, 2]")
    if not (0.0 < c <= 1.0 / gamma + 1e-15):
        raise OffspringError(f"constant c={c} outside (0, 1/gamma]")
    if gamma == 2.0:
        values = np.array([0, 1, 2])
        probs = np.array([c, max(0.0, 1.0 - 2.0 * c), c])
        sigma2 = 2.0 * c
        return _finish_model(STABLE_POWER, gamma, c, sigma2, values, probs, 0.0)
    k_tail = (c / (math.exp(_log_abs_gamma_1m(gamma)) * _TABLE_TAIL)) ** (1.0 / gamma)
    trunc_k = int(min(_TABLE_CAP, max(1024, 1.2 * k_tail)))
    values = np.arange(trunc_k)
    probs = _stable_pmf(c, gamma, trunc_k)
    tail = _stable_survival(c, gamma, trunc_k - 1)
    model = _finish_model(STABLE_POWER, gamma, c, math.inf, values, probs, tail)
    drift = abs(model.total_mass() - 1.0)
    if drift > CRITICALITY_TOL * 100:
        raise OffspringError(f"stable pmf mass off by {drift:.3g}")
    return model


def make_finite_variance(pmf: dict) -> OffspringModel:
    """Model from an explicit critical pmf with finite positive variance.

    Mass and mean drift up to 1e-9 (e.g. from truncating an infinite support)
    is absorbed exactly into pmf(0) and pmf(1) rather than rejected.
    """
    items = sorted((int(k), float(p)) for k, p in pmf.items() if p != 0.0)
    if any(k < 0 or p < 0.0 for k, p in items):
        raise OffspringError("pmf entries must be nonnegative with integer support")
    probs = dict(items)
    if probs.get(0, 0.0) <= 0.0:
        raise OffspringError("degenerate offspring law: pmf(0) must be positive")
    mass = math.fsum(probs.values())
    mean = math.fsum(k * p for k, p in probs.items())
    if abs(mass - 1.0) > _INPUT_TOL:
        raise OffspringError(f"pmf mass {mass} not within {_INPUT_TOL} of 1")
    if abs(mean - 1.0) > _INPUT_TOL:
        raise OffspringError(f"offspring law not critical: mean {mean}")
    # exact renormalization: shift the drift into pmf(1) (mean) and pmf(0) (mass)
    probs[1] = probs.get(1, 0.0) - (mean - 1.0)
    probs[0] = probs.get(0, 0.0) - (mass - 1.0) + (mean - 1.0)
    if probs[0] <= 0.0 or probs[1] < 0.0:
        raise OffspringError("renormalization drove a pmf entry negative")
    if probs[1] == 0.0:
        del probs[1]
    values = np.array(sorted(probs))
    p = np.array([probs[v] for v in values])
    second = math.fsum((k * k) * probs[k] for k in probs)
    sigma2 = second - 1.0
    if sigma2 <= 0.0:
        raise OffspringError("offspring variance must be positive")
    return _finish_model(FINITE_VARIANCE, 2.0, 0.5, sigma2, values, p, 0.0)


def catalan_model() -> OffspringModel:
    """Uniform full binary trees: pmf {0: 1/2, 2: 1/2}, sigma^2 = 1, b_n = sqrt(n)."""
    return make_finite_variance({0: 0.5, 2: 0.5})


def geometric_model() -> OffspringModel:
    """Critical geometric law pmf(k) = 2^(-k-1); sigma^2 = 2, b_n = sqrt(2n)."""
    return make_finite_variance({k: 2.0 ** (-k - 1) for k in range(65)})


# ---------------------------------------------------------------------------
# normalization and support
# ---------------------------------------------------------------------------


def normalizer(model: OffspringModel, n: int) -> float:
    """The sequence b_n: n^(1/gamma) for stable-power, sigma*sqrt(n) otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if model.family == STABLE_POWER:
        return float(n) ** (1.0 / model.gamma)
    return math.sqrt(model.sigma2 * n)


def support_contains(model: OffspringModel, n: int) -> bool:
    """Whether a conditioned tree of exactly n vertices exists (P(|tau|=n) > 0).

    n-1 must be hit by the span congruence and, below the tabulated bound, by
    an exact reachability check over sums of positive support values (at most
    n summands are available, which is never binding since every summand is
    >= 1 and the target is n-1).
    """
    if n < 1:
        return False
    if n == 1:
        return True
    m = n - 1
    if m % model.span:
        return False
    if m < _REACH_LIMIT:
        return bool(model.reachable[m])
    return True


def snap_to_support(model: OffspringModel, n: int) -> int:
    """Smallest supported size >= n (identity when n is already supported)."""
    k = n
    while not support_contains(model, k):
        k += 1
        if k > n + 10 * model.span + _REACH_LIMIT:
            raise OffspringError(f"no supported size near {n}")
    return k
