"""Monte Carlo experiment drivers with reproducible seeding.

Replicate j of an experiment draws from a stream keyed by
(master_seed, j) only, so reports are bit-identical for any worker count.
Reductions iterate replicates in index order.

With workers > 1, replicates run on a process pool that starts on the first
multi-worker call and is reused until the process exits or a call asks for
another worker count, which replaces it.  The workers are forked when the pool
starts, so they do not see module attributes changed after that (a
monkeypatch, for one).

CSV schema (one row per experiment/size/toll):
mode,family,gamma,kappa,n,R,alpha_prime,beta,estimate,stderr,theory,zscore,drops,seed,toll
Exit codes: 0 all checks pass, 2 some verdict failed, 3 invalid report.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import theory
# bench/tracing.py wraps these names here; psi_level_sweep and rescaled_theorem1_sum are only for it
from .continuum import (
    DEFAULT_LEVELS,
    level_decomposition,
    psi_level_sweep,  # noqa: F401
    sample_excursion,
    sweep_from_decomposition,
)
from .functionals import POWER, POWER_LOG, TollFunction, a_measure, rescaled_theorem1_sum  # noqa: F401
from .offspring import OffspringModel, normalizer, snap_to_support, support_contains
from .sampler import BudgetExhausted, sample_conditioned

log = logging.getLogger("bgwf")

CSV_COLUMNS = (
    "mode,family,gamma,kappa,n,R,alpha_prime,beta,estimate,stderr,theory,zscore,drops,seed,toll"
)

MODE_MOMENT = "moment"
MODE_PHASE = "phase-scan"
MODE_LLT = "llt"
MODE_HEIGHT = "height-moments"
MODE_TAIL = "tail"
MODE_CONTINUUM = "continuum"

VERDICT_DIVERGING = "diverging"
VERDICT_CONVERGING = "converging"
VERDICT_BOUNDARY = "boundary"

MAX_DROP_FRACTION = 0.01

# Phase-scan verdicts: a sequence diverges when every size step grows it by at
# least DIVERGE_FACTOR per decade, and converges when its top-decade ratio is
# within CONVERGE_BAND of 1.  Height moments use the same band for stability.
DIVERGE_FACTOR = 1.5
CONVERGE_BAND = 0.20

# Largest llt_cost(n) that run_llt accepts, about 10 s of transforms.  On a
# 2-core Intel Xeon the FFT path runs 0.42-0.56e9 of these multiply-adds per
# second: n = 10^6 + 1 (2.3e9) takes 4.5 s, n = 2^20 - 1 (3.4e9) 8.2 s and
# n = 1436927 (4.5e9, the costliest accepted) 8.8 s.  Every n <= 2^20 is
# accepted and every n > 2^21 + 2^14 refused, since the cost grows as
# n log^2 n.  That also bounds memory, which grows as nfft: the largest
# accepted transforms are 4.3e6 points, and n = 2^21 + 1 (4.2e6 points)
# peaks at 323 MB resident in 10.3 s.
LLT_MAX_COST = 4.5e9

# exact_walk_law multiplies laws on 0..top directly when top < FFT_MIN_LENGTH.
# On the same machine, per law of stable gamma = 1.5 with n = top + 1, the two
# cost the same within 5% from top = 128 to 511 (0.14-0.73 ms), so the direct
# product is kept there for its relative accuracy on every entry; above, FFT
# wins (0.91 against 1.26 ms at top = 600, 1.1 against 2.7 ms at 1024).
FFT_MIN_LENGTH = 512


@dataclass
class ExperimentConfig:
    """Shared configuration for all harness modes.

    Sizes are snapped upward to the nearest supported tree size at
    construction time, so the reported n may differ from the requested one
    (e.g. even sizes under a span-2 offspring law).  The sizes are then kept
    distinct and ascending, so sizes that snap onto one point run once.
    """

    mode: str
    model: OffspringModel | None = None
    sizes: list[int] = field(default_factory=list)
    replicates: int = 2
    tolls: list[TollFunction] = field(default_factory=list)
    alpha_primes: list[float] = field(default_factory=list)
    beta: float = 0.0
    p_list: list[float] = field(default_factory=list)
    master_seed: int = 0
    workers: int = 1
    kappa: float = 0.5  # continuum mode without a discrete model
    m_grid: int = 10_000
    levels: int = DEFAULT_LEVELS
    max_attempts: int | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, not {self.workers}")
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if not self.sizes and self.mode in (MODE_MOMENT, MODE_PHASE, MODE_HEIGHT, MODE_TAIL):
            raise ValueError(f"{self.mode} needs at least one size in the size list n")
        if self.model is not None:
            snapped = [snap_to_support(self.model, n) for n in self.sizes]
            for want, got in zip(self.sizes, snapped):
                if want != got:
                    log.info("size %d not in the support; snapped to %d", want, got)
            self.sizes = snapped
        self.sizes = sorted(set(self.sizes))


@dataclass
class McRow:
    mode: str
    family: str
    gamma: float
    kappa: float
    n: int | None
    R: int
    alpha_prime: float | None
    beta: float | None
    estimate: float
    stderr: float | None
    theory: float | None
    zscore: float | None
    drops: int
    seed: int
    toll: str  # the toll's label; empty for llt, height-moments and tail rows

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in CSV_COLUMNS.split(",")}


@dataclass
class McReport:
    rows: list[McRow]
    checks: list[tuple[str, bool]] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def invalid(self) -> bool:
        return any(r.drops > MAX_DROP_FRACTION * r.R for r in self.rows if r.R)

    def exit_code(self) -> int:
        if self.invalid:
            return 3
        if any(not ok for _, ok in self.checks):
            return 2
        return 0

    def to_csv(self) -> str:
        return CSV_COLUMNS + "\n" + "".join(
            ",".join(_fmt(v) for v in r.as_dict().values()) + "\n" for r in self.rows)

    def to_json(self) -> str:
        return json.dumps([r.as_dict() for r in self.rows], indent=1)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """Stream for one replicate; depends only on (master_seed, replicate)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,)))


# (workers, ProcessPoolExecutor) of the last multi-worker call, kept for the
# next one.  On a 2-vCPU Xeon a 50-task map on 2 workers takes 15-16 ms with a
# pool started and joined for it, and 2.5-2.9 ms on a kept pool.
_pool = None


def _drop_pool() -> None:
    """Shut the kept pool down, if there is one; the next multi-worker call starts another."""
    global _pool
    if _pool is not None:
        import atexit

        pool, _pool = _pool[1], None
        atexit.unregister(pool.shutdown)
        pool.shutdown()


def _map_ordered(fn, count: int, workers: int) -> list:
    global _pool
    if workers <= 1:
        return [fn(j) for j in range(count)]
    # imported here: both load multiprocessing, which import bgwf and serial runs skip
    import atexit
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if _pool is None or _pool[0] != workers:
        _drop_pool()  # before the fork, so no thread of the old pool is alive in the new workers
        _pool = workers, ProcessPoolExecutor(max_workers=workers)
        # without it, the pool is collected at interpreter teardown and its
        # weakref callback prints an AttributeError on stderr
        atexit.register(_pool[1].shutdown)
    chunk = max(1, count // (workers * 8))
    try:
        return list(_pool[1].map(fn, range(count), chunksize=chunk))
    except BrokenProcessPool:  # a worker died; a task's own exception leaves the pool usable
        _drop_pool()
        raise


def _mean_stderr(values: np.ndarray) -> tuple[float, float | None]:
    if not len(values):
        return math.nan, None
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


# ---------------------------------------------------------------------------
# replicate workers (module level so process pools can pickle them)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TreeTask:
    model: OffspringModel
    n: int
    master_seed: int
    tolls: tuple
    max_attempts: int | None

    def __call__(self, j: int):
        rng = replicate_rng(self.master_seed, j)
        try:
            tree = sample_conditioned(self.model, self.n, rng, self.max_attempts)
        except BudgetExhausted:
            return None
        b_over_n = normalizer(self.model, self.n) / self.n
        return [a_measure(tree, self.model, toll) for toll in self.tolls], b_over_n * tree.height


@dataclass(frozen=True)
class _ExcursionTask:
    kappa: float
    m_grid: int
    levels: int
    master_seed: int
    tolls: tuple

    def __call__(self, j: int):
        rng = replicate_rng(self.master_seed, j)
        exc = sample_excursion(self.m_grid, rng)
        # c * exc codes the tree of mechanism kappa*l^2: its heights and dr scale by c
        c = math.sqrt(2.0 / self.kappa)
        dur, height, _, dr = level_decomposition(exc, self.levels)
        height *= c
        return [sweep_from_decomposition(dur, height, c * dr, toll) for toll in self.tolls]


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _tree_ensemble(config: ExperimentConfig, n: int, tolls) -> tuple[np.ndarray, np.ndarray, int]:
    """R conditioned trees of size n: toll values, rescaled heights and drops.

    values has one row per kept tree and one column per toll, so it keeps two
    axes when every tree was dropped; heights has one entry per kept tree.
    """
    task = _TreeTask(config.model, n, config.master_seed, tuple(tolls), config.max_attempts)
    kept = [r for r in _map_ordered(task, config.replicates, config.workers) if r is not None]
    values = np.array([r[0] for r in kept]).reshape(len(kept), len(tolls))
    heights = np.array([r[1] for r in kept])
    return values, heights, config.replicates - len(kept)


def _row(mode, config, n, alpha_prime, beta, est, se, theory_value, drops, toll="") -> McRow:
    """Report row of one estimate, with its z-score against theory_value; toll is the toll's label."""
    if mode == MODE_CONTINUUM:  # the simulated law is the Brownian one, whatever the model
        law = ("brownian", 2.0, config.model.kappa if config.model is not None else config.kappa)
    else:
        law = (config.model.family, config.model.gamma, config.model.kappa)
    z = (est - theory_value) / se if (theory_value is not None and se) else None
    return McRow(mode, *law, n, config.replicates, alpha_prime, beta, est, se, theory_value, z,
                 drops, config.master_seed, toll)


def _toll_theory(model: OffspringModel, toll: TollFunction, height_moments: dict) -> float | None:
    """Theory value of toll: closed form, except that gamma < 2 and beta != 0
    take E[H^beta] from height_moments (simulation-calibrated).

    None when the moment is infinite, and when E[H^beta] is needed and has no
    estimate.
    """
    gamma, kappa, alpha, beta = model.gamma, model.kappa, toll.alpha, toll.beta
    try:
        if toll.kind == POWER_LOG:
            return theory.power_log_moment(gamma, kappa, alpha)
        if gamma == 2.0:
            return theory.brownian_moment(kappa, alpha, beta)
        if beta == 0.0:
            return theory.stable_moment(gamma, kappa, alpha, beta, 1.0)  # E[H^0] = 1
        hm = height_moments.get(beta)
        if hm is None:
            return None
        value = theory.stable_moment(gamma, kappa, alpha, beta, hm)
    except theory.InfiniteMomentError:
        return None
    log.info("theory value for %s is simulation-calibrated (E[H^%g] estimated)", toll.label, beta)
    return value


def run_moment(config: ExperimentConfig) -> McReport:
    """Mean of the rescaled sums over R trees per size, against theory values."""
    t0 = time.time()
    model = config.model
    tolls = list(config.tolls)
    # a power-log toll |log x| x^alpha reads alpha' = alpha + 1 and beta = 0,
    # the power toll of the same finiteness
    for toll in tolls:
        margin = theory.phase_margin(model.gamma, toll.alpha + 1.0, toll.beta)
        if not margin > 0.0:
            log.warning("toll %s is outside the global regime (margin %g); the sum diverges",
                        toll.label, margin)
    per_n = {n: _tree_ensemble(config, n, tolls) for n in config.sizes}

    # E[H^beta] estimates from the largest size, for gamma < 2 theory values
    hmax = per_n[max(config.sizes)][1]
    height_moments = {t.beta: float(np.mean(hmax**t.beta)) for t in tolls if t.beta != 0.0 and len(hmax)}

    rows = []
    for n in config.sizes:
        vals, _, drops = per_n[n]
        for i, toll in enumerate(tolls):
            rows.append(_row(MODE_MOMENT, config, n, toll.alpha + 1.0, toll.beta, *_mean_stderr(vals[:, i]),
                             _toll_theory(model, toll, height_moments), drops, toll.label))
    return McReport(rows, wall_time=time.time() - t0)


def run_phase_scan(config: ExperimentConfig) -> McReport:
    """Growth-based convergence verdict per alpha', against the phase predicate.

    Diverging: every consecutive size step grows by >= DIVERGE_FACTOR per
    decade.  Converging: top-decade means within CONVERGE_BAND.  Otherwise
    boundary.  A toll matches when the verdict agrees with the predicted
    regime (global -> converging, non-global -> diverging).  A scan with a
    size that kept no tree has no verdict (None), and no toll matches.
    Fewer than two distinct sizes raise ValueError.
    """
    t0 = time.time()
    model = config.model
    sizes = config.sizes
    if len(sizes) < 2:
        raise ValueError(f"phase scan needs at least two distinct sizes; got {sizes}")
    if len(sizes) < 3 or sizes[-1] < 10 * sizes[0]:
        log.warning("phase scan wants >= 3 sizes spanning a decade; got %s", sizes)
    tolls = [TollFunction.power(a - 1.0, config.beta) for a in config.alpha_primes]
    per_n = {n: _tree_ensemble(config, n, tolls) for n in sizes}
    means = {(n, i): _mean_stderr(per_n[n][0][:, i]) for n in sizes for i in range(len(tolls))}

    rows = []
    verdicts = {}
    checks = []
    empty = [n for n in sizes if not len(per_n[n][0])]
    for i, aprime in enumerate(config.alpha_primes):
        seq = [means[(n, i)][0] for n in sizes]
        factors = []
        for (n1, m1), (n2, m2) in zip(zip(sizes, seq), zip(sizes[1:], seq[1:])):
            decades = math.log10(n2 / n1)
            factors.append((m2 / m1) ** (1.0 / decades) if m1 > 0 else math.inf)
        top_ratio = seq[-1] / seq[-2] if seq[-2] else math.inf
        if empty:
            verdict = None
        elif all(f >= DIVERGE_FACTOR for f in factors):
            verdict = VERDICT_DIVERGING
        elif abs(top_ratio - 1.0) <= CONVERGE_BAND:
            verdict = VERDICT_CONVERGING
        else:
            verdict = VERDICT_BOUNDARY
        margin = theory.phase_margin(model.gamma, aprime, config.beta)
        want = VERDICT_CONVERGING if margin > 0.0 else VERDICT_DIVERGING
        verdicts[aprime] = {
            "verdict": verdict,
            "predicted_regime": theory.GLOBAL if margin > 0.0 else theory.NON_GLOBAL,
            "margin": margin,
            "growth_factors_per_decade": factors,
            "match": verdict == want,
            "empty_sizes": empty,
        }
        checks.append((f"phase alpha'={aprime:g}", verdict == want))
        for n in sizes:
            rows.append(_row(MODE_PHASE, config, n, aprime, config.beta, *means[(n, i)], None,
                             per_n[n][2], tolls[i].label))
    return McReport(rows, checks=checks, extras={"verdicts": verdicts}, wall_time=time.time() - t0)


def _fft_length(top: int) -> int:
    """Smallest 2^a 3^b 5^c >= 2 (top + 1) - 1.

    Products of two laws on 0..top then do not wrap around.  numpy's
    pocketfft transforms such lengths about as fast per point as powers of
    two, which can be twice as long: for the Catalan law at n = 40001, 81000
    points take 0.10 s where 131072 take 0.18 s, with less memory.
    """
    need = 2 * top + 1
    best = 1 << (need - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-need // p35) - 1).bit_length())  # least p35 2^a >= need
            p35 *= 3
        p5 *= 5
    return best


def llt_cost(n: int) -> int:
    """Multiply-adds spent by exact_walk_point_probability(model, n, n - 1).

    Binary powering makes bit_length(n) - 1 squarings and popcount(n) - 1
    products.  Below FFT_MIN_LENGTH each is a direct convolution of two
    length-n arrays, n^2.  Above, each costs two transforms of nfft points,
    nfft ceil(log2(nfft)) apiece: one inverse, and one forward of base
    (squaring) or of the partial result (product), since a level's squaring
    and product share the spectrum of base.  The top level has no squaring,
    so it needs one more forward transform when it has a product.
    """
    squarings, products = n.bit_length() - 1, n.bit_count() - 1
    if n - 1 < FFT_MIN_LENGTH:
        return (squarings + products) * n * n
    nfft = _fft_length(n - 1)
    return (2 * (squarings + products) + (products > 0)) * nfft * (nfft - 1).bit_length()


def exact_walk_law(model: OffspringModel, n: int, top: int) -> np.ndarray:
    """P(S_n = t) for t = 0..top by binary powering of the pmf.

    Values above top cannot contribute (all summands are >= 0), so every
    product is truncated at top+1 and the result is exact up to float
    rounding.  For top < FFT_MIN_LENGTH the products are direct convolutions,
    O(top^2 log n) in all, and every entry keeps its relative accuracy (the
    small-n oracles read tails of 1e-44).  Longer laws are multiplied by real
    FFTs of _fft_length(top) points, O(top log top log n) in all.  Rounding
    then leaves an absolute error on each entry, whatever its size, which
    grows slowly with top: against binomial probabilities, the Catalan law
    is off by at most 3e-15 at top = 10^4, 7e-15 at 4x10^4 and 3e-14 at
    2x10^5.  The negative entries it leaves are clipped to 0.
    """
    base = np.asarray(model.pmf(np.arange(top + 1)), dtype=float)
    if top < FFT_MIN_LENGTH:
        def spectrum(a):
            return a

        def multiply(fa, fb):
            return np.convolve(fa, fb)[: top + 1]
    else:
        nfft = _fft_length(top)

        def spectrum(a):
            return np.fft.rfft(a, nfft)

        def multiply(fa, fb):
            return np.maximum(np.fft.irfft(fa * fb, nfft)[: top + 1], 0.0)
    result = None
    e = n
    while e:
        if e > 1 or result is not None:
            fb = spectrum(base)  # shared by this level's product and squaring
        if e & 1:
            result = base.copy() if result is None else multiply(spectrum(result), fb)
        e >>= 1
        if e:
            base = multiply(fb, fb)
    return result


def exact_walk_point_probability(model: OffspringModel, n: int, target: int) -> float:
    """P(S_n = target) by exact_walk_law, O(n log^2 n) for target = n - 1 >= FFT_MIN_LENGTH."""
    if target < 0:
        return 0.0
    return float(exact_walk_law(model, n, target)[target])


def run_llt(model: OffspringModel, n_list: list[int], master_seed: int = 0) -> McReport:
    """Exact local-limit check: b_n P(S_n = n-1) / span against g(0).

    Sizes are taken as given (no support snapping): a size outside the
    support (offspring.support_contains), such as a span obstruction, reads
    an exact zero without any convolution.  For n <= 9 the Otter-Dwass identity
    n P(|tau| = n) = P(S_n = n-1) is verified against tree enumeration.
    """
    t0 = time.time()
    for n in n_list:
        if llt_cost(n) > LLT_MAX_COST:
            raise ValueError(
                f"exact convolution for n={n} needs about {llt_cost(n):.1e} multiply-adds "
                f"(O(n log^2 n)); the limit is {LLT_MAX_COST:.1e}")
    rows = []
    checks = []
    limit = theory.g0(model.gamma, model.kappa)
    for n in n_list:
        p = exact_walk_point_probability(model, n, n - 1) if support_contains(model, n) else 0.0
        scaled = normalizer(model, n) * p / model.span
        rows.append(
            McRow(MODE_LLT, model.family, model.gamma, model.kappa, n, 0, None, None,
                  scaled, 0.0, limit, None, 0, master_seed, "")
        )
        if n <= 9:
            p_tree = _enumerated_tree_probability(model, n)
            ok = abs(n * p_tree - p) <= 1e-12
            checks.append((f"otter-dwass n={n}", ok))
    return McReport(rows, checks=checks, wall_time=time.time() - t0)


def _enumerated_tree_probability(model: OffspringModel, n: int) -> float:
    """P(|tau| = n) by explicit enumeration of all ordered trees of size n."""
    total = 0.0
    for seq in iter_degree_sequences(n):
        total += float(np.prod(model.pmf(np.array(seq))))
    return total


def iter_degree_sequences(n: int):
    """All depth-first degree sequences of ordered trees with n vertices."""
    seq = [0] * n

    def rec(pos: int, remaining: int, open_slots: int):
        if remaining == 0:
            if open_slots == 0:
                yield tuple(seq)
            return
        if open_slots == 0 or open_slots > remaining:
            return
        for d in range(remaining):
            seq[pos] = d
            yield from rec(pos + 1, remaining - 1, open_slots - 1 + d)

    yield from rec(0, n, 1)


def run_height_moments(config: ExperimentConfig) -> McReport:
    """Empirical p-th moments of (b_n/n) H(tree) across sizes.

    Rows use the beta column for p.  A moment is flagged (check fails) if it
    grows by more than CONVERGE_BAND across the top decade of sizes, which
    would contradict the uniform-boundedness of these moments.
    """
    t0 = time.time()
    model = config.model
    per_n = {n: _tree_ensemble(config, n, ()) for n in config.sizes}

    rows = []
    checks = []
    sizes = config.sizes
    for p in config.p_list:
        th = theory.brownian_height_moment(model.kappa, p) if model.gamma == 2.0 else None
        ests = []
        for n in sizes:
            _, heights, drops = per_n[n]
            est, se = _mean_stderr(heights ** p)
            ests.append(est)
            rows.append(_row(MODE_HEIGHT, config, n, None, p, est, se, th, drops))
        if len(sizes) >= 2:
            growth = ests[-1] / ests[-2]
            checks.append((f"height moment p={p:g} stable", growth <= 1.0 + CONVERGE_BAND))
    return McReport(rows, checks=checks, wall_time=time.time() - t0)


def _tail_exponent_fit(ys: np.ndarray, neg_log_prob: np.ndarray, sign: int) -> float:
    """Exponent a minimizing the residual of -log(prob) ~ c*y^(sign*a) + b.

    A plain log(-log) regression is contaminated by the polynomial prefactor
    of the tail law.  The free intercept b absorbs a constant factor in the
    probability, not a polynomial one, so a bias remains.  On the exact
    quantiles of Kennedy's law for the Brownian height, over tail
    probabilities [0.002, 0.05], the lower exponent 2 comes out as 3.15 by
    log(-log) regression and as 2.43 from this fit.
    """
    best_a, best_ssr = None, math.inf
    for a in np.arange(0.3, 6.001, 0.01):
        design = np.vstack([ys ** (sign * a), np.ones_like(ys)]).T
        coef, res, *_ = np.linalg.lstsq(design, neg_log_prob, rcond=None)
        ssr = float(res[0]) if len(res) else float(((design @ coef - neg_log_prob) ** 2).sum())
        if coef[0] <= 0.0:
            continue  # the decay term must carry positive weight
        if ssr < best_ssr:
            best_a, best_ssr = float(a), ssr
    return best_a


def _tail_fit(y: np.ndarray, lo_q: float, hi_q: float, survival: bool) -> float | None:
    """Tail exponent of the sample y over tail probabilities in [lo_q, hi_q].

    The empirical CDF P(Y <= v) (lower tail) or survival function P(Y >= v)
    (upper tail) is fitted at the distinct observed values v.  Pairing exact
    levels q with empirical quantiles instead misplaces every point of a
    lattice law, such as a rescaled integer height: all levels inside one tie
    run share a height while P(Y <= v) takes a single value.
    """
    if lo_q >= hi_q:
        log.warning("tail window [%g, %g] is empty at R=%d; no verdict", lo_q, hi_q, len(y))
        return None
    v, counts = np.unique(y, return_counts=True)
    tail = np.cumsum(counts[::-1])[::-1] if survival else np.cumsum(counts)
    prob = tail / len(y)
    keep = (prob >= lo_q) & (prob <= hi_q)
    if keep.sum() < 4:
        log.warning("tail window degenerate (%d distinct heights); no verdict", keep.sum())
        return None
    return _tail_exponent_fit(v[keep], -np.log(prob[keep]), sign=1 if survival else -1)


def run_tail_profile(config: ExperimentConfig) -> McReport:
    """Tail-exponent fits for (b_n/n) H at the largest configured size.

    Lower tail: -log P(height <= y) behaves like c y^(-a) with
    a = gamma/(gamma-1); upper tail like c y^b with b up to gamma.  Pass
    requires the lower fit within +-25% of its target (two-sided for the
    upper fit only when gamma = 2, where b = 2 is attained).
    """
    t0 = time.time()
    model = config.model
    n = max(config.sizes)
    _, y, drops = _tree_ensemble(config, n, ())
    R = len(y)
    checks = []
    extras = {}

    alpha_target = model.gamma / (model.gamma - 1.0)
    lo_q = max(0.002, 8 / max(R, 1))  # at least 8 samples beyond the window
    alpha_hat = _tail_fit(y, lo_q, 0.05, survival=False)
    beta_hat = _tail_fit(y, lo_q, 0.05, survival=True)
    rows = [_row(MODE_TAIL, config, n, None, None, math.nan if fit is None else fit, None, target, drops)
            for fit, target in ((alpha_hat, alpha_target), (beta_hat, model.gamma))]
    if alpha_hat is not None:
        checks.append(("lower tail exponent", abs(alpha_hat - alpha_target) <= 0.25 * alpha_target))
    if beta_hat is not None:
        if model.gamma == 2.0:
            checks.append(("upper tail exponent", abs(beta_hat - model.gamma) <= 0.25 * model.gamma))
        else:
            checks.append(("upper tail exponent", beta_hat <= 1.25 * model.gamma))
    extras["fits"] = {"lower_exponent": alpha_hat, "lower_target": alpha_target,
                      "upper_exponent": beta_hat, "upper_target": model.gamma}
    return McReport(rows, checks=checks, extras=extras, wall_time=time.time() - t0)


def run_continuum(config: ExperimentConfig) -> McReport:
    """Mean of the level-sweep functional over Brownian excursions vs theory.

    Only the Brownian mechanism kappa*lambda^2 is simulated; general
    gamma < 2 continuum trees are approximated by large discrete trees
    through run_moment instead.  Power-log rows carry no theory value: their
    estimate sits far below power_log_moment, a bias not yet studied
    (ROADMAP.md, direction E).
    """
    t0 = time.time()
    if config.model is not None and config.model.gamma != 2.0:
        raise ValueError("continuum simulation supports gamma = 2 only")
    kappa = config.model.kappa if config.model is not None else config.kappa
    theory.g0(2.0, kappa)  # refuses kappa that is not finite and positive
    tolls = list(config.tolls)
    # bad requests raise here, before any excursion is drawn
    limits = [theory.brownian_moment(kappa, toll.alpha, toll.beta) if toll.kind == POWER else None
              for toll in tolls]
    task = _ExcursionTask(kappa, config.m_grid, config.levels, config.master_seed, tuple(tolls))
    results = _map_ordered(task, config.replicates, config.workers)
    vals = np.array(results)
    rows = [_row(MODE_CONTINUUM, config, None, toll.alpha + 1.0, toll.beta, *_mean_stderr(vals[:, i]),
                 limits[i], 0, toll.label) for i, toll in enumerate(tolls)]
    return McReport(rows, wall_time=time.time() - t0)


# ---------------------------------------------------------------------------
# quick self test (golden values)
# ---------------------------------------------------------------------------


def run_selftest() -> tuple[bool, list[str]]:
    """Fast golden-value suite; returns (all passed, report lines)."""
    from .offspring import catalan_model, geometric_model, make_stable_family
    from .sampler import _annotate_loop, build_and_annotate, cycle_rotate, sample_degree_sequence

    lines = []
    ok_all = True

    def check(name, got, want, tol=1e-9):
        nonlocal ok_all
        ok = abs(got - want) <= tol * max(1.0, abs(want))
        ok_all &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: got {got:.10g}, want {want:.10g}")

    check("xi(2) = pi/6", theory.riemann_xi(2.0), math.pi / 6.0)
    check("xi(1)", theory.riemann_xi(1.0), 0.5)
    check("g(0) catalan", theory.g0(2.0, 0.5), 1.0 / math.sqrt(2.0 * math.pi))
    check("brownian moment (0,0)", theory.brownian_moment(0.5, 0.0, 0.0), math.sqrt(math.pi / 2.0))
    check("brownian moment (1,0)", theory.brownian_moment(0.5, 1.0, 0.0), 0.6266570686577501)
    check("power-log moment gamma=2 alpha=0", theory.power_log_moment(2.0, 0.5, 0.0),
          theory.g0(2.0, 0.5) * 2.0 * math.pi * math.log(2.0))
    cat = catalan_model()
    check("catalan b_9", normalizer(cat, 9), 3.0)
    check("geometric sigma^2", geometric_model().sigma2, 2.0)
    check("stable pmf(2)", float(make_stable_family(1.5, 0.5).pmf(2)), 0.1875)
    cherry = build_and_annotate(np.array([2, 0, 0]))
    check("cherry a-measure", a_measure(cherry, cat, TollFunction.power(0, 0)), math.sqrt(3.0) / 3.0)
    degrees = sample_degree_sequence(make_stable_family(1.2, 0.5), 2001, replicate_rng(1, 0))
    r = cycle_rotate(degrees)
    degrees = np.concatenate((degrees[r:], degrees[:r]))
    tree = build_and_annotate(degrees)
    rows = (tree.parent, tree.subtree_size, tree.subtree_height, tree.depth)
    check("numpy annotation = loop, stable 1.2 n=2001 (mismatches)",
          np.count_nonzero(np.array(rows) != np.array(_annotate_loop(degrees.tolist()))), 0)
    p = exact_walk_point_probability(cat, 101, 100)
    check("llt catalan n=101", math.sqrt(101) * p / 2, 0.3960100764148143, tol=1e-9)
    return ok_all, lines
