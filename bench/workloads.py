"""The four benchmark workloads.

Each workload runs a fixed job per round through bgwf's public API, the way
the CLI's commands do, and checks the pooled outputs of its rounds against
the oracles in oracles.py or against properties the method must have.
Round k of a run with seed s uses the master seed s * 100000 + k, so a seed
fixes every input of the run.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from bgwf import continuum, harness, offspring, sampler
from bgwf.functionals import TollFunction
from scipy.stats import chisquare

import oracles
from tracing import CountingGenerator

# An attempt budget far above the program's default of ten times the
# expected count: with the default, about e^-10 of the trees at these sizes
# are dropped, which would make the failed share differ from seed to seed.
# The budget only decides when a tree is given up, so every tree that the
# default budget keeps comes out identical.
CATALAN_ATTEMPTS = 20_000   # about 160 times the expected 125 at n = 10001
STABLE_ATTEMPTS = 200_000   # about 170 times the expected 1175 at n = 10^4

Z_MAX = 4.0        # toll-1 z-score bound against the exact finite-n mean
LIMIT_BAND = 0.05  # relative band, plus 3 standard errors, around a limit
CHI2_P_MIN = 1e-6  # chi-square p-value below which a tiny-tree law is refused


@dataclass
class Job:
    """What one round did; `outputs` feed the checks and `fingerprint`
    compares a traced round with its untraced twin bit for bit."""

    operations: int
    replicates: int
    failed: int
    outputs: object
    fingerprint: tuple
    llt_seconds: float = 0.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)  # numpy comparisons give numpy booleans


def _hex(x) -> str:
    return "none" if x is None else float(x).hex()


def _rows_fingerprint(report) -> tuple:
    return tuple((r.n, _hex(r.alpha_prime), _hex(r.beta), _hex(r.estimate), _hex(r.stderr))
                 for r in report.rows)


def _failed(report) -> int:
    """Replicates dropped by the sampler's budget plus non-finite estimates."""
    drops = {r.n: r.drops for r in report.rows}
    bad = sum(1 for r in report.rows
              if not math.isfinite(r.estimate) or (r.stderr is not None and not math.isfinite(r.stderr)))
    return sum(drops.values()) + bad


def _pooled(rows_per_round: list[list]) -> list[tuple[float, float]]:
    """(mean, standard error) per row over rounds of equal size."""
    k = len(rows_per_round)
    out = []
    for rows in zip(*rows_per_round):
        mean = sum(r.estimate for r in rows) / k
        se = math.sqrt(sum(r.stderr ** 2 for r in rows)) / k
        out.append((mean, se))
    return out


def _limit_check(label: str, est: float, se: float, limit: float) -> Check:
    gap = abs(est - limit)
    allowed = LIMIT_BAND * abs(limit) + 3.0 * se
    return Check(f"toll {label} vs limit", gap <= allowed,
                 f"estimate {est:.5f} +- {se:.5f}, limit {limit:.5f}, "
                 f"gap {gap:.5f} <= {allowed:.5f}")


class Workload:
    name = ""
    workers = 1
    model_specs = ()  # (offspring function, args) built during set-up

    def build(self) -> None:
        self.models = {fn: getattr(offspring, fn)(*args) for fn, args in self.model_specs}

    def job(self, master_seed: int, workers: int, tracer=None) -> Job:
        raise NotImplementedError

    def checks(self, jobs: list[Job], master_seeds: list[int]) -> list[Check]:
        raise NotImplementedError

    def attempt_case(self) -> tuple | None:
        """(model, tree size, predicted attempts per tree) for the attempt counter."""
        return None

    def llt_madds(self) -> int:
        """Multiply-adds of the exact LLT evaluations of one round."""
        return 0


class CatalanN10k(Workload):
    name = "catalan-n10k"
    model_specs = (("catalan_model", ()),)
    N = 10_000  # the harness snaps it to 10001, the next size a binary tree has
    R = 100
    TOLLS = (("1", 0.0, 0.0), ("u", 0.0, 1.0), ("x", 1.0, 0.0), ("x^0.5", 0.5, 0.0))

    def _tolls(self):
        return ([TollFunction.power(a, b) for _, a, b in self.TOLLS]
                + [TollFunction.power_log(0.5)])

    def job(self, master_seed, workers, tracer=None):
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_MOMENT, model=self.models["catalan_model"], sizes=[self.N],
            replicates=self.R, tolls=self._tolls(), master_seed=master_seed, workers=workers,
            max_attempts=CATALAN_ATTEMPTS)
        report = harness.run_moment(cfg)
        return Job(self.R, self.R, _failed(report), report.rows, _rows_fingerprint(report))

    def checks(self, jobs, master_seeds):
        out = []
        worst = max(abs(oracles.catalan_toll1_exact(n) / oracles.catalan_toll1_enumerated(n) - 1.0)
                    for n in (3, 5, 7, 9, 11))
        out.append(Check("exact toll-1 mean vs enumeration, n <= 11", worst <= 1e-14,
                         f"largest relative gap {worst:.1e}"))
        pooled = _pooled([j.outputs for j in jobs])
        n = jobs[0].outputs[0].n
        exact = oracles.catalan_toll1_exact(n)
        est, se = pooled[0]
        z = (est - exact) / se
        out.append(Check(f"toll 1 vs exact mean at n={n}", abs(z) <= Z_MAX,
                         f"estimate {est:.5f} +- {se:.5f}, exact {exact:.6f}, z {z:+.2f}"))
        for (label, a, b), (est, se) in zip(self.TOLLS[1:], pooled[1:4]):
            out.append(_limit_check(label, est, se, oracles.brownian_power_limit(0.5, a, b)))
        est, se = pooled[4]
        out.append(_limit_check("|log x|x^0.5", est, se, oracles.brownian_powerlog_limit(0.5, 0.5)))
        return out

    def attempt_case(self):
        n = self.N + 1
        return (self.models["catalan_model"], n,
                oracles.predicted_attempts(oracles.catalan_bn(n), 2, 2.0, 0.5))


class ExcursionM10k(Workload):
    name = "excursion-m10k"
    workers = 2
    M = 10_000
    LEVELS = 1024
    KAPPA = 0.5
    R = 50
    TOLLS = (("1", 0.0, 0.0), ("u", 0.0, 1.0), ("x", 1.0, 0.0))
    AREA_REPLICATES = 3
    AREA_TOL = 1e-4

    def job(self, master_seed, workers, tracer=None):
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_CONTINUUM, replicates=self.R, kappa=self.KAPPA, m_grid=self.M,
            levels=self.LEVELS, tolls=[TollFunction.power(a, b) for _, a, b in self.TOLLS],
            master_seed=master_seed, workers=workers)
        report = harness.run_continuum(cfg)
        return Job(self.R, self.R, _failed(report), report.rows, _rows_fingerprint(report))

    def checks(self, jobs, master_seeds):
        out = []
        for (label, a, b), (est, se) in zip(self.TOLLS, _pooled([j.outputs for j in jobs])):
            out.append(_limit_check(label, est, se, oracles.brownian_power_limit(self.KAPPA, a, b)))
        # The toll-1 sweep integrates the superlevel measure over all levels,
        # which is the area under the linearly interpolated path.
        one = TollFunction.power(0.0, 0.0)
        worst = 0.0
        for j in range(self.AREA_REPLICATES):
            exc = continuum.sample_excursion(self.M, harness.replicate_rng(master_seeds[0], j))
            sweep = continuum.psi_level_sweep(exc, one, self.LEVELS)
            v = np.asarray(exc.values)
            area = float((v[:-1] + v[1:]).sum()) * exc.dt / 2.0
            worst = max(worst, abs(sweep - area))
        out.append(Check(f"toll-1 sweep vs trapezoid area, {self.AREA_REPLICATES} excursions",
                         worst <= self.AREA_TOL, f"largest gap {worst:.2e} <= {self.AREA_TOL:g}"))
        return out


class StableVerify(Workload):
    name = "stable-verify"
    model_specs = (("make_stable_family", (1.5, 0.5)),)
    GAMMA = 1.5
    C = 0.5
    SIZES = (100, 1_000, 10_000)
    R = 200
    LLT_SIZES = (10_000, 40_000)
    LLT_BAND = 0.05
    LLT_ORACLE_TOL = 1e-9

    ALPHA_PRIMES = (1.0 / GAMMA - 0.25, 1.0 / GAMMA + 0.25)

    def job(self, master_seed, workers, tracer=None):
        model = self.models["make_stable_family"]
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_PHASE, model=model, sizes=list(self.SIZES), replicates=self.R,
            alpha_primes=list(self.ALPHA_PRIMES), beta=0.0, master_seed=master_seed, workers=workers,
            max_attempts=STABLE_ATTEMPTS)
        phase = harness.run_phase_scan(cfg)
        t0 = perf_counter()
        llt = harness.run_llt(model, list(self.LLT_SIZES), master_seed=master_seed)
        llt_seconds = perf_counter() - t0
        verdicts = tuple((a, v["verdict"]) for a, v in phase.extras["verdicts"].items())
        replicates = self.R * len(self.SIZES)
        return Job(replicates + len(self.LLT_SIZES), replicates, _failed(phase) + _failed(llt),
                   (phase, llt), _rows_fingerprint(phase) + _rows_fingerprint(llt) + verdicts,
                   llt_seconds)

    def checks(self, jobs, master_seeds):
        out = []
        for k, job in enumerate(jobs):
            phase, _ = job.outputs
            for aprime, v in phase.extras["verdicts"].items():
                want = "converging" if oracles.phase_global(self.GAMMA, aprime, 0.0) else "diverging"
                out.append(Check(f"round {k} phase verdict alpha'={aprime:.4g}", v["verdict"] == want,
                                 f"verdict {v['verdict']}, predicted {want}, growth per decade "
                                 + ", ".join(f"{f:.3f}" for f in v["growth_factors_per_decade"])))
        g0 = oracles.g0(self.GAMMA, self.C)
        _, llt = jobs[0].outputs
        for row in llt.rows:
            rel = row.estimate / g0 - 1.0
            out.append(Check(f"llt n={row.n} vs g(0)", abs(rel) <= self.LLT_BAND,
                             f"scaled {row.estimate:.6f}, g(0) {g0:.6f}, rel {rel * 100:+.3f}%"))
        pmf = oracles.stable_pmf(self.GAMMA, self.C, 10)
        worst = 0.0
        for n in (3, 5, 7):
            p_trees = math.fsum(math.prod(pmf[d] for d in seq) for seq in oracles.ordered_trees(n))
            worst = max(worst, abs(oracles.walk_point_probability(pmf, n, n - 1) / (n * p_trees) - 1.0))
        out.append(Check("own convolution vs enumeration (Otter-Dwass), n <= 7", worst <= 1e-12,
                         f"largest relative gap {worst:.1e}"))
        n = self.LLT_SIZES[0]
        want = oracles.stable_bn(self.GAMMA, n) * oracles.walk_point_probability(
            oracles.stable_pmf(self.GAMMA, self.C, n - 1), n, n - 1)
        got = next(r.estimate for r in llt.rows if r.n == n)
        rel = got / want - 1.0
        out.append(Check(f"llt n={n} vs own convolution", abs(rel) <= self.LLT_ORACLE_TOL,
                         f"program {got:.12f}, oracle {want:.12f}, rel {rel:+.1e}"))
        return out

    def attempt_case(self):
        n = max(self.SIZES)
        return (self.models["make_stable_family"], n,
                oracles.predicted_attempts(oracles.stable_bn(self.GAMMA, n), 1, self.GAMMA, self.C))

    def llt_madds(self):
        return sum(oracles.convolution_madds(n) for n in self.LLT_SIZES)


class TinyExact(Workload):
    name = "tiny-exact"
    model_specs = (("catalan_model", ()), ("geometric_model", ()), ("make_stable_family", (1.5, 0.5)))
    SIZES = (3, 5, 7)
    R = 1000  # trees per case and round

    def __init__(self):
        stable = oracles.stable_pmf(1.5, 0.5, max(self.SIZES))
        self.pmfs = {"catalan_model": oracles.catalan_pmf, "geometric_model": oracles.geometric_pmf,
                     "make_stable_family": lambda k: float(stable[k])}

    def cases(self):
        return [(fn, n) for fn, _ in self.model_specs for n in self.SIZES]

    def job(self, master_seed, workers, tracer=None):
        rng = np.random.default_rng(master_seed)  # one generator for every case, as in criterion 5
        if tracer is not None:
            rng = CountingGenerator(rng, tracer)
        counts = {}
        for fn, n in self.cases():
            model = self.models[fn]
            c = Counter()
            for _ in range(self.R):
                c[tuple(sampler.sample_conditioned(model, n, rng).degree.tolist())] += 1
            counts[(fn, n)] = c
        ops = self.R * len(counts)
        fingerprint = tuple((case, tuple(sorted(c.items()))) for case, c in counts.items())
        return Job(ops, ops, 0, counts, fingerprint)

    def checks(self, jobs, master_seeds):
        out = []
        for fn, n in self.cases():
            counts = Counter()
            for j in jobs:
                counts.update(j.outputs[(fn, n)])
            total = sum(counts.values())
            law = oracles.tree_law(self.pmfs[fn], n)
            outside = set(counts) - set(law)
            name = f"{fn} n={n} vs exact law"
            if outside:
                out.append(Check(name, False, f"{len(outside)} sampled shapes outside the "
                                              f"{len(law)} of the law"))
                continue
            if len(law) == 1:
                out.append(Check(name, True, "1 shape, support check"))
                continue
            # shapes expected fewer than 5 times join the bin of the least likely other shape
            keys = sorted(law, key=law.get, reverse=True)
            obs, exp = [], []
            for k in keys:
                if law[k] * total >= 5.0 or not obs:
                    obs.append(counts[k])
                    exp.append(law[k] * total)
                else:
                    obs[-1] += counts[k]
                    exp[-1] += law[k] * total
            p = chisquare(obs, exp).pvalue if len(obs) > 1 else 1.0
            out.append(Check(name, p >= CHI2_P_MIN,
                             f"chi-square p = {p:.4f} over {len(law)} shapes in {len(obs)} bins, "
                             f"{total} trees"))
        return out

    def attempt_case(self):
        n = max(self.SIZES)
        return (self.models["make_stable_family"], n,
                oracles.predicted_attempts(oracles.stable_bn(1.5, n), 1, 1.5, 0.5))


WORKLOADS = {w.name: w for w in (CatalanN10k, ExcursionM10k, StableVerify, TinyExact)}
