"""Benchmark of bgwf's verification ensembles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: it imports bgwf from ./src.  Set-up
is timed in fresh interpreters.  Then the workload's fixed job runs in whole
rounds until S seconds have passed; round k uses master seed N * 100000 + k.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round twice,
untraced and then traced with spans around bgwf's public functions, checks
that both give the same estimates bit for bit, and prints the per-layer
metrics.  Either way the pooled outputs are checked against the oracles,
the check lines go to stdout, a record of the run goes to bench/results/,
and the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
MIN_COVERAGE = 0.5  # share of a traced round's wall time the spans must cover

# Run in a fresh interpreter: time `import bgwf` and the workload's models.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bgwf
from bgwf import offspring
t1 = time.perf_counter()
for fn, args in json.loads(sys.argv[2]):
    getattr(offspring, fn)(*args)
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


@dataclass
class Round:
    seed: int
    workers: int
    wall: float
    cpu: float
    job: object  # workloads.Job


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def time_setup(workload) -> tuple[float, float]:
    """Median import and model-construction seconds over fresh interpreters."""
    imports, models = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(workload.model_specs)],
                             capture_output=True, text=True, check=True, timeout=120)
        t_import, t_models = map(float, out.stdout.split())
        imports.append(t_import)
        models.append(t_models)
    return statistics.median(imports), statistics.median(models)


def run_round(workload, seed: int, workers: int, tracer=None) -> Round:
    c0, t0 = cpu_seconds(), perf_counter()
    job = workload.job(seed, workers, tracer)
    wall = perf_counter() - t0
    return Round(seed, workers, wall, cpu_seconds() - c0, job)


def end_to_end(workload, rounds: list[Round], setup: tuple[float, float], rss: float) -> dict:
    mc_seconds = sum(r.wall - r.job.llt_seconds for r in rounds)
    return {
        "setup_s": {"value": setup[0] + setup[1], "unit": "s"},
        "run_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
        "replicates_per_s": {"value": sum(r.job.replicates for r in rounds) / mc_seconds, "unit": "1/s"},
        "cpu_s": {"value": statistics.median(r.cpu for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(workload, tracer, traced: list[Round], plain_one: list[Round], plain: list[Round],
              setup: tuple[float, float]) -> dict:
    t = tracer
    wall = sum(r.wall for r in traced)
    trees = t.calls("sampler.sample_conditioned")
    excursions = t.calls("continuum.excursion")
    llt_s = t.seconds("harness.llt")
    madds = workload.llt_madds() * len(traced)
    attempts = ratio = 0.0
    case = workload.attempt_case()
    if case is not None:
        model, n, predicted = case
        key = (id(model), n)
        if t.trees[key]:
            attempts = t.attempts[key] / t.trees[key]
            ratio = attempts / predicted
    values = {
        "bgwf.import_s": (setup[0], "s"),
        "offspring.model_ms": (1e3 * setup[1], "ms"),
        "harness.rng_us": (1e3 * t.ms_per_call("harness.rng"), "us"),
        "sampler.degree_sequence_ms": (t.ms_per_call("sampler.degree_sequence"), "ms"),
        "sampler.attempts_per_tree": (attempts, "count"),
        "sampler.attempts_vs_predicted": (ratio, "ratio"),
        "sampler.rotate_ms": (t.ms_per_call("sampler.rotate"), "ms"),
        "sampler.annotate_ms": (t.ms_per_call("sampler.annotate"), "ms"),
        "sampler.validate_ms": (t.ms_per_call("sampler.validate"), "ms"),
        "sampler.self_ms": (1e3 * t.self_seconds("sampler.sample_conditioned") / trees if trees else 0.0, "ms"),
        "functionals.tolls_ms": (1e3 * t.seconds("functionals.tolls") / trees if trees else 0.0, "ms"),
        "continuum.excursion_ms": (t.ms_per_call("continuum.excursion"), "ms"),
        "continuum.decomposition_ms": (t.ms_per_call("continuum.decomposition"), "ms"),
        "continuum.crossings_per_excursion": (
            t.crossings / t.calls("continuum.decomposition") if t.calls("continuum.decomposition") else 0.0,
            "count"),
        "continuum.sweep_ms": (1e3 * t.seconds("continuum.sweep") / excursions if excursions else 0.0, "ms"),
        "harness.llt_s": (llt_s / len(traced), "s"),
        "harness.llt_gmadd_per_s": (madds / llt_s / 1e9 if llt_s else 0.0, "Gmadd/s"),
        "harness.self_ms": (1e3 * (wall - t.covered) / len(traced), "ms"),
        "harness.worker_speedup": (
            (wall - llt_s) / sum(r.wall - r.job.llt_seconds for r in plain) if workload.workers > 1 else 0.0,
            "ratio"),
        "trace.coverage": (t.covered / wall, "ratio"),
        "trace.overhead": (wall / sum(r.wall for r in plain_one) - 1.0, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: it drops the sampler's validate()", file=sys.stderr)
        return 2
    if not (SRC / "bgwf" / "__init__.py").is_file():
        print(f"no bgwf sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bgwf

    if Path(bgwf.__file__).resolve().parent != SRC / "bgwf":
        print(f"bgwf was imported from {bgwf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer, installed
    from workloads import WORKLOADS, Check

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    setup = time_setup(workload)
    workload.build()

    plain, plain_one, traced = [], [], []
    tracer = Tracer()
    mismatches = 0
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < args.seconds:
        seed = args.seed * 100_000 + k
        plain.append(run_round(workload, seed, workload.workers))
        if args.trace:
            twins = [plain[-1]]
            if workload.workers > 1:
                twins.append(run_round(workload, seed, 1))
            plain_one.append(twins[-1])
            with installed(tracer):
                traced.append(run_round(workload, seed, 1, tracer))
            mismatches += sum(r.job.fingerprint != traced[-1].job.fingerprint for r in twins)
        k += 1
    rss = peak_rss_mb()

    checks = workload.checks([r.job for r in plain], [r.seed for r in plain])
    if args.trace:
        coverage = tracer.covered / sum(r.wall for r in traced)
        checks.append(Check("traced rounds equal untraced rounds bit for bit", mismatches == 0,
                            f"{mismatches} mismatches over {len(traced)} rounds"
                            + (", 1 and 2 workers" if workload.workers > 1 else "")))
        checks.append(Check("trace coverage", coverage >= MIN_COVERAGE,
                            f"spans cover {coverage:.1%} of the traced wall time"))
        metrics = per_layer(workload, tracer, traced, plain_one, plain, setup)
    else:
        metrics = end_to_end(workload, plain, setup, rss)
    for c in checks:
        print(f"# {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")

    everything = [(r, False) for r in plain + (plain_one if workload.workers > 1 else [])]
    everything += [(r, True) for r in traced]
    attempted = sum(r.job.operations for r, _ in everything)
    failed = sum(r.job.failed for r, _ in everything) + sum(not c.ok for c in checks)
    result = {"correct": all(c.ok for c in checks), "attempted": attempted, "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": [{"seed": r.seed, "workers": r.workers, "wall_s": r.wall, "cpu_s": r.cpu,
                    "llt_s": r.job.llt_seconds, "traced": is_traced}
                   for r, is_traced in everything],
        "checks": [vars(c) for c in checks],
        "spans": {name: {"calls": calls, "inclusive_s": inclusive, "self_s": inclusive - children}
                  for name, (calls, inclusive, children) in sorted(tracer.stats.items())},
        "result": result,
    }
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
