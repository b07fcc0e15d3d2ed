"""Command line front end for the Monte Carlo harness.

A config file is a flat JSON object whose keys mirror the long flag names
(with underscores); explicit flags override config values.  Every randomized
command prints the resolved seed on stderr, auto-generated or not.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import secrets
import sys

import numpy as np

from . import harness
from .functionals import TollFunction
from .offspring import OffspringError, geometric_model, catalan_model, make_finite_variance, make_stable_family
from .sampler import sample_conditioned

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_family_flags(p):
    p.add_argument("--family", choices=["catalan", "geometric", "stable", "pmf"], default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--pmf", type=str, default=None, help="comma list k:p for --family pmf")


def _add_common_flags(p, sizes="+"):
    p.add_argument("--n", type=int, nargs=sizes, default=None)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="CSV output path (default stdout)")
    p.add_argument("--json-out", type=str, default=None)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--print-config", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true", help="log at INFO level on stderr")


def build_parser() -> _Parser:
    parser = _Parser(prog="bgwf", description="additive functionals of conditioned branching trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample one conditioned tree and dump it as CSV")
    _add_family_flags(p)
    _add_common_flags(p, sizes=None)

    p = sub.add_parser("moment", help="Monte Carlo mean of the rescaled sum vs theory")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--alpha-prime", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--toll", type=str, default=None, help="powerlog:<alpha> for the log family")

    p = sub.add_parser("phase-scan", help="divergence/convergence verdicts across sizes")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--alpha-prime", type=float, nargs="+", default=None)
    p.add_argument("--beta", type=float, default=None)

    p = sub.add_parser("llt", help="exact local-limit-theorem check (no Monte Carlo)")
    _add_family_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("height-moments", help="empirical moments of the rescaled height")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--p", type=float, nargs="+", default=None)

    p = sub.add_parser("tail", help="tail exponent fits for the rescaled height")
    _add_family_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("continuum", help="Brownian excursion level-sweep vs theory")
    _add_common_flags(p, sizes=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--dump-excursion", type=str, default=None)

    sub.add_parser("selftest", help="run the fast golden-value suite")
    return parser


_DEFAULTS = {
    "family": "catalan", "gamma": 1.5, "c": 0.5, "pmf": None,
    "n": [1001], "R": 1000, "seed": None, "workers": None,
    "alpha": 0.0, "alpha_prime": 1.0, "beta": 0.0, "toll": None, "p": [-1.0, 1.0, 2.0],
    "kappa": 0.5, "m": 10_000, "levels": 1024,
    "out": None, "json_out": None, "dump_excursion": None,
}


def resolve_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; returns the flat dict."""
    opts = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict) or any(isinstance(v, dict) for v in cfg.values()):
            raise SystemExit(USAGE_ERROR)
        opts.update(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config", "print_config", "verbose"):
            continue
        if val is not None:
            opts[key] = val
    if opts["seed"] is None:
        opts["seed"] = secrets.randbits(48)
    if opts["workers"] is None:
        opts["workers"] = int(os.environ.get("BGWF_WORKERS", "1"))
    if isinstance(opts["n"], int):
        opts["n"] = [opts["n"]]
    return opts


def _model_from(opts: dict):
    family = opts["family"]
    if family == "catalan":
        return catalan_model()
    if family == "geometric":
        return geometric_model()
    if family == "stable":
        return make_stable_family(opts["gamma"], opts["c"])
    if family == "pmf":
        pairs = [kv.split(":") for kv in opts["pmf"].split(",")]
        return make_finite_variance({int(k): float(v) for k, v in pairs})
    raise SystemExit(USAGE_ERROR)


def _emit(report: harness.McReport, opts: dict) -> int:
    if opts["out"]:
        report.to_csv(opts["out"])
    else:
        sys.stdout.write(report.to_csv())
    if opts["json_out"]:
        report.to_json(opts["json_out"])
    for name, ok in report.checks:
        print(f"# {'PASS' if ok else 'FAIL'} {name}", file=sys.stderr)
    return report.exit_code()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        ok, lines = harness.run_selftest()
        print("\n".join(lines))
        return 0 if ok else 2

    try:
        opts = resolve_options(args)
    except (OSError, json.JSONDecodeError):
        print("could not read config file", file=sys.stderr)
        return USAGE_ERROR
    if getattr(args, "print_config", False):
        print(json.dumps({k: opts[k] for k in sorted(opts)}, sort_keys=True))
        return 0
    print(f"# seed: {opts['seed']}", file=sys.stderr)

    # the harness logs to "bgwf"; the handler lives for this call only and
    # does not propagate, so a caller's root handler prints nothing twice
    log = logging.getLogger("bgwf")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("# %(levelname)s %(message)s"))
    saved = log.level, log.propagate
    log.setLevel("INFO" if args.verbose else "WARNING")
    log.propagate = False
    log.addHandler(handler)
    try:
        return _dispatch(args.command, opts)
    except (OffspringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]


def _dispatch(command: str, opts: dict) -> int:
    seed = opts["seed"]
    workers = opts["workers"]

    if command == "sample":
        model = _model_from(opts)
        rng = harness.replicate_rng(seed, 0)
        from .offspring import snap_to_support

        n = snap_to_support(model, opts["n"][0])
        tree = sample_conditioned(model, n, rng)
        if opts["out"]:
            tree.to_csv(opts["out"])
        else:
            tree.to_csv(sys.stdout)
        return 0

    if command == "moment":
        model = _model_from(opts)
        if opts.get("toll") and str(opts["toll"]).startswith("powerlog:"):
            tolls = [TollFunction.power_log(float(str(opts["toll"]).split(":")[1]))]
        else:
            tolls = [TollFunction.power(opts["alpha_prime"] - 1.0, opts["beta"])]
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_MOMENT, model=model, sizes=list(opts["n"]), replicates=opts["R"],
            tolls=tolls, master_seed=seed, workers=workers)
        return _emit(harness.run_moment(cfg), opts)

    if command == "phase-scan":
        model = _model_from(opts)
        aprimes = opts["alpha_prime"]
        if isinstance(aprimes, float):
            aprimes = [aprimes]
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_PHASE, model=model, sizes=list(opts["n"]), replicates=opts["R"],
            alpha_primes=list(aprimes), beta=opts["beta"], master_seed=seed, workers=workers)
        report = harness.run_phase_scan(cfg)
        for aprime, v in report.extras["verdicts"].items():
            if v["verdict"] is None:
                empty = ", ".join(map(str, v["empty_sizes"]))
                print(f"# alpha'={aprime:g}: no verdict (n={empty} kept no tree)", file=sys.stderr)
                continue
            print(f"# alpha'={aprime:g}: {v['verdict']} (predicted {v['predicted_regime']}, "
                  f"margin {v['margin']:+g})", file=sys.stderr)
        return _emit(report, opts)

    if command == "llt":
        model = _model_from(opts)
        return _emit(harness.run_llt(model, list(opts["n"]), master_seed=seed), opts)

    if command == "height-moments":
        model = _model_from(opts)
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_HEIGHT, model=model, sizes=list(opts["n"]), replicates=opts["R"],
            p_list=list(opts["p"]), master_seed=seed, workers=workers)
        return _emit(harness.run_height_moments(cfg), opts)

    if command == "tail":
        model = _model_from(opts)
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_TAIL, model=model, sizes=list(opts["n"]), replicates=opts["R"],
            master_seed=seed, workers=workers)
        return _emit(harness.run_tail_profile(cfg), opts)

    if command == "continuum":
        cfg = harness.ExperimentConfig(
            mode=harness.MODE_CONTINUUM, replicates=opts["R"], kappa=opts["kappa"],
            m_grid=opts["m"], levels=opts["levels"],
            tolls=[TollFunction.power(opts["alpha"], opts["beta"])], master_seed=seed, workers=workers)
        if opts["dump_excursion"]:
            from .continuum import sample_excursion

            sample_excursion(opts["m"], harness.replicate_rng(seed, 0)).to_csv(opts["dump_excursion"])
        return _emit(harness.run_continuum(cfg), opts)

    raise SystemExit(USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
