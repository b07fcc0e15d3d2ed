"""Command line front end for the Monte Carlo harness.

``_OPTIONS`` gives each option its type, default and help; ``_COMMANDS`` lists
the options each command reads.  A config file is a flat JSON object keyed by
those option names; explicit flags override it.  Every randomized command
prints the resolved seed on stderr, auto-generated or not.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import secrets
import sys
from typing import NamedTuple

from . import harness
from .continuum import DEFAULT_LEVELS, sample_excursion
from .functionals import TollFunction
from .offspring import (OffspringError, catalan_model, geometric_model, make_finite_variance,
                        make_stable_family, snap_to_support)
from .sampler import sample_conditioned

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def finite(text) -> float:
    """float(text), refusing NaN and the infinities: the type of every float option."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


class _Option(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple | None = None


_OPTIONS = {
    "family": _Option(str, "catalan", "offspring law", ("catalan", "geometric", "stable", "pmf")),
    "gamma": _Option(finite, 1.5, "stable index of --family stable, in (1, 2]"),
    "c": _Option(finite, 0.5, "pmf(0) of --family stable"),
    "pmf": _Option(str, None, "comma list k:p for --family pmf"),
    "n": _Option(int, 1001, "tree size; sizes off the support snap up"),
    "R": _Option(int, 1000, "replicates per size"),
    "seed": _Option(int, None, "master seed (default: a fresh random one)"),
    "workers": _Option(int, None, "worker processes (default: BGWF_WORKERS, else 1)"),
    "out": _Option(str, None, "CSV output path (default stdout)"),
    "json_out": _Option(str, None, "JSON report path"),
    "alpha_prime": _Option(finite, 1.0, "subtree-size exponent; the toll is x^(alpha'-1) u^beta"),
    "beta": _Option(finite, 0.0, "height exponent of the toll"),
    "toll": _Option(str, None, "powerlog:<alpha> for the log family"),
    "p": _Option(finite, [-1.0, 1.0, 2.0], "orders of the height moments"),
    "kappa": _Option(finite, harness.ExperimentConfig.kappa, "stable constant of the Brownian tree"),
    "m": _Option(int, harness.ExperimentConfig.m_grid, "excursion grid points"),
    "levels": _Option(int, DEFAULT_LEVELS, "sweep levels"),
    "alpha": _Option(finite, 0.0, "mass exponent of the toll x^alpha u^beta"),
    "dump_excursion": _Option(str, None, "CSV path for replicate 0's excursion"),
}

# The options each command reads, in flag order; "+" marks an option the
# command takes as a list of one or more values.
_LAW = ("family", "gamma", "c", "pmf")
_RUN = ("R", "seed", "workers", "out", "json_out")
_COMMANDS = {
    "sample": ("sample one conditioned tree and dump it as CSV", _LAW + ("n", "seed", "out")),
    "moment": ("Monte Carlo mean of the rescaled sum vs theory",
               _LAW + ("n+",) + _RUN + ("alpha_prime", "beta", "toll")),
    "phase-scan": ("divergence/convergence verdicts across sizes",
                   _LAW + ("n+",) + _RUN + ("alpha_prime+", "beta")),
    "llt": ("exact local-limit-theorem check (no Monte Carlo)", _LAW + ("n+", "out", "json_out")),
    "height-moments": ("empirical moments of the rescaled height", _LAW + ("n+",) + _RUN + ("p+",)),
    "tail": ("tail exponent fits for the rescaled height", _LAW + ("n+",) + _RUN),
    "continuum": ("Brownian excursion level-sweep vs theory",
                  _RUN + ("kappa", "m", "levels", "alpha", "beta", "dump_excursion")),
}


def _reads(command: str) -> dict[str, bool]:
    """{option: takes a list} for the options command reads."""
    return {name.rstrip("+"): name.endswith("+") for name in _COMMANDS[command][1]}


def build_parser() -> _Parser:
    parser = _Parser(prog="bgwf", description="additive functionals of conditioned branching trees")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        # a flag left out is absent from the namespace, so the config file shows through;
        # no abbreviations, so moment --alpha is refused rather than read as --alpha-prime
        p = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for name, listed in _reads(command).items():
            opt = _OPTIONS[name]
            p.add_argument("--" + name.replace("_", "-"), type=opt.type, nargs="+" if listed else None,
                           choices=opt.choices, help=opt.help)
        p.add_argument("--config", help="flat JSON object of option values; flags win")
        p.add_argument("--print-config", action="store_true", help="print the resolved options and exit")
        p.add_argument("-v", "--verbose", action="store_true", help="log at INFO level on stderr")
    sub.add_parser("selftest", help="run the fast golden-value suite")
    return parser


def _check_config(cfg: dict, command: str, reads: dict[str, bool]) -> None:
    """Raise ValueError naming the first config key command has no option for or whose value misfits.

    A float option takes finite JSON ints and floats; a list option takes a
    list of values or one value; null is valid where the default is.
    """
    for key, val in cfg.items():
        if key not in reads:
            raise ValueError(f"config key {key} names no option of {command}")
        opt = _OPTIONS[key]
        if val is None and opt.default is None:
            continue
        kinds = (int, float) if opt.type is finite else (opt.type,)
        name = "finite number" if opt.type is finite else opt.type.__name__
        items = val if reads[key] and isinstance(val, list) else [val]
        if not all(isinstance(v, kinds) and not isinstance(v, bool) for v in items):
            form = f"{name} or a list of them" if reads[key] else name
            raise ValueError(f"config key {key} takes {form}, not {val!r}")
        try:
            for v in items:
                opt.type(v)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
        if opt.choices and val not in opt.choices:
            raise ValueError(f"config key {key} takes one of {', '.join(opt.choices)}, not {val!r}")


def resolve_options(args: argparse.Namespace) -> dict:
    """The options args.command reads: table defaults < config file < explicit flags."""
    reads = _reads(args.command)
    opts = {name: _OPTIONS[name].default for name in reads}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("a config file holds one flat JSON object")
        _check_config(cfg, args.command, reads)
        opts.update(cfg)
    opts.update((key, val) for key, val in vars(args).items() if key in reads)
    if "seed" in reads and opts["seed"] is None:
        opts["seed"] = secrets.randbits(48)
    if "workers" in reads and opts["workers"] is None:
        env = os.environ.get("BGWF_WORKERS", "1")
        try:
            opts["workers"] = int(env)
        except ValueError:
            raise ValueError(f"BGWF_WORKERS must be an integer worker count, not {env!r}") from None
    for name, listed in reads.items():  # one value stands for a list of one; no caller gets the table's list
        if listed:
            opts[name] = list(opts[name]) if isinstance(opts[name], list) else [opts[name]]
    return opts


def _model_from(opts: dict):
    family = opts["family"]
    if family == "catalan":
        return catalan_model()
    if family == "geometric":
        return geometric_model()
    if family == "stable":
        return make_stable_family(opts["gamma"], opts["c"])
    if not opts["pmf"]:
        raise OffspringError("--family pmf needs --pmf k:p,...")
    try:
        table = {int(k): float(p) for k, p in (kv.split(":") for kv in opts["pmf"].split(","))}
    except ValueError:
        raise OffspringError(
            f"--pmf takes a comma list k:p,... such as 0:0.5,2:0.5, not {opts['pmf']!r}") from None
    return make_finite_variance(table)


def _power_log_alpha(toll: str) -> float:
    """A of the toll powerlog:A, the one --toll form."""
    kind, _, alpha = toll.partition(":")
    if kind == "powerlog":
        try:
            return finite(alpha)
        except ValueError:
            pass
    raise ValueError(f"--toll takes powerlog:A with A a finite number, such as powerlog:0.5, not {toll!r}")


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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if getattr(args, "print_config", False):
        print(json.dumps(opts, sort_keys=True))
        return 0
    if "seed" in opts:
        print(f"# seed: {opts['seed']}", file=sys.stderr)

    # the harness logs to "bgwf"; the handler lives for this call only and
    # does not propagate, so a caller's root handler prints nothing twice
    log = logging.getLogger("bgwf")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("# %(levelname)s %(message)s"))
    saved = log.level, log.propagate
    log.setLevel("INFO" if getattr(args, "verbose", False) else "WARNING")
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


def _experiment(mode: str, opts: dict, **fields) -> harness.ExperimentConfig:
    """The ExperimentConfig of a Monte Carlo command; tree commands add their law and sizes."""
    if "family" in opts:
        fields.update(model=_model_from(opts), sizes=opts["n"])
    return harness.ExperimentConfig(mode=mode, replicates=opts["R"], master_seed=opts["seed"],
                                    workers=opts["workers"], **fields)


def _dispatch(command: str, opts: dict) -> int:
    if command == "sample":
        model = _model_from(opts)
        tree = sample_conditioned(model, snap_to_support(model, opts["n"]),
                                  harness.replicate_rng(opts["seed"], 0))
        tree.to_csv(opts["out"] or sys.stdout)
        return 0
    if command == "llt":
        report = harness.run_llt(_model_from(opts), opts["n"])
    elif command == "moment":
        if opts["toll"] is None:
            tolls = [TollFunction.power(opts["alpha_prime"] - 1.0, opts["beta"])]
        else:
            tolls = [TollFunction.power_log(_power_log_alpha(opts["toll"]))]
        report = harness.run_moment(_experiment(harness.MODE_MOMENT, opts, tolls=tolls))
    elif command == "phase-scan":
        report = harness.run_phase_scan(_experiment(
            harness.MODE_PHASE, opts, alpha_primes=opts["alpha_prime"], beta=opts["beta"]))
        for aprime, v in report.extras["verdicts"].items():
            if v["verdict"] is None:
                note = f"no verdict (n={', '.join(map(str, v['empty_sizes']))} kept no tree)"
            else:
                note = f"{v['verdict']} (predicted {v['predicted_regime']}, margin {v['margin']:+g})"
            print(f"# alpha'={aprime:g}: {note}", file=sys.stderr)
    elif command == "height-moments":
        report = harness.run_height_moments(_experiment(harness.MODE_HEIGHT, opts, p_list=opts["p"]))
    elif command == "tail":
        report = harness.run_tail_profile(_experiment(harness.MODE_TAIL, opts))
    else:  # continuum; run_continuum refuses a bad request before any file is written
        report = harness.run_continuum(_experiment(
            harness.MODE_CONTINUUM, opts, kappa=opts["kappa"], m_grid=opts["m"], levels=opts["levels"],
            tolls=[TollFunction.power(opts["alpha"], opts["beta"])]))
        if opts["dump_excursion"]:
            sample_excursion(opts["m"], harness.replicate_rng(opts["seed"], 0)).to_csv(opts["dump_excursion"])

    if opts["out"]:
        report.to_csv(opts["out"])
    else:
        sys.stdout.write(report.to_csv())
    if opts["json_out"]:
        report.to_json(opts["json_out"])
    for name, ok in report.checks:
        print(f"# {'PASS' if ok else 'FAIL'} {name}", file=sys.stderr)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
