import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import bgwf

SRC = Path(__file__).resolve().parents[1] / "src"

# Everything that imports no scipy: every law, a stable phase scan, power and
# power-log moments, an exact LLT row, a short continuum run and the self test.
NO_SCIPY_RUN = """
from bgwf import harness, offspring
from bgwf.functionals import TollFunction

models = [offspring.catalan_model(), offspring.geometric_model(),
          offspring.make_stable_family(1.5, 0.5), offspring.make_stable_family(1.2, 0.5),
          offspring.make_stable_family(2.0, 0.5), offspring.make_finite_variance({0: 0.25, 1: 0.5, 2: 0.25})]
stable = models[2]
harness.run_phase_scan(harness.ExperimentConfig(mode="phase-scan", model=stable, sizes=[100, 1000], replicates=4,
                                                alpha_primes=[0.8], beta=0.5, master_seed=1))
harness.run_moment(harness.ExperimentConfig(mode="moment", model=stable, sizes=[101], replicates=4,
                                            tolls=[TollFunction.power(0.5, 0.5)], master_seed=1))
for model in (models[0], stable):
    harness.run_moment(harness.ExperimentConfig(mode="moment", model=model, sizes=[101], replicates=4,
                                                tolls=[TollFunction.power_log(0.5)], master_seed=1))
harness.run_llt(stable, [1001])
harness.run_continuum(harness.ExperimentConfig(mode="continuum", m_grid=200, replicates=2,
                                               tolls=[TollFunction.power(0.0, 0.0)], master_seed=1))
assert harness.run_selftest()[0]
"""


def modules_loaded(code: str, *roots: str) -> list[str]:
    """Names of the modules under roots loaded by running code in a fresh interpreter."""
    report = f"\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))\n"
    return run_python("import bgwf\n" + code + report).stdout.split()


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=300)


def test_runs_without_scipy():
    assert modules_loaded(NO_SCIPY_RUN, "scipy") == []


def test_serial_run_loads_no_process_pool():
    # import bgwf is what setup time measures; loading the pool's modules after it takes
    # 10-12 ms on a 2-vCPU Xeon
    code = """
from bgwf import harness
from bgwf.functionals import TollFunction
harness.run_continuum(harness.ExperimentConfig(mode="continuum", m_grid=200, replicates=2,
                                               tolls=[TollFunction.power(0.0, 0.0)], master_seed=1))
"""
    assert modules_loaded(code, "multiprocessing", "concurrent") == []


# A pytest session: without the pool's shutdown registered with atexit, its
# interpreter teardown prints an AttributeError from the pool's weakref callback
# (a plain script run of the same call prints nothing).
TWO_WORKER_SESSION = """
import multiprocessing
from pathlib import Path

from bgwf.cli import main


def test_two_workers():
    assert main(["continuum", "--m", "200", "--levels", "16", "--R", "8", "--seed", "1", "--workers", "2"]) == 0
    pids = [p.pid for p in multiprocessing.active_children()]
    Path(__file__).with_name("pids").write_text(" ".join(map(str, pids)))
"""


def test_workers_end_with_the_process_and_print_nothing(tmp_path):
    (tmp_path / "test_session.py").write_text(TWO_WORKER_SESSION)
    out = run_python("import sys, pytest\n"
                     f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {str(tmp_path)!r}]))")
    assert out.stderr == ""
    pids = [int(pid) for pid in (tmp_path / "pids").read_text().split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_public_functions_have_resolvable_type_hints():
    functions = [getattr(bgwf, name) for name in bgwf.__all__ if inspect.isfunction(getattr(bgwf, name))]
    assert len(functions) > 20
    for fn in functions:
        typing.get_type_hints(fn)
