import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

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


def scipy_modules_loaded(code: str) -> list[str]:
    """Names of the scipy modules loaded by running code in a fresh interpreter."""
    report = "\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", "import bgwf\n" + code + report], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout.split()


def test_runs_without_scipy():
    assert scipy_modules_loaded(NO_SCIPY_RUN) == []


def test_public_functions_have_resolvable_type_hints():
    functions = [getattr(bgwf, name) for name in bgwf.__all__ if inspect.isfunction(getattr(bgwf, name))]
    assert len(functions) > 20
    for fn in functions:
        typing.get_type_hints(fn)
