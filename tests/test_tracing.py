"""The benchmark's tracer against the harness.

bench/tracing.py wraps harness functions by name in harness's namespace.  A
harness change that stops calling one of those names would leave its layer
untimed without failing anything but a traced benchmark run, so this test
runs small reports under the tracer and checks both the spans and the rows.
"""

import importlib.util
from pathlib import Path

import pytest

from bgwf import harness
from bgwf.functionals import TollFunction
from bgwf.harness import MODE_CONTINUUM, MODE_MOMENT, ExperimentConfig, run_continuum, run_moment
from bgwf.offspring import catalan_model

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TOLLS = [TollFunction.power(0, 0), TollFunction.power(0, 1), TollFunction.power_log(0.5)]


@pytest.mark.parametrize("run, cfg, spans", [
    (run_moment,
     ExperimentConfig(mode=MODE_MOMENT, model=catalan_model(), sizes=[11, 201], replicates=6,
                      tolls=TOLLS, master_seed=3),
     {"harness.rng": 12, "sampler.sample_conditioned": 12, "sampler.degree_sequence": 12,
      "sampler.rotate": 12, "sampler.annotate": 12, "functionals.tolls": 36}),
    (run_continuum,
     ExperimentConfig(mode=MODE_CONTINUUM, replicates=5, m_grid=400, levels=64,
                      tolls=TOLLS[:2], master_seed=3),
     {"harness.rng": 5, "continuum.excursion": 5, "continuum.decomposition": 5,
      "continuum.sweep": 10}),
], ids=["moment", "continuum"])
def test_traced_rows_equal_untraced(run, cfg, spans):
    plain = [r.as_dict() for r in run(cfg).rows]
    original = harness.replicate_rng
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = [r.as_dict() for r in run(cfg).rows]
    assert harness.replicate_rng is original
    assert traced == plain
    assert {name: tracer.calls(name) for name in spans} == spans
    assert tracer.covered > 0.0
