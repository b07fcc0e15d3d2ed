"""Per-layer timing from outside the program.

A Tracer wraps public bgwf functions, as module attributes, with timing
spans; the program's own call graph runs unchanged.  Spans nest: each keeps
the time its child spans covered, so a layer's self time is its span time
minus its children's, and the time covered by top-level spans gives the
trace coverage.  Only aggregates are kept (per span name: calls, inclusive
and child seconds), so the memory used does not grow with the run.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from time import perf_counter

import numpy as np
from bgwf import continuum, functionals, harness, sampler


class CountingGenerator:
    """Proxy of a numpy Generator that counts multinomial draws.

    Every call is passed to the wrapped generator, so the random stream is
    the one the program would consume without the proxy.
    """

    def __init__(self, rng: np.random.Generator, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def multinomial(self, *args, **kwargs):
        self._tracer.multinomials += 1
        return self._rng.multinomial(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.stats = {}         # span name -> [calls, inclusive seconds, seconds in child spans]
        self.covered = 0.0      # seconds covered by top-level spans
        self.multinomials = 0
        self.attempts = Counter()  # (id(model), n) -> multinomial draws
        self.trees = Counter()     # (id(model), n) -> degree sequences drawn
        self.crossings = 0
        self._open = []         # seconds in child spans, per open span

    def span(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.covered += dt

        return traced

    def counting_rng(self, fn):
        """Wrap a function returning a Generator so that it returns the proxy."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return CountingGenerator(fn(*args, **kwargs), self)

        return wrapped

    def counting_attempts(self, fn):
        """Wrap sample_degree_sequence(model, n, rng, ...) to count attempts per model and n."""
        @functools.wraps(fn)
        def wrapped(model, n, *args, **kwargs):
            before = self.multinomials
            try:
                return fn(model, n, *args, **kwargs)
            finally:
                self.attempts[id(model), n] += self.multinomials - before
                self.trees[id(model), n] += 1

        return wrapped

    def counting_crossings(self, fn):
        """Wrap level_decomposition to add up the length of its arrays."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            decomp = fn(*args, **kwargs)
            if decomp is not None:
                self.crossings += len(decomp[0])
            return decomp

        return wrapped

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        calls, inclusive, children = self.stats.get(name, [0, 0.0, 0.0])
        return inclusive - children

    def ms_per_call(self, name: str) -> float:
        return 1e3 * self.seconds(name) / self.calls(name) if self.calls(name) else 0.0


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace the traced bgwf functions by their wrappers; restore them on exit."""
    t = tracer
    patches = [
        (harness, "replicate_rng", t.span("harness.rng", t.counting_rng(harness.replicate_rng))),
        (harness, "sample_conditioned", t.span("sampler.sample_conditioned", sampler.sample_conditioned)),
        (sampler, "sample_conditioned", t.span("sampler.sample_conditioned", sampler.sample_conditioned)),
        (sampler, "sample_degree_sequence",
         t.span("sampler.degree_sequence", t.counting_attempts(sampler.sample_degree_sequence))),
        (sampler, "cycle_rotate", t.span("sampler.rotate", sampler.cycle_rotate)),
        (sampler, "build_and_annotate", t.span("sampler.annotate", sampler.build_and_annotate)),
        (sampler.AnnotatedTree, "validate", t.span("sampler.validate", sampler.AnnotatedTree.validate)),
        (harness, "rescaled_theorem1_sum", t.span("functionals.tolls", functionals.rescaled_theorem1_sum)),
        (harness, "a_measure", t.span("functionals.tolls", functionals.a_measure)),
        (harness, "sample_excursion", t.span("continuum.excursion", continuum.sample_excursion)),
        (harness, "level_decomposition",
         t.span("continuum.decomposition", t.counting_crossings(continuum.level_decomposition))),
        (harness, "sweep_from_decomposition", t.span("continuum.sweep", continuum.sweep_from_decomposition)),
        (harness, "psi_level_sweep", t.span("continuum.sweep", continuum.psi_level_sweep)),
        (harness, "run_llt", t.span("harness.llt", harness.run_llt)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)
