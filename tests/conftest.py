from typing import NamedTuple

import numpy as np
import pytest

from bgwf.functionals import TollFunction, a_measure
from bgwf.harness import iter_degree_sequences, replicate_rng
from bgwf.offspring import normalizer


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tree_weight(model, degrees) -> float:
    """Brute-force BGW weight of an ordered tree given by its degree sequence."""
    return float(np.prod(model.pmf(np.asarray(degrees))))


def enumerate_tree_law(model, n):
    """Exact conditional law over all ordered trees of size n, as {degrees: prob}."""
    weights = {}
    for seq in iter_degree_sequences(n):
        w = tree_weight(model, seq)
        if w > 0.0:
            weights[seq] = w
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


# Structural properties of the rescaled tree measure, checked by criterion 6
# and tests/test_functionals.py.


class GapBound(NamedTuple):
    gap: float
    bound: float
    ok: bool


def b1_index(tree) -> float:
    """Sum of 1/H(t_w) over internal vertices other than the root."""
    mask = tree.degree > 0
    mask[0] = False
    return float((1.0 / tree.subtree_height[mask]).sum())


def tv_gap_bound_check(tree, model) -> GapBound:
    """Total-variation gap between the all-vertex and internal-only measures.

    The two measures differ only by leaf atoms of weight a/n each (a = b_n/n),
    so the gap is exactly (1/2)(a/n)(number of leaves), bounded by a/2.
    """
    a = normalizer(model, tree.n) / tree.n
    gap = 0.5 * (a / tree.n) * tree.leaves
    bound = 0.5 * a
    return GapBound(gap, bound, gap <= bound + 1e-15)


def mass_bound_check(tree, model) -> bool:
    """Check total-mass bounds: A°(1) <= (b_n/n) H and A(1) <= (b_n/n)(H+1).

    A(1) is A°(1) plus the leaf atoms of tv_gap_bound_check, a/n per leaf.
    """
    a = normalizer(model, tree.n) / tree.n
    height = tree.height
    tol = 1e-12
    internal = a_measure(tree, model, TollFunction.power(0.0, 0.0))
    total = internal + (a / tree.n) * tree.leaves
    return internal <= a * height + tol and total <= a * (height + 1) + tol


# Session-scoped Catalan ensemble at the acceptance-scale size.  Several
# acceptance criteria and the power-log expansion check share it, so the
# expensive sampling happens once.  Both fixtures run on 2 worker processes;
# reports are bit-identical for any worker count.
ACCEPT_WORKERS = 2
ACCEPT_N = 10_001
ACCEPT_R = 10_000
ACCEPT_SEED = 20_240_811


@pytest.fixture(scope="session")
def catalan_acceptance_report():
    from bgwf.harness import ExperimentConfig, MODE_MOMENT, run_moment
    from bgwf.offspring import catalan_model

    tolls = [
        TollFunction.power(0.0, 0.0),   # alpha'=1, beta=0  (toll 1)
        TollFunction.power(0.0, 1.0),   # alpha'=1, beta=1  (toll u)
        TollFunction.power(1.0, 0.0),   # alpha'=2, beta=0  (toll x)
        TollFunction.power(0.5, 0.0),
        TollFunction.power_log(0.5),
    ]
    cfg = ExperimentConfig(
        mode=MODE_MOMENT,
        model=catalan_model(),
        sizes=[ACCEPT_N],
        replicates=ACCEPT_R,
        tolls=tolls,
        master_seed=ACCEPT_SEED,
        workers=ACCEPT_WORKERS,
    )
    return run_moment(cfg)


@pytest.fixture(scope="session")
def continuum_acceptance_report():
    from bgwf.harness import ExperimentConfig, MODE_CONTINUUM, run_continuum

    tolls = [
        TollFunction.power(0.0, 0.0),
        TollFunction.power(0.0, 1.0),
        TollFunction.power(1.0, 0.0),
    ]
    cfg = ExperimentConfig(
        mode=MODE_CONTINUUM,
        replicates=ACCEPT_R,
        kappa=0.5,
        m_grid=10_000,
        levels=1024,
        tolls=tolls,
        master_seed=ACCEPT_SEED + 1,
        workers=ACCEPT_WORKERS,
    )
    return run_continuum(cfg)


def rng_for(seed, j=0):
    return replicate_rng(seed, j)
