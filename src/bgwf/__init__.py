"""Simulation and verification toolkit for additive functionals of
size-conditioned critical branching-process trees.

Subpackages:

* ``offspring``   -- critical offspring laws in the stable domain of attraction
* ``sampler``     -- exact size-conditioned tree sampling; annotation by linear passes
                     around two narrow stable sorts, heights by a sparse table
* ``functionals`` -- power and power-log tolls, the rescaled tree measure and sums
* ``theory``      -- closed-form limit constants and the integral test ``phase_margin``
* ``continuum``   -- Brownian excursion simulation and the continuum functional
* ``harness``     -- Monte Carlo experiment drivers with reproducible seeding
* ``cli``         -- command line front end
"""

from .offspring import (
    OffspringModel,
    OffspringError,
    make_stable_family,
    make_finite_variance,
    catalan_model,
    geometric_model,
    normalizer,
    support_contains,
)
from .sampler import (
    AnnotatedTree,
    BudgetExhausted,
    sample_degree_sequence,
    cycle_rotate,
    build_and_annotate,
    sample_conditioned,
)
from .functionals import (
    TollFunction,
    a_measure,
    rescaled_theorem1_sum,
)
from .theory import (
    InfiniteMomentError,
    g0,
    riemann_xi,
    max_excursion_moment,
    brownian_moment,
    stable_moment,
    power_log_moment,
    phase_margin,
    GLOBAL,
    NON_GLOBAL,
)
from .continuum import (
    Excursion,
    sample_excursion,
    psi_level_sweep,
)
from .harness import (
    ExperimentConfig,
    McReport,
    McRow,
    run_moment,
    run_phase_scan,
    run_llt,
    run_height_moments,
    run_tail_profile,
    run_continuum,
    run_selftest,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
