"""Primal-dual solvers for discounted MDPs under a generative model,
with optional black-box predictions of the transition matrix.
"""

from .core import (
    DmdpInstance,
    Policy,
    build_instance,
    build_prediction,
    load_instance,
    pair_index,
    prediction_error,
    save_instance,
)
from .exact import (
    bellman_residual,
    occupancy_measure,
    policy_evaluation,
    value_iteration,
)
from .minimax import duality_gap, exact_gradients, lagrangian
from .optimistic_pd import RunOutput, extract_policy, run
from .smd import run_smd

__version__ = "0.1.0"
