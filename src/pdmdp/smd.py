"""Prediction-free stochastic mirror descent baseline.

Same engine, sampler, ledger, and policy extraction as the optimistic
solver, but with the prediction term removed, a fresh single-sample dual
estimator each step (no history averaging), and fixed learning rates that
require the target accuracy up front.
"""

from __future__ import annotations

from .core import DmdpInstance
from .optimistic_pd import RunOutput, run


def smd_learning_rates(instance: DmdpInstance, epsilon: float) -> tuple[float, float]:
    """Fixed rates: eta_v = eps/8, eta_mu = eps / (36 ((1-gamma)^-2 + 1) N)."""
    inv = 1.0 / (1.0 - instance.discount)
    eta_v = epsilon / 8.0
    eta_mu = epsilon / (36.0 * (inv**2 + 1.0) * instance.num_pairs)
    return eta_v, eta_mu


def run_smd(
    instance: DmdpInstance,
    q,
    horizon: int,
    epsilon: float,
    seed: int,
    checkpoints=None,
) -> RunOutput:
    if not (0.0 < epsilon < 1.0):
        raise ValueError("accuracy target must be in (0, 1)")
    return run(
        instance,
        None,
        q,
        horizon,
        seed,
        checkpoints,
        mu_estimator="fresh",
        fixed_rates=smd_learning_rates(instance, epsilon),
    )
