"""Full-knowledge oracles: value iteration, policy evaluation, occupancy measures.

These are the ground-truth references for the sampling-based solvers. P_pi
is assembled from the transition's nonzeros in O(nnz); linear solves stay dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DmdpInstance,
    Policy,
    SingularSystem,
    check_distribution,
    deterministic_policy,
)

DEFAULT_TOLERANCE = 1e-10

_MAX_SWEEPS = 10_000_000


@dataclass(frozen=True)
class ExactSolution:
    optimal_value: np.ndarray
    optimal_policy: Policy
    residual: float


def apply_bellman(instance: DmdpInstance, v: np.ndarray) -> np.ndarray:
    """One Bellman backup: per-state max of r + discount * P v over actions."""
    x = instance.reward + instance.discount * (instance.transition @ v)
    return np.maximum.reduceat(x, instance.state_offsets)


def bellman_residual(instance: DmdpInstance, v) -> float:
    """Sup-norm distance of v from its Bellman backup; zero only at v*."""
    v = np.asarray(v, dtype=float)
    return float(np.abs(v - apply_bellman(instance, v)).max())


def value_iteration(instance: DmdpInstance, tolerance: float = DEFAULT_TOLERANCE):
    """Iterate the Bellman operator until the fixed point is pinned down.

    Stops once the backup residual is below tolerance * (1 - gamma) / (2 gamma),
    which guarantees the returned vector is within tolerance of v* in sup norm.
    Greedy actions break ties toward the lowest action index.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    gamma = instance.discount
    threshold = tolerance * (1.0 - gamma) / (2.0 * gamma)
    v = np.zeros(instance.num_states)
    for _ in range(_MAX_SWEEPS):
        v_next = apply_bellman(instance, v)
        if np.abs(v_next - v).max() <= threshold:
            v = v_next
            break
        v = v_next
    else:  # pragma: no cover - contraction always terminates
        raise RuntimeError("value iteration failed to converge")

    x = instance.reward + gamma * (instance.transition @ v)
    greedy = [
        int(np.argmax(x[off : off + count]))
        for off, count in zip(instance.state_offsets, instance.actions_per_state)
    ]
    policy = deterministic_policy(instance, greedy)
    return ExactSolution(v, policy, bellman_residual(instance, v))


def _policy_matrices(instance: DmdpInstance, policy: Policy):
    """Collapse pair-indexed P and r to state-indexed P_pi (SxS) and r_pi."""
    rows, flat, probs = instance.transition_nonzeros
    S = instance.num_states
    P_pi = np.bincount(flat, weights=policy.probs[rows] * probs, minlength=S * S)
    r_pi = np.add.reduceat(policy.probs * instance.reward, instance.state_offsets)
    return P_pi.reshape(S, S), r_pi


def policy_evaluation(instance: DmdpInstance, policy: Policy) -> np.ndarray:
    """Value vector of a policy via dense solve of (I - gamma P_pi) v = r_pi."""
    A, r_pi = _policy_matrices(instance, policy)
    A *= -instance.discount  # A = I - gamma P_pi, formed in place on P_pi
    A.ravel()[:: instance.num_states + 1] += 1.0
    try:
        v = np.linalg.solve(A, r_pi)
    except np.linalg.LinAlgError as exc:  # cannot occur for gamma < 1
        raise SingularSystem(str(exc)) from exc
    if np.abs(A @ v - r_pi).max() > 1e-9:
        raise SingularSystem("policy evaluation residual exceeds 1e-9")
    return v


def occupancy_measure(instance: DmdpInstance, policy: Policy, q) -> np.ndarray:
    """Discounted state-action visitation distribution started from q.

    Solves (I - gamma P_pi^T) lam = (1 - gamma) q for the state occupancy and
    spreads it over actions by the policy. The result lies on the N-simplex
    and satisfies the dual LP flow constraint.
    """
    q = check_distribution(q, instance.num_states, "q")
    A, _ = _policy_matrices(instance, policy)
    A *= -instance.discount  # A.T = I - gamma P_pi^T, formed in place on P_pi
    A.ravel()[:: instance.num_states + 1] += 1.0
    try:
        lam = np.linalg.solve(A.T, (1.0 - instance.discount) * q)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    mu = lam[instance.pair_state] * policy.probs
    if abs(mu.sum() - 1.0) > 1e-9 or np.any(mu < -1e-9):
        raise SingularSystem("occupancy measure left the simplex")
    return np.clip(mu, 0.0, None)


__all__ = [
    "ExactSolution",
    "apply_bellman",
    "bellman_residual",
    "value_iteration",
    "policy_evaluation",
    "occupancy_measure",
    "DEFAULT_TOLERANCE",
]
