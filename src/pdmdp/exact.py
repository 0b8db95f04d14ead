"""Full-knowledge oracles: value iteration, policy evaluation, occupancy measures.

These are the ground-truth references for the sampling-based solvers, computed
on the transition's nonzeros: the policy systems go to the LU below 400 states
and to a fixed-point iteration with no S x S array from 400 on (see _iterate).
Every product with P or with a policy's P_pi is CsrMatrix.apply or apply_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CsrMatrix,
    DmdpInstance,
    Policy,
    SingularSystem,
    check_distribution,
    deterministic_policy,
)

DEFAULT_TOLERANCE = 1e-10

_MAX_SWEEPS = 10_000_000

# _iterate's smallest system size and relative residual target.
_ITER_MIN_STATES = 400
_ITER_RTOL = 1e-15


@dataclass(frozen=True)
class ExactSolution:
    optimal_value: np.ndarray
    optimal_policy: Policy
    residual: float


def apply_bellman(instance: DmdpInstance, v: np.ndarray) -> np.ndarray:
    """One Bellman backup: per-state max of r + discount * P v over actions."""
    x = instance.reward + instance.discount * instance.transition.apply(v)
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
    if not (0 < tolerance < np.inf):  # also rejects NaN, which no sweep would meet
        raise ValueError("tolerance must be positive and finite")
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

    x = instance.reward + gamma * instance.transition.apply(v)
    greedy = [
        int(np.argmax(x[off : off + count]))
        for off, count in zip(instance.state_offsets, instance.actions_per_state)
    ]
    policy = deterministic_policy(instance, greedy)
    return ExactSolution(v, policy, bellman_residual(instance, v))


def _policy_matrix(instance: DmdpInstance, policy: Policy) -> tuple[CsrMatrix, np.ndarray]:
    """(P_pi, buffer): P_pi on P's nonzeros and a buffer for P_pi.apply's out.

    State s's row of P_pi holds the nonzeros of its actions' rows of P,
    weighted by pi(a|s). Both are rows of one (2, nnz) block, not two arrays,
    so that freeing it lifts glibc's adaptive trim threshold past its size and
    later checkpoints reuse its pages instead of faulting in fresh ones.
    """
    P = instance.transition
    block = np.empty((2, P.cols.size))
    np.take(policy.probs, P.rows, out=block[0], mode="clip")  # "raise" would buffer
    block[0] *= P.vals
    starts = P.starts[np.append(instance.state_offsets, instance.num_pairs)]
    S = instance.num_states
    return CsrMatrix((S, S), starts, P.cols, block[0]), block[1]


def _iterate(instance: DmdpInstance, P_pi: CsrMatrix, buffer, b, transposed: bool):
    """Solve A x = b, or A^T x = b if transposed, for A = I - gamma P_pi.

    Adding gamma 11^T/S to A moves its eigenvalue 1 - gamma to 1 and keeps
    the others (Brauer), so y <- rhs + G y, G = gamma (P_pi - 11^T/S),
    contracts at gamma |lambda_2(P_pi)|; x = y + c mean(y) 1 with
    c = gamma / (1 - gamma), and for A^T rhs = b + c mean(b) 1. Since
    (P_pi - 11^T/S)^k = P_pi^k - 11^T P_pi^(k-1)/S, ||G^k||_inf and
    ||(G^T)^k||_1 are at most 2 gamma^k however P_pi mixes (Saad, Iterative
    Methods for Sparse Linear Systems, ch. 4), so the products are capped a
    decade past 2 sqrt(S) gamma^k = _ITER_RTOL. Rounding leaves a residual
    floor near eps ||y|| / sqrt(1 - gamma^2), so the 2-norm target is
    _ITER_RTOL max(||rhs||, ||y|| / sqrt(1 - gamma)), a backward-error test.
    """
    S, gamma = b.shape[0], instance.discount
    c = gamma / (1.0 - gamma)
    rhs = b + c * b.mean() if transposed else b
    norm_rhs, noise = np.linalg.norm(rhs), 1.0 / math.sqrt(1.0 - gamma)
    cap = math.ceil(math.log(_ITER_RTOL / (20.0 * math.sqrt(S))) / math.log(gamma))
    y = rhs
    for _ in range(cap):
        product = P_pi.apply_t(y) if transposed else P_pi.apply(y, out=buffer)
        y_next = rhs + gamma * (product - y.mean())
        target = _ITER_RTOL * max(norm_rhs, noise * np.linalg.norm(y_next))
        if np.linalg.norm(y_next - y) <= target:
            return y_next if transposed else y_next + c * y_next.mean()
        y = y_next
    raise SingularSystem(f"policy system not solved to {_ITER_RTOL} in {cap} products")


def _solve(instance: DmdpInstance, P_pi: CsrMatrix, buffer, b, transposed: bool):
    """_iterate from _ITER_MIN_STATES on, LU on the dense A = I - gamma P_pi below."""
    S = instance.num_states
    if S >= _ITER_MIN_STATES:
        return _iterate(instance, P_pi, buffer, b, transposed)
    A = np.asarray(P_pi)
    A *= -instance.discount
    A.ravel()[:: S + 1] += 1.0
    try:
        return np.linalg.solve(A.T if transposed else A, b)
    except np.linalg.LinAlgError as exc:  # cannot occur for gamma < 1
        raise SingularSystem(str(exc)) from exc


def policy_evaluation(instance: DmdpInstance, policy: Policy) -> np.ndarray:
    """Value vector of a policy: the solution of (I - gamma P_pi) v = r_pi."""
    P_pi, buffer = _policy_matrix(instance, policy)
    r_pi = np.add.reduceat(policy.probs * instance.reward, instance.state_offsets)
    v = _solve(instance, P_pi, buffer, r_pi, transposed=False)
    if np.abs(v - instance.discount * P_pi.apply(v, out=buffer) - r_pi).max() > 1e-9:
        raise SingularSystem("policy evaluation residual exceeds 1e-9")
    return v


def occupancy_measure(instance: DmdpInstance, policy: Policy, q) -> np.ndarray:
    """Discounted state-action visitation distribution started from q.

    Solves (I - gamma P_pi^T) lam = (1 - gamma) q for the state occupancy and
    spreads it over actions by the policy. The result lies on the N-simplex
    and satisfies the dual LP flow constraint.
    """
    q = check_distribution(q, instance.num_states, "q")
    b = (1.0 - instance.discount) * q
    lam = _solve(instance, *_policy_matrix(instance, policy), b, transposed=True)
    mu = lam[instance.pair_state] * policy.probs
    if abs(mu.sum() - 1.0) > 1e-9 or np.any(mu < -1e-9):
        raise SingularSystem("occupancy measure left the simplex")
    return np.clip(mu, 0.0, None)
