"""Full-knowledge oracles: value iteration, policy evaluation, occupancy measures.

These are the ground-truth references for the sampling-based solvers. P_pi
is assembled from the transition's nonzeros in O(nnz) and P v is summed over
them. Policy evaluation and occupancy measures solve I - gamma P_pi by a
fixed-point iteration on a rank-one shift of it from 400 states on, and with
the LU below that size or when the iteration converges too slowly; see _solve.
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

# The fixed-point iteration of _solve: smallest system size, most dense
# products, products before the hand-over may fire, relative residual to reach.
_ITER_MIN_STATES = 400
_ITER_MAX_PRODUCTS = 32
_ITER_WARMUP = 4
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


def _policy_matrices(instance: DmdpInstance, policy: Policy):
    """Collapse pair-indexed P and r to state-indexed P_pi (SxS) and r_pi."""
    P, S = instance.transition, instance.num_states
    weights = policy.probs[P.rows] * P.vals
    P_pi = np.bincount(instance.nonzero_flat, weights=weights, minlength=S * S)
    r_pi = np.add.reduceat(policy.probs * instance.reward, instance.state_offsets)
    return P_pi.reshape(S, S), r_pi


def _system_matrix(instance: DmdpInstance, policy: Policy):
    """A = I - gamma P_pi, formed in place on P_pi, and r_pi."""
    A, r_pi = _policy_matrices(instance, policy)
    A *= -instance.discount
    A.ravel()[:: instance.num_states + 1] += 1.0
    return A, r_pi


def _solve(A: np.ndarray, b: np.ndarray, discount: float, transposed: bool):
    """Solve A x = b, or A^T x = b if transposed, for A = I - gamma P_pi.

    Every eigenvalue of A lies within gamma of 1. A 1 = (1 - gamma) 1, and
    adding gamma 11^T/S moves that eigenvalue to 1 and leaves the others as
    they are (Brauer's theorem; the same holds for A^T, whose left eigenvector
    1 is). The fixed-point iteration y <- y + (b - B y) on that shifted matrix
    B therefore contracts at gamma |lambda_2(P_pi)| instead of gamma, and the
    shift is undone exactly, with c = gamma / (1 - gamma): x = y + c mean(y) 1,
    and for A^T the right-hand side b + c mean(b) 1 (1^T A^T x = (1 - gamma)
    1^T x). Each step forms the true residual with one dense product. When
    P_pi mixes fast, lambda_2 is small and the iteration reaches a relative
    residual of _ITER_RTOL within _ITER_MAX_PRODUCTS products, each O(S^2)
    against the O(S^3) LU, which runs below _ITER_MIN_STATES. On a disc of
    eigenvalues centred at 1, (1 - z)^k is already the best residual
    polynomial (Zarantonello's lemma; Saad, Iterative Methods for Sparse
    Linear Systems, ch. 6), so a Krylov method over the same products would
    gain less than a factor 2 in the residual. Without enough mixing the
    residual falls too slowly to reach the target within _ITER_MAX_PRODUCTS;
    the solve judges the rate from _ITER_WARMUP products on (the first only
    takes out the mean of b, which the shift made an eigenvector direction)
    and hands over to the LU.
    """
    M = A.T if transposed else A
    if b.shape[0] >= _ITER_MIN_STATES:
        c = discount / (1.0 - discount)
        rhs = b + c * b.mean() if transposed else b
        target = _ITER_RTOL * np.linalg.norm(rhs)
        y, residuals = rhs.copy(), [np.linalg.norm(rhs)]
        for k in range(1, _ITER_MAX_PRODUCTS + 1):
            r = rhs - M @ y - discount * y.mean()
            residuals.append(np.linalg.norm(r))
            if residuals[-1] <= target:
                return y if transposed else y + c * y.mean()
            if k >= _ITER_WARMUP:
                # Hand over once the mean reduction over the last three
                # steps, kept up until the cap, would not reach the target.
                rate = (residuals[-1] / residuals[-4]) ** (1 / 3)
                if residuals[-1] * rate ** (_ITER_MAX_PRODUCTS - k) > target:
                    break
            y += r
    try:
        return np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:  # cannot occur for gamma < 1
        raise SingularSystem(str(exc)) from exc


def policy_evaluation(instance: DmdpInstance, policy: Policy) -> np.ndarray:
    """Value vector of a policy: the solution of (I - gamma P_pi) v = r_pi."""
    A, r_pi = _system_matrix(instance, policy)
    v = _solve(A, r_pi, instance.discount, transposed=False)
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
    A, _ = _system_matrix(instance, policy)
    lam = _solve(A, (1.0 - instance.discount) * q, instance.discount, transposed=True)
    mu = lam[instance.pair_state] * policy.probs
    if abs(mu.sum() - 1.0) > 1e-9 or np.any(mu < -1e-9):
        raise SingularSystem("occupancy measure left the simplex")
    return np.clip(mu, 0.0, None)
