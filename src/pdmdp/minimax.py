"""Bilinear saddle-point form of the discounted MDP linear program.

The objective couples a value vector v on a sup-norm box with an occupancy
vector mu on the simplex:

    f(v, mu) = (1 - gamma) q.v + mu.((gamma P - Ihat) v + r)

where Ihat is the N x |S| state-indicator matrix. Both inner optimizations
of the duality gap are linear, so they are evaluated in closed form at a
simplex vertex and a box corner. Products with P and P^T run over P's
nonzeros, in O(nnz) rather than O(N |S|).
"""

from __future__ import annotations

import numpy as np

from .core import DmdpInstance, InfeasiblePoint, check_distribution, check_vector

FEASIBILITY_TOL = 1e-12


def check_feasible(instance: DmdpInstance, v, mu) -> tuple[np.ndarray, np.ndarray]:
    """Validate box/simplex membership; return (v, mu), mu renormalized."""
    v = np.asarray(v, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if v.shape != (instance.num_states,) or mu.shape != (instance.num_pairs,):
        raise InfeasiblePoint("saddle point has wrong dimensions")
    # Written to fail closed: a NaN entry fails every comparison.
    if not (np.abs(v).max() <= instance.value_radius + FEASIBILITY_TOL):
        raise InfeasiblePoint("v outside the value box")
    if not (np.all(mu >= -FEASIBILITY_TOL) and abs(mu.sum() - 1.0) <= FEASIBILITY_TOL):
        raise InfeasiblePoint("mu outside the simplex")
    mu = np.clip(mu, 0.0, None)
    return v, mu / mu.sum()


def shifted_transition_apply(instance: DmdpInstance, v: np.ndarray) -> np.ndarray:
    """(gamma P - Ihat) v, a vector over state-action pairs."""
    return instance.discount * instance.transition.apply(v) - v[instance.pair_state]


def shifted_transition_apply_t(instance: DmdpInstance, mu: np.ndarray) -> np.ndarray:
    """(gamma P - Ihat)^T mu, a vector over states."""
    S = instance.num_states
    per_state = np.bincount(instance.pair_state, weights=mu, minlength=S)
    return instance.discount * instance.transition.apply_t(mu) - per_state


def lagrangian(instance: DmdpInstance, q, v, mu) -> float:
    q = check_distribution(q, instance.num_states, "q")
    v, mu = check_feasible(instance, v, mu)
    constraint = shifted_transition_apply(instance, v) + instance.reward
    return float((1.0 - instance.discount) * (q @ v) + mu @ constraint)


def exact_gradients(instance: DmdpInstance, q, v, mu):
    """True gradient pair (g_v, g_mu); no sampling involved.

    g_v is the gradient of f in v; g_mu is the negated gradient in mu, the
    direction the dual ascent side descends on.
    """
    q = check_distribution(q, instance.num_states, "q")
    v = check_vector(v, instance.num_states, "v")
    mu = check_vector(mu, instance.num_pairs, "mu")
    g_v = (1.0 - instance.discount) * q + shifted_transition_apply_t(instance, mu)
    g_mu = -shifted_transition_apply(instance, v) - instance.reward
    return g_v, g_mu


def duality_gap(instance: DmdpInstance, q, v, mu) -> float:
    """max over mu' of f(v, mu') minus min over v' of f(v', mu), closed form.

    The inner max sits at a simplex vertex, the inner min at a box corner.
    Nonnegative for every feasible point, zero exactly at a saddle point.
    """
    q = check_distribution(q, instance.num_states, "q")
    v, mu = check_feasible(instance, v, mu)
    one_minus = 1.0 - instance.discount

    constraint = shifted_transition_apply(instance, v) + instance.reward
    inner_max = one_minus * (q @ v) + float(constraint.max())

    v_coeff = one_minus * q + shifted_transition_apply_t(instance, mu)
    inner_min = float(mu @ instance.reward) - instance.value_radius * float(
        np.abs(v_coeff).sum()
    )
    return inner_max - inner_min
