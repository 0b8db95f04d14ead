"""Optimistic primal-dual mirror descent for discounted MDPs.

One engine drives both the prediction-augmented solver and the fixed-rate
baseline. Per iteration it performs, in order:

  1. draw the sparse value-side stochastic gradient and take a projected
     gradient step on the value box,
  2. draw one uniform state-action pair, fold it into the running sample
     memory, form the dual-side stochastic gradient at the current value
     iterate, and take an optimistic exponentiated step on the simplex.

Each iteration consumes exactly two generative-model transition samples.
The dual-side estimator reuses the whole sample history re-weighted at the
current value iterate, which shrinks its variance like 1/t; the sufficient
statistic is the per-triple count matrix C, not a sample list.

A step costs O(N), not O(N S): it changes at most three coordinates J of v,
so the engine keeps Cv = C @ v (averaged estimator) and Ev = E @ v (with a
prediction E) as running state. A sample (i, j) adds v[j] to Cv[i]; the value
step adds C[:, J] @ dv_J and E[:, J] @ dv_J. Both are recomputed exactly every
REFRESH_PERIOD steps, which bounds floating-point drift on a schedule that
does not depend on the horizon, so run(T) is a bitwise prefix of run(T' > T).
The fresh estimator without a prediction keeps neither product.

Adaptive learning rates fold the current step's gradient into their
denominators. A zero denominator means every gradient so far was zero (or
every deviation from the predicted gradient was), so the update is a no-op.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    DmdpInstance,
    Policy,
    PredictionMatrix,
    ShapeMismatch,
    build_policy,
    check_distribution,
)
from .exact import policy_evaluation
from .minimax import duality_gap
from .sampling import (
    SampleBudgetLedger,
    make_streams,
    sample_cumulative,
    sample_transition,
)

# Steps between exact recomputations of the running products C @ v and E @ v.
REFRESH_PERIOD = 4096


@dataclass(frozen=True)
class TracePoint:
    step: int
    transition_samples: int
    gap: float
    value: float
    averaged_v: np.ndarray
    averaged_mu: np.ndarray
    wall_time: float


@dataclass(frozen=True)
class RunOutput:
    averaged_v: np.ndarray
    averaged_mu: np.ndarray
    policy: Policy
    trace: list
    ledger: SampleBudgetLedger


def sampled_v_gradient(num_states, gamma, init_state, next_state, state):
    """(1 - gamma) e_init + gamma e_next - e_state, at most 3-sparse."""
    g = np.zeros(num_states)
    g[init_state] += 1.0 - gamma
    g[next_state] += gamma
    g[state] -= 1.0
    return g


def mu_gradient_from_counts(instance, pair_counts, triple_counts, t, v):
    """History-averaged dual gradient estimate at the current value vector.

    Equivalent to averaging N (v_i - gamma v_j - r_ia) e_ia over all t past
    uniform-pair samples, with the counts as sufficient statistic.
    """
    return _averaged_gradient(instance, pair_counts, triple_counts @ v, t, v)


def _averaged_gradient(instance, pair_counts, counts_v, t, v):
    """mu_gradient_from_counts given the product counts_v = triple_counts @ v."""
    scale = instance.num_pairs / t
    base = pair_counts * (v[instance.pair_state] - instance.reward)
    return scale * (base - instance.discount * counts_v)


def fresh_mu_gradient(instance, pair, next_state, v):
    """Single-sample dual gradient estimate (no history averaging)."""
    g = np.zeros(instance.num_pairs)
    state = instance.pair_state[pair]
    g[pair] = instance.num_pairs * (
        v[state] - instance.discount * v[next_state] - instance.reward[pair]
    )
    return g


def predicted_mu_gradient(instance, prediction: PredictionMatrix, v):
    """Deterministic proxy for the next dual gradient, from the prediction."""
    v = np.asarray(v, dtype=float)
    return _dual_gradient(instance, v, prediction.entries @ v)


def _dual_gradient(instance, v, next_v):
    """v_i - gamma next_v_ia - r_ia, given the expected next values next_v."""
    return v[instance.pair_state] - instance.discount * next_v - instance.reward


def v_learning_rate(num_states, gamma, grad_sq_sum):
    """Adaptive value-side rate; None signals a no-op update."""
    if grad_sq_sum <= 0.0:
        return None
    return (
        (math.sqrt(2.0) / 2.0)
        * math.sqrt(num_states)
        / ((1.0 - gamma) * math.sqrt(grad_sq_sum))
    )


def mu_learning_rate(num_pairs, dev_sq_sum):
    """Adaptive dual-side rate; None signals a no-op update."""
    if dev_sq_sum <= 0.0:
        return None
    return (math.sqrt(2.0) / 2.0) * math.sqrt(math.log(num_pairs)) / math.sqrt(dev_sq_sum)


def update_v(v, gradient, eta, radius):
    """Projected gradient step: clamp each coordinate to [-radius, radius]."""
    if eta is None:
        return v.copy()
    return np.minimum(np.maximum(v - eta * gradient, -radius), radius)


def update_mu(mu, combined_gradient, eta):
    """Exponentiated step on the simplex, stabilized by max-subtraction."""
    if eta is None or eta == 0.0:
        return mu.copy()
    exponent = -eta * combined_gradient
    exponent -= exponent.max()
    w = mu * np.exp(exponent)
    return w / w.sum()


def extract_policy(instance: DmdpInstance, mu_bar) -> Policy:
    """Per-state renormalization of an occupancy vector into a policy.

    States carrying zero occupancy mass fall back to uniform over actions.
    """
    mu_bar = np.asarray(mu_bar, dtype=float)
    mass = np.add.reduceat(mu_bar, instance.state_offsets)
    probs = np.empty(instance.num_pairs)
    for state, count in enumerate(instance.actions_per_state):
        off = int(instance.state_offsets[state])
        block = mu_bar[off : off + count]
        if mass[state] > 0.0:
            probs[off : off + count] = block / mass[state]
        else:
            probs[off : off + count] = 1.0 / count
    return build_policy(instance, probs)


def default_checkpoints(horizon: int) -> list:
    """Geometric schedule (powers of 1.5) plus the final step."""
    points = set()
    step = 1.0
    while step <= horizon:
        points.add(int(round(step)))
        step *= 1.5
    points.add(horizon)
    return sorted(p for p in points if 1 <= p <= horizon)


def run(
    instance: DmdpInstance,
    prediction: PredictionMatrix | None,
    q,
    horizon: int,
    seed: int,
    checkpoints=None,
    *,
    mu_estimator: str = "averaged",
    fixed_rates: tuple[float, float] | None = None,
) -> RunOutput:
    """Execute the primal-dual loop for `horizon` iterations.

    prediction=None drops the optimistic term (predicted gradient held at
    zero). mu_estimator is "averaged" (history reuse) or "fresh" (one new
    sample each step). fixed_rates=(eta_v, eta_mu) replaces the adaptive
    schedule; the baseline solver is exactly this engine with prediction
    removed, fresh estimator, and fixed rates.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if mu_estimator not in ("averaged", "fresh"):
        raise ValueError(f"unknown mu_estimator {mu_estimator!r}")
    q = check_distribution(q, instance.num_states, "q")
    if prediction is not None and prediction.entries.shape != instance.transition.shape:
        raise ShapeMismatch(
            f"prediction must be {instance.transition.shape}, "
            f"got {prediction.entries.shape}"
        )

    num_states = instance.num_states
    num_pairs = instance.num_pairs
    gamma = instance.discount
    radius = instance.value_radius
    pair_state = instance.pair_state
    averaged = mu_estimator == "averaged"

    streams = make_streams(seed)
    v_stream = streams["v-side"]
    mu_stream = streams["mu-side"]
    q_stream = streams["initial-state"]
    ledger = SampleBudgetLedger.for_instance(instance)
    q_cumsum = np.cumsum(q)
    pair_cumsum = np.cumsum(np.full(num_pairs, 1.0 / num_pairs))

    v = np.zeros(num_states)
    mu = np.full(num_pairs, 1.0 / num_pairs)
    if prediction is not None:
        E = prediction.entries
        Ev = E @ v
        g_bar = _dual_gradient(instance, v, Ev)
    else:
        g_bar = np.zeros(num_pairs)

    sum_v = np.zeros(num_states)
    sum_mu = np.zeros(num_pairs)
    v_grad_sq_sum = 0.0
    mu_dev_sq_sum = 0.0

    checkpoint_set = set(checkpoints) if checkpoints is not None else set(
        default_checkpoints(horizon)
    )
    trace = []
    start = time.perf_counter()

    # Dual-side sample memory: only mu-side draws enter these counts. C is
    # float and column-major, so C[:, J] is a contiguous gather; Cv = C @ v.
    if averaged:
        pair_counts = np.zeros(num_pairs)
        C = np.zeros((num_pairs, num_states), order="F")
        Cv = np.zeros(num_pairs)

    for t in range(1, horizon + 1):
        sum_v += v
        sum_mu += mu

        # Value side: sparse stochastic gradient, projected step on its support J.
        pair = sample_cumulative(mu.cumsum(), v_stream)
        next_state = sample_transition(instance, pair, v_stream, ledger)
        init_state = sample_cumulative(q_cumsum, q_stream)
        g_v = sampled_v_gradient(num_states, gamma, init_state, next_state, pair_state[pair])
        v_grad_sq_sum += float(g_v @ g_v)
        if fixed_rates is not None:
            eta_v = fixed_rates[0]
        else:
            eta_v = v_learning_rate(num_states, gamma, v_grad_sq_sum)
        J = g_v.nonzero()[0]
        old_v_J = v[J]
        v_J = update_v(old_v_J, g_v[J], eta_v, radius)
        dv_J = v_J - old_v_J

        # Dual side: one new uniform pair, estimator at the current v.
        pair2 = sample_cumulative(pair_cumsum, mu_stream)
        next2 = sample_transition(instance, pair2, mu_stream, ledger)
        if averaged:
            pair_counts[pair2] += 1.0
            C[pair2, next2] += 1.0
            Cv[pair2] += v[next2]
            g_mu = _averaged_gradient(instance, pair_counts, Cv, t, v)
        else:
            g_mu = fresh_mu_gradient(instance, pair2, next2, v)

        # Move v to v_next and the running products with it.
        v[J] = v_J
        refresh = t % REFRESH_PERIOD == 0
        if averaged:
            Cv = C @ v if refresh else Cv + C[:, J] @ dv_J
        if prediction is not None:
            Ev = E @ v if refresh else Ev + E[:, J] @ dv_J
            g_bar_next = _dual_gradient(instance, v, Ev)
        else:
            g_bar_next = g_bar  # stays zero
        deviation = g_mu - g_bar
        mu_dev_sq_sum += float(np.abs(deviation).max()) ** 2
        if fixed_rates is not None:
            eta_mu = fixed_rates[1]
        else:
            eta_mu = mu_learning_rate(num_pairs, mu_dev_sq_sum)
        mu = update_mu(mu, deviation + g_bar_next, eta_mu)
        g_bar = g_bar_next

        if t in checkpoint_set:
            v_bar = sum_v / t
            mu_bar = sum_mu / t
            pol = extract_policy(instance, mu_bar)
            trace.append(
                TracePoint(
                    step=t,
                    transition_samples=ledger.transition_samples,
                    gap=duality_gap(instance, q, v_bar, mu_bar),
                    value=float(q @ policy_evaluation(instance, pol)),
                    averaged_v=v_bar,
                    averaged_mu=mu_bar,
                    wall_time=time.perf_counter() - start,
                )
            )

    averaged_v = sum_v / horizon
    averaged_mu = sum_mu / horizon
    return RunOutput(
        averaged_v=averaged_v,
        averaged_mu=averaged_mu,
        policy=extract_policy(instance, averaged_mu),
        trace=trace,
        ledger=ledger,
    )
