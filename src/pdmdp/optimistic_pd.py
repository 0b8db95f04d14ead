"""Optimistic primal-dual mirror descent for discounted MDPs.

One engine drives both the prediction-augmented solver and the fixed-rate
baseline. Per iteration it performs, in order:

  1. draw the sparse value-side stochastic gradient and take a projected
     gradient step on the value box,
  2. draw one uniform state-action pair, fold it into the dual-side
     stochastic gradient at the current value iterate, and take an
     exponentiated step on the simplex.

Each iteration consumes exactly two generative-model transition samples.
The solver and its SMD baseline differ only on the dual side, so the loop
holds one dual object, picked once from the estimator: _DenseDual for the
history-averaged one, with or without a prediction, and _LazyDual for the
fresh one-sample one, which takes no prediction. Neither's refreshes depend
on the horizon or the checkpoints, so run(T) is a bitwise prefix of
run(T' > T). The value side's running sum costs O(S) per step.

Adaptive learning rates fold the current step's gradient into their
denominators. A zero denominator means every gradient so far was zero (or
every deviation from the predicted gradient was), so the rate is 0.0, a
no-op step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    CsrMatrix,
    DmdpInstance,
    NotStochastic,
    Policy,
    ShapeMismatch,
    build_policy,
    check_distribution,
)
from .exact import policy_evaluation
from .minimax import duality_gap
from .sampling import (
    SampleBudgetLedger,
    SumTree,
    make_streams,
    sample_cumulative,
    sample_transition,
)

# Steps between exact recomputations of the running products C @ v and E @ v,
# and between rebases of the one-coordinate dual step.
REFRESH_PERIOD = 4096
# The one-coordinate dual step rebases as soon as its total weight leaves
# [Z0 / Z_RANGE, Z0 * Z_RANGE], Z0 the total at the last rebase.
Z_RANGE = 4.0


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
    trace: list
    ledger: SampleBudgetLedger


def sampled_v_gradient(num_states, gamma, init_state, next_state, state):
    """(1 - gamma) e_init + gamma e_next - e_state, at most 3-sparse."""
    g = np.zeros(num_states)
    g[init_state] += 1.0 - gamma
    g[next_state] += gamma
    g[state] -= 1.0
    return g


def _averaged_gradient(instance, pair_counts, counts_v, t, v):
    """History-averaged dual gradient estimate at the current value vector.

    Equivalent to averaging N (v_i - gamma v_j - r_ia) e_ia over all t past
    uniform-pair samples, with the counts as sufficient statistic: pair_counts
    per pair and counts_v = C @ v for the per-triple count matrix C.
    """
    scale = instance.num_pairs / t
    base = pair_counts * (v[instance.pair_state] - instance.reward)
    return scale * (base - instance.discount * counts_v)


def _dual_gradient(instance, v, next_v):
    """v_i - gamma next_v_ia - r_ia, given the expected next values next_v."""
    return v[instance.pair_state] - instance.discount * next_v - instance.reward


def _split_columns(csc, values):
    """Per-column views of a CSC form's rows and of values in its slot order."""
    bounds = csc.starts.tolist()
    return [[a[lo:hi] for lo, hi in zip(bounds, bounds[1:])] for a in (csc.rows, values)]


def _add_columns(out, rows, values, J, dv_J):
    """out += M[:, J] @ dv_J in place, M given by per-column rows and values."""
    for j, dv in zip(J.tolist(), dv_J.tolist()):
        out[rows[j]] += values[j] * dv
    return out


def v_learning_rate(num_states, gamma, grad_sq_sum):
    """Adaptive value-side rate; 0.0, a no-op step, while every gradient was zero."""
    if grad_sq_sum <= 0.0:
        return 0.0
    return (
        (math.sqrt(2.0) / 2.0)
        * math.sqrt(num_states)
        / ((1.0 - gamma) * math.sqrt(grad_sq_sum))
    )


def mu_learning_rate(num_pairs, dev_sq_sum):
    """Adaptive dual-side rate; 0.0, a no-op step, while every deviation was zero."""
    if dev_sq_sum <= 0.0:
        return 0.0
    return (math.sqrt(2.0) / 2.0) * math.sqrt(math.log(num_pairs)) / math.sqrt(dev_sq_sum)


def update_v(v, gradient, eta, radius):
    """Projected gradient step: clamp each coordinate to [-radius, radius]."""
    return np.minimum(np.maximum(v - eta * gradient, -radius), radius)


class _DenseDual:
    """mu as a dense vector under the history-averaged dual estimator.

    The estimator reuses the whole sample history re-weighted at the current
    value iterate, which shrinks its variance like 1/t; the sufficient
    statistic is the count C of each triple, a vector over P's nonzeros (only
    mu-side draws enter it). A step costs O(N), not O(N S): the value step
    changes at most three coordinates J of v, so Cv = C @ v and, with a
    prediction E, Ev = E @ v are kept as running state. A sample (i, j) adds
    v[j] to Cv[i]; the value step adds C[:, J] @ dv_J and E[:, J] @ dv_J from
    the CSC column slices of C and E. Both are recomputed over their
    nonzeros every REFRESH_PERIOD steps, which bounds floating-point drift.
    With a prediction the step is optimistic: it moves mu against
    (g_mu - g_bar) + g_bar_next, where g_bar is the predicted gradient at the
    value iterate the estimate g_mu was taken at and g_bar_next the one at
    the next; without one the predicted gradient is zero. As in _LazyDual,
    mu is held as log weights theta and the mirror step is theta -= eta g,
    so a coordinate whose weight underflows to 0 keeps its log weight and
    can come back. The dual gradient is dense, and so are the step, the
    running sum of mu and the draw from mu.
    """

    def __init__(self, instance, prediction, v):
        n, P = instance.num_pairs, instance.transition
        self.instance, self.P, self.E = instance, P, prediction
        self.slots, self.cols = P.csc.slots, P.cols
        self.theta, self.mu, self.sum_mu = np.zeros(n), np.full(n, 1.0 / n), np.zeros(n)
        self.pair_counts, self.Cv = np.zeros(n), np.zeros(n)
        self.C = np.zeros(P.vals.size)  # in CSC slot order
        self.c_rows, self.c_values = _split_columns(P.csc, self.C)
        if prediction is not None:
            self.e_rows, self.e_values = _split_columns(prediction.csc, prediction.csc.vals)
            self.Ev = prediction.apply(v)
            self.g_bar = _dual_gradient(instance, v, self.Ev)

    def draw(self, stream):
        """Add mu to the running sum and draw the v-side pair from mu."""
        self.sum_mu += self.mu
        return sample_cumulative(self.mu.cumsum(), stream)

    def observe(self, t, pair, k, v):
        """Fold in the t-th mu-side sample, nonzero k of P at pair, and take
        the estimate at v; return the sup norm of its deviation from g_bar."""
        self.pair_counts[pair] += 1.0
        self.C[self.slots[k]] += 1.0
        self.Cv[pair] += v[self.cols[k]]
        g_mu = _averaged_gradient(self.instance, self.pair_counts, self.Cv, t, v)
        self.deviation = g_mu if self.E is None else g_mu - self.g_bar
        return float(np.abs(self.deviation).max())

    def step(self, eta, v, J, dv_J, refresh):
        """Move Cv (and Ev, g_bar) to v, changed by dv_J on J; step mu."""
        self.Cv = (np.bincount(self.P.rows, self.C[self.slots] * v[self.cols],
                               minlength=self.mu.size)
                   if refresh else _add_columns(self.Cv, self.c_rows, self.c_values, J, dv_J))
        combined = self.deviation
        if self.E is not None:
            self.Ev = (self.E.apply(v) if refresh
                       else _add_columns(self.Ev, self.e_rows, self.e_values, J, dv_J))
            self.g_bar = _dual_gradient(self.instance, v, self.Ev)
            combined = combined + self.g_bar
        self.theta -= eta * combined
        self.theta -= self.theta.max()
        w = np.exp(self.theta)
        self.mu = w / w.sum()

    def sums(self):
        return self.sum_mu


class _LazyDual:
    """mu = exp(theta) / Z under the fresh estimator, which has one nonzero.

    The fresh estimator takes one new sample (i, a, j) each step, so its dual
    gradient N (v_i - gamma v_j - r_ia) e_ia moves one coordinate of the log
    weights theta. The weights w = exp(theta) sit in a sum tree
    (sampling.SumTree) whose total is the normaliser Z, so the step and the
    v-side draw from mu = w / Z cost O(log N). The running sum of mu is added
    up lazily against a clock that gains 1 / Z each draw: coordinate i's sum
    is acc[i] + w[i] * (clock - stamp[i]), and acc[i] takes that in whenever
    w[i] changes; a checkpoint reads the sums without changing any state.
    rebase() takes every coordinate in, shifts theta by log Z, rebuilds the
    tree and restarts the clock. It runs every REFRESH_PERIOD steps, and at
    once whenever Z leaves a factor Z_RANGE of its value at the last rebase.
    That bounds the rounding in Z and in the clock at any horizon. The dual
    side does O(N) work only then and at checkpoints.
    """

    def __init__(self, instance):
        self.num_pairs, self.gamma = instance.num_pairs, instance.discount
        self.pair_state, self.reward = instance.pair_state, instance.reward
        self.cols = instance.transition.cols
        self.theta, self.acc = [0.0] * self.num_pairs, [0.0] * self.num_pairs
        self._restart(np.ones(self.num_pairs))

    def _restart(self, weights):
        self.tree = SumTree(weights)
        total = self.tree.nodes[1]
        self.z_lo, self.z_hi = total / Z_RANGE, total * Z_RANGE
        self.log_z_hi = math.log(self.z_hi)
        self.clock = 0.0
        self.stamp = [0.0] * len(self.theta)

    def draw(self, stream):
        """Add mu to the running sum (tick the clock) and draw from mu."""
        tree = self.tree
        self.clock += 1.0 / tree.nodes[1]
        return tree.sample(stream)

    def observe(self, t, pair, k, v):
        """Take the one-sample gradient at pair, nonzero k of P; return |g|."""
        self.pair = pair
        self.g = g = float(self.num_pairs * (
            v[self.pair_state[pair]] - self.gamma * v[self.cols[k]] - self.reward[pair]))
        return abs(g)

    def step(self, eta, v, J, dv_J, refresh):
        """theta[pair] -= eta g; v does not enter."""
        if eta:
            i, theta, tree = self.pair, self.theta, self.tree
            theta[i] -= eta * self.g
            if theta[i] > self.log_z_hi:  # exp(theta[i]) alone is above the range
                self.rebase()
            else:
                self.acc[i] += tree.nodes[tree.size + i] * (self.clock - self.stamp[i])
                self.stamp[i] = self.clock
                tree.set(i, math.exp(theta[i]))
                if not self.z_lo <= tree.nodes[1] <= self.z_hi:
                    self.rebase()
        if refresh:
            self.rebase()

    def sums(self):
        """The running sum of mu over the draws so far; changes no state."""
        return np.array(self.acc) + self.tree.weights() * (self.clock - np.array(self.stamp))

    def rebase(self):
        self.acc = self.sums().tolist()
        theta = np.array(self.theta)
        top = theta.max()
        theta -= top + math.log(np.exp(theta - top).sum())
        self.theta = theta.tolist()
        self._restart(np.exp(theta))


def extract_policy(instance: DmdpInstance, mu_bar) -> Policy:
    """Per-state renormalization of an occupancy vector into a policy.

    The entries must be finite and nonnegative; their sum need not be 1.
    States carrying zero occupancy mass fall back to uniform over actions.
    """
    mu_bar = np.asarray(mu_bar, dtype=float)
    if mu_bar.shape != (instance.num_pairs,):
        raise ShapeMismatch(f"mu_bar must have length {instance.num_pairs}, got {mu_bar.shape}")
    if not np.all((mu_bar >= 0.0) & (mu_bar < math.inf)):
        raise NotStochastic("mu_bar entries must be finite and nonnegative")
    mass = np.add.reduceat(mu_bar, instance.state_offsets)[instance.pair_state]
    uniform = 1.0 / np.array(instance.actions_per_state)[instance.pair_state]
    probs = np.divide(mu_bar, mass, out=uniform, where=mass > 0.0)
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
    prediction: CsrMatrix | None,
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
    sample each step, without a prediction). fixed_rates=(eta_v, eta_mu)
    replaces the adaptive schedule; the baseline solver is exactly this
    engine with prediction removed, fresh estimator, and fixed rates.
    """
    for name, value in (("horizon", horizon), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if mu_estimator not in ("averaged", "fresh"):
        raise ValueError(f"unknown mu_estimator {mu_estimator!r}")
    if mu_estimator == "fresh" and prediction is not None:
        raise ValueError("the fresh estimator takes no prediction")
    if fixed_rates is not None:
        for eta in fixed_rates:
            if not (0.0 < eta < math.inf):
                raise ValueError(f"fixed rates must be finite and positive, got {eta!r}")
    q = check_distribution(q, instance.num_states, "q")
    if prediction is not None and prediction.shape != instance.transition.shape:
        raise ShapeMismatch(
            f"prediction must be {instance.transition.shape}, got {prediction.shape}"
        )

    num_states = instance.num_states
    num_pairs = instance.num_pairs
    gamma = instance.discount
    radius = instance.value_radius
    pair_state = instance.pair_state
    P = instance.transition

    streams = make_streams(seed)
    v_stream = streams["v-side"]
    mu_stream = streams["mu-side"]
    q_stream = streams["initial-state"]
    ledger = SampleBudgetLedger.for_instance(instance)
    # Lists, so that the fixed distributions' draws bisect floats, not numpy scalars.
    q_cumsum = np.cumsum(q).tolist()
    pair_cumsum = np.cumsum(np.full(num_pairs, 1.0 / num_pairs)).tolist()

    v = np.zeros(num_states)
    averaged = mu_estimator == "averaged"
    dual = _DenseDual(instance, prediction, v) if averaged else _LazyDual(instance)
    draw, observe, dual_step = dual.draw, dual.observe, dual.step
    eta_v, eta_mu = fixed_rates or (0.0, 0.0)
    sum_v = np.zeros(num_states)
    v_grad_sq_sum = 0.0
    mu_dev_sq_sum = 0.0

    checkpoint_set = set(default_checkpoints(horizon) if checkpoints is None else checkpoints)
    trace = []
    start = time.perf_counter()

    for t in range(1, horizon + 1):
        sum_v += v
        pair = draw(v_stream)

        # Value side: sparse stochastic gradient, projected step on its support J.
        next_state = P.cols[sample_transition(instance, pair, v_stream, ledger)]
        init_state = sample_cumulative(q_cumsum, q_stream)
        g_v = sampled_v_gradient(num_states, gamma, init_state, next_state, pair_state[pair])
        v_grad_sq_sum += float(g_v @ g_v)
        if fixed_rates is None:
            eta_v = v_learning_rate(num_states, gamma, v_grad_sq_sum)
        J = g_v.nonzero()[0]
        old_v_J = v[J]
        v_J = update_v(old_v_J, g_v[J], eta_v, radius)
        dv_J = v_J - old_v_J

        # Dual side: one new uniform pair, estimator at the current v, then
        # the step with v moved to v_next.
        pair2 = sample_cumulative(pair_cumsum, mu_stream)
        k2 = sample_transition(instance, pair2, mu_stream, ledger)
        mu_dev_sq_sum += observe(t, pair2, k2, v) ** 2
        if fixed_rates is None:
            eta_mu = mu_learning_rate(num_pairs, mu_dev_sq_sum)
        v[J] = v_J
        dual_step(eta_mu, v, J, dv_J, t % REFRESH_PERIOD == 0)

        if t in checkpoint_set:
            v_bar = sum_v / t
            mu_bar = dual.sums() / t
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

    return RunOutput(sum_v / horizon, dual.sums() / horizon, trace, ledger)
