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
statistic is the count C of each triple, a vector over P's nonzeros.

With the averaged estimator or a prediction, a step costs O(N), not O(N S):
it changes at most three coordinates J of v, so the engine keeps Cv = C @ v
(averaged estimator) and Ev = E @ v (with a prediction E) as running state.
A sample (i, j) adds v[j] to Cv[i]; the value step adds C[:, J] @ dv_J and
E[:, J] @ dv_J from the CSC column slices of C and E. Both are recomputed
over their nonzeros every REFRESH_PERIOD steps, which bounds floating-point
drift on a schedule that does not depend on the horizon, so run(T) is a
bitwise prefix of run(T' > T). The dual gradient is then dense, and so is
the mirror step (update_mu), its running sum and the draw from mu.

The fresh estimator without a prediction, the SMD baseline, keeps neither
product, and its dual gradient has one nonzero, so one coordinate of the
log weights theta moves per step (_LazyDual). The weights exp(theta) sit in
a sum tree (sampling.SumTree) whose total is the normaliser Z, so the step
and the v-side draw from mu = exp(theta) / Z cost O(log N). The running sum
of mu is added up lazily against a clock that gains 1 / Z each step: a
coordinate's share of the sum is folded in only when its weight changes, or
when a checkpoint reads the averages, which changes no state. Every
REFRESH_PERIOD steps, and at once whenever Z leaves a factor Z_RANGE of its
value at the last rebase, every coordinate is flushed, theta is shifted by
log Z, and the tree and clock restart. That bounds the rounding in Z and in
the clock at any horizon, and neither trigger depends on the horizon or the
checkpoints, so run(T) stays a bitwise prefix of run(T' > T). The dual side
of this step does O(N) work only then and at checkpoints; the value side's
running sum costs O(S) per step on either path.

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
    CsrMatrix,
    DmdpInstance,
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


def fresh_mu_gradient(instance, pair, next_state, v):
    """Single-sample dual gradient estimate (no history averaging)."""
    g = np.zeros(instance.num_pairs)
    state = instance.pair_state[pair]
    g[pair] = instance.num_pairs * (
        v[state] - instance.discount * v[next_state] - instance.reward[pair]
    )
    return g


def _dual_gradient(instance, v, next_v):
    """v_i - gamma next_v_ia - r_ia, given the expected next values next_v."""
    return v[instance.pair_state] - instance.discount * next_v - instance.reward


def _split_columns(rows, values, pointers):
    """Per-column views of a CSC matrix's rows and values."""
    bounds = pointers.tolist()
    return [[a[lo:hi] for lo, hi in zip(bounds, bounds[1:])] for a in (rows, values)]


def _add_columns(out, rows, values, J, dv_J):
    """out += M[:, J] @ dv_J in place, M given by per-column rows and values."""
    for j, dv in zip(J.tolist(), dv_J.tolist()):
        out[rows[j]] += values[j] * dv
    return out


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
    """Exponentiated step on the simplex, stabilized by max-subtraction.

    If the largest exponent belongs to coordinates without mass, every
    weight can underflow; only then is the shift the largest exponent among
    the coordinates with mass.
    """
    if eta is None or eta == 0.0:
        return mu.copy()
    exponent = -eta * combined_gradient
    exponent -= exponent.max()
    w = mu * np.exp(exponent)
    total = w.sum()
    if not total > 0.0:
        mass = mu > 0.0
        exponent = exponent[mass]
        w = np.zeros_like(mu)
        w[mass] = mu[mass] * np.exp(exponent - exponent.max())
        total = w.sum()
    return w / total


class _LazyDual:
    """mu = exp(theta) / Z under a dual gradient with one nonzero per step.

    tick() adds mu to the running sum: the clock gains 1 / Z, and coordinate
    i's sum is acc[i] + w[i] * (clock - stamp[i]), w = exp(theta) the tree's
    leaves; acc[i] takes that in whenever w[i] changes. rebase() takes every
    coordinate in, shifts theta by log Z, rebuilds the tree and restarts the
    clock.
    """

    def __init__(self, num_pairs):
        self.theta = [0.0] * num_pairs
        self.acc = [0.0] * num_pairs
        self._restart(np.ones(num_pairs))

    def _restart(self, weights):
        self.tree = SumTree(weights)
        total = self.tree.nodes[1]
        self.z_lo, self.z_hi = total / Z_RANGE, total * Z_RANGE
        self.log_z_hi = math.log(self.z_hi)
        self.clock = 0.0
        self.stamp = [0.0] * len(self.theta)

    def tick(self):
        self.clock += 1.0 / self.tree.nodes[1]

    def step(self, i, delta):
        """theta[i] += delta."""
        theta = self.theta
        theta[i] += delta
        if theta[i] > self.log_z_hi:  # exp(theta[i]) alone is above the range
            self.rebase()
            return
        tree = self.tree
        self.acc[i] += tree.nodes[tree.size + i] * (self.clock - self.stamp[i])
        self.stamp[i] = self.clock
        tree.set(i, math.exp(theta[i]))
        if not self.z_lo <= tree.nodes[1] <= self.z_hi:
            self.rebase()

    def sums(self):
        """The running sum of mu over the ticks so far; changes no state."""
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

    States carrying zero occupancy mass fall back to uniform over actions.
    """
    mu_bar = np.asarray(mu_bar, dtype=float)
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
    sample each step). fixed_rates=(eta_v, eta_mu) replaces the adaptive
    schedule; the baseline solver is exactly this engine with prediction
    removed, fresh estimator, and fixed rates.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if mu_estimator not in ("averaged", "fresh"):
        raise ValueError(f"unknown mu_estimator {mu_estimator!r}")
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
    reward = instance.reward
    averaged = mu_estimator == "averaged"
    # The fresh estimator without a prediction has one nonzero: _LazyDual's step.
    lazy = prediction is None and not averaged

    streams = make_streams(seed)
    v_stream = streams["v-side"]
    mu_stream = streams["mu-side"]
    q_stream = streams["initial-state"]
    ledger = SampleBudgetLedger.for_instance(instance)
    # Lists, so that the fixed distributions' draws bisect floats, not numpy scalars.
    q_cumsum = np.cumsum(q).tolist()
    pair_cumsum = np.cumsum(np.full(num_pairs, 1.0 / num_pairs)).tolist()

    v = np.zeros(num_states)
    if lazy:
        dual = _LazyDual(num_pairs)
    else:
        mu = np.full(num_pairs, 1.0 / num_pairs)
        sum_mu = np.zeros(num_pairs)
    if prediction is not None:
        E = prediction
        e_rows, e_values = _split_columns(E.csc.rows, E.csc.vals, E.csc.starts)
        Ev = E.apply(v)
        g_bar = _dual_gradient(instance, v, Ev)

    sum_v = np.zeros(num_states)
    v_grad_sq_sum = 0.0
    mu_dev_sq_sum = 0.0

    checkpoint_set = set(checkpoints) if checkpoints is not None else set(
        default_checkpoints(horizon)
    )
    trace = []
    start = time.perf_counter()

    # Dual-side sample memory: only mu-side draws enter these counts. C holds
    # the count of each nonzero of P in its CSC slot; Cv = C @ v.
    P = instance.transition
    if averaged:
        rows, slots = P.rows, P.csc.slots
        pair_counts = np.zeros(num_pairs)
        C = np.zeros(slots.size)
        c_rows, c_values = _split_columns(P.csc.rows, C, P.csc.starts)
        Cv = np.zeros(num_pairs)

    for t in range(1, horizon + 1):
        sum_v += v
        if lazy:
            dual.tick()
            pair = dual.tree.sample(v_stream)
        else:
            sum_mu += mu
            pair = sample_cumulative(mu.cumsum(), v_stream)

        # Value side: sparse stochastic gradient, projected step on its support J.
        next_state = P.cols[sample_transition(instance, pair, v_stream, ledger)]
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
        k2 = sample_transition(instance, pair2, mu_stream, ledger)
        next2 = P.cols[k2]
        if averaged:
            pair_counts[pair2] += 1.0
            C[slots[k2]] += 1.0
            Cv[pair2] += v[next2]
            g_mu = _averaged_gradient(instance, pair_counts, Cv, t, v)
        elif lazy:  # fresh_mu_gradient's one nonzero
            g = float(num_pairs * (v[pair_state[pair2]] - gamma * v[next2] - reward[pair2]))
        else:
            g_mu = fresh_mu_gradient(instance, pair2, next2, v)

        # Move v to v_next and the running products with it.
        v[J] = v_J
        refresh = t % REFRESH_PERIOD == 0
        if averaged:
            Cv = (np.bincount(rows, C[slots] * v[P.cols], minlength=num_pairs)
                  if refresh else _add_columns(Cv, c_rows, c_values, J, dv_J))
        if prediction is not None:
            Ev = E.apply(v) if refresh else _add_columns(Ev, e_rows, e_values, J, dv_J)
            deviation = g_mu - g_bar
            g_bar = _dual_gradient(instance, v, Ev)
            combined = deviation + g_bar
        elif not lazy:
            deviation = combined = g_mu  # the predicted gradient is zero
        mu_dev_sq_sum += (abs(g) if lazy else float(np.abs(deviation).max())) ** 2
        if fixed_rates is not None:
            eta_mu = fixed_rates[1]
        else:
            eta_mu = mu_learning_rate(num_pairs, mu_dev_sq_sum)
        if lazy:
            if eta_mu is not None:
                dual.step(pair2, -eta_mu * g)
            if refresh:
                dual.rebase()
        else:
            mu = update_mu(mu, combined, eta_mu)

        if t in checkpoint_set:
            v_bar = sum_v / t
            mu_bar = (dual.sums() if lazy else sum_mu) / t
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

    sum_mu = dual.sums() if lazy else sum_mu
    return RunOutput(sum_v / horizon, sum_mu / horizon, trace, ledger)
