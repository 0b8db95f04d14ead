"""Model definitions: discounted MDP instances, pair indexing, predictions.

Every vector over state-action pairs (rewards, occupancy measures, gradients)
uses one canonical flat layout: state-major, actions in declared order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Absolute per-row tolerance for stochasticity checks. A row is accepted when
# the exact sum of its given entries is within this tolerance of 1, and is then
# renormalized, which absorbs decimal-literal rounding in hand-written
# instances. Rows with non-finite entries are rejected.
STOCHASTIC_TOL = 1e-12


class DmdpError(ValueError):
    """Base class for model validation errors."""


class ShapeMismatch(DmdpError):
    pass


class NotStochastic(DmdpError):
    pass


class RewardOutOfRange(DmdpError):
    pass


class DiscountOutOfRange(DmdpError):
    pass


class OutOfRange(DmdpError):
    pass


class DegenerateWeights(DmdpError):
    pass


class InfeasiblePoint(DmdpError):
    pass


class SingularSystem(DmdpError):
    pass


class SpecOutOfRange(DmdpError):
    pass


def _first_bad_sum(sums: np.ndarray, lengths, group) -> int | None:
    """Index of the first group whose entries do not sum to 1, else None.

    ``sums[i]`` is the float sum of the ``lengths[i]`` non-negative entries
    ``group(i)``. A group passes when the exact sum of its entries is within
    STOCHASTIC_TOL of 1; a NaN sum fails. The float sum is off from the exact
    one by less than n*eps*sum, so only groups whose computed deviation lies
    that close to the tolerance are summed again exactly with math.fsum.
    """
    dev = np.abs(sums - 1.0)
    bad = ~(dev <= STOCHASTIC_TOL)
    near = np.abs(dev - STOCHASTIC_TOL) <= lengths * np.finfo(float).eps * sums
    for i in np.flatnonzero(near):
        entries = group(i).tolist()
        # Signs of correctly rounded sums are exact: -tol <= sum - 1 <= tol.
        bad[i] = not (
            math.fsum(entries + [-1.0, -STOCHASTIC_TOL])
            <= 0.0
            <= math.fsum(entries + [-1.0, STOCHASTIC_TOL])
        )
    return int(np.argmax(bad)) if bad.any() else None


def _validate_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """Check rows are probability distributions and renormalize exactly."""
    if np.any(rows < 0) or np.any(rows > 1):
        raise NotStochastic(f"{what}: entries must lie in [0, 1]")
    sums = rows.sum(axis=1)
    bad = _first_bad_sum(sums, rows.shape[1], lambda i: rows[i])
    if bad is not None:
        raise NotStochastic(f"{what}: row {bad} sums to {sums[bad]!r}")
    return rows / sums[:, None]


@dataclass(frozen=True)
class DmdpInstance:
    """A finite discounted MDP with a flat state-action pair layout.

    transition has one row per state-action pair (N rows total, state-major)
    and one column per state. reward is length N with entries in [0, 1].
    Immutable after construction; build via :func:`build_instance`.
    """

    num_states: int
    actions_per_state: tuple[int, ...]
    transition: np.ndarray
    reward: np.ndarray
    discount: float

    @property
    def num_pairs(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def state_offsets(self) -> np.ndarray:
        """Flat index of the first action of each state, length |S|."""
        return np.concatenate(([0], np.cumsum(self.actions_per_state[:-1]))).astype(
            np.intp
        )

    @cached_property
    def pair_state(self) -> np.ndarray:
        """Map flat pair index -> state id, length N."""
        return np.repeat(np.arange(self.num_states), self.actions_per_state)

    @cached_property
    def row_cumsum(self) -> np.ndarray:
        """Per-row cumulative transition probabilities, for inverse-CDF draws."""
        return np.cumsum(self.transition, axis=1)

    @property
    def value_radius(self) -> float:
        """Box radius (1 - discount)^-1 bounding any value vector."""
        return 1.0 / (1.0 - self.discount)


def build_instance(num_states, actions_per_state, transition, reward, discount):
    """Validate raw arrays and construct an immutable DmdpInstance."""
    actions = tuple(int(a) for a in actions_per_state)
    if len(actions) != num_states or num_states < 1:
        raise ShapeMismatch(
            f"expected {num_states} per-state action counts, got {len(actions)}"
        )
    if any(a < 1 for a in actions):
        raise ShapeMismatch("every state needs at least one action")
    n_pairs = sum(actions)

    P = np.array(transition, dtype=float)
    if P.shape != (n_pairs, num_states):
        raise ShapeMismatch(
            f"transition must be {(n_pairs, num_states)}, got {P.shape}"
        )
    P = _validate_rows(P, "transition")

    r = np.array(reward, dtype=float)
    if r.shape != (n_pairs,):
        raise ShapeMismatch(f"reward must have length {n_pairs}, got {r.shape}")
    if not np.all((r >= 0) & (r <= 1)):
        raise RewardOutOfRange("rewards must lie in [0, 1]")

    gamma = float(discount)
    if not (0.0 < gamma < 1.0):
        raise DiscountOutOfRange(f"discount must be in (0, 1), got {gamma}")

    P.flags.writeable = False
    r.flags.writeable = False
    return DmdpInstance(num_states, actions, P, r, gamma)


@dataclass(frozen=True)
class PredictionMatrix:
    """A row-stochastic guess of the transition matrix, same shape as P."""

    entries: np.ndarray


def build_prediction(instance: DmdpInstance, entries) -> PredictionMatrix:
    E = np.array(entries, dtype=float)
    if E.shape != instance.transition.shape:
        raise ShapeMismatch(
            f"prediction must be {instance.transition.shape}, got {E.shape}"
        )
    E = _validate_rows(E, "prediction")
    E.flags.writeable = False
    return PredictionMatrix(E)


def prediction_error(instance: DmdpInstance, prediction: PredictionMatrix) -> float:
    """Worst-case L1 distance between predicted and true transition rows.

    A pseudometric on row-stochastic matrices with values in [0, 2].
    """
    E = prediction.entries
    if E.shape != instance.transition.shape:
        raise ShapeMismatch("prediction shape does not match transition shape")
    return float(np.abs(E - instance.transition).sum(axis=1).max())


@dataclass(frozen=True)
class PairIndex:
    state: int
    action: int
    flat: int


def pair_index(instance: DmdpInstance, state: int, action: int) -> PairIndex:
    """Flat index of (state, action) in the canonical state-major layout."""
    if not (0 <= state < instance.num_states):
        raise OutOfRange(f"state {state} out of range")
    if not (0 <= action < instance.actions_per_state[state]):
        raise OutOfRange(f"action {action} out of range for state {state}")
    flat = int(instance.state_offsets[state]) + action
    return PairIndex(state, action, flat)


def pair_unindex(instance: DmdpInstance, flat: int) -> tuple[int, int]:
    """Inverse of pair_index: flat index -> (state, action)."""
    if not (0 <= flat < instance.num_pairs):
        raise OutOfRange(f"flat index {flat} out of range")
    state = int(instance.pair_state[flat])
    return state, flat - int(instance.state_offsets[state])


@dataclass(frozen=True)
class Policy:
    """Per-state action distributions, stored flat over state-action pairs."""

    probs: np.ndarray  # length N; each state's block sums to 1

    def action_distribution(self, instance: DmdpInstance, state: int) -> np.ndarray:
        off = int(instance.state_offsets[state])
        return self.probs[off : off + instance.actions_per_state[state]]


def build_policy(instance: DmdpInstance, probs) -> Policy:
    p = np.array(probs, dtype=float)
    if p.shape != (instance.num_pairs,):
        raise ShapeMismatch(f"policy must have length {instance.num_pairs}")
    if np.any(p < 0):
        raise NotStochastic("policy entries must be nonnegative")
    sums = np.add.reduceat(p, instance.state_offsets)
    actions, offsets = instance.actions_per_state, instance.state_offsets
    bad = _first_bad_sum(
        sums, np.array(actions), lambda s: p[offsets[s] : offsets[s] + actions[s]]
    )
    if bad is not None:
        raise NotStochastic("per-state action probabilities must sum to 1")
    p = p / sums[instance.pair_state]
    p.flags.writeable = False
    return Policy(p)


def deterministic_policy(instance: DmdpInstance, actions) -> Policy:
    """Policy taking the given action (one per state) with probability 1."""
    probs = np.zeros(instance.num_pairs)
    for state, action in enumerate(actions):
        probs[pair_index(instance, state, int(action)).flat] = 1.0
    return build_policy(instance, probs)


def check_distribution(weights, size: int, what: str = "distribution") -> np.ndarray:
    """Validate a probability vector of the given length (1e-9 sum slack)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (size,):
        raise ShapeMismatch(f"{what} must have length {size}")
    if not np.all(w >= 0):
        raise NotStochastic(f"{what} entries must be nonnegative")
    if not (abs(w.sum() - 1.0) <= 1e-9):
        raise NotStochastic(f"{what} must sum to 1, got {w.sum()!r}")
    return w


def scalar_value(q, v) -> float:
    """Inner product q^T v of an initial distribution with a value vector."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if q.shape != v.shape:
        raise ShapeMismatch("q and v must have the same length")
    return float(q @ v)


def instance_to_dict(instance: DmdpInstance, prediction=None) -> dict:
    doc = {
        "num_states": instance.num_states,
        "actions_per_state": list(instance.actions_per_state),
        "transition": instance.transition.tolist(),
        "reward": instance.reward.tolist(),
        "discount": instance.discount,
    }
    if prediction is not None:
        doc["prediction"] = prediction.entries.tolist()
    return doc


def instance_from_dict(doc: dict):
    """Build (instance, prediction-or-None) from the JSON document schema."""
    for key in ("num_states", "actions_per_state", "transition", "reward", "discount"):
        if key not in doc:
            raise ShapeMismatch(f"instance document missing field {key!r}")
    instance = build_instance(
        doc["num_states"],
        doc["actions_per_state"],
        doc["transition"],
        doc["reward"],
        doc["discount"],
    )
    prediction = None
    if doc.get("prediction") is not None:
        prediction = build_prediction(instance, doc["prediction"])
    return instance, prediction


def save_instance(path, instance: DmdpInstance, prediction=None) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance, prediction), fh, indent=2)


def load_instance(path):
    """Load and validate an instance file; returns (instance, prediction)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ShapeMismatch("instance file must contain a JSON object")
    return instance_from_dict(doc)
