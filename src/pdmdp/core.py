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


class InfeasiblePoint(DmdpError):
    pass


class SingularSystem(DmdpError):
    pass


class SpecOutOfRange(DmdpError):
    pass


# numpy's float64 sum of a contiguous row is pairwise inside blocks of this
# many entries and sequential across blocks.
_SUM_BLOCK = 8192


def _sum_depth(n):
    """Bound on the roundings any one entry meets in numpy's float64 sum of n.

    Inside a block numpy splits runs longer than 128 in two (near halves,
    trimmed to multiples of 8): at most 7 levels for 8192 entries. A run of at
    most 128 entries goes into 8 sequential accumulators (at most 15 additions
    each), which are combined in 3 levels, then the up to 7 leftover entries
    are added one by one: 25 roundings. Adding the block's sum into the result
    makes 7 + 25 + 1 = 33 for the first block, and each later block adds one:
    32 plus the number of blocks. The same count bounds a row summed without
    blocks (at most 8 + log2(n / 8192) levels). No summation order, sequential
    ones included, has an entry meet more than n - 1 roundings.
    """
    return np.minimum(n - 1, 32 + -(-n // _SUM_BLOCK))


def _first_bad_sum(sums: np.ndarray, lengths, group) -> int | None:
    """Index of the first group whose entries do not sum to 1, else None.

    ``sums[i]`` is the float sum of the ``lengths[i]`` non-negative entries
    ``group(i)``, as numpy's sum or np.add.reduceat computes it. A group passes
    when the exact sum of its entries is within STOCHASTIC_TOL of 1; a NaN sum
    fails. Each entry meets at most d = _sum_depth(n) roundings, so the float
    sum is off from the exact one by less than d*eps*sum (twice the classical
    bound, which covers the difference between the float and the exact sum on
    the right); only groups whose computed deviation lies that close to the
    tolerance are summed again exactly with math.fsum.
    """
    dev = np.abs(sums - 1.0)
    bad = ~(dev <= STOCHASTIC_TOL)
    near = np.abs(dev - STOCHASTIC_TOL) <= _sum_depth(np.asarray(lengths)) * (
        np.finfo(float).eps * sums
    )
    for i in np.flatnonzero(near):
        entries = group(i).tolist()
        # Signs of correctly rounded sums are exact: -tol <= sum - 1 <= tol.
        bad[i] = not (
            math.fsum(entries + [-1.0, -STOCHASTIC_TOL])
            <= 0.0
            <= math.fsum(entries + [-1.0, STOCHASTIC_TOL])
        )
    return int(np.argmax(bad)) if bad.any() else None


def _validate_rows(rows: np.ndarray, what: str) -> None:
    """Check rows are probability distributions and renormalize them in place."""
    if np.any(rows < 0) or np.any(rows > 1):
        raise NotStochastic(f"{what}: entries must lie in [0, 1]")
    sums = rows.sum(axis=1)
    bad = _first_bad_sum(sums, rows.shape[1], lambda i: rows[i])
    if bad is not None:
        raise NotStochastic(f"{what}: row {bad} sums to {sums[bad]!r}")
    rows /= sums[:, None]


def _column_order(cols: np.ndarray, num_cols: int):
    """CSC layout of row-major nonzeros: stable sort by column, and pointers."""
    pointers = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=num_cols))))
    return np.argsort(cols, kind="stable"), pointers


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
        """Dense per-row cumulative sums of P, kept for the test oracles."""
        return np.cumsum(self.transition, axis=1)

    @cached_property
    def transition_nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per nonzero of P: pair row, flat (state, next state) index, value."""
        rows, cols = np.nonzero(self.transition)
        flat = self.pair_state[rows] * self.num_states + cols
        return rows, flat, self.transition[rows, cols]

    @cached_property
    def transition_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rest of P's CSR form: per nonzero its next state; per pair row
        the index of its first nonzero and its number of nonzeros.

        All index the arrays of transition_nonzeros. Every row of P has a
        nonzero, so the row starts increase strictly, as np.add.reduceat needs.
        """
        rows, flat, _ = self.transition_nonzeros
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        counts = np.diff(starts, append=rows.size)
        return flat - self.pair_state[rows] * self.num_states, starts, counts

    @cached_property
    def transition_row_bounds(self) -> tuple[list, list]:
        """Each pair row's first and one-past-last nonzero, as Python lists."""
        _, starts, counts = self.transition_csr
        return starts.tolist(), (starts + counts).tolist()

    @cached_property
    def transition_cumsum(self) -> np.ndarray:
        """np.cumsum(P, axis=1) at each nonzero of P, bitwise, over row blocks."""
        rows, _, _ = self.transition_nonzeros
        cols, starts, _ = self.transition_csr
        block = max(1, 2**16 // self.num_states)
        edges = np.append(starts[::block], rows.size).tolist()
        return np.concatenate([
            np.cumsum(self.transition[r : r + block], axis=1)[rows[a:b] - r, cols[a:b]]
            for r, a, b in zip(range(0, self.num_pairs, block), edges, edges[1:])
        ])

    @cached_property
    def transition_csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """P's CSC layout: each nonzero's slot, each slot's pair row, S + 1 pointers."""
        order, pointers = _column_order(self.transition_csr[0], self.num_states)
        return np.argsort(order), self.transition_nonzeros[0][order], pointers

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
    _validate_rows(P, "transition")

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

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """E's nonzeros in column order: pair rows, values, S + 1 pointers."""
        rows, cols = np.nonzero(self.entries)
        order, pointers = _column_order(cols, self.entries.shape[1])
        return rows[order], self.entries[rows[order], cols[order]], pointers


def build_prediction(instance: DmdpInstance, entries) -> PredictionMatrix:
    E = np.array(entries, dtype=float)
    if E.shape != instance.transition.shape:
        raise ShapeMismatch(
            f"prediction must be {instance.transition.shape}, got {E.shape}"
        )
    _validate_rows(E, "prediction")
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


def pair_index(instance: DmdpInstance, state: int, action: int) -> int:
    """Flat index of (state, action) in the canonical state-major layout."""
    if not (0 <= state < instance.num_states):
        raise OutOfRange(f"state {state} out of range")
    if not (0 <= action < instance.actions_per_state[state]):
        raise OutOfRange(f"action {action} out of range for state {state}")
    return int(instance.state_offsets[state]) + action


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
        probs[pair_index(instance, state, int(action))] = 1.0
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number_type(t) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _is_number(x) -> bool:
    return _is_number_type(type(x))


def _list_of(ok):
    return lambda x: isinstance(x, list) and all(ok(item) for item in x)


def _is_number_list(x) -> bool:
    # One test per distinct element type, so a 4000 x 1000 matrix loads fast.
    return isinstance(x, list) and all(map(_is_number_type, set(map(type, x))))


# JSON type of each instance document field, checked when the field is present.
_INSTANCE_FIELD_TYPES = {
    "num_states": (_is_int, "an integer"),
    "actions_per_state": (_list_of(_is_int), "a list of integers"),
    "transition": (_list_of(_is_number_list), "a list of lists of numbers"),
    "reward": (_is_number_list, "a list of numbers"),
    "discount": (_is_number, "a number"),
    "prediction": (
        lambda x: x is None or _list_of(_is_number_list)(x),
        "null or a list of lists of numbers",
    ),
}


def instance_from_dict(doc: dict):
    """Build (instance, prediction-or-None) from the JSON document schema."""
    for key in ("num_states", "actions_per_state", "transition", "reward", "discount"):
        if key not in doc:
            raise ShapeMismatch(f"instance document missing field {key!r}")
    for key, (ok, kind) in _INSTANCE_FIELD_TYPES.items():
        if key in doc and not ok(doc[key]):
            raise ShapeMismatch(f"instance field {key!r} must be {kind}")
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
