"""Model definitions: discounted MDP instances, pair indexing, predictions.

Every vector over state-action pairs (rewards, occupancy measures, gradients)
uses one canonical flat layout: state-major, actions in declared order.
P and a prediction E are held only in CSR form (CsrMatrix).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class ColumnForm(NamedTuple):
    """CSC form: each nonzero's slot; per slot, its row and value; column starts."""

    slots: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    starts: np.ndarray


@dataclass(frozen=True)
class CsrMatrix:
    """A matrix held as its nonzeros, row by row (CSR); its fields are fixed.

    Row i has columns cols[starts[i]:starts[i + 1]], increasing, and values
    vals there. Every row of a stochastic matrix has a nonzero, so the starts
    increase strictly, as np.add.reduceat needs. np.asarray(M) is the dense M.
    The arrays stay writeable: np.bincount copies a read-only index array on
    every call.
    """

    shape: tuple[int, int]
    starts: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.starts))

    @cached_property
    def bounds(self) -> list:
        """starts as a Python list, for bisect."""
        return self.starts.tolist()

    @cached_property
    def cumsum(self) -> np.ndarray:
        """np.cumsum(dense, axis=1) at each nonzero, bitwise: adding zeros is exact."""
        out = self.vals.copy()
        firsts, lengths = self.starts[:-1], np.diff(self.starts)
        for j in range(1, int(lengths.max())):
            k = firsts[lengths > j] + j
            out[k] += out[k - 1]
        return out

    @cached_property
    def csc(self) -> ColumnForm:
        order = np.argsort(self.cols, kind="stable")
        starts = np.searchsorted(self.cols[order], np.arange(self.shape[1] + 1))
        return ColumnForm(np.argsort(order), self.rows[order], self.vals[order], starts)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v, summed over each row's nonzeros."""
        return np.add.reduceat(self.vals * v[self.cols], self.starts[:-1])

    def apply_t(self, w: np.ndarray) -> np.ndarray:
        """M^T w, summed over each column's nonzeros."""
        weights = np.repeat(w, np.diff(self.starts)) * self.vals
        return np.bincount(self.cols, weights=weights, minlength=self.shape[1])

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype)
        dense[self.rows, self.cols] = self.vals
        return dense


def _validate_rows(entries, shape: tuple, what: str) -> CsrMatrix:
    """Check entries are a shape matrix of distributions; return it renormalized."""
    rows = np.asarray(entries, dtype=float)
    if rows.shape != shape:
        raise ShapeMismatch(f"{what} must be {shape}, got {rows.shape}")
    if np.any(rows < 0) or np.any(rows > 1):
        raise NotStochastic(f"{what}: entries must lie in [0, 1]")
    sums = rows.sum(axis=1)
    bad = _first_bad_sum(sums, rows.shape[1], lambda i: rows[i])
    if bad is not None:
        raise NotStochastic(f"{what}: row {bad} sums to {sums[bad]!r}")
    # Flat indices keep both index arrays contiguous; 2-D np.nonzero would not.
    # A boolean mask halves the scan's time against np.flatnonzero(rows).
    index, cols = divmod(np.flatnonzero(rows > 0), rows.shape[1])
    starts = np.searchsorted(index, np.arange(rows.shape[0] + 1))
    return CsrMatrix(rows.shape, starts, cols, rows[index, cols] / sums[index])


@dataclass(frozen=True)
class DmdpInstance:
    """A finite discounted MDP with a flat state-action pair layout.

    transition is P in CSR form, one row per state-action pair (N rows total,
    state-major) and one column per state. reward is length N with entries in
    [0, 1]. Immutable after construction; build via :func:`build_instance`.
    """

    num_states: int
    actions_per_state: tuple[int, ...]
    transition: CsrMatrix
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
    def nonzero_flat(self) -> np.ndarray:
        """Each nonzero of P's flat (state, next state) index into S x S."""
        P = self.transition
        return self.pair_state[P.rows] * self.num_states + P.cols

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

    P = _validate_rows(transition, (n_pairs, num_states), "transition")

    r = np.array(reward, dtype=float)
    if r.shape != (n_pairs,):
        raise ShapeMismatch(f"reward must have length {n_pairs}, got {r.shape}")
    if not np.all((r >= 0) & (r <= 1)):
        raise RewardOutOfRange("rewards must lie in [0, 1]")

    gamma = float(discount)
    if not (0.0 < gamma < 1.0):
        raise DiscountOutOfRange(f"discount must be in (0, 1), got {gamma}")

    r.flags.writeable = False
    return DmdpInstance(num_states, actions, P, r, gamma)


@dataclass(frozen=True)
class PredictionMatrix:
    """A row-stochastic guess of the transition matrix, same shape as P."""

    entries: CsrMatrix


def build_prediction(instance: DmdpInstance, entries) -> PredictionMatrix:
    """Validate a prediction; the instance's own P is taken as it is."""
    if entries is not instance.transition:
        entries = _validate_rows(entries, instance.transition.shape, "prediction")
    return PredictionMatrix(entries)


def prediction_error(instance: DmdpInstance, prediction: PredictionMatrix) -> float:
    """Worst-case L1 distance between predicted and true transition rows.

    A pseudometric on row-stochastic matrices with values in [0, 2].
    """
    if prediction.entries.shape != instance.transition.shape:
        raise ShapeMismatch("prediction shape does not match transition shape")
    E, P = np.asarray(prediction.entries), np.asarray(instance.transition)
    return float(np.abs(E - P).sum(axis=1).max())


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
        "transition": np.asarray(instance.transition).tolist(),
        "reward": instance.reward.tolist(),
        "discount": instance.discount,
    }
    if prediction is not None:
        doc["prediction"] = np.asarray(prediction.entries).tolist()
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


def load_json(path):
    """Parse a JSON file; nesting too deep for the parser is a DmdpError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DmdpError(f"{path}: JSON nested too deeply") from None


def load_instance(path):
    """Load and validate an instance file; returns (instance, prediction)."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ShapeMismatch("instance file must contain a JSON object")
    return instance_from_dict(doc)
