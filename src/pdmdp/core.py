"""Model definitions: discounted MDP instances, pair indexing, predictions.

Every vector over state-action pairs (rewards, occupancy measures, gradients)
uses one canonical flat layout: state-major, actions in declared order.
P and a prediction E are built, validated, held and saved only in CSR form:
E is a CsrMatrix of P's shape, and the accurate prediction is P itself. A
CsrMatrix, an instance file's entries object and dense rows all reduce to one
(rows, cols, vals) triple, which takes one check; check_fields checks the JSON
types of every document read from outside.
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


def _first_bad_sum(sums: np.ndarray, values: np.ndarray, starts) -> int | None:
    """Index of the first group whose entries do not sum to 1, else None.

    ``sums[i]`` is a float sum, in any order, of non-negative entries whose
    nonzeros are among the segment ``values[starts[i]:starts[i + 1]]``. A
    group passes when the exact sum of its entries is within STOCHASTIC_TOL
    of 1; a NaN sum fails. Adding an exact zero rounds nothing, so in any
    summation tree over k nonzeros an entry meets at most k - 1 roundings,
    and the float sum is off from the exact one s by at most
    (k - 1)u/(1 - (k - 1)u) * s, with u = eps/2 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4). Below k = 2**25, k*u times the
    float sum covers that and the roundings of this test; only groups whose
    computed deviation lies that close to the tolerance are summed again
    exactly with math.fsum.
    """
    dev = np.abs(sums - 1.0)
    bad = ~(dev <= STOCHASTIC_TOL)
    near = np.abs(dev - STOCHASTIC_TOL) <= np.diff(starts) * (np.finfo(float).eps / 2 * sums)
    for i in np.flatnonzero(near):
        entries = values[starts[i] : starts[i + 1]].tolist()
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


# Rows longer than this take one np.cumsum each in CsrMatrix.cumsum.
_LONG_ROW = 64


@dataclass(frozen=True)
class CsrMatrix:
    """A matrix held as its nonzeros, row by row (CSR); its fields are fixed.

    Row i has columns cols[starts[i]:starts[i + 1]] and values vals there;
    an entry of M is the sum of the values at its column. The columns of P
    and E increase along each row, without repeats; a policy's P_pi
    (exact._policy_matrix) lists the rows of a state's actions one after
    another, so a column repeats once for each action that reaches it.
    Every row of a stochastic matrix has a nonzero, so the starts increase
    strictly, as np.add.reduceat needs. np.asarray(M) is the dense M; only
    the LU of a small policy system (exact._solve) densifies. The arrays stay
    writeable: np.bincount copies a read-only index array on every call.
    """

    shape: tuple[int, int]
    starts: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), self.starts[1:] - self.starts[:-1])

    @cached_property
    def bounds(self) -> list:
        """starts as a Python list, for bisect."""
        return self.starts.tolist()

    @cached_property
    def cumsum(self) -> np.ndarray:
        """Each row's sequential cumsum over its nonzeros, in column order.

        Bitwise np.cumsum(dense, axis=1) at each nonzero, since adding a zero
        is exact. A row's last entry defines its sum (_validate_rows). Rows
        of up to _LONG_ROW nonzeros advance together, one pass per column;
        a longer row takes one np.cumsum, as sequential as those passes.
        """
        out = self.vals.copy()
        firsts, ends = self.starts[:-1], self.starts[1:]
        lengths = ends - firsts
        long = lengths > _LONG_ROW
        for j in range(1, int(lengths[~long].max(initial=0))):
            k = firsts[(lengths > j) & ~long] + j
            out[k] += out[k - 1]
        for a, b in zip(firsts[long].tolist(), ends[long].tolist()):
            np.cumsum(out[a:b], out=out[a:b])
        return out

    @cached_property
    def csc(self) -> ColumnForm:
        order = np.argsort(self.cols, kind="stable")
        starts = np.searchsorted(self.cols[order], np.arange(self.shape[1] + 1))
        return ColumnForm(np.argsort(order), self.rows[order], self.vals[order], starts)

    def apply(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M v for a float vector v, summed over each row's nonzeros.

        out, if given, is a float buffer of one value per nonzero that holds
        the terms instead of a new array; the result is the same.
        """
        terms = np.take(v, self.cols, out=out, mode="clip")  # "raise" would buffer
        terms *= self.vals
        return np.add.reduceat(terms, self.starts[:-1])

    def apply_t(self, w: np.ndarray) -> np.ndarray:
        """M^T w for a float vector w, summed over each column's nonzeros."""
        weights = np.repeat(w, self.starts[1:] - self.starts[:-1])
        weights *= self.vals
        return np.bincount(self.cols, weights=weights, minlength=self.shape[1])

    def __array__(self, dtype=None, copy=None):
        n, s = self.shape
        dense = np.bincount(self.rows * s + self.cols, self.vals, n * s)
        return dense.reshape(self.shape).astype(dtype, copy=False)


def _array(x, dtype, what: str) -> np.ndarray:
    """np.asarray(x, dtype); anything it cannot convert is a DmdpError naming what."""
    try:
        return np.asarray(x, dtype=dtype)
    except OverflowError:
        raise DmdpError(f"{what}: number out of range for {np.dtype(dtype)}") from None
    except ValueError:
        raise DmdpError(f"{what}: must be numbers, in rows of equal length") from None


# Keys of a version-2 entries object, which lists a matrix's nonzeros.
_ENTRY_KEYS = ("row", "next_state", "value")


def _entries(M, shape: tuple, what: str):
    """The (rows, cols, vals) of M's entries, checked to describe a shape matrix.

    M is a CsrMatrix, a version-2 entries object or dense rows; dense rows are
    reduced to their entries != 0, NaN among them. Every form then takes one
    check: integer rows and columns, as many values, every index in range and
    the entries in row-major order without repeats.
    """
    if isinstance(M, CsrMatrix):
        if M.shape != shape:
            raise ShapeMismatch(f"{what} must be {shape}, got {M.shape}")
        starts = np.asarray(M.starts)
        if (
            not (starts.dtype.kind == "i" and starts.shape == (shape[0] + 1,))
            or starts[0] != 0
            or np.any(np.diff(starts) < 0)
        ):
            raise ShapeMismatch(f"{what}: needs {shape[0] + 1} integer row starts "
                                "that do not decrease from 0")
        rows, cols, vals = M.rows, M.cols, M.vals
    elif isinstance(M, dict):
        rows, cols, vals = (M[key] for key in _ENTRY_KEYS)
        # Every row needs an entry; this also bounds the arrays built from shape.
        if shape[0] > len(rows):
            raise ShapeMismatch(f"{what}: {len(rows)} entries cannot fill {shape[0]} rows")
    else:
        dense = _array(M, float, what)
        if dense.shape != shape:
            raise ShapeMismatch(f"{what} must be {shape}, got {dense.shape}")
        # Flat indices keep both index arrays contiguous; 2-D np.nonzero would not.
        rows, cols = divmod(np.flatnonzero(dense != 0), shape[1])
        vals = dense[rows, cols]
    rows, cols, vals = np.asarray(rows), np.asarray(cols), _array(vals, float, what)
    if not (
        rows.dtype.kind == cols.dtype.kind == "i"
        and rows.shape == cols.shape == vals.shape == (rows.size,)
    ):
        raise ShapeMismatch(f"{what}: needs as many integer rows and next states as values")
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    for a, n, name in ((rows, shape[0], "rows"), (cols, shape[1], "next states")):
        if a.size and (a.min() < 0 or a.max() >= n):
            raise OutOfRange(f"{what}: {name} must lie in [0, {n})")
    if np.any(np.diff(rows * shape[1] + cols) <= 0):
        raise ShapeMismatch(f"{what}: entries must be in row-major order, without repeats")
    return rows, cols, vals


def _validate_rows(entries, shape: tuple, what: str) -> CsrMatrix:
    """Check entries are a shape matrix of distributions; return it renormalized.

    entries is any form _entries takes; NaN fails the row-sum check, and zero
    entries are dropped.
    """
    rows, cols, vals = _entries(entries, shape, what)
    if np.any(vals < 0) or np.any(vals > 1):
        raise NotStochastic(f"{what}: entries must lie in [0, 1]")
    if not vals.all():
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    starts = np.searchsorted(rows, np.arange(shape[0] + 1))
    # A row's sum is the last entry of its cumsum, which is freed before the
    # division; an empty row sums to 0.0.
    full, sums = starts[1:] > starts[:-1], np.zeros(shape[0])
    sums[full] = CsrMatrix(shape, starts, cols, vals).cumsum[starts[1:][full] - 1]
    bad = _first_bad_sum(sums, vals, starts)
    if bad is not None:
        raise NotStochastic(f"{what}: row {bad} sums to {sums[bad]!r}")
    return CsrMatrix(shape, starts, cols, vals / sums[rows])


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

    @property
    def value_radius(self) -> float:
        """Box radius (1 - discount)^-1 bounding any value vector."""
        return 1.0 / (1.0 - self.discount)


def build_instance(num_states, actions_per_state, transition, reward, discount):
    """Validate raw arrays and construct an immutable DmdpInstance.

    transition is a CsrMatrix, a version-2 entries object or dense rows; see
    _entries.
    """
    actions = tuple(actions_per_state)
    for a in actions:
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
            raise ShapeMismatch(f"actions_per_state must hold integers, got {a!r}")
    actions = tuple(map(int, actions))
    if len(actions) != num_states or num_states < 1:
        raise ShapeMismatch(
            f"expected {num_states} per-state action counts, got {len(actions)}"
        )
    if any(a < 1 for a in actions):
        raise ShapeMismatch("every state needs at least one action")
    n_pairs = sum(actions)

    P = _validate_rows(transition, (n_pairs, num_states), "transition")

    r = _array(reward, float, "reward").copy()
    if r.shape != (n_pairs,):
        raise ShapeMismatch(f"reward must have length {n_pairs}, got {r.shape}")
    if not np.all((r >= 0) & (r <= 1)):
        raise RewardOutOfRange("rewards must lie in [0, 1]")

    gamma = float(_array(discount, float, "discount"))
    if not (0.0 < gamma < 1.0):
        raise DiscountOutOfRange(f"discount must be in (0, 1), got {gamma}")

    r.flags.writeable = False
    return DmdpInstance(num_states, actions, P, r, gamma)


def build_prediction(instance: DmdpInstance, entries) -> CsrMatrix:
    """Validate a prediction E of P; the instance's own P is returned as it is."""
    if entries is instance.transition:
        return entries
    return _validate_rows(entries, instance.transition.shape, "prediction")


def prediction_error(instance: DmdpInstance, prediction: CsrMatrix) -> float:
    """Worst-case L1 distance between predicted and true transition rows.

    A pseudometric on row-stochastic matrices with values in [0, 2], summed
    per row over the union of the two supports.
    """
    if prediction.shape != instance.transition.shape:
        raise ShapeMismatch("prediction shape does not match transition shape")
    P, E = instance.transition, prediction
    p_keys, e_keys = (M.rows * M.shape[1] + M.cols for M in (P, E))
    at = np.minimum(np.searchsorted(p_keys, e_keys), p_keys.size - 1)
    shared = p_keys[at] == e_keys
    diff = P.vals.copy()
    diff[at[shared]] -= E.vals[shared]
    l1 = np.bincount(P.rows, np.abs(diff), P.shape[0])
    l1 += np.bincount(E.rows[~shared], E.vals[~shared], P.shape[0])
    return float(l1.max())


def pair_index(instance: DmdpInstance, state: int, action: int) -> int:
    """Flat index of (state, action) in the canonical state-major layout."""
    if not (0 <= state < instance.num_states):
        raise OutOfRange(f"state {state} out of range")
    if not (0 <= action < instance.actions_per_state[state]):
        raise OutOfRange(f"action {action} out of range for state {state}")
    return int(instance.state_offsets[state]) + action


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
    bad = _first_bad_sum(sums, p, np.append(instance.state_offsets, p.size))
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
    w = _array(weights, float, what)
    if w.shape != (size,):
        raise ShapeMismatch(f"{what} must have length {size}")
    if not np.all(w >= 0):
        raise NotStochastic(f"{what} entries must be nonnegative")
    if not (abs(w.sum() - 1.0) <= 1e-9):
        raise NotStochastic(f"{what} must sum to 1, got {w.sum()!r}")
    return w


# Instance documents without a schema_version hold P and E as dense lists of
# rows (version 1); version 2, which save_instance writes, holds their nonzeros.
INSTANCE_SCHEMA_VERSION = 2


def _entries_doc(M: CsrMatrix) -> dict:
    return dict(zip(_ENTRY_KEYS, (M.rows.tolist(), M.cols.tolist(), M.vals.tolist())))


def instance_to_dict(instance: DmdpInstance, prediction=None) -> dict:
    doc = {
        "schema_version": INSTANCE_SCHEMA_VERSION,
        "num_states": instance.num_states,
        "actions_per_state": list(instance.actions_per_state),
        "transition": _entries_doc(instance.transition),
        "reward": instance.reward.tolist(),
        "discount": instance.discount,
    }
    if prediction is not None:
        doc["prediction"] = _entries_doc(prediction)
    return doc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number_type(t) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _list_of(ok):
    return lambda x: isinstance(x, list) and all(ok(item) for item in x)


# One test per distinct element type, so that long lists load fast.
def _is_number_list(x) -> bool:
    return isinstance(x, list) and all(map(_is_number_type, set(map(type, x))))


def _is_int_list(x) -> bool:
    return isinstance(x, list) and set(map(type, x)) <= {int}


def _is_entries(x) -> bool:
    return (
        isinstance(x, dict)
        and x.keys() == set(_ENTRY_KEYS)
        and _is_int_list(x["row"])
        and _is_int_list(x["next_state"])
        and _is_number_list(x["value"])
    )


_ENTRIES_TYPE = "an object of integer lists 'row', 'next_state' and a number list 'value'"

# The JSON types check_fields knows, by the name its errors give them.
_JSON_TYPES = {
    "a string": lambda x: isinstance(x, str),
    "an integer": _is_int,
    "a number": lambda x: _is_number_type(type(x)),
    "a list of integers": _list_of(_is_int),
    "a list of non-negative integers": _list_of(lambda x: _is_int(x) and x >= 0),
    "a list of numbers": _is_number_list,
    "a list of lists of numbers": _list_of(_is_number_list),
    _ENTRIES_TYPE: _is_entries,
}


def check_fields(doc, required, types: dict, what: str) -> None:
    """Check doc is a JSON object that has every required field.

    types maps a field to the name of its JSON type, a key of _JSON_TYPES,
    optionally prefixed "null or "; each field doc has must be of its type.
    """
    if not isinstance(doc, dict):
        raise ShapeMismatch(f"{what} must be a JSON object")
    for key in required:
        if key not in doc:
            raise ShapeMismatch(f"{what} missing field {key!r}")
    for key, kind in types.items():
        if key not in doc or doc[key] is None and kind.startswith("null or "):
            continue
        if not _JSON_TYPES[kind.removeprefix("null or ")](doc[key]):
            raise ShapeMismatch(f"{what} field {key!r} must be {kind}")


# JSON type of each instance document field but the matrices, whose type the
# schema version selects.
_INSTANCE_FIELD_TYPES = {
    "schema_version": "an integer",
    "num_states": "an integer",
    "actions_per_state": "a list of integers",
    "reward": "a list of numbers",
    "discount": "a number",
}
_MATRIX_TYPES = {1: "a list of lists of numbers", 2: _ENTRIES_TYPE}


def instance_from_dict(doc: dict):
    """Build (instance, prediction-or-None) from the JSON document schema."""
    # build_instance's arguments, in order.
    required = ("num_states", "actions_per_state", "transition", "reward", "discount")
    check_fields(doc, required, _INSTANCE_FIELD_TYPES, "instance")
    kind = _MATRIX_TYPES.get(doc.get("schema_version", 1))
    if kind is None:
        raise ShapeMismatch(f"unknown schema_version {doc['schema_version']!r}")
    check_fields(doc, (), {"transition": kind, "prediction": f"null or {kind}"}, "instance")
    instance = build_instance(*(doc[key] for key in required))
    prediction = doc.get("prediction")
    if prediction is not None:
        prediction = build_prediction(instance, prediction)
    return instance, prediction


def save_instance(path, instance: DmdpInstance, prediction=None) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(instance_to_dict(instance, prediction)))


def load_json(path):
    """Parse a JSON file; nesting too deep for the parser is a DmdpError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DmdpError(f"{path}: JSON nested too deeply") from None


def load_instance(path):
    """Load and validate an instance file; returns (instance, prediction).

    A file holds entries, not a built P: like building, loading divides each
    row by its float sum, so a row whose saved values do not sum to exactly
    1.0 in float moves by a few ulps (at most 2k eps relative in a row of k
    nonzeros). Rows that sum to 1.0, as the presets' do, load bitwise.
    """
    return instance_from_dict(load_json(path))
