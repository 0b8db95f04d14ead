"""Instance construction on the nonzeros against the dense route it replaced.

The oracles below are the dense constructions: the builders filled an N x S
array row by row, and the validator checked it and kept its entries > 0,
divided by the row sums. A row's sum is its sequential sum in column order,
np.cumsum(rows, axis=1)[:, -1]; adding a zero is exact, so the zeros change
no bit. The CSR route must give the same arrays bitwise and the same errors.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdp import bench, core
from pdmdp.core import (
    CsrMatrix,
    NotStochastic,
    OutOfRange,
    ShapeMismatch,
    build_instance,
    build_prediction,
    load_instance,
    prediction_error,
    save_instance,
)
from pdmdp.instances import (
    HardFamilySpec,
    _loop_probabilities,
    hard_family,
    random_instance,
)


def dense_csr(rows):
    """Dense rows to CSR as the dense validator did: entries > 0 over row sums."""
    sums = np.cumsum(rows, axis=1)[:, -1]
    index, cols = divmod(np.flatnonzero(rows > 0), rows.shape[1])
    starts = np.searchsorted(index, np.arange(rows.shape[0] + 1))
    return CsrMatrix(rows.shape, starts, cols, rows[index, cols] / sums[index])


def dense_validate_rows(entries, shape, what):
    """The dense validator: range, then the row sums judged by _first_bad_sum."""
    rows = np.asarray(entries, dtype=float)
    if rows.shape != shape:
        raise ShapeMismatch(f"{what} must be {shape}, got {rows.shape}")
    if np.any(rows < 0) or np.any(rows > 1):
        raise NotStochastic(f"{what}: entries must lie in [0, 1]")
    sums = np.cumsum(rows, axis=1)[:, -1]
    starts = np.arange(rows.shape[0] + 1) * rows.shape[1]
    bad = core._first_bad_sum(sums, rows.ravel(), starts)
    if bad is not None:
        raise NotStochastic(f"{what}: row {bad} sums to {sums[bad]!r}")
    return dense_csr(rows)


def dense_random_instance(num_states, actions_per_state, sparsity=1.0, seed=0):
    """random_instance's draws written into a dense N x S array; (P, reward)."""
    actions = (
        [actions_per_state] * num_states
        if np.isscalar(actions_per_state)
        else list(actions_per_state)
    )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_pairs = int(sum(actions))
    support_size = max(1, int(round(sparsity * num_states)))
    P = np.zeros((n_pairs, num_states))
    for row in P:
        support = rng.choice(num_states, size=support_size, replace=False)
        row[support] = rng.dirichlet(np.ones(support_size))
    return P, rng.uniform(0.0, 1.0, size=n_pairs)


def dense_hard_family(spec):
    """hard_family's rows written out densely, layer by layer; (P, reward)."""
    m, n = spec.m, spec.n
    num_states = m + 2 * m * n
    middle = lambda k, l: m + k * n + l  # noqa: E731
    end = lambda k, l: m + m * n + k * n + l  # noqa: E731
    loops = _loop_probabilities(spec)
    rows, rewards = [], []
    for layer, reward in enumerate((0.0, 1.0, 0.0)):
        for k in range(m):
            for l in range(n):
                row = np.zeros(num_states)
                if layer == 0:
                    row[middle(k, l)] = 1.0
                elif layer == 1:
                    row[middle(k, l)] = loops[k, l]
                    row[end(k, l)] = 1.0 - loops[k, l]
                else:
                    row[end(k, l)] = 1.0
                rows.append(row)
                rewards.append(reward)
    return np.array(rows), np.array(rewards)


def assert_csr_bitwise(got, want):
    assert got.shape == want.shape
    for name in ("starts", "cols", "vals"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestBuildersAgainstDenseOracles:
    @pytest.mark.parametrize(
        "shape",
        [
            dict(num_states=1000, actions_per_state=4, sparsity=0.05),
            dict(num_states=60, actions_per_state=3, sparsity=1.0),
            dict(num_states=12, actions_per_state=[1, 2, 3, 4] * 3, sparsity=0.4),
            dict(num_states=5, actions_per_state=2, sparsity=0.01),
        ],
        ids=["s1000", "full", "per-state-actions", "one-entry-rows"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_instance(self, shape, seed):
        inst = random_instance(seed=seed, **shape)
        P, reward = dense_random_instance(seed=seed, **shape)
        assert_csr_bitwise(inst.transition, dense_csr(P))
        assert inst.reward.tobytes() == reward.tobytes()

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("m, n, gamma", [(2, 3, 0.5), (3, 1, 0.9), (1, 4, 0.95)])
    def test_hard_family(self, perturbed, m, n, gamma):
        chain = (1, 2) if n >= 2 else (2, 1)
        spec = HardFamilySpec(
            m=m, n=n, discount=gamma, epsilon=0.01,
            perturbed=perturbed, perturbed_chain=chain,
        )
        inst = hard_family(spec)
        P, reward = dense_hard_family(spec)
        assert_csr_bitwise(inst.transition, dense_csr(P))
        assert inst.reward.tobytes() == reward.tobytes()

    def test_build_allocates_no_dense_array(self):
        # Building, validating and comparing to a prediction each stay below
        # half of one N x S float array (8 MB here).
        shape = dict(num_states=500, actions_per_state=4, sparsity=0.02)
        random_instance(40, 4, sparsity=0.05)  # warm-up
        other = random_instance(seed=1, **shape).transition
        inst, build = traced_peak(lambda: random_instance(**shape))
        pred, validate = traced_peak(lambda: build_prediction(inst, other))
        _, compare = traced_peak(lambda: prediction_error(inst, pred))
        dense = inst.num_pairs * inst.num_states * 8
        assert max(build, validate, compare) < dense / 2, (build, validate, compare)

    def test_identity_builds_in_nonzero_memory(self):
        # The S=40 000 identity: 64 rows of S floats alone would be 20 MB.
        S = 40_000
        identity = CsrMatrix((S, S), np.arange(S + 1), np.arange(S), np.ones(S))
        reward = np.zeros(S)
        inst, peak = traced_peak(lambda: build_instance(S, [1] * S, identity, reward, 0.5))
        assert inst.transition.vals.tobytes() == identity.vals.tobytes()
        assert peak < 8e6, peak


def traced_peak(f):
    """f() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def to_csr(rows, explicit_zeros=None):
    """The test's own CSR of dense rows: entries != 0, plus any zeros asked for."""
    keep = rows != 0
    if explicit_zeros is not None:
        keep |= explicit_zeros
    index, cols = np.nonzero(keep)
    starts = np.searchsorted(index, np.arange(rows.shape[0] + 1))
    return CsrMatrix(rows.shape, starts, cols, rows[index, cols])


def exact_sum(entries):
    return sum(map(Fraction, entries.tolist()), Fraction(0))


ROW_KINDS = ["plain", "plain", "empty", "nan", "inf", "-inf", "negative", "above-one",
             "near-tolerance"]


@st.composite
def dense_rows(draw):
    """Small matrices of distributions, some rows broken in one way each."""
    n, s = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.ones(s), size=n)
    rows[rng.random((n, s)) < draw(st.sampled_from([0.0, 0.4, 0.8]))] = 0.0
    rows[np.arange(n), rng.integers(s, size=n)] += 0.5
    rows /= rows.sum(axis=1)[:, None]
    for i in range(n):
        kind = draw(st.sampled_from(ROW_KINDS))
        j = int(rng.integers(s))
        if kind == "empty":
            rows[i] = 0.0
        elif kind in ("nan", "inf", "-inf"):
            rows[i, j] = float(kind)
        elif kind == "negative":
            rows[i, j] = -rows[i, j] or -1e-300
        elif kind == "above-one":
            rows[i, j] = 1.0 + draw(st.sampled_from([2.2e-16, 1e-3, 1.0]))
        elif kind == "near-tolerance":
            # Put the exact sum at 1 +- 1e-12, then step the largest entry
            # a few ulps either way.
            j = int(rows[i].argmax())
            sign = draw(st.sampled_from([1, -1]))
            target = 1 + sign * Fraction(core.STOCHASTIC_TOL)
            rows[i, j] += float(target - exact_sum(rows[i]))
            step = draw(st.integers(-4, 4))
            for _ in range(abs(step)):
                rows[i, j] = np.nextafter(rows[i, j], 2.0 * step)
    return rows


def outcome(validate, entries, shape):
    try:
        M = validate(entries, shape, "rows")
    except core.DmdpError as exc:
        return type(exc), str(exc)
    return tuple((a.dtype.str, a.tobytes()) for a in (M.starts, M.cols, M.vals))


class TestValidatorDifferential:
    @given(dense_rows(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_dense_and_csr_input_agree(self, rows, seed):
        shape = rows.shape
        zeros = np.random.default_rng(seed).random(shape) < 0.3
        want = outcome(dense_validate_rows, rows, shape)
        for entries in (rows, rows.tolist(), to_csr(rows), to_csr(rows, zeros)):
            assert outcome(core._validate_rows, entries, shape) == want

    def test_rows_at_the_tolerance(self):
        # Both sides of 1 +- 1e-12 by single ulps, judged as the dense route does.
        for sign in (1, -1):
            row = np.array([0.25, 0.25, 0.5])
            row[2] += float(1 + sign * Fraction(core.STOCHASTIC_TOL) - exact_sum(row))
            for step in range(-3, 4):
                r = row.copy()
                for _ in range(abs(step)):
                    r[2] = np.nextafter(r[2], 2.0 * step)
                rows = r[None, :]
                want = outcome(dense_validate_rows, rows, rows.shape)
                assert outcome(core._validate_rows, to_csr(rows), rows.shape) == want
                legal = abs(exact_sum(r) - 1) <= Fraction(core.STOCHASTIC_TOL)
                assert (want[0] is not NotStochastic) == legal

    def test_long_rows_sum_like_dense_rows(self):
        # Rows of about 2000 nonzeros, each summed by one np.cumsum, against
        # the dense rows' sequential sums over all 9000 columns. The zeroed
        # rows are renormalised so that they pass, and the divided values are
        # compared, so that another summation order shows in their bits.
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(9000) * 0.05, size=65)
        rows[rows < 1e-5] = 0.0
        rows /= np.cumsum(rows, axis=1)[:, -1:]
        want = outcome(dense_validate_rows, rows, rows.shape)
        assert want[0] is not NotStochastic
        assert outcome(core._validate_rows, to_csr(rows), rows.shape) == want


def malformed(kind, M):
    """M's arrays broken one way; only CSR input can be malformed so."""
    starts, cols, vals = M.starts.copy(), M.cols.copy(), M.vals.copy()
    long_row = int(np.argmax(np.diff(starts)))
    a = starts[long_row]
    if kind == "unsorted":
        cols[a], cols[a + 1] = cols[a + 1], cols[a]
    elif kind == "duplicate":
        cols[a + 1] = cols[a]
    elif kind == "column-too-large":
        cols[-1] = M.shape[1]
    elif kind == "negative-column":
        cols[0] = -1
    elif kind == "decreasing-starts":
        starts[1], starts[2] = starts[2], starts[1]
    elif kind == "starts-not-from-zero":
        starts[0] = 1
    elif kind == "short-starts":
        starts = starts[:-1]
    elif kind == "float-columns":
        cols = cols.astype(float)
    elif kind == "values-length":
        vals = vals[:-1]
    return CsrMatrix(M.shape, starts, cols, vals)


MALFORMED = {
    "unsorted": ShapeMismatch,
    "duplicate": ShapeMismatch,
    "column-too-large": OutOfRange,
    "negative-column": OutOfRange,
    "decreasing-starts": ShapeMismatch,
    "starts-not-from-zero": ShapeMismatch,
    "short-starts": ShapeMismatch,
    "float-columns": ShapeMismatch,
    "values-length": ShapeMismatch,
}


def random_csr(rng, n, s=6):
    """n random distributions over s states, two nonzeros or more in each, as CSR."""
    rows = rng.dirichlet(np.ones(s), size=n)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[:, :2] += 0.1  # two nonzeros in every row
    rows /= rows.sum(axis=1)[:, None]
    return to_csr(rows)


def error_class(f):
    try:
        f()
    except core.DmdpError as exc:
        return type(exc)


class TestMalformedCsr:
    @pytest.mark.parametrize("kind", MALFORMED)
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rejected(self, kind, seed):
        rng = np.random.default_rng(seed)
        M = malformed(kind, random_csr(rng, int(rng.integers(3, 8))))
        with pytest.raises(MALFORMED[kind]):
            core._validate_rows(M, M.shape, "rows")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "kind",
        ["unsorted", "duplicate", "column-too-large", "negative-column", "values-length",
         "row-too-large"],
    )
    def test_instance_file_raises_alike(self, tmp_path, kind, seed):
        # A version-2 file holds the broken arrays as its entries object; a
        # row index past the last row is the one break only a file can hold.
        M = random_csr(np.random.default_rng(seed), 6, 4)
        bad = M if kind == "row-too-large" else malformed(kind, M)
        rows = np.repeat(np.arange(6), np.diff(bad.starts)).tolist()
        if kind == "row-too-large":
            rows[-1] = 6
        doc = dict(schema_version=2, num_states=4, actions_per_state=[2, 1, 2, 1],
                   reward=[0.5] * 6, discount=0.9, transition=dict(
                       row=rows, next_state=bad.cols.tolist(), value=bad.vals.tolist()))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        want = MALFORMED.get(kind, OutOfRange)
        assert error_class(lambda: load_instance(path)) is want
        if kind != "row-too-large":
            assert error_class(lambda: core._validate_rows(bad, (6, 4), "rows")) is want

    def test_wrong_shape(self):
        M = to_csr(np.eye(3))
        with pytest.raises(ShapeMismatch, match=r"rows must be \(3, 4\), got \(3, 3\)"):
            core._validate_rows(M, (3, 4), "rows")


class TestPredictionErrorOnSupports:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_rows(self, seed):
        inst = random_instance(50, [1, 2, 3] * 16 + [2, 2], sparsity=0.1, seed=seed)
        other = random_instance(50, [1, 2, 3] * 16 + [2, 2], sparsity=0.2, seed=seed + 10)
        pred = build_prediction(inst, other.transition)
        P, E = np.asarray(inst.transition), np.asarray(pred)
        want = float(np.abs(E - P).sum(axis=1).max())
        assert math.isclose(prediction_error(inst, pred), want, rel_tol=1e-15)


def test_sparse_file_round_trip_at_s1000(tmp_path):
    inst = random_instance(1000, 4, sparsity=0.05)
    other = random_instance(1000, 4, sparsity=0.05, seed=1).transition
    pred = build_prediction(inst, other)
    path = tmp_path / "s1000.json"
    save_instance(path, inst, pred)
    assert path.stat().st_size < 20e6  # 95 MB in the dense layout
    got, got_pred = load_instance(path)
    # Loading renormalises the saved rows, which moves some entries by an ulp.
    for a, b in ((got.transition, inst.transition), (got_pred, pred)):
        assert a.starts.tobytes() == b.starts.tobytes()
        assert a.cols.tobytes() == b.cols.tobytes()
        np.testing.assert_allclose(a.vals, b.vals, rtol=1e-15, atol=0)
    assert got.reward.tobytes() == inst.reward.tobytes()


@pytest.mark.parametrize("preset", ["three-state", "hard-m0", "hard-mprime"])
def test_preset_file_round_trip_is_bitwise(tmp_path, preset):
    # Three-state with its inaccurate prediction, the hard family with P as
    # its prediction: every row's float sum is 1, so loading changes nothing.
    instance, _, inaccurate, _ = bench.resolve_instance(preset)
    prediction = instance.transition if inaccurate is None else inaccurate
    path = tmp_path / "inst.json"
    save_instance(path, instance, prediction)
    got, got_pred = load_instance(path)
    assert_csr_bitwise(got.transition, instance.transition)
    assert_csr_bitwise(got_pred, prediction)
    assert got.reward.tobytes() == instance.reward.tobytes()


def test_file_round_trip_renormalises_rows(tmp_path):
    # A file holds entries, and loading divides each row by its float sum, as
    # building does: a value in a row of k nonzeros moves by at most 2k eps.
    inst = random_instance(300, 2, sparsity=0.1)
    path = tmp_path / "inst.json"
    save_instance(path, inst)
    P, got = inst.transition, load_instance(path)[0].transition
    assert P.starts.tobytes() == got.starts.tobytes()
    assert P.cols.tobytes() == got.cols.tobytes()
    k = np.diff(P.starts)[P.rows]
    moved = np.abs(got.vals - P.vals) / P.vals
    assert np.all(moved <= 2 * k * np.finfo(float).eps)
    assert np.any(moved > 0)  # the rows whose float sum is not exactly 1
