import dataclasses
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmdp import core
from pdmdp.core import (
    STOCHASTIC_TOL,
    DiscountOutOfRange,
    NotStochastic,
    OutOfRange,
    RewardOutOfRange,
    ShapeMismatch,
    build_instance,
    build_policy,
    build_prediction,
    check_distribution,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    pair_index,
    prediction_error,
    save_instance,
)
from pdmdp.instances import random_instance


def tiny_instance():
    return build_instance(1, [1], [[1.0]], [1.0], 0.5)


class TestBuildInstance:
    def test_smallest_legal_model(self):
        inst = tiny_instance()
        assert inst.num_pairs == 1
        assert inst.value_radius == 2.0

    def test_three_state_example_valid(self, ex3):
        assert ex3.instance.num_pairs == 6
        np.testing.assert_allclose(
            ex3.instance.reward, [0.001, 0.5, 0.001, 0.5, 1.0, 1.0]
        )

    def test_non_stochastic_row_rejected(self):
        with pytest.raises(NotStochastic):
            build_instance(3, [1, 1, 1], [[0.5, 0.6, 0.0]] * 3, [0, 0, 0], 0.5)

    def test_negative_entry_rejected(self):
        with pytest.raises(NotStochastic):
            build_instance(2, [1, 1], [[1.2, -0.2], [0, 1]], [0, 0], 0.5)

    def test_reward_out_of_range(self):
        with pytest.raises(RewardOutOfRange):
            build_instance(1, [1], [[1.0]], [1.5], 0.5)

    def test_discount_boundaries(self):
        for gamma in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(DiscountOutOfRange):
                build_instance(1, [1], [[1.0]], [1.0], gamma)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            build_instance(2, [2, 1], [[1, 0], [0, 1]], [0, 0, 0], 0.5)

    @pytest.mark.parametrize("actions", [[1.9, 1], [True, 1], ["2", 1]])
    def test_action_counts_must_be_integers(self, actions):
        # P has as many rows as int() would make pairs: 2, 2 and 3.
        pairs = sum(map(int, actions))
        with pytest.raises(ShapeMismatch, match="^actions_per_state must hold integers"):
            build_instance(2, actions, [[1.0, 0.0]] * pairs, [0] * pairs, 0.5)

    def test_numpy_integer_action_counts(self):
        for actions in (np.array([2, 1]), [np.int32(2), np.int64(1)]):
            inst = build_instance(2, actions, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                                  [0] * 3, 0.5)
            assert inst.actions_per_state == (2, 1)
            assert all(type(a) is int for a in inst.actions_per_state)

    @pytest.mark.parametrize("what", ["transition", "reward"])
    def test_ragged_rows_name_the_field(self, what):
        args = dict(transition=[[1.0, 0.0], [0.0, 1.0]], reward=[0.0, 1.0])
        args[what] = [[1.0, 0.0], [1.0]]
        with pytest.raises(core.DmdpError, match=f"^{what}: "):
            build_instance(2, [1, 1], args["transition"], args["reward"], 0.5)

    def test_boundary_rewards_legal(self):
        inst = build_instance(1, [2], [[1.0], [1.0]], [0.0, 1.0], 0.9)
        assert inst.reward.tolist() == [0.0, 1.0]

    @given(st.floats(min_value=-1e-10, max_value=1e-10))
    # Boundary rows: at 1e-12 the float row sum rounds up past the tolerance
    # although the exact sum is within it; 1.00002e-12 is stored as that same
    # legal row; 1.0001e-12 is the next stored row, just outside.
    @example(1e-12)
    @example(1.00002e-12)
    @example(1.0001e-12)
    @example(-1e-12)
    @settings(max_examples=50, deadline=None)
    def test_near_stochastic_tolerance(self, wobble):
        # Rows off by more than 1e-12 are rejected; within, renormalized.
        # The stored row's exact deviation is (0.5 + wobble) - 0.5, a float
        # subtraction that is exact by Sterbenz's lemma.
        row = [[0.5, 0.5 + wobble]]
        if abs((0.5 + wobble) - 0.5) > 1e-12:
            with pytest.raises(NotStochastic):
                build_instance(2, [1, 1], row + [[0.0, 1.0]], [0, 0], 0.5)
        else:
            inst = build_instance(2, [1, 1], row + [[0.0, 1.0]], [0, 0], 0.5)
            P = np.asarray(inst.transition)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("n", [5000, 20000])
    def test_long_rows_judged_exactly(self, n):
        # Rows whose exact sum lies just inside, at and just outside 1 +- 1e-12,
        # against the exact Fraction sum of the stored entries.
        rng = np.random.default_rng(n)
        for target in (1 - 1e-3, 1 - 1e-5, 1.0, 1 + 1e-5, 1 + 1e-3, 1.01):
            for sign in (1.0, -1.0):
                row = rng.dirichlet(np.ones(n))
                row[0] += float(1 + Fraction(sign * target * STOCHASTIC_TOL) - exact_sum(row))
                legal = abs(exact_sum(row) - 1) <= Fraction(STOCHASTIC_TOL)
                if legal:
                    core._validate_rows(row[None, :], (1, n), "row")
                else:
                    with pytest.raises(NotStochastic):
                        core._validate_rows(row[None, :], (1, n), "row")

    @pytest.mark.parametrize("k", [2, 3, 9, 130, 1000, 4501, 8000, 9000, 9100])
    def test_decision_exact_at_any_nonzero_count(self, k):
        # k nonzeros among k + k // 3 columns, stepped ulp by ulp across
        # 1 +- 1e-12. From about 9007 nonzeros on, every row is summed again.
        rng = np.random.default_rng(k)
        num_cols = k + k // 3
        cols = np.sort(rng.choice(num_cols, size=k, replace=False))
        decisions = set()
        for sign in (1, -1):
            row = rng.dirichlet(np.ones(k))
            j = int(row.argmax())
            row[j] += float(1 + sign * Fraction(STOCHASTIC_TOL) - exact_sum(row))
            for step in range(-3, 4):
                stepped = row.copy()
                for _ in range(abs(step)):
                    stepped[j] = np.nextafter(stepped[j], 2.0 * step)
                legal = abs(exact_sum(stepped) - 1) <= Fraction(STOCHASTIC_TOL)
                M = core.CsrMatrix((1, num_cols), np.array([0, k]), cols, stepped)
                try:
                    core._validate_rows(M, M.shape, "row")
                    accepted = True
                except NotStochastic:
                    accepted = False
                assert accepted == legal, (sign, step)
                decisions.add(legal)
        assert decisions == {True, False}

    def test_long_rows_not_summed_again(self):
        # Rows far from the tolerance are judged by their float sum alone.
        rows = np.random.default_rng(0).dirichlet(np.ones(5000), size=20)
        with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            core._validate_rows(rows, rows.shape, "rows")
        assert fsum.call_count == 0


def exact_sum(entries):
    """Exact sum of float entries as a Fraction; their denominators are powers of two."""
    ratios = [x.as_integer_ratio() for x in entries.tolist()]
    den = max(d for _, d in ratios)
    return Fraction(sum(num * (den // d) for num, d in ratios), den)


class TestNanRejected:
    def test_build_instance(self):
        with pytest.raises(NotStochastic):
            build_instance(2, [1, 1], [[np.nan, 1.0], [0.0, 1.0]], [0, 0], 0.5)

    def test_build_prediction(self):
        with pytest.raises(NotStochastic):
            build_prediction(tiny_instance(), [[np.nan]])

    def test_build_policy(self):
        with pytest.raises(NotStochastic):
            build_policy(tiny_instance(), [np.nan])

    def test_reward(self):
        with pytest.raises(RewardOutOfRange):
            build_instance(1, [1], [[1.0]], [np.nan], 0.5)

    def test_check_distribution(self):
        with pytest.raises(NotStochastic):
            check_distribution([np.nan, 1.0], 2)


def test_policy_sum_judged_exactly():
    # Same boundary rows as test_near_stochastic_tolerance, as one state's
    # action distribution.
    inst = build_instance(1, [2], [[1.0], [1.0]], [0.0, 1.0], 0.9)
    policy = build_policy(inst, [0.5, 0.5 + 1e-12])
    np.testing.assert_allclose(policy.probs.sum(), 1.0, atol=1e-15)
    with pytest.raises(NotStochastic):
        build_policy(inst, [0.5, 0.5 + 1.0001e-12])


class TestPairIndexing:
    def test_state_major_layout(self, ex3):
        assert pair_index(ex3.instance, 1, 0) == 2
        assert pair_index(ex3.instance, 2, 1) == 5

    def test_out_of_range(self, ex3):
        with pytest.raises(OutOfRange):
            pair_index(ex3.instance, 3, 0)
        with pytest.raises(OutOfRange):
            pair_index(ex3.instance, 0, 2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        num_states = int(rng.integers(1, 6))
        actions = [int(rng.integers(1, 4)) for _ in range(num_states)]
        inst = random_instance(num_states, actions, seed=seed)
        flat = [pair_index(inst, s, a) for s in range(num_states) for a in range(actions[s])]
        assert flat == list(range(inst.num_pairs))
        assert [inst.pair_state[i] for i in flat] == inst.pair_state.tolist()
        assert [pair_index(inst, s, 0) for s in range(num_states)] == (
            inst.state_offsets.tolist()
        )


class TestPredictionError:
    def test_zero_on_identical(self, ex3):
        assert prediction_error(ex3.instance, ex3.accurate_prediction) == 0.0

    def test_inaccurate_prediction_distance_is_two(self, ex3):
        # Every predicted row is a unit mass disjoint from the true row's
        # support peak; first row: |1-0| + |0-1| = 2.
        assert prediction_error(ex3.instance, ex3.inaccurate_prediction) == 2.0

    def test_single_row_example(self):
        inst = build_instance(2, [1, 1], [[0.4, 0.6], [0, 1]], [0, 0], 0.5)
        pred = build_prediction(inst, [[0.5, 0.5], [0, 1]])
        assert prediction_error(inst, pred) == pytest.approx(0.2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_pseudometric_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(3, 2, seed=seed)
        rows = [rng.dirichlet(np.ones(3), size=6) for _ in range(2)]
        a = build_prediction(inst, rows[0])
        b = build_prediction(inst, rows[1])
        d_pa = prediction_error(inst, a)
        d_pb = prediction_error(inst, b)
        E_a, E_b = np.asarray(a), np.asarray(b)
        d_ab = float(np.abs(E_a - E_b).sum(axis=1).max())
        assert 0.0 <= d_pa <= 2.0
        assert d_pa <= d_pb + d_ab + 1e-12  # triangle inequality
        # Symmetry: swap the roles of the two matrices.
        inst_b = build_instance(
            inst.num_states,
            inst.actions_per_state,
            a,
            inst.reward,
            inst.discount,
        )
        pred_p = build_prediction(inst_b, inst.transition)
        assert prediction_error(inst_b, pred_p) == pytest.approx(d_pa)

    @pytest.mark.parametrize("kind", ["ndarray", "list"])
    def test_rejects_prediction_that_is_not_a_csr_matrix(self, ex3, kind):
        dense = np.asarray(ex3.accurate_prediction)
        bad = dense if kind == "ndarray" else dense.tolist()
        with pytest.raises(ShapeMismatch, match="build_prediction"):
            prediction_error(ex3.instance, bad)

    def test_accurate_prediction_is_exact(self):
        inst = random_instance(1000, 4, sparsity=0.05)
        pred = build_prediction(inst, inst.transition)
        assert prediction_error(inst, pred) == 0.0


def stochastic_rows(rng, num_rows, num_cols):
    """Random rows summing to 1, about half their entries zero."""
    rows = rng.dirichlet(np.ones(num_cols), size=num_rows)
    rows[rng.random(rows.shape) < 0.5] = 0.0
    rows[np.arange(num_rows), rng.integers(num_cols, size=num_rows)] += 0.5
    return rows / rows.sum(axis=1)[:, None]


def csr_cases():
    """(dense rows, their CSR form) for P and for a prediction E of P."""
    rng = np.random.default_rng(0)
    for actions in ([2, 1, 3], [3] * 40, [1, 4] * 30):
        S, N = len(actions), sum(actions)
        P, E = stochastic_rows(rng, N, S), stochastic_rows(rng, N, S)
        inst = build_instance(S, actions, P, rng.uniform(size=N), 0.9)
        yield P, inst.transition
        yield E, build_prediction(inst, E)


class TestCsrMatrix:
    """P's and E's CSR form against the dense matrices it was built from."""

    @pytest.mark.parametrize("case", list(csr_cases()))
    def test_dense_round_trip_is_bitwise(self, case):
        # The dense form is the input divided by its row sums, entry by entry.
        dense, M = case
        assert np.asarray(M).tobytes() == (dense / np.cumsum(dense, axis=1)[:, -1:]).tobytes()
        rows, cols = np.nonzero(dense)
        np.testing.assert_array_equal(M.rows, rows)
        np.testing.assert_array_equal(M.cols, cols)
        np.testing.assert_array_equal(M.starts, np.searchsorted(rows, range(len(dense) + 1)))

    @pytest.mark.parametrize("case", list(csr_cases()))
    def test_products_match_dense(self, case):
        _, M = case
        dense = np.asarray(M)
        rng = np.random.default_rng(1)
        v, w = rng.uniform(-10, 10, M.shape[1]), rng.uniform(-10, 10, M.shape[0])
        np.testing.assert_allclose(M.apply(v), dense @ v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(M.apply_t(w), dense.T @ w, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", list(csr_cases()))
    def test_arrays_contiguous_and_fields_fixed(self, case):
        _, M = case
        arrays = [M.starts, M.cols, M.vals, M.rows, M.cumsum, *M.csc]
        assert all(a.flags.c_contiguous for a in arrays)
        with pytest.raises(dataclasses.FrozenInstanceError):
            M.vals = M.vals[::-1]


class TestInstanceFiles:
    def test_round_trip(self, tmp_path, ex3):
        path = tmp_path / "inst.json"
        save_instance(path, ex3.instance, ex3.inaccurate_prediction)
        inst, pred = load_instance(path)
        np.testing.assert_array_equal(inst.transition, ex3.instance.transition)
        np.testing.assert_array_equal(pred, ex3.inaccurate_prediction)

    def test_loader_validates(self, tmp_path):
        doc = instance_to_dict(tiny_instance())
        del doc["schema_version"]  # the dense layout
        doc["transition"] = [[0.8]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NotStochastic):
            load_instance(path)

    def test_loader_validates_sparse_layout(self, tmp_path):
        doc = instance_to_dict(tiny_instance())
        doc["transition"]["value"] = [0.8]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NotStochastic):
            load_instance(path)

    def test_missing_field(self):
        with pytest.raises(ShapeMismatch):
            instance_from_dict({"num_states": 1})
