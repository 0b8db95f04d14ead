import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmdp.core import (
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
    pair_unindex,
    prediction_error,
    save_instance,
    scalar_value,
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
            np.testing.assert_allclose(inst.transition.sum(axis=1), 1.0, atol=1e-15)


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
        assert pair_index(ex3.instance, 1, 0).flat == 2
        assert pair_unindex(ex3.instance, 5) == (2, 1)

    def test_out_of_range(self, ex3):
        with pytest.raises(OutOfRange):
            pair_index(ex3.instance, 3, 0)
        with pytest.raises(OutOfRange):
            pair_index(ex3.instance, 0, 2)
        with pytest.raises(OutOfRange):
            pair_unindex(ex3.instance, 6)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        num_states = int(rng.integers(1, 6))
        actions = [int(rng.integers(1, 4)) for _ in range(num_states)]
        inst = random_instance(num_states, actions, seed=seed)
        for flat in range(inst.num_pairs):
            state, action = pair_unindex(inst, flat)
            assert pair_index(inst, state, action).flat == flat


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
        d_ab = float(np.abs(a.entries - b.entries).sum(axis=1).max())
        assert 0.0 <= d_pa <= 2.0
        assert d_pa <= d_pb + d_ab + 1e-12  # triangle inequality
        # Symmetry: swap the roles of the two matrices.
        inst_b = build_instance(
            inst.num_states,
            inst.actions_per_state,
            a.entries,
            inst.reward,
            inst.discount,
        )
        pred_p = build_prediction(inst_b, inst.transition)
        assert prediction_error(inst_b, pred_p) == pytest.approx(d_pa)


class TestScalarValue:
    def test_examples(self):
        assert scalar_value([1.0], [2.0]) == 2.0
        assert scalar_value([0.4, 0.4, 0.2], [1, 1, 1]) == pytest.approx(1.0)
        assert scalar_value([0.5, 0.5], [0, 2]) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            scalar_value([0.5, 0.5], [1.0])


class TestInstanceFiles:
    def test_round_trip(self, tmp_path, ex3):
        path = tmp_path / "inst.json"
        save_instance(path, ex3.instance, ex3.inaccurate_prediction)
        inst, pred = load_instance(path)
        np.testing.assert_array_equal(inst.transition, ex3.instance.transition)
        np.testing.assert_array_equal(pred.entries, ex3.inaccurate_prediction.entries)

    def test_loader_validates(self, tmp_path):
        doc = instance_to_dict(tiny_instance())
        doc["transition"] = [[0.8]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NotStochastic):
            load_instance(path)

    def test_missing_field(self):
        with pytest.raises(ShapeMismatch):
            instance_from_dict({"num_states": 1})
