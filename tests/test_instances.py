import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdp.core import SpecOutOfRange, prediction_error
from pdmdp.exact import value_iteration
from pdmdp.instances import (
    HardFamilySpec,
    hard_family,
    hard_family_optimal_values,
    random_instance,
    three_state_example,
)


class TestThreeStateExample:
    def test_model_arrays(self, ex3):
        inst = ex3.instance
        assert inst.num_states == 3
        assert inst.actions_per_state == (2, 2, 2)
        assert inst.discount == 0.5
        np.testing.assert_allclose(
            inst.transition,
            [
                [1.0, 0.0, 0.0],
                [0.4, 0.0, 0.6],
                [0.0, 1.0, 0.0],
                [0.0, 0.4, 0.6],
                [0.4, 0.4, 0.2],
                [0.2, 0.2, 0.6],
            ],
        )
        np.testing.assert_allclose(inst.reward, [0.001, 0.5, 0.001, 0.5, 1.0, 1.0])
        np.testing.assert_allclose(ex3.q, [0.4, 0.4, 0.2])
        assert ex3.epsilon == 0.05

    def test_prediction_distances(self, ex3):
        assert prediction_error(ex3.instance, ex3.accurate_prediction) == 0.0
        assert prediction_error(ex3.instance, ex3.inaccurate_prediction) == 2.0


class TestHardFamilySpec:
    def test_frozen_parameters_at_half_discount(self):
        spec = HardFamilySpec(m=2, n=3, discount=0.5, epsilon=0.05)
        assert spec.base_loop == pytest.approx(2.0 / 3.0)
        assert spec.delta == pytest.approx(1.0 / 24.0)

    def test_validation_rejections(self):
        with pytest.raises(SpecOutOfRange):
            HardFamilySpec(m=1, n=1, discount=0.5, epsilon=0.05).validate()
        with pytest.raises(SpecOutOfRange):
            HardFamilySpec(m=2, n=2, discount=0.2, epsilon=0.05).validate()
        with pytest.raises(SpecOutOfRange):
            HardFamilySpec(m=2, n=2, discount=0.5, epsilon=0.2).validate()
        with pytest.raises(SpecOutOfRange):
            HardFamilySpec(
                m=2, n=2, discount=0.5, epsilon=0.05, perturbed_chain=(1, 1)
            ).validate()
        with pytest.raises(SpecOutOfRange):
            HardFamilySpec(
                m=2, n=2, discount=0.5, epsilon=0.05, perturbed_chain=(3, 1)
            ).validate()


class TestHardFamilyInstance:
    def test_layer_structure(self):
        spec = HardFamilySpec(m=2, n=3, discount=0.5, epsilon=0.05)
        inst = hard_family(spec)
        assert inst.num_states == 2 + 2 * 2 * 3
        assert inst.actions_per_state == (3, 3) + (1,) * 12
        # Start states earn nothing, middles earn 1, ends earn nothing.
        np.testing.assert_allclose(inst.reward[:6], 0.0)
        np.testing.assert_allclose(inst.reward[6:12], 1.0)
        np.testing.assert_allclose(inst.reward[12:], 0.0)
        # End states absorb.
        for k in range(6):
            row = np.asarray(inst.transition)[12 + k]
            assert row[8 + k] == 1.0

    def test_boosted_chain_loop_probabilities(self):
        spec = HardFamilySpec(m=2, n=3, discount=0.5, epsilon=0.05)
        inst = hard_family(spec)
        # Middle (1, 1) self-loops with base_loop + delta, others base_loop.
        P = np.asarray(inst.transition)
        assert P[6, 2] == pytest.approx(2 / 3 + 1 / 24)
        assert P[7, 3] == pytest.approx(2 / 3)

    def test_perturbation_distance(self):
        base = HardFamilySpec(m=2, n=3, discount=0.5, epsilon=0.05)
        pert = HardFamilySpec(m=2, n=3, discount=0.5, epsilon=0.05, perturbed=True)
        a = hard_family(base)
        b = hard_family(pert)
        P_a, P_b = np.asarray(a.transition), np.asarray(b.transition)
        dist = np.abs(P_a - P_b).sum(axis=1).max()
        assert dist == pytest.approx(4.0 * base.delta)

    def test_perturbed_value_separation(self):
        # The boosted chain of the perturbed variant beats the unperturbed
        # chain value 1 / (1 - gamma * base_loop) by at least 2 epsilon.
        spec = HardFamilySpec(m=2, n=3, discount=0.5, epsilon=0.05, perturbed=True)
        values = hard_family_optimal_values(spec)
        unperturbed = 1.0 / (1.0 - spec.discount * spec.base_loop)
        k, l = spec.perturbed_chain
        boosted = values[spec.m + (k - 1) * spec.n + (l - 1)]
        assert boosted - unperturbed >= 2.0 * spec.epsilon

    @given(
        st.sampled_from([0.4, 0.5, 0.8, 0.9, 0.95]),
        st.sampled_from([0.01, 0.05]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_value_iteration(self, gamma, eps, m, n, perturbed):
        if m * n <= 1:
            n = 2
        if eps > 1.0 / (40.0 * (1.0 - gamma)):
            eps = 0.01
        chain = (1, 2) if n >= 2 else (m, 1)
        spec = HardFamilySpec(
            m=m, n=n, discount=gamma, epsilon=eps,
            perturbed=perturbed, perturbed_chain=chain,
        )
        inst = hard_family(spec)
        sol = value_iteration(inst, 1e-12)
        np.testing.assert_allclose(
            sol.optimal_value, hard_family_optimal_values(spec), atol=1e-8
        )


class TestRandomInstance:
    def test_validity_and_shapes(self):
        inst = random_instance(5, 3, seed=1)
        assert inst.num_pairs == 15
        P = np.asarray(inst.transition)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(inst.reward >= 0) and np.all(inst.reward <= 1)

    def test_seed_determinism(self):
        a = random_instance(4, 2, seed=42)
        b = random_instance(4, 2, seed=42)
        np.testing.assert_array_equal(a.transition, b.transition)
        np.testing.assert_array_equal(a.reward, b.reward)
        c = random_instance(4, 2, seed=43)
        assert not np.array_equal(a.transition, c.transition)

    def test_sparsity_controls_support(self):
        inst = random_instance(10, 2, sparsity=0.3, seed=0)
        support = (np.asarray(inst.transition) > 0).sum(axis=1)
        assert np.all(support <= 3)
        with pytest.raises(SpecOutOfRange):
            random_instance(5, 2, sparsity=0.0)

    def test_per_state_action_counts(self):
        inst = random_instance(3, [1, 2, 3], seed=0)
        assert inst.actions_per_state == (1, 2, 3)

    def test_discount_parameter(self):
        assert random_instance(2, 1, seed=0, discount=0.7).discount == 0.7
