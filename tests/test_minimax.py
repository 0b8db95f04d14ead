import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdp import minimax
from pdmdp.core import InfeasiblePoint, ShapeMismatch, build_instance
from pdmdp.exact import occupancy_measure, value_iteration
from pdmdp.instances import random_instance
from pdmdp.minimax import (
    check_feasible,
    duality_gap,
    exact_gradients,
    lagrangian,
    shifted_transition_apply,
    shifted_transition_apply_t,
)


def tiny_instance():
    return build_instance(1, [1], [[1.0]], [1.0], 0.5)


def random_feasible(instance, rng):
    v = rng.uniform(-instance.value_radius, instance.value_radius, instance.num_states)
    mu = rng.dirichlet(np.ones(instance.num_pairs))
    return v, mu


class TestLagrangian:
    def test_single_state_constant(self):
        inst = tiny_instance()
        for v in (-2.0, 0.0, 2.0):
            assert lagrangian(inst, [1.0], [v], [1.0]) == pytest.approx(1.0)

    def test_v_zero_reduces_to_reward(self, ex3):
        mu = np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
        assert lagrangian(ex3.instance, ex3.q, np.zeros(3), mu) == pytest.approx(
            float(mu @ ex3.instance.reward)
        )

    def test_value_at_saddle_point(self, ex3, ex3_solution):
        mu_star = occupancy_measure(ex3.instance, ex3_solution.optimal_policy, ex3.q)
        f = lagrangian(ex3.instance, ex3.q, ex3_solution.optimal_value, mu_star)
        assert f == pytest.approx(0.5 * float(ex3.q @ ex3_solution.optimal_value), abs=1e-10)

    def test_infeasible_rejected(self, ex3):
        with pytest.raises(InfeasiblePoint):
            lagrangian(ex3.instance, ex3.q, np.full(3, 5.0), np.full(6, 1 / 6))
        with pytest.raises(InfeasiblePoint):
            lagrangian(ex3.instance, ex3.q, np.zeros(3), np.full(6, 0.5))

    def test_nan_v_rejected(self, ex3):
        v = [np.nan, 0.0, 0.0]
        with pytest.raises(InfeasiblePoint):
            duality_gap(ex3.instance, ex3.q, v, np.full(6, 1 / 6))
        with pytest.raises(InfeasiblePoint):
            lagrangian(ex3.instance, ex3.q, v, np.full(6, 1 / 6))

    def test_nan_mu_rejected(self, ex3):
        mu = np.full(6, 1 / 6)
        mu[2] = np.nan
        with pytest.raises(InfeasiblePoint):
            duality_gap(ex3.instance, ex3.q, np.zeros(3), mu)
        with pytest.raises(InfeasiblePoint):
            lagrangian(ex3.instance, ex3.q, np.zeros(3), mu)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        inst = random_instance(3, 2, seed=seed)
        v1, mu = random_feasible(inst, rng)
        v2, mu2 = random_feasible(inst, rng)
        q = rng.dirichlet(np.ones(inst.num_states))
        mix_v = alpha * v1 + (1 - alpha) * v2
        assert lagrangian(inst, q, mix_v, mu) == pytest.approx(
            alpha * lagrangian(inst, q, v1, mu)
            + (1 - alpha) * lagrangian(inst, q, v2, mu),
            abs=1e-9,
        )
        mix_mu = alpha * mu + (1 - alpha) * mu2
        assert lagrangian(inst, q, v1, mix_mu) == pytest.approx(
            alpha * lagrangian(inst, q, v1, mu)
            + (1 - alpha) * lagrangian(inst, q, v1, mu2),
            abs=1e-9,
        )


class TestExactGradients:
    def test_zero_v_zero_reward(self):
        inst = build_instance(2, [1, 1], [[0.5, 0.5], [0, 1]], [0, 0], 0.5)
        _, g_mu = exact_gradients(inst, [0.5, 0.5], np.zeros(2), np.full(2, 0.5))
        np.testing.assert_allclose(g_mu, 0.0)

    def test_single_state_constant_objective(self):
        inst = tiny_instance()
        g_v, _ = exact_gradients(inst, [1.0], [0.3], [1.0])
        np.testing.assert_allclose(g_v, 0.0, atol=1e-15)

    @pytest.mark.parametrize("name, size", [("v", 1), ("v", 5), ("mu", 5), ("mu", 7)])
    def test_wrong_length_rejected(self, ex3, name, size):
        # A length-5 v on three states used to give gradients, a length-1 v
        # an IndexError and a mu of the wrong length numpy's bincount error.
        args = {"v": np.zeros(3), "mu": np.full(6, 1 / 6), name: np.zeros(size)}
        with pytest.raises(ShapeMismatch, match=f"{name} must have length"):
            exact_gradients(ex3.instance, ex3.q, args["v"], args["mu"])

    def test_matches_finite_differences(self, ex3):
        rng = np.random.default_rng(7)
        inst = ex3.instance
        h = 1e-6
        for _ in range(20):
            v, mu = random_feasible(inst, rng)
            v *= 0.5  # keep interior so perturbed points stay feasible
            g_v, g_mu = exact_gradients(inst, ex3.q, v, mu)
            for k in range(inst.num_states):
                e = np.zeros(inst.num_states)
                e[k] = h
                fd = (
                    lagrangian(inst, ex3.q, v + e, mu)
                    - lagrangian(inst, ex3.q, v - e, mu)
                ) / (2 * h)
                assert fd == pytest.approx(g_v[k], abs=1e-6)
            # mu-side: compare along simplex-tangent directions.
            for k in range(1, inst.num_pairs):
                d = np.zeros(inst.num_pairs)
                d[0], d[k] = 1.0, -1.0
                step = h * d
                if np.any(mu + step < 0) or np.any(mu - step < 0):
                    continue
                fd = (
                    lagrangian(inst, ex3.q, v, mu + step)
                    - lagrangian(inst, ex3.q, v, mu - step)
                ) / (2 * h)
                # g_mu is the negated gradient in mu.
                assert fd == pytest.approx(-(g_mu[0] - g_mu[k]), abs=1e-6)


class TestDualityGap:
    def test_zero_at_saddle_point(self, ex3, ex3_solution):
        mu_star = occupancy_measure(ex3.instance, ex3_solution.optimal_policy, ex3.q)
        gap = duality_gap(ex3.instance, ex3.q, ex3_solution.optimal_value, mu_star)
        assert -1e-12 <= gap <= 1e-8

    def test_single_state_always_zero(self):
        inst = tiny_instance()
        for v in (-2.0, -0.5, 0.0, 2.0):
            assert duality_gap(inst, [1.0], [v], [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_fixture_origin_uniform(self, ex3):
        # Derived once from the closed forms and cross-checked below by
        # brute force over simplex vertices and box corners.
        gap = duality_gap(ex3.instance, ex3.q, np.zeros(3), np.full(6, 1 / 6))
        assert gap == pytest.approx(0.7663333333333333, abs=1e-12)

    def test_closed_forms_match_brute_force(self, ex3):
        inst = ex3.instance
        rng = np.random.default_rng(11)
        radius = inst.value_radius
        for _ in range(20):
            v, mu = random_feasible(inst, rng)
            gap = duality_gap(inst, ex3.q, v, mu)
            # Inner max: brute force over all simplex vertices.
            best_max = -np.inf
            for k in range(inst.num_pairs):
                vertex = np.zeros(inst.num_pairs)
                vertex[k] = 1.0
                best_max = max(best_max, lagrangian(inst, ex3.q, v, vertex))
            # Inner min: brute force over all box corners.
            best_min = np.inf
            for signs in itertools.product([-1.0, 1.0], repeat=inst.num_states):
                corner = radius * np.array(signs)
                best_min = min(best_min, lagrangian(inst, ex3.q, corner, mu))
            assert gap == pytest.approx(best_max - best_min, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_weak_duality_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(3, 2, seed=seed % 5)
        v, mu = random_feasible(inst, rng)
        q = rng.dirichlet(np.ones(inst.num_states))
        assert duality_gap(inst, q, v, mu) >= -1e-12


class TestFeasibleSets:
    def test_renormalization_within_tolerance(self, ex3):
        mu = np.full(6, 1 / 6)
        mu[0] += 5e-13
        _, mu = check_feasible(ex3.instance, np.zeros(3), mu)
        assert mu.sum() == pytest.approx(1.0, abs=1e-15)

    def test_shifted_operators_are_adjoint(self, ex3):
        rng = np.random.default_rng(3)
        v = rng.normal(size=3)
        mu = rng.normal(size=6)
        lhs = float(mu @ shifted_transition_apply(ex3.instance, v))
        rhs = float(shifted_transition_apply_t(ex3.instance, mu) @ v)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def dense_shifted_apply(instance, v):
    """(gamma P - Ihat) v through the dense N x S transition, as the oracle."""
    return instance.discount * (np.asarray(instance.transition) @ v) - v[instance.pair_state]


def dense_shifted_apply_t(instance, mu):
    """(gamma P - Ihat)^T mu through the dense transition, as the oracle."""
    per_state = np.bincount(instance.pair_state, weights=mu, minlength=instance.num_states)
    return instance.discount * (np.asarray(instance.transition).T @ mu) - per_state


class TestAgainstDenseOracle:
    @given(
        st.integers(0, 10_000),
        st.lists(st.integers(1, 4), min_size=1, max_size=30),
        st.sampled_from([0.05, 0.3, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_products_and_gap(self, seed, actions, sparsity):
        rng = np.random.default_rng(seed)
        inst = random_instance(len(actions), actions, sparsity=sparsity, seed=seed)
        v, mu = random_feasible(inst, rng)
        q = rng.dirichlet(np.ones(inst.num_states))
        np.testing.assert_allclose(
            shifted_transition_apply(inst, v), dense_shifted_apply(inst, v),
            rtol=0, atol=1e-12,
        )
        np.testing.assert_allclose(
            shifted_transition_apply_t(inst, mu), dense_shifted_apply_t(inst, mu),
            rtol=0, atol=1e-14,
        )
        gap = duality_gap(inst, q, v, mu)
        with mock.patch.multiple(
            minimax,
            shifted_transition_apply=dense_shifted_apply,
            shifted_transition_apply_t=dense_shifted_apply_t,
        ):
            reference = duality_gap(inst, q, v, mu)
        assert abs(gap - reference) <= 1e-12 * max(1.0, abs(reference))
