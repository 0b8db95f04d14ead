import numpy as np
import pytest

from pdmdp.core import (
    NotStochastic,
    PredictionMatrix,
    ShapeMismatch,
    build_instance,
    build_prediction,
    check_distribution,
)
from pdmdp.exact import occupancy_measure, policy_evaluation, value_iteration
from pdmdp.instances import random_instance
from pdmdp.minimax import duality_gap, exact_gradients
from pdmdp.optimistic_pd import (
    default_checkpoints,
    extract_policy,
    fresh_mu_gradient,
    mu_gradient_from_counts,
    mu_learning_rate,
    predicted_mu_gradient,
    run,
    sampled_v_gradient,
    update_mu,
    update_v,
    v_learning_rate,
)
from pdmdp.sampling import (
    SampleBudgetLedger,
    make_streams,
    sample_categorical,
    sample_transition,
)
from pdmdp.smd import run_smd


def dense_reference_run(
    instance, prediction, q, horizon, seed, checkpoints, mu_estimator, fixed_rates
):
    """The engine loop written plainly, as the oracle for run().

    Every step recomputes both N x S products and the full value step, and
    every categorical draw is validated. Returns (step, gap, value, v_bar,
    mu_bar) per checkpoint.
    """
    q = check_distribution(q, instance.num_states, "q")
    n, s = instance.num_pairs, instance.num_states
    gamma, radius = instance.discount, instance.value_radius
    streams = make_streams(seed)
    ledger = SampleBudgetLedger.for_instance(instance)
    v, mu = np.zeros(s), np.full(n, 1.0 / n)
    zeros = np.zeros(n)
    g_bar = zeros if prediction is None else predicted_mu_gradient(instance, prediction, v)
    sum_v, sum_mu = np.zeros(s), np.zeros(n)
    v_sq = mu_sq = 0.0
    pair_counts = np.zeros(n, dtype=np.int64)
    triple_counts = np.zeros((n, s), dtype=np.int64)
    rows = []
    for t in range(1, horizon + 1):
        sum_v += v
        sum_mu += mu
        pair = sample_categorical(mu, streams["v-side"])
        nxt = sample_transition(instance, pair, streams["v-side"], ledger)
        init = sample_categorical(q, streams["initial-state"])
        g_v = sampled_v_gradient(s, gamma, init, nxt, instance.pair_state[pair])
        v_sq += float(g_v @ g_v)
        eta_v = fixed_rates[0] if fixed_rates else v_learning_rate(s, gamma, v_sq)
        v_next = update_v(v, g_v, eta_v, radius)
        pair2 = sample_categorical(np.full(n, 1.0 / n), streams["mu-side"])
        nxt2 = sample_transition(instance, pair2, streams["mu-side"], ledger)
        pair_counts[pair2] += 1
        triple_counts[pair2, nxt2] += 1
        if mu_estimator == "averaged":
            g_mu = mu_gradient_from_counts(instance, pair_counts, triple_counts, t, v)
        else:
            g_mu = fresh_mu_gradient(instance, pair2, nxt2, v)
        g_bar_next = (
            zeros if prediction is None else predicted_mu_gradient(instance, prediction, v_next)
        )
        deviation = g_mu - g_bar
        mu_sq += float(np.abs(deviation).max()) ** 2
        eta_mu = fixed_rates[1] if fixed_rates else mu_learning_rate(n, mu_sq)
        mu = update_mu(mu, deviation + g_bar_next, eta_mu)
        g_bar, v = g_bar_next, v_next
        if t in checkpoints:
            v_bar, mu_bar = sum_v / t, sum_mu / t
            value = q @ policy_evaluation(instance, extract_policy(instance, mu_bar))
            rows.append((t, duality_gap(instance, q, v_bar, mu_bar), value, v_bar, mu_bar))
    return rows


def assert_matches_reference(out, reference, rtol):
    assert [p.step for p in out.trace] == [row[0] for row in reference]
    for point, (_, gap, value, v_bar, mu_bar) in zip(out.trace, reference):
        assert point.gap == pytest.approx(gap, rel=rtol, abs=0.0)
        assert point.value == pytest.approx(value, rel=rtol, abs=0.0)
        np.testing.assert_allclose(point.averaged_v, v_bar, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(point.averaged_mu, mu_bar, rtol=rtol, atol=0.0)


class TestGradientEstimators:
    def test_sampled_v_gradient_sparsity(self):
        g = sampled_v_gradient(3, 0.5, 0, 1, 2)
        np.testing.assert_allclose(g, [0.5, 0.5, -1.0])

    def test_sampled_v_gradient_collapsed(self):
        # All three indices equal: coefficients telescope to zero.
        g = sampled_v_gradient(4, 0.3, 1, 1, 1)
        np.testing.assert_allclose(g, 0.0)

    def test_fresh_mu_gradient_example(self, ex3):
        # Pair 0 is (state 0, stay), reward 0.001; v constant at 2 gives
        # 6 * (2 - 0.5 * 2 - 0.001).
        g = fresh_mu_gradient(ex3.instance, 0, 0, np.full(3, 2.0))
        assert g[0] == pytest.approx(5.994)
        np.testing.assert_allclose(g[1:], 0.0)

    def test_averaged_estimator_exact_at_expected_counts(self, ex3):
        # Counts matching t * uniform(pair) * P(next | pair) reproduce the
        # exact dual gradient with no noise.
        inst = ex3.instance
        t = 600
        pair_counts = np.full(6, t / 6)
        triple_counts = (t / 6) * inst.transition
        rng = np.random.default_rng(1)
        v = rng.uniform(-2, 2, 3)
        got = mu_gradient_from_counts(inst, pair_counts, triple_counts, t, v)
        _, g_mu = exact_gradients(inst, ex3.q, v, np.full(6, 1 / 6))
        np.testing.assert_allclose(got, g_mu, atol=1e-12)

    def test_predicted_gradient_matches_exact_when_accurate(self, ex3):
        rng = np.random.default_rng(2)
        v = rng.uniform(-2, 2, 3)
        pred = predicted_mu_gradient(ex3.instance, ex3.accurate_prediction, v)
        _, g_mu = exact_gradients(ex3.instance, ex3.q, v, np.full(6, 1 / 6))
        np.testing.assert_allclose(pred, g_mu, atol=1e-12)


class TestLearningRates:
    def test_v_rate_frozen_example(self):
        assert v_learning_rate(3, 0.5, 1.5) == pytest.approx(2.0)

    def test_zero_denominator_sentinel(self):
        assert v_learning_rate(3, 0.5, 0.0) is None
        assert mu_learning_rate(6, 0.0) is None

    def test_monotone_in_accumulated_norms(self):
        v_rates = [v_learning_rate(3, 0.9, s) for s in (0.5, 1.0, 4.0, 100.0)]
        assert all(a > b for a, b in zip(v_rates, v_rates[1:]))
        mu_rates = [mu_learning_rate(6, s) for s in (0.5, 1.0, 4.0, 100.0)]
        assert all(a > b for a, b in zip(mu_rates, mu_rates[1:]))

    def test_mu_rate_value(self):
        assert mu_learning_rate(6, 4.0) == pytest.approx(
            (np.sqrt(2) / 2) * np.sqrt(np.log(6)) / 2
        )


class TestUpdates:
    def test_update_v_clamps(self):
        v = update_v(np.zeros(3), np.array([0.5, -1.0, 0.5]), 2.0, 2.0)
        np.testing.assert_allclose(v, [-1.0, 2.0, -1.0])

    def test_update_v_none_is_noop_copy(self):
        v = np.ones(2)
        out = update_v(v, np.array([5.0, 5.0]), None, 2.0)
        np.testing.assert_array_equal(out, v)
        assert out is not v

    def test_update_mu_frozen_example(self):
        mu = update_mu(np.array([0.5, 0.5]), np.array([0.0, np.log(4.0)]), 1.0)
        np.testing.assert_allclose(mu, [0.8, 0.2])

    def test_update_mu_invariant_to_constant_shift(self):
        mu = np.array([0.3, 0.3, 0.4])
        g = np.array([1.0, -2.0, 0.5])
        a = update_mu(mu, g, 0.7)
        b = update_mu(mu, g + 13.0, 0.7)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_update_mu_stays_on_simplex_under_huge_gradients(self):
        mu = np.full(4, 0.25)
        out = update_mu(mu, np.array([1e4, -1e4, 0.0, 5e3]), 1.0)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0)
        assert np.all(np.isfinite(out))


class TestExtractPolicy:
    def test_zero_mass_state_uniform_fallback(self, ex3):
        mu = np.array([0.0, 0.0, 0.25, 0.25, 0.3, 0.2])
        pol = extract_policy(ex3.instance, mu)
        np.testing.assert_allclose(pol.probs[:2], 0.5)
        np.testing.assert_allclose(pol.probs[4:], [0.6, 0.4])

    def test_round_trip_through_occupancy(self, ex3, ex3_solution):
        mu = occupancy_measure(ex3.instance, ex3_solution.optimal_policy, ex3.q)
        pol = extract_policy(ex3.instance, mu)
        np.testing.assert_allclose(
            pol.probs, ex3_solution.optimal_policy.probs, atol=1e-12
        )


class TestCheckpoints:
    def test_small_horizon(self):
        assert default_checkpoints(1) == [1]
        assert default_checkpoints(4) == [1, 2, 3, 4]

    def test_always_includes_final_step(self):
        for horizon in (7, 100, 1234):
            points = default_checkpoints(horizon)
            assert points[-1] == horizon
            assert points == sorted(set(points))


class TestRun:
    def test_single_step_accounting(self, ex3):
        out = run(ex3.instance, ex3.accurate_prediction, ex3.q, 1, seed=0)
        assert out.ledger.transition_samples == 2
        # The averaged iterates over one step are the initial iterates.
        np.testing.assert_allclose(out.averaged_v, 0.0)
        np.testing.assert_allclose(out.averaged_mu, 1 / 6)
        assert len(out.trace) == 1
        assert out.trace[0].step == 1
        assert out.trace[0].transition_samples == 2

    def test_sample_budget_is_two_per_step(self, ex3):
        out = run(ex3.instance, ex3.accurate_prediction, ex3.q, 250, seed=3)
        assert out.ledger.transition_samples == 500

    def test_determinism(self, ex3):
        a = run(ex3.instance, ex3.inaccurate_prediction, ex3.q, 200, seed=11)
        b = run(ex3.instance, ex3.inaccurate_prediction, ex3.q, 200, seed=11)
        np.testing.assert_array_equal(a.averaged_v, b.averaged_v)
        np.testing.assert_array_equal(a.averaged_mu, b.averaged_mu)
        assert [p.gap for p in a.trace] == [p.gap for p in b.trace]

    def test_seed_changes_output(self, ex3):
        a = run(ex3.instance, ex3.accurate_prediction, ex3.q, 200, seed=0)
        b = run(ex3.instance, ex3.accurate_prediction, ex3.q, 200, seed=1)
        assert not np.array_equal(a.averaged_v, b.averaged_v)

    def test_iterates_stay_feasible(self, ex3):
        out = run(
            ex3.instance,
            ex3.inaccurate_prediction,
            ex3.q,
            64,
            seed=5,
            checkpoints=range(1, 65),
        )
        radius = ex3.instance.value_radius
        for point in out.trace:
            assert np.abs(point.averaged_v).max() <= radius + 1e-12
            assert point.averaged_mu.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(point.averaged_mu >= 0)
            assert point.gap >= -1e-12

    def test_no_prediction_and_fresh_estimator_paths(self, ex3):
        out = run(ex3.instance, None, ex3.q, 100, seed=2, mu_estimator="fresh")
        assert out.ledger.transition_samples == 200
        assert np.isfinite(out.trace[-1].gap)

    def test_fixed_rates_path(self, ex3):
        out = run(
            ex3.instance, None, ex3.q, 50, seed=2, fixed_rates=(0.01, 0.001)
        )
        assert out.trace[-1].gap >= -1e-12

    def test_rejects_prediction_of_wrong_shape(self, ex3):
        entries = ex3.accurate_prediction.entries
        for bad in (np.hstack([entries, np.zeros((6, 1))]), entries[:5]):
            with pytest.raises(ShapeMismatch):
                run(ex3.instance, PredictionMatrix(bad), ex3.q, 10, seed=0)

    def test_rejects_bad_arguments(self, ex3):
        with pytest.raises(ValueError):
            run(ex3.instance, None, ex3.q, 0, seed=0)
        with pytest.raises(ValueError):
            run(ex3.instance, None, ex3.q, 10, seed=0, mu_estimator="bogus")
        with pytest.raises(NotStochastic):
            run(ex3.instance, None, [np.nan, 0.5, 0.5], 10, seed=0)

    def test_gap_shrinks_on_easy_instance(self):
        # Two states, one action each; the saddle point is easy to find.
        inst = build_instance(2, [1, 1], [[0.5, 0.5], [0.5, 0.5]], [1, 0], 0.5)
        pred = build_prediction(inst, inst.transition)
        out = run(inst, pred, [0.5, 0.5], 4000, seed=0, checkpoints=[10, 4000])
        assert out.trace[-1].gap < out.trace[0].gap

    def test_policy_value_approaches_optimum(self, ex3, ex3_solution):
        out = run(ex3.instance, ex3.accurate_prediction, ex3.q, 8000, seed=0)
        target = float(np.asarray(ex3.q) @ ex3_solution.optimal_value)
        assert out.trace[-1].value == pytest.approx(target, abs=0.15)


class TestAgainstDenseReference:
    """run() keeps C @ v and E @ v up to date; the oracle recomputes them."""

    def test_long_run_matches(self):
        inst = random_instance(5, 3, seed=4)
        pred = build_prediction(inst, inst.transition)
        q = np.full(5, 0.2)
        horizon = 100_000
        checkpoints = {1, 100, 4095, 4096, 4097, 30_000, horizon}
        out = run(inst, pred, q, horizon, seed=9, checkpoints=checkpoints)
        reference = dense_reference_run(
            inst, pred, q, horizon, 9, checkpoints, "averaged", None
        )
        assert_matches_reference(out, reference, rtol=1e-9)

    @pytest.mark.parametrize("with_prediction", [True, False])
    @pytest.mark.parametrize("mu_estimator", ["averaged", "fresh"])
    @pytest.mark.parametrize("fixed_rates", [None, (0.01, 0.001)])
    def test_every_engine_variant_matches(
        self, ex3, with_prediction, mu_estimator, fixed_rates
    ):
        pred = ex3.inaccurate_prediction if with_prediction else None
        checkpoints = {1, 2, 3, 64, 65, 999, 1000}
        out = run(ex3.instance, pred, ex3.q, 1000, seed=3, checkpoints=checkpoints,
                  mu_estimator=mu_estimator, fixed_rates=fixed_rates)
        reference = dense_reference_run(
            ex3.instance, pred, ex3.q, 1000, 3, checkpoints, mu_estimator, fixed_rates
        )
        assert_matches_reference(out, reference, rtol=1e-9)


def trace_rows(out):
    return {
        p.step: (p.transition_samples, p.gap, p.value,
                 p.averaged_v.tobytes(), p.averaged_mu.tobytes())
        for p in out.trace
    }


@pytest.mark.parametrize("solver", ["optimistic", "smd"])
def test_short_run_is_a_bitwise_prefix_of_a_long_run(ex3, solver):
    def solve(horizon):
        if solver == "smd":
            return run_smd(ex3.instance, ex3.q, horizon, ex3.epsilon, seed=8)
        return run(ex3.instance, ex3.accurate_prediction, ex3.q, horizon, seed=8)

    short, long = trace_rows(solve(100)), trace_rows(solve(1600))
    shared = set(short) & set(long)
    assert len(shared) >= 10
    assert {step: short[step] for step in shared} == {step: long[step] for step in shared}
