import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdp.core import (
    NotStochastic,
    ShapeMismatch,
    build_instance,
    build_policy,
    build_prediction,
    check_distribution,
)
from pdmdp.exact import occupancy_measure, policy_evaluation, value_iteration
from pdmdp.instances import random_instance
from pdmdp.minimax import duality_gap, exact_gradients
from pdmdp.optimistic_pd import (
    REFRESH_PERIOD,
    _averaged_gradient,
    _DenseDual,
    _dual_gradient,
    default_checkpoints,
    extract_policy,
    mu_learning_rate,
    run,
    sampled_v_gradient,
    update_v,
    v_learning_rate,
)
from pdmdp.sampling import make_streams
from pdmdp.smd import run_smd


def checked_draw(weights, stream):
    """Inverse-CDF draw from a validated probability vector."""
    w = check_distribution(weights, len(weights))
    cumulative = np.cumsum(w)
    return int(np.searchsorted(cumulative, stream.uniform() * cumulative[-1], side="right"))


def dense_reference_run(
    instance, prediction, q, horizon, seed, checkpoints, mu_estimator, fixed_rates
):
    """The engine loop written plainly, as the oracle for run().

    Every step recomputes both N x S products and the full value step, every
    draw (the model's transitions included) is validated, and the gradient
    estimators and both mirror steps are written out here, not taken from the
    engine. Returns (step, gap, value, v_bar, mu_bar) per checkpoint.
    """
    q = check_distribution(q, instance.num_states, "q")
    n, s = instance.num_pairs, instance.num_states
    gamma, radius = instance.discount, instance.value_radius
    P, r, pair_state = np.asarray(instance.transition), instance.reward, instance.pair_state
    streams = make_streams(seed)
    v, mu = np.zeros(s), np.full(n, 1.0 / n)

    def predicted(v):
        if prediction is None:
            return np.zeros(n)
        return v[pair_state] - gamma * (np.asarray(prediction) @ v) - r

    g_bar = predicted(v)
    sum_v, sum_mu = np.zeros(s), np.zeros(n)
    v_sq = mu_sq = 0.0
    pair_counts = np.zeros(n, dtype=np.int64)
    triple_counts = np.zeros((n, s), dtype=np.int64)
    rows = []
    for t in range(1, horizon + 1):
        sum_v += v
        sum_mu += mu
        pair = checked_draw(mu, streams["v-side"])
        nxt = checked_draw(P[pair], streams["v-side"])
        init = checked_draw(q, streams["initial-state"])
        g_v = np.zeros(s)
        np.add.at(g_v, [init, nxt, pair_state[pair]], [1.0 - gamma, gamma, -1.0])
        v_sq += float(g_v @ g_v)
        eta_v = fixed_rates[0] if fixed_rates else v_learning_rate(s, gamma, v_sq)
        v_next = np.clip(v - eta_v * g_v, -radius, radius)
        pair2 = checked_draw(np.full(n, 1.0 / n), streams["mu-side"])
        nxt2 = checked_draw(P[pair2], streams["mu-side"])
        pair_counts[pair2] += 1
        triple_counts[pair2, nxt2] += 1
        if mu_estimator == "averaged":
            g_mu = (n / t) * (pair_counts * (v[pair_state] - r) - gamma * (triple_counts @ v))
        else:
            g_mu = np.zeros(n)
            g_mu[pair2] = n * (v[pair_state[pair2]] - gamma * v[nxt2] - r[pair2])
        g_bar_next = predicted(v_next)
        deviation = g_mu - g_bar
        mu_sq += float(np.abs(deviation).max()) ** 2
        eta_mu = fixed_rates[1] if fixed_rates else mu_learning_rate(n, mu_sq)
        if eta_mu:  # a zero rate leaves mu where it is
            combined = deviation + g_bar_next
            w = mu * np.exp(-eta_mu * (combined - combined.min()))
            mu = w / w.sum()
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

    def test_averaged_estimator_exact_at_expected_counts(self, ex3):
        # Counts matching t * uniform(pair) * P(next | pair) reproduce the
        # exact dual gradient with no noise.
        inst = ex3.instance
        t = 600
        pair_counts = np.full(6, t / 6)
        triple_counts = (t / 6) * np.asarray(inst.transition)
        rng = np.random.default_rng(1)
        v = rng.uniform(-2, 2, 3)
        got = _averaged_gradient(inst, pair_counts, triple_counts @ v, t, v)
        _, g_mu = exact_gradients(inst, ex3.q, v, np.full(6, 1 / 6))
        np.testing.assert_allclose(got, g_mu, atol=1e-12)

    def test_predicted_gradient_matches_exact_when_accurate(self, ex3):
        rng = np.random.default_rng(2)
        v = rng.uniform(-2, 2, 3)
        pred = _dual_gradient(ex3.instance, v, ex3.accurate_prediction @ v)
        _, g_mu = exact_gradients(ex3.instance, ex3.q, v, np.full(6, 1 / 6))
        np.testing.assert_allclose(pred, g_mu, atol=1e-12)


class TestLearningRates:
    def test_v_rate_frozen_example(self):
        assert v_learning_rate(3, 0.5, 1.5) == pytest.approx(2.0)

    def test_zero_denominator_sentinel(self):
        assert v_learning_rate(3, 0.5, 0.0) == 0.0
        assert mu_learning_rate(6, 0.0) == 0.0

    def test_monotone_in_accumulated_norms(self):
        v_rates = [v_learning_rate(3, 0.9, s) for s in (0.5, 1.0, 4.0, 100.0)]
        assert all(a > b for a, b in zip(v_rates, v_rates[1:]))
        mu_rates = [mu_learning_rate(6, s) for s in (0.5, 1.0, 4.0, 100.0)]
        assert all(a > b for a, b in zip(mu_rates, mu_rates[1:]))

    def test_mu_rate_value(self):
        assert mu_learning_rate(6, 4.0) == pytest.approx(
            (np.sqrt(2) / 2) * np.sqrt(np.log(6)) / 2
        )


def dense_dual(ex3):
    return _DenseDual(ex3.instance, None, np.zeros(3))


def dense_step(dual, deviation, eta):
    """One _DenseDual step on a set deviation, v held at zero (J empty)."""
    dual.deviation = np.asarray(deviation, dtype=float)
    dual.step(eta, np.zeros(3), np.array([], dtype=np.intp), np.array([]), False)
    return dual.mu


class TestUpdates:
    """update_v, and _DenseDual's step on mu (log weights, no prediction)."""

    def test_update_v_clamps(self):
        v = update_v(np.zeros(3), np.array([0.5, -1.0, 0.5]), 2.0, 2.0)
        np.testing.assert_allclose(v, [-1.0, 2.0, -1.0])

    def test_update_v_zero_rate_is_noop_copy(self):
        v = np.ones(2)
        out = update_v(v, np.array([5.0, 5.0]), 0.0, 2.0)
        np.testing.assert_array_equal(out, v)
        assert out is not v

    def test_update_mu_frozen_example(self, ex3):
        mu = dense_step(dense_dual(ex3), [0.0] + [np.log(4.0)] * 5, 1.0)
        np.testing.assert_allclose(mu, [4 / 9] + [1 / 9] * 5)

    def test_update_mu_invariant_to_constant_shift(self, ex3):
        g = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
        a = dense_step(dense_dual(ex3), g, 0.7)
        b = dense_step(dense_dual(ex3), g + 13.0, 0.7)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_update_mu_stays_on_simplex_under_huge_gradients(self, ex3):
        out = dense_step(dense_dual(ex3), [1e4, -1e4, 0.0, 5e3, -5e3, 1e4], 1.0)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(out >= 0)
        assert np.all(np.isfinite(out))

    def test_zero_rate_is_a_bitwise_noop(self, ex3):
        dual = dense_dual(ex3)
        before = dense_step(dual, [1.0, -2.0, 0.5, 0.0, 3.0, -1.0], 0.7).copy()
        after = dense_step(dual, [5.0, 0.0, -5.0, 1.0, 2.0, 3.0], 0.0)
        assert after.tobytes() == before.tobytes()

    def test_underflowed_coordinate_comes_back(self, ex3):
        # exp(-2000) underflows, so mu[0] is exactly 0; its log weight is kept.
        dual = dense_dual(ex3)
        assert dense_step(dual, [2000.0, 0, 0, 0, 0, 0], 1.0)[0] == 0.0
        assert dense_step(dual, [-2001.0, 0, 0, 0, 0, 0], 1.0)[0] > 0.0


def loop_extract_policy(instance, mu_bar):
    """extract_policy written as a per-state loop, as its oracle."""
    mass = np.add.reduceat(mu_bar, instance.state_offsets)
    probs = np.empty(instance.num_pairs)
    for state, count in enumerate(instance.actions_per_state):
        off = int(instance.state_offsets[state])
        if mass[state] > 0.0:
            probs[off : off + count] = mu_bar[off : off + count] / mass[state]
        else:
            probs[off : off + count] = 1.0 / count
    return build_policy(instance, probs)


class TestExtractPolicy:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_state_loop_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        actions = [int(a) for a in rng.integers(1, 5, size=int(rng.integers(1, 9)))]
        inst = random_instance(len(actions), actions, seed=seed)
        mu = rng.dirichlet(np.ones(inst.num_pairs))
        mu[rng.random(inst.num_pairs) < 0.3] = 0.0
        mu[inst.pair_state == 0] = 0.0  # state 0 carries no mass
        np.testing.assert_array_equal(
            extract_policy(inst, mu).probs, loop_extract_policy(inst, mu).probs
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_rejects_entries_that_are_not_finite_and_nonnegative(self, ex3, bad):
        mu = np.full(6, 1 / 6)
        mu[3] = bad
        with pytest.raises(NotStochastic):
            extract_policy(ex3.instance, mu)

    @pytest.mark.parametrize("size", [2, 7])
    def test_rejects_wrong_length(self, ex3, size):
        with pytest.raises(ShapeMismatch):
            extract_policy(ex3.instance, np.full(size, 1 / size))

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

    @pytest.mark.parametrize(
        "rates", [(np.nan, 0.1), (0.1, np.inf), (-0.1, 0.1), (0.1, 0.0)]
    )
    def test_rejects_rates_that_are_not_finite_and_positive(self, ex3, rates):
        with pytest.raises(ValueError):
            run(ex3.instance, None, ex3.q, 10, seed=0, checkpoints=[],
                mu_estimator="fresh", fixed_rates=rates)

    @pytest.mark.parametrize(
        "dense, prediction",
        [
            pytest.param(True, "accurate", id="True-accurate"),
            pytest.param(True, "inaccurate", id="True-inaccurate"),
            pytest.param(True, "none", id="True-none"),
            pytest.param(False, "none", id="False"),
        ],
    )
    def test_large_fixed_dual_rate_stays_feasible(self, ex3, dense, prediction):
        # Steps of up to hundreds in the exponent send coordinates of mu to
        # exactly 0. The dense step keeps their log weights, so they come back
        # and the gap still closes; the 5000 one-coordinate steps cross a
        # rebase.
        pred = {"accurate": ex3.accurate_prediction,
                "inaccurate": ex3.inaccurate_prediction, "none": None}[prediction]
        estimator, eta_mu = ("averaged", 200.0) if dense else ("fresh", 50.0)
        out = run(ex3.instance, pred, ex3.q, 5000, seed=0, mu_estimator=estimator,
                  fixed_rates=(0.01, eta_mu))
        for point in out.trace:
            assert point.gap >= -1e-12
            assert abs(point.averaged_mu.sum() - 1.0) <= 1e-12
            assert np.all(point.averaged_mu >= 0)
        if dense:
            assert out.trace[-1].gap < 0.5

    def test_rejects_prediction_of_wrong_shape(self, ex3):
        # Shapes (6, 4) and (5, 3) against the instance's (6, 3).
        for actions in ([2, 2, 1, 1], [2, 2, 1]):
            bad = random_instance(len(actions), actions).transition
            with pytest.raises(ShapeMismatch):
                run(ex3.instance, bad, ex3.q, 10, seed=0)

    def test_rejects_bad_arguments(self, ex3):
        with pytest.raises(ValueError):
            run(ex3.instance, None, ex3.q, 0, seed=0)
        with pytest.raises(ValueError):
            run(ex3.instance, None, ex3.q, 10, seed=0, mu_estimator="bogus")
        with pytest.raises(NotStochastic):
            run(ex3.instance, None, [np.nan, 0.5, 0.5], 10, seed=0)

    def test_rejects_fresh_estimator_with_prediction(self, ex3):
        with pytest.raises(ValueError, match="fresh estimator"):
            run(ex3.instance, ex3.accurate_prediction, ex3.q, 10, seed=0, mu_estimator="fresh")

    @pytest.mark.parametrize("name", ["seed", "horizon"])
    @pytest.mark.parametrize("value", [True, 1.5, 2.0, None])
    def test_rejects_seeds_and_horizons_that_are_not_integers(self, ex3, name, value):
        # int() would take 1.5 and True as seed 1, and range() a True horizon.
        args = {"horizon": 10, "seed": 0, name: value}
        with pytest.raises(ValueError, match=name):
            run(ex3.instance, None, ex3.q, args["horizon"], args["seed"], checkpoints=[])

    def test_accepts_numpy_integer_seeds_and_horizons(self, ex3):
        a = run(ex3.instance, None, ex3.q, np.int64(20), np.int32(1), checkpoints=[20])
        b = run(ex3.instance, None, ex3.q, 20, 1, checkpoints=[20])
        assert a.averaged_mu.tobytes() == b.averaged_mu.tobytes()
        assert a.trace[0].gap == b.trace[0].gap

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

    def test_sparse_supports_match(self):
        # Mostly-zero columns in the C[:, J] and E[:, J] gathers, a prediction
        # whose support is not P's, and an exact refresh at step 4096.
        inst = random_instance(40, 3, sparsity=0.1, seed=6)
        other = random_instance(40, 3, sparsity=0.1, seed=7)
        pred = build_prediction(inst, other.transition)
        assert np.any((np.asarray(inst.transition) > 0) != (np.asarray(pred) > 0))
        q = np.full(40, 1 / 40)
        horizon = 5000
        checkpoints = {4095, 4096, 4097, horizon}
        out = run(inst, pred, q, horizon, seed=12, checkpoints=checkpoints)
        reference = dense_reference_run(
            inst, pred, q, horizon, 12, checkpoints, "averaged", None
        )
        assert_matches_reference(out, reference, rtol=1e-9)

    @pytest.mark.parametrize(
        "mu_estimator, with_prediction",
        [("averaged", True), ("averaged", False), ("fresh", False)],
    )
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


    @pytest.mark.parametrize("fixed_rates", [None, (0.01, 0.001)])
    def test_one_coordinate_dual_step_matches(self, fixed_rates):
        # The fresh estimator without a prediction keeps mu as log weights in
        # a sum tree with lazily added sums; five refresh periods and
        # checkpoints on both sides of each of the first rebases.
        inst = random_instance(5, 3, seed=4)
        q = np.full(5, 0.2)
        horizon = 5 * REFRESH_PERIOD + 1
        checkpoints = {1, 2, 1000}
        for k in (1, 2, 3):
            checkpoints |= {k * REFRESH_PERIOD - 1, k * REFRESH_PERIOD, k * REFRESH_PERIOD + 1}
        checkpoints.add(horizon)
        out = run(inst, None, q, horizon, seed=9, checkpoints=checkpoints,
                  mu_estimator="fresh", fixed_rates=fixed_rates)
        reference = dense_reference_run(
            inst, None, q, horizon, 9, checkpoints, "fresh", fixed_rates
        )
        assert_matches_reference(out, reference, rtol=1e-9)


def three_state_run(ex3, solver, horizon, seed, checkpoints=None):
    """SMD, or the averaged estimator with the accurate ("optimistic"), the
    inaccurate or no prediction."""
    if solver == "smd":
        return run_smd(ex3.instance, ex3.q, horizon, ex3.epsilon, seed, checkpoints)
    prediction = {"optimistic": ex3.accurate_prediction,
                  "inaccurate": ex3.inaccurate_prediction, "none": None}[solver]
    return run(ex3.instance, prediction, ex3.q, horizon, seed, checkpoints)


@pytest.mark.parametrize("solver", ["smd", "optimistic", "inaccurate", "none"])
def test_outputs_do_not_depend_on_checkpoints(ex3, solver):
    # A checkpoint reads the averages without moving any state.
    a = three_state_run(ex3, solver, 5000, 1, checkpoints=[])
    b = three_state_run(ex3, solver, 5000, 1, checkpoints=range(7, 5001, 7))
    assert not a.trace and len(b.trace) == 714
    assert a.averaged_v.tobytes() == b.averaged_v.tobytes()
    assert a.averaged_mu.tobytes() == b.averaged_mu.tobytes()
    np.testing.assert_array_equal(a.ledger.nonzero_counts, b.ledger.nonzero_counts)


def trace_rows(out):
    return {
        p.step: (p.transition_samples, p.gap, p.value,
                 p.averaged_v.tobytes(), p.averaged_mu.tobytes())
        for p in out.trace
    }


@pytest.mark.parametrize(
    "solver, horizons",
    [
        pytest.param("optimistic", (100, 1600), id="optimistic"),
        pytest.param("smd", (100, 1600), id="smd"),
        pytest.param("inaccurate", (100, 1600), id="inaccurate"),
        pytest.param("none", (100, 1600), id="none"),
        # Across the first refresh of Cv and Ev, which both runs take.
        pytest.param("inaccurate", (4100, 4500), id="inaccurate-refresh"),
    ],
)
def test_short_run_is_a_bitwise_prefix_of_a_long_run(ex3, solver, horizons):
    def solve(horizon):
        extra = {REFRESH_PERIOD - 1, REFRESH_PERIOD, REFRESH_PERIOD + 1, horizons[0]}
        checkpoints = set(default_checkpoints(horizon)) | {c for c in extra if c <= horizon}
        return trace_rows(three_state_run(ex3, solver, horizon, 8, checkpoints))

    short, long = solve(horizons[0]), solve(horizons[1])
    shared = set(short) & set(long)
    assert len(shared) >= 10
    assert {step: short[step] for step in shared} == {step: long[step] for step in shared}


def reachable_arrays(*roots):
    """Every ndarray reachable from the roots through attributes and containers."""
    seen, stack, arrays = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def test_no_dense_array_retained():
    # After a run has built every cached view, the instance, the prediction
    # and their matrices hold nothing of N x S size.
    inst = random_instance(200, 4, sparsity=0.05)
    pred = build_prediction(inst, inst.transition)
    run(inst, pred, np.full(inst.num_states, 1 / inst.num_states), 50, seed=0)
    nnz = np.count_nonzero(np.asarray(inst.transition))
    sizes = [a.size for a in reachable_arrays(inst, pred, inst.transition, pred)]
    assert nnz in sizes  # the walk reaches the nonzeros
    assert max(sizes) < inst.num_pairs * inst.num_states


@pytest.mark.parametrize("solver", ["optimistic", "smd"])
def test_steps_allocate_no_dense_array(solver):
    # After a warm-up run has built the cached set-up structures, a run
    # without checkpoints keeps state on P's and E's nonzeros only.
    inst = random_instance(200, 4, sparsity=0.05)
    pred = build_prediction(inst, inst.transition)
    q = np.full(inst.num_states, 1 / inst.num_states)

    def solve(checkpoints):
        if solver == "smd":
            return run_smd(inst, q, 50, 0.1, seed=0, checkpoints=checkpoints)
        return run(inst, pred, q, 50, seed=0, checkpoints=checkpoints)

    solve(None)
    tracemalloc.start()
    try:
        solve([])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inst.num_pairs * inst.num_states * 8 / 2
