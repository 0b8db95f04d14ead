import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdp import bench, exact, minimax, optimistic_pd
from pdmdp.bench import CSV_COLUMNS
from pdmdp.core import (
    CsrMatrix,
    OutOfRange,
    ShapeMismatch,
    SingularSystem,
    build_instance,
    build_policy,
    build_prediction,
    deterministic_policy,
)
from pdmdp.exact import (
    apply_bellman,
    bellman_residual,
    occupancy_measure,
    policy_evaluation,
    value_iteration,
)
from pdmdp.instances import HardFamilySpec, hard_family, random_instance
from pdmdp.minimax import shifted_transition_apply_t
from pdmdp.optimistic_pd import extract_policy, run
from test_minimax import dense_shifted_apply, dense_shifted_apply_t


def tiny_instance():
    return build_instance(1, [1], [[1.0]], [1.0], 0.5)


def random_policy(instance, rng):
    probs = np.concatenate(
        [rng.dirichlet(np.ones(count)) for count in instance.actions_per_state]
    )
    return build_policy(instance, probs)


class TestValueIteration:
    def test_single_state_geometric_series(self):
        sol = value_iteration(tiny_instance(), 1e-10)
        assert sol.optimal_value[0] == pytest.approx(2.0, abs=1e-10)

    def test_hard_family_middle_state(self):
        # Unperturbed middle chains: value 1 / (1 - gamma * base_loop) = 1.5.
        spec = HardFamilySpec(m=1, n=2, discount=0.5, epsilon=0.05)
        inst = hard_family(spec)
        sol = value_iteration(inst, 1e-10)
        # Middle state of the non-boosted chain (k=1, l=2).
        assert sol.optimal_value[2] == pytest.approx(1.5, abs=1e-8)

    def test_three_state_fixture(self, ex3, ex3_solution, ex3_optimal_value):
        np.testing.assert_allclose(
            ex3_solution.optimal_value, ex3_optimal_value, atol=1e-10
        )
        # Optimal actions: leave, leave, right.
        np.testing.assert_array_equal(
            ex3_solution.optimal_policy.probs, [0, 1, 0, 1, 0, 1]
        )

    def test_residual_below_tolerance(self, ex3):
        sol = value_iteration(ex3.instance, 1e-8)
        assert sol.residual <= 1e-8

    def test_nan_tolerance_rejected(self, ex3, monkeypatch):
        # No sweep meets a NaN threshold; with the sweep cap lowered, a
        # missing check shows as RuntimeError instead of a long hang.
        monkeypatch.setattr(exact, "_MAX_SWEEPS", 10)
        for tolerance in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError):
                value_iteration(ex3.instance, tolerance)


class TestPolicyEvaluation:
    def test_single_state(self):
        inst = tiny_instance()
        assert policy_evaluation(inst, deterministic_policy(inst, [0]))[0] == 2.0

    def test_absorbing_zero_reward_state(self):
        # Hard-family end states absorb with reward 0 and are worth 0.
        spec = HardFamilySpec(m=1, n=2, discount=0.5, epsilon=0.05)
        inst = hard_family(spec)
        sol = value_iteration(inst, 1e-10)
        v = policy_evaluation(inst, sol.optimal_policy)
        np.testing.assert_allclose(v[-2:], 0.0, atol=1e-12)

    def test_uniform_policy_cross_check(self, ex3):
        probs = np.full(6, 0.5)
        pol = build_policy(ex3.instance, probs)
        v = policy_evaluation(ex3.instance, pol)
        # Independent iterative evaluation of the same policy.
        u = np.zeros(3)
        for _ in range(2000):
            x = ex3.instance.reward + 0.5 * (np.asarray(ex3.instance.transition) @ u)
            u = np.add.reduceat(0.5 * x, ex3.instance.state_offsets)
        np.testing.assert_allclose(v, u, atol=1e-9)

    def test_oracle_agreement(self, ex3, ex3_solution):
        v_pi = policy_evaluation(ex3.instance, ex3_solution.optimal_policy)
        np.testing.assert_allclose(v_pi, ex3_solution.optimal_value, atol=2e-12)


class TestOccupancyMeasure:
    def test_single_state_forced_point(self):
        inst = tiny_instance()
        mu = occupancy_measure(inst, deterministic_policy(inst, [0]), [1.0])
        np.testing.assert_allclose(mu, [1.0])

    def test_optimal_policy_fixture(self, ex3, ex3_solution):
        mu = occupancy_measure(ex3.instance, ex3_solution.optimal_policy, ex3.q)
        np.testing.assert_allclose(mu, [0.0, 0.3, 0.0, 0.3, 0.0, 0.4], atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_random(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(4, 3, seed=seed)
        pol = random_policy(inst, rng)
        q = rng.dirichlet(np.ones(inst.num_states))
        mu = occupancy_measure(inst, pol, q)
        assert mu.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(mu >= 0)
        # Dual LP flow constraint: (Ihat - gamma P)^T mu = (1 - gamma) q.
        flow = -shifted_transition_apply_t(inst, mu)
        np.testing.assert_allclose(flow, (1 - inst.discount) * q, atol=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_strong_duality(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(4, 2, seed=seed)
        sol = value_iteration(inst, 1e-12)
        q = rng.dirichlet(np.ones(inst.num_states))
        mu = occupancy_measure(inst, sol.optimal_policy, q)
        assert float(mu @ inst.reward) == pytest.approx(
            (1 - inst.discount) * float(q @ sol.optimal_value), abs=1e-8
        )


@pytest.mark.parametrize("size", [2, 12])
@pytest.mark.parametrize("states", [3, exact._ITER_MIN_STATES], ids=["lu", "iterative"])
def test_policy_of_wrong_length_rejected(ex3, states, size):
    # The length-2 policy of a two-state instance and the length-12 one of a
    # four-state, three-action instance, on the LU and the iterative path.
    inst = ex3.instance if states == 3 else random_instance(states, 1, sparsity=0.05, seed=3)
    other = random_instance(2, 1, seed=1) if size == 2 else random_instance(4, 3, seed=1)
    policy = deterministic_policy(other, [0] * other.num_states)
    q = np.full(inst.num_states, 1 / inst.num_states)
    with pytest.raises(ShapeMismatch, match="policy must have length"):
        policy_evaluation(inst, policy)
    with pytest.raises(ShapeMismatch, match="policy must have length"):
        occupancy_measure(inst, policy, q)


class TestBellmanResidual:
    def test_zero_vector_single_state(self):
        assert bellman_residual(tiny_instance(), [0.0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("v", [[0.0], [0.0] * 4, [[0.0] * 3]], ids=["short", "long", "2-d"])
    def test_wrong_length_rejected(self, ex3, v):
        # Length 1 used to be read as v[0] at every next state.
        with pytest.raises(ShapeMismatch, match="v must have length 3"):
            bellman_residual(ex3.instance, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, ex3, bad):
        with pytest.raises(OutOfRange, match="finite"):
            bellman_residual(ex3.instance, [0.0, bad, 0.0])

    def test_optimal_vector(self, ex3, ex3_optimal_value):
        assert bellman_residual(ex3.instance, ex3_optimal_value) <= 1e-12

    def test_constant_shift_identity(self, ex3, ex3_optimal_value):
        for c in (-0.7, 0.3, 1.9):
            res = bellman_residual(ex3.instance, ex3_optimal_value + c)
            assert res == pytest.approx(abs(c) * (1 - ex3.instance.discount), abs=1e-10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_contraction(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(4, 2, seed=seed)
        v = rng.uniform(-5, 5, inst.num_states)
        w = rng.uniform(-5, 5, inst.num_states)
        lhs = np.abs(apply_bellman(inst, v) - apply_bellman(inst, w)).max()
        assert lhs <= inst.discount * np.abs(v - w).max() + 1e-12


def dense_policy_matrices(instance, policy):
    """P_pi and r_pi through a dense N x S weighted copy of P, as the oracle."""
    weighted = policy.probs[:, None] * np.asarray(instance.transition)
    P_pi = np.add.reduceat(weighted, instance.state_offsets, axis=0)
    r_pi = np.add.reduceat(policy.probs * instance.reward, instance.state_offsets)
    return P_pi, r_pi


@st.composite
def instances_with_policies(draw):
    """Mixed action counts, sparse to dense rows, policies with zero entries."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    actions = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=30))
    sparsity = draw(st.sampled_from([0.05, 0.3, 1.0]))
    inst = random_instance(len(actions), actions, sparsity=sparsity, seed=seed)
    rng = np.random.default_rng(seed)
    blocks = []
    for count in actions:
        support = rng.random(count) < 0.5
        support[rng.integers(count)] = True
        block = np.zeros(count)
        block[support] = rng.dirichlet(np.ones(support.sum()))
        blocks.append(block)
    return inst, build_policy(inst, np.concatenate(blocks)), rng


class TestAgainstDenseOracle:
    @given(instances_with_policies())
    @settings(max_examples=60, deadline=None)
    def test_policy_matrices(self, case):
        # P_pi y and P_pi^T y taken in pair space on P against P_pi from the
        # dense N x S copy.
        inst, pol, rng = case
        P_ref, _ = dense_policy_matrices(inst, pol)
        y = rng.random(inst.num_states)
        for transposed, want in ((False, P_ref @ y), (True, P_ref.T @ y)):
            got = exact._policy_product(inst, pol.probs, y, transposed)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_lu_sums_shared_next_states(self):
        # Both actions of state 0 reach states 0 and 1: the LU's A adds their
        # weighted entries of P at (0, 0) and at (0, 1), as the dense P_pi does.
        P = [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        inst = build_instance(3, [2, 1, 1], P, [0.0, 0.5, 1.0, 0.2], 0.9)
        pol = build_policy(inst, [0.3, 0.7, 1.0, 1.0])
        q = np.array([0.2, 0.3, 0.5])
        v_ref, mu_ref = dense_solutions(inst, pol, q)
        np.testing.assert_allclose(policy_evaluation(inst, pol), v_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(occupancy_measure(inst, pol, q), mu_ref, rtol=0, atol=1e-15)

    @given(instances_with_policies())
    @settings(max_examples=40, deadline=None)
    def test_evaluation_and_occupancy(self, case):
        inst, pol, rng = case
        q = rng.dirichlet(np.ones(inst.num_states))
        v, mu = policy_evaluation(inst, pol), occupancy_measure(inst, pol, q)
        v_ref, mu_ref = dense_solutions(inst, pol, q)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-12)

    def test_run_trace(self):
        # At the size where the iteration takes over: every checkpoint value
        # against the dense solve for the policy of its averaged occupancy.
        S = exact._ITER_MIN_STATES
        inst = random_instance(S, 4, sparsity=0.05)
        prediction = build_prediction(inst, random_instance(S, 4, seed=1).transition)
        q = np.full(inst.num_states, 1.0 / inst.num_states)
        trace = run(inst, prediction, q, 200, seed=3).trace
        for point in trace:
            v_ref, _ = dense_solutions(inst, extract_policy(inst, point.averaged_mu), q)
            assert abs(point.value - float(q @ v_ref)) <= 1e-12

    def test_trend_configs(self, monkeypatch):
        # The three reproduce_trends configurations, short: the value column
        # (LU at three states) is bitwise the dense one, the gap within 1e-12.
        base = {"instance": "three-state", "horizons": [100, 400], "seeds": [0, 1]}
        configs = [
            bench.ExperimentConfig.from_dict(dict(base, **extra))
            for extra in (
                {"algorithm": "optimistic", "prediction": "accurate"},
                {"algorithm": "optimistic", "prediction": "inaccurate"},
                {"algorithm": "smd", "epsilon": 0.05},
            )
        ]
        rows = [row for config in configs for row in bench.execute(config)]

        def dense_evaluation(instance, policy):
            q = np.full(instance.num_states, 1.0 / instance.num_states)
            return dense_solutions(instance, policy, q)[0]

        monkeypatch.setattr(optimistic_pd, "policy_evaluation", dense_evaluation)
        monkeypatch.setattr(minimax, "shifted_transition_apply", dense_shifted_apply)
        monkeypatch.setattr(minimax, "shifted_transition_apply_t", dense_shifted_apply_t)
        reference = [row for config in configs for row in bench.execute(config)]
        gap, value = CSV_COLUMNS.index("gap"), CSV_COLUMNS.index("value")
        assert [row[value] for row in rows] == [row[value] for row in reference]
        for row, ref in zip(rows, reference):
            assert abs(row[gap] - ref[gap]) <= 1e-12 * max(1.0, abs(ref[gap]))


def dense_solutions(instance, policy, q):
    """v_pi and mu_pi by np.linalg.solve on np.eye(S) - gamma P_pi, as the oracle."""
    P_pi, r_pi = dense_policy_matrices(instance, policy)
    A = np.eye(instance.num_states) - instance.discount * P_pi
    v = np.linalg.solve(A, r_pi)
    lam = np.linalg.solve(A.T, (1.0 - instance.discount) * q)
    return v, lam[instance.pair_state] * policy.probs


def count_products(monkeypatch):
    """Patch CsrMatrix.apply and apply_t to count their calls."""
    counts = {"products": 0}

    def counting(product):
        def counted(*args, **kwargs):
            counts["products"] += 1
            return product(*args, **kwargs)

        return counted

    for name in ("apply", "apply_t"):
        monkeypatch.setattr(CsrMatrix, name, counting(getattr(CsrMatrix, name)))
    return counts


def product_cap(instance):
    """The cap _iterate puts on its products: a decade past 2 sqrt(S) gamma^k."""
    bound = exact._ITER_RTOL / (20.0 * np.sqrt(instance.num_states))
    return int(np.ceil(np.log(bound) / np.log(instance.discount)))


class TestKrylovSolve:
    """From _ITER_MIN_STATES on, the solves iterate on P's nonzeros and never use LU."""

    @pytest.mark.parametrize(
        "shape",
        [
            dict(num_states=1000, actions_per_state=4, sparsity=0.05),
            dict(num_states=1000, actions_per_state=4, sparsity=0.05, discount=0.99),
            dict(num_states=400, actions_per_state=4, sparsity=0.05),
            # One next state per pair: P_pi mixes slowly.
            dict(num_states=1000, actions_per_state=2, sparsity=0.001),
        ],
        ids=["benchmark-shape", "discount-0.99", "slow-converging", "slow-mixing"],
    )
    @pytest.mark.parametrize("deterministic", [False, True], ids=["mixed", "deterministic"])
    def test_matches_dense_solve(self, shape, deterministic):
        inst = random_instance(seed=5, **shape)
        assert inst.num_states >= exact._ITER_MIN_STATES
        rng = np.random.default_rng(6)
        if deterministic:
            pol = deterministic_policy(inst, rng.integers(0, inst.actions_per_state))
        else:
            pol = random_policy(inst, rng)
        q = rng.dirichlet(np.ones(inst.num_states))
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            v = policy_evaluation(inst, pol)
            mu = occupancy_measure(inst, pol, q)
        assert solve.call_count == 0
        v_ref, mu_ref = dense_solutions(inst, pol, q)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-12)
        # Strong duality of the pair: (1 - gamma) q.v_pi = mu_pi.r.
        assert abs((1 - inst.discount) * float(q @ v) - float(mu @ inst.reward)) <= 1e-12

    def test_products_within_bound(self, monkeypatch):
        # Slow mixing, slow discount: the residual falls by about gamma per
        # product, so the bound is nearly tight, and both solves end inside
        # the cap.
        counts = count_products(monkeypatch)
        inst = random_instance(1000, 2, sparsity=0.001, seed=5, discount=0.99)
        pol = deterministic_policy(inst, np.random.default_rng(6).integers(0, 2, 1000))
        q = np.full(inst.num_states, 1e-3)
        mu = occupancy_measure(inst, pol, q)
        assert 0 < counts["products"] < product_cap(inst)
        v = policy_evaluation(inst, pol)
        assert counts["products"] < 2 * product_cap(inst) + 1
        v_ref, mu_ref = dense_solutions(inst, pol, q)
        np.testing.assert_allclose(v, v_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-12)

    def test_singular_past_the_cap(self, monkeypatch):
        # A target below the rounding floor is never met: the solve stops at
        # the cap and says so instead of returning an unconverged vector.
        monkeypatch.setattr(exact, "_ITER_RTOL", 1e-30)
        counts = count_products(monkeypatch)
        inst = random_instance(exact._ITER_MIN_STATES, 2, sparsity=0.05)
        pol = random_policy(inst, np.random.default_rng(0))
        with pytest.raises(SingularSystem, match="not solved"):
            policy_evaluation(inst, pol)
        assert counts["products"] == product_cap(inst)

    def test_peak_memory_below_dense_system(self):
        # One S x S float array is 8 S^2 bytes; both solves together allocate
        # a quarter of that at most, on P's nonzeros (nnz = 20 N here).
        S = 2000
        inst = random_instance(S, 4, sparsity=0.01)
        pol = random_policy(inst, np.random.default_rng(0))
        q = np.full(S, 1.0 / S)
        policy_evaluation(inst, pol)  # builds the instance's cached index arrays
        tracemalloc.start()
        try:
            policy_evaluation(inst, pol)
            occupancy_measure(inst, pol, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * S * S / 4

    def test_solve_peaks_near_one_nnz_array(self):
        # Both solves take their products in pair space on P: one product
        # allocates one nnz-sized array, and nothing else held is as large.
        S = 2000
        inst = random_instance(S, 4, sparsity=0.01)
        pol = random_policy(inst, np.random.default_rng(0))
        q = np.full(S, 1.0 / S)
        policy_evaluation(inst, pol)  # builds the instance's cached index arrays
        for solve in (lambda: policy_evaluation(inst, pol),
                      lambda: occupancy_measure(inst, pol, q)):
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * inst.transition.vals.nbytes

    def test_small_instances_use_lu(self, ex3, ex3_solution):
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            policy_evaluation(ex3.instance, ex3_solution.optimal_policy)
            occupancy_measure(ex3.instance, ex3_solution.optimal_policy, ex3.q)
        assert solve.call_count == 2

    def test_zero_rewards(self):
        S = exact._ITER_MIN_STATES
        P = random_instance(S, 2, sparsity=0.05).transition
        inst = build_instance(S, [2] * S, P, np.zeros(2 * S), 0.9)
        pol = random_policy(inst, np.random.default_rng(0))
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            np.testing.assert_array_equal(policy_evaluation(inst, pol), 0.0)
        assert solve.call_count == 0
