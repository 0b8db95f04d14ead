"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line for its criterion. The
statistical checks use independent test-local Monte Carlo oracles, not the
library's own samplers, so estimator bugs cannot certify themselves.
"""

import math
import time

import numpy as np
import pytest

from pdmdp import bench
from pdmdp.core import build_instance, prediction_error
from pdmdp.exact import occupancy_measure, value_iteration
from pdmdp.instances import (
    HardFamilySpec,
    hard_family,
    hard_family_optimal_values,
    random_instance,
    three_state_example,
)
from pdmdp.minimax import duality_gap, exact_gradients
from pdmdp.optimistic_pd import run
from pdmdp.smd import run_smd, smd_learning_rates


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def sample_rows(rng, cumsum_rows, pairs):
    """Vectorized inverse-CDF next-state draws, one per sampled pair."""
    u = rng.random(len(pairs))
    cums = cumsum_rows[pairs]
    return (cums < u[:, None] * cums[:, -1:]).sum(axis=1)


def mean_final_gap(instance, prediction, q, horizon, seeds, epsilon=None):
    gaps = []
    values = []
    for seed in seeds:
        if epsilon is not None:
            out = run_smd(instance, q, horizon, epsilon, seed, checkpoints=[horizon])
        else:
            out = run(instance, prediction, q, horizon, seed, checkpoints=[horizon])
        gaps.append(out.trace[-1].gap)
        values.append(out.trace[-1].value)
    return float(np.mean(gaps)), float(np.mean(values))


@pytest.fixture(scope="module")
def ex3():
    return three_state_example()


@pytest.fixture(scope="module")
def trend_curves(ex3):
    """20-seed gap/value curves for the three algorithm variants."""
    horizons = [100, 400, 1600, 6400, 16000]
    seeds = range(20)
    curves = {}
    for label, pred, eps in (
        ("accurate", ex3.accurate_prediction, None),
        ("inaccurate", ex3.inaccurate_prediction, None),
        ("smd", None, ex3.epsilon),
    ):
        curves[label] = [
            mean_final_gap(ex3.instance, pred, ex3.q, T, seeds, epsilon=eps)
            for T in horizons
        ]
    return horizons, curves


def test_criterion_1_hard_family_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for gamma in (0.4, 0.5, 0.9, 0.95):
        for perturbed in (False, True):
            spec = HardFamilySpec(
                m=2, n=3, discount=gamma, epsilon=0.01, perturbed=perturbed
            )
            sol = value_iteration(hard_family(spec), 1e-12)
            err = float(
                np.abs(sol.optimal_value - hard_family_optimal_values(spec)).max()
            )
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: hard-family closed-form optimal values",
        worst <= 1e-8 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_duality_gap_certificates(ex3):
    problems = [(ex3.instance, ex3.q)]
    for seed in (1, 2, 3):
        inst = random_instance(4, 2, seed=seed)
        problems.append((inst, np.full(4, 0.25)))
    worst_saddle = 0.0
    worst_neg = 0.0
    rng = np.random.default_rng(0)
    for inst, q in problems:
        sol = value_iteration(inst, 1e-12)
        mu_star = occupancy_measure(inst, sol.optimal_policy, q)
        worst_saddle = max(
            worst_saddle, duality_gap(inst, q, sol.optimal_value, mu_star)
        )
        for _ in range(1000):
            v = rng.uniform(-inst.value_radius, inst.value_radius, inst.num_states)
            mu = rng.dirichlet(np.ones(inst.num_pairs))
            worst_neg = min(worst_neg, duality_gap(inst, q, v, mu))
    report(
        "criterion 2: duality gap zero at saddle points, nonnegative elsewhere",
        worst_saddle <= 1e-8 and worst_neg >= -1e-12,
        f"saddle gap {worst_saddle:.2e}, most negative {worst_neg:.2e}",
    )


def test_criterion_3_estimator_unbiasedness(ex3):
    start = time.perf_counter()
    inst = ex3.instance
    row_cumsum = np.cumsum(np.asarray(inst.transition), axis=1)
    reps = 1_000_000
    rng = np.random.default_rng(2024)
    points = [
        (np.zeros(3), np.full(6, 1 / 6)),
        (np.array([0.1, -0.1, 0.1]), np.array([0.1, 0.15, 0.2, 0.25, 0.05, 0.25])),
        (np.array([0.15, 0.05, -0.1]), np.full(6, 1 / 6)),
    ]
    worst_v = 0.0
    worst_mu = 0.0
    for v, mu in points:
        g_v, g_mu = exact_gradients(inst, ex3.q, v, mu)

        # Value-side estimator: empirical mean of the 3-sparse gradient.
        pairs = rng.choice(6, size=reps, p=mu)
        nexts = sample_rows(rng, row_cumsum, pairs)
        inits = rng.choice(3, size=reps, p=ex3.q)
        freq = lambda idx: np.bincount(idx, minlength=3) / reps  # noqa: E731
        mc_v = (
            (1 - inst.discount) * freq(inits)
            + inst.discount * freq(nexts)
            - freq(inst.pair_state[pairs])
        )
        worst_v = max(worst_v, float(np.abs(mc_v - g_v).max()))

        # Dual-side estimator: uniform pairs, re-weighted at v. The mean of
        # the history-averaged estimator at any t equals this single-draw
        # mean, so one check covers both variants.
        pairs = rng.integers(0, 6, size=reps)
        nexts = sample_rows(rng, row_cumsum, pairs)
        w = v[inst.pair_state[pairs]] - inst.discount * v[nexts] - inst.reward[pairs]
        mc_mu = np.zeros(6)
        np.add.at(mc_mu, pairs, 6 * w)
        mc_mu /= reps
        worst_mu = max(worst_mu, float(np.abs(mc_mu - g_mu).max()))
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: stochastic gradients unbiased (Monte Carlo)",
        worst_v <= 0.01 and worst_mu <= 0.01 and elapsed < 30.0,
        f"v-side dev {worst_v:.4f}, mu-side dev {worst_mu:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_dual_estimator_variance_decay(ex3):
    inst = ex3.instance
    row_cumsum = np.cumsum(np.asarray(inst.transition), axis=1)
    rng = np.random.default_rng(7)
    v = np.array([2.0, -2.0, 1.0])  # anywhere in the value box
    _, g_mu = exact_gradients(inst, ex3.q, v, np.full(6, 1 / 6))
    reps = 10_000
    bound_coeff = 9.0 * 6**2 / (1.0 - inst.discount) ** 2
    results = []
    ok = True
    for t in (1, 10, 100):
        pairs = rng.integers(0, 6, size=(reps, t))
        nexts = sample_rows(rng, row_cumsum, pairs.ravel()).reshape(reps, t)
        w = v[inst.pair_state[pairs]] - inst.discount * v[nexts] - inst.reward[pairs]
        est = np.zeros((reps, 6))
        rep_idx = np.repeat(np.arange(reps), t)
        np.add.at(est, (rep_idx, pairs.ravel()), (6.0 / t) * w.ravel())
        dev_sq = np.abs(est - g_mu).max(axis=1) ** 2
        mean_sq = float(dev_sq.mean())
        bound = bound_coeff / t
        ok = ok and mean_sq <= bound
        results.append(f"t={t}: {mean_sq:.1f} <= {bound:.1f}")
    report(
        "criterion 4: dual estimator variance decays like 1/t within bound",
        ok,
        "; ".join(results),
    )


def test_criterion_5_convergence_within_error_bounds(ex3):
    start = time.perf_counter()
    inst = ex3.instance
    inv = 1.0 / (1.0 - inst.discount)
    seeds = range(50)
    ok = True
    details = []
    for label, pred in (
        ("accurate", ex3.accurate_prediction),
        ("inaccurate", ex3.inaccurate_prediction),
    ):
        dist = min(1.0, prediction_error(inst, pred))
        for T in (1000, 4000, 16000):
            err_v = 3.0 * inv * math.sqrt(3) / math.sqrt(T)
            err_mu1 = 3.0 * inst.discount * inv * math.sqrt(6) * dist / math.sqrt(T)
            err_mu2 = 9.0 * math.sqrt(2) * inv * 6 * math.log(T) / T
            bound = 2.0 * (err_v + err_mu1 + err_mu2)
            gap, _ = mean_final_gap(inst, pred, ex3.q, T, seeds)
            ok = ok and gap <= bound
            details.append(f"{label} T={T}: {gap:.3f} <= {bound:.3f}")
    elapsed = time.perf_counter() - start
    report(
        "criterion 5: mean duality gap within twice the theoretical bound",
        ok and elapsed < 600.0,
        "; ".join(details) + f"; {elapsed:.0f}s",
    )


def test_criterion_6_benchmark_trends(ex3, trend_curves):
    horizons, curves = trend_curves
    acc_gaps = [gap for gap, _ in curves["accurate"]]
    final = {label: curves[label][-1][0] for label in curves}
    acc_final_value = curves["accurate"][-1][1]

    monotone = all(a > b for a, b in zip(acc_gaps, acc_gaps[1:]))
    ordering = final["accurate"] <= final["inaccurate"] <= final["smd"]
    value_ok = abs(acc_final_value - 1.4) <= 0.05
    report(
        "criterion 6: benchmark trends (monotone decrease, prediction ordering, value)",
        monotone and ordering and value_ok,
        f"accurate gaps {['%.3f' % g for g in acc_gaps]}, "
        f"final gaps acc={final['accurate']:.3f} inacc={final['inaccurate']:.3f} "
        f"smd={final['smd']:.3f}, value {acc_final_value:.3f}",
    )


def test_criterion_7_sample_budget_accounting(ex3):
    ok = True
    for T in (1, 17, 500):
        out = run(ex3.instance, ex3.accurate_prediction, ex3.q, T, seed=0)
        smd_out = run_smd(ex3.instance, ex3.q, T, 0.05, seed=0)
        ok = (
            ok
            and out.ledger.transition_samples == 2 * T
            and smd_out.ledger.transition_samples == 2 * T
            and out.ledger.nonzero_counts.sum() == 2 * T
        )
    report(
        "criterion 7: exactly two generative-model samples per iteration",
        ok,
        "ledgers equal 2T for T in {1, 17, 500}",
    )


def test_criterion_8_csv_determinism(tmp_path):
    config = bench.ExperimentConfig.from_dict(
        {
            "instance": "three-state",
            "algorithm": "optimistic",
            "prediction": "inaccurate",
            "horizons": [50, 120],
            "seeds": [0, 1, 2],
        }
    )
    bodies = []
    for threads in (1, 8, 1):
        rows = bench.execute(config, threads=threads)
        path = tmp_path / f"trace-{len(bodies)}.csv"
        bench.write_csv(path, config, rows)
        body = [
            ",".join(line.split(",")[:-1])
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        bodies.append(body)
    ok = bodies[0] == bodies[1] == bodies[2]
    report(
        "criterion 8: trace CSV byte-identical across reruns and thread counts",
        ok,
        f"{len(bodies[0])} body lines compared (wall_time column excluded)",
    )


def test_criterion_9_baseline_is_engine_ablation():
    inst = build_instance(
        2, [2, 1], [[0.7, 0.3], [0.1, 0.9], [0.5, 0.5]], [0.2, 0.9, 0.4], 0.8
    )
    q = [0.5, 0.5]
    rates = smd_learning_rates(inst, 0.05)
    a = run_smd(inst, q, 100, 0.05, seed=12)
    b = run(inst, None, q, 100, seed=12, mu_estimator="fresh", fixed_rates=rates)
    ok = (
        np.array_equal(a.averaged_v, b.averaged_v)
        and np.array_equal(a.averaged_mu, b.averaged_mu)
        and a.ledger.transition_samples == b.ledger.transition_samples
        and [p.gap for p in a.trace] == [p.gap for p in b.trace]
    )
    report(
        "criterion 9: baseline solver identical to engine ablation",
        ok,
        "bitwise equal iterates over 100 steps",
    )
