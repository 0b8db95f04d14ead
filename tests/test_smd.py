import numpy as np
import pytest

from pdmdp.optimistic_pd import run
from pdmdp.smd import run_smd, smd_learning_rates


class TestConfig:
    def test_rejects_bad_accuracy(self, ex3):
        for eps in (0.0, 1.0, -0.5, 2.0, float("nan")):
            with pytest.raises(ValueError):
                run_smd(ex3.instance, ex3.q, 10, eps, seed=0)

    def test_rejects_bad_horizon(self, ex3):
        with pytest.raises(ValueError):
            run_smd(ex3.instance, ex3.q, 0, 0.05, seed=0)


class TestLearningRates:
    def test_three_state_values(self, ex3):
        eta_v, eta_mu = smd_learning_rates(ex3.instance, 0.05)
        assert eta_v == pytest.approx(0.00625)
        assert eta_mu == pytest.approx(0.05 / 1080.0)

    def test_scaling_in_accuracy(self, ex3):
        v1, m1 = smd_learning_rates(ex3.instance, 0.05)
        v2, m2 = smd_learning_rates(ex3.instance, 0.1)
        assert v2 == pytest.approx(2 * v1)
        assert m2 == pytest.approx(2 * m1)


class TestRunSmd:
    def test_sample_accounting_and_feasibility(self, ex3):
        out = run_smd(ex3.instance, ex3.q, 300, 0.05, seed=4)
        assert out.ledger.transition_samples == 600
        assert out.averaged_mu.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(out.averaged_v).max() <= ex3.instance.value_radius + 1e-12
        assert out.trace[-1].gap >= -1e-12

    def test_determinism(self, ex3):
        a = run_smd(ex3.instance, ex3.q, 200, 0.05, seed=9)
        b = run_smd(ex3.instance, ex3.q, 200, 0.05, seed=9)
        np.testing.assert_array_equal(a.averaged_v, b.averaged_v)
        np.testing.assert_array_equal(a.averaged_mu, b.averaged_mu)

    def test_equals_engine_with_matching_options(self, ex3):
        # The baseline is exactly the shared engine with the prediction
        # removed, a fresh estimator, and the fixed rate pair.
        rates = smd_learning_rates(ex3.instance, 0.05)
        a = run_smd(ex3.instance, ex3.q, 150, 0.05, seed=6)
        b = run(
            ex3.instance,
            None,
            ex3.q,
            150,
            seed=6,
            mu_estimator="fresh",
            fixed_rates=rates,
        )
        np.testing.assert_array_equal(a.averaged_v, b.averaged_v)
        np.testing.assert_array_equal(a.averaged_mu, b.averaged_mu)

    def test_differs_from_adaptive_optimistic_run(self, ex3):
        a = run_smd(ex3.instance, ex3.q, 150, 0.05, seed=6)
        b = run(ex3.instance, ex3.accurate_prediction, ex3.q, 150, seed=6)
        assert not np.array_equal(a.averaged_v, b.averaged_v)
