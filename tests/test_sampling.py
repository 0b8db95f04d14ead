import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdp.core import DegenerateWeights, NotStochastic
from pdmdp.instances import three_state_example
from pdmdp.sampling import (
    BLOCK_SIZE,
    STREAM_IDS,
    SampleBudgetLedger,
    SeededStream,
    make_streams,
    sample_categorical,
    sample_transition,
)


class TestStreams:
    def test_known_names_only(self):
        with pytest.raises(ValueError):
            SeededStream(0, "bogus")

    def test_determinism(self):
        a = SeededStream(42, "v-side")
        b = SeededStream(42, "v-side")
        assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]

    def test_streams_differ(self):
        draws = {
            name: [SeededStream(7, name).uniform() for _ in range(10)]
            for name in ("v-side", "mu-side", "initial-state")
        }
        assert draws["v-side"] != draws["mu-side"]
        assert draws["v-side"] != draws["initial-state"]

    def test_seeds_differ(self):
        assert SeededStream(0, "v-side").uniform() != SeededStream(1, "v-side").uniform()

    def test_interleaving_independence(self):
        # Counter-based substreams: draws from one stream are unaffected by
        # how many draws the sibling streams have consumed.
        solo = SeededStream(3, "mu-side")
        expected = [solo.uniform() for _ in range(20)]
        streams = make_streams(3)
        got = []
        for k in range(20):
            for _ in range(k % 3):
                streams["v-side"].uniform()
                streams["initial-state"].uniform()
            got.append(streams["mu-side"].uniform())
        assert got == expected


    def test_block_draws_equal_scalar_generator_draws(self):
        # The stream serves uniforms from blocks; across block boundaries
        # they must be the doubles one scalar generator call per draw gives.
        for name, stream_id in STREAM_IDS.items():
            stream = SeededStream(11, name)
            ss = np.random.SeedSequence(entropy=11, spawn_key=(stream_id,))
            scalar = np.random.Generator(np.random.Philox(ss))
            count = 2 * BLOCK_SIZE + 7
            assert [stream.uniform() for _ in range(count)] == [
                scalar.random() for _ in range(count)
            ]


class TestSampleCategorical:
    def test_point_mass(self):
        stream = SeededStream(0, "initial-state")
        assert all(
            sample_categorical([0.0, 1.0, 0.0], stream) == 1 for _ in range(20)
        )

    def test_zero_weights_rejected(self):
        with pytest.raises(DegenerateWeights):
            sample_categorical([0.0, 0.0], SeededStream(0, "v-side"))

    def test_unnormalized_rejected(self):
        with pytest.raises(NotStochastic):
            sample_categorical([0.5, 0.6], SeededStream(0, "v-side"))
        with pytest.raises(NotStochastic):
            sample_categorical([0.5, -0.1, 0.6], SeededStream(0, "v-side"))

    def test_nan_rejected(self):
        with pytest.raises(NotStochastic):
            sample_categorical([np.nan, 1.0], SeededStream(0, "v-side"))

    def test_empirical_frequencies(self):
        probs = np.array([0.2, 0.2, 0.6])
        stream = SeededStream(123, "initial-state")
        counts = np.zeros(3)
        reps = 100_000
        for _ in range(reps):
            counts[sample_categorical(probs, stream)] += 1
        np.testing.assert_allclose(counts / reps, probs, atol=0.01)

    def test_uniform_chi_square(self):
        k, reps = 6, 60_000
        stream = SeededStream(9, "mu-side")
        counts = np.zeros(k)
        for _ in range(reps):
            counts[sample_categorical(np.full(k, 1 / k), stream)] += 1
        expected = reps / k
        stat = float(((counts - expected) ** 2 / expected).sum())
        # Chi-square with 5 dof: 99.9th percentile is about 20.5.
        assert stat < 25.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_support_respected(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4))
        probs[rng.integers(4)] = 0.0
        probs /= probs.sum()
        stream = SeededStream(seed, "v-side")
        for _ in range(25):
            assert probs[sample_categorical(probs, stream)] > 0


class TestSampleTransition:
    def test_ledger_exact_accounting(self):
        ex = three_state_example()
        ledger = SampleBudgetLedger.for_instance(ex.instance)
        stream = SeededStream(5, "mu-side")
        for k in range(300):
            sample_transition(ex.instance, k % 6, stream, ledger)
        assert ledger.transition_samples == 300
        assert ledger.pair_counts.sum() == 300
        assert ledger.triple_counts.sum() == 300
        np.testing.assert_array_equal(ledger.pair_counts, 50)
        np.testing.assert_array_equal(
            ledger.triple_counts.sum(axis=1), ledger.pair_counts
        )

    def test_empirical_row_frequencies(self):
        # Row (1, leave) of the example: (0.4, 0, 0.6).
        ex = three_state_example()
        ledger = SampleBudgetLedger.for_instance(ex.instance)
        stream = SeededStream(77, "v-side")
        reps = 100_000
        for _ in range(reps):
            sample_transition(ex.instance, 1, stream, ledger)
        freq = ledger.triple_counts[1] / reps
        np.testing.assert_allclose(freq, [0.4, 0.0, 0.6], atol=0.01)

    def test_deterministic_row(self):
        ex = three_state_example()
        ledger = SampleBudgetLedger.for_instance(ex.instance)
        stream = SeededStream(0, "v-side")
        # Row (0, stay) is a point mass on state 0.
        assert all(
            sample_transition(ex.instance, 0, stream, ledger) == 0 for _ in range(30)
        )

    def test_reproducible_across_ledgers(self):
        ex = three_state_example()
        outs = []
        for _ in range(2):
            ledger = SampleBudgetLedger.for_instance(ex.instance)
            stream = SeededStream(2024, "mu-side")
            outs.append(
                [sample_transition(ex.instance, 4, stream, ledger) for _ in range(40)]
            )
        assert outs[0] == outs[1]
