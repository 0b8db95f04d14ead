import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmdp.core import build_instance, build_prediction
from pdmdp.instances import random_instance, three_state_example
from pdmdp.sampling import (
    BLOCK_SIZE,
    STREAM_IDS,
    SampleBudgetLedger,
    SeededStream,
    SumTree,
    make_streams,
    sample_cumulative,
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
    """Categorical draws through the inverse-CDF primitive the engine uses."""

    def test_point_mass(self):
        stream = SeededStream(0, "initial-state")
        assert all(
            sample_cumulative(np.cumsum([0.0, 1.0, 0.0]), stream) == 1
            for _ in range(20)
        )

    def test_empirical_frequencies(self):
        probs = np.array([0.2, 0.2, 0.6])
        stream = SeededStream(123, "initial-state")
        counts = np.zeros(3)
        reps = 100_000
        for _ in range(reps):
            counts[sample_cumulative(np.cumsum(probs), stream)] += 1
        np.testing.assert_allclose(counts / reps, probs, atol=0.01)

    def test_uniform_chi_square(self):
        k, reps = 6, 60_000
        stream = SeededStream(9, "mu-side")
        counts = np.zeros(k)
        for _ in range(reps):
            counts[sample_cumulative(np.cumsum(np.full(k, 1 / k)), stream)] += 1
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
            assert probs[sample_cumulative(np.cumsum(probs), stream)] > 0


class FixedUniform:
    """A stream stand-in that returns one uniform forever."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


class TestSumTree:
    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_draws_match_sample_cumulative(self, seed, n):
        rng = np.random.default_rng(seed)
        weights = rng.random(n) * 10.0 ** rng.integers(-3, 4)
        weights[rng.random(n) < 0.3] = 0.0
        weights[rng.integers(n)] = 1.0
        tree = SumTree(weights)
        a, b = SeededStream(seed, "v-side"), SeededStream(seed, "v-side")
        for _ in range(25):
            assert tree.sample(a) == sample_cumulative(np.cumsum(weights), b)

    def test_set_gives_the_built_tree(self):
        rng = np.random.default_rng(4)
        weights = rng.random(13)
        tree = SumTree(weights)
        for i in rng.integers(13, size=40):
            weights[i] = rng.random()
            tree.set(int(i), float(weights[i]))
        assert tree.nodes == SumTree(weights).nodes
        np.testing.assert_array_equal(tree.weights(), weights)

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25], [1.0, 0.0, 0.0], [0.2] * 5])
    def test_clamps_to_the_last_index(self, weights):
        # u = 1 carries x onto the total, past every weight.
        tree = SumTree(np.array(weights))
        want = sample_cumulative(np.cumsum(weights), FixedUniform(1.0))
        assert tree.sample(FixedUniform(1.0)) == want == len(weights) - 1

    def test_point_mass(self):
        tree = SumTree(np.array([0.0, 0.0, 3.0, 0.0, 0.0]))
        stream = SeededStream(1, "v-side")
        assert all(tree.sample(stream) == 2 for _ in range(50))


def triple_counts(ledger, instance):
    """Draws per (pair, next state), a dense array filled from the ledger's nonzeros."""
    P = instance.transition
    counts = np.zeros(P.shape, dtype=np.int64)
    counts[P.rows, P.cols] = ledger.nonzero_counts
    return counts


def pair_counts(ledger, instance):
    """Draws per pair: the ledger's counts summed over each row of P."""
    counts = np.zeros(instance.num_pairs, dtype=np.int64)
    np.add.at(counts, instance.transition.rows, ledger.nonzero_counts)
    return counts


class TestSampleTransition:
    def test_ledger_exact_accounting(self):
        ex = three_state_example()
        ledger = SampleBudgetLedger.for_instance(ex.instance)
        stream = SeededStream(5, "mu-side")
        for k in range(300):
            sample_transition(ex.instance, k % 6, stream, ledger)
        assert ledger.transition_samples == 300
        assert pair_counts(ledger, ex.instance).sum() == 300
        assert triple_counts(ledger, ex.instance).sum() == 300
        np.testing.assert_array_equal(pair_counts(ledger, ex.instance), 50)
        np.testing.assert_array_equal(
            triple_counts(ledger, ex.instance).sum(axis=1), pair_counts(ledger, ex.instance)
        )

    def test_empirical_row_frequencies(self):
        # Row (1, leave) of the example: (0.4, 0, 0.6).
        ex = three_state_example()
        ledger = SampleBudgetLedger.for_instance(ex.instance)
        stream = SeededStream(77, "v-side")
        reps = 100_000
        for _ in range(reps):
            sample_transition(ex.instance, 1, stream, ledger)
        freq = triple_counts(ledger, ex.instance)[1] / reps
        np.testing.assert_allclose(freq, [0.4, 0.0, 0.6], atol=0.01)

    def test_deterministic_row(self):
        ex = three_state_example()
        ledger = SampleBudgetLedger.for_instance(ex.instance)
        stream = SeededStream(0, "v-side")
        # Row (0, stay) is a point mass on state 0, P's first nonzero.
        next_states = ex.instance.transition.cols
        draws = [sample_transition(ex.instance, 0, stream, ledger) for _ in range(30)]
        assert draws == [0] * 30 and set(next_states[draws]) == {0}

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


def with_point_mass_row(instance, pair, next_state):
    """The instance with row `pair` of P replaced by a point mass."""
    P = np.asarray(instance.transition)
    P[pair] = 0.0
    P[pair, next_state] = 1.0
    return build_instance(
        instance.num_states, instance.actions_per_state, P, instance.reward,
        instance.discount,
    )


def triangular_instance(num_states):
    """One action per state; row i of P has i + 1 random nonzeros."""
    rows = np.tril(np.random.default_rng(4).random((num_states, num_states)))
    rows /= rows.sum(axis=1)[:, None]
    return build_instance(num_states, [1] * num_states, rows, np.zeros(num_states), 0.5)


class TestSupportIndexedSampler:
    """Draws, counts and column forms on P's nonzeros against dense oracles."""

    @pytest.mark.parametrize(
        "instance",
        [
            three_state_example().instance,
            random_instance(40, 3, sparsity=0.1, seed=1),
            # 90 nonzeros in each of 600 rows.
            random_instance(300, 2, sparsity=0.3, seed=2),
            # Rows of up to 64 nonzeros and longer ones in one matrix.
            triangular_instance(150),
        ],
    )
    def test_transition_cumsum_is_dense_cumsum_bitwise(self, instance):
        P = np.asarray(instance.transition)
        rows, cols = np.nonzero(P)
        dense = np.cumsum(P, axis=1)[rows, cols]
        assert instance.transition.cumsum.tobytes() == dense.tobytes()

    def test_draws_equal_dense_inverse_cdf_draws(self):
        inst = with_point_mass_row(random_instance(40, 3, sparsity=0.1, seed=3), 7, 12)
        P = np.asarray(inst.transition)
        assert np.count_nonzero(P[7]) == 1
        ledger = SampleBudgetLedger.for_instance(inst)
        ours, dense = SeededStream(21, "mu-side"), SeededStream(21, "mu-side")
        next_states = inst.transition.cols
        pairs = [p % inst.num_pairs for p in range(10_080)]
        got = [int(next_states[sample_transition(inst, p, ours, ledger)]) for p in pairs]
        row_cumsum = np.cumsum(P, axis=1)
        want = [sample_cumulative(row_cumsum[p], dense) for p in pairs]
        assert got == want
        assert {got[k] for k in range(7, len(pairs), inst.num_pairs)} == {12}

        triples = np.zeros(inst.transition.shape, dtype=np.int64)
        np.add.at(triples, (pairs, want), 1)
        np.testing.assert_array_equal(triple_counts(ledger, inst), triples)
        np.testing.assert_array_equal(pair_counts(ledger, inst), triples.sum(axis=1))
        assert ledger.transition_samples == len(pairs)

    def test_csc_slots_match_csr_nonzeros(self):
        inst = random_instance(40, 3, sparsity=0.1, seed=4)
        P = np.asarray(inst.transition)
        rows, cols = np.nonzero(P)
        csc = inst.transition.csc
        slots, slot_rows, pointers = csc.slots, csc.rows, csc.starts
        assert sorted(slots.tolist()) == list(range(rows.size))
        np.testing.assert_array_equal(slot_rows[slots], rows)
        assert csc.vals[slots].tobytes() == P[rows, cols].tobytes()
        slot_cols = np.repeat(np.arange(inst.num_states), np.diff(pointers))
        np.testing.assert_array_equal(slot_cols[slots], cols)

    def test_prediction_columns_reproduce_dense_columns(self):
        inst = random_instance(40, 3, sparsity=0.1, seed=5)
        E = build_prediction(inst, random_instance(40, 3, sparsity=0.1, seed=6).transition)
        csc, dense = E.csc, np.asarray(E)
        rows, values, pointers = csc.rows, csc.vals, csc.starts
        assert pointers[0] == 0 and pointers[-1] == np.count_nonzero(dense)
        for j in range(inst.num_states):
            lo, hi = pointers[j], pointers[j + 1]
            assert np.all(np.diff(rows[lo:hi]) > 0)
            column = np.zeros(inst.num_pairs)
            column[rows[lo:hi]] = values[lo:hi]
            assert column.tobytes() == dense[:, j].tobytes()
