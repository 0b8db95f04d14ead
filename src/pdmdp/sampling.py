"""Seeded generative-model access with exact sample accounting.

The learning algorithms never touch the transition matrix directly; every
observation of the model flows through sample_transition, which increments
the budget ledger. Draws from known distributions (the initial distribution
and the current dual iterate) use the same inverse-CDF primitive but do not
count against the budget.

Streams are named substreams of one master seed, built on a counter-based
generator, so the draw sequence of one stream is independent of how calls
to the other streams are interleaved. A stream draws its uniforms in blocks
of BLOCK_SIZE, which yields the same doubles as one generator call per draw.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .core import DegenerateWeights, DmdpInstance, NotStochastic, ShapeMismatch

STREAM_IDS = {"v-side": 0, "mu-side": 1, "initial-state": 2}
BLOCK_SIZE = 256


class SeededStream:
    """A single-owner random stream derived from (master seed, stream name)."""

    def __init__(self, seed: int, name: str):
        if name not in STREAM_IDS:
            raise ValueError(f"unknown stream name {name!r}")
        self.seed = int(seed)
        self.name = name
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(STREAM_IDS[name],))
        self._rng = np.random.Generator(np.random.Philox(ss))
        self._block = []  # the rest of the current block, next draw last

    def uniform(self) -> float:
        """Next draw, served from a block of BLOCK_SIZE generator draws."""
        if not self._block:
            self._block = self._rng.random(BLOCK_SIZE).tolist()[::-1]
        return self._block.pop()


def make_streams(seed: int) -> dict:
    return {name: SeededStream(seed, name) for name in STREAM_IDS}


@dataclass
class SampleBudgetLedger:
    """Counts generative-model transition draws, per pair and per triple."""

    pair_counts: np.ndarray
    triple_counts: np.ndarray
    transition_samples: int = 0

    @classmethod
    def for_instance(cls, instance: DmdpInstance) -> "SampleBudgetLedger":
        return cls(
            pair_counts=np.zeros(instance.num_pairs, dtype=np.int64),
            triple_counts=np.zeros(
                (instance.num_pairs, instance.num_states), dtype=np.int64
            ),
        )

    def record(self, pair: int, next_state: int) -> None:
        self.transition_samples += 1
        self.pair_counts[pair] += 1
        self.triple_counts[pair, next_state] += 1


def sample_cumulative(cumulative, stream: SeededStream) -> int:
    """Index of the first cumulative weight exceeding u * total mass.

    The unchecked inverse-CDF primitive: cumulative must be the running sum
    of nonnegative weights with a positive total.
    """
    idx = bisect.bisect_right(cumulative, stream.uniform() * cumulative[-1])
    return min(idx, len(cumulative) - 1)


def sample_categorical(weights, stream: SeededStream) -> int:
    """Draw an index from a probability vector by inverse CDF.

    Does not touch any ledger; intended for draws from known distributions.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ShapeMismatch("weights must be a vector")
    if not np.all(w >= 0):
        raise NotStochastic("weights must be nonnegative and not NaN")
    cumulative = np.cumsum(w)
    total = cumulative[-1]
    if total <= 0.0:
        raise DegenerateWeights("all categorical weights are zero")
    if not (abs(total - 1.0) <= 1e-9):
        raise NotStochastic(f"weights must sum to 1, got {total!r}")
    return sample_cumulative(cumulative, stream)


def sample_transition(
    instance: DmdpInstance,
    pair: int,
    stream: SeededStream,
    ledger: SampleBudgetLedger,
) -> int:
    """One generative-model draw j ~ p(.|pair); increments the ledger."""
    next_state = sample_cumulative(instance.row_cumsum[pair], stream)
    ledger.record(pair, next_state)
    return next_state
