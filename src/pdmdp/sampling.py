"""Seeded generative-model access with exact sample accounting.

The learning algorithms never touch the transition matrix directly; every
observation of the model flows through sample_transition, which increments
the budget ledger; a draw bisects the row's slice of P's CSR cumsum and
returns the index of a nonzero of P. Draws from known distributions (the
initial distribution and the current dual iterate) use the same inverse-CDF
primitive but do not count against the budget.

A SumTree holds weights that change one at a time: each node is the sum of
its two children, so setting a weight and drawing from the weights both
walk one root-to-leaf path, O(log n). A draw descends from the root with
x = u * total, going right past a left child whose sum is at most x, which
picks the first index whose running sum exceeds x, as sample_cumulative's
bisection does; rounding that carries x past the last weight clamps the
index to the last weight, as there.

Streams are named substreams of one master seed, built on a counter-based
generator, so the draw sequence of one stream is independent of how calls
to the other streams are interleaved. A stream draws its uniforms in blocks
of BLOCK_SIZE, which yields the same doubles as one generator call per draw.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .core import DmdpInstance

STREAM_IDS = {"v-side": 0, "mu-side": 1, "initial-state": 2}
BLOCK_SIZE = 256


class SeededStream:
    """A single-owner random stream derived from (master seed, stream name)."""

    def __init__(self, seed: int, name: str):
        if name not in STREAM_IDS:
            raise ValueError(f"unknown stream name {name!r}")
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAM_IDS[name],))
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
    """Counts generative-model transition draws, per nonzero of P and in total."""

    nonzero_counts: np.ndarray
    transition_samples: int = 0

    @classmethod
    def for_instance(cls, instance: DmdpInstance) -> "SampleBudgetLedger":
        return cls(np.zeros(instance.transition.vals.size, np.int64))

    def record(self, k: int) -> None:
        self.transition_samples += 1
        self.nonzero_counts[k] += 1


def sample_cumulative(cumulative, stream: SeededStream) -> int:
    """Index of the first cumulative weight exceeding u * total mass.

    The unchecked inverse-CDF primitive: cumulative must be the running sum
    of nonnegative weights with a positive total.
    """
    last = len(cumulative) - 1
    # Bisecting [0, last) clamps the index to the last weight.
    return bisect.bisect_right(cumulative, stream.uniform() * cumulative[last], 0, last)


class SumTree:
    """Binary sum tree over n nonnegative weights, held as a Python list."""

    def __init__(self, weights):
        n = len(weights)
        size = 1 << (n - 1).bit_length()
        nodes = np.zeros(2 * size)
        nodes[size : size + n] = weights
        # Node i sums nodes 2i and 2i + 1, in the order set() adds them.
        while size > 1:
            children = nodes[size : 2 * size]
            nodes[size // 2 : size] = children[0::2] + children[1::2]
            size //= 2
        self.nodes = nodes.tolist()
        self.size = len(self.nodes) // 2  # the first leaf's node index
        self.last = n - 1

    def weights(self) -> np.ndarray:
        return np.array(self.nodes[self.size : self.size + self.last + 1])

    def set(self, index: int, weight: float) -> None:
        nodes = self.nodes
        i = self.size + index
        nodes[i] = weight
        i >>= 1
        while i:
            nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
            i >>= 1

    def sample(self, stream: SeededStream) -> int:
        """Index of the first weight whose running sum exceeds u * total."""
        nodes, size = self.nodes, self.size
        x = stream.uniform() * nodes[1]
        i = 1
        while i < size:
            i *= 2
            left = nodes[i]
            if x >= left:
                x -= left
                i += 1
        return min(i - size, self.last)


def sample_transition(
    instance: DmdpInstance,
    pair: int,
    stream: SeededStream,
    ledger: SampleBudgetLedger,
) -> int:
    """One generative-model draw j ~ p(.|pair), returned as the index k of the
    nonzero (pair, j), so j = instance.transition.cols[k]; increments the ledger."""
    P = instance.transition
    lo, last = P.bounds[pair], P.bounds[pair + 1] - 1
    cumulative = P.cumsum
    # Bisecting [lo, last) clamps k to the row's last nonzero.
    k = bisect.bisect_right(cumulative, stream.uniform() * cumulative[last], lo, last)
    ledger.record(k)
    return k
