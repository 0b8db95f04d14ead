"""Instance builders: the three-state benchmark, a three-layer hard family
with closed-form optimal values, and random instances for property tests.

The hard family and random instances hand build_instance their transition
as CSR arrays, so no N x S array is formed; the three-state benchmark is
written out as dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CsrMatrix,
    DmdpInstance,
    SpecOutOfRange,
    build_instance,
    build_prediction,
)


@dataclass(frozen=True)
class ThreeStateExample:
    """The benchmark instance plus its two predictions, CsrMatrix like P.

    accurate_prediction is P itself; inaccurate_prediction is a deterministic
    guess whose prediction_error is 2, the largest possible.

    States 0 and 1 choose stay (low reward, self-loop) or leave (medium
    reward, drift toward state 2); state 2 chooses left or right, both
    rewarding 1, with right the stickier and therefore optimal action.
    """

    instance: DmdpInstance
    accurate_prediction: CsrMatrix
    inaccurate_prediction: CsrMatrix
    q: np.ndarray
    epsilon: float


def three_state_example() -> ThreeStateExample:
    transition = [
        [1.0, 0.0, 0.0],  # (0, stay)
        [0.4, 0.0, 0.6],  # (0, leave)
        [0.0, 1.0, 0.0],  # (1, stay)
        [0.0, 0.4, 0.6],  # (1, leave)
        [0.4, 0.4, 0.2],  # (2, left)
        [0.2, 0.2, 0.6],  # (2, right)
    ]
    reward = [0.001, 0.5, 0.001, 0.5, 1.0, 1.0]
    instance = build_instance(3, [2, 2, 2], transition, reward, 0.5)
    wrong = [
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ]
    return ThreeStateExample(
        instance=instance,
        accurate_prediction=build_prediction(instance, instance.transition),
        inaccurate_prediction=build_prediction(instance, wrong),
        q=np.array([0.4, 0.4, 0.2]),
        epsilon=0.05,
    )


@dataclass(frozen=True)
class HardFamilySpec:
    """Parameters of the three-layer start/middle/end family.

    m start states each choose among n middle chains; middle states
    self-loop with probability near base_loop and pay reward 1; end states
    absorb with reward 0. The base variant boosts chain (1, 1) by delta; the
    perturbed variant additionally boosts one other chain by 2 delta,
    making a different chain optimal while moving the transition matrix
    only O((1 - gamma)^2 epsilon) in worst-case row L1 distance.

    Indices k (start) and l (chain) are 1-based to match the layer layout.
    """

    m: int
    n: int
    discount: float
    epsilon: float
    perturbed: bool = False
    perturbed_chain: tuple[int, int] = (1, 2)

    @property
    def base_loop(self) -> float:
        return (4.0 * self.discount - 1.0) / (3.0 * self.discount)

    @property
    def delta(self) -> float:
        g = self.discount
        return (5.0 / 3.0) * (1.0 - g) ** 2 * self.epsilon / g

    def validate(self) -> None:
        if self.m < 1 or self.n < 1 or self.m * self.n <= 1:
            raise SpecOutOfRange("need m, n >= 1 with m * n > 1")
        if self.discount < 1.0 / 3.0 or self.discount >= 1.0:
            raise SpecOutOfRange("discount must lie in [1/3, 1)")
        if not (0.0 < self.epsilon <= 1.0 / (40.0 * (1.0 - self.discount))):
            raise SpecOutOfRange("epsilon must be in (0, (1-gamma)^-1 / 40]")
        k, l = self.perturbed_chain
        if not (1 <= k <= self.m and 1 <= l <= self.n) or (k, l) == (1, 1):
            raise SpecOutOfRange("perturbed chain must differ from (1, 1)")
        if self.base_loop + 2.0 * self.delta >= 1.0:
            raise SpecOutOfRange("loop probability would leave (0, 1)")


def _loop_probabilities(spec: HardFamilySpec) -> np.ndarray:
    loops = np.full((spec.m, spec.n), spec.base_loop)
    loops[0, 0] += spec.delta
    if spec.perturbed:
        k, l = spec.perturbed_chain
        loops[k - 1, l - 1] += 2.0 * spec.delta
    return loops


def hard_family(spec: HardFamilySpec) -> DmdpInstance:
    """Build the instance. State order: starts, middles row-major, ends."""
    spec.validate()
    m, n = spec.m, spec.n
    chains = m * n
    num_states = m + 2 * chains
    # Per chain (k, l), in the same order: the start action jumping to its
    # middle state; the middle state looping or falling to its end state (the
    # middle's column is the smaller); the end state absorbing.
    middles = m + np.arange(chains)
    ends = middles + chains
    loops = _loop_probabilities(spec).ravel()
    cols = np.concatenate((middles, np.stack((middles, ends), axis=1).ravel(), ends))
    vals = np.concatenate(
        (np.ones(chains), np.stack((loops, 1.0 - loops), axis=1).ravel(), np.ones(chains))
    )
    starts = np.concatenate(([0], np.cumsum(np.repeat([1, 2, 1], chains))))
    P = CsrMatrix((3 * chains, num_states), starts, cols, vals)
    rewards = np.repeat([0.0, 1.0, 0.0], chains)
    actions = [n] * m + [1] * (2 * chains)
    return build_instance(num_states, actions, P, rewards, spec.discount)


def hard_family_optimal_values(spec: HardFamilySpec) -> np.ndarray:
    """Closed-form optimal values in the same state order as hard_family."""
    spec.validate()
    g = spec.discount
    middles = 1.0 / (1.0 - g * _loop_probabilities(spec))
    starts = g * middles.max(axis=1)
    ends = np.zeros(spec.m * spec.n)
    return np.concatenate((starts, middles.ravel(), ends))


def random_instance(
    num_states, actions_per_state, sparsity=1.0, seed=0, discount=0.9
) -> DmdpInstance:
    """Seeded random instance: Dirichlet rows on a random support."""
    if not (0.0 < sparsity <= 1.0):
        raise SpecOutOfRange("sparsity must be in (0, 1]")
    actions = (
        [actions_per_state] * num_states
        if np.isscalar(actions_per_state)
        else list(actions_per_state)
    )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_pairs = int(sum(actions))
    support_size = max(1, int(round(sparsity * num_states)))
    cols = np.empty((n_pairs, support_size), dtype=np.intp)
    vals = np.empty((n_pairs, support_size))
    alpha = np.ones(support_size)
    for i in range(n_pairs):
        cols[i] = rng.choice(num_states, size=support_size, replace=False)
        vals[i] = rng.dirichlet(alpha)
    # Each row's support in increasing order, its Dirichlet values with it.
    order = np.argsort(cols, axis=1)
    cols, vals = (np.take_along_axis(a, order, axis=1).ravel() for a in (cols, vals))
    starts = np.arange(0, cols.size + 1, support_size)
    P = CsrMatrix((n_pairs, num_states), starts, cols, vals)
    reward = rng.uniform(0.0, 1.0, size=n_pairs)
    return build_instance(num_states, actions, P, reward, discount)
