"""The benchmark's workloads: set-up, the timed unit of work, and its cells.

A unit is what the timed phase repeats and times: on trends-3s one
configuration over all of the workload's solver seeds in one bench.execute
call, on the 1000-state workloads one solver run at one seed. A round is
`round_size` consecutive units: every configuration once on trends-3s, one
run on the others. Units run in a fixed cycle, so the first pass runs every
unit once and later passes repeat earlier work, which the determinism check
compares. A cell is one (series label, solver seed, horizon) solver run.

A shared 2-core x86-64 VM was measured changing speed by +-15% over 10-30 s,
so units are kept as short as the workload allows and the timing statistic
is a median over many of them.

Why these three workloads (time shares measured with the tracer on a shared
2-core x86-64 VM):

* trends-3s: the paper's three-state experiment run the way
  scripts/reproduce_trends.py runs it. N = 6 pairs, so per-step Python
  overhead in the sampler and the mirror steps carries the time. The only
  workload that goes through bench.execute and bench.write_csv.
* optimistic-s1000: one optimistic run on a 1000-state random instance with
  an accurate prediction. Dense N x S products in the averaged dual
  estimator and the predicted gradient carry the time.
* smd-s1000: the fixed-rate SMD baseline on the same kind of instance, with
  a longer horizon. Fresh estimator, no prediction: checkpoint policy
  evaluation carries the time. A change to the averaged estimator should
  leave it unchanged; per-step bookkeeping added to the engine shows here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from pdmdp import bench, core, instances, optimistic_pd, smd

TRENDS_HORIZONS = [100, 400, 1600, 6400, 16000]
SMD_EPSILON = 0.05
S1000_SHAPE = dict(num_states=1000, actions_per_state=4, sparsity=0.05)


@dataclass
class CellResult:
    """One solver run as the checks see it, with no large arrays kept."""

    key: tuple  # (label, seed, horizon)
    body: list  # CSV-body lines without wall_time: "step,samples,gap,value"
    errors: list = field(default_factory=list)


@dataclass
class Setup:
    instance: object
    q: np.ndarray
    units: list  # the (seed, label) cycle
    args: dict


@dataclass(frozen=True)
class Unit:
    seeds: tuple
    label: str


def solver_seeds(workload_seed, count):
    return random.Random(workload_seed).sample(range(1_000_000), count)


def outputs_by_cell(outputs):
    """{(seed, last checkpoint step): RunOutput} of a unit's captured runs."""
    return {(seed, out.trace[-1].step): out for seed, out in outputs if out.trace}


def output_errors(out, horizon, radius):
    """Checks on a solver's RunOutput: sample budget and feasible averages."""
    errors = []
    if out.ledger.transition_samples != 2 * horizon:
        errors.append(f"ledger has {out.ledger.transition_samples} samples, "
                      f"expected {2 * horizon}")
    if not np.all(np.abs(out.averaged_v) <= radius + 1e-12):
        errors.append("averaged v leaves the value box")
    mu = out.averaged_mu
    if not (np.all(mu >= 0.0) and abs(float(mu.sum()) - 1.0) <= 1e-9):
        errors.append("averaged mu leaves the simplex")
    return errors


class Workload:
    def failed_cells(self, unit, error):
        """The cells of a unit that raised before its cells could be read."""
        return [CellResult(key, [], [error]) for key in self.expected_keys(unit)]


class Trends3s(Workload):
    """Unit: one config over every solver seed through bench.execute, then
    bench.write_csv. All seeds go into one call, so a change that batches
    seeds inside bench.execute shows in iter_us."""

    name = "trends-3s"
    num_seeds = 2
    round_size = 3

    def setup(self, seed):
        instance, _, _, q = bench.resolve_instance("three-state")
        seeds = tuple(solver_seeds(seed, self.num_seeds))
        base = {"instance": "three-state", "horizons": TRENDS_HORIZONS, "seeds": list(seeds)}
        docs = [
            dict(base, algorithm="optimistic", prediction="accurate"),
            dict(base, algorithm="optimistic", prediction="inaccurate"),
            dict(base, algorithm="smd", epsilon=SMD_EPSILON),
        ]
        configs = {}
        for doc in docs:
            config = bench.ExperimentConfig.from_dict(doc)
            configs[Unit(seeds, config.series_label)] = config
        return Setup(instance, np.asarray(q, dtype=float), list(configs), configs)

    def nominal_steps(self, unit):
        return len(unit.seeds) * sum(TRENDS_HORIZONS)

    def useful_steps(self, unit):
        """Steps of one run per seed to the largest horizon, which covers every horizon."""
        return len(unit.seeds) * max(TRENDS_HORIZONS)

    def expected_keys(self, unit):
        return [(unit.label, s, h) for s in unit.seeds for h in TRENDS_HORIZONS]

    def run_unit(self, setup, unit, csv_path):
        config = setup.args[unit]
        rows = bench.execute(config, threads=1)
        bench.write_csv(csv_path, config, rows)

    def cells(self, setup, unit, outputs, csv_path):
        bodies = {}
        with open(csv_path) as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("algorithm,"):
                    continue
                parts = line.rstrip("\n").split(",")
                key = (parts[0], int(parts[1]), int(parts[2]))
                bodies.setdefault(key, []).append(",".join(parts[3:-1]))
        expected = set(self.expected_keys(unit))
        by_cell = outputs_by_cell(outputs)
        results = []
        for key in sorted(expected | set(bodies)):
            cell = CellResult(key, bodies.get(key, []))
            if key not in expected:
                cell.errors.append("unexpected cell in CSV")
            if key[1:] in by_cell:
                cell.errors += output_errors(by_cell[key[1:]], key[2],
                                             setup.instance.value_radius)
            results.append(cell)
        return results


class S1000(Workload):
    """Shared set-up of the two 1000-state workloads. Unit: one solver run."""

    num_seeds = 3
    round_size = 1

    def setup(self, seed):
        instance = instances.random_instance(seed=seed, **S1000_SHAPE)
        q = np.full(instance.num_states, 1.0 / instance.num_states)
        units = [Unit((s,), self.label) for s in solver_seeds(seed, self.num_seeds)]
        return Setup(instance, q, units, {})

    def nominal_steps(self, unit):
        return self.horizon

    def useful_steps(self, unit):
        return self.horizon

    def expected_keys(self, unit):
        return [(unit.label, unit.seeds[0], self.horizon)]

    def cells(self, setup, unit, outputs, csv_path):
        ((_, out),) = outputs
        body = [f"{p.step},{p.transition_samples},{float(p.gap)!r},{float(p.value)!r}"
                for p in out.trace]
        cell = CellResult(self.expected_keys(unit)[0], body)
        cell.errors += output_errors(out, self.horizon, setup.instance.value_radius)
        return [cell]


class OptimisticS1000(S1000):
    name = "optimistic-s1000"
    label = "optimistic-accurate"
    horizon = 400
    num_seeds = 4

    def setup(self, seed):
        s = super().setup(seed)
        s.args["prediction"] = core.build_prediction(s.instance, s.instance.transition)
        return s

    def run_unit(self, setup, unit, csv_path):
        optimistic_pd.run(setup.instance, setup.args["prediction"], setup.q,
                          self.horizon, unit.seeds[0])


class SmdS1000(S1000):
    name = "smd-s1000"
    label = "smd"
    horizon = 3000

    def run_unit(self, setup, unit, csv_path):
        smd.run_smd(setup.instance, setup.q, self.horizon, SMD_EPSILON, unit.seeds[0])


WORKLOADS = {w.name: w for w in (Trends3s(), OptimisticS1000(), SmdS1000())}


def final_rows(cells):
    """Parsed final checkpoint of each cell: {key: (step, samples, gap, value)}."""
    finals = {}
    for cell in cells:
        if cell.body:
            step, samples, gap, value = cell.body[-1].split(",")
            finals[cell.key] = (int(step), int(samples), float(gap), float(value))
    return finals


def check_cell(cell, optimal_value):
    """Row-level checks; returns the cell's full error list."""
    errors = list(cell.errors)
    horizon = cell.key[2]
    if not cell.body:
        return errors + ["no checkpoint rows"]
    for line in cell.body:
        step, samples, gap, _ = line.split(",")
        if int(samples) != 2 * int(step):
            errors.append(f"step {step}: {samples} samples, expected {2 * int(step)}")
            break
        if float(gap) < -1e-12:
            errors.append(f"step {step}: negative duality gap {gap}")
            break
    step, _, _, value = final_rows([cell])[cell.key]
    if step != horizon:
        errors.append(f"last checkpoint at step {step}, expected {horizon}")
    if value > optimal_value + 1e-9:
        errors.append(f"policy value {value!r} exceeds optimum {optimal_value!r}")
    return errors
