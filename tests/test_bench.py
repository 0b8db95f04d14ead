"""bench.execute: one anytime run per seed against one fresh run per cell;
bench.write_csv: one git describe per process."""

import subprocess
from unittest import mock

import pytest

from pdmdp import bench, smd
from pdmdp.optimistic_pd import REFRESH_PERIOD, run

# Off the geometric checkpoint grid; the last one lies past a refresh.
HORIZONS = [7, 50, 5000]
SEEDS = [0, 3]
assert HORIZONS[-1] > REFRESH_PERIOD

CONFIGS = {
    "optimistic-accurate": {"algorithm": "optimistic", "prediction": "accurate"},
    "optimistic-inaccurate": {"algorithm": "optimistic", "prediction": "inaccurate"},
    "smd": {"algorithm": "smd", "epsilon": 0.05},
}


def cell_rows(config):
    """The oracle: one fresh run per (seed, horizon), each with its default
    checkpoints, minus wall_time."""
    instance, accurate, inaccurate, q = bench.resolve_instance(config.instance)
    prediction = {"accurate": accurate, "inaccurate": inaccurate}.get(config.prediction)
    rows = []
    for seed in config.seeds:
        for horizon in config.horizons:
            if config.algorithm == "smd":
                out = smd.run_smd(instance, q, horizon, config.epsilon, seed)
            else:
                out = run(instance, prediction, q, horizon, seed)
            rows += [
                (config.series_label, seed, horizon, p.step, p.transition_samples,
                 p.gap, p.value)
                for p in out.trace
            ]
    return sorted(rows)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_one_run_per_seed_matches_fresh_runs(monkeypatch, label):
    doc = dict(CONFIGS[label], instance="three-state", horizons=HORIZONS, seeds=SEEDS)
    config = bench.ExperimentConfig.from_dict(doc)
    expected = cell_rows(config)

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])  # the horizon
        return run(*args, **kwargs)

    monkeypatch.setattr(bench, "run_optimistic", counted)
    monkeypatch.setattr(smd, "run", counted)
    rows = bench.execute(config)

    assert calls == [HORIZONS[-1]] * len(SEEDS)
    assert [row[:-1] for row in rows] == expected


def test_write_csv_describes_the_checkout_once(tmp_path):
    config = bench.ExperimentConfig.from_dict(
        dict(CONFIGS["smd"], instance="three-state", horizons=[5], seeds=[0]))
    rows = bench.execute(config)
    bench._git_describe.cache_clear()
    with mock.patch.object(bench.subprocess, "run", wraps=subprocess.run) as spawn:
        bench.write_csv(tmp_path / "a.csv", config, rows)
        bench.write_csv(tmp_path / "b.csv", config, rows)
    assert spawn.call_count == 1
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
