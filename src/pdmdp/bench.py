"""Experiment orchestration: configs, multi-seed runs, CSV traces, series data.

A config describes one algorithm on one instance over a grid of horizons and
seeds. Each (seed, horizon) cell is an independent fresh run; checkpoints
inside a run give additional intermediate points, distinguished by the step
column. Rows are gathered and sorted canonically before writing, so the CSV
body is a pure function of the config regardless of scheduling. The
wall_time column is the one exception and is excluded from determinism
comparisons.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import smd
from .core import DmdpError, ShapeMismatch, load_instance
from .instances import HardFamilySpec, hard_family, random_instance, three_state_example
from .optimistic_pd import run as run_optimistic

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "algorithm",
    "seed",
    "horizon",
    "step",
    "transition_samples",
    "gap",
    "value",
    "wall_time",
]

# Action labels for presets whose actions have conventional names.
PRESET_ACTION_LABELS = {
    "three-state": [["stay", "leave"], ["stay", "leave"], ["left", "right"]],
}


def _hard_spec(perturbed: bool) -> HardFamilySpec:
    return HardFamilySpec(m=2, n=3, discount=0.5, epsilon=0.05, perturbed=perturbed)


def load_preset(name: str):
    """Resolve a named preset to (instance, accurate pred, inaccurate pred, q)."""
    if name == "three-state":
        ex = three_state_example()
        return ex.instance, ex.accurate_prediction, ex.inaccurate_prediction, ex.q
    if name in ("hard-m0", "hard-mprime"):
        instance = hard_family(_hard_spec(perturbed=(name == "hard-mprime")))
        q = np.full(instance.num_states, 1.0 / instance.num_states)
        return instance, None, None, q
    if name == "random":
        instance = random_instance(4, 3, seed=0)
        q = np.full(instance.num_states, 1.0 / instance.num_states)
        return instance, None, None, q
    raise DmdpError(f"unknown preset {name!r}")


def resolve_instance(source: str):
    """A preset name or a JSON file path -> (instance, acc, inacc, q)."""
    if source in ("three-state", "hard-m0", "hard-mprime", "random"):
        return load_preset(source)
    instance, prediction = load_instance(source)
    q = np.full(instance.num_states, 1.0 / instance.num_states)
    return instance, None, prediction, q


@dataclass
class ExperimentConfig:
    instance: str
    algorithm: str
    prediction: str
    horizons: list
    seeds: list
    q: list | None = None
    epsilon: float | None = None
    label: str | None = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            cfg = cls(
                instance=doc["instance"],
                algorithm=doc["algorithm"],
                prediction=doc.get("prediction", "none"),
                horizons=[int(t) for t in doc["horizons"]],
                seeds=[int(s) for s in doc["seeds"]],
                q=doc.get("q"),
                epsilon=doc.get("epsilon"),
                label=doc.get("label"),
                raw=dict(doc),
            )
        except KeyError as exc:
            raise DmdpError(f"config missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DmdpError(f"malformed config: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.algorithm not in ("optimistic", "smd"):
            raise DmdpError(f"unknown algorithm {self.algorithm!r}")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise DmdpError("horizons must be strictly increasing")
        if not self.horizons or min(self.horizons) < 1:
            raise DmdpError("need at least one positive horizon")
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise DmdpError("seeds must be non-empty and distinct")
        if self.algorithm == "optimistic" and self.prediction == "none":
            raise DmdpError("the optimistic algorithm requires a prediction")
        if self.algorithm == "smd":
            if self.prediction != "none":
                raise DmdpError("smd takes no prediction")
            if self.epsilon is None:
                raise DmdpError("smd requires an accuracy target epsilon")

    @property
    def series_label(self) -> str:
        if self.label:
            return self.label
        if self.algorithm == "smd":
            return "smd"
        return f"optimistic-{self.prediction}"

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DmdpError("config file must contain a JSON object")
    return ExperimentConfig.from_dict(doc)


def _resolve_prediction(config, accurate, inaccurate, instance):
    if config.prediction == "none":
        return None
    if config.prediction == "accurate":
        if accurate is None:
            from .core import build_prediction

            accurate = build_prediction(instance, instance.transition)
        return accurate
    if config.prediction == "inaccurate":
        if inaccurate is None:
            raise DmdpError("this instance ships no inaccurate prediction")
        return inaccurate
    # Otherwise a path to an instance file carrying a prediction matrix.
    _, prediction = load_instance(config.prediction)
    if prediction is None:
        raise ShapeMismatch("prediction file carries no prediction matrix")
    return prediction


def execute(config: ExperimentConfig, threads: int = 1) -> list:
    """Run the full (seed x horizon) grid; returns canonical sorted rows."""
    instance, accurate, inaccurate, preset_q = resolve_instance(config.instance)
    q = np.asarray(config.q, dtype=float) if config.q is not None else preset_q
    prediction = _resolve_prediction(config, accurate, inaccurate, instance)
    label = config.series_label

    def one_run(job):
        seed, horizon = job
        if config.algorithm == "smd":
            out = smd.run_smd(instance, q, horizon, config.epsilon, seed)
        else:
            out = run_optimistic(instance, prediction, q, horizon, seed)
        return [
            (
                label,
                seed,
                horizon,
                point.step,
                point.transition_samples,
                point.gap,
                point.value,
                point.wall_time,
            )
            for point in out.trace
        ]

    jobs = [(seed, horizon) for seed in config.seeds for horizon in config.horizons]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(one_run, jobs))
    else:
        chunks = [one_run(job) for job in jobs]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    return rows


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def write_csv(path, configs, rows) -> None:
    """Write header comments plus one row per checkpoint.

    configs may be one config or a list (for multi-algorithm traces).
    """
    if isinstance(configs, ExperimentConfig):
        configs = [configs]
    with open(path, "w") as fh:
        fh.write(f"# schema_version={CSV_SCHEMA_VERSION}\n")
        fh.write(f"# git={_git_describe()}\n")
        for config in configs:
            fh.write(
                f"# config label={config.series_label}"
                f" hash={config.config_hash()}"
                f" seeds={','.join(map(str, config.seeds))}\n"
            )
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            label, seed, horizon, step, samples, gap, value, wall = row
            fh.write(
                f"{label},{seed},{horizon},{step},{samples},"
                f"{float(gap)!r},{float(value)!r},{wall:.6f}\n"
            )


def read_csv(path):
    """Parse a trace CSV back into typed row tuples (header ignored)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if parts[0] == "algorithm":
                if parts != CSV_COLUMNS:
                    raise DmdpError("unexpected CSV column layout")
                continue
            if len(parts) != len(CSV_COLUMNS):
                raise DmdpError(f"malformed CSV row: {line!r}")
            rows.append(
                (
                    parts[0],
                    int(parts[1]),
                    int(parts[2]),
                    int(parts[3]),
                    int(parts[4]),
                    float(parts[5]),
                    float(parts[6]),
                    float(parts[7]),
                )
            )
    if not rows:
        raise DmdpError("CSV contains no data rows")
    return rows


def aggregate_series(rows):
    """Mean and standard error over seeds of the final-checkpoint metrics.

    Returns {label: [(horizon, gap_mean, gap_se, value_mean, value_se)]}.
    """
    groups = {}
    for label, seed, horizon, step, _, gap, value, _ in rows:
        if step != horizon:
            continue
        groups.setdefault((label, horizon), []).append((gap, value))
    series = {}
    for (label, horizon), points in sorted(groups.items()):
        arr = np.array(points)
        n = len(points)
        se = arr.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(2)
        series.setdefault(label, []).append(
            (horizon, arr[:, 0].mean(), se[0], arr[:, 1].mean(), se[1])
        )
    return series


def write_series_files(csv_path, out_dir) -> list:
    """Emit per-algorithm plot data: '<label>_gap.dat' and '<label>_value.dat'.

    Each file holds 'horizon mean stderr' rows, plain text, plot-tool ready.
    """
    import os

    rows = read_csv(csv_path)
    series = aggregate_series(rows)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for label, points in series.items():
        for metric, mean_idx, se_idx in (("gap", 1, 2), ("value", 3, 4)):
            path = os.path.join(out_dir, f"{label}_{metric}.dat")
            with open(path, "w") as fh:
                for point in points:
                    fh.write(
                        f"{point[0]} {float(point[mean_idx])!r}"
                        f" {float(point[se_idx])!r}\n"
                    )
            written.append(path)
    return written
