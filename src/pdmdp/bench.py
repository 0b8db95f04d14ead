"""Experiment orchestration: configs, multi-seed runs, CSV traces, series data.

A config describes one algorithm on one instance over a grid of horizons and
seeds. The engine's rates and refresh schedule do not depend on the horizon,
so run(T) is a bitwise prefix of run(T' > T): each seed is run once, to the
largest horizon, and a (seed, horizon) cell's rows are that trace's points at
default_checkpoints(horizon), distinguished by the step column. Rows are
sorted canonically before writing, so the CSV body is a pure function of the
config. The wall_time column (time since the start of the seed's run) is the
one exception and is excluded from determinism comparisons.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import subprocess
from dataclasses import dataclass, field

import numpy as np

from . import smd
from .core import DmdpError, ShapeMismatch, check_fields, load_instance, load_json
from .instances import HardFamilySpec, hard_family, random_instance, three_state_example
from .optimistic_pd import default_checkpoints, run as run_optimistic

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


def _three_state():
    ex = three_state_example()
    return ex.instance, ex.inaccurate_prediction, ex.q


def _with_uniform_q(instance, inaccurate=None):
    return instance, inaccurate, np.full(instance.num_states, 1.0 / instance.num_states)


# Preset name -> builder of (instance, inaccurate prediction or None, q).
PRESETS = {
    "three-state": _three_state,
    "hard-m0": lambda: _with_uniform_q(hard_family(_hard_spec(perturbed=False))),
    "hard-mprime": lambda: _with_uniform_q(hard_family(_hard_spec(perturbed=True))),
    "random": lambda: _with_uniform_q(random_instance(4, 3, seed=0)),
}


def resolve_instance(source: str):
    """A preset name or an instance file path -> (instance, P, inaccurate, q).

    An instance file's own prediction, if it has one, is its inaccurate one.
    """
    if source in PRESETS:
        instance, inaccurate, q = PRESETS[source]()
    else:
        instance, inaccurate, q = _with_uniform_q(*load_instance(source))
    return instance, instance.transition, inaccurate, q


def resolve_prediction(name: str, instance, inaccurate):
    """The prediction E a name selects: a CsrMatrix, or None for "none".

    "accurate" is P itself, "inaccurate" the instance's own inaccurate
    prediction, and any other name an instance file carrying a prediction.
    """
    if name == "none":
        return None
    if name == "accurate":
        return instance.transition
    if name == "inaccurate":
        if inaccurate is None:
            raise DmdpError("this instance ships no inaccurate prediction")
        return inaccurate
    _, prediction = load_instance(name)
    if prediction is None:
        raise ShapeMismatch("prediction file carries no prediction matrix")
    return prediction


def _check_label(label: str, what: str) -> None:
    """A series label names files and fills a CSV column, so allow no more."""
    if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
        raise DmdpError(f"{what} must match [A-Za-z0-9._-]+: {label!r}")


# JSON type of each config field, checked when the field is present.
_FIELD_TYPES = {
    "instance": "a string",
    "prediction": "a string",
    "label": "null or a string",
    "out": "null or a string",
    "horizons": "a list of integers",
    "seeds": "a list of non-negative integers",
    "q": "null or a list of numbers",
    "epsilon": "null or a number",
}


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
        required = ("instance", "algorithm", "horizons", "seeds")
        check_fields(doc, required, _FIELD_TYPES, "config")
        cfg = cls(
            instance=doc["instance"],
            algorithm=doc["algorithm"],
            prediction=doc.get("prediction", "none"),
            horizons=list(doc["horizons"]),
            seeds=list(doc["seeds"]),
            q=doc.get("q"),
            epsilon=doc.get("epsilon"),
            label=doc.get("label"),
            raw=dict(doc),
        )
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
        what = "config field 'label'" if self.label else "default label (set 'label')"
        _check_label(self.series_label, what)

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
    return ExperimentConfig.from_dict(load_json(path))


def execute(config: ExperimentConfig, threads: int = 1) -> list:
    """Run each seed once to the last horizon; returns canonical sorted rows.

    threads must be at least 1; it changes neither the rows nor the speed.
    """
    if threads < 1:
        raise DmdpError(f"threads must be at least 1, got {threads}")
    instance, _, inaccurate, preset_q = resolve_instance(config.instance)
    q = config.q if config.q is not None else preset_q
    prediction = resolve_prediction(config.prediction, instance, inaccurate)
    label = config.series_label
    schedules = {h: default_checkpoints(h) for h in config.horizons}
    checkpoints = set().union(*schedules.values())
    horizon = config.horizons[-1]

    rows = []
    for seed in config.seeds:
        if config.algorithm == "smd":
            out = smd.run_smd(instance, q, horizon, config.epsilon, seed, checkpoints)
        else:
            out = run_optimistic(instance, prediction, q, horizon, seed, checkpoints)
        points = {point.step: point for point in out.trace}
        for h, steps in schedules.items():
            for point in map(points.get, steps):
                rows.append((label, seed, h, point.step, point.transition_samples,
                             point.gap, point.value, point.wall_time))
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3]))
    return rows


@functools.cache  # once per process: write_csv calls it for every file
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
    """Parse a trace CSV back into typed row tuples.

    The first line that is neither blank nor a comment is the column header;
    every later one is a data row, whatever its label.
    """
    rows, header = [], None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
                if header != CSV_COLUMNS:
                    raise DmdpError("unexpected CSV column layout")
                continue
            if len(parts) != len(CSV_COLUMNS):
                raise DmdpError(f"malformed CSV row: {line!r}")
            row = (parts[0], *map(int, parts[1:5]), *map(float, parts[5:]))
            if not all(map(math.isfinite, row[5:])):
                raise DmdpError(f"non-finite number in CSV row: {line!r}")
            rows.append(row)
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
        with np.errstate(over="ignore", invalid="ignore"):
            se = arr.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(2)
            point = (horizon, arr[:, 0].mean(), se[0], arr[:, 1].mean(), se[1])
        if not np.isfinite(point[1:]).all():
            raise DmdpError(f"series {label!r} overflows at horizon {horizon}")
        series.setdefault(label, []).append(point)
    return series


def write_series_files(csv_path, out_dir) -> list:
    """Emit per-algorithm plot data: '<label>_gap.dat' and '<label>_value.dat'.

    Each file holds 'horizon mean stderr' rows, plain text, plot-tool ready.
    """
    rows = read_csv(csv_path)
    series = aggregate_series(rows)
    for label in series:
        _check_label(label, "CSV series label")
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
