#!/usr/bin/env python3
"""Reproduce the three-state benchmark trend curves.

Runs the optimistic solver with an accurate and an inaccurate prediction
plus the fixed-rate baseline over a geometric horizon grid, many seeds
each, then writes one combined trace CSV and per-algorithm plot series.

Usage:
    python3 scripts/reproduce_trends.py --out results/ [--seeds 20]

Exit codes and error lines are the pdmdp CLI's, from the same parser and
handler: 2 with one 'error: ...' line on stderr for invalid input or usage,
such as --seeds 0 or --seeds abc (caught before anything is written), and 3
with one 'i/o error: ...' line for a failed read or write, such as --out
naming an existing file.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pdmdp import bench  # noqa: E402
from pdmdp.cli import Parser, guarded  # noqa: E402

HORIZONS = [100, 400, 1600, 6400, 16000]


def build_configs(num_seeds):
    seeds = list(range(num_seeds))
    base = {"instance": "three-state", "horizons": HORIZONS, "seeds": seeds}
    docs = [
        dict(base, algorithm="optimistic", prediction="accurate"),
        dict(base, algorithm="optimistic", prediction="inaccurate"),
        dict(base, algorithm="smd", epsilon=0.05),
    ]
    return [bench.ExperimentConfig.from_dict(doc) for doc in docs]


def reproduce(out, num_seeds):
    configs = build_configs(num_seeds)
    os.makedirs(out, exist_ok=True)
    rows = []
    for config in configs:
        print(f"running {config.series_label} ...", flush=True)
        rows.extend(bench.execute(config))
    rows.sort(key=lambda row: (row[0], row[1], row[2], row[3]))

    csv_path = os.path.join(out, "three_state_trends.csv")
    bench.write_csv(csv_path, configs, rows)
    print(f"wrote {csv_path}")
    for path in bench.write_series_files(csv_path, out):
        print(f"wrote {path}")

    series = bench.aggregate_series(rows)
    print("\nfinal-horizon duality gaps (mean over seeds):")
    for label, points in sorted(series.items()):
        horizon, gap_mean, gap_se, value_mean, _ = points[-1]
        print(
            f"  {label:22s} T={horizon}: gap {gap_mean:.4f} +/- {gap_se:.4f},"
            f" policy value {value_mean:.4f}"
        )
    return 0


def main():
    def command():
        parser = Parser(description=__doc__.splitlines()[0])
        parser.add_argument("--out", default="results", help="output directory")
        parser.add_argument("--seeds", type=int, default=20)
        args = parser.parse_args()
        return reproduce(args.out, args.seeds)

    return guarded(command)


if __name__ == "__main__":
    sys.exit(main())
