#!/usr/bin/env python3
"""Compare two commits on the benchmark's end-to-end metrics.

Collect alternating pairs of runs from two checkouts, then judge each
(workload, end-to-end metric):

    python3 perfbench/compare.py collect --parent DIR --change DIR \\
        --workload trends-3s --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

Pair i runs seed first_seed + i on both sides, parent first when i is even
and change first when it is odd. Omit --change to collect one side only;
the report then shows each metric's spread against its bound, the way the
benchmark's steadiness is judged. Passing the same directory as parent and
change is an A/A test of the benchmark itself.

Verdicts, per the rule the benchmark is held to:
  unresolved  fewer than 10 pairs; or either side's spread (interquartile
              range over median) is wider than the metric's bound, unless
              every change run beats every parent run;
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound; or, for a metric in PAIRED, the change loses at
              least 9/10 of the pairs and the median of the per-pair ratios
              is worse than 1 by more than that metric's tolerance;
  no worse    otherwise.

final_gap is a deterministic function of the seed, so its spread, and
with it its bound, is the spread between seeds. The paired rule judges it
per seed instead: a change that keeps each seed's random stream moves every
pair the same way, while one that only changes the stream wins and loses
pairs at random.

The exit status is 1 if a run failed or a cell failed its checks, if a
change side has no successful run, or if any row is worse, unresolved or,
with one side only, wider than its bound; 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10
# Metrics judged also from per-pair ratios, change over parent, with the
# share by which their median may be worse than 1.
PAIRED = {"final_gap": 0.01}


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def collect(args):
    seconds = load_spec()["run_seconds"]
    sides = [("parent", os.path.abspath(args.parent))]
    if args.change:
        sides.append(("change", os.path.abspath(args.change)))
    with open(args.out, "a") as out:
        for workload in args.workload:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = sides if i % 2 == 0 else sides[::-1]
                for position, (side, checkout) in enumerate(order):
                    result = run_side(checkout, workload, seed, seconds)
                    record = {"workload": workload, "pair": i, "seed": seed, "side": side,
                              "position": position, **result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    status = result.get("error") or {
                        k: round(v["value"], 6) for k, v in result["metrics"].items()}
                    print(f"{workload} pair {i} seed {seed} {side}: {status}", flush=True)


def spread(values):
    """Interquartile range over the median, as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric, parent, change):
    """parent and change map pair index -> value."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    pairs = [i for i in parent if i in change]
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    p, c = list(parent.values()), list(change.values())
    all_better = max(sign * x for x in c) < min(sign * x for x in p)
    if spread(p) > bound or spread(c) > bound:
        return "improved" if all_better else "unresolved"
    wins = sum(sign * change[i] < sign * parent[i] for i in pairs)
    gain = sign * (statistics.median(p) - statistics.median(c))
    if wins >= 0.9 * len(pairs) and gain > iqr(p):
        return "improved"
    if -gain > bound * abs(statistics.median(p)):
        return "worse"
    if metric["name"] in PAIRED:
        losses = sum(sign * change[i] > sign * parent[i] for i in pairs)
        ratio = statistics.median(change[i] / parent[i] for i in pairs)
        if losses >= 0.9 * len(pairs) and sign * (ratio - 1.0) > PAIRED[metric["name"]]:
            return "worse"
    return "no worse"


def report(args):
    spec = load_spec()
    records = []
    for path in args.results:
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    worst = 0
    for r in records:
        if "error" in r:
            print(f"run failed: {r['workload']} pair {r['pair']} {r['side']}: {r['error']}")
            worst = 1
    two_sided = {r["workload"] for r in records if r["side"] == "change"}
    workloads = sorted({r["workload"] for r in records})
    records = [r for r in records if "error" not in r]
    header = (f"{'workload':18s} {'metric':12s} {'side':7s} {'n':>3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    print(header)
    for workload in workloads:
        mine = [r for r in records if r["workload"] == workload]
        failed = sum(r["failed"] for r in mine)
        if failed:
            print(f"{workload}: {failed} failed cells across {len(mine)} runs")
            worst = 1
        if workload in two_sided and not any(r["side"] == "change" for r in mine):
            print(f"{workload}: no successful run of the change")
            worst = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = {}
            for r in mine:
                sides.setdefault(r["side"], {})[r["pair"]] = r["metrics"][name]["value"]
            for side, values in sorted(sides.items(), reverse=True):
                v = list(values.values())
                if len(v) < 2:
                    print(f"{workload:18s} {name:12s} {side:7s} {len(v):3d}  too few runs")
                    worst = 1
                    continue
                q1, median, q3 = statistics.quantiles(v, n=4)
                s = spread(v)
                if workload in two_sided and side == "change":
                    judged = (verdict(metric, sides["parent"], sides["change"])
                              if "parent" in sides else "unresolved")
                elif workload in two_sided:
                    judged = ""
                else:
                    judged = ("steady" if s < metric["bound"] / 3
                              else "within bound" if s <= metric["bound"] else "too wide")
                if judged in ("worse", "unresolved", "too wide"):
                    worst = 1
                print(f"{workload:18s} {name:12s} {side:7s} {len(v):3d} {median:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {s:7.3f} {metric['bound']:6.2f}  {judged}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run alternating pairs and append them to --out")
    c.add_argument("--parent", required=True, help="checkout of the parent commit")
    c.add_argument("--change", help="checkout of the change; omit to run one side")
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=0)
    c.add_argument("--out", required=True)
    r = sub.add_parser("report", help="judge collected runs")
    r.add_argument("results", nargs="+")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
