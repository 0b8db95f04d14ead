#!/usr/bin/env python3
"""pdmdp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: trends-3s, optimistic-s1000, smd-s1000 (see workloads.py for why
each was chosen). The seed drives instance generation and the solver seeds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, from a run that times S/2 seconds untraced and S/2
seconds under the tracer, so the tracing overhead is reported with them.

Each measurement runs in a fresh worker process with the BLAS thread count
pinned in its environment. Set-up time is the median over several worker
processes. A readable report goes to stderr; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Exit codes: 0 measured (check `correct`), 1 a worker failed, 2 the pdmdp
sources or the benchmark definition are missing or inconsistent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# One caller at a time, so one BLAS thread: the workloads measure the
# solver's single-threaded cost, and BLAS threads do not compete with it.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up-only worker processes; the measuring worker's own set-up adds one.
SETUP_REPEATS = 5
# The whole invocation must finish within 180 s.
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in BLAS_VARIABLES:
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, mode, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerFailed(f"{mode} worker printed no result: {exc}") from exc


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def say(line=""):
    print(line, file=sys.stderr)


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        workloads = [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        say(f"perfbench: cannot read BENCHMARK.json: {exc}")
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "pdmdp", "__init__.py")):
        say(f"perfbench: no pdmdp sources under {os.path.join(ROOT, 'src')}")
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(run_worker(args, "setup", deadline)["setup_s"])
        raw = run_worker(args, "trace" if args.trace else "e2e", deadline)
    except WorkerFailed as exc:
        say(f"perfbench: {exc}")
        return 1
    setups.append(raw["setup_s"])

    if args.trace:
        metrics = raw["metrics"]
    else:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "iter_us": (raw["iter_us"], "us"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
            "final_gap": (raw["final_gap"], "value"),
            "pass_frac": (1.0 - raw["failed"] / raw["attempted"], "fraction"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        say("perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(emitted))}, "
            f"extra {sorted(set(emitted) - set(declared))}, or units differ")
        return 2

    env = raw["env"]
    say(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    say(f"env: git={git_describe()} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} blas_threads={env['blas_threads']} (pinned {BLAS_THREADS}) "
        f"nproc={env['nproc']} workload_seed={args.seed}")
    fail_frac = raw["failed"] / raw["attempted"]
    say(f"units={raw['units']} cells={raw['attempted']} failed={raw['failed']} "
        f"fail_frac={fail_frac:g}")
    say("iter_us of each measured unit: "
        + " ".join(f"{x:.6g}" for x in raw["unit_iter_us"]))
    for message in raw["failures"]:
        say(f"  FAILED {message}")
    if args.trace:
        say(f"traced units={raw['traced_units']}; spans in {raw['spans_path']}")
        say(f"tracing overhead: {metrics['trace.overhead_us']['value']:+.2f} us/iter "
            f"(traced {metrics['trace.iter_us']['value']:.2f}, "
            f"untraced {metrics['trace.untraced_iter_us']['value']:.2f})")
        say("absent functions: " + (", ".join(raw["absent"]) or "none"))
        say("busy share of traced unit time:")
        for share, name in raw["shares"][:8]:
            say(f"  {100 * share:6.2f}%  {name}")
        say("per-layer metrics (per round of the workload unless named otherwise):")
    else:
        say(f"  setup_s is the median of {len(setups)} set-ups: "
            + " ".join(f"{x:.4f}" for x in setups))
    for name, m in metrics.items():
        say(f"  {name:50s} {m['value']:.6g} {m['unit']}")

    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
