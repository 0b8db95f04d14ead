"""Run one workload in this process and print its raw result as one JSON line.

Started by run.py in a fresh process, with the BLAS thread count pinned in
its environment, so peak memory belongs to this workload alone.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

Modes:
  setup  import, build the inputs, report set-up time and exit;
  e2e    set up, time units for S seconds, check every cell;
  trace  set up under the tracer, time S/2 seconds untraced and S/2 seconds
         traced, check every cell, report per-layer numbers.
"""

import argparse
import ctypes
import inspect
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import tracer as tracer_module

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# Per-function metrics the traced run reports for every workload.
TIMED_FUNCTIONS = tracer_module.target_names("step", "checkpoint")
BYTES_FUNCTIONS = [t.name for t in tracer_module.TARGETS if t.nbytes is not None]
SETUP_FUNCTIONS = tracer_module.target_names("setup")
SAMPLER_FUNCTIONS = ("sampling.sample_categorical", "sampling.sample_transition")


class Done:
    """A unit run: its wall time, the cells it ran and its engine counts.

    wall and counts are None for a unit that raised.
    """

    def __init__(self, unit, wall, cells, counts):
        self.unit = unit
        self.wall = wall
        self.cells = cells
        self.counts = counts


def blas_info(np):
    """BLAS vendor, version and the thread count it reports in this process."""
    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def timed_phase(workload, setup, seconds, min_units, first, captured, tracer=None):
    """Run units until the next would pass `seconds`.

    Traced counts are reported per round, so a traced phase ends only after
    a whole round. An untraced phase may end after any unit, because iter_us
    takes a median per configuration. Only workload.run_unit is timed; the
    per-cell records for the checks are built between units, and the solver
    outputs are dropped before the next unit so that they do not add to peak
    memory. A unit that raises counts its cells as failed and is left out of
    the timing.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    csv_path = os.path.join(WORK_DIR, f"trace-{os.getpid()}.csv")
    done = []
    size = workload.round_size if tracer else 1
    start = time.perf_counter()
    try:
        while True:
            unit = setup.units[(first + len(done)) % len(setup.units)]
            span = tracer.open_span(workload.name) if tracer else None
            try:
                t0 = time.perf_counter()
                workload.run_unit(setup, unit, csv_path)
                wall = time.perf_counter() - t0
                if tracer:
                    tracer.close_span(span)
                    span = None
                samples = sum(out.ledger.transition_samples for _, out in captured)
                counts = {
                    "transition_samples": samples,
                    "engine_steps": samples // 2,
                    "checkpoints": sum(len(out.trace) for _, out in captured),
                }
                cells = workload.cells(setup, unit, captured, csv_path)
            except Exception as exc:  # reported as failed cells, never a crash
                error = "".join(traceback.format_exception_only(exc)).strip()
                wall = counts = None
                cells = workload.failed_cells(unit, f"unit raised {error}")
            finally:
                del captured[:]
                if span is not None:
                    tracer.close_span(span)
            done.append(Done(unit, wall, cells, counts))
            if len(done) % size or len(done) < min_units:
                continue
            timed = [d.wall for d in done if d.wall is not None]
            next_step = size * statistics.median(timed) if timed else 0.0
            if time.perf_counter() - start + next_step > seconds:
                return done
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)


def iter_us(workload, done):
    """Sum over configurations of the median unit time, over nominal steps."""
    walls = {}
    for d in done:
        walls.setdefault(d.unit.label, []).append(d.wall)
    units = {d.unit.label: d.unit for d in done}
    nominal = sum(workload.nominal_steps(units[label]) for label in walls)
    return sum(statistics.median(w) for w in walls.values()) / nominal * 1e6


def check_cells(wl, done, optimal_value):
    """Every check on every cell; returns (attempted, failed, messages)."""
    first_body = {}
    attempted = failed = 0
    messages = []
    for d in done:
        for cell in d.cells:
            errors = wl.check_cell(cell, optimal_value)
            if cell.key in first_body:
                if cell.body != first_body[cell.key]:
                    errors.append("CSV body differs from an earlier run of the same cell")
            else:
                first_body[cell.key] = cell.body
            attempted += 1
            if errors:
                failed += 1
                messages.append(f"cell {cell.key}: {'; '.join(errors)}")
    return attempted, failed, messages


def final_gap(wl, done):
    """Mean final-checkpoint gap of the largest-horizon cells, first run of each."""
    finals = {}
    for d in done:
        for key, row in wl.final_rows(d.cells).items():
            finals.setdefault(key, row)
    largest = max(key[2] for key in finals)
    return statistics.fmean(row[2] for key, row in finals.items() if key[2] == largest)


def per_layer(workload, tracer, setup_stats, import_s, done, untraced_us, traced_us):
    """The per-layer metrics; counts and times are per round of the traced phase."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    n = len(done) / workload.round_size
    stats = tracer.stats
    empty = tracer_module.Stat()
    for name in TIMED_FUNCTIONS:
        s = stats.get(name, empty)
        pct, tail = s.tail()
        put(f"{name}.calls", s.calls / n, "count")
        put(f"{name}.busy_s", s.busy / n, "s")
        put(f"{name}.p50_us", s.percentile_us(50.0), "us")
        put(f"{name}.tail_us", tail, "us")
        put(f"{name}.tail_pct", pct, "%")
    for name in BYTES_FUNCTIONS:
        put(f"{name}.bytes_per_call", stats.get(name, empty).bytes_per_call or 0, "B")
    total = {k: sum(d.counts[k] for d in done) / n for k in done[0].counts}
    put("sampling.transition_samples", total["transition_samples"], "count")
    run = stats.get("optimistic_pd.run", empty)
    put("optimistic_pd.run.calls", run.calls / n, "count")
    put("optimistic_pd.run.busy_s", run.busy / n, "s")
    put("optimistic_pd.run.self_s", (run.busy - run.child) / n, "s")
    put("optimistic_pd.engine_steps", total["engine_steps"], "count")
    put("optimistic_pd.checkpoints", total["checkpoints"], "count")
    execute = stats.get("bench.execute", empty)
    put("bench.execute.busy_s", execute.busy / n, "s")
    put("bench.execute.self_s", (execute.busy - execute.child) / n, "s")
    write_csv = stats.get("bench.write_csv", empty)
    put("bench.write_csv.busy_s", write_csv.busy / n, "s")
    put("bench.write_csv.bytes", write_csv.out_bytes / n, "B")
    useful = sum(workload.useful_steps(d.unit) for d in done) / n
    steps = total["engine_steps"]
    put("bench.useful_step_ratio", useful / steps if steps else 0.0, "ratio")
    put("setup.import_s", import_s, "s")
    for name in SETUP_FUNCTIONS:
        put(f"{name}.busy_s", setup_stats.get(name, empty).busy, "s")
    put("trace.iter_us", traced_us, "us")
    put("trace.untraced_iter_us", untraced_us, "us")
    put("trace.overhead_us", traced_us - untraced_us, "us")
    put("trace.absent_functions", len(tracer.absent), "count")
    return metrics


def busy_shares(tracer, done):
    """(share of traced unit time, name) for each per-step and checkpoint function."""
    wall = sum(d.wall for d in done)
    shares = [(tracer.stats[name].busy / wall, name)
              for name in TIMED_FUNCTIONS if name in tracer.stats]
    sampler = sum(tracer.stats[n].busy for n in SAMPLER_FUNCTIONS if n in tracer.stats)
    shares.append((sampler / wall, "sampler (sample_categorical + sample_transition)"))
    return sorted(shares, reverse=True)


def main():
    parser = argparse.ArgumentParser(description="perfbench worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pdmdp", "__init__.py")):
        print(f"perfbench: no pdmdp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t_import = time.perf_counter()
    import numpy as np

    import pdmdp
    import workloads as wl
    from pdmdp import exact, optimistic_pd

    import_s = time.perf_counter() - t_import
    if not os.path.abspath(pdmdp.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported pdmdp from {pdmdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    # Keep each solver output of a unit, with its seed, for the checks: one
    # extra call per run.
    captured = []
    engine_run = optimistic_pd.run
    engine_signature = inspect.signature(engine_run)

    def keep_output(*a, **kw):
        out = engine_run(*a, **kw)
        captured.append((engine_signature.bind(*a, **kw).arguments.get("seed"), out))
        return out

    tracer_module.patch_everywhere(engine_run, keep_output)

    tracer = tracer_module.Tracer()
    if args.mode == "trace":
        tracer.install()
    setup = workload.setup(args.seed)
    setup_s = time.perf_counter() - t_import
    tracer.uninstall()
    setup_stats = tracer.stats
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "e2e":
        # Every unit once, so final_gap covers every seed, then one round again.
        min_units = len(setup.units) + workload.round_size
        done = timed_phase(workload, setup, args.seconds, min_units, 0, captured)
        measured, traced = done, []
    else:
        plain = timed_phase(workload, setup, args.seconds / 2, workload.round_size, 0, captured)
        tracer.reset()
        tracer.install()
        traced = timed_phase(workload, setup, args.seconds / 2, 1, len(plain), captured, tracer)
        tracer.uninstall()
        done = plain + traced
        measured = plain

    measured = [d for d in measured if d.wall is not None]
    traced = [d for d in traced if d.wall is not None]
    if not measured or (args.mode == "trace" and not traced):
        print("perfbench: every unit raised, nothing was timed", file=sys.stderr)
        for d in done[: workload.round_size]:
            for cell in d.cells:
                print(f"  {cell.key}: {'; '.join(cell.errors)}", file=sys.stderr)
        return 1

    optimal = float(setup.q @ exact.value_iteration(setup.instance).optimal_value)
    attempted, failed, messages = check_cells(wl, done, optimal)
    result.update(
        attempted=attempted,
        failed=failed,
        failures=messages[:20],
        units=len(done),
        iter_us=iter_us(workload, measured),
        unit_iter_us=[d.wall / workload.nominal_steps(d.unit) * 1e6 for d in measured],
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            **blas_info(np),
        },
    )
    if args.mode == "e2e":
        result["final_gap"] = final_gap(wl, done)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        traced_us = iter_us(workload, traced)
        result["metrics"] = per_layer(workload, tracer, setup_stats, import_s, traced,
                                      result["iter_us"], traced_us)
        result["traced_units"] = len(traced)
        result["absent"] = tracer.absent
        result["shares"] = busy_shares(tracer, traced)
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
