#!/usr/bin/env python3
"""Golden outputs: what the program gave when they were last written.

tests/test_golden.py recomputes these outputs and compares them with the
files under tests/golden/:
  - trends.json: bench.execute rows of the three three-state trends configs
    (seeds 0-1, horizons [100, 1600]), without the wall_time column;
  - traces.json: optimistic (with hard-m0's P as the prediction) and SMD
    traces on hard-m0 and hard-mprime at T=2000, and optimistic (with P
    itself as the prediction) and SMD traces at T=300 on a 410-state member
    of the hard family, whose checkpoints take the iterative solve of
    pdmdp.exact; the T=2000 traces hold the averaged iterates at every
    checkpoint, the 410-state ones only step, samples, gap and value;
  - gen_instance.json: the text `pdmdp gen-instance` writes for three-state
    (no prediction, accurate, inaccurate), hard-m0 and hard-mprime (no
    prediction, accurate).
The random preset is left out: it draws with Generator.choice and
Generator.dirichlet, whose streams numpy does not keep across versions.

A change that moves the numerics on purpose regenerates the files with

    python3 scripts/golden.py --write

and states the largest difference it made.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pdmdp import bench, build_prediction, run, run_smd  # noqa: E402
from pdmdp.cli import main as cli_main  # noqa: E402
from pdmdp.instances import HardFamilySpec, hard_family  # noqa: E402
from pdmdp.optimistic_pd import default_checkpoints  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")
TRACE_HORIZON = 2000
SMD_EPSILON = 0.05
# 10 + 2 * 10 * 20 = 410 states: above exact._ITER_MIN_STATES.
LARGE_SPEC = HardFamilySpec(m=10, n=20, discount=0.5, epsilon=0.05)
LARGE_HORIZON = 300


def trends_rows():
    base = {"instance": "three-state", "horizons": [100, 1600], "seeds": [0, 1]}
    docs = [
        dict(base, algorithm="optimistic", prediction="accurate"),
        dict(base, algorithm="optimistic", prediction="inaccurate"),
        dict(base, algorithm="smd", epsilon=SMD_EPSILON),
    ]
    rows = []
    for doc in docs:
        rows += [list(row[:7]) for row in bench.execute(bench.ExperimentConfig.from_dict(doc))]
    return rows


def _trace_rows(result, iterates=True):
    rows = []
    for p in result.trace:
        row = {"step": p.step, "transition_samples": p.transition_samples,
               "gap": p.gap, "value": p.value}
        if iterates:
            row.update(averaged_v=p.averaged_v.tolist(), averaged_mu=p.averaged_mu.tolist())
        rows.append(row)
    return rows


def traces():
    m0 = bench.resolve_instance("hard-m0")[1]
    out = {}
    for preset in ("hard-m0", "hard-mprime"):
        instance, _, _, q = bench.resolve_instance(preset)
        checkpoints = default_checkpoints(TRACE_HORIZON)
        out[f"{preset}/optimistic-m0"] = _trace_rows(
            run(instance, build_prediction(instance, m0), q, TRACE_HORIZON, 0, checkpoints))
        out[f"{preset}/smd"] = _trace_rows(
            run_smd(instance, q, TRACE_HORIZON, SMD_EPSILON, 0, checkpoints))
    instance = hard_family(LARGE_SPEC)
    q = np.full(instance.num_states, 1.0 / instance.num_states)
    out["hard-s410/optimistic-p"] = _trace_rows(
        run(instance, build_prediction(instance, instance.transition), q, LARGE_HORIZON, 0),
        iterates=False)
    out["hard-s410/smd"] = _trace_rows(
        run_smd(instance, q, LARGE_HORIZON, SMD_EPSILON, 0), iterates=False)
    return out


GEN_INSTANCE = [("three-state", None), ("three-state", "accurate"),
                ("three-state", "inaccurate"), ("hard-m0", None), ("hard-m0", "accurate"),
                ("hard-mprime", None), ("hard-mprime", "accurate")]


def gen_instance_texts():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for preset, prediction in GEN_INSTANCE:
            path = os.path.join(tmp, "inst.json")
            argv = ["gen-instance", "--preset", preset, "--out", path]
            argv += [] if prediction is None else ["--prediction", prediction]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(argv) != 0:
                    raise RuntimeError(f"gen-instance failed: {argv}")
            with open(path) as fh:
                out[f"{preset}/{prediction or 'none'}"] = fh.read()
    return out


# Golden file name -> the function that computes its content.
GOLDEN = {"trends.json": trends_rows, "traces.json": traces,
          "gen_instance.json": gen_instance_texts}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="regenerate the files under tests/golden")
    parser.parse_args()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, compute in GOLDEN.items():
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as fh:
            json.dump(compute(), fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.normpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
