"""The program's outputs against the golden files under tests/golden.

Steps, sample counts and gen-instance text must match exactly; gaps, values
and averaged iterates within 1e-12 * max(1, |x|), because BLAS products and
SIMD exp may differ in the last bit between machines. Each check names the
first row that differs. scripts/golden.py computes the outputs and, with
--write, regenerates the files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RTOL = 1e-12


def load(name):
    return json.loads((ROOT / "tests" / "golden" / name).read_text())


def close(got, want):
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def first_difference(got, want, exact, approx):
    """Where got's rows first differ from want's, or None.

    A row is a list (fields by position) or a dict (fields by name); exact
    and approx name the fields compared exactly and to RTOL, where a field
    may hold a list of numbers.
    """
    if len(got) != len(want):
        return f"{len(got)} rows, golden has {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        for key in exact:
            if a[key] != b[key]:
                return f"row {i}, field {key!r}: {a[key]!r} != golden {b[key]!r}"
        for key in approx:
            x, y = (a[key], b[key]) if isinstance(b[key], list) else ([a[key]], [b[key]])
            if len(x) != len(y) or not all(map(close, x, y)):
                return f"row {i}, field {key!r}: {a[key]!r} != golden {b[key]!r}"
    return None


def test_trends_rows():
    # (label, seed, horizon, step, transition_samples, gap, value)
    got, want = golden.trends_rows(), load("trends.json")
    diff = first_difference(got, want, exact=range(5), approx=(5, 6))
    assert diff is None, diff


@pytest.fixture(scope="module")
def traces():
    return golden.traces()


@pytest.fixture(scope="module")
def gen_instance_texts():
    return golden.gen_instance_texts()


@pytest.mark.parametrize("name", sorted(load("traces.json")))
def test_trace(traces, name):
    got, want = traces[name], load("traces.json")[name]
    exact = ("step", "transition_samples")
    # The 410-state traces leave out the averaged iterates.
    approx = [k for k in ("gap", "value", "averaged_v", "averaged_mu") if k in want[0]]
    diff = first_difference(got, want, exact, approx)
    assert diff is None, f"{name}: {diff}"


@pytest.mark.parametrize("name", sorted(load("gen_instance.json")))
def test_gen_instance_text(gen_instance_texts, name):
    got, want = gen_instance_texts[name], load("gen_instance.json")[name]
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    assert got == want, f"{name}: first difference at character {at}: {got[at:][:60]!r}"
