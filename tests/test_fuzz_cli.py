"""Fuzz the CLI's exit-code contract with mutated input documents.

cli.main runs in-process on mutated config, instance and CSV files for
`run --config` (the config itself, or the instance and prediction files it
names), `solve-exact` and `figures`, and on mutated `gen-instance` argument
lists. Whatever the input, it must exit 0, 2 or 3, print at most one stderr
line (`error: ...` for 2, `i/o error: ...` for 3) and no traceback or
warning, and write nothing but its own output; a field nested deeper than
the JSON parser allows must exit 2. Horizons stay at most 50: the fuzz
judges validation, not runs. Most edits are small and often keep a document
valid (an integer moved by one, a float by at most 1e-13 relative, two list
items swapped, a string replaced by another name the program knows), so
that runs past validation are exercised too.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdmdp import bench
from pdmdp.cli import main
from pdmdp.core import instance_to_dict

# Wrong JSON types, non-finite and signed-zero floats, integers beyond any
# float or int64 a field could take, and unicode and path-like strings.
SCALARS = [None, True, False, 0, 1, -1, 2, 0.5, -0.0, math.nan, math.inf,
           -math.inf, 10**30, -(10**30), "", "1", "0.5", "none", "accurate"]
PATHS = ["../escape", "/", ".", "..", "a/b", "sub/../x", "é", "ラベル", "a b",
         "a,b", "x\ny", "C:\\x", "~", "%s", "\x00"]
HORIZON_SCALARS = [x for x in SCALARS if not (isinstance(x, int) and x > 50)]
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
# Strings the program gives a meaning to, in configs and instance files.
NAMES_KNOWN = ["three-state", "hard-m0", "hard-mprime", "random", "inst.json",
               "pred.json", "accurate", "inaccurate", "none", "optimistic", "smd", "lbl"]
# Stands for a value nested deeper than the JSON parser allows; see to_json.
DEEP = "\ue000deep"
DEEP_TEXT = "[" * 100_000 + "]" * 100_000


def to_json(doc):
    """json.dumps(doc), with each DEEP value written as DEEP_TEXT."""
    return json.dumps(doc).replace(json.dumps(DEEP), DEEP_TEXT)


def values(scalars):
    scalar = st.one_of(st.sampled_from(scalars + PATHS), TEXT)
    return st.one_of(
        scalar,
        st.lists(scalar, max_size=3),
        st.lists(st.lists(st.sampled_from(scalars), max_size=3), max_size=2),
        st.dictionaries(st.sampled_from(["row", "x", ""]), scalar, max_size=2),
    )


BAD = values(SCALARS)
# Horizons are kept at most 50 so that no accepted config runs long.
BAD_HORIZON = st.one_of(values(HORIZON_SCALARS), st.integers(max_value=50),
                        st.lists(st.integers(max_value=50), max_size=3))
FIELD_NAMES = st.one_of(
    st.sampled_from(["q", "epsilon", "label", "out", "prediction", "instance",
                     "horizons", "seeds", "schema_version", "reward", "extra"]),
    TEXT,
)


def slots(node, path=()):
    """The path of every dict value and list element under node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from slots(child, path + (key,))


@st.composite
def nudged(draw, node):
    """node moved a little within its JSON type: an integer by at most one, a
    float by at most 1e-13 relative, a string to a name the program knows."""
    if isinstance(node, bool) or node is None:
        return node
    if isinstance(node, int):
        return node + draw(st.integers(-1, 1))
    if isinstance(node, float):
        return node * (1.0 + draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-13, -1e-13])))
    if isinstance(node, str):
        return draw(st.sampled_from(NAMES_KNOWN))
    return node


# Small edits, which often keep a document valid, come first and three times
# as often as each of the others.
EDITS = ["nudge", "swap"] * 3 + ["replace", "drop", "add", "deep"]


@st.composite
def mutated(draw, doc):
    """doc after one to three edits: a value nudged, swapped with a sibling,
    replaced, dropped, added or nested too deeply."""
    box = {"doc": copy.deepcopy(doc)}
    for _ in range(draw(st.integers(1, 3))):
        paths = list(slots(box))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        parent = box
        for key in path[:-1]:
            parent = parent[key]
        node, bad = parent[path[-1]], BAD_HORIZON if "horizons" in path else BAD
        edit = draw(st.sampled_from(EDITS))
        if edit == "swap" and isinstance(parent, list):
            other = draw(st.integers(0, len(parent) - 1))
            parent[path[-1]], parent[other] = parent[other], parent[path[-1]]
        elif edit in ("nudge", "swap"):
            parent[path[-1]] = draw(nudged(node))
        elif edit == "drop" and len(path) > 1:
            del parent[path[-1]]
        elif edit == "add" and isinstance(node, dict):
            node[draw(FIELD_NAMES)] = draw(bad)
        elif edit == "add" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), draw(bad))
        elif edit == "deep" and len(path) > 1:
            parent[path[-1]] = DEEP
        else:
            parent[path[-1]] = draw(bad)
    return box["doc"]


def instance_docs():
    """Three-state with its inaccurate prediction, sparse and dense; hard-m0."""
    instance, _, inaccurate, _ = bench.resolve_instance("three-state")
    sparse = instance_to_dict(instance, inaccurate)
    dense = dict(sparse, transition=np.asarray(instance.transition).tolist(),
                 prediction=np.asarray(inaccurate).tolist())
    del dense["schema_version"]
    return [sparse, dense, instance_to_dict(bench.resolve_instance("hard-m0")[0])]


INSTANCES = instance_docs()
CONFIGS = [
    {"instance": "three-state", "algorithm": "optimistic", "prediction": "accurate",
     "horizons": [5, 20], "seeds": [0, 1], "label": "acc"},
    {"instance": "inst.json", "algorithm": "optimistic", "prediction": "pred.json",
     "horizons": [10], "seeds": [3], "label": "file", "q": [0.4, 0.4, 0.2]},
    {"instance": "hard-m0", "algorithm": "smd", "prediction": "none",
     "epsilon": 0.1, "horizons": [4, 8], "seeds": [0], "out": "cfg.csv"},
]
CSV_ROWS = [
    [label, str(seed), "4", str(step), str(2 * step), "0.25", "1.5", "0.001"]
    for label in ("optimistic-accurate", "smd") for seed in (0, 1) for step in (2, 4)
]
CSV_CELLS = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-0.0",
                     "1e30", str(10**30), "1.7976931348623157e308", "-1e308", "", "0",
                     "-1", "0.5", "٣"] + PATHS),
    TEXT,
)


@st.composite
def csv_texts(draw):
    """A trace CSV after one to three edits to its cells or lines."""
    lines = [["# schema_version=1"], list(bench.CSV_COLUMNS)]
    lines += [list(row) for row in CSV_ROWS]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["cell", "drop-cell", "add-cell", "drop-line",
                                     "empty-line", "copy-line"]))
        j = draw(st.integers(0, len(lines[i])))
        if edit == "cell" and j < len(lines[i]):
            lines[i][j] = draw(CSV_CELLS)
        elif edit == "drop-cell" and j < len(lines[i]):
            del lines[i][j]
        elif edit == "add-cell":
            lines[i].insert(j, draw(CSV_CELLS))
        elif edit == "drop-line":
            del lines[i]
        elif edit == "empty-line":
            lines.insert(i, [])
        else:
            lines.insert(i, list(lines[i]))
    return "".join(",".join(line) + "\n" for line in lines)


def entries_under(root):
    """Every file (with its bytes) and directory (with None) under root."""
    return {path: path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def check_contract(inputs, argv_of):
    """Write inputs into a fresh directory, run main there and check it.

    argv_of(out) gives the arguments; out is the one path main may write.
    An input nested deeper than the parser allows must make main exit 2.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        work = root / "work"
        work.mkdir()
        for name, text in inputs.items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).write_text(text, encoding="utf-8")
        out = work / "out"
        before = entries_under(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv_of(out))
        finally:
            os.chdir(cwd)
        err = stderr.getvalue()
        assert code in ((2,) if any(DEEP_TEXT in text for text in inputs.values())
                        else (0, 2, 3)), (code, err)
        prefix = {0: "", 2: "error: ", 3: "i/o error: "}[code]
        assert err.startswith(prefix) and err.count("\n") == (code != 0), err
        assert "Traceback" not in err, err
        assert not caught, [str(w.message) for w in caught]
        after = entries_under(root)
        written = {path for path in after if path not in before or before[path] != after[path]}
        assert all(path == out or out in path.parents for path in written), written


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])
VALID_INSTANCE = json.dumps(INSTANCES[0])


@FUZZ
@given(doc=st.sampled_from(CONFIGS).flatmap(mutated))
def test_run_config(doc):
    inputs = {"cfg.json": to_json(doc), "inst.json": VALID_INSTANCE,
              "pred.json": VALID_INSTANCE}
    check_contract(inputs, lambda out: ["run", "--config", "cfg.json", "--out", str(out)])


@st.composite
def named_files(draw):
    """The files CONFIGS[1] names, each in either layout, one or both mutated."""
    docs = [draw(st.sampled_from(INSTANCES[:2])) for _ in range(2)]
    for i in draw(st.sampled_from([[0], [1], [0, 1]])):
        docs[i] = draw(mutated(docs[i]))
    return docs


@FUZZ
@given(docs=named_files())
def test_run_config_named_files(docs):
    inputs = {"cfg.json": json.dumps(CONFIGS[1]), "inst.json": to_json(docs[0]),
              "pred.json": to_json(docs[1])}
    check_contract(inputs, lambda out: ["run", "--config", "cfg.json", "--out", str(out)])


NAMES = st.one_of(
    st.sampled_from(sorted(bench.PRESETS) + ["none", "accurate", "inaccurate"]),
    st.sampled_from([x for x in SCALARS if isinstance(x, str)] + PATHS),
    TEXT,
)
# Where --out points: a new path, an existing file or an existing directory,
# or a file inside whichever of the three that is. The three that can be
# written come first, and twice as often.
WRITABLE = [({}, ""), ({"out": "kept"}, ""), ({"out/kept": "kept"}, "inst.json")]
OUTS = st.sampled_from(WRITABLE * 2 + [({}, "inst.json"), ({"out": "kept"}, "inst.json"),
                                       ({"out/kept": "kept"}, "")])


def mostly(known, other):
    """known three times in four, other otherwise."""
    return st.sampled_from([known] * 3 + [other]).flatmap(lambda strategy: strategy)


@FUZZ
@given(preset=mostly(st.sampled_from(sorted(bench.PRESETS)), NAMES),
       prediction=mostly(st.sampled_from([None, "accurate", "inaccurate"]), NAMES),
       outs=OUTS)
def test_gen_instance(preset, prediction, outs):
    inputs, leaf = outs

    def argv(out):
        args = ["gen-instance", "--preset", preset, "--out", str(out / leaf)]
        return args + ([] if prediction is None else ["--prediction", prediction])

    check_contract(inputs, argv)


@FUZZ
@given(doc=st.sampled_from(INSTANCES).flatmap(mutated))
def test_solve_exact(doc):
    check_contract({"inst.json": to_json(doc)}, lambda out: ["solve-exact", "inst.json"])


@FUZZ
@given(text=csv_texts())
def test_figures(text):
    check_contract({"trace.csv": text},
                   lambda out: ["figures", "--csv", "trace.csv", "--out", str(out)])
