import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdmdp import bench, exact
from pdmdp.cli import main
from pdmdp.core import DmdpError, load_instance, save_instance


def strip_wall_time(path):
    """CSV body minus comments and the wall_time column."""
    lines = []
    for line in open(path):
        if line.startswith("#"):
            continue
        lines.append(",".join(line.rstrip("\n").split(",")[:-1]))
    return lines


def write_config(path, **overrides):
    doc = {
        "instance": "three-state",
        "algorithm": "optimistic",
        "prediction": "accurate",
        "horizons": [20, 50],
        "seeds": [0, 1],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestSolveExact:
    def test_three_state_preset(self, capsys):
        assert main(["solve-exact", "three-state"]) == 0
        out = capsys.readouterr().out
        assert "optimal actions: leave leave right" in out
        assert "1.3 1.3 1.8" in out

    def test_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        assert main(["gen-instance", "--preset", "three-state", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve-exact", str(path)]) == 0
        assert "optimal actions: 1 1 1" in capsys.readouterr().out

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["solve-exact", "no-such-preset.json"]) == 3
        assert main(["solve-exact", "hard-m0"]) == 0

    def test_nan_tolerance_exits_2(self, monkeypatch, capsys):
        # The lowered sweep cap turns a missing check into a fast traceback;
        # an infinite tolerance stops after one sweep with wrong values.
        monkeypatch.setattr(exact, "_MAX_SWEEPS", 10)
        for tolerance in ("nan", "inf"):
            assert main(["solve-exact", "three-state", "--tolerance", tolerance]) == 2
            assert "tolerance" in capsys.readouterr().err


def gen_instance(path, preset="three-state", prediction="accurate"):
    """Write a preset with gen-instance; returns the parsed document."""
    args = ["gen-instance", "--preset", preset, "--out", str(path)]
    assert main(args + (["--prediction", prediction] if prediction else [])) == 0
    return json.loads(path.read_text())


def dense_layout(doc):
    """The document in the dense layout: no schema_version, P and E as lists of rows."""
    doc = {key: value for key, value in doc.items() if key != "schema_version"}
    shape = (sum(doc["actions_per_state"]), doc["num_states"])
    for key in ("transition", "prediction"):
        if doc.get(key) is not None:
            dense = np.zeros(shape)
            dense[doc[key]["row"], doc[key]["next_state"]] = doc[key]["value"]
            doc[key] = dense.tolist()
    return doc


def exits_2_with_one_line(argv, capsys, prefix="error: "):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


class TestInstanceFileTypes:
    """Every field of an instance file must have its JSON type; no coercion."""

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("num_states", None, 3.0),
            ("actions_per_state", None, [2.5, 2, 2]),
            ("discount", None, "0.5"),
            ("transition", (0, 0), "1.0"),
            ("reward", None, [True, False] * 3),
            ("prediction", (1, 2), "0.6"),
        ],
    )
    def test_wrong_type_exits_2(self, tmp_path, capsys, field, index, value):
        path = tmp_path / "inst.json"
        args = ["gen-instance", "--preset", "three-state", "--out", str(path)]
        assert main(args + ["--prediction", "accurate"]) == 0
        doc = dense_layout(json.loads(path.read_text()))
        if index is None:
            doc[field] = value
        else:
            doc[field][index[0]][index[1]] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["solve-exact", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: instance field {field!r}") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["transition", "prediction"])
    def test_ragged_rows_exit_2(self, tmp_path, capsys, field):
        path = tmp_path / "inst.json"
        doc = dense_layout(gen_instance(path))
        doc[field][1] = doc[field][1][:2]
        path.write_text(json.dumps(doc))
        exits_2_with_one_line(["solve-exact", str(path)], capsys, f"error: {field}: ")

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("num_states", None, 3.0),
            ("actions_per_state", None, [2.5, 2, 2]),
            ("discount", None, "0.5"),
            ("transition", ("value", 0), "1.0"),
            ("reward", None, [True, False] * 3),
            ("prediction", ("value", 5), "0.6"),
            ("transition", ("row", 0), 0.0),
            ("transition", ("next_state", 1), True),
            ("prediction", ("row", None), "0"),
            ("transition", None, [[1.0, 0.0, 0.0]] * 6),
            ("transition", ("extra", None), []),
            ("prediction", None, {"row": [0], "value": [1.0]}),
        ],
    )
    def test_wrong_type_exits_2_sparse_layout(self, tmp_path, capsys, field, index, value):
        path = tmp_path / "inst.json"
        doc = gen_instance(path)
        if index is None:
            doc[field] = value
        elif index[1] is None:
            doc[field][index[0]] = value
        else:
            doc[field][index[0]][index[1]] = value
        path.write_text(json.dumps(doc))
        prefix = f"error: instance field {field!r}"
        exits_2_with_one_line(["solve-exact", str(path)], capsys, prefix)


class TestSparseLayout:
    """Instance files hold P and E as (row, next state, value) lists."""

    def test_dense_and_sparse_files_load_alike(self, tmp_path):
        sparse = tmp_path / "sparse.json"
        doc = gen_instance(sparse, prediction="inaccurate")
        assert doc["schema_version"] == 2
        dense = tmp_path / "dense.json"
        dense.write_text(json.dumps(dense_layout(doc)))
        (a, pa), (b, pb) = load_instance(sparse), load_instance(dense)
        for x, y in ((a.transition, b.transition), (pa, pb)):
            assert all(getattr(x, f).tobytes() == getattr(y, f).tobytes()
                       for f in ("starts", "cols", "vals"))
        assert a.reward.tobytes() == b.reward.tobytes() and a.discount == b.discount

    @pytest.mark.parametrize(
        "preset, prediction",
        [("three-state", "accurate"), ("three-state", "inaccurate"),
         ("hard-m0", None), ("hard-mprime", None)],
    )
    def test_gen_instance_round_trips_bitwise(self, tmp_path, preset, prediction):
        path, again = tmp_path / "a.json", tmp_path / "b.json"
        gen_instance(path, preset, prediction)
        inst, pred = load_instance(path)
        want, accurate, inaccurate, _ = bench.resolve_instance(preset)
        want_pred = {"accurate": accurate, "inaccurate": inaccurate}.get(prediction)
        pairs = [(inst.transition, want.transition)]
        if prediction:
            pairs.append((pred, want_pred))
        else:
            assert pred is None
        for x, y in pairs:
            assert all(getattr(x, f).tobytes() == getattr(y, f).tobytes()
                       for f in ("starts", "cols", "vals"))
        assert inst.reward.tobytes() == want.reward.tobytes()
        save_instance(again, inst, pred)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "case",
        [
            "row-longer", "next-state-shorter", "value-longer",
            "row-out-of-range", "row-negative", "next-state-out-of-range",
            "rows-unsorted", "next-states-unsorted", "duplicate-entry", "missing-row",
            "prediction-duplicate",
            "schema-3", "schema-0", "schema-string", "schema-true", "schema-null",
        ],
    )
    def test_malformed_exits_2(self, tmp_path, capsys, case):
        path = tmp_path / "inst.json"
        doc = gen_instance(path)
        edits = {
            "row-longer": lambda r, c, v: r.append(5),
            "next-state-shorter": lambda r, c, v: c.pop(),
            "value-longer": lambda r, c, v: v.append(0.0),
            "row-out-of-range": lambda r, c, v: r.__setitem__(-1, 6),
            "row-negative": lambda r, c, v: r.__setitem__(0, -1),
            "next-state-out-of-range": lambda r, c, v: c.__setitem__(0, 3),
            # The first two entries' rows swapped: row 1 listed before row 0.
            "rows-unsorted": lambda r, c, v: r.__setitem__(slice(0, 2), [1, 0]),
            # Row 1 is (0.4 at state 0, 0.6 at state 2): states reversed.
            "next-states-unsorted": lambda r, c, v: c.__setitem__(slice(1, 3), [2, 0]),
            "duplicate-entry": lambda r, c, v: c.__setitem__(2, 0),
            # Row 0's only entry credited to row 1, which then holds state 0 twice.
            "missing-row": lambda r, c, v: r.__setitem__(0, 1),
        }
        lists = lambda key: (doc[key][k] for k in ("row", "next_state", "value"))  # noqa: E731
        if case in edits:
            edits[case](*lists("transition"))
        elif case == "prediction-duplicate":
            edits["duplicate-entry"](*lists("prediction"))
        else:
            doc["schema_version"] = {"schema-3": 3, "schema-0": 0, "schema-string": "2",
                                     "schema-true": True, "schema-null": None}[case]
        path.write_text(json.dumps(doc))
        exits_2_with_one_line(["solve-exact", str(path)], capsys)


class TestHugeIntegers:
    """A JSON integer too large for a float is a one-line validation error."""

    @pytest.mark.parametrize("layout", ["sparse", "dense"])
    @pytest.mark.parametrize("field", ["reward", "transition", "discount"])
    def test_instance_field_exits_2(self, tmp_path, capsys, layout, field):
        path = tmp_path / "inst.json"
        doc = gen_instance(path, prediction=None)
        if layout == "dense":
            doc = dense_layout(doc)
        big = 10**400
        if field == "discount":
            doc["discount"] = big
        elif field == "reward":
            doc["reward"][0] = big
        elif layout == "dense":
            doc["transition"][0][0] = big
        else:
            doc["transition"]["value"][0] = big
        path.write_text(json.dumps(doc))
        exits_2_with_one_line(["solve-exact", str(path)], capsys, f"error: {field}: ")

    @pytest.mark.parametrize("key", ["row", "next_state"])
    def test_sparse_index_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "inst.json"
        doc = gen_instance(path, prediction=None)
        doc["transition"][key][0] = 10**30
        path.write_text(json.dumps(doc))
        exits_2_with_one_line(["solve-exact", str(path)], capsys, "error: transition: ")

    @pytest.mark.parametrize("layout", ["sparse", "dense"])
    def test_action_count_exits_2_before_allocating(self, tmp_path, capsys, layout):
        # 10**12 pairs: any array sized from the declared shape would not fit.
        path = tmp_path / "inst.json"
        doc = dict(num_states=1, actions_per_state=[10**12], reward=[1.0], discount=0.5,
                   transition=[[1.0]])
        if layout == "sparse":
            doc.update(schema_version=2, transition=dict(row=[0], next_state=[0], value=[1.0]))
        path.write_text(json.dumps(doc))
        exits_2_with_one_line(["solve-exact", str(path)], capsys, "error: transition")

    def test_config_q_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", q=[10**400, 0, 0])
        out = tmp_path / "x.csv"
        argv = ["run", "--config", str(cfg), "--out", str(out)]
        exits_2_with_one_line(argv, capsys, "error: q: ")
        assert not out.exists()


class TestGenInstance:
    def test_round_trip_with_prediction(self, tmp_path):
        path = tmp_path / "ex.json"
        rc = main(
            [
                "gen-instance",
                "--preset",
                "three-state",
                "--out",
                str(path),
                "--prediction",
                "inaccurate",
            ]
        )
        assert rc == 0
        inst, pred = load_instance(path)
        assert inst.num_pairs == 6
        assert np.asarray(pred)[0].tolist() == [0.0, 1.0, 0.0]

    def test_preset_without_inaccurate_prediction(self, tmp_path, capsys):
        rc = main(
            [
                "gen-instance",
                "--preset",
                "hard-m0",
                "--out",
                str(tmp_path / "h.json"),
                "--prediction",
                "inaccurate",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("preset", sorted(bench.PRESETS))
    def test_accurate_prediction_is_p(self, tmp_path, preset):
        doc = gen_instance(tmp_path / "inst.json", preset, "accurate")
        P = bench.resolve_instance(preset)[0].transition
        want = {"row": P.rows.tolist(), "next_state": P.cols.tolist(),
                "value": P.vals.tolist()}
        # Floats survive JSON by repr, so equal lists are bitwise equal values.
        assert doc["transition"] == want
        assert doc.get("prediction") == want

    @pytest.mark.parametrize(
        "args, prefix",
        [
            (["--prediction", "exact"], "pdmdp gen-instance: argument --prediction: invalid"),
            (["--prediction"], "pdmdp gen-instance: argument --prediction: expected one"),
            (["x\ny"], "pdmdp: unrecognized arguments: x\\ny"),
        ],
    )
    def test_usage_error_exits_2(self, tmp_path, capsys, args, prefix):
        out = tmp_path / "inst.json"
        argv = ["gen-instance", "--preset", "three-state", "--out", str(out)] + args
        exits_2_with_one_line(argv, capsys, f"error: {prefix}")
        assert not out.exists()

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["gen-instance", "--preset", "nope", "--out", str(out)]
        prefix = "error: pdmdp gen-instance: argument --preset: invalid choice: 'nope'"
        exits_2_with_one_line(argv, capsys, prefix)
        assert not out.exists()

    def test_missing_option_exits_2(self, capsys):
        prefix = "error: pdmdp gen-instance: the following arguments are required: --out"
        exits_2_with_one_line(["gen-instance", "--preset", "three-state"], capsys, prefix)

    @pytest.mark.parametrize("preset", ["hard-m0", "hard-mprime", "random"])
    def test_missing_inaccurate_prediction_exits_2(self, tmp_path, capsys, preset):
        assert bench.resolve_instance(preset)[2] is None
        out = tmp_path / "inst.json"
        argv = ["gen-instance", "--preset", preset, "--out", str(out)]
        exits_2_with_one_line(argv + ["--prediction", "inaccurate"], capsys)
        assert not out.exists()


class TestRunCommand:
    def test_csv_determinism_across_threads(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b), "--threads", "8"]) == 0
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_smd_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            algorithm="smd",
            prediction="none",
            epsilon=0.05,
            horizons=[10],
            seeds=[0],
        )
        out = tmp_path / "smd.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = bench.read_csv(out)
        assert all(row[0] == "smd" for row in rows)
        assert rows[-1][3] == 10 and rows[-1][4] == 20

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        cfg = write_config(tmp_path / "cfg.json", algorithm="bogus")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_wrong_json_types_exit_2(self, tmp_path, capsys):
        for overrides in ({"seeds": None}, {"horizons": "abc"}, {"seeds": [[0]]}):
            cfg = write_config(tmp_path / "cfg.json", **overrides)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
            assert "error:" in capsys.readouterr().err

    def test_default_label_from_prediction_path_exits_2(self, tmp_path, capsys):
        # Without a label the series is named optimistic-<prediction path>,
        # which would carry the path's "/" into the CSV and the file names.
        pred = tmp_path / "preds" / "e.json"
        pred.parent.mkdir()
        gen = ["gen-instance", "--preset", "three-state", "--out", str(pred)]
        assert main(gen + ["--prediction", "inaccurate"]) == 0
        capsys.readouterr()
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path / "cfg.json", prediction=str(pred))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: default label (set 'label')") and not out.exists()
        cfg = write_config(tmp_path / "cfg.json", prediction=str(pred), label="from-file")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert {row[0] for row in bench.read_csv(out)} == {"from-file"}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"algorithm": "smd", "prediction": "none", "epsilon": "0.05"},
            {"algorithm": "smd", "prediction": "none", "epsilon": True},
            {"seeds": "12"},
            {"seeds": [True]},
            {"seeds": [0, -1]},
            {"horizons": "58"},
            {"horizons": [10.9]},
            {"q": "uniform"},
            {"q": [0.5, "0.25", 0.25]},
            {"instance": 3},
            {"prediction": None},
            {"label": ["a"]},
            {"out": 1},
            {"out": True},
            {"label": "../escaped"},
            {"label": "a,b"},
        ],
    )
    def test_json_field_types_exit_2(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        field = list(overrides)[-1]
        assert err.startswith(f"error: config field {field!r}") and err.count("\n") == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        cfg, out = write_config(tmp_path / "cfg.json"), tmp_path / "x.csv"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--threads", threads]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: threads must be at least 1, got {threads}\n"
        assert not out.exists()

    def test_missing_config_exits_3(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_missing_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(cfg)]) == 2


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is a validation error."""

    @pytest.mark.parametrize("where", ["config", "instance", "prediction", "solve-exact"])
    def test_exits_2(self, tmp_path, capsys, where):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = ["--out", str(tmp_path / "x.csv")]
        if where == "config":
            argv = ["run", "--config", str(deep)] + out
        elif where == "solve-exact":
            argv = ["solve-exact", str(deep)]
        else:
            cfg = write_config(tmp_path / "cfg.json", label="deep", **{where: str(deep)})
            argv = ["run", "--config", str(cfg)] + out
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestReproduceTrendsScript:
    """Invalid arguments stop the script before it creates --out."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_trends.py"

    def invoke(self, out, *args):
        argv = [sys.executable, str(self.SCRIPT), "--out", str(out), *args]
        return subprocess.run(argv, capture_output=True, text=True, timeout=60)

    def test_no_seeds_exits_2(self, tmp_path):
        out = tmp_path / "results"
        proc = self.invoke(out, "--seeds", "0")
        assert proc.returncode == 2
        assert proc.stderr == "error: seeds must be non-empty and distinct\n"
        assert not out.exists()

    def test_out_naming_a_file_exits_3(self, tmp_path):
        out = tmp_path / "results"
        out.write_text("kept")
        proc = self.invoke(out, "--seeds", "1")
        assert proc.returncode == 3
        assert proc.stderr.startswith("i/o error: ") and proc.stderr.count("\n") == 1
        assert out.read_text() == "kept"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--seeds", "abc"], "argument --seeds: invalid int value: 'abc'"),
            (["--seeds"], "argument --seeds: expected one argument"),
            (["--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_error_exits_2(self, tmp_path, args, message):
        # The CLI's parser and handler: one line, no usage line before it.
        out = tmp_path / "results"
        proc = self.invoke(out, *args)
        assert proc.returncode == 2
        assert proc.stderr == f"error: reproduce_trends.py: {message}\n"
        assert not out.exists()

    def test_threads_option_gone(self, tmp_path):
        out = tmp_path / "results"
        proc = self.invoke(out, "--seeds", "1", "--threads", "0")
        assert proc.returncode == 2
        assert "unrecognized arguments: --threads 0" in proc.stderr
        assert not out.exists()


class TestFiguresCommand:
    def test_aggregation_on_fixture_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", horizons=[4], seeds=[0, 1])
        csv = tmp_path / "trace.csv"
        rows = [
            ("optimistic-accurate", 0, 4, 2, 4, 0.5, 1.0, 0.1),
            ("optimistic-accurate", 0, 4, 4, 8, 0.4, 1.1, 0.2),
            ("optimistic-accurate", 1, 4, 4, 8, 0.2, 1.3, 0.2),
        ]
        bench.write_csv(csv, bench.load_config(cfg), rows)
        out_dir = tmp_path / "figs"
        assert main(["figures", "--csv", str(csv), "--out", str(out_dir)]) == 0
        gap = (out_dir / "optimistic-accurate_gap.dat").read_text().split()
        # Only final checkpoints (step == horizon) enter the series.
        assert gap[0] == "4"
        assert float(gap[1]) == pytest.approx(0.3)
        assert float(gap[2]) == pytest.approx(np.std([0.4, 0.2], ddof=1) / np.sqrt(2))
        value = (out_dir / "optimistic-accurate_value.dat").read_text().split()
        assert float(value[1]) == pytest.approx(1.2)

    def test_label_escaping_out_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "trace.csv"
        csv.write_text(
            ",".join(bench.CSV_COLUMNS) + "\n../x,0,4,4,8,0.5,1.0,0.1\n"
        )
        out_dir = tmp_path / "figs" / "sub"
        assert main(["figures", "--csv", str(csv), "--out", str(out_dir)]) == 2
        assert "series label" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["trace.csv"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("column", [5, 6, 7])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, column, cell):
        row = ["smd", "0", "4", "4", "8", "0.5", "1.0", "0.1"]
        row[column] = cell
        csv = tmp_path / "trace.csv"
        csv.write_text(",".join(bench.CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
        out_dir = tmp_path / "figs"
        argv = ["figures", "--csv", str(csv), "--out", str(out_dir)]
        exits_2_with_one_line(argv, capsys, "error: non-finite number in CSV row")
        assert not out_dir.exists()

    def test_overflowing_series_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "trace.csv"
        rows = [f"smd,{seed},4,4,8,0.5,1.7976931348623157e308,0.1\n" for seed in (0, 1)]
        csv.write_text(",".join(bench.CSV_COLUMNS) + "\n" + "".join(rows))
        out_dir = tmp_path / "figs"
        argv = ["figures", "--csv", str(csv), "--out", str(out_dir)]
        exits_2_with_one_line(argv, capsys, "error: series 'smd' overflows at horizon 4")
        assert not out_dir.exists()

    def test_series_labelled_like_the_header_round_trips(self, tmp_path, capsys):
        # Only the first non-comment line is the header, whatever a row's label.
        cfg = write_config(tmp_path / "cfg.json", label="algorithm", horizons=[20])
        csv, out_dir = tmp_path / "trace.csv", tmp_path / "figs"
        assert main(["run", "--config", str(cfg), "--out", str(csv)]) == 0
        assert main(["figures", "--csv", str(csv), "--out", str(out_dir)]) == 0
        gap = (out_dir / "algorithm_gap.dat").read_text().split()
        assert gap[0] == "20"

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("# schema_version=1\n" + ",".join(bench.CSV_COLUMNS) + "\n")
        assert main(["figures", "--csv", str(empty), "--out", str(tmp_path / "f")]) == 2


class TestConfigValidation:
    def test_json_numbers_accepted(self):
        doc = {
            "instance": "three-state",
            "algorithm": "smd",
            "horizons": [10, 20],
            "seeds": [0],
            "q": [0, 0.5, 0.5],
            "epsilon": 1,
            "label": None,
        }
        cfg = bench.ExperimentConfig.from_dict(doc)
        assert (cfg.horizons, cfg.q, cfg.epsilon) == ([10, 20], [0, 0.5, 0.5], 1)

    def test_optimistic_needs_prediction(self):
        with pytest.raises(DmdpError):
            bench.ExperimentConfig.from_dict(
                {
                    "instance": "three-state",
                    "algorithm": "optimistic",
                    "horizons": [10],
                    "seeds": [0],
                }
            )

    def test_horizons_strictly_increasing(self):
        with pytest.raises(DmdpError):
            bench.ExperimentConfig.from_dict(
                {
                    "instance": "three-state",
                    "algorithm": "smd",
                    "epsilon": 0.05,
                    "horizons": [10, 10],
                    "seeds": [0],
                }
            )

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(DmdpError):
            bench.ExperimentConfig.from_dict(
                {
                    "instance": "three-state",
                    "algorithm": "smd",
                    "epsilon": 0.05,
                    "horizons": [10],
                    "seeds": [0, 0],
                }
            )

    def test_smd_rejects_prediction(self):
        with pytest.raises(DmdpError):
            bench.ExperimentConfig.from_dict(
                {
                    "instance": "three-state",
                    "algorithm": "smd",
                    "prediction": "accurate",
                    "epsilon": 0.05,
                    "horizons": [10],
                    "seeds": [0],
                }
            )

    def test_config_hash_stable(self):
        doc = {
            "instance": "three-state",
            "algorithm": "smd",
            "epsilon": 0.05,
            "horizons": [10],
            "seeds": [0],
        }
        a = bench.ExperimentConfig.from_dict(doc)
        b = bench.ExperimentConfig.from_dict(dict(reversed(list(doc.items()))))
        assert a.config_hash() == b.config_hash()
