import json

import numpy as np
import pytest

from pdmdp import bench
from pdmdp.cli import main
from pdmdp.core import DmdpError, load_instance


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
        assert pred.entries[0].tolist() == [0.0, 1.0, 0.0]

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

    def test_missing_config_exits_3(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_missing_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(cfg)]) == 2


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

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("# schema_version=1\n" + ",".join(bench.CSV_COLUMNS) + "\n")
        assert main(["figures", "--csv", str(empty), "--out", str(tmp_path / "f")]) == 2


class TestConfigValidation:
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
