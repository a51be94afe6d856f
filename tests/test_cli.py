"""End-to-end command-line runs, config validation and report comparison.

Everything goes through cackit.cli.main(argv) in-process with tiny synthetic
datasets so the whole file stays fast.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from cackit.cli import main
from cackit.config import validate_config
from cackit.errors import ConfigInvalid, SchemaMismatch
from cackit.experiments import compare_reports


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "dataset": {"synthetic": {"n_samples": 240, "n_features": 4,
                                  "n_clusters": 2, "ics": 1.0, "ocs": 2.0,
                                  "seed": 0}},
        "model": {"k": 2, "alpha": 0.5,
                  "classifier": {"epochs": 100}},
        "seeds": [0],
    }
    for key, value in overrides.items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSynth:
    def test_writes_dataset_with_requested_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           **{"dataset.synthetic.n_samples": 50})
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "dataset.csv")
        assert len(rows) == 50
        assert header[-1] == "y"
        assert (out / "manifest.json").exists()


class TestSweep:
    def test_ics_grid_times_seeds_row_count(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            **{"sweep.axes": {"ics": [0.0, 0.2, 0.5, 1.0, 1.5, 2.0]},
               "sweep.task": "fit-cac",
               "seeds": [0, 1, 2, 3, 4]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 30
        assert header[0] == "ics" and header[1] == "seed"
        assert "auc" in header and "f1" in header
        ics_values = sorted({r[0] for r in rows})
        assert len(ics_values) == 6
        report = out / "runs" / "ics-0.5" / "2" / "report.json"
        assert report.exists()
        assert json.loads(report.read_text())["seed"] == 2

    def test_two_axis_grid(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           **{"sweep.axes": {"k": [2, 3], "alpha": [0.05, 0.5]},
                              "seeds": [0, 1]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 8
        assert set(header[:2]) == {"k", "alpha"}
        assert header[2] == "seed"

    def test_run_cap_enforced(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           **{"sweep.axes": {"alpha": [0.1, 0.2, 0.3]},
                              "sweep.max_runs": 2})
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


class TestConfigValidation:
    def test_unknown_key_is_exit_code_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        raw = yaml.safe_load(cfg.read_text())
        raw["modle"] = {"k": 3}
        cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["fit-cac", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            validate_config({"model": {"alhpa": 0.5}})

    def test_missing_config_file(self, tmp_path):
        assert main(["fit-cac", "--config", str(tmp_path / "absent.yaml")]) == 2

    def test_bad_override_and_bad_seed_list(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["fit-cac", "--config", str(cfg), "--set", "noequalsign"]) == 2
        assert main(["fit-cac", "--config", str(cfg), "--seed", "a,b"]) == 2

    def test_empty_seed_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", seeds=[])
        assert main(["fit-cac", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_runtime_failure_is_exit_code_three(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **{"model.k": 500})
        assert main(["fit-cac", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3

    def test_diverging_deepcac_is_exit_code_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["fit-deepcac", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--set", "model.deepcac.lr=5.0"])
        assert code == 3
        assert "pretrain loss is non-finite at epoch" in capsys.readouterr().err


class TestFitAndBaselines:
    def test_fit_cac_writes_report_and_model(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        assert main(["fit-cac", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "runs" / "default" / "0" / "report.json").read_text())
        assert report["method"] == "cac+logreg"
        assert 0.0 <= report["metrics"]["auc"] <= 1.0
        assert (out / "models" / "model_s0.json").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        assert main(["fit-cac", "--config", str(cfg), "--out", str(out),
                     "--seed", "3,4"]) == 0
        assert (out / "runs" / "default" / "3" / "report.json").exists()
        assert (out / "runs" / "default" / "4" / "report.json").exists()

    def test_auto_alpha_reports_the_fit_at_the_selected_alpha(self, tmp_path):
        auto = write_config(tmp_path / "auto.yaml", **{"model.alpha": "auto",
                                                       "model.alpha_grid": [0.01, 3.0],
                                                       "seeds": [0, 1]})
        assert main(["fit-cac", "--config", str(auto), "--out", str(tmp_path / "auto")]) == 0
        for seed in (0, 1):
            run_dir = Path("runs") / "default" / str(seed)
            want = json.loads((tmp_path / "auto" / run_dir / "report.json").read_text())
            alpha = want["diagnostics"]["alpha_selected"]
            fixed = write_config(tmp_path / f"fixed{seed}.yaml",
                                 **{"model.alpha": alpha, "seeds": [seed]})
            out = tmp_path / f"fixed{seed}"
            assert main(["fit-cac", "--config", str(fixed), "--out", str(out)]) == 0
            got = json.loads((out / run_dir / "report.json").read_text())
            assert got["metrics"] == want["metrics"]
            for key in ("cost_trace", "rounds", "moves_per_round", "silhouette_init",
                        "silhouette_final", "logloss_bounds"):
                assert got["diagnostics"][key] == want["diagnostics"][key], key
            model = Path("models") / f"model_s{seed}.json"
            assert (out / model).read_text() == (tmp_path / "auto" / model).read_text()

    def test_baseline_kmz_with_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **{"model.baseline": "kmz"})
        out = tmp_path / "out"
        code = main(["baseline", "--config", str(cfg), "--out", str(out),
                     "--set", "model.deepcac.hidden=8",
                     "--set", "model.deepcac.latent=4",
                     "--set", "model.deepcac.pretrain_epochs=5",
                     "--set", "model.deepcac.local_epochs=10",
                     "--set", "model.deepcac.batch_size=64"])
        assert code == 0
        report = json.loads((out / "runs" / "default" / "0" / "report.json").read_text())
        assert report["method"] == "kmz"
        assert report["config"]["model"]["deepcac"]["hidden"] == 8


class TestCompare:
    def run_reports(self, tmp_path):
        paths = []
        for task, extra, name in (
            ("fit-cac", {}, "cac2"),
            ("baseline", {"model.baseline": "km"}, "km2"),
            ("baseline", {"model.baseline": "bare"}, "bare2"),
        ):
            for k in (2, 3):
                cfg = write_config(tmp_path / f"{name}_{k}.yaml",
                                   **{"model.k": k, "seeds": [0, 1], **extra})
                out = tmp_path / f"out_{name}_{k}"
                assert main([task, "--config", str(cfg), "--out", str(out)]) == 0
                paths.extend(sorted(str(p) for p in out.glob("runs/*/*/report.json")))
        return paths

    def test_three_methods_two_ks_give_six_rows(self, tmp_path):
        paths = self.run_reports(tmp_path)
        csv_text, table = compare_reports(paths)
        lines = csv_text.strip().split("\n")
        assert len(lines) == 1 + 6
        assert lines[0].startswith("dataset,method,k,")
        assert len(table.strip().split("\n")) == 1 + 6

    def test_identical_reports_have_zero_delta(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        assert main(["fit-cac", "--config", str(cfg), "--out", str(out)]) == 0
        report = str(out / "runs" / "default" / "0" / "report.json")
        csv_text, _ = compare_reports([report, report])
        header, row = list(csv.reader(csv_text.strip().split("\n")))
        assert float(row[header.index("auprc_delta_vs_base")]) == 0.0
        assert int(row[header.index("wins_vs_base")]) == 0

    def test_compare_cli_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        assert main(["fit-cac", "--config", str(cfg), "--out", str(out)]) == 0
        report = str(out / "runs" / "default" / "0" / "report.json")
        target = tmp_path / "cmp.csv"
        assert main(["compare", report, report, "--out", str(target)]) == 0
        assert target.exists()
        assert "method" in capsys.readouterr().out

    def test_garbage_report_is_schema_mismatch(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        with pytest.raises(SchemaMismatch):
            compare_reports([str(junk)])
        assert main(["compare", str(junk)]) == 3
