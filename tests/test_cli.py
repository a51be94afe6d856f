"""End-to-end command-line runs, config validation and report comparison.

Everything goes through cackit.cli.main(argv) in-process with tiny synthetic
datasets so the whole file stays fast.
"""

import copy
import csv
import functools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cackit import experiments
from cackit.cli import main
from cackit.config import DEFAULTS, MAX_ARRAY_ELEMENTS, set_path, validate_config
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


def artifacts(root: Path) -> dict[str, bytes]:
    """Every file under root but the timestamped manifest, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.json"}


class TestJobs:
    SWEEP = {"sweep.axes": {"ics": [0.5, 1.0]}, "sweep.save_models": True, "seeds": [0, 1]}

    def same_bytes_at_one_and_two_jobs(self, tmp_path, command, overrides) -> dict[str, bytes]:
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
            runs.append(artifacts(out))
        assert runs[0] == runs[1]
        return runs[0]

    def test_sweep_with_models(self, tmp_path):
        files = self.same_bytes_at_one_and_two_jobs(tmp_path, "sweep", self.SWEEP)
        assert "sweep.csv" in files and "models/ics-0.5__s1.json" in files
        assert "runs/ics-1.0/1/report.json" in files and len(files) == 9

    def test_two_seed_fit(self, tmp_path):
        files = self.same_bytes_at_one_and_two_jobs(tmp_path, "fit-cac", {"seeds": [0, 1]})
        assert sorted(files) == ["models/model_s0.json", "models/model_s1.json",
                                 "runs/default/0/report.json", "runs/default/1/report.json"]

    def test_spawned_workers(self, tmp_path, monkeypatch):
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                            functools.partial(ProcessPoolExecutor, mp_context=spawn))
        self.same_bytes_at_one_and_two_jobs(tmp_path, "sweep", self.SWEEP)

    def test_failed_sweep_cell_keeps_earlier_reports(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **{"sweep.axes": {"k": [2, 500]}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert (out / "runs" / "k-2" / "0" / "report.json").exists()
        assert not (out / "sweep.csv").exists()


def leaves(node: dict, path: str = "") -> list[str]:
    """Dotted paths of every leaf of a config mapping (an empty mapping is a leaf)."""
    out = []
    for key, value in node.items():
        here = f"{path}.{key}" if path else key
        out.extend(leaves(value, here) if isinstance(value, dict) and value else [here])
    return out


SPEC_SECTIONS = ("split", "dataset.synthetic", "model.classifier")
SPECIAL = [True, False, None, "", float("nan"), float("inf"), float("-inf"), 0, -1, -2.5, 2.5,
           10**30, 2**63, 10**400, [], {}]
ODD_SCALARS = st.one_of(st.booleans(), st.none(), st.integers(), st.floats(), st.text(max_size=4),
                        st.sampled_from(SPECIAL))
ODD_VALUES = st.one_of(
    ODD_SCALARS, st.lists(ODD_SCALARS, max_size=3),
    st.dictionaries(st.one_of(st.sampled_from(["k", "alpha", "model.k"]), st.text(max_size=3),
                              st.integers()),
                    st.one_of(ODD_SCALARS, st.lists(ODD_SCALARS, max_size=3)), max_size=2))


def rejected_by_name_or_round_trips(leaf: str, value) -> None:
    """validate_config with one leaf set either names that leaf (its spec section for a
    spec-backed leaf, an axis under sweep.axes) or returns a config that re-validates
    to itself; any other exception propagates."""
    *parents, key = leaf.split(".")
    raw = node = {}
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    try:
        cfg = validate_config(raw)
    except ConfigInvalid as err:
        section = leaf.rpartition(".")[0]
        named = section if section in SPEC_SECTIONS else leaf
        assert err.field == named or err.field.startswith(f"{leaf}."), (err.field, leaf, value)
    else:
        assert validate_config(cfg) == cfg, (leaf, value)


class TestConfigValidation:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(leaf=st.sampled_from(leaves(DEFAULTS)), value=ODD_VALUES)
    def test_any_leaf_value_is_rejected_by_name_or_round_trips(self, leaf, value):
        rejected_by_name_or_round_trips(leaf, value)

    def test_every_leaf_takes_every_special_value(self):
        for leaf in leaves(DEFAULTS):
            for value in SPECIAL:
                rejected_by_name_or_round_trips(leaf, value)

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

    def test_negative_seed_flag_is_exit_code_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        assert main(["fit-cac", "--config", str(cfg), "--out", str(out), "--seed", "-3"]) == 2
        assert not out.exists()
        assert "'seeds'" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_exit_code_two(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["fit-cac", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert exit_.value.code == 2
        assert not out.exists()
        assert "--jobs" in capsys.readouterr().err

    def test_empty_seed_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", seeds=[])
        assert main(["fit-cac", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("field,value", [("epochs", 0), ("learning_rate", "fast"),
                                             ("kind", "forest"), ("learning_rate", float("nan")),
                                             ("epochs", 2.5), ("k_neighbors", True),
                                             ("l2_penalty", float("inf")),
                                             ("ridge_lambda", float("nan"))])
    def test_bad_classifier_value_is_exit_code_two(self, tmp_path, field, value):
        cfg = write_config(tmp_path / "c.yaml", **{"model.baseline": "km",
                                                   f"model.classifier.{field}": value})
        assert main(["baseline", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        with pytest.raises(ConfigInvalid, match="model.classifier"):
            validate_config(yaml.safe_load(cfg.read_text()))

    @pytest.mark.parametrize("field,value", [("alpha_grid", []), ("alpha_grid", ["a"]),
                                             ("alpha_grid", [True]), ("alpha_grid", [0.5, float("nan")]),
                                             ("alpha_grid", [float("inf")]), ("max_rounds", "x"),
                                             ("max_rounds", -1), ("k", True), ("alpha", True),
                                             ("alpha", float("nan")), ("alpha", float("-inf"))])
    def test_bad_model_value_is_exit_code_two(self, tmp_path, field, value):
        cfg = write_config(tmp_path / "c.yaml", **{f"model.{field}": value})
        assert main(["fit-cac", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        with pytest.raises(ConfigInvalid, match=f"model.{field}"):
            validate_config(yaml.safe_load(cfg.read_text()))

    @pytest.mark.parametrize("overrides,field", [
        ({"split.train_frac": 0.7, "split.val_frac": 0.18, "split.test_frac": 0.25}, "split"),
        ({"dataset.synthetic.n_clusters": 70}, "dataset.synthetic"),
        ({"dataset.synthetic.warp": "cos"}, "dataset.synthetic"),
        ({"model.alpha": True}, "model.alpha"),
        ({"seeds": [True]}, "seeds"),
        ({"model.deepcac.batch_size": 0}, "model.deepcac.batch_size"),
        ({"model.deepcac.local_epochs": -1}, "model.deepcac.local_epochs"),
        ({"model.deepcac.hidden": 8.0}, "model.deepcac.hidden"),
        ({"model.deepcac.delta": "x"}, "model.deepcac.delta"),
        ({"model.deepcac.lr": -1.0}, "model.deepcac.lr"),
        ({"model.deepcac.local_lr": 0.0}, "model.deepcac.local_lr"),
        ({"model.deepcac.scale": float("inf")}, "model.deepcac.scale"),
        ({"model.deepcac.margin": float("nan")}, "model.deepcac.margin"),
        ({"model.deepcac.alpha": -1.0}, "model.deepcac.alpha"),
        ({"model.deepcac.beta": True}, "model.deepcac.beta"),
        ({"split.seed": "a"}, "split"),
        ({"split.seed": True}, "split"),
        ({"split.stratified": 1}, "split"),
        ({"dataset.synthetic.ics": float("nan")}, "dataset.synthetic"),
        ({"dataset.synthetic.n_samples": 240.5}, "dataset.synthetic"),
        ({"dataset.synthetic.seed": 1.5}, "dataset.synthetic"),
        ({"dataset.standardize": "false"}, "dataset.standardize"),
        ({"dataset.has_header": "no"}, "dataset.has_header"),
        ({"sweep.save_models": "yes"}, "sweep.save_models"),
        ({"sweep.max_runs": -1}, "sweep.max_runs"),
        ({"sweep.max_runs": 2.5}, "sweep.max_runs"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": ""}, "output_dir"),
        ({"dataset.label_column": 3}, "dataset.label_column"),
        ({"dataset.csv": 7}, "dataset.csv"),
        ({"split.seed": -1}, "split"),
        ({"dataset.synthetic.seed": -1}, "dataset.synthetic"),
        ({"seeds": [-3]}, "seeds"),
        ({"sweep.axes": {1: [2]}}, "sweep.axes.1"),
        ({"model.deepcac.lr": 10**400}, "model.deepcac.lr"),
    ], ids=["split-sum", "n-clusters", "warp", "alpha-bool", "seed-bool", "batch-size",
            "local-epochs", "hidden-float", "delta-str", "lr-negative", "local-lr-zero",
            "scale-inf", "margin-nan", "deep-alpha-negative", "beta-bool", "split-seed-str",
            "split-seed-bool", "stratified-int", "ics-nan", "n-samples-float",
            "synthetic-seed-float", "standardize-str", "has-header-str", "save-models-str",
            "max-runs-negative", "max-runs-float", "output-dir-int", "output-dir-empty",
            "label-column-int", "csv-int", "split-seed-negative", "synthetic-seed-negative",
            "seeds-negative", "axis-int", "lr-beyond-float"])
    def test_bad_value_is_exit_code_two_before_any_run(self, tmp_path, overrides, field):
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        out = tmp_path / "out"
        assert main(["fit-deepcac", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        with pytest.raises(ConfigInvalid) as err:
            validate_config(yaml.safe_load(cfg.read_text()))
        assert err.value.field == field

    # values this large are rejected at the gate, before anything allocates; a fit at
    # sizes between about 2**25 and 2**40 entries would really allocate them
    @pytest.mark.parametrize("field,value", [
        ("dataset.synthetic.n_samples", 10**30), ("dataset.synthetic.n_features", 2**63),
        ("model.deepcac.hidden", 2**63), ("model.deepcac.latent", 2**63),
        ("model.deepcac.local_hidden", 2**63)])
    def test_oversized_array_is_exit_code_two_naming_the_field(self, tmp_path, capsys,
                                                               field, value):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        assert main(["fit-deepcac", "--config", str(cfg), "--out", str(out),
                     "--set", f"{field}={value}"]) == 2
        assert not out.exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("sizes,field", [
        ({"dataset.synthetic.n_samples": MAX_ARRAY_ELEMENTS // 8,
          "dataset.synthetic.n_features": 8}, None),
        ({"dataset.synthetic.n_samples": MAX_ARRAY_ELEMENTS + 1,
          "dataset.synthetic.n_features": 1}, "dataset.synthetic"),
        ({"model.deepcac.hidden": MAX_ARRAY_ELEMENTS // 32, "model.deepcac.latent": 32}, None),
        ({"model.deepcac.hidden": 3, "model.deepcac.latent": (MAX_ARRAY_ELEMENTS + 1) // 3},
         "model.deepcac.latent"),
    ], ids=["data-at-cap", "data-above-cap", "weights-at-cap", "weights-above-cap"])
    def test_array_size_cap_is_inclusive(self, sizes, field):
        raw = copy.deepcopy(DEFAULTS)
        for key, value in sizes.items():
            set_path(raw, key, value)
        rows, cols = sizes.values()
        assert rows * cols == MAX_ARRAY_ELEMENTS + (field is not None)
        if field is None:
            assert validate_config(raw) == raw
        else:
            with pytest.raises(ConfigInvalid) as err:
                validate_config(raw)
            assert err.value.field == field

    def test_bad_override_value_is_exit_code_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["fit-cac", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--set", "split.val_frac=0.3"]) == 2

    @pytest.mark.parametrize("axis,values,field", [
        ("model.max_rounds", [3, -1], "model.max_rounds"),
        ("k", [0], "model.k"),
        ("alpha", [0.5, True], "model.alpha"),
        ("K", [2, 70], "dataset.synthetic"),
    ])
    def test_bad_sweep_cell_fails_before_any_run(self, tmp_path, capsys, axis, values, field):
        cfg = write_config(tmp_path / "c.yaml", **{"sweep.axes": {axis: values}})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"'{field}'" in err and f"sweep cell '{axis}-{values[-1]}'" in err

    def test_zero_max_rounds_still_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **{"model.max_rounds": 0})
        assert main(["fit-cac", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0

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

    @pytest.mark.parametrize("key,value,stage", [
        ("delta", 1e-10, "stage-2"), ("lr", 1.0, "pretrain"), ("lr", 1.5, "pretrain"),
        ("lr", 2.5, "pretrain"), ("scale", 1e30, "stage-2"), ("alpha", 1e30, "stage-2"),
        ("beta", 1e30, "stage-2"),
    ])
    def test_diverging_stage_is_named_and_writes_no_model(self, tmp_path, capsys, key, value, stage):
        # n_features 10 at these seeds diverges within two epochs of each stage
        cfg = write_config(tmp_path / "c.yaml", **{
            "dataset.synthetic.n_features": 10,
            "model.deepcac": {"pretrain_epochs": 2, "epochs": 2, "local_epochs": 2, key: value}})
        out = tmp_path / "out"
        assert main(["fit-deepcac", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"{stage} loss is non-finite" in capsys.readouterr().err
        assert not any(b"NaN" in data or b"Infinity" in data for data in artifacts(out).values())


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

    @pytest.mark.parametrize("command,overrides,model_keys", [
        ("fit-cac", {}, ["schema", "kind", "alpha", "centroids", "classifiers", "trace"]),
        ("fit-deepcac", {"model.deepcac": {"pretrain_epochs": 2, "epochs": 2, "local_epochs": 2,
                                           "hidden": 8, "latent": 4}},
         ["schema", "kind", "alpha", "beta", "delta", "n_classes", "encoder", "centroids",
          "local_nets", "head", "history"]),
    ], ids=["cac", "deepcac"])
    def test_artifact_key_order(self, tmp_path, command, overrides, model_keys):
        # a reordering would change the bytes of every saved model and report
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert list(json.loads((out / "models" / "model_s0.json").read_text())) == model_keys
        report = json.loads((out / "runs" / "default" / "0" / "report.json").read_text())
        assert list(report["metrics"]) == ["auc", "auprc", "f1", "n_test", "support",
                                           "confusion", "silhouette"]

    def test_fit_on_offset_features_without_standardizing(self, tmp_path):
        # at a 1e7 offset the expanded-form distances lose every digit; the fit
        # routes and scores silhouettes exactly, so the shift changes neither
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(150, 10)), rng.normal(size=(150, 10)) + 1.5])
        y = np.repeat([0, 1], 150)
        y[rng.random(300) < 0.2] ^= 1
        sils = []
        for offset in (0.0, 1e7):
            data = tmp_path / f"offset-{offset:g}.csv"
            lines = [",".join([f"f{j}" for j in range(10)] + ["y"])]
            lines += [",".join([*map(repr, (row + offset).tolist()), str(lab)])
                      for row, lab in zip(x, y)]
            data.write_text("\n".join(lines) + "\n", encoding="utf-8")
            cfg = write_config(tmp_path / "c.yaml", **{
                "dataset": {"csv": str(data), "standardize": False}, "seeds": [0, 1]})
            out = tmp_path / f"out-{offset:g}"
            assert main(["fit-cac", "--config", str(cfg), "--out", str(out)]) == 0
            for seed in (0, 1):
                diag = json.loads((out / "runs" / "default" / str(seed) / "report.json")
                                  .read_text())["diagnostics"]
                sils += [diag["silhouette_init"], diag["silhouette_final"]]
        assert sils[4:] == pytest.approx(sils[:4], rel=1e-6)


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
