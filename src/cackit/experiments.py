"""Config-driven experiment runners shared by the CLI.

Every run is reproducible: all randomness flows from the config seeds plus
the per-run seed, reports carry no timestamps, and floats serialize via
repr, so re-running a config yields byte-identical report files.
"""

from __future__ import annotations

import builtins
import contextlib
import copy
import csv
import io
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import cac_engine, classifiers, metrics, neural
from .cluster_core import silhouette
from .config import resolve_axis, set_path, validate_config
from .dataset import (
    LabeledDataset,
    SplitSpec,
    SyntheticSpec,
    load_csv,
    make_classification,
    save_csv,
    split,
    standardize,
    apply_standardization,
)
from .errors import ConfigInvalid, SchemaMismatch

SWEEP_CSV_METRICS = ("auc", "auprc", "f1", "silhouette")


def _dataset_description(cfg: dict) -> str:
    d = cfg["dataset"]
    if d["csv"]:
        return Path(d["csv"]).stem
    s = d["synthetic"]
    return (f"synthetic(n={s['n_samples']},d={s['n_features']},K={s['n_clusters']},"
            f"ics={s['ics']},ocs={s['ocs']},warp={s['warp']})")


def prepare_data(cfg: dict, run_seed: int) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Load or generate the dataset, split it, and standardize on train stats.

    The run seed shifts both the synthetic-data seed and the split seed, so
    seed sweeps vary the data draw as well as the partition.
    """
    d = cfg["dataset"]
    if d["csv"]:
        ds = load_csv(d["csv"], d["label_column"], d["has_header"])
    else:
        ds = make_classification(_synthetic_spec(cfg, run_seed))
    sp = cfg["split"]
    train, val, test = split(ds, SplitSpec(**dict(sp, seed=sp["seed"] + run_seed)))
    if d["standardize"]:
        train, mean, std = standardize(train)
        val = apply_standardization(val, mean, std)
        test = apply_standardization(test, mean, std)
    return train, val, test


def _synthetic_spec(cfg: dict, run_seed: int) -> SyntheticSpec:
    """The `dataset.synthetic` section, its seed shifted by the run seed."""
    s = cfg["dataset"]["synthetic"]
    return SyntheticSpec(**dict(s, seed=s["seed"] + run_seed))


def _fit_model(train: LabeledDataset, k: int, alpha: float, spec: classifiers.ClassifierSpec,
               seed: int, max_rounds: int, init=None
               ) -> tuple[cac_engine.CacRun, cac_engine.CacModel]:
    """One CAC fit and its local classifiers, packed as a servable model.

    With alpha 0 and max_rounds 0 the fit stops at its k-means start, which
    makes this the cluster-then-classify baseline as well.
    """
    run = cac_engine.cac_fit(train, k, alpha, max_rounds=max_rounds, seed=seed,
                             init_assignments=init)
    local = classifiers.train_per_cluster(run.state, train, spec)
    return run, cac_engine.CacModel(run.state.centroids.copy(), local, alpha, run.cost_trace)


def _evaluate_cac(model: cac_engine.CacModel, test: LabeledDataset,
                  sil: float | None) -> metrics.EvalReport:
    """Test-set report of a CAC model, with its training clustering's silhouette `sil`."""
    _, scores = cac_engine.cac_predict_batch(model, test.features)
    return metrics.evaluate_binary(scores, test.labels, silhouette=sil)


def select_alpha(train: LabeledDataset, val: LabeledDataset, k: int, grid: list[float],
                 spec: classifiers.ClassifierSpec, seed: int, max_rounds: int
                 ) -> tuple[float, dict, cac_engine.CacRun, cac_engine.CacModel]:
    """Pick the separation weight by validation AUPRC; ties keep the earlier value.

    Returns the chosen alpha, the validation AUPRC per grid value, and the
    chosen alpha's fit and model.
    """
    best, best_score = None, -np.inf
    scores = {}
    init = None  # every alpha starts from the first fit's k-means clustering
    for alpha in grid:
        run, model = _fit_model(train, k, float(alpha), spec, seed, max_rounds, init)
        init = run.init_assignments
        _, val_scores = cac_engine.cac_predict_batch(model, val.features)
        score = metrics.auprc(val_scores, val.labels)
        scores[repr(float(alpha))] = score
        if score > best_score:
            best, best_score = (float(alpha), run, model), score
    alpha, run, model = best
    return alpha, scores, run, model


def _logloss_diagnostics(run: cac_engine.CacRun, train: LabeledDataset,
                         local: list[classifiers.TrainedClassifier]) -> list[dict]:
    """Sandwich check of each fitted local log-loss between its centroid bounds."""
    out = []
    for j, clf in enumerate(local):
        if clf.kind != "logreg":
            continue
        # train_per_cluster gives a single-class cluster a constant classifier, so a
        # logreg cluster holds both classes
        rows = run.state.assignments == j
        lower, upper, actual = classifiers.logloss_bounds(
            classifiers._augment(train.features[rows]), train.labels[rows], clf.weights)
        out.append({"cluster": j, "lower": lower, "actual": actual, "upper": upper,
                    "holds": bool(lower - 1e-9 <= actual <= upper + 1e-9)})
    return out


def run_fit_cac(cfg: dict, run_seed: int) -> tuple[dict, str]:
    """Fit the separation-augmented clustering plus local classifiers; returns
    (report dict, serialized model)."""
    train, val, test = prepare_data(cfg, run_seed)
    m = cfg["model"]
    spec = classifiers.ClassifierSpec(**m["classifier"])
    diagnostics: dict = {}
    if m["alpha"] == "auto":
        alpha, val_scores, run, model = select_alpha(train, val, m["k"], m["alpha_grid"], spec,
                                                     run_seed, m["max_rounds"])
        diagnostics["alpha_selected"] = alpha
        diagnostics["alpha_val_auprc"] = val_scores
    else:
        run, model = _fit_model(train, m["k"], float(m["alpha"]), spec, run_seed, m["max_rounds"])
    sil = None
    if m["k"] >= 2:
        # the k-means start and the final clustering, from one pass over the distances
        diagnostics["silhouette_init"], sil = silhouette(
            train.features, [run.init_assignments, run.state.assignments])
        diagnostics["silhouette_final"] = sil
    report = _evaluate_cac(model, test, sil)
    diagnostics["cost_trace"] = run.cost_trace
    diagnostics["rounds"] = run.rounds
    diagnostics["moves_per_round"] = run.moves_per_round
    diagnostics["logloss_bounds"] = _logloss_diagnostics(run, train, model.classifiers)
    return (_report_dict(cfg, run_seed, f"cac+{spec.kind}", report, diagnostics),
            cac_engine.cac_model_to_json(model))


def run_baseline(cfg: dict, run_seed: int) -> tuple[dict, str | None]:
    """One of: k-means + local classifiers, a bare classifier, or the
    pretrain-then-cluster neural baseline."""
    train, val, test = prepare_data(cfg, run_seed)
    m = cfg["model"]
    kind = m["baseline"]
    if kind == "km":
        spec = classifiers.ClassifierSpec(**m["classifier"])
        run, model = _fit_model(train, m["k"], 0.0, spec, run_seed, max_rounds=0)
        sil = silhouette(train.features, run.state.assignments) if m["k"] >= 2 else None
        report = _evaluate_cac(model, test, sil)
        return _report_dict(cfg, run_seed, f"km+{spec.kind}", report, {}), None
    if kind == "bare":
        spec = classifiers.ClassifierSpec(**m["classifier"])
        clf = classifiers.train_classifier(train.features, train.labels, spec)
        scores = classifiers.predict_proba_batch(clf, test.features)
        report = metrics.evaluate_binary(scores, test.labels)
        return _report_dict(cfg, run_seed, spec.kind, report, {}), None
    # kmz fixes the combined-loss settings itself
    shared = {key: value for key, value in m["deepcac"].items()
              if key not in ("alpha", "beta", "delta", "epochs")}
    model = neural.kmz_fit(train, val, m["k"], seed=run_seed, **shared)
    return _neural_result(cfg, run_seed, "kmz", model, test)


def _neural_result(cfg: dict, run_seed: int, method: str, model: neural.DeepCacModel,
                   test: LabeledDataset) -> tuple[dict, str]:
    """(report dict, serialized model) of a fitted DeepCAC-kind model scored on the test set."""
    _, probs = neural.deepcac_predict_batch(model, test.features)
    if model.n_classes == 2:
        report = metrics.evaluate_binary(probs[:, 1], test.labels)
    else:
        report = metrics.evaluate_multiclass(probs, test.labels, model.n_classes)
    diagnostics = {"history": model.history, "clusters_kept": model.k}
    return (_report_dict(cfg, run_seed, method, report, diagnostics),
            neural.deepcac_model_to_json(model))


def run_fit_deepcac(cfg: dict, run_seed: int) -> tuple[dict, str]:
    train, val, test = prepare_data(cfg, run_seed)
    model = neural.deepcac_fit(train, val, cfg["model"]["k"], seed=run_seed,
                               **cfg["model"]["deepcac"])
    return _neural_result(cfg, run_seed, "deepcac", model, test)


def _report_dict(cfg: dict, run_seed: int, method: str, report: metrics.EvalReport,
                 diagnostics: dict) -> dict:
    return {
        "schema": 1,
        "task": cfg["task"],
        "method": method,
        "dataset": _dataset_description(cfg),
        "seed": run_seed,
        "config": cfg,
        "metrics": report.to_dict(),
        "diagnostics": diagnostics,
    }


def run_single(cfg: dict, run_seed: int) -> tuple[dict, str | None]:
    """Dispatch one (config, seed) run to its task runner."""
    task = cfg["task"]
    if task == "fit-cac":
        return run_fit_cac(cfg, run_seed)
    if task == "fit-deepcac":
        return run_fit_deepcac(cfg, run_seed)
    if task == "baseline":
        return run_baseline(cfg, run_seed)
    raise ConfigInvalid("task", f"{task!r} is not a per-seed runnable task")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _csv_text(header: list, rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _run_cells(out_dir: Path, cells: list[tuple[dict, int, Path, Path | None]], jobs: int) -> list[dict]:
    """Run each (config, seed, report path, model path or None) cell, in-process at one job
    and on a process pool otherwise, and write its report, and its model when the cell has
    a model path and the run made one, under out_dir as results arrive in cell order."""
    cfgs, seeds, report_paths, model_paths = zip(*cells)
    # at one job builtins.map runs the cells in-process, in the same lazy cell order
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext(builtins) as pool:
        results = pool.map(run_single, cfgs, seeds)
        reports = []
        for (report, model_json), report_path, model_path in zip(results, report_paths, model_paths):
            _write_text(out_dir / report_path, json.dumps(report, indent=2) + "\n")
            if model_path is not None and model_json is not None:
                _write_text(out_dir / model_path, model_json)
            reports.append(report)
    return reports


def _grid_key(axes: list[str], values: tuple) -> str:
    return "_".join(f"{a}-{v}" for a, v in zip(axes, values)).replace("/", "-")


def _sweep_runs(cfg: dict) -> list[tuple[str, tuple, dict, int]]:
    """Expand the sweep grid into (grid key, axis values, per-run config, seed) in grid
    order, validating every cell's config before any run starts."""
    axes = list(cfg["sweep"]["axes"].keys())
    paths = [resolve_axis(a) for a in axes]
    value_lists = [cfg["sweep"]["axes"][a] for a in axes]
    combos = list(itertools.product(*value_lists)) if axes else [()]
    total = len(combos) * len(cfg["seeds"])
    if total > cfg["sweep"]["max_runs"]:
        raise ConfigInvalid("sweep.max_runs", f"grid needs {total} runs, cap is {cfg['sweep']['max_runs']}")
    runs = []
    for combo in combos:
        cell = copy.deepcopy(cfg)
        cell["task"] = cfg["sweep"]["task"]
        for path, value in zip(paths, combo):
            set_path(cell, path, value)
        key = _grid_key(axes, combo) or "all"
        try:
            run_cfg = validate_config(cell)
        except ConfigInvalid as exc:
            raise ConfigInvalid(exc.field, f"{exc.reason} (sweep cell {key!r})") from None
        runs.extend((key, combo, run_cfg, seed) for seed in cfg["seeds"])
    return runs


def run_sweep(cfg: dict, out_dir: Path, jobs: int = 1) -> list[dict]:
    """Run the whole grid, write per-run reports and the merged sweep.csv."""
    runs = _sweep_runs(cfg)
    save = cfg["sweep"]["save_models"]
    reports = _run_cells(out_dir, [(run_cfg, seed, Path("runs", key, str(seed), "report.json"),
                                    Path("models", f"{key}__s{seed}.json") if save else None)
                                   for key, _, run_cfg, seed in runs], jobs)
    rows = [list(combo) + [seed] + [_metric_cell(report["metrics"], m) for m in SWEEP_CSV_METRICS]
            for (_, combo, _, seed), report in zip(runs, reports)]
    header = list(cfg["sweep"]["axes"]) + ["seed"] + list(SWEEP_CSV_METRICS)
    _write_text(out_dir / "sweep.csv", _csv_text(header, rows))
    return reports


def _metric_cell(metric_dict: dict, name: str) -> str:
    value = metric_dict.get(name)
    return "" if value is None else repr(float(value))


def run_task(cfg: dict, out_dir, jobs: int = 1) -> dict:
    """Execute the configured task, write everything under out_dir, return the manifest."""
    out_dir = Path(out_dir)
    started = time.time()
    task = cfg["task"]
    if task == "synth":
        ds = make_classification(_synthetic_spec(cfg, 0))
        save_csv(ds, out_dir / "dataset.csv", cfg["dataset"]["label_column"])
        n_runs = 1
    elif task == "sweep":
        n_runs = len(run_sweep(cfg, out_dir, jobs=jobs))
    elif task in ("fit-cac", "fit-deepcac", "baseline"):
        n_runs = len(_run_cells(out_dir, [(cfg, seed, Path("runs", "default", str(seed), "report.json"),
                                           Path("models", f"model_s{seed}.json"))
                                          for seed in cfg["seeds"]], jobs))
    else:
        raise ConfigInvalid("task", f"task {task!r} cannot be executed directly")

    manifest = {
        "package": f"cackit {__version__}",
        "task": task,
        "config": cfg,
        "n_runs": n_runs,
        "wall_clock_s": round(time.time() - started, 3),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return manifest


def compare_reports(paths: list) -> tuple[str, str]:
    """Aggregate report files into one row per (dataset, method, k) group.

    Each row carries the seed-mean metrics plus the mean AUPRC delta and the
    per-seed win count against the first group seen, paired on (dataset,
    seed). Returns (csv text, human-readable table text)."""
    entries = []
    for p in paths:
        d = json.loads(Path(p).read_text(encoding="utf-8"))
        try:
            entries.append({"method": d["method"], "dataset": d["dataset"],
                            "seed": d["seed"], "k": d["config"]["model"]["k"],
                            "auc": d["metrics"]["auc"], "auprc": d["metrics"]["auprc"],
                            "f1": d["metrics"]["f1"]})
        except (KeyError, TypeError):
            raise SchemaMismatch(f"{p} is not a recognizable report file") from None

    groups: dict[tuple, list[dict]] = {}
    for e in entries:
        groups.setdefault((e["dataset"], e["method"], e["k"]), []).append(e)
    base_by_seed = {(e["dataset"], e["seed"]): e["auprc"] for e in next(iter(groups.values()))}
    base_mean = float(np.mean(list(base_by_seed.values())))

    rows = []
    for (dataset, method, k), mine in groups.items():
        wins = sum(1 for e in mine
                   if (e["dataset"], e["seed"]) in base_by_seed
                   and e["auprc"] > base_by_seed[(e["dataset"], e["seed"])])
        means = {m: float(np.mean([e[m] for e in mine])) for m in ("auc", "auprc", "f1")}
        rows.append([dataset, method, k, len(mine), means["auc"], means["auprc"],
                     means["f1"], means["auprc"] - base_mean, wins])

    header = ["dataset", "method", "k", "n_runs", "auc", "auprc", "f1",
              "auprc_delta_vs_base", "wins_vs_base"]
    csv_text = _csv_text(header, [r[:4] + [repr(float(v)) for v in r[4:8]] + [r[8]] for r in rows])

    widths = [max(len(str(header[i])), max(len(_fmt(r[i])) for r in rows)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
    return csv_text, "\n".join(lines)


def _fmt(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(v)
