"""Config-driven experiment runners shared by the CLI.

Every run is reproducible: all randomness flows from the config seeds plus
the per-run seed, reports carry no timestamps, and floats serialize via
repr, so re-running a config yields byte-identical report files.
"""

from __future__ import annotations

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
from .config import resolve_axis, set_path
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
        s = d["synthetic"]
        ds = make_classification(SyntheticSpec(
            n_samples=s["n_samples"], n_features=s["n_features"],
            n_clusters=s["n_clusters"], ics=s["ics"], ocs=s["ocs"],
            seed=s["seed"] + run_seed, warp=s["warp"]))
    sp = cfg["split"]
    train, val, test = split(ds, SplitSpec(sp["train_frac"], sp["val_frac"], sp["test_frac"],
                                           seed=sp["seed"] + run_seed,
                                           stratified=sp["stratified"]))
    if d["standardize"]:
        train, mean, std = standardize(train)
        val = apply_standardization(val, mean, std)
        test = apply_standardization(test, mean, std)
    return train, val, test


def _classifier_spec(cfg: dict) -> classifiers.ClassifierSpec:
    c = cfg["model"]["classifier"]
    return classifiers.ClassifierSpec(kind=c["kind"], learning_rate=c["learning_rate"],
                                      l2_penalty=c["l2_penalty"], epochs=c["epochs"],
                                      k_neighbors=c["k_neighbors"], ridge_lambda=c["ridge_lambda"])


def select_alpha(train: LabeledDataset, val: LabeledDataset, k: int, grid: list[float],
                 spec: classifiers.ClassifierSpec, seed: int, max_rounds: int
                 ) -> tuple[float, dict, cac_engine.CacRun, list[classifiers.TrainedClassifier]]:
    """Pick the separation weight by validation AUPRC; ties keep the earlier value.

    Returns the chosen alpha, the validation AUPRC per grid value, and the
    chosen alpha's fit and local classifiers.
    """
    best, best_score = None, -np.inf
    scores = {}
    init = None  # every alpha starts from the first fit's k-means clustering
    for alpha in grid:
        run = cac_engine.cac_fit(train, k, float(alpha), max_rounds=max_rounds, seed=seed,
                                 init_assignments=init)
        init = run.init_assignments
        local = classifiers.train_per_cluster(run.state, train, spec)
        model = cac_engine.CacModel(run.state.centroids.copy(), local, float(alpha), run.cost_trace)
        _, val_scores = cac_engine.cac_predict_batch(model, val.features)
        score = metrics.auprc(val_scores, val.labels)
        scores[repr(float(alpha))] = score
        if score > best_score:
            best, best_score = (float(alpha), run, local), score
    alpha, run, local = best
    return alpha, scores, run, local


def _logloss_diagnostics(run: cac_engine.CacRun, train: LabeledDataset,
                         local: list[classifiers.TrainedClassifier]) -> list[dict]:
    """Sandwich check of each fitted local log-loss between its centroid bounds."""
    out = []
    for j, clf in enumerate(local):
        if clf.kind != "logreg":
            continue
        rows = run.state.assignments == j
        xj = np.hstack([train.features[rows], np.ones((int(rows.sum()), 1))])
        yj = train.labels[rows]
        if not ((yj == 0).any() and (yj == 1).any()):
            continue
        lower, upper, actual = classifiers.logloss_bounds(xj, yj, clf.weights)
        out.append({"cluster": j, "lower": lower, "actual": actual, "upper": upper,
                    "holds": bool(lower - 1e-9 <= actual <= upper + 1e-9)})
    return out


def run_fit_cac(cfg: dict, run_seed: int) -> tuple[dict, str]:
    """Fit the separation-augmented clustering plus local classifiers; returns
    (report dict, serialized model)."""
    train, val, test = prepare_data(cfg, run_seed)
    m = cfg["model"]
    spec = _classifier_spec(cfg)
    diagnostics: dict = {}
    if m["alpha"] == "auto":
        alpha, val_scores, run, local = select_alpha(train, val, m["k"], m["alpha_grid"], spec,
                                                     run_seed, m["max_rounds"])
        diagnostics["alpha_selected"] = alpha
        diagnostics["alpha_val_auprc"] = val_scores
    else:
        alpha = float(m["alpha"])
        run = cac_engine.cac_fit(train, m["k"], alpha, max_rounds=m["max_rounds"], seed=run_seed)
        local = classifiers.train_per_cluster(run.state, train, spec)
    model = cac_engine.CacModel(run.state.centroids.copy(), local, alpha, run.cost_trace)
    _, scores = cac_engine.cac_predict_batch(model, test.features)

    sil_final = None
    if m["k"] >= 2:
        sil_final = silhouette(train.features, run.state.assignments)
        diagnostics["silhouette_init"] = silhouette(train.features, run.init_assignments)
        diagnostics["silhouette_final"] = sil_final
    diagnostics["cost_trace"] = run.cost_trace
    diagnostics["rounds"] = run.rounds
    diagnostics["moves_per_round"] = run.moves_per_round
    diagnostics["logloss_bounds"] = _logloss_diagnostics(run, train, local)

    report = metrics.evaluate_binary(scores, test.labels, silhouette=sil_final)
    return (_report_dict(cfg, run_seed, f"cac+{spec.kind}", report, diagnostics),
            cac_engine.cac_model_to_json(model))


def _shared_deepcac_args(cfg: dict) -> dict:
    """The `model.deepcac` hyperparameters that deepcac_fit and kmz_fit both take."""
    dc = cfg["model"]["deepcac"]
    return {key: dc[key] for key in ("lr", "hidden", "latent", "local_hidden", "batch_size",
                                     "pretrain_epochs", "local_epochs", "local_lr", "patience",
                                     "scale", "margin")}


def run_baseline(cfg: dict, run_seed: int) -> tuple[dict, str | None]:
    """One of: k-means + local classifiers, a bare classifier, or the
    pretrain-then-cluster neural baseline."""
    train, val, test = prepare_data(cfg, run_seed)
    m = cfg["model"]
    kind = m["baseline"]
    if kind == "km":
        spec = _classifier_spec(cfg)
        report = classifiers.cluster_then_predict(train, test, m["k"], spec, seed=run_seed)
        return _report_dict(cfg, run_seed, f"km+{spec.kind}", report, {}), None
    if kind == "bare":
        spec = _classifier_spec(cfg)
        clf = classifiers.train_classifier(train.features, train.labels, spec)
        scores = classifiers.predict_proba_batch(clf, test.features)
        report = metrics.evaluate_binary(scores, test.labels)
        return _report_dict(cfg, run_seed, spec.kind, report, {}), None
    # kmz
    model = neural.kmz_fit(train, val, m["k"], seed=run_seed, **_shared_deepcac_args(cfg))
    report, diagnostics = _evaluate_neural(model, test)
    return (_report_dict(cfg, run_seed, "kmz", report, diagnostics),
            neural.deepcac_model_to_json(model))


def _evaluate_neural(model: neural.DeepCacModel, test: LabeledDataset) -> tuple[metrics.EvalReport, dict]:
    _, probs = neural.deepcac_predict_batch(model, test.features)
    if model.n_classes == 2:
        report = metrics.evaluate_binary(probs[:, 1], test.labels)
    else:
        report = metrics.evaluate_multiclass(probs, test.labels, model.n_classes)
    diagnostics = {"history": model.history, "clusters_kept": model.k}
    return report, diagnostics


def run_fit_deepcac(cfg: dict, run_seed: int) -> tuple[dict, str]:
    train, val, test = prepare_data(cfg, run_seed)
    m = cfg["model"]
    dc = m["deepcac"]
    model = neural.deepcac_fit(train, val, m["k"], alpha=dc["alpha"], beta=dc["beta"],
                               delta=dc["delta"], epochs=dc["epochs"], seed=run_seed,
                               **_shared_deepcac_args(cfg))
    report, diagnostics = _evaluate_neural(model, test)
    return (_report_dict(cfg, run_seed, "deepcac", report, diagnostics),
            neural.deepcac_model_to_json(model))


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


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _grid_key(axes: list[str], values: tuple) -> str:
    return "_".join(f"{a}-{v}" for a, v in zip(axes, values)).replace("/", "-")


def _sweep_runs(cfg: dict) -> list[tuple[str, dict, int]]:
    """Expand the sweep grid: (grid key, per-run config, seed), in grid order."""
    axes = list(cfg["sweep"]["axes"].keys())
    paths = [resolve_axis(a) for a in axes]
    value_lists = [cfg["sweep"]["axes"][a] for a in axes]
    combos = list(itertools.product(*value_lists)) if axes else [()]
    total = len(combos) * len(cfg["seeds"])
    if total > cfg["sweep"]["max_runs"]:
        raise ConfigInvalid("sweep.max_runs", f"grid needs {total} runs, cap is {cfg['sweep']['max_runs']}")
    runs = []
    for combo in combos:
        run_cfg = copy.deepcopy(cfg)
        run_cfg["task"] = cfg["sweep"]["task"]
        for path, value in zip(paths, combo):
            set_path(run_cfg, path, value)
        key = _grid_key(axes, combo) or "all"
        for seed in cfg["seeds"]:
            runs.append((key, run_cfg, seed))
    return runs


def _run_one(args: tuple[str, dict, int]) -> tuple[str, int, dict, str | None]:
    key, run_cfg, seed = args
    report, model_json = run_single(run_cfg, seed)
    return key, seed, report, model_json


def run_sweep(cfg: dict, out_dir: Path, jobs: int = 1) -> list[dict]:
    """Run the whole grid, write per-run reports and the merged sweep.csv."""
    runs = _sweep_runs(cfg)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, runs))
    else:
        results = [_run_one(r) for r in runs]

    axes = list(cfg["sweep"]["axes"].keys())
    rows = []
    for (key, run_cfg, seed), (_, _, report, model_json) in zip(runs, results):
        _write_json(out_dir / "runs" / key / str(seed) / "report.json", report)
        if model_json is not None and cfg["sweep"]["save_models"]:
            path = out_dir / "models" / f"{key}__s{seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(model_json, encoding="utf-8")
        axis_values = [_get_path(run_cfg, resolve_axis(a)) for a in axes]
        rows.append(axis_values + [seed] + [_metric_cell(report["metrics"], m)
                                            for m in SWEEP_CSV_METRICS])
    header = axes + ["seed"] + list(SWEEP_CSV_METRICS)
    _write_csv(out_dir / "sweep.csv", header, rows)
    return [r[2] for r in results]


def _get_path(cfg: dict, dotted: str):
    node = cfg
    for part in dotted.split("."):
        node = node[part]
    return node


def _metric_cell(metric_dict: dict, name: str) -> str:
    value = metric_dict.get(name)
    return "" if value is None else repr(float(value))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def run_task(cfg: dict, out_dir, jobs: int = 1) -> dict:
    """Execute the configured task, write everything under out_dir, return the manifest."""
    out_dir = Path(out_dir)
    started = time.time()
    task = cfg["task"]
    n_runs = 0
    if task == "synth":
        s = cfg["dataset"]["synthetic"]
        ds = make_classification(SyntheticSpec(
            n_samples=s["n_samples"], n_features=s["n_features"],
            n_clusters=s["n_clusters"], ics=s["ics"], ocs=s["ocs"],
            seed=s["seed"], warp=s["warp"]))
        save_csv(ds, out_dir / "dataset.csv", cfg["dataset"]["label_column"])
        n_runs = 1
    elif task == "sweep":
        n_runs = len(run_sweep(cfg, out_dir, jobs=jobs))
    elif task in ("fit-cac", "fit-deepcac", "baseline"):
        for seed in cfg["seeds"]:
            report, model_json = run_single(cfg, seed)
            _write_json(out_dir / "runs" / "default" / str(seed) / "report.json", report)
            if model_json is not None:
                path = out_dir / "models" / f"model_s{seed}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(model_json, encoding="utf-8")
            n_runs += 1
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
    _write_json(out_dir / "manifest.json", manifest)
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

    groups: list[tuple] = []
    for e in entries:
        key = (e["dataset"], e["method"], e["k"])
        if key not in groups:
            groups.append(key)
    base = groups[0]
    base_by_seed = {(e["dataset"], e["seed"]): e["auprc"] for e in entries
                    if (e["dataset"], e["method"], e["k"]) == base}
    base_mean = float(np.mean(list(base_by_seed.values())))

    rows = []
    for dataset, method, k in groups:
        mine = [e for e in entries
                if (e["dataset"], e["method"], e["k"]) == (dataset, method, k)]
        wins = sum(1 for e in mine
                   if (e["dataset"], e["seed"]) in base_by_seed
                   and e["auprc"] > base_by_seed[(e["dataset"], e["seed"])])
        means = {m: float(np.mean([e[m] for e in mine])) for m in ("auc", "auprc", "f1")}
        rows.append([dataset, method, k, len(mine), means["auc"], means["auprc"],
                     means["f1"], means["auprc"] - base_mean, wins])

    header = ["dataset", "method", "k", "n_runs", "auc", "auprc", "f1",
              "auprc_delta_vs_base", "wins_vs_base"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in rows:
        writer.writerow(r[:4] + [repr(float(v)) for v in r[4:8]] + [r[8]])
    csv_text = buf.getvalue()

    widths = [max(len(str(header[i])), max(len(_fmt(r[i])) for r in rows)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
    return csv_text, "\n".join(lines)


def _fmt(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(v)
