"""One cackit benchmark workload, run in a fresh process by run.py.

The process sets up its inputs from the benchmark seed, runs closed-loop
operations (each one starts after the previous one returns) for the given
number of seconds, checks every output, and prints one JSON line: the
set-up time, the attempted and failed operation counts, the raw samples
run.py turns into end-to-end metrics and, in a traced run, the per-layer
metrics.

    python3 perfbench/workload.py --workload cac_auto --seed 0 --seconds 30 \
        --trace 0 --t0 <CLOCK_MONOTONIC at spawn>
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

BATCH_ROWS = 64
# timed batch and single-row calls per fit-workload run, at least, spread
# over the run after every operation: 50 of each lie beyond the p99
SCORE_SAMPLES = 5000
SCORE_BLOCK = 50
# ...and for at least this share of the operation's own time
SCORE_SHARE = 0.15
CHECK_ROWS = 128
REL_TOL = 1e-12
LATE_ROUND_FRAC = 0.01


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- workload definitions ---------------------------------------------------

# Each fit workload is one CLI task. `raw` is the YAML config the benchmark
# writes; `min_ops` operations always run, more while the time allows.
FIT_WORKLOADS = {
    "cac_auto": {
        "task": "fit-cac",
        "min_ops": 2,
        "raw": {"dataset": {"synthetic": {"n_samples": 4000, "n_features": 10, "n_clusters": 4}},
                "model": {"k": 4, "alpha": "auto", "classifier": {"kind": "logreg"}}},
        "tiny": {"dataset": {"synthetic": {"n_samples": 240, "n_features": 4, "n_clusters": 2}},
                 "model": {"k": 2, "alpha_grid": [0.05, 3.0], "classifier": {"epochs": 20}}},
    },
    "cac_sweep": {
        "task": "sweep",
        "min_ops": 2,
        "raw": {"dataset": {"synthetic": {"n_samples": 2000, "n_features": 64, "n_clusters": 4}},
                "model": {"k": 16, "alpha": 0.5, "max_rounds": 8, "classifier": {"kind": "logreg"}},
                "sweep": {"task": "fit-cac", "axes": {"alpha": [0.5, 3.0]}, "save_models": True}},
        "tiny": {"dataset": {"synthetic": {"n_samples": 240, "n_features": 6, "n_clusters": 2}},
                 "model": {"k": 3, "classifier": {"epochs": 20}}},
    },
    "deepcac": {
        "task": "fit-deepcac",
        "min_ops": 3,
        "raw": {"dataset": {"synthetic": {"n_samples": 8000, "n_features": 10, "n_clusters": 3,
                                          "warp": "sin"}},
                "model": {"k": 3}},
        "tiny": {"dataset": {"synthetic": {"n_samples": 300}},
                 "model": {"deepcac": {"epochs": 2, "pretrain_epochs": 2, "local_epochs": 4,
                                       "hidden": 8, "latent": 4, "local_hidden": 4}}},
    },
}

# The score workload fits its models in set-up, then streams rows through them.
SCORE = {
    "full": {"n_samples": 3000, "n_features": 64, "n_clusters": 4, "k": 16, "max_rounds": 2,
             "batches_per_pass": 16, "rows_per_pass": 16, "min_ops": 20,
             "ics": 5.0, "deepcac": {"k": 4, "epochs": 3, "pretrain_epochs": 10,
                                     "local_epochs": 20, "patience": 5}},
    "tiny": {"n_samples": 400, "n_features": 8, "n_clusters": 2, "k": 3, "max_rounds": 1,
             "batches_per_pass": 2, "rows_per_pass": 2, "min_ops": 2,
             "ics": 5.0, "deepcac": {"k": 2, "epochs": 1, "pretrain_epochs": 1,
                                     "local_epochs": 2, "patience": 1, "hidden": 8, "latent": 4,
                                     "local_hidden": 4}},
}
SCORE_SPLIT = (0.3, 0.1, 0.6)


def _overlay(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _overlay(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _import_package() -> dict:
    """Import cackit from this checkout's src/, never from anywhere else."""
    if not (SRC / "cackit" / "__init__.py").is_file():
        raise SystemExit(f"error: no cackit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cackit
    from cackit import cli, experiments  # noqa: F401 - loads every module of the package
    if Path(cackit.__file__).resolve().parent != (SRC / "cackit").resolve():
        raise SystemExit(f"error: imported cackit from {cackit.__file__}, not from {SRC}")
    return {name.rpartition(".")[2]: module for name, module in sys.modules.items()
            if name == "cackit" or name.startswith("cackit.")}


def machine_record() -> dict:
    """Cores, Python and numpy versions, and the BLAS library with the thread
    count it reports inside this process."""
    import ctypes
    import platform
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        lib = next((line.split()[-1] for line in maps if "openblas" in line), None)
    if lib is not None:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    return {"cpu_count": os.cpu_count(), "cpus_pinned": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, from VmHWM.

    Not ru_maxrss: Linux carries that across exec, so a child reports its
    parent's size at fork when the parent was the larger.
    """
    with open("/proc/self/status", encoding="utf-8") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return kb / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a, b) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=REL_TOL, atol=1e-300))


class Checks:
    """Collects failed output checks of one operation without raising."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)


# --- scoring (all workloads) --------------------------------------------------

class Scorer:
    """Batch and single-row scoring through one or two saved models."""

    def __init__(self, pkg: dict, cac_model=None, deep_model=None):
        self.pkg = pkg
        self.cac_model = cac_model
        self.deep_model = deep_model

    def batch(self, x):
        out = []
        if self.cac_model is not None:
            out.append(self.pkg["cac_engine"].cac_predict_batch(self.cac_model, x)[1])
        if self.deep_model is not None:
            out.append(self.pkg["neural"].deepcac_predict_batch(self.deep_model, x)[1][:, 1])
        return out

    def single(self, row):
        out = []
        if self.cac_model is not None:
            out.append(self.pkg["cac_engine"].cac_predict(self.cac_model, row)[1])
        if self.deep_model is not None:
            out.append(float(self.pkg["neural"].deepcac_predict(self.deep_model, row)[1][1]))
        return out

    def brute_force(self, x):
        """Scores routed by plain nearest-centroid search, for the route check."""
        out = []
        if self.cac_model is not None:
            m = self.cac_model
            routes = ((x[:, None, :] - m.centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            out.append(np.array([self.pkg["classifiers"].predict_proba_batch(m.classifiers[j], x[i:i + 1])[0]
                                 for i, j in enumerate(routes)]))
        if self.deep_model is not None:
            neural, m = self.pkg["neural"], self.deep_model
            z = neural.net_forward(m.encoder, x)[0]
            routes = ((z[:, None, :] - m.centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            probs = []
            for i, j in enumerate(routes):
                logits = neural.net_forward(m.local_nets[j], z[i:i + 1])[0][0]
                e = np.exp(logits - logits.max())
                probs.append(e[1] / e.sum())
            out.append(np.array(probs))
        return out

    def consistency(self, pool, checks: Checks) -> None:
        """Batch scores equal single-row scores and brute-force routed scores."""
        x = pool[:CHECK_ROWS]
        batch = self.batch(x)
        singles = [self.single(row) for row in x]
        brute = self.brute_force(x)
        for m, (b, f) in enumerate(zip(batch, brute)):
            s = np.array([row[m] for row in singles])
            checks.expect(_close(b, s), f"model {m}: batch scores differ from single-row scores")
            checks.expect(_close(b, f), f"model {m}: batch scores differ from nearest-centroid routing")


def timed_scoring(targets: list, rng, n: int, seconds: float, batch_s: list, row_s: list) -> None:
    """At least `n` batch calls and as many single-row calls, in alternating
    blocks, for at least `seconds`, rotating through the (scorer, pool)
    targets; rows are drawn at random from the pool.

    Blocks keep each kind of call warm in cache, so one kind does not pay
    for the other, while both still spread over the whole phase.
    """
    start_t = time.perf_counter()
    start = 0
    while start < n or time.perf_counter() - start_t < seconds:
        for s in range(start, start + SCORE_BLOCK):
            scorer, pool = targets[s % len(targets)]
            x = pool[rng.integers(0, pool.shape[0], BATCH_ROWS)]
            t = time.perf_counter()
            scorer.batch(x)
            batch_s.append(time.perf_counter() - t)
        for s in range(start, start + SCORE_BLOCK):
            scorer, pool = targets[s % len(targets)]
            row = pool[rng.integers(0, pool.shape[0])]
            t = time.perf_counter()
            scorer.single(row)
            row_s.append(time.perf_counter() - t)
        start += SCORE_BLOCK


# --- fit workloads ----------------------------------------------------------

class FitWorkload:
    """A CLI task run through experiments.run_task, one seed per operation."""

    def __init__(self, pkg: dict, name: str, seed: int, size: str, work: Path, corrupt: bool):
        spec = FIT_WORKLOADS[name]
        self.pkg, self.name, self.seed, self.work, self.corrupt = pkg, name, seed, work, corrupt
        self.task = spec["task"]
        self.min_ops = 1 if size == "tiny" else spec["min_ops"]
        self.raw = spec["raw"] if size == "full" else _overlay(spec["raw"], spec["tiny"])
        self.test_metrics: list[tuple[float, float]] = []
        self.trajectories: list[dict] = []
        self.targets: list = []

    def setup(self) -> None:
        """Write the YAML config and load it the way the CLI does."""
        import yaml
        cli, config = self.pkg["cli"], self.pkg["config"]
        path = self.work / "config.yaml"
        path.write_text(yaml.safe_dump(self.raw), encoding="utf-8")
        args = cli.build_parser().parse_args([self.task, "--config", str(path), "--jobs", "1"])
        cfg = config.load_config(args.config)
        cfg["task"] = args.command
        self.cfg = config.validate_config(cfg)
        self.jobs = args.jobs

    def op_seed(self, i: int) -> int:
        return 1000 * self.seed + i

    def prepare(self, i: int) -> tuple[dict, Path]:
        cfg = copy.deepcopy(self.cfg)
        cfg["seeds"] = [self.op_seed(i)]
        out = self.work / f"op{i}"
        return cfg, out

    def run(self, prepared) -> None:
        cfg, out = prepared
        self.pkg["experiments"].run_task(cfg, out, jobs=self.jobs)

    def check(self, i: int, prepared, fits: list) -> list[str]:
        cac_engine, neural, metrics = self.pkg["cac_engine"], self.pkg["neural"], self.pkg["metrics"]
        experiments = self.pkg["experiments"]
        cfg, out = prepared
        checks = Checks()
        reports = sorted(out.glob("runs/*/*/report.json"))
        models = sorted((out / "models").glob("*.json"))
        if self.corrupt and models:
            _corrupt_model(models[0])
        expected = len(cfg["sweep"]["axes"].get("alpha", [0])) if self.task == "sweep" else 1
        checks.expect(len(reports) == expected, f"{len(reports)} reports, expected {expected}")
        checks.expect(len(models) == expected, f"{len(models)} models, expected {expected}")
        record = {"op": i, "run_seed": self.op_seed(i), "runs": []}
        test_metrics = []
        self.targets = []
        for report_path, model_path in zip(reports, models):
            report = json.loads(report_path.read_text(encoding="utf-8"))
            text = model_path.read_text(encoding="utf-8")
            m, diag = report["metrics"], report["diagnostics"]
            values = [v for v in (m["auc"], m["auprc"], m["f1"], m["silhouette"]) if v is not None]
            checks.expect(all(math.isfinite(v) for v in values), f"{report_path}: non-finite metric")
            checks.expect(0.0 <= m["auc"] <= 1.0 and 0.0 <= m["auprc"] <= 1.0,
                          f"{report_path}: AUC or AUPRC outside [0, 1]")
            if "cost_trace" in diag:
                checks.expect(_non_increasing(diag["cost_trace"]), f"{report_path}: cost_trace increases")
            train, _, test = experiments.prepare_data(report["config"], report["seed"])
            if json.loads(text)["kind"] == "cac":
                model = cac_engine.cac_model_from_json(text)
                scorer = Scorer(self.pkg, cac_model=model)
                again = cac_engine.cac_model_to_json(model)
                scores = cac_engine.cac_predict_batch(model, test.features)[1]
                rescored = cac_engine.cac_predict_batch(cac_engine.cac_model_from_json(again),
                                                        test.features)[1]
                checks.expect(model.k == cfg["model"]["k"] and np.isfinite(model.centroids).all()
                              and len(model.classifiers) == model.k,
                              f"{model_path}: model does not hold k finite clusters")
            else:
                model = neural.deepcac_model_from_json(text)
                scorer = Scorer(self.pkg, deep_model=model)
                again = neural.deepcac_model_to_json(model)
                scores = neural.deepcac_predict_batch(model, test.features)[1][:, 1]
                rescored = neural.deepcac_predict_batch(neural.deepcac_model_from_json(again),
                                                        test.features)[1][:, 1]
                z = neural.net_forward(model.encoder, train.features)[0]
                routes = ((z[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
                checks.expect(np.bincount(routes, minlength=model.k).min() > 0,
                              f"{model_path}: a kept cluster has no training rows")
            checks.expect(again == text, f"{model_path}: JSON round trip changed the model")
            checks.expect(np.array_equal(scores, rescored), f"{model_path}: rescoring changed the scores")
            rep = metrics.evaluate_binary(scores, test.labels)
            checks.expect(rep.auc == m["auc"] and rep.auprc == m["auprc"],
                          f"{model_path}: saved model does not reproduce the reported test metrics")
            record["runs"].append({
                "report": report_path.relative_to(out).as_posix(),
                "report_sha256": _sha256(report_path),
                "model_sha256": _sha256(model_path),
                "moves_per_round": diag.get("moves_per_round"),
                "alpha_selected": diag.get("alpha_selected"),
            })
            scorer.consistency(test.features, checks)
            self.targets.append((scorer, test.features))
            test_metrics.append((m["auc"], m["auprc"]))
        for run in fits:
            checks.expect(bool((run.state.sizes > 0).all()), "a fitted cluster is empty")
            checks.expect(_non_increasing(run.cost_trace), "a fit's cost_trace increases")
        self.trajectories.append(record)
        if test_metrics:
            self.test_metrics.append(tuple(map(statistics.fmean, zip(*test_metrics))))
        shutil.rmtree(out, ignore_errors=True)
        return checks.failures


def _non_increasing(trace) -> bool:
    return all(b <= a + REL_TOL * abs(a) for a, b in zip(trace, trace[1:]))


def _corrupt_model(path: Path) -> None:
    """Self-test hook: move a saved model's first centroid far from the data."""
    d = json.loads(path.read_text(encoding="utf-8"))
    d["centroids"][0] = [c + 1e3 for c in d["centroids"][0]]
    path.write_text(json.dumps(d, indent=2), encoding="utf-8")


# --- score workload ---------------------------------------------------------

class ScoreWorkload:
    """Stream row batches and single rows through saved cac and deepcac models."""

    def __init__(self, pkg: dict, seed: int, size: str, work: Path, corrupt: bool):
        self.pkg, self.seed, self.work, self.corrupt = pkg, seed, work, corrupt
        self.p = SCORE[size]
        self.min_ops = self.p["min_ops"]
        self.test_metrics: list[tuple[float, float]] = []
        self.trajectories: list[dict] = []

    def setup(self) -> None:
        ds_mod, cac_engine, neural = self.pkg["dataset"], self.pkg["cac_engine"], self.pkg["neural"]
        classifiers, metrics = self.pkg["classifiers"], self.pkg["metrics"]
        p = self.p
        data = ds_mod.make_classification(ds_mod.SyntheticSpec(
            n_samples=p["n_samples"], n_features=p["n_features"], n_clusters=p["n_clusters"],
            ics=p["ics"], ocs=2.0, seed=self.seed))
        train, val, test = ds_mod.split(data, ds_mod.SplitSpec(*SCORE_SPLIT, seed=self.seed))
        train, mean, std = ds_mod.standardize(train)
        val = ds_mod.apply_standardization(val, mean, std)
        test = ds_mod.apply_standardization(test, mean, std)

        run = cac_engine.cac_fit(train, p["k"], 0.5, max_rounds=p["max_rounds"], seed=self.seed)
        local = classifiers.train_per_cluster(run.state, train, classifiers.ClassifierSpec(kind="logreg"))
        cac_text = cac_engine.cac_model_to_json(
            cac_engine.CacModel(run.state.centroids.copy(), local, 0.5, run.cost_trace))
        dc = dict(p["deepcac"])
        k = dc.pop("k")
        deep = neural.deepcac_fit(train, val, k, seed=self.seed, **dc)
        deep_text = neural.deepcac_model_to_json(deep)
        self.trajectories.append({
            "moves_per_round": run.moves_per_round,
            "model_sha256": [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in (cac_text, deep_text)],
        })

        self.scorer = Scorer(self.pkg, cac_engine.cac_model_from_json(cac_text),
                             neural.deepcac_model_from_json(deep_text))
        self.pool = test.features
        self.reference = self.scorer.batch(self.pool)
        self.test_metrics.append(tuple(statistics.fmean(f(s, test.labels) for s in self.reference)
                                       for f in (metrics.auc, metrics.auprc)))
        if self.corrupt:
            self.reference[0][0] += 0.25
        self.batch_s: list[float] = []
        self.row_s: list[float] = []

    def prepare(self, i: int):
        """Pass i's rows, drawn at random from the pool: batches, then single rows."""
        rng = np.random.default_rng([self.seed, i])
        n = self.pool.shape[0]
        batch_idx = [rng.integers(0, n, BATCH_ROWS) for _ in range(self.p["batches_per_pass"])]
        row_idx = rng.integers(0, n, self.p["rows_per_pass"])
        return batch_idx, [self.pool[idx] for idx in batch_idx], row_idx, self.pool[row_idx]

    def run(self, prepared) -> None:
        """One pass: each batch through both models, then each single row."""
        _, batches, _, rows = prepared
        self.out_batches, self.out_rows = [], []
        for x in batches:
            t = time.perf_counter()
            self.out_batches.append(self.scorer.batch(x))
            self.batch_s.append(time.perf_counter() - t)
        for row in rows:
            t = time.perf_counter()
            self.out_rows.append(self.scorer.single(row))
            self.row_s.append(time.perf_counter() - t)

    def check(self, i: int, prepared, fits: list) -> list[str]:
        batch_idx, _, row_idx, _ = prepared
        checks = Checks()
        for idx, outs in zip(batch_idx, self.out_batches):
            for m, scores in enumerate(outs):
                checks.expect(_close(scores, self.reference[m][idx]),
                              f"pass {i}: model {m} batch scores differ from set-up")
        for r, outs in zip(row_idx, self.out_rows):
            for m, score in enumerate(outs):
                checks.expect(_close(np.array([score]), self.reference[m][r:r + 1]),
                              f"pass {i}: model {m} row {r} score differs from set-up")
        return checks.failures


# --- the run --------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(args, pkg: dict) -> dict:
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_in(args, pkg, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(args, pkg: dict, work: Path) -> dict:
    from spans import FitCapture, Tracer, wrapper_cost_s

    traced = args.trace == 1
    tracer = Tracer(pkg) if traced else None
    if args.workload == "score":
        wl = ScoreWorkload(pkg, args.seed, args.size, work, args.corrupt)
    else:
        wl = FitWorkload(pkg, args.workload, args.seed, args.size, work, args.corrupt)

    if tracer:
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()
    setup_s = monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}
    setup_tally = _snapshot(tracer) if tracer else None
    replay_candidates = list(tracer.fits) if tracer else []

    capture = FitCapture(pkg)
    attempted = failed = 0
    failures: list[str] = []
    op_s: list[float] = []
    batch_s: list[float] = []
    row_s: list[float] = []
    replay = None
    if tracer:
        tracer.reset()

    def one_op(i: int) -> float:
        nonlocal attempted, failed
        prepared = wl.prepare(i)
        capture.runs.clear()
        attempted += 1
        errors: list[str] = []
        elapsed = math.nan
        if traced:
            tracer.install()
        try:
            t = time.perf_counter()
            wl.run(prepared)
            elapsed = time.perf_counter() - t
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            errors.append(traceback.format_exc(limit=3))
        finally:
            if traced:
                tracer.uninstall()
        if not errors:
            try:
                errors = wl.check(i, prepared, list(capture.runs))
            except Exception:  # noqa: BLE001 - a check that crashes is a failed check
                errors = [traceback.format_exc(limit=3)]
        if errors:
            failed += 1
            failures.extend(errors[:3])
        return elapsed

    start = time.perf_counter()
    step_s: list[float] = []
    i = 0
    while i < wl.min_ops or (time.perf_counter() - start) + _median(step_s) <= args.seconds:
        t = time.perf_counter()
        op_s.append(one_op(i))
        if traced and i == 0:
            replay_candidates += tracer.fits
        if not traced and isinstance(wl, FitWorkload) and wl.targets:
            timed_scoring(wl.targets, np.random.default_rng([args.seed, i]),
                          SCORE_SAMPLES // wl.min_ops, SCORE_SHARE * op_s[-1], batch_s, row_s)
        step_s.append(time.perf_counter() - t)
        i += 1
    capture.close()
    if replay_candidates:
        replay = _replay(pkg, replay_candidates)

    if isinstance(wl, ScoreWorkload):
        batch_s, row_s = wl.batch_s, wl.row_s
        attempted += 1
        consistency = Checks()
        wl.scorer.consistency(wl.pool, consistency)
        if consistency.failures:
            failed += 1
            failures.extend(consistency.failures)

    # the first min_ops operations always run, so these do not depend on speed
    first = wl.test_metrics[:wl.min_ops]
    auc = statistics.fmean(a for a, _ in first) if first else math.nan
    auprc = statistics.fmean(p for _, p in first) if first else math.nan
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "samples": {
            "wall_s": op_s,
            "batch_s": batch_s,
            "row_s": row_s,
        },
        "test_auc": auc,
        "test_auprc": auprc,
        "peak_rss_mb": peak_rss_mb(),
        "trajectories": wl.trajectories,
        "machine": machine_record(),
    }
    if traced:
        result["per_layer"] = _per_layer(tracer, setup_tally, op_s, replay, wrapper_cost_s())
    return result


def _snapshot(tracer) -> dict:
    return {"total": dict(tracer.total), "calls": dict(tracer.calls)}


def _replay(pkg: dict, fits: list) -> dict:
    """Re-run the fit with the most moves one round at a time, chaining the
    assignments; the per-round numbers count only if the chain reproduces
    the one-shot fit's moves_per_round and final assignments."""
    args, run = max(fits, key=lambda f: sum(f[1].moves_per_round))
    fit = pkg["cac_engine"].cac_fit
    assign = run.init_assignments
    n = assign.shape[0]
    round_s, moves = [], []
    for _ in range(run.rounds):
        t = time.perf_counter()
        step = fit(args["ds"], args["k"], args["alpha"], max_rounds=1, seed=args["seed"],
                   init_assignments=assign)
        round_s.append(time.perf_counter() - t)
        moves.append(step.moves_per_round[0])
        assign = step.state.assignments
    match = moves == list(run.moves_per_round) and np.array_equal(assign, run.state.assignments)
    late = [s for s, m in zip(round_s, moves) if m < LATE_ROUND_FRAC * n]
    return {"match": match, "round1_s": round_s[0], "round1_moved_frac": moves[0] / n,
            "round_late_s": _median(late)}


def _per_layer(tracer, setup_tally: dict, op_s: list[float], replay, call_cost_s: float) -> dict:
    """Per-layer metrics, per traced operation (model_from_json_s: per set-up).

    The tracer's overhead is its wrapped calls times the cost one wrapper
    adds to a call, measured in this process on a no-op function.
    """
    tot, calls, self_s, extra = tracer.total, tracer.calls, tracer.self_s, tracer.extra
    per = 1.0 / max(len(op_s), 1)
    runs_single = calls.get("experiments.run_single", 0)
    fit_self = self_s.get("cac_engine.fit", 0.0)
    ops = extra.get("fit_ops", 0.0)
    ok = replay is not None and replay["match"]
    out = {
        "cac_engine.fit_s": (tot["cac_engine.fit"] * per, "s"),
        "cac_engine.fit_calls": (calls["cac_engine.fit"] * per, "count"),
        "cac_engine.rounds": (extra["fit_rounds"] * per, "count"),
        "cac_engine.moves": (extra["fit_moves"] * per, "count"),
        "cac_engine.ops": (ops * per, "count"),
        "cac_engine.ns_per_op": (fit_self / ops * 1e9 if ops else 0.0, "ns"),
        "cac_engine.round1_s": (replay["round1_s"] if ok else 0.0, "s"),
        "cac_engine.round1_moved_frac": (replay["round1_moved_frac"] if ok else 0.0, "frac"),
        "cac_engine.round_late_s": (replay["round_late_s"] if ok else 0.0, "s"),
        "cac_engine.replay_match": (1.0 if replay is None or replay["match"] else 0.0, "flag"),
        "cac_engine.predict_batch_s": (tot["cac_engine.predict_batch"] * per, "s"),
        "cac_engine.route_s": (self_s["cac_engine.predict_batch"] * per, "s"),
        "cac_engine.predict_single_s": (tot["cac_engine.predict_single"] * per, "s"),
        "cac_engine.model_from_json_s": (setup_tally["total"].get("cac_engine.model_from_json", 0.0), "s"),
        "experiments.select_alpha_s": (tot["experiments.select_alpha"] * per, "s"),
        "experiments.cac_fit_per_seed": (extra["fits_in_run_single"] / runs_single if runs_single else 0.0,
                                         "count"),
        "experiments.io_s": ((tot["experiments.run_task"] - tot["experiments.run_single"]) * per, "s"),
        "cluster_core.kmeanspp_s": (tot["cluster_core.kmeanspp"] * per, "s"),
        "cluster_core.lloyd_s": (tot["cluster_core.lloyd"] * per, "s"),
        "cluster_core.lloyd_calls": (calls["cluster_core.lloyd"] * per, "count"),
        "cluster_core.silhouette_s": (tot["cluster_core.silhouette"] * per, "s"),
        "cluster_core.silhouette_calls": (calls["cluster_core.silhouette"] * per, "count"),
        "classifiers.train_s": (tot["classifiers.train"] * per, "s"),
        "classifiers.train_calls": (calls["classifiers.train_one"] * per, "count"),
        "classifiers.predict_s": (tot["classifiers.predict"] * per, "s"),
        "neural.pretrain_s": (tot["neural.pretrain"] * per, "s"),
        "neural.init_clusters_s": (tot["neural.init_clusters"] * per, "s"),
        "neural.forward_backward_s": (tot["neural.forward_backward"] * per, "s"),
        "neural.centroid_update_s": (tot["neural.centroid_update"] * per, "s"),
        "neural.stage2_s": (extra["stage2_s"] * per, "s"),
        "neural.stage2_steps": (calls["neural.forward_backward"] * per, "count"),
        "neural.local_s": (extra["local_s"] * per, "s"),
        "neural.local_epochs": (extra["local_epochs"] * per, "count"),
        "neural.predict_batch_s": (tot["neural.predict_batch"] * per, "s"),
        "dataset.s": (tot["dataset"] * per, "s"),
        "metrics.s": (tot["metrics"] * per, "s"),
        "trace.wall_s": (_median(op_s), "s"),
        "trace.wrapped_calls": (sum(calls.values()) * per, "count"),
        "trace.overhead_s": (sum(calls.values()) * per * call_cost_s, "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in out.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted([*FIT_WORKLOADS, "score"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC when the process was spawned")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true", help="self-test: damage one output per run")
    args = parser.parse_args(argv)
    pkg = _import_package()
    result = run_workload(args, pkg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
