"""Call timing for the traced run of the cackit benchmark.

The package is not changed. Each timed function is replaced, for the
duration of a traced operation, at every module attribute of the package
that holds it: ``cackit.cac_engine.cac_fit`` and the ``cac_fit`` name that
other modules imported, ``cackit.experiments.silhouette`` as well as
``cackit.cluster_core.silhouette``, and so on. Callers look those names up
at call time, so every call goes through the wrapper.

Per key the tracer keeps the call count, the inclusive time of the
outermost calls (a recursive or nested call of the same key is not counted
twice) and the self time (the call minus the wrapped calls it made).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict

# (module, function) -> span key. dataset and metrics are timed as one layer each.
SPANS = {
    ("experiments", "run_task"): "experiments.run_task",
    ("experiments", "run_single"): "experiments.run_single",
    ("experiments", "select_alpha"): "experiments.select_alpha",
    ("cac_engine", "cac_fit"): "cac_engine.fit",
    ("cac_engine", "cac_predict_batch"): "cac_engine.predict_batch",
    ("cac_engine", "cac_predict"): "cac_engine.predict_single",
    ("cac_engine", "cac_model_from_json"): "cac_engine.model_from_json",
    ("cluster_core", "kmeanspp_init"): "cluster_core.kmeanspp",
    ("cluster_core", "lloyd"): "cluster_core.lloyd",
    ("cluster_core", "silhouette"): "cluster_core.silhouette",
    ("classifiers", "train_per_cluster"): "classifiers.train",
    ("classifiers", "train_classifier"): "classifiers.train_one",
    ("classifiers", "predict_proba_batch"): "classifiers.predict",
    ("neural", "deepcac_fit"): "neural.deepcac_fit",
    ("neural", "pretrain"): "neural.pretrain",
    ("neural", "init_latent_clusters"): "neural.init_clusters",
    ("neural", "forward_backward"): "neural.forward_backward",
    ("neural", "update_centroids_online"): "neural.centroid_update",
    ("neural", "deepcac_predict_batch"): "neural.predict_batch",
}
WHOLE_MODULE_SPANS = ("dataset", "metrics")


def _public_functions(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == module.__name__]


class Patcher:
    """Replace function objects at every package attribute that holds them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, replacements: dict) -> None:
        """`replacements` maps id(current function) -> (function, replacement)."""
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, name, value))
                    setattr(module, name, hit[1])

    def restore(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


class FitCapture:
    """Keeps every `cac_fit` result for the output checks; times nothing."""

    def __init__(self, modules: dict):
        self.runs: list = []
        self._patcher = Patcher(modules)
        fit = modules["cac_engine"].cac_fit
        runs = self.runs

        @functools.wraps(fit)
        def capture(*args, **kwargs):
            run = fit(*args, **kwargs)
            runs.append(run)
            return run

        self._patcher.patch({id(fit): (fit, capture)})

    def close(self) -> None:
        self._patcher.restore()


class Tracer:
    """Span timing around the package's public functions, one phase at a time.

    `install()` wraps, `uninstall()` puts the previous objects back, so
    operations run between the two are traced and all others are not.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self._patcher = Patcher(modules)
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.fits: list[tuple[dict, object]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._last_exit: dict[str, float] = {}

    def install(self) -> None:
        replacements = {}
        for (mod, name), key in SPANS.items():
            fn = getattr(self.modules[mod], name)
            replacements[id(fn)] = (fn, self._wrap(key, fn))
        for mod in WHOLE_MODULE_SPANS:
            module = self.modules[mod]
            for name in _public_functions(module):
                fn = getattr(module, name)
                replacements[id(fn)] = (fn, self._wrap(mod, fn))
        self._patcher.patch(replacements)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, key: str, fn):
        enter, leave = self._hooks(key, fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = self._depth[key] == 0
            self._depth[key] += 1
            children = [0.0]
            self._stack.append(children)
            token = enter(args, kwargs) if enter else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dur = end - start
                self._stack.pop()
                self._depth[key] -= 1
                if self._stack:
                    self._stack[-1][0] += dur
                self.calls[key] += 1
                if outermost:
                    self.total[key] += dur
                self.self_s[key] += dur - children[0]
                self._last_exit[key] = end
            if leave:
                leave(token, args, kwargs, result, dur, dur - children[0])
            return result

        return span

    def _hooks(self, key: str, fn):
        if key == "cac_engine.fit":
            signature = inspect.signature(fn)

            def leave_fit(_token, args, kwargs, run, _dur, _self_dur):
                self.extra["fit_rounds"] += run.rounds
                self.extra["fit_moves"] += sum(run.moves_per_round)
                self.extra["fit_ops"] += sum(run.ops_per_round)
                if self._depth["experiments.run_single"] > 0:
                    self.extra["fits_in_run_single"] += 1
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.fits.append((dict(bound.arguments), run))

            return None, leave_fit
        if key == "neural.deepcac_fit":
            parts = ("neural.pretrain", "neural.init_clusters")

            def enter_deep(_args, _kwargs):
                for k in ("neural.init_clusters", "neural.centroid_update"):
                    self._last_exit.pop(k, None)
                return {k: self.total[k] for k in parts}

            def leave_deep(before, _args, _kwargs, model, dur, _self_dur):
                start2 = self._last_exit.get("neural.init_clusters")
                end2 = self._last_exit.get("neural.centroid_update")
                stage2 = end2 - start2 if start2 is not None and end2 is not None and end2 > start2 else 0.0
                spent = sum(self.total[k] - before[k] for k in parts)
                self.extra["stage2_s"] += stage2
                self.extra["local_s"] += dur - spent - stage2
                self.extra["local_epochs"] += len(model.history.get("val_auprc", []))

            return enter_deep, leave_deep
        return None, None


def wrapper_cost_s(repeats: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op function:
    the median of five timed loops, wrapped minus bare."""

    def noop():
        return None

    wrapped = Tracer({})._wrap("noop", noop)

    def loop(fn) -> float:
        t = time.perf_counter()
        for _ in range(repeats):
            fn()
        return time.perf_counter() - t

    return max(0.0, statistics.median(loop(wrapped) - loop(noop) for _ in range(5)) / repeats)
