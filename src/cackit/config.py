"""Experiment configuration: defaults, schema validation and overrides."""

from __future__ import annotations

import copy

import yaml

from .classifiers import ClassifierSpec
from .errors import ConfigInvalid

TASKS = ("synth", "fit-cac", "fit-deepcac", "baseline", "sweep")
BASELINES = ("km", "bare", "kmz")
WARPS = ("none", "sin")

# every recognized key with its default; unknown keys are rejected outright
DEFAULTS: dict = {
    "version": 1,
    "task": "fit-cac",
    "dataset": {
        "csv": None,
        "label_column": "y",
        "has_header": True,
        "standardize": True,
        "synthetic": {
            "n_samples": 2000,
            "n_features": 10,
            "n_clusters": 2,
            "ics": 1.0,
            "ocs": 2.0,
            "seed": 0,
            "warp": "none",
        },
    },
    "split": {
        "train_frac": 0.57,
        "val_frac": 0.18,
        "test_frac": 0.25,
        "seed": 0,
        "stratified": True,
    },
    "model": {
        "k": 2,
        "alpha": 0.5,
        "alpha_grid": [0.01, 0.05, 0.5, 2.5, 3.0],
        "max_rounds": 100,
        "baseline": "km",
        "classifier": {
            "kind": "logreg",
            "learning_rate": 0.1,
            "l2_penalty": 1e-4,
            "epochs": 500,
            "k_neighbors": 5,
            "ridge_lambda": 1.0,
        },
        "deepcac": {
            "alpha": 5.0,
            "beta": 20.0,
            "delta": 1.0,
            "scale": 30.0,
            "margin": 0.35,
            "lr": 2e-3,
            "epochs": 20,
            "pretrain_epochs": 50,
            "local_epochs": 200,
            "local_lr": 0.05,
            "batch_size": 128,
            "hidden": 64,
            "latent": 32,
            "local_hidden": 30,
            "patience": 10,
        },
    },
    "seeds": [0],
    "sweep": {
        "task": "fit-cac",
        "axes": {},
        "max_runs": 512,
        "save_models": False,
    },
    "output_dir": "out",
}

# short axis names accepted in sweep specs
AXIS_ALIASES = {
    "ics": "dataset.synthetic.ics",
    "ocs": "dataset.synthetic.ocs",
    "K": "dataset.synthetic.n_clusters",
    "n": "dataset.synthetic.n_samples",
    "d": "dataset.synthetic.n_features",
    "k": "model.k",
    "alpha": "model.alpha",
    "beta": "model.deepcac.beta",
}


def _merge(defaults: dict, given: dict, path: str) -> dict:
    """Recursively overlay `given` onto `defaults`, rejecting unknown keys."""
    out = {}
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if key not in given:
            out[key] = copy.deepcopy(default)
        elif isinstance(default, dict) and default:
            if given[key] is None:
                out[key] = copy.deepcopy(default)
            elif not isinstance(given[key], dict):
                raise ConfigInvalid(here, f"expected a mapping, got {type(given[key]).__name__}")
            else:
                out[key] = _merge(default, given[key], here)
        else:
            out[key] = copy.deepcopy(given[key])
    for key in given:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigInvalid(here, "unknown key")
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(cond: bool, field: str, reason: str) -> None:
    if not cond:
        raise ConfigInvalid(field, reason)


def validate_config(raw: dict) -> dict:
    """Overlay onto the defaults, reject unknown keys, and sanity-check values."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("", "config root must be a mapping")
    cfg = _merge(DEFAULTS, raw, "")
    _require(cfg["version"] == 1, "version", f"unsupported version {cfg['version']!r}")
    _require(cfg["task"] in TASKS, "task", f"must be one of {TASKS}")
    _require(cfg["model"]["baseline"] in BASELINES, "model.baseline", f"must be one of {BASELINES}")
    try:
        ClassifierSpec(**cfg["model"]["classifier"])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("model.classifier", str(exc)) from None
    _require(cfg["dataset"]["synthetic"]["warp"] in WARPS,
             "dataset.synthetic.warp", f"must be one of {WARPS}")
    model = cfg["model"]
    _require(_is_int(model["k"]) and model["k"] >= 1, "model.k", "must be a positive integer")
    _require(_is_int(model["max_rounds"]) and model["max_rounds"] >= 0,
             "model.max_rounds", "must be a non-negative integer")
    grid = model["alpha_grid"]
    _require(isinstance(grid, list) and grid
             and all(isinstance(a, float) or _is_int(a) for a in grid),
             "model.alpha_grid", "must be a non-empty list of numbers")
    alpha = model["alpha"]
    _require(alpha == "auto" or isinstance(alpha, (int, float)),
             "model.alpha", "must be a number or 'auto'")
    _require(isinstance(cfg["seeds"], list) and cfg["seeds"]
             and all(isinstance(s, int) for s in cfg["seeds"]),
             "seeds", "must be a non-empty list of integers")
    _require(cfg["model"]["deepcac"]["delta"] > 0, "model.deepcac.delta", "must be positive")
    _require(cfg["sweep"]["task"] in ("fit-cac", "fit-deepcac", "baseline"),
             "sweep.task", "must be a runnable per-seed task")
    axes = cfg["sweep"]["axes"]
    _require(isinstance(axes, dict), "sweep.axes", "must be a mapping of axis -> values")
    for name, values in axes.items():
        _require(isinstance(values, list) and values,
                 f"sweep.axes.{name}", "must be a non-empty list")
        resolve_axis(name)  # raises on unknown axes
    for frac in ("train_frac", "val_frac", "test_frac"):
        _require(0 < cfg["split"][frac] < 1, f"split.{frac}", "must lie in (0, 1)")
    return cfg


def resolve_axis(name: str) -> str:
    """Map a sweep axis name (alias or dotted path) to its config path."""
    path = AXIS_ALIASES.get(name, name)
    node = DEFAULTS
    parts = path.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigInvalid(f"sweep.axes.{name}", f"no config entry at {path!r}")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigInvalid(f"sweep.axes.{name}", f"no config entry at {path!r}")
    return path


def set_path(cfg: dict, dotted: str, value) -> None:
    """Apply one --set override; the path must already exist in the schema."""
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigInvalid(dotted, "unknown config path")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigInvalid(dotted, "unknown config path")
    node[parts[-1]] = value


def parse_override(text: str) -> tuple[str, object]:
    """Split a KEY=VALUE override; the value is parsed as YAML for typing."""
    if "=" not in text:
        raise ConfigInvalid(text, "overrides take the form key.path=value")
    key, _, value = text.partition("=")
    try:
        parsed = yaml.safe_load(value)
    except yaml.YAMLError as exc:
        raise ConfigInvalid(key, f"could not parse value {value!r}: {exc}") from None
    return key.strip(), parsed


def load_config(path) -> dict:
    """Read a YAML config file and validate it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigInvalid(str(path), f"not valid YAML: {exc}") from None
    return validate_config(raw if raw is not None else {})
