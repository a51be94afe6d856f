"""Experiment configuration: defaults, schema validation and overrides."""

from __future__ import annotations

import copy

import yaml

from .classifiers import ClassifierSpec
from .dataset import SplitSpec, SyntheticSpec, _is_int, _is_number
from .errors import ConfigInvalid, InvalidSpec

TASKS = ("synth", "fit-cac", "fit-deepcac", "baseline", "sweep")
BASELINES = ("km", "bare", "kmz")

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


def _require(cond: bool, field: str, reason: str) -> None:
    if not cond:
        raise ConfigInvalid(field, reason)


def _check_sections(cfg: dict) -> None:
    """Build the spec that consumes each spec-backed section, so its rules reject bad values."""
    for field, spec, section in (("split", SplitSpec, cfg["split"]),
                                 ("dataset.synthetic", SyntheticSpec, cfg["dataset"]["synthetic"]),
                                 ("model.classifier", ClassifierSpec, cfg["model"]["classifier"])):
        try:
            spec(**section)
        except (TypeError, ValueError, InvalidSpec) as exc:
            raise ConfigInvalid(field, str(exc)) from None


def validate_config(raw: dict) -> dict:
    """Overlay onto the defaults, reject unknown keys, and sanity-check values."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("", "config root must be a mapping")
    cfg = _merge(DEFAULTS, raw, "")
    _require(cfg["version"] == 1, "version", f"unsupported version {cfg['version']!r}")
    _require(cfg["task"] in TASKS, "task", f"must be one of {TASKS}")
    _require(cfg["model"]["baseline"] in BASELINES, "model.baseline", f"must be one of {BASELINES}")
    _check_sections(cfg)
    data = cfg["dataset"]
    _require(data["csv"] is None or (isinstance(data["csv"], str) and data["csv"] != ""),
             "dataset.csv", "must be null or a non-empty path")
    for field, value in (("dataset.label_column", data["label_column"]), ("output_dir", cfg["output_dir"])):
        _require(isinstance(value, str) and value != "", field, "must be a non-empty string")
    for field, value in (("dataset.has_header", data["has_header"]),
                         ("dataset.standardize", data["standardize"]),
                         ("sweep.save_models", cfg["sweep"]["save_models"])):
        _require(isinstance(value, bool), field, "must be true or false")
    _require(_is_int(cfg["sweep"]["max_runs"]) and cfg["sweep"]["max_runs"] >= 1,
             "sweep.max_runs", "must be an integer >= 1")
    model = cfg["model"]
    _require(_is_int(model["k"]) and model["k"] >= 1, "model.k", "must be a positive integer")
    _require(_is_int(model["max_rounds"]) and model["max_rounds"] >= 0,
             "model.max_rounds", "must be a non-negative integer")
    grid = model["alpha_grid"]
    _require(isinstance(grid, list) and grid and all(_is_number(a) for a in grid),
             "model.alpha_grid", "must be a non-empty list of finite numbers")
    alpha = model["alpha"]
    _require(alpha == "auto" or _is_number(alpha), "model.alpha", "must be a finite number or 'auto'")
    _require(isinstance(cfg["seeds"], list) and cfg["seeds"]
             and all(_is_int(s) and s >= 0 for s in cfg["seeds"]),
             "seeds", "must be a non-empty list of integers >= 0")
    deep = model["deepcac"]
    # step sizes and the head scale must be positive; loss weights and the margin may be
    # zero (kmz and the beta sweep axis use 0)
    for key in ("lr", "local_lr", "delta", "scale"):
        _require(_is_number(deep[key]) and deep[key] > 0, f"model.deepcac.{key}",
                 "must be a finite number > 0")
    for key in ("alpha", "beta", "margin"):
        _require(_is_number(deep[key]) and deep[key] >= 0, f"model.deepcac.{key}",
                 "must be a finite number >= 0")
    # sizes must be positive; epoch counts may be zero
    for key, low in (("batch_size", 1), ("hidden", 1), ("latent", 1), ("local_hidden", 1),
                     ("patience", 1), ("epochs", 0), ("pretrain_epochs", 0), ("local_epochs", 0)):
        _require(_is_int(deep[key]) and deep[key] >= low, f"model.deepcac.{key}",
                 f"must be an integer >= {low}")
    _require(cfg["sweep"]["task"] in ("fit-cac", "fit-deepcac", "baseline"),
             "sweep.task", "must be a runnable per-seed task")
    axes = cfg["sweep"]["axes"]
    _require(isinstance(axes, dict), "sweep.axes", "must be a mapping of axis -> values")
    for name, values in axes.items():
        _require(isinstance(values, list) and values,
                 f"sweep.axes.{name}", "must be a non-empty list")
        resolve_axis(name)  # raises on unknown axes
    return cfg


def _walk(node: dict, dotted: str, field: str, reason: str) -> tuple[dict, str]:
    """The mapping that holds a dotted path's last key, and that key; the path must exist."""
    *parents, key = dotted.split(".")
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or key not in node:
        raise ConfigInvalid(field, reason)
    return node, key


def resolve_axis(name: str) -> str:
    """Map a sweep axis name (alias or dotted path) to its config path."""
    path = AXIS_ALIASES.get(name, name)
    _walk(DEFAULTS, path, f"sweep.axes.{name}", f"no config entry at {path!r}")
    return path


def set_path(cfg: dict, dotted: str, value) -> None:
    """Apply one --set override; the path must already exist in the schema."""
    node, key = _walk(cfg, dotted, dotted, "unknown config path")
    node[key] = value


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
