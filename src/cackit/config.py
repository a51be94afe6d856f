"""Experiment configuration: defaults, schema validation and overrides."""

from __future__ import annotations

import copy
import dataclasses
import functools

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
    "split": dataclasses.asdict(SplitSpec()),
    "model": {
        "k": 2,
        "alpha": 0.5,
        "alpha_grid": [0.01, 0.05, 0.5, 2.5, 3.0],
        "max_rounds": 100,
        "baseline": "km",
        "classifier": dataclasses.asdict(ClassifierSpec()),
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


# narrowings of the rule a leaf's default implies: a fixed set of choices, a number that
# must be positive, or a number that may take either sign. The deepcac loss weights, margin
# and epoch counts stay >= 0, since kmz and the beta sweep axis use 0.
CHOICES = {"version": (1,), "task": TASKS, "model.baseline": BASELINES,
           "sweep.task": ("fit-cac", "fit-deepcac", "baseline")}
POSITIVE = {"model.k", "sweep.max_runs"} | {
    f"model.deepcac.{key}" for key in ("batch_size", "hidden", "latent", "local_hidden",
                                       "patience", "lr", "local_lr", "delta", "scale")}
SIGNED = {"model.alpha", "model.alpha_grid"}
# sections checked by building the spec that consumes them
SPECS = {"split": SplitSpec, "dataset.synthetic": SyntheticSpec, "model.classifier": ClassifierSpec}
# most entries the gate lets the config give one array: 2**31 float64 entries are 16 GiB,
# and a run holds several arrays of its data's size, so a larger one cannot run in memory
MAX_ARRAY_ELEMENTS = 2**31
# the (rows, columns) fields of every array whose size the config sets: the synthetic
# feature matrix and the DeepCAC encoder and local-net weight matrices
SIZED_ARRAYS = (("dataset.synthetic.n_samples", "dataset.synthetic.n_features"),
                ("dataset.synthetic.n_features", "model.deepcac.hidden"),
                ("model.deepcac.hidden", "model.deepcac.latent"),
                ("model.deepcac.latent", "model.deepcac.local_hidden"))


def _check_leaf(value, default, field: str) -> None:
    """Require the type of the leaf's default: a bool, an integer >= 0, a finite number
    >= 0, a non-empty string, or a non-empty list whose items follow the first default
    item; then apply the leaf's narrowing."""
    if isinstance(default, list):
        if not (isinstance(value, list) and value):
            raise ConfigInvalid(field, "must be a non-empty list")
        for item in value:
            _check_leaf(item, default[0], field)
        return
    if isinstance(default, bool):
        ok, rule = isinstance(value, bool), "true or false"
    elif isinstance(default, str):
        ok, rule = isinstance(value, str) and value != "", "a non-empty string"
    else:
        ok, rule = ((_is_int(value), "an integer") if isinstance(default, int)
                    else (_is_number(value), "a finite number"))
        if field in POSITIVE:
            ok, rule = ok and value > 0, f"{rule} > 0"
        elif field not in SIGNED:
            ok, rule = ok and value >= 0, f"{rule} >= 0"
    if ok and field in CHOICES:
        ok, rule = value in CHOICES[field], f"one of {CHOICES[field]}"
    if not ok:
        raise ConfigInvalid(field, f"must be {rule}, got {value!r}")


def _check(node: dict, defaults: dict, path: str) -> None:
    """Check every leaf of a merged config against its default, section by section."""
    for key, default in defaults.items():
        field, value = f"{path}.{key}" if path else key, node[key]
        if field in SPECS:
            try:
                SPECS[field](**value)
            except (TypeError, InvalidSpec) as exc:
                raise ConfigInvalid(field, str(exc)) from None
        elif field == "dataset.csv":
            if not (value is None or (isinstance(value, str) and value != "")):
                raise ConfigInvalid(field, "must be null or a non-empty path")
        elif field == "sweep.axes":
            if not isinstance(value, dict):
                raise ConfigInvalid(field, "must be a mapping of axis -> values")
            for name, values in value.items():
                if not (isinstance(values, list) and values):
                    raise ConfigInvalid(f"{field}.{name}", "must be a non-empty list")
                resolve_axis(name)  # raises on unknown axes
        elif isinstance(default, dict):
            _check(value, default, field)
        elif not (field == "model.alpha" and value == "auto"):
            _check_leaf(value, default, field)


def _check_sizes(cfg: dict) -> None:
    """Reject an array of SIZED_ARRAYS with more than MAX_ARRAY_ELEMENTS entries, before
    anything allocates; the error names the larger dimension's field (its section, for a
    spec-backed field)."""
    for fields in SIZED_ARRAYS:
        dims = [int(functools.reduce(dict.__getitem__, f.split("."), cfg)) for f in fields]
        if dims[0] * dims[1] > MAX_ARRAY_ELEMENTS:
            field = fields[dims.index(max(dims))]
            section = field.rpartition(".")[0]
            raise ConfigInvalid(section if section in SPECS else field,
                                f"{fields[0]} * {fields[1]} = {dims[0] * dims[1]} entries, "
                                f"above the cap of {MAX_ARRAY_ELEMENTS}")


def validate_config(raw: dict) -> dict:
    """Overlay onto the defaults, reject unknown keys, check every leaf, and cap the size
    of every array the config sizes."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("", "config root must be a mapping")
    cfg = _merge(DEFAULTS, raw, "")
    _check(cfg, DEFAULTS, "")
    _check_sizes(cfg)
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
    path = AXIS_ALIASES.get(name, str(name))
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
