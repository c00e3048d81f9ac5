"""Strict JSON experiment configuration: one walk over a schema built from the defaults."""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .backbone import BackboneConfig
from .losses import DistillParams
from .tensor import ContractError, ShapeError
from .training import TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "canonical_config"]


class ConfigError(ValueError):
    """Configuration file problem; the message names the offending JSON path."""


@dataclass
class ExperimentConfig:
    dataset: dict                 # {"synthetic": {...}} or {"idx": {...}}
    partition_seed: int
    backbone: dict                # conv_blocks, fc_width; input size / classes come from data
    train: TrainConfig
    hyperopt: dict
    output_dir: str
    repeat_seeds: list


SYNTHETIC_DEFAULTS = {"n": 1000, "classes": 4, "height": 32, "width": 32,
                      "noise_std": 0.15, "seed": 0}


class _OneOf(dict):
    """A schema section that holds exactly one of its keys; an empty one holds the first."""


# Each value is the default; a type stands for a required value of that type.
_SCHEMA = {
    "dataset": _OneOf(synthetic=SYNTHETIC_DEFAULTS, idx={"images": str, "labels": str}),
    "partition_seed": 0,
    "backbone": {key: getattr(BackboneConfig, key) for key in ("conv_blocks", "fc_width")},
    "train": dataclasses.asdict(TrainConfig()),
    "hyperopt": {"n_trials": 5, "seed": 0},
    "output_dir": "runs/default",
    "repeat_seeds": [0],
}

_TYPE_NAMES = {bool: "a boolean", int: "an integer >= 0", float: "a finite number",
               str: "a string"}


def _finite(number):
    """False for inf, nan and an integer beyond the float range."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _resolve(value, default, path):
    """`value` checked against the type of `default` and filled from it.

    A float also takes an int that converts to a finite float, nothing takes
    a bool unless its default is one, integers are non-negative, a list is
    non-empty and each item has the type of the default's first item, and a
    dict is a section: unknown keys are rejected and missing keys are filled.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {value!r}")
        for key in value:
            if key not in default:
                raise ConfigError(f"unknown key at {path}.{key}")
        if isinstance(default, _OneOf):
            if len(value) > 1:
                raise ConfigError(f"{path} must hold exactly one of {', '.join(default)}")
            default = {key: default[key] for key in (value or list(default)[:1])}
        out = {}
        for key, d in default.items():
            if key not in value and isinstance(d, type):
                raise ConfigError(f"missing {path}.{key}")
            out[key] = _resolve(value.get(key, {} if isinstance(d, dict) else d), d,
                                f"{path}.{key}")
        return out
    if isinstance(default, (list, tuple)):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        return type(default)(_resolve(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    kind = default if isinstance(default, type) else type(default)
    if (not isinstance(value, (int, float) if kind is float else kind)
            or (isinstance(value, bool) and kind is not bool)
            or (kind is float and not _finite(value))
            or (kind is int and value < 0)):
        raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _build(cls, fields, path, **fixed):
    """cls(**fixed, **fields), with a rejection reported at the path of the field it names."""
    try:
        return cls(**fixed, **fields)
    except (ContractError, ShapeError) as exc:
        # the dataclasses' and generate_synthetic's messages start with the key they reject
        key = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{path}.{key}: {exc}" if key in fields else f"{path}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    """Load and validate an experiment JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    cfg = _resolve(raw, _SCHEMA, "$")
    seeds = cfg["repeat_seeds"]
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"$.repeat_seeds[{i}] repeats seed {seed}")
    n_trials = cfg["hyperopt"]["n_trials"]
    if n_trials < 1:
        raise ConfigError(f"$.hyperopt.n_trials must be >= 1, got {n_trials}")
    train = cfg["train"]
    train["distill"] = _build(DistillParams, train["distill"], "$.train.distill")
    cfg["train"] = _build(TrainConfig, train, "$.train")
    return ExperimentConfig(**cfg)


def canonical_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON snapshot; re-parsing it reproduces the config exactly."""
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)
