"""Strict JSON experiment configuration: unknown keys rejected, defaults filled."""
from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass

from .losses import DistillParams
from .tensor import ContractError
from .training import TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "canonical_config"]


class ConfigError(ValueError):
    """Configuration file problem; the message names the offending JSON path."""


@dataclass
class ExperimentConfig:
    dataset: dict                 # {"synthetic": {...}} or {"idx": {...}}
    partition_seed: int
    backbone: dict                # overrides; input size / classes come from data
    train: TrainConfig
    hyperopt: dict
    output_dir: str
    repeat_seeds: list


SYNTHETIC_DEFAULTS = {"n": 1000, "classes": 4, "height": 32, "width": 32,
                      "noise_std": 0.15, "seed": 0}

_DEFAULTS = {
    "dataset": {"synthetic": dict(SYNTHETIC_DEFAULTS)},
    "partition_seed": 0,
    "backbone": {},
    "train": {},
    "hyperopt": {"enabled": False, "n_trials": 5, "seed": 0},
    "output_dir": "runs/default",
    "repeat_seeds": [0],
}

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}
_DISTILL_KEYS = {f.name for f in dataclasses.fields(DistillParams)}
_BACKBONE_KEYS = {"conv_blocks", "fc_width"}
_HYPEROPT_KEYS = {"enabled", "n_trials", "seed"}


def _reject_unknown(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key at {path}.{key}")


def _require_range(value, lo, hi, path):
    if not (lo <= value <= hi):
        raise ConfigError(f"value {value} at {path} outside [{lo}, {hi}]")


def parse_config(path) -> ExperimentConfig:
    """Load and validate an experiment JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(raw, _DEFAULTS.keys(), "$")
    merged = {**_DEFAULTS, **raw}

    dataset = merged["dataset"]
    _reject_unknown(dataset, {"synthetic", "idx"}, "$.dataset")
    if ("synthetic" in dataset) == ("idx" in dataset):
        raise ConfigError("exactly one of $.dataset.synthetic or $.dataset.idx must be present")
    if "synthetic" in dataset:
        syn = {**SYNTHETIC_DEFAULTS, **dataset["synthetic"]}
        _reject_unknown(dataset["synthetic"], SYNTHETIC_DEFAULTS.keys(), "$.dataset.synthetic")
        if not 2 <= syn["classes"] <= 8:
            raise ConfigError(f"value {syn['classes']} at $.dataset.synthetic.classes outside [2, 8]")
        dataset = {"synthetic": syn}
    else:
        idx = dataset["idx"]
        _reject_unknown(idx, {"images", "labels"}, "$.dataset.idx")
        for key in ("images", "labels"):
            if key not in idx:
                raise ConfigError(f"missing $.dataset.idx.{key}")
        dataset = {"idx": dict(idx)}

    backbone = dict(merged["backbone"])
    _reject_unknown(backbone, _BACKBONE_KEYS, "$.backbone")

    train_raw = dict(merged["train"])
    _reject_unknown(train_raw, _TRAIN_KEYS, "$.train")
    distill_raw = dict(train_raw.pop("distill", {}))
    _reject_unknown(distill_raw, _DISTILL_KEYS, "$.train.distill")
    if "alpha" in distill_raw:
        _require_range(distill_raw["alpha"], 0.0, 1.0, "$.train.distill.alpha")
    try:
        distill = DistillParams(**distill_raw)
    except ContractError as exc:
        raise ConfigError(f"$.train.distill: {exc}") from exc
    if "stage_attention" in train_raw:
        train_raw["stage_attention"] = tuple(train_raw["stage_attention"])
    try:
        train = TrainConfig(distill=distill, **train_raw)
    except ContractError as exc:
        # TrainConfig's messages start with the name of the field they reject
        key = str(exc).split(" ", 1)[0]
        path = f"$.train.{key}" if key in _TRAIN_KEYS else "$.train"
        raise ConfigError(f"{path}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"$.train: {exc}") from exc

    hyperopt = {**_DEFAULTS["hyperopt"], **merged["hyperopt"]}
    _reject_unknown(merged["hyperopt"], _HYPEROPT_KEYS, "$.hyperopt")
    n_trials = hyperopt["n_trials"]
    if not isinstance(n_trials, numbers.Integral) or n_trials < 1:
        raise ConfigError(f"value {n_trials!r} at $.hyperopt.n_trials must be an integer >= 1")

    repeat_seeds = list(merged["repeat_seeds"])
    if not repeat_seeds:
        raise ConfigError("$.repeat_seeds must contain at least one seed")

    return ExperimentConfig(
        dataset=dataset,
        partition_seed=int(merged["partition_seed"]),
        backbone=backbone,
        train=train,
        hyperopt=hyperopt,
        output_dir=str(merged["output_dir"]),
        repeat_seeds=repeat_seeds,
    )


def canonical_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON snapshot; re-parsing it reproduces the config exactly."""
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)
