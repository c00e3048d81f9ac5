"""Experiment driver: config -> dataset -> chain run -> run-directory artifacts."""
from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import replace

import numpy as np

from .backbone import BackboneConfig
from .config import ExperimentConfig, _build, canonical_config
from .data import LabeledDataset, generate_synthetic, load_idx, partition
from .metrics import confusion_matrix, prf1, roc_auc_ovr, theory_report
from .losses import ce_loss, softmax_temperature
from .tensor import ContractError
from .tpe import SearchSpace, run_study
from .training import (
    ChainResult,
    at_checkpoint_precision,
    evaluate,
    logits_of,
    loss_accuracy,
    run_chain,
    save_checkpoint,
)

__all__ = ["load_dataset", "backbone_for", "score_chain", "deltas", "run_experiment",
           "tune_experiment", "evaluate_model"]


def load_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    if "synthetic" in cfg.dataset:
        s = cfg.dataset["synthetic"]
        return generate_synthetic(s["n"], s["classes"], (s["height"], s["width"]),
                                  s["noise_std"], s["seed"])
    images, labels = cfg.dataset["idx"]["images"], cfg.dataset["idx"]["labels"]
    dataset = load_idx(images, labels)
    if len(dataset) < 20:
        raise ContractError(f"{images} holds {len(dataset)} images; training needs at least 20, "
                            "so that each 10% subset has one image to train on and one to validate")
    if dataset.num_classes < 2:  # load_idx takes K from the largest label
        raise ContractError(f"{labels}: every label is 0; training needs 2 classes")
    return dataset


def backbone_for(cfg: ExperimentConfig, dataset: LabeledDataset) -> BackboneConfig:
    """The configured backbone sized for `dataset`; a size it rejects is a ConfigError."""
    _, c, h, w = dataset.images.shape
    return _build(BackboneConfig, cfg.backbone, "$.backbone",
                  input_size=(h, w, c), num_classes=dataset.num_classes)


def score_chain(models, dataset, split):
    """Score the chain's models as their checkpoints store them.

    Each model's parameters are rounded by `at_checkpoint_precision`, exactly
    as `save_checkpoint` rounds them, so every pass runs at that precision and
    the scores are those of the m<i>.wckd files: `load_checkpoint` of each,
    scored over the same images, gives them bit for bit. One pass per model
    over its own training subset and one over d_test.

    Returns (progression rows, [test-set logits of each model]); the
    metrics payload, the theory report and the CSV all derive from these.
    """
    truths = dataset.labels[split.d_test]
    progression, test_logits = [], []
    for i, (model, subset) in enumerate(zip(models, split.subsets)):
        model = at_checkpoint_precision(model)
        train_loss, train_acc = evaluate(model, dataset, subset)
        z = logits_of(model, dataset, split.d_test)
        test_loss, test_acc = loss_accuracy(z, truths)
        progression.append({
            "stage": f"M{i + 1}",
            "train_acc": float(train_acc),
            "test_acc": float(test_acc),
            "train_loss": float(train_loss),
            "test_loss": float(test_loss),
        })
        test_logits.append(z)
    return progression, test_logits


def deltas(progression):
    """Test-accuracy gains along the chain: each stage over its predecessor,
    then the last over the first."""
    acc = [row["test_acc"] for row in progression]
    gains = {f"m{i}_to_m{i + 1}": b - a for i, (a, b) in enumerate(zip(acc, acc[1:]), start=1)}
    gains[f"m1_to_m{len(acc)}"] = acc[-1] - acc[0]
    return gains


def _classify(probs, labels, k):
    """(K x K confusion matrix, `prf1` scores, `roc_auc_ovr` AUCs) of probability rows."""
    cm = confusion_matrix(probs.argmax(axis=1), labels, k)
    return cm, prf1(cm), roc_auc_ovr(probs, labels)


def _metrics_payload(progression, test_logits, dataset, split):
    k = dataset.num_classes
    cm, scores, auc = _classify(softmax_temperature(test_logits[-1], 1.0),
                                dataset.labels[split.d_test], k)
    return {
        "accuracy": scores["accuracy"],
        "macro": scores["macro"],
        "weighted": scores["weighted"],
        "per_class": [
            {"class": dataset.class_names[c], **scores["per_class"][c], "auc": auc["per_class"][c]}
            for c in range(k)
        ],
        "macro_auc": auc["macro"],
        "confusion_matrix": cm.tolist(),
        "theory": theory_report(progression, test_logits),
        "progression": progression,
        "deltas": deltas(progression),
    }


@contextlib.contextmanager
def _replacing(path):
    """Yield a temp path beside `path`; on a clean exit, rename it into place.

    A crash never leaves a partial artifact under the final name."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def _write_text(path, text):
    with open(path, "w") as f:
        f.write(text)


def _write_progression_csv(path, dataset_name, progression):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["dataset", "stage", "train_acc", "test_acc",
                         "train_loss", "test_loss", "delta_prev"])
        prev = None
        for row in progression:
            delta = "" if prev is None else f"{row['test_acc'] - prev:.6f}"
            writer.writerow([dataset_name, row["stage"],
                             f"{row['train_acc']:.6f}", f"{row['test_acc']:.6f}",
                             f"{row['train_loss']:.6f}", f"{row['test_loss']:.6f}", delta])
            prev = row["test_acc"]


def _write_timing_csv(path, chain: ChainResult):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["stage", "steps_per_epoch", "ms_per_step", "epochs_run", "row_blocks"])
        for i, r in enumerate(chain.stage_results):
            writer.writerow([f"M{i + 1}", r.steps_per_epoch,
                             f"{r.ms_per_step:.3f}", len(r.epoch_curves), r.row_blocks])


def _dataset_name(cfg: ExperimentConfig):
    if "synthetic" in cfg.dataset:
        return "synthetic"
    return os.path.basename(cfg.dataset["idx"]["images"])


def _run_one_seed(cfg, dataset, split, backbone, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    train_cfg = replace(cfg.train, seed=seed)
    chain = run_chain(dataset, split, train_cfg, backbone)
    models = [r.model for r in chain.stage_results]
    for i, model in enumerate(models):
        with _replacing(os.path.join(out_dir, f"m{i + 1}.wckd")) as tmp:
            save_checkpoint(model, tmp)
    progression, test_logits = score_chain(models, dataset, split)
    payload = _metrics_payload(progression, test_logits, dataset, split)
    with _replacing(os.path.join(out_dir, "chain_progression.csv")) as tmp:
        _write_progression_csv(tmp, _dataset_name(cfg), progression)
    with _replacing(os.path.join(out_dir, "timing.csv")) as tmp:
        _write_timing_csv(tmp, chain)
    # written last: its presence marks the seed's run as finished
    with _replacing(os.path.join(out_dir, "metrics.json")) as tmp:
        _write_json(tmp, payload)
    return payload


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Run the chain for every seed in repeat_seeds; emit all run artifacts."""
    out_dir = out_dir or cfg.output_dir
    # whatever can reject the config or the data runs before the run directory exists
    dataset = load_dataset(cfg)
    split = partition(dataset, cfg.partition_seed)
    backbone = backbone_for(cfg, dataset)
    os.makedirs(out_dir, exist_ok=True)
    with _replacing(os.path.join(out_dir, "config_resolved.json")) as tmp:
        _write_text(tmp, canonical_config(cfg))
    if len(cfg.repeat_seeds) == 1:
        return _run_one_seed(cfg, dataset, split, backbone, cfg.repeat_seeds[0], out_dir)
    summary = {}
    for seed in cfg.repeat_seeds:
        payload = _run_one_seed(cfg, dataset, split, backbone, seed,
                                os.path.join(out_dir, f"seed_{seed}"))
        summary[str(seed)] = {"accuracy": payload["accuracy"],
                              "deltas": payload["deltas"]}
    with _replacing(os.path.join(out_dir, "summary.json")) as tmp:
        _write_json(tmp, summary)
    return summary


def tune_experiment(cfg: ExperimentConfig, n_trials, out_dir=None):
    """TPE study over (eta, alpha, t_max); objective is the last model's validation accuracy."""
    out_dir = out_dir or cfg.output_dir
    if n_trials < 1:
        raise ContractError(f"n_trials must be >= 1, got {n_trials}")
    dataset = load_dataset(cfg)
    split = partition(dataset, cfg.partition_seed)
    backbone = backbone_for(cfg, dataset)
    os.makedirs(out_dir, exist_ok=True)
    base_train = cfg.train

    def objective(eta, alpha, temp):
        train_cfg = replace(
            base_train,
            learning_rate=eta,
            distill=replace(base_train.distill, alpha=alpha, t_max=temp),
        )
        last = run_chain(dataset, split, train_cfg, backbone).stage_results[-1]
        # its validation accuracy at the epoch whose parameters it kept
        return last.epoch_curves[last.best_epoch]["val_acc"]

    best, trials = run_study(objective, SearchSpace(), n_trials, cfg.hyperopt["seed"])
    with _replacing(os.path.join(out_dir, "trials.csv")) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["trial_index", "eta", "alpha", "temp", "objective", "status"])
        for t in trials:
            writer.writerow([t.trial_index, f"{t.params[0]:.6g}", f"{t.params[1]:.6g}",
                             f"{t.params[2]:.6g}",
                             "" if not np.isfinite(t.objective) else f"{t.objective:.6f}",
                             t.status])
    best_cfg = replace(
        cfg,
        train=replace(base_train, learning_rate=best.params[0],
                      distill=replace(base_train.distill, alpha=best.params[1],
                                      t_max=best.params[2])),
    )
    with _replacing(os.path.join(out_dir, "best-config.json")) as tmp:
        _write_text(tmp, canonical_config(best_cfg))
    return best, trials


def evaluate_model(model, dataset):
    """Full-dataset metrics for a loaded checkpoint (no partitioning).

    One pass over the data; the class count is the checkpoint's, so data
    that lacks the top classes still gets a K x K confusion matrix.
    """
    probs = softmax_temperature(logits_of(model, dataset, np.arange(len(dataset))), 1.0)
    cm, scores, auc = _classify(probs, dataset.labels, model.num_classes)
    return {
        "accuracy": scores["accuracy"],
        "loss": ce_loss(probs, dataset.labels),  # `loss_accuracy`'s CE, from the same softmax
        "macro": scores["macro"],
        "weighted": scores["weighted"],
        "per_class": scores["per_class"],
        "auc": auc,
        "confusion_matrix": cm.tolist(),
    }
