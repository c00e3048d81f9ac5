"""Experiment driver: config -> dataset -> chain run -> run-directory artifacts."""
from __future__ import annotations

import contextlib
import csv
import io
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


def _synthetic(n, classes, height, width, noise_std, seed):
    return generate_synthetic(n, classes, (height, width), noise_std, seed)


def load_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    if "synthetic" in cfg.dataset:
        # generate_synthetic holds the range rules; a refusal names its $.dataset.synthetic key
        return _build(_synthetic, cfg.dataset["synthetic"], "$.dataset.synthetic")
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
    """The scores of probability rows that metrics.json and `weckd eval` share."""
    cm = confusion_matrix(probs.argmax(axis=1), labels, k)
    return {**prf1(cm), "confusion_matrix": cm.tolist()}


def _metrics_payload(progression, test_logits, dataset, split):
    probs = softmax_temperature(test_logits[-1], 1.0)
    labels = dataset.labels[split.d_test]
    payload = _classify(probs, labels, dataset.num_classes)
    auc = roc_auc_ovr(probs, labels)
    payload["per_class"] = [
        {"class": dataset.class_names[c], **payload["per_class"][c], "auc": auc["per_class"][c]}
        for c in range(dataset.num_classes)
    ]
    return {
        **payload,
        "macro_auc": auc["macro"],
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


def _publish(path, text):
    """Write the text artifact `path` through `_replacing`."""
    with _replacing(path) as tmp, open(tmp, "w", newline="") as f:
        f.write(text)


def _csv(header, rows):
    """`header`, then `rows`, as the text that `csv.writer` writes."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_SCORES = ("train_acc", "test_acc", "train_loss", "test_loss")


def _progression_csv(dataset_name, progression):
    acc = [row["test_acc"] for row in progression]
    gains = [""] + [f"{b - a:.6f}" for a, b in zip(acc, acc[1:])]
    return _csv(["dataset", "stage", *_SCORES, "delta_prev"],
                [[dataset_name, row["stage"], *(f"{row[key]:.6f}" for key in _SCORES), gain]
                 for row, gain in zip(progression, gains)])


def _timing_csv(chain: ChainResult):
    return _csv(["stage", "steps_per_epoch", "ms_per_step", "epochs_run", "row_blocks"],
                [[f"M{i + 1}", r.steps_per_epoch, f"{r.ms_per_step:.3f}", len(r.epoch_curves),
                  r.row_blocks] for i, r in enumerate(chain.stage_results)])


def _dataset_name(cfg: ExperimentConfig):
    if "synthetic" in cfg.dataset:
        return "synthetic"
    return os.path.basename(cfg.dataset["idx"]["images"])


def _prepare(cfg: ExperimentConfig, out_dir):
    """(dataset, split, backbone, run directory) of a run. Whatever can reject
    the config or the data runs before the run directory exists."""
    dataset = load_dataset(cfg)
    split = partition(dataset, cfg.partition_seed)
    backbone = backbone_for(cfg, dataset)
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    return dataset, split, backbone, out_dir


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
    _publish(os.path.join(out_dir, "chain_progression.csv"),
             _progression_csv(_dataset_name(cfg), progression))
    _publish(os.path.join(out_dir, "timing.csv"), _timing_csv(chain))
    # written last: its presence marks the seed's run as finished
    _publish(os.path.join(out_dir, "metrics.json"), json.dumps(payload, indent=2, sort_keys=True))
    return payload


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Run the chain for every seed in repeat_seeds; emit all run artifacts."""
    dataset, split, backbone, out_dir = _prepare(cfg, out_dir)
    _publish(os.path.join(out_dir, "config_resolved.json"), canonical_config(cfg))
    if len(cfg.repeat_seeds) == 1:
        return _run_one_seed(cfg, dataset, split, backbone, cfg.repeat_seeds[0], out_dir)
    summary = {}
    for seed in cfg.repeat_seeds:
        payload = _run_one_seed(cfg, dataset, split, backbone, seed,
                                os.path.join(out_dir, f"seed_{seed}"))
        summary[str(seed)] = {"accuracy": payload["accuracy"],
                              "deltas": payload["deltas"]}
    _publish(os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2, sort_keys=True))
    return summary


def _trial_config(train, params):
    """`train` with a TPE trial's (eta, alpha, temp) as its learning rate, alpha and t_max."""
    eta, alpha, temp = params
    return replace(train, learning_rate=eta,
                   distill=replace(train.distill, alpha=alpha, t_max=temp))


def tune_experiment(cfg: ExperimentConfig, n_trials, out_dir=None):
    """TPE study over (eta, alpha, t_max); objective is the last model's validation accuracy."""
    if n_trials < 1:
        raise ContractError(f"n_trials must be >= 1, got {n_trials}")
    dataset, split, backbone, out_dir = _prepare(cfg, out_dir)

    def objective(*params):
        train = _trial_config(cfg.train, params)
        last = run_chain(dataset, split, train, backbone).stage_results[-1]
        # its validation accuracy at the epoch whose parameters it kept
        return last.epoch_curves[last.best_epoch]["val_acc"]

    best, trials = run_study(objective, SearchSpace(), n_trials, cfg.hyperopt["seed"])
    _publish(os.path.join(out_dir, "trials.csv"), _csv(
        ["trial_index", "eta", "alpha", "temp", "objective", "status"],
        [[t.trial_index, *(f"{p:.6g}" for p in t.params),
          f"{t.objective:.6f}" if np.isfinite(t.objective) else "", t.status] for t in trials]))
    # every trial trained with train.seed, so that is the one seed that re-runs the best
    _publish(os.path.join(out_dir, "best-config.json"),
             canonical_config(replace(cfg, train=_trial_config(cfg.train, best.params),
                                      repeat_seeds=[cfg.train.seed])))
    return best, trials


def evaluate_model(model, dataset):
    """Full-dataset metrics for a loaded checkpoint (no partitioning).

    One pass over the data; the class count is the checkpoint's, so data
    that lacks the top classes still gets a K x K confusion matrix.
    """
    probs = softmax_temperature(logits_of(model, dataset, np.arange(len(dataset))), 1.0)
    return {
        **_classify(probs, dataset.labels, model.num_classes),
        "loss": ce_loss(probs, dataset.labels),  # `loss_accuracy`'s CE, from the same softmax
        "auc": roc_auc_ovr(probs, dataset.labels),
    }
