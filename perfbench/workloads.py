"""The three workloads: each a closed loop with one client over a public entry point.

A workload has `setup()` (timed as set-up), `op()` (one timed operation) and
`check(output)` (outside the timed region), which counts the operations
attempted and failed and returns a summary of the output.

Every input is derived from the workload seed. The seed selects one of
PANELS input panels (seed mod PANELS); each panel has stored reference
outputs in reference/<workload>.json, measured on the seed code.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil

import numpy as np

import weckd.config
import weckd.data
import weckd.runner
import weckd.training

PANELS = 16
HERE = os.path.dirname(os.path.abspath(__file__))

# Sizes. The paper's default chain (n=1000, 50 epochs) takes about 90 s per
# seed on a 2-core box, too long for repeated runs of a few tens of seconds,
# so `chain` keeps the default shapes (K=4, 32x32, B=16, attention on for
# stages 2 and 3) and shortens the data and the epochs.
CHAIN = {"n": 400, "max_epochs": 4, "batch_size": 16}
# Several thousand images scored by two checkpoints from a short chain.
EVAL = {"images": 2048, "ckpt_n": 160, "ckpt_epochs": 2}
# B=64 with d3 = 144 images: 130 training images per stage, so two of each
# stage's three steps are full batches.
TUNE = {"n": 1440, "max_epochs": 1, "batch_size": 64, "trials": 4}


def derived_seed(seed, tag):
    """A 31-bit seed for one input of the panel that `seed` selects."""
    state = np.random.SeedSequence([seed % PANELS, tag]).generate_state(1)[0]
    return int(state) % (2 ** 31)


def load_reference(workload, seed):
    path = os.path.join(HERE, "reference", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(str(seed % PANELS))


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


class Workload:
    """Base class. A subclass defines setup(), op(), summarize(output),
    compare_reference(summary) and quality(summary)."""

    name = ""
    aliases = {}  # metric -> the name the docs use for it on this workload
    train_batch = 16  # batch size of the workload's training steps, for the op probes
    min_ops = 1

    def __init__(self, work_dir, seed):
        self.dir = os.path.join(work_dir, self.name)
        self.seed = seed
        self.reference = load_reference(self.name, seed)
        self.first = None  # summary of the first operation, for the repeat check
        self.problems = []

    def op_units(self):
        """Operations one op() call counts as: chain runs, eval passes or trials."""
        return 1

    def repeat_key(self, summary):
        return summary

    def check(self, output):
        """(attempted, failed, summary) for one op() output.

        A unit fails if the output breaks an invariant, differs from the
        first output of this run (same seed, so it must repeat exactly) or
        from the stored panel reference. compare_reference() returns
        (unit index or None for the whole output, message) pairs.
        """
        units = self.op_units()
        try:
            ok, summary = self.summarize(output)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"unreadable output: {exc!r}")
            return units, units, None
        problems = [] if ok else [(None, "output invariants violated")]
        if self.first is None:
            self.first = summary
        elif self.repeat_key(summary) != self.repeat_key(self.first):
            problems.append((None, "output differs from the first run of the same seed"))
        if self.reference is None:
            problems.append((None, f"no reference for panel {self.seed % PANELS}"))
        else:
            problems += self.compare_reference(summary)
        self.problems += [msg for _, msg in problems]
        if any(unit is None for unit, _ in problems):
            return units, units, summary
        return units, len({unit for unit, _ in problems}), summary

    def quality_ratio(self, quality):
        """Quality relative to the stored panel reference (1.0 on the seed code)."""
        ref = self.quality(self.reference)
        return quality / ref if ref else float(quality == ref)


class Chain(Workload):
    """One seed of the paper's protocol through run_experiment, all artifacts."""

    name = "chain"
    aliases = {"op_s": "chain_s", "quality": "m3_test_acc"}
    train_batch = CHAIN["batch_size"]
    min_ops = 2  # the second run of the same seed must repeat the first byte for byte
    ARTIFACTS = ("m1.wckd", "m2.wckd", "m3.wckd", "metrics.json", "chain_progression.csv",
                 "timing.csv", "config_resolved.json")

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        path = os.path.join(self.dir, "config.json")
        with open(path, "w") as f:
            json.dump({
                "dataset": {"synthetic": {"n": CHAIN["n"], "seed": derived_seed(self.seed, 0)}},
                "partition_seed": derived_seed(self.seed, 1),
                "train": {"max_epochs": CHAIN["max_epochs"], "batch_size": CHAIN["batch_size"]},
                "repeat_seeds": [derived_seed(self.seed, 2)],
            }, f)
        self.cfg = weckd.config.parse_config(path)

    def images_per_op(self):
        return CHAIN["n"]

    def op(self):
        out = os.path.join(self.dir, "run")
        shutil.rmtree(out, ignore_errors=True)
        weckd.runner.run_experiment(self.cfg, out_dir=out)
        return out

    def summarize(self, out):
        for name in self.ARTIFACTS:
            if not os.path.isfile(os.path.join(out, name)):
                raise OSError(f"missing run artifact {name}")
        with open(os.path.join(out, "metrics.json"), "rb") as f:
            raw = f.read()
        payload = json.loads(raw)
        cm = np.array(payload["confusion_matrix"])
        progression = payload["progression"]
        ok = (cm.sum() == CHAIN["n"] - 3 * (CHAIN["n"] // 10)
              and abs(payload["accuracy"] - np.trace(cm) / cm.sum()) <= 1e-12
              and len(progression) == 3
              and abs(progression[2]["test_acc"] - payload["accuracy"]) <= 1e-12)
        return ok, {
            "metrics_sha256": hashlib.sha256(raw).hexdigest(),
            "m3_test_acc": payload["accuracy"],
            "test_acc": [row["test_acc"] for row in progression],
            "test_loss": [row["test_loss"] for row in progression],
        }

    def repeat_key(self, summary):
        return summary["metrics_sha256"]

    def compare_reference(self, s):
        ref = self.reference
        out = []
        if any(abs(a - b) > 0.01 for a, b in zip(s["test_acc"], ref["test_acc"])):
            out.append((None, f"test_acc {s['test_acc']} vs reference {ref['test_acc']}"))
        if not all(_rel_close(a, b, 1e-3) for a, b in zip(s["test_loss"], ref["test_loss"])):
            out.append((None, f"test_loss {s['test_loss']} vs reference {ref['test_loss']}"))
        return out

    @staticmethod
    def quality(summary):
        return summary["m3_test_acc"]


class Eval(Workload):
    """The `weckd eval` path: load_checkpoint, load_idx, evaluate_model, for M1 and M3."""

    name = "eval"
    aliases = {"images_per_s": "eval_images_per_s", "quality": "eval_mean_accuracy"}
    train_batch = 16  # the set-up chain's default batch
    CHECKPOINTS = (0, 2)  # stage indices: the plain M1 and the attention M3

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        self.images = os.path.join(self.dir, "eval-images.idx")
        self.labels = os.path.join(self.dir, "eval-labels.idx")
        data = weckd.data.generate_synthetic(EVAL["images"], 4, (32, 32), 0.15,
                                             derived_seed(self.seed, 10))
        weckd.data.write_idx(data, self.images, self.labels)
        train = weckd.data.generate_synthetic(EVAL["ckpt_n"], 4, (32, 32), 0.15,
                                              derived_seed(self.seed, 11))
        split = weckd.data.partition(train, derived_seed(self.seed, 12), stratified=True)
        cfg = weckd.training.TrainConfig(max_epochs=EVAL["ckpt_epochs"],
                                         seed=derived_seed(self.seed, 13))
        chain = weckd.training.run_chain(train, split, cfg)
        self.checkpoints = []
        for stage in self.CHECKPOINTS:
            path = os.path.join(self.dir, f"m{stage + 1}.wckd")
            weckd.training.save_checkpoint(chain.stage_results[stage].model, path)
            self.checkpoints.append(path)

    def op_units(self):
        return len(self.CHECKPOINTS)

    def images_per_op(self):
        return EVAL["images"] * len(self.CHECKPOINTS)

    def op(self):
        results = []
        for path in self.checkpoints:
            model = weckd.training.load_checkpoint(path)
            dataset = weckd.data.load_idx(self.images, self.labels)
            if dataset.num_classes > model.num_classes:
                raise ValueError("eval data has more classes than the checkpoint")
            results.append(weckd.runner.evaluate_model(model, dataset))
        return results

    def summarize(self, results):
        ok = True
        for r in results:
            cm = np.array(r["confusion_matrix"])
            ok = ok and (cm.sum() == EVAL["images"]
                         and abs(r["accuracy"] - np.trace(cm) / cm.sum()) <= 1e-12
                         and math.isfinite(r["loss"]) and r["loss"] > 0)
        return ok, {"accuracy": [r["accuracy"] for r in results],
                    "loss": [r["loss"] for r in results]}

    def compare_reference(self, s):
        ref = self.reference
        out = []
        for i in range(len(ref["accuracy"])):
            if (abs(s["accuracy"][i] - ref["accuracy"][i]) > 1e-3
                    or not _rel_close(s["loss"][i], ref["loss"][i], 1e-5)):
                out.append((i, f"checkpoint {i}: accuracy {s['accuracy'][i]} loss {s['loss'][i]} "
                               f"vs reference {ref['accuracy'][i]} {ref['loss'][i]}"))
        return out

    @staticmethod
    def quality(summary):
        return float(np.mean(summary["accuracy"]))


class Tune(Workload):
    """A tune_experiment TPE study: 4 three-stage chains at B=64."""

    name = "tune"
    aliases = {"op_s": "study_s", "quality": "study_best_val_acc"}
    train_batch = TUNE["batch_size"]

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        path = os.path.join(self.dir, "config.json")
        with open(path, "w") as f:
            json.dump({
                "dataset": {"synthetic": {"n": TUNE["n"], "seed": derived_seed(self.seed, 20)}},
                "partition_seed": derived_seed(self.seed, 21),
                "train": {"max_epochs": TUNE["max_epochs"], "batch_size": TUNE["batch_size"],
                          "seed": derived_seed(self.seed, 22)},
                "hyperopt": {"seed": derived_seed(self.seed, 23)},
            }, f)
        self.cfg = weckd.config.parse_config(path)

    def op_units(self):
        return TUNE["trials"]

    def images_per_op(self):
        return TUNE["n"] * TUNE["trials"]

    def op(self):
        out = os.path.join(self.dir, "study")
        shutil.rmtree(out, ignore_errors=True)
        weckd.runner.tune_experiment(self.cfg, TUNE["trials"], out_dir=out)
        return out

    def summarize(self, out):
        with open(os.path.join(out, "trials.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        with open(os.path.join(out, "best-config.json")) as f:
            json.load(f)
        trials = [[float(r["eta"]), float(r["alpha"]), float(r["temp"]),
                   float(r["objective"]) if r["objective"] else None, r["status"]]
                  for r in rows]
        complete = [t[3] for t in trials if t[4] == "complete"]
        ok = len(trials) == TUNE["trials"] and all(0.0 <= v <= 1.0 for v in complete)
        return ok, {"trials": trials, "best_val_acc": max(complete, default=0.0)}

    def compare_reference(self, s):
        out = []
        for i, (got, want) in enumerate(zip(s["trials"], self.reference["trials"])):
            params_ok = all(_rel_close(a, b, 1e-4) for a, b in zip(got[:3], want[:3]))
            objective_ok = (got[3] is None) == (want[3] is None) and (
                got[3] is None or abs(got[3] - want[3]) <= 0.01)
            if got[4] != "complete" or not (params_ok and objective_ok and got[4] == want[4]):
                out.append((i, f"trial {i} {got} vs reference {want}"))
        return out

    @staticmethod
    def quality(summary):
        return summary["best_val_acc"]


WORKLOADS = {w.name: w for w in (Chain, Eval, Tune)}
