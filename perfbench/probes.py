"""Single-op backward probes and a tiny run that passes through every layer.

The tracer's wrappers cannot see inside `Tape.backward`, so each op's
backward cost is measured by recording that op alone on a fresh Tape and
running `backward` with a seed gradient. Only the public Tape API is used:
`Tape()`, `Tape.param`, the op methods and `Tape.backward`.
"""
from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np


class ProbeError(RuntimeError):
    """A probe's output contradicts the op it probed."""


def backward_probe(tape_cls, record, x, params=(), seed=0):
    """Record one op on a fresh tape and run backward from a random seed gradient.

    `record(tape, x_node, *param_nodes)` adds the op and returns its output
    node. The input is registered as a tape parameter so that `backward`
    returns its gradient. Returns (dx, forward seconds, backward seconds).
    """
    tape = tape_cls()
    x_node = tape.param("x", x)
    nodes = [tape.param(f"p{i}", p) for i, p in enumerate(params)]
    t0 = time.perf_counter()
    out = record(tape, x_node, *nodes)
    t1 = time.perf_counter()
    seed_grad = np.random.default_rng(seed).standard_normal(np.shape(out.value))
    grads = tape.backward(out, seed_grad)
    t2 = time.perf_counter()
    dx = grads["x"]
    if dx.shape != np.shape(x):
        raise ProbeError(f"probe gradient shape {dx.shape} does not match input shape {np.shape(x)}")
    return dx, t1 - t0, t2 - t1


def _conv(tape, x, w, b):
    return tape.conv2d(x, w, b, stride=1, pad=1)


def _pool(tape, x):
    return tape.maxpool2(x)


def _attention(tape, x, w, b):
    return tape.attention_scores(x, w, b)


def op_backward_ms(tape_cls, backbone, batch, reps, seed):
    """Median backward ms of each conv block, pool and the attention gate.

    Shapes follow `backbone` (a weckd BackboneConfig) at batch size `batch`.
    """
    rng = np.random.default_rng(seed)
    h, w, c = backbone.input_size

    def median_ms(record, x, params):
        return 1e3 * statistics.median(
            backward_probe(tape_cls, record, x, params, seed=r)[2] for r in range(reps))

    out = {}
    for i, f in enumerate(backbone.conv_blocks):
        x = rng.random((batch, c, h, w))
        kernel = rng.normal(0.0, np.sqrt(2.0 / (9 * c)), (f, c, 3, 3))
        out[f"tensor.conv2d.b{i}.bwd_ms"] = median_ms(_conv, x, (kernel, np.zeros(f)))
        out[f"tensor.maxpool2.b{i}.bwd_ms"] = median_ms(_pool, rng.random((batch, f, h, w)), ())
        c, h, w = f, h // 2, w // 2
    out["tensor.attention.bwd_ms"] = median_ms(
        _attention, rng.random((batch, c, h, w)), (rng.normal(0.0, 0.01, c), np.array(2.0)))
    return out


def layer_probe_run(weckd, work_dir, seed):
    """A tiny pass through every public entry point, for layers a workload bypasses.

    Trains a 1-epoch chain on 80 images through `run_experiment`, re-reads
    its M3 checkpoint and an IDX copy of the data through the `weckd eval`
    path, and runs a 4-trial TPE study on an analytic objective.
    """
    os.makedirs(work_dir, exist_ok=True)
    cfg_path = os.path.join(work_dir, "probe-config.json")
    with open(cfg_path, "w") as f:
        json.dump({"dataset": {"synthetic": {"n": 80, "seed": seed}}, "partition_seed": seed,
                   "train": {"max_epochs": 1, "seed": seed}, "repeat_seeds": [seed]}, f)
    run_dir = os.path.join(work_dir, "probe-run")
    weckd.runner.run_experiment(weckd.config.parse_config(cfg_path), out_dir=run_dir)
    images, labels = (os.path.join(work_dir, f"probe-{k}.idx") for k in ("images", "labels"))
    weckd.data.write_idx(weckd.data.generate_synthetic(80, 4, (32, 32), 0.15, seed), images, labels)
    model = weckd.training.load_checkpoint(os.path.join(run_dir, "m3.wckd"))
    weckd.runner.evaluate_model(model, weckd.data.load_idx(images, labels))

    def objective(eta, alpha, temp):
        return -((np.log10(eta) + 3.0) ** 2) - (alpha - 0.7) ** 2 - (temp - 2.0) ** 2

    weckd.tpe.run_study(objective, weckd.tpe.SearchSpace(), 4, seed)
