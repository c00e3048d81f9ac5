"""In-memory span tracer that instruments weckd from the outside.

No weckd source file knows about tracing. `instrument()` replaces each traced
function in every module namespace where the package looks it up (the package
imports names into its modules, so `weckd.training.forward` and
`weckd.backbone.forward` are separate bindings) and restores the originals on
exit.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field

# (span name, module namespaces where the program looks the function up)
FUNCTION_SITES = [
    ("backbone.forward", ["training"]),
    ("backbone.forward_on_tape", ["training"]),
    ("losses.hybrid_loss", ["training"]),
    ("losses.hybrid_loss_grad", ["training"]),
    ("tensor.sgd_step", ["tensor"]),
    ("data.make_batches", ["training"]),
    ("data.generate_synthetic", ["runner", "data"]),
    ("data.load_idx", ["runner", "data"]),
    ("data.write_idx", ["data"]),
    ("data.partition", ["runner"]),
    ("training.train_stage1", ["training"]),
    ("training.train_distill_stage", ["training"]),
    ("training.run_chain", ["runner", "training"]),
    ("training.evaluate", ["training", "runner"]),
    ("training.logits_of", ["training", "runner"]),
    ("training.save_checkpoint", ["runner", "training"]),
    ("training.load_checkpoint", ["training"]),
    ("metrics.prf1", ["runner"]),
    ("metrics.roc_auc_ovr", ["runner"]),
    ("metrics.theory_report", ["runner"]),
    ("tpe.suggest", ["tpe"]),
    ("tpe.run_study", ["runner", "tpe"]),
    ("runner.run_experiment", ["runner"]),
    ("runner.tune_experiment", ["runner"]),
    ("runner.evaluate_model", ["runner"]),
]

TAPE_METHODS = ["conv2d", "relu", "maxpool2", "dense", "attention_scores", "backward"]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, time.perf_counter(), 0.0, parent, attrs)
        self.spans.append(s)
        self._stack.append(sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent, "attrs": s.attrs}) + "\n")


def self_times(spans):
    """{span id: duration minus the part of it covered by its direct children}.

    Children of one parent may not be disjoint in general, so their intervals
    are clipped to the parent and merged before subtracting.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration - covered
    return out


def _stage_name(fn_name, args, kwargs):
    if fn_name == "train_stage1":
        return "training.stage1"
    stage_index = kwargs.get("stage_index", args[5] if len(args) > 5 else None)
    return f"training.stage{int(stage_index) + 1}"


def _wrap_function(tracer, name, fn):
    short = name.split(".")[-1]

    if short in ("train_stage1", "train_distill_stage"):
        @functools.wraps(fn)
        def staged(*args, **kwargs):
            with tracer.span(_stage_name(short, args, kwargs)):
                return fn(*args, **kwargs)
        return staged

    if short == "forward":
        @functools.wraps(fn)
        def forward(model, batch, *args, **kwargs):
            with tracer.span(name, images=int(len(batch))):
                return fn(model, batch, *args, **kwargs)
        return forward

    if short == "run_study":
        @functools.wraps(fn)
        def study(*args, **kwargs):
            with tracer.span(name) as s:
                best, history = fn(*args, **kwargs)
                s.attrs["trials_failed"] = sum(t.status == "failed" for t in history)
                return best, history
        return study

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return plain


def _wrap_tape_method(tracer, name, method, block_of):
    @functools.wraps(method)
    def wrapped(tape, *args, **kwargs):
        attrs = {}
        if name in ("conv2d", "maxpool2"):
            # block index from the op's channel count: conv weights are
            # (F, C, k, k) and the pool input is (B, F, H, W)
            channels = args[1].value.shape[0] if name == "conv2d" else args[0].value.shape[1]
            attrs["block"] = block_of.get(int(channels), -1)
        with tracer.span(f"tensor.Tape.{name}", **attrs):
            return method(tape, *args, **kwargs)
    return wrapped


@contextlib.contextmanager
def instrument(tracer, conv_blocks):
    """Patch every traced weckd function and Tape method; restore on exit.

    `conv_blocks` is the backbone's filter counts, used to tell which conv
    block a Tape.conv2d or Tape.maxpool2 call belongs to.
    """
    import importlib

    block_of = {int(f): i for i, f in enumerate(conv_blocks)}
    saved = []
    try:
        for name, sites in FUNCTION_SITES:
            home, short = name.split(".")
            original = getattr(importlib.import_module(f"weckd.{home}"), short)
            wrapper = _wrap_function(tracer, name, original)
            for site in sites:
                mod = importlib.import_module(f"weckd.{site}")
                saved.append((mod, short, getattr(mod, short)))
                setattr(mod, short, wrapper)
        tape_cls = importlib.import_module("weckd.tensor").Tape
        for meth in TAPE_METHODS:
            saved.append((tape_cls, meth, tape_cls.__dict__[meth]))
            setattr(tape_cls, meth, _wrap_tape_method(tracer, meth, tape_cls.__dict__[meth], block_of))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics from a span list
# ---------------------------------------------------------------------------

# orchestration spans: their self time is bookkeeping that no layer span covers
ORCHESTRATION_SPANS = {"bench.op", "runner.run_experiment", "training.run_chain",
                "runner.tune_experiment", "tpe.run_study"}

STAGES = ("training.stage1", "training.stage2", "training.stage3")
EVAL_PARENTS = ("training.evaluate", "training.logits_of")


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans, ops):
    """Per-layer metrics from one phase's spans; `ops` = operations in that phase.

    Timings are per-call medians of self time, except training.stageN.s
    (whole stage) and the explicit counts. A metric the spans do not
    exercise is left out.
    """
    selft = self_times(spans)
    by_id = {s.sid: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def med_self(name, scale, pick=lambda s: True):
        return _median([selft[s.sid] * scale for s in by_name.get(name, []) if pick(s)])

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    out = {}
    for b in range(3):
        out[f"tensor.conv2d.b{b}.fwd_ms"] = med_self("tensor.Tape.conv2d", 1e3,
                                                     lambda s, b=b: s.attrs.get("block") == b)
        out[f"tensor.maxpool2.b{b}.fwd_ms"] = med_self("tensor.Tape.maxpool2", 1e3,
                                                       lambda s, b=b: s.attrs.get("block") == b)
    out["tensor.relu.fwd_ms"] = med_self("tensor.Tape.relu", 1e3)
    out["tensor.dense.fwd_ms"] = med_self("tensor.Tape.dense", 1e3)
    out["tensor.attention.fwd_ms"] = med_self("tensor.Tape.attention_scores", 1e3)
    out["tensor.backward.ms"] = med_self("tensor.Tape.backward", 1e3)
    out["tensor.sgd_step.ms"] = med_self("tensor.sgd_step", 1e3)
    out["backbone.forward_on_tape.ms"] = med_self("backbone.forward_on_tape", 1e3)
    out["losses.hybrid_loss.ms"] = med_self("losses.hybrid_loss", 1e3)
    out["losses.hybrid_loss_grad.ms"] = med_self("losses.hybrid_loss_grad", 1e3)
    out["backbone.forward.teacher_ms"] = med_self(
        "backbone.forward", 1e3, lambda s: parent_name(s) in STAGES)
    eval_fwd = [s for s in by_name.get("backbone.forward", []) if parent_name(s) in EVAL_PARENTS]
    out["backbone.forward.eval_us_per_image"] = _median(
        [selft[s.sid] * 1e6 / s.attrs["images"] for s in eval_fwd])
    out["training.evaluate.ms"] = med_self("training.evaluate", 1e3)
    out["training.logits_of.ms"] = med_self("training.logits_of", 1e3)
    out["metrics.theory_report.s"] = med_self("metrics.theory_report", 1.0)
    for i, stage in enumerate(STAGES):
        out[f"training.stage{i + 1}.s"] = _median([s.duration for s in by_name.get(stage, [])])
    out["training.stage.self_s"] = _median(
        [selft[s.sid] for st in STAGES for s in by_name.get(st, [])])
    out["data.make_batches.ms"] = med_self("data.make_batches", 1e3)
    out["data.load_idx.s"] = med_self("data.load_idx", 1.0)
    out["training.load_checkpoint.ms"] = med_self("training.load_checkpoint", 1e3)
    out["metrics.roc_auc_ovr.ms"] = med_self("metrics.roc_auc_ovr", 1e3)
    out["metrics.prf1.ms"] = med_self("metrics.prf1", 1e3)
    out["runner.evaluate_model.s"] = med_self("runner.evaluate_model", 1.0)
    out["data.generate_synthetic.s"] = med_self("data.generate_synthetic", 1.0)
    out["data.write_idx.s"] = med_self("data.write_idx", 1.0)
    out["training.save_checkpoint.ms"] = med_self("training.save_checkpoint", 1e3)
    out["runner.run_experiment.self_s"] = med_self("runner.run_experiment", 1.0)
    out["tpe.suggest.ms"] = med_self("tpe.suggest", 1e3)

    if "tensor.Tape.backward" in by_name:
        out["tensor.backward.calls"] = len(by_name["tensor.Tape.backward"]) / ops
    if eval_fwd:
        out["backbone.forward.eval_images"] = sum(s.attrs["images"] for s in eval_fwd) / ops
    if "training.evaluate" in by_name:
        out["training.evaluate.calls"] = len(by_name["training.evaluate"]) / ops
    if "tpe.run_study" in by_name:
        out["tpe.trials_failed"] = sum(s.attrs["trials_failed"]
                                       for s in by_name["tpe.run_study"]) / ops
    return {k: v for k, v in out.items() if v is not None}


def remainder_frac(spans):
    """Share of the top-level operation spans' time that no layer span covers:
    the self time of the orchestration spans."""
    selft = self_times(spans)
    wall = sum(s.duration for s in spans if s.parent is None)
    return sum(selft[s.sid] for s in spans if s.name in ORCHESTRATION_SPANS) / wall
