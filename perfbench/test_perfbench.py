"""Tests of the benchmark's own helpers: the backward probe and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import probes  # noqa: E402
import tracing  # noqa: E402
from weckd import backbone, training  # noqa: E402
from weckd.tensor import Tape  # noqa: E402

RNG = np.random.default_rng(0)


@pytest.mark.parametrize("record, x, params", [
    (probes._conv, RNG.random((2, 3, 8, 8)), (RNG.normal(size=(4, 3, 3, 3)), np.zeros(4))),
    (probes._pool, RNG.random((2, 4, 6, 6)), ()),
    (probes._pool, RNG.random((2, 4, 7, 5)), ()),  # odd sizes: trailing row/column dropped
    (probes._attention, RNG.random((2, 5, 4, 4)), (RNG.normal(size=5), np.array(2.0))),
    (lambda tape, x: tape.relu(x), RNG.normal(size=(3, 4)), ()),
    (lambda tape, x, w, b: tape.dense(x, w, b), RNG.normal(size=(3, 4)),
     (RNG.normal(size=(4, 2)), np.zeros(2))),
])
def test_probe_gradient_has_input_shape(record, x, params):
    dx, fwd_s, bwd_s = probes.backward_probe(Tape, record, x, params)
    assert dx.shape == x.shape
    assert np.all(np.isfinite(dx))
    assert fwd_s >= 0.0 and bwd_s >= 0.0


def test_probe_gradient_matches_linear_op():
    # for out = x @ w, dL/dx = g @ w.T with g the seed gradient
    x, w = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))
    dx, _, _ = probes.backward_probe(Tape, lambda tape, xn, wn, bn: tape.dense(xn, wn, bn),
                                     x, (w, np.zeros(2)), seed=7)
    g = np.random.default_rng(7).standard_normal((3, 2))
    np.testing.assert_allclose(dx, g @ w.T)


def test_probe_rejects_gradient_of_wrong_shape():
    class Shrinking(Tape):
        def backward(self, root, seed_grad=None):
            grads = super().backward(root, seed_grad)
            grads["x"] = grads["x"][:1]
            return grads

    with pytest.raises(probes.ProbeError):
        probes.backward_probe(Shrinking, lambda tape, x: tape.relu(x), np.ones((2, 2)))


def test_op_backward_ms_covers_every_probed_op():
    cfg = backbone.BackboneConfig(input_size=(8, 8, 1), conv_blocks=(2, 3, 4), num_classes=2)
    out = probes.op_backward_ms(Tape, cfg, batch=2, reps=1, seed=0)
    names = {f"tensor.{op}.b{b}.bwd_ms" for op in ("conv2d", "maxpool2") for b in range(3)}
    assert set(out) == names | {"tensor.attention.bwd_ms"}
    assert all(v > 0 for v in out.values())


def _span(sid, name, start, end, parent=None):
    return tracing.Span(sid, name, float(start), float(end), parent)


def test_self_time_is_span_minus_children():
    spans = [
        _span(0, "op", 0, 10),
        _span(1, "stage", 1, 6, parent=0),
        _span(2, "step", 2, 3, parent=1),
        _span(3, "step", 4, 5.5, parent=1),
        _span(4, "eval", 7, 9, parent=0),
    ]
    selft = tracing.self_times(spans)
    assert selft == pytest.approx({0: 10 - 5 - 2, 1: 5 - 1 - 1.5, 2: 1, 3: 1.5, 4: 2})


def test_self_time_merges_overlap_and_clips_children():
    spans = [
        _span(0, "p", 0, 10),
        _span(1, "a", 1, 4, parent=0),
        _span(2, "b", 3, 6, parent=0),   # overlaps a: together they cover [1, 6]
        _span(3, "c", 9, 12, parent=0),  # runs past the parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_layer_metrics_stage_and_remainder():
    spans = [
        _span(0, "bench.op", 0, 10),
        _span(1, "runner.run_experiment", 0.5, 10, parent=0),
        _span(2, "training.stage1", 1, 4, parent=1),
        _span(3, "training.stage2", 4, 8, parent=1),
        _span(4, "backbone.forward", 5, 6, parent=3),
        _span(5, "training.evaluate", 8, 9.5, parent=1),
    ]
    spans[4].attrs["images"] = 16
    m = tracing.layer_metrics(spans, ops=1)
    assert m["training.stage1.s"] == pytest.approx(3)
    assert m["training.stage2.s"] == pytest.approx(4)
    assert m["training.stage.self_s"] == pytest.approx(3)  # median of 3 and 4 - 1
    assert m["backbone.forward.teacher_ms"] == pytest.approx(1000)
    assert m["runner.run_experiment.self_s"] == pytest.approx(1)
    assert m["training.evaluate.calls"] == 1
    # orchestration self time: bench.op 0.5 s + run_experiment 1 s, over 10 s of operations
    assert tracing.remainder_frac(spans) == pytest.approx(0.15)


def test_instrument_records_and_restores():
    import weckd.training

    original = weckd.training.forward
    original_conv = Tape.__dict__["conv2d"]
    model = backbone.build_model(backbone.BackboneConfig(input_size=(8, 8, 1),
                                                         conv_blocks=(2, 3), num_classes=2))
    x = RNG.random((4, 1, 8, 8))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, model.config.conv_blocks):
        training.evaluate(model, _dataset(x), np.arange(4), batch_size=2)
        backbone.forward_on_tape(model, Tape(), x)
    assert weckd.training.forward is original
    assert Tape.__dict__["conv2d"] is original_conv
    names = [s.name for s in tracer.spans]
    assert names.count("training.evaluate") == 1
    assert names.count("backbone.forward") == 2
    assert [s.attrs["block"] for s in tracer.spans if s.name == "tensor.Tape.conv2d"] == [0, 1]
    forward = [s for s in tracer.spans if s.name == "backbone.forward"]
    assert all(tracer.spans[s.parent].name == "training.evaluate" for s in forward)


def _dataset(x):
    from weckd.data import LabeledDataset
    return LabeledDataset(x, np.array([0, 1, 0, 1]), ["a", "b"], 2)
