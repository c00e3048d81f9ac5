"""Classifier backbone: conv blocks -> (optional spatial attention) -> GAP -> FC -> logits."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ContractError, ShapeError

__all__ = [
    "BackboneConfig",
    "Model",
    "build_model",
    "forward",
    "forward_on_tape",
    "param_digest",
]


@dataclass(frozen=True)
class BackboneConfig:
    input_size: tuple = (32, 32, 3)          # (H, W, C)
    conv_blocks: tuple = (16, 32, 64)        # filters per block; 3x3 kernels, 2x2 pool
    fc_width: int = 128
    num_classes: int = 4
    attention_enabled: bool = False
    init_seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ContractError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.fc_width < 1:
            raise ContractError(f"fc_width must be positive, got {self.fc_width}")
        self.feature_shape()  # validates spatial collapse

    def feature_shape(self):
        """(C', H', W') after the conv stack; raises on spatial collapse."""
        h, w, _ = self.input_size
        for i, _f in enumerate(self.conv_blocks):
            h, w = h // 2, w // 2  # same-padded 3x3 conv, then 2x2 pool
            if h < 1 or w < 1:
                raise ShapeError(
                    f"conv block {i} collapses spatial size below 1x1 "
                    f"for input {self.input_size[:2]}"
                )
        return self.conv_blocks[-1], h, w


@dataclass
class Model:
    config: BackboneConfig
    params: dict = field(default_factory=dict)

    @property
    def attention_enabled(self):
        return self.config.attention_enabled

    @property
    def num_classes(self):
        return self.config.num_classes


def build_model(config: BackboneConfig) -> Model:
    """Seeded He-style init: weights ~ N(0, 2/fan_in), biases 0."""
    rng = np.random.default_rng(config.init_seed)
    params = {}
    c_in = config.input_size[2]
    for i, f in enumerate(config.conv_blocks):
        fan_in = c_in * 9
        params[f"conv{i}_w"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(f, c_in, 3, 3))
        params[f"conv{i}_b"] = np.zeros(f)
        c_in = f
    c_feat, _, _ = config.feature_shape()
    # small weights and a positive bias start the gates near pass-through
    # (sigmoid ~ 0.88), so an attention model begins close to its plain twin
    params["w_att"] = rng.normal(0.0, 0.01, size=(c_feat,))
    params["b_att"] = np.array(2.0)
    params["w1"] = rng.normal(0.0, np.sqrt(2.0 / c_feat), size=(c_feat, config.fc_width))
    params["b1"] = np.zeros(config.fc_width)
    params["w2"] = rng.normal(0.0, np.sqrt(2.0 / config.fc_width),
                              size=(config.fc_width, config.num_classes))
    params["b2"] = np.zeros(config.num_classes)
    return Model(config, params)


def _as_batch(model, batch):
    # the params' dtype is the compute dtype: float64 from build_model,
    # float32 from a checkpoint
    batch = np.asarray(batch, dtype=np.result_type(*model.params.values()))
    h, w, c = model.config.input_size
    if batch.ndim != 4 or batch.shape[1:] != (c, h, w):
        raise ShapeError(
            f"batch shape {batch.shape} does not match configured input ({c},{h},{w})"
        )
    return batch


def _layers(ops, p, x, config):
    """The network, defined once: conv->pool->relu per block, the optional
    spatial gate, GAP, FC-relu, FC. `ops` is the `tensor` module (inference,
    arrays) or a `Tape` (training, nodes). Returns the logits."""
    for i in range(len(config.conv_blocks)):
        x = ops.conv2d(x, p[f"conv{i}_w"], p[f"conv{i}_b"], stride=1, pad=1)
        # relu is monotone, so it commutes with max: pooling first gives the
        # same values (and, with first-max masks, the same gradients up to the
        # sign of zero) while relu runs on a quarter of the elements
        x = ops.relu(ops.maxpool2(x))
    if config.attention_enabled:
        scores = ops.attention_scores(x, p["w_att"], p["b_att"])
        x = ops.scale_spatial(x, scores)
    fc = ops.relu(ops.dense(ops.gap(x), p["w1"], p["b1"]))
    return ops.dense(fc, p["w2"], p["b2"])


def forward(model, batch):
    """Inference pass; returns the logits."""
    return _layers(T, model.params, _as_batch(model, batch), model.config)


def forward_on_tape(model, tape, batch):
    """Taped forward pass for training; returns the logits node.

    Every parameter is registered on the tape under its model key, so an
    unused attention gate gets a zero gradient.
    """
    batch = _as_batch(model, batch)
    nodes = {k: tape.param(k, v) for k, v in model.params.items()}
    return _layers(tape, nodes, tape.const(batch), model.config)


def param_digest(model: Model) -> str:
    """SHA-256 over the canonical parameter ordering; used for freeze checks."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name], dtype=np.float64).tobytes())
    return h.hexdigest()
