"""Classifier backbone: conv blocks -> (optional spatial attention) -> GAP -> FC -> logits."""
from __future__ import annotations

import hashlib
import numbers
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
    "param_shapes",
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
        for name in ("input_size", "conv_blocks"):
            values = getattr(self, name)
            if not all(isinstance(v, numbers.Integral) and v >= 1 for v in values):
                raise ContractError(f"{name} must hold integers >= 1, got {values!r}")
        if len(self.input_size) != 3 or not self.conv_blocks:
            raise ContractError(
                f"need an (H, W, C) input_size and at least one conv block, got "
                f"{self.input_size!r} and {self.conv_blocks!r}"
            )
        if self.num_classes < 2:
            raise ContractError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.fc_width < 1:
            raise ContractError(f"fc_width must be positive, got {self.fc_width}")
        h, w, _ = self.input_size
        for i in range(len(self.conv_blocks)):
            h, w = h // 2, w // 2  # same-padded 3x3 conv, then 2x2 pool
            if h < 1 or w < 1:
                raise ShapeError(
                    f"conv_blocks collapse the spatial size below 1x1 at block {i} "
                    f"for input {self.input_size[:2]}"
                )


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


def param_shapes(config: BackboneConfig) -> dict:
    """Ordered name -> shape of every parameter `config` implies, in
    `build_model`'s draw order."""
    shapes = {}
    c_in = config.input_size[2]
    for i, f in enumerate(config.conv_blocks):
        shapes[f"conv{i}_w"] = (f, c_in, 3, 3)
        shapes[f"conv{i}_b"] = (f,)
        c_in = f
    shapes.update(w_att=(c_in,), b_att=(), w1=(c_in, config.fc_width), b1=(config.fc_width,),
                  w2=(config.fc_width, config.num_classes), b2=(config.num_classes,))
    return shapes


def build_model(config: BackboneConfig) -> Model:
    """Seeded He-style init: weights ~ N(0, 2/fan_in), biases 0."""
    rng = np.random.default_rng(config.init_seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if name == "w_att":
            # small weights and a positive bias start the gates near
            # pass-through (sigmoid ~ 0.88), so an attention model begins
            # close to its plain twin
            params[name] = rng.normal(0.0, 0.01, size=shape)
        elif name == "b_att":
            params[name] = np.array(2.0)
        elif len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            # a conv kernel (F, C, 3, 3) sees C*9 inputs, a dense (in, out) `in`
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            params[name] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    return Model(config, params)


def _as_batch(model, batch):
    """`batch` as an array checked against the configured input, and the compute
    dtype: the params', float64 from build_model, float32 from a checkpoint."""
    batch = np.asarray(batch)
    h, w, c = model.config.input_size
    if batch.ndim != 4 or batch.shape[1:] != (c, h, w):
        raise ShapeError(
            f"batch shape {batch.shape} does not match configured input ({c},{h},{w})"
        )
    return batch, np.result_type(*model.params.values())


def _layers(ops, p, x, config):
    """The network, defined once: conv->pool->relu per block, the optional
    spatial gate, GAP, FC-relu, FC. `ops` is the `tensor` module (inference,
    arrays) or a `Tape` (training, nodes). Returns the logits."""
    for i in range(len(config.conv_blocks)):
        # relu is monotone, so it commutes with max: pooling first gives the
        # same values (and, with first-max masks, the same gradients up to the
        # sign of zero) while relu runs on a quarter of the elements. Nesting
        # the calls frees the conv output as soon as maxpool2 returns
        x = ops.relu(ops.maxpool2(ops.conv2d(x, p[f"conv{i}_w"], p[f"conv{i}_b"], stride=1, pad=1)))
    if config.attention_enabled:
        scores = ops.attention_scores(x, p["w_att"], p["b_att"])
        x = ops.scale_spatial(x, scores)
    fc = ops.relu(ops.dense(ops.gap(x), p["w1"], p["b1"]))
    return ops.dense(fc, p["w2"], p["b2"])


def _conv_sizes(config):
    """Per conv block: the elements of one image's im2col columns and of its conv output."""
    h, w, c = config.input_size
    for f in config.conv_blocks:
        yield c * 9 * h * w, f * h * w
        h, w, c = h // 2, w // 2, f


# Inference runs in row tiles. A tile's conv passes build their im2col columns
# in chunks of `tensor.BUFFER_BYTES`, so what a tile still holds whole is its
# conv outputs, and the widest of them fits in the same budget: well under the
# 32 MiB mmap threshold that `import weckd` sets (glibc's own starts at 128
# KiB), so, with the heap never trimmed, no conv call maps and faults in fresh
# pages. A pass's tiles run on every CPU at once, each in its own core's L2.
def _tile_rows(config, dtype):
    """Rows per inference tile: BUFFER_BYTES over the widest per-image conv
    output, and at least 2, so no tile drops to a matrix-vector product."""
    widest = max(out for _, out in _conv_sizes(config))
    return max(2, T.BUFFER_BYTES // (widest * np.dtype(dtype).itemsize))


def forward(model, batch):
    """Inference pass; returns the logits.

    The batch runs in even row tiles of at most `_tile_rows` rows, each cast on
    its own to the compute dtype. A pass of more than one tile raises its tile
    count to a multiple of the CPU count, and each CPU runs the whole network
    over one contiguous run of tiles; a one-tile pass runs on the calling
    thread. Every tile keeps 2 rows, even past `_tile_rows`: a row's logits
    are the same bits in any tile of 2 rows or more, so they do not depend on
    the CPU count or on the budget.

    Measured nulls (2-core VM, seed 0, alternating benchmark runs):
    - each pure conv and pool op over per-op image blocks instead, tiles in
      series, made `eval` 30% slower: whole-network tile runs pay for
      themselves;
    - 2 MiB tiles whose columns were built whole gave about the same `chain`
      peak RSS as chunked columns (57.5 against 58.4 MB) but made `eval`
      18-19% slower in 2 of 3 pairs: chunk the columns, not the network;
    - a 1 MiB budget for both (56-59 MB) made `chain` up to 33% and `eval`
      10-30% slower.

    The runs go to `tensor`'s image-block pool, so this must not be called
    from one of that pool's threads: a nested wait could deadlock it."""
    x, dtype = _as_batch(model, batch)
    cpus = T._cpus()
    tiles = -(-len(x) // _tile_rows(model.config, dtype))
    if tiles > 1:
        tiles = -(-tiles // cpus) * cpus
    tiles = max(1, min(tiles, len(x) // 2))

    parts = np.array_split(x, tiles)

    def run(lo, hi):
        return [_layers(T, model.params, tile.astype(dtype, copy=False), model.config)
                for tile in parts[lo:hi]]

    blocks = T._even(0, tiles, min(cpus, tiles))
    return np.concatenate([z for zs in T._on_blocks(run, blocks) for z in zs])


def forward_on_tape(model, tape, batch):
    """Taped forward pass for training; returns the logits node.

    Every parameter is registered on the tape under its model key, so an
    unused attention gate gets a zero gradient.
    """
    batch, dtype = _as_batch(model, batch)
    nodes = {k: tape.param(k, v) for k, v in model.params.items()}
    return _layers(tape, nodes, tape.const(batch.astype(dtype, copy=False)), model.config)


def param_digest(model: Model) -> str:
    """SHA-256 over the canonical parameter ordering; used for freeze checks."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name], dtype=np.float64).tobytes())
    return h.hexdigest()
