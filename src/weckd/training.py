"""Chain orchestration: stage-1 supervised training, stage-2/3 distillation with
frozen teachers, LR plateau decay, early stopping, checkpointing, timing capture."""
from __future__ import annotations

import json
import math
import numbers
import struct
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .backbone import (
    BackboneConfig,
    Model,
    build_model,
    forward,
    forward_on_tape,
    param_digest,
    param_shapes,
)
from .data import DatasetSplit, LabeledDataset, make_batches
from .losses import DistillParams, anneal_temperature, hybrid_loss, hybrid_loss_grad, softmax_temperature
from .tensor import ContractError, NumericError

__all__ = [
    "TrainConfig",
    "StageResult",
    "ChainResult",
    "CheckpointError",
    "train_stage1",
    "train_distill_stage",
    "train_single_baseline",
    "scheduler_step",
    "run_chain",
    "evaluate",
    "logits_of",
    "loss_accuracy",
    "CHECKPOINT_DTYPE",
    "at_checkpoint_precision",
    "save_checkpoint",
    "load_checkpoint",
]

MIN_IMPROVEMENT = 1e-6
MAX_LR_DECAYS = 3


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 50
    lr_decay_factor: float = 0.1
    lr_patience: int = 20
    momentum: float = 0.9
    distill: DistillParams = field(default_factory=DistillParams)
    stage_attention: tuple = (False, True, True)
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "max_epochs", "patience", "lr_patience"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ContractError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise ContractError(f"lr_decay_factor must be in (0,1), got {self.lr_decay_factor}")
        if len(self.stage_attention) != 3:
            raise ContractError("stage_attention needs exactly three flags")


@dataclass
class StageResult:
    model: Model
    epoch_curves: list            # per epoch: dict(train_loss, train_acc, val_loss, val_acc)
    stopped_epoch: int
    steps_per_epoch: int
    ms_per_step: float


@dataclass
class ChainResult:
    stage_results: list           # [StageResult; 3]
    teacher_digests: list         # per distill stage: (digest before, digest after)


def _one_hot(labels, k):
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _ce_correct(probs, y):
    ce = -(np.log(np.maximum(probs[np.arange(y.size), y], 1e-12)))
    return ce.sum(), (probs.argmax(axis=1) == y).sum(), y.size


def _logits(model, dataset, indices, batch_size):
    """`forward` over `indices` in batches of `batch_size`, stacked."""
    return np.concatenate([forward(model, x) for x, _ in make_batches(dataset, indices, batch_size)])


def evaluate(model, dataset, indices, batch_size=256):
    """Mean CE loss and accuracy over `indices` (pure inference)."""
    logits = _logits(model, dataset, indices, batch_size)
    return loss_accuracy(logits, dataset.labels[np.asarray(indices)], batch_size)


def logits_of(model, dataset, indices, batch_size=256):
    """Stacked logits over `indices`, inference mode, batched as in evaluate."""
    return _logits(model, dataset, indices, batch_size)


def loss_accuracy(logits, labels, batch_size=256):
    """Mean CE loss and accuracy of `logits` against `labels`.

    The CE is summed per chunk of `batch_size` rows and the chunk sums are
    added in order, so logits from `logits_of` at `evaluate`'s batch size
    give `evaluate`'s loss bit for bit.
    """
    labels = np.asarray(labels)
    parts = [
        _ce_correct(softmax_temperature(logits[s:s + batch_size], 1.0), labels[s:s + batch_size])
        for s in range(0, labels.size, batch_size)
    ]
    total = sum(p[2] for p in parts)
    return sum(p[0] for p in parts) / total, sum(p[1] for p in parts) / total


def scheduler_step(val_losses, lr, cfg: TrainConfig, decays_done=0):
    """LR-plateau decay and early stopping from the validation-loss history.

    Returns (new_lr, stop, decays_done). "Improvement" means strictly below
    the best seen by at least 1e-6.
    """
    if not val_losses:
        raise ContractError("scheduler needs a non-empty loss history")
    best_epoch = 0
    best = val_losses[0]
    for i, v in enumerate(val_losses):
        if v < best - MIN_IMPROVEMENT:
            best = v
            best_epoch = i
    stagnant = len(val_losses) - 1 - best_epoch
    stop = stagnant >= cfg.patience
    new_lr = lr
    if stagnant > 0 and stagnant % cfg.lr_patience == 0 and decays_done < MAX_LR_DECAYS:
        new_lr = lr * cfg.lr_decay_factor
        decays_done += 1
    return new_lr, stop, decays_done


def _carve_validation(indices):
    """Last 10% of the stage's own (seeded-order) subset becomes its validation set."""
    indices = np.asarray(indices)
    n_val = max(1, indices.size // 10)
    return indices[:-n_val], indices[-n_val:]


def _epoch_order(cfg, stage_index, epoch, n):
    """The seeded order in which one epoch visits a stage's n training images."""
    seed = (cfg.seed * 1_000_003 + stage_index * 7919 + epoch) & 0xFFFFFFFF
    return np.random.default_rng(seed).permutation(n)


def _train_loop(model, train_idx, val_idx, dataset, cfg, stage_index, teacher=None):
    k = model.num_classes
    params = {name: v.copy() for name, v in model.params.items()}
    velocity = None
    lr = cfg.learning_rate
    decays = 0
    dp = cfg.distill
    curves = []
    best_val = np.inf
    best_params = {name: v.copy() for name, v in params.items()}
    step_times = []
    steps_per_epoch = int(np.ceil(train_idx.size / cfg.batch_size))

    teacher_digest = param_digest(teacher) if teacher is not None else None
    teacher_z = None
    if teacher is not None:
        # the teacher is frozen and training has no augmentation, so every
        # epoch would see these logits; chunks of 256 bound the memory
        teacher_z = _logits(teacher, dataset, train_idx, 256)

    for epoch in range(cfg.max_epochs):
        temp = anneal_temperature(epoch, cfg.max_epochs, dp.t_max, dp.t_min)
        order = _epoch_order(cfg, stage_index, epoch, train_idx.size)
        epoch_loss = 0.0
        epoch_correct = 0
        for bi, start in enumerate(range(0, order.size, cfg.batch_size)):
            rows = order[start:start + cfg.batch_size]  # positions in train_idx and teacher_z
            idx = train_idx[rows]
            x, y = dataset.images[idx], dataset.labels[idx]
            t0 = time.perf_counter()
            y1 = _one_hot(y, k)
            work = Model(model.config, params)
            tape = T.Tape()
            logits_node = forward_on_tape(work, tape, x)
            z = logits_node.value
            if teacher is None:
                loss, _, _ = hybrid_loss(z, z, y1, 1.0, 1.0)
                dz = hybrid_loss_grad(z, z, y1, 1.0, 1.0)
            else:
                zt = teacher_z[rows]
                tsc = dp.t_squared_compensation
                loss, _, _ = hybrid_loss(z, zt, y1, dp.alpha, temp, t_squared_compensation=tsc)
                dz = hybrid_loss_grad(z, zt, y1, dp.alpha, temp, t_squared_compensation=tsc)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at stage {stage_index}, epoch {epoch}, batch {bi}"
                )
            grads = tape.backward(logits_node, dz)
            params, velocity = T.sgd_step(params, grads, lr, cfg.momentum, velocity)
            step_times.append(time.perf_counter() - t0)
            epoch_loss += loss * y.size
            epoch_correct += int((z.argmax(axis=1) == y).sum())

        val_loss, val_acc = evaluate(Model(model.config, params), dataset, val_idx)
        curves.append({
            "train_loss": epoch_loss / train_idx.size,
            "train_acc": epoch_correct / train_idx.size,
            "val_loss": float(val_loss),
            "val_acc": float(val_acc),
        })
        if val_loss < best_val - MIN_IMPROVEMENT:
            best_val = val_loss
            best_params = {name: v.copy() for name, v in params.items()}
        lr, stop, decays = scheduler_step([c["val_loss"] for c in curves], lr, cfg, decays)
        if stop:
            break

    if teacher is not None and param_digest(teacher) != teacher_digest:
        raise RuntimeError("teacher parameters changed during distillation (freeze violated)")

    result_model = Model(model.config, best_params)
    return StageResult(
        model=result_model,
        epoch_curves=curves,
        stopped_epoch=len(curves),
        steps_per_epoch=steps_per_epoch,
        ms_per_step=float(np.mean(step_times) * 1000.0),
    )


def train_stage1(model, d1_indices, dataset, cfg: TrainConfig) -> StageResult:
    """Supervised CE training of the chain's first model on its subset."""
    train_idx, val_idx = _carve_validation(d1_indices)
    return _train_loop(model, train_idx, val_idx, dataset, cfg, stage_index=0)


def train_distill_stage(student, teacher, d_indices, dataset, cfg: TrainConfig,
                        stage_index) -> StageResult:
    """Hybrid CE+KL training of a student against its frozen predecessor."""
    if teacher.num_classes != student.num_classes:
        raise ContractError(
            f"chain composition error: teacher has {teacher.num_classes} classes, "
            f"student has {student.num_classes}"
        )
    train_idx, val_idx = _carve_validation(d_indices)
    return _train_loop(student, train_idx, val_idx, dataset, cfg,
                       stage_index=stage_index, teacher=teacher)


def train_single_baseline(dataset, split, cfg: TrainConfig,
                          backbone: BackboneConfig = None) -> StageResult:
    """One backbone on d1+d2+d3 with the same budget; the 30%-baseline comparison."""
    backbone = backbone or _default_backbone(dataset)
    model = build_model(replace(backbone, attention_enabled=False,
                                init_seed=_f_base_seed(cfg.seed)))
    indices = split.training_indices()
    train_idx, val_idx = _carve_validation(indices)
    return _train_loop(model, train_idx, val_idx, dataset, cfg, stage_index=9)


def _f_base_seed(seed):
    # one shared feature-extractor init per chain run, reused by all stages
    return (seed * 31 + 17) & 0x7FFFFFFF


def _default_backbone(dataset: LabeledDataset) -> BackboneConfig:
    n, c, h, w = dataset.images.shape
    return BackboneConfig(input_size=(h, w, c), num_classes=dataset.num_classes)


def _assert_no_leakage(split: DatasetSplit):
    train = split.training_indices()
    if np.intersect1d(train, split.d_test).size:
        raise ContractError("training indices overlap the test set; refusing to train")
    sets = [split.d1, split.d2, split.d3]
    for i in range(3):
        for j in range(i + 1, 3):
            if np.intersect1d(sets[i], sets[j]).size:
                raise ContractError(f"training subsets {i + 1} and {j + 1} overlap")


def run_chain(dataset: LabeledDataset, split: DatasetSplit, cfg: TrainConfig,
              backbone: BackboneConfig = None) -> ChainResult:
    """Full three-stage chain: supervised M1, then distilled M2 and M3.

    Trains only; `runner.score_chain` scores the trained models."""
    _assert_no_leakage(split)
    backbone = backbone or _default_backbone(dataset)
    seed = _f_base_seed(cfg.seed)
    subsets = [split.d1, split.d2, split.d3]
    stage_results = []
    teacher_digests = []
    teacher = None
    for i in range(3):
        model = build_model(replace(backbone,
                                    attention_enabled=cfg.stage_attention[i],
                                    init_seed=seed))
        if teacher is not None:
            # each student inherits its predecessor's trained extractor and
            # head instead of relearning them from its own 10% slice; the
            # attention gate only when both use one (else it keeps its init)
            gate = teacher.attention_enabled and model.attention_enabled
            model.params.update({name: value.copy() for name, value in teacher.params.items()
                                 if gate or name not in ("w_att", "b_att")})
        if i == 0:
            result = train_stage1(model, subsets[i], dataset, cfg)
        else:
            before = param_digest(teacher)
            result = train_distill_stage(model, teacher, subsets[i], dataset, cfg, stage_index=i)
            teacher_digests.append((before, param_digest(teacher)))
        stage_results.append(result)
        teacher = result.model
    return ChainResult(stage_results, teacher_digests)


# ---------------------------------------------------------------------------
# checkpoint format: magic "WCKD", u32 version, JSON config blob, f32 tensors
# ---------------------------------------------------------------------------

MAGIC = b"WCKD"
VERSION = 1
# the precision a checkpoint stores, loads and is scored at; little-endian on disk
CHECKPOINT_DTYPE = np.dtype(np.float32)
_FILE_DTYPE = CHECKPOINT_DTYPE.newbyteorder("<")


def _config_json(config: BackboneConfig) -> str:
    return json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))


def at_checkpoint_precision(model: Model) -> Model:
    """`model` with every parameter rounded to CHECKPOINT_DTYPE: the model that
    `save_checkpoint` writes and `load_checkpoint` returns, bit for bit."""
    # note: ascontiguousarray would promote 0-d scalars to rank 1
    return Model(model.config, {name: np.array(value, dtype=CHECKPOINT_DTYPE, order="C")
                                for name, value in model.params.items()})


def save_checkpoint(model: Model, path):
    """Little-endian binary checkpoint of `at_checkpoint_precision(model)`,
    parameters in name order."""
    stored = at_checkpoint_precision(model).params
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        blob = _config_json(model.config).encode()
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        names = sorted(stored)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            arr = stored[name]
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.astype(_FILE_DTYPE, copy=False).tobytes())


def _config_from_blob(blob, offset):
    try:
        d = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"invalid config blob at offset {offset}: {exc}") from None
    if not isinstance(d, dict):
        raise CheckpointError(f"config blob at offset {offset} is not a JSON object")
    names = {f.name for f in fields(BackboneConfig)}
    for what, keys in (("lacks", names - d.keys()), ("has unknown", d.keys() - names)):
        if keys:
            raise CheckpointError(f"config blob at offset {offset} {what} keys {sorted(keys)}")
    try:
        return BackboneConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
    except (ValueError, TypeError, ContractError) as exc:  # ValueError covers ShapeError
        raise CheckpointError(f"invalid config blob at offset {offset}: {exc}") from None


def load_checkpoint(path) -> Model:
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"truncated checkpoint: {what} at offset {off}")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise CheckpointError("bad checkpoint magic at offset 0")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack("<I", take(4, "config length"))
    config = _config_from_blob(take(blob_len, "config blob"), off - blob_len)
    shapes = param_shapes(config)
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor name at offset {off - name_len} is not UTF-8") from None
        if name in params:
            raise CheckpointError(f"duplicate tensor {name} at offset {off - name_len}")
        if name not in shapes:
            raise CheckpointError(
                f"tensor {name!r} at offset {off - name_len} is not a parameter of the config"
            )
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = tuple(struct.unpack("<I", take(4, "dim"))[0] for _ in range(rank))
        if dims != shapes[name]:
            raise CheckpointError(
                f"shape mismatch for {name}: file has {dims}, config implies {shapes[name]}"
            )
        nbytes = math.prod(dims) * _FILE_DTYPE.itemsize  # a Python int: cannot overflow
        arr = np.frombuffer(take(nbytes, f"data of {name}"), dtype=_FILE_DTYPE).reshape(dims)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"non-finite values in tensor {name} (data at offset {off - nbytes})"
            )
        params[name] = arr.astype(CHECKPOINT_DTYPE)  # a native-order copy of the file's data
    if off != len(data):
        raise CheckpointError(f"{len(data) - off} trailing bytes after the last tensor at offset {off}")
    if set(params) != set(shapes):
        raise CheckpointError(
            f"checkpoint parameters {sorted(params)} do not match config-required {sorted(shapes)}"
        )
    return Model(config, params)
