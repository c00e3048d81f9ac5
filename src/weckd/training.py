"""Chain orchestration: stage-1 supervised training, distillation of each later
stage from its frozen predecessor, LR plateau decay, early stopping,
checkpointing, timing capture."""
from __future__ import annotations

import itertools
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
    _conv_sizes,
    build_model,
    forward,
    forward_on_tape,
    param_digest,
    param_shapes,
)
from .data import N_STAGES, DatasetSplit, LabeledDataset, make_batches
from .losses import (DistillParams, anneal_temperature, ce_loss, hybrid_loss, hybrid_loss_grad,
                     softmax_temperature)
from .tensor import ContractError, NumericError

__all__ = [
    "TrainConfig",
    "StageResult",
    "ChainResult",
    "CheckpointError",
    "train_stage1",
    "train_distill_stage",
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
        if not 0 < self.learning_rate < math.inf:
            raise ContractError(f"learning_rate must be in (0,inf), got {self.learning_rate}")
        for name in ("batch_size", "max_epochs", "patience", "lr_patience"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ContractError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise ContractError(f"lr_decay_factor must be in (0,1), got {self.lr_decay_factor}")
        if len(self.stage_attention) != N_STAGES:
            raise ContractError(f"stage_attention needs exactly {N_STAGES} flags")


@dataclass
class StageResult:
    model: Model
    epoch_curves: list            # per epoch: dict(train_loss, train_acc, val_loss, val_acc)
    best_epoch: int               # the epoch whose parameters `model` holds
    steps_per_epoch: int
    ms_per_step: float
    row_blocks: int               # image blocks of a full batch's widest conv pass


@dataclass
class ChainResult:
    stage_results: list           # one StageResult per stage
    teacher_digests: list         # per distill stage: (digest before, digest after)


def evaluate(model, dataset, indices, batch_size=None):
    """Mean CE loss and accuracy over `indices` (pure inference). The pass is
    one `forward` call unless `batch_size` splits it."""
    batches = make_batches(dataset, indices, batch_size or len(indices))
    logits = np.concatenate([forward(model, x) for x, _ in batches])
    return loss_accuracy(logits, dataset.labels[np.asarray(indices)])


def logits_of(model, dataset, indices):
    """Inference logits over `indices`, an index array (its rows gathered once)
    or a slice (its rows not copied), scored in one `forward` call: its row
    tiles are the only chunking, so a row's logits do not depend on the rows
    beside it."""
    return forward(model, dataset.images[indices])


def loss_accuracy(logits, labels):
    """Mean CE (`ce_loss` of one softmax over all rows) and accuracy against integer `labels`."""
    probs = softmax_temperature(logits, 1.0)
    return ce_loss(probs, labels), float((probs.argmax(axis=1) == labels).mean())


def scheduler_step(val_losses, lr, cfg: TrainConfig, decays_done=0):
    """LR-plateau decay, early stopping and the kept epoch from the validation-loss history.

    Returns (new_lr, stop, decays_done, best_epoch). "Improvement" means strictly
    below the best seen by at least 1e-6; `best_epoch` is the last that improved.
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
    return new_lr, stop, decays_done, best_epoch


def _carve_validation(indices):
    """Last 10% of the stage's own (seeded-order) subset becomes its validation set."""
    indices = np.asarray(indices)
    n_val = max(1, indices.size // 10)
    return indices[:-n_val], indices[-n_val:]


def _epoch_order(cfg, stage_index, epoch, n):
    """The seeded order in which one epoch visits a stage's n training images."""
    seed = (cfg.seed * 1_000_003 + stage_index * 7919 + epoch) & 0xFFFFFFFF
    return np.random.default_rng(seed).permutation(n)


def _train_loop(model, subset, dataset, cfg, stage_index, teacher_z=None):
    """The one stage trainer: `model` learns from `subset` less its validation carve
    and keeps the parameters of the epoch `scheduler_step` names. It learns from a
    teacher only through `teacher_z`, the teacher's logits over the rows left after
    the carve; without them it runs the hybrid objective at alpha = 1 against its
    own logits: KL = 0, plain CE.
    """
    train_idx, val_idx = _carve_validation(subset)
    params = model.params  # sgd_step returns new arrays and never writes its inputs
    velocity = None
    lr = cfg.learning_rate
    decays = 0
    dp = cfg.distill
    tsc = dp.t_squared_compensation
    curves = []
    step_times = []
    steps_per_epoch = int(np.ceil(train_idx.size / cfg.batch_size))
    alpha = 1.0 if teacher_z is None else dp.alpha
    itemsize = np.result_type(*params.values()).itemsize
    widest_columns = max(cols for cols, _ in _conv_sizes(model.config)) * itemsize

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
            tape = T.Tape()
            logits_node = forward_on_tape(Model(model.config, params), tape, x)
            z = logits_node.value
            zt = z if teacher_z is None else teacher_z[rows]
            loss, _, _ = hybrid_loss(z, zt, y, alpha, temp, t_squared_compensation=tsc)
            dz = hybrid_loss_grad(z, zt, y, alpha, temp, t_squared_compensation=tsc)
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
        lr, stop, decays, best_epoch = scheduler_step([c["val_loss"] for c in curves], lr, cfg, decays)
        if best_epoch == epoch:
            best_params = params
        if stop:
            break

    return StageResult(
        model=Model(model.config, best_params),
        epoch_curves=curves,
        best_epoch=best_epoch,
        steps_per_epoch=steps_per_epoch,
        ms_per_step=float(np.mean(step_times) * 1000.0),
        row_blocks=len(T._image_blocks(cfg.batch_size, widest_columns)),
    )


def train_stage1(model, d1_indices, dataset, cfg: TrainConfig) -> StageResult:
    """Supervised CE training of the chain's first model on its subset."""
    return _train_loop(model, d1_indices, dataset, cfg, stage_index=0)


def train_distill_stage(student, teacher, d_indices, dataset, cfg: TrainConfig,
                        stage_index) -> StageResult:
    """Hybrid CE+KL training of a student against its predecessor's logits over the
    student's training rows, scored once: every epoch would see the same ones."""
    if teacher.num_classes != student.num_classes:
        raise ContractError(
            f"chain composition error: teacher has {teacher.num_classes} classes, "
            f"student has {student.num_classes}"
        )
    teacher_z = forward(teacher, dataset.images[_carve_validation(d_indices)[0]])
    return _train_loop(student, d_indices, dataset, cfg, stage_index=stage_index,
                       teacher_z=teacher_z)


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
    for (i, a), (j, b) in itertools.combinations(enumerate(split.subsets, start=1), 2):
        if np.intersect1d(a, b).size:
            raise ContractError(f"training subsets {i} and {j} overlap")


def run_chain(dataset: LabeledDataset, split: DatasetSplit, cfg: TrainConfig,
              backbone: BackboneConfig = None) -> ChainResult:
    """The full chain: supervised M1, then each later model distilled from its predecessor.

    Trains only; `runner.score_chain` scores the trained models."""
    _assert_no_leakage(split)
    backbone = backbone or _default_backbone(dataset)
    seed = _f_base_seed(cfg.seed)
    # one shared init: every model has the gate's parameters, used or not
    init = build_model(replace(backbone, init_seed=seed)).params
    stage_results = []
    teacher_digests = []
    teacher = None
    for i, (subset, attention) in enumerate(zip(split.subsets, cfg.stage_attention, strict=True)):
        model = Model(replace(backbone, attention_enabled=attention, init_seed=seed), init)
        if teacher is None:
            result = train_stage1(model, subset, dataset, cfg)
        else:
            # each student inherits its predecessor's trained extractor and
            # head instead of relearning them from its own 10% slice; the
            # attention gate only when both use one (else it keeps its init)
            gate = teacher.attention_enabled and model.attention_enabled
            model.params = {name: init[name] if name in ("w_att", "b_att") and not gate
                            else value for name, value in teacher.params.items()}
            before = param_digest(teacher)
            result = train_distill_stage(model, teacher, subset, dataset, cfg, stage_index=i)
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
