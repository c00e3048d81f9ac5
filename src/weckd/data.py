"""Dataset ingestion (IDX + seeded synthetic shapes), the per-stage 10% split, batching."""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import BUFFER_BYTES, ContractError

__all__ = [
    "LabeledDataset",
    "DatasetSplit",
    "IdxFormatError",
    "load_idx",
    "write_idx",
    "generate_synthetic",
    "partition",
    "make_batches",
    "SHAPE_NAMES",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

N_STAGES = 3  # models in the chain, each trained on its own 10% of the data


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncation, or count mismatch)."""


@dataclass
class LabeledDataset:
    images: np.ndarray      # (N, C, H, W) float64 in [0,1]
    labels: np.ndarray      # (N,) int
    class_names: list
    num_classes: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ContractError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.images) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ContractError("labels out of range for the declared class count")

    def __len__(self):
        return len(self.images)


@dataclass(frozen=True)
class DatasetSplit:
    subsets: tuple          # one training index array per chain stage, in stage order
    d_test: np.ndarray

    def training_indices(self):
        return np.concatenate(self.subsets)


# ---------------------------------------------------------------------------
# IDX binary format
# ---------------------------------------------------------------------------

def _read_exact(f, n, what, offset):
    # n comes from a header that may be corrupt: read no more than the file holds
    buf = f.read(min(n, os.fstat(f.fileno()).st_size - offset))
    if len(buf) != n:
        raise IdxFormatError(
            f"truncated IDX file: expected {n} bytes for {what} at offset {offset}, got {len(buf)}"
        )
    return buf


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Read a classic big-endian IDX image/label pair; pixels scaled to [0,1]."""
    with open(images_path, "rb") as f:
        magic = struct.unpack(">I", _read_exact(f, 4, "images magic", 0))[0]
        if magic != IMAGES_MAGIC:
            raise IdxFormatError(
                f"bad images magic 0x{magic:08x} at offset 0 (expected 0x{IMAGES_MAGIC:08x})"
            )
        n, h, w = struct.unpack(">III", _read_exact(f, 12, "image dims", 4))
        raw = _read_exact(f, n * h * w, "pixel data", 16)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w).astype(np.float64) / 255.0
    with open(labels_path, "rb") as f:
        magic = struct.unpack(">I", _read_exact(f, 4, "labels magic", 0))[0]
        if magic != LABELS_MAGIC:
            raise IdxFormatError(
                f"bad labels magic 0x{magic:08x} at offset 0 (expected 0x{LABELS_MAGIC:08x})"
            )
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, "label count", 4))
        if n_labels != n:
            raise IdxFormatError(
                f"count mismatch: {n} images but {n_labels} labels (labels header at offset 4)"
            )
        labels = np.frombuffer(_read_exact(f, n_labels, "label data", 8), dtype=np.uint8).astype(np.int64)
    k = int(labels.max()) + 1 if n else 2
    return LabeledDataset(images, labels, [f"class_{i}" for i in range(k)], k)


def write_idx(dataset: LabeledDataset, images_path, labels_path):
    """Write a grayscale dataset as a big-endian IDX pair (u8 pixels)."""
    if dataset.images.shape[1] != 1:
        raise ContractError(
            f"IDX stores single-channel images; dataset has {dataset.images.shape[1]} channels"
        )
    if len(dataset) and dataset.labels.max() > 255:
        raise ContractError(
            f"IDX stores labels as u8; the largest label, {dataset.labels.max()}, exceeds 255"
        )
    n, _, h, w = dataset.images.shape
    # the pixels go out in runs of images scaled into one buffer of at most
    # BUFFER_BYTES, rounded and clipped in place: no whole-dataset temporary
    images = dataset.images[:, 0]
    rows = max(1, BUFFER_BYTES // (h * w * images.itemsize or 1))
    scaled = np.empty_like(images[:rows])
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, n, h, w))
        for lo in range(0, n, rows):
            run = images[lo:lo + rows]
            pixels = np.multiply(run, 255.0, out=scaled[:len(run)])
            np.rint(pixels, out=pixels)
            np.clip(pixels, 0, 255, out=pixels)
            f.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic shape classes
# ---------------------------------------------------------------------------

SHAPE_NAMES = ["circle", "square", "triangle", "cross", "ring", "bars", "diagonal", "checker"]


def _render_shape(cls, yy, xx, rng):
    """One glyph of class `cls` as an (H, W) 0/1 mask over the pixel grid `yy`, `xx`."""
    h, w = yy.shape
    cy = h / 2 + rng.uniform(-h / 5, h / 5)
    cx = w / 2 + rng.uniform(-w / 5, w / 5)
    s = min(h, w) * rng.uniform(0.16, 0.38)  # half-extent
    theta = rng.uniform(-np.pi / 8, np.pi / 8)
    # work in a rotated frame so every glyph appears at an arbitrary orientation
    dy = (yy - cy) * np.cos(theta) - (xx - cx) * np.sin(theta)
    dx = (yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
    if cls == 0:      # filled circle
        mask = dy ** 2 + dx ** 2 <= s ** 2
    elif cls == 1:    # filled square
        mask = (np.abs(dy) <= s) & (np.abs(dx) <= s)
    elif cls == 2:    # triangle
        frac = (dy + s) / (2 * s)
        mask = (dy >= -s) & (dy <= s) & (np.abs(dx) <= frac * s)
    elif cls == 3:    # plus sign
        t = s * rng.uniform(0.25, 0.45)
        mask = ((np.abs(dx) <= t) | (np.abs(dy) <= t)) & (np.abs(dx) <= s) & (np.abs(dy) <= s)
    elif cls == 4:    # ring
        r2 = dy ** 2 + dx ** 2
        inner = rng.uniform(0.45, 0.65)
        mask = (r2 <= s ** 2) & (r2 >= (inner * s) ** 2)
    elif cls == 5:    # two parallel bars
        t = s * rng.uniform(0.2, 0.4)
        mask = (np.abs(dx) <= s) & ((np.abs(dy - 0.6 * s) <= t) | (np.abs(dy + 0.6 * s) <= t))
    elif cls == 6:    # thick stripe
        half = s * rng.uniform(0.4, 0.6)
        mask = (np.abs(dy) <= half) & (np.abs(dx) <= 1.4 * s)
    elif cls == 7:    # checkerboard patch
        cell = max(2.0, s / 1.5)
        board = (np.floor(dy / cell).astype(int) + np.floor(dx / cell).astype(int)) % 2 == 0
        mask = board & (np.abs(dy) <= s) & (np.abs(dx) <= s)
    else:
        raise ContractError(f"no shape defined for class {cls}")
    return mask.astype(np.float64)


def generate_synthetic(n, num_classes, size=(32, 32), noise_std=0.1, seed=0) -> LabeledDataset:
    """Balanced shape-vs-noise dataset: one distinct glyph per class, jittered and noisy."""
    if not 2 <= num_classes <= 8:
        raise ContractError(f"classes must be in [2, 8], got {num_classes}")
    if n < 10 * num_classes:
        raise ContractError(f"n must be >= 10 * classes = {10 * num_classes}, got {n}")
    if not 0 <= noise_std < np.inf:  # NaN too
        raise ContractError(f"noise_std must be a finite number >= 0, got {noise_std}")
    h, w = size
    if h < 1 or w < 1:
        raise ContractError(f"{'height' if h < 1 else 'width'} must be >= 1, got size {h}x{w}")
    rng = np.random.default_rng(seed)
    # balanced labels (+/-1), then a seeded shuffle
    labels = np.arange(n) % num_classes
    labels = labels[rng.permutation(n)]
    images = np.empty((n, 1, h, w))
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    for i, cls in enumerate(labels):
        img = _render_shape(int(cls), yy, xx, rng)
        if noise_std > 0:
            img = np.clip(img + rng.normal(0.0, noise_std, size=img.shape), 0.0, 1.0)
        images[i, 0] = img
    return LabeledDataset(images, labels.astype(np.int64),
                          SHAPE_NAMES[:num_classes], num_classes)


# ---------------------------------------------------------------------------
# partition + batching
# ---------------------------------------------------------------------------

def partition(dataset: LabeledDataset, seed, stratified=True) -> DatasetSplit:
    """Seeded per-class shuffle, classes interleaved, then one contiguous 10%
    slice per chain stage and the rest as the test set. `stratified` is kept
    for callers that pass it; the split is always stratified."""
    if not stratified:
        raise ContractError("partition is always stratified")
    n = len(dataset)
    if n < 10:
        raise ContractError(f"partition needs at least 10 samples, got {n}")
    rng = np.random.default_rng(seed)
    order = [rng.permutation(np.flatnonzero(dataset.labels == c))
             for c in range(dataset.num_classes)]
    # interleave classes so each contiguous slice stays balanced: row i
    # holds each class's i-th sample, -1 where a class has run out
    table = np.full((max(len(o) for o in order), len(order)), -1)
    for c, o in enumerate(order):
        table[:len(o), c] = o
    perm = table[table >= 0]
    tenth = n // 10
    return DatasetSplit(
        subsets=tuple(perm[i * tenth:(i + 1) * tenth].copy() for i in range(N_STAGES)),
        d_test=perm[N_STAGES * tenth:].copy(),
    )


def make_batches(dataset: LabeledDataset, indices, batch_size):
    """(image batch, label batch) pairs over `indices`, in order."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ContractError("cannot batch an empty index set")
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    out = []
    for start in range(0, indices.size, batch_size):
        chunk = indices[start:start + batch_size]
        out.append((dataset.images[chunk], dataset.labels[chunk]))
    return out
