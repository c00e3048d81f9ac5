import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from weckd.data import (
    IdxFormatError,
    LabeledDataset,
    SHAPE_NAMES,
    generate_synthetic,
    load_idx,
    make_batches,
    partition,
    write_idx,
)
from weckd.tensor import BUFFER_BYTES, ContractError


def test_idx_round_trip_bit_exact(tmp_path):
    ds = generate_synthetic(40, 4, (16, 16), 0.1, seed=5)
    ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    write_idx(ds, ip, lp)
    back = load_idx(ip, lp)
    # u8 quantization is the only permitted change; re-writing must be stable
    ip2, lp2 = str(tmp_path / "img2.idx"), str(tmp_path / "lab2.idx")
    write_idx(back, ip2, lp2)
    assert open(ip, "rb").read() == open(ip2, "rb").read()
    assert open(lp, "rb").read() == open(lp2, "rb").read()
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_idx_refuses_labels_beyond_u8_before_opening_a_file(tmp_path):
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    top = LabeledDataset(np.zeros((2, 1, 2, 2)), np.array([0, 255]), [str(c) for c in range(256)], 256)
    write_idx(top, str(ip), str(lp))
    np.testing.assert_array_equal(load_idx(str(ip), str(lp)).labels, [0, 255])
    ip.unlink(); lp.unlink()
    # as u8, 256 and 300 would read back as 0 and 44
    wide = LabeledDataset(np.zeros((3, 1, 2, 2)), np.array([0, 256, 300]), [str(c) for c in range(301)], 301)
    with pytest.raises(ContractError, match="300"):
        write_idx(wide, str(ip), str(lp))
    assert not ip.exists() and not lp.exists()


def test_idx_normalization_endpoints(tmp_path):
    images = np.array([0.0, 1.0, 1.0, 0.0]).reshape(1, 1, 2, 2)
    ds = LabeledDataset(images, np.array([0]), ["a", "b"], 2)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(ds, ip, lp)
    back = load_idx(ip, lp)
    assert set(np.unique(back.images)) == {0.0, 1.0}


def test_idx_writes_the_whole_array_pixels_from_runs_of_images_and_no_whole_dataset_temporary(
        tmp_path):
    # 1024 images of 32x32 f64 are 8 MiB; every scaled copy fits in one budget,
    # and pixels are rounded half to even and clipped as over the whole array
    rng = np.random.default_rng(0)
    images = rng.uniform(-0.1, 1.1, (1024, 1, 32, 32))
    images[0, 0, 0, :6] = np.array([0.5, 1.5, 2.5, 253.5, 254.5, 255.5]) / 255.0
    ds = LabeledDataset(images, rng.integers(0, 4, 1024), ["a", "b", "c", "d"], 4)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_idx(ds, ip, lp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * BUFFER_BYTES, peak
    pixels = np.clip(np.rint(images[:, 0] * 255.0), 0, 255).astype(np.uint8)
    assert open(ip, "rb").read()[16:] == pixels.tobytes()


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 16)
    with pytest.raises(IdxFormatError) as exc:
        load_idx(str(p), str(p))
    assert "offset 0" in str(exc.value)


def test_idx_truncated(tmp_path):
    ds = generate_synthetic(40, 2, (8, 8), 0.0, seed=0)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(ds, ip, lp)
    data = open(ip, "rb").read()
    open(ip, "wb").write(data[:-10])
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    a = generate_synthetic(40, 2, (8, 8), 0.0, seed=0)
    b = generate_synthetic(30, 2, (8, 8), 0.0, seed=0)
    ipa, lpa = str(tmp_path / "ia.idx"), str(tmp_path / "la.idx")
    ipb, lpb = str(tmp_path / "ib.idx"), str(tmp_path / "lb.idx")
    write_idx(a, ipa, lpa)
    write_idx(b, ipb, lpb)
    with pytest.raises(IdxFormatError, match="mismatch"):
        load_idx(ipa, lpb)


def test_idx_reader_fuzz_gives_only_idx_errors(tmp_path):
    # every truncation and four flips of every byte of each file of a pair:
    # each variant loads or raises IdxFormatError, never another exception
    ds = generate_synthetic(20, 2, (4, 4), 0.1, seed=0)
    small = LabeledDataset(ds.images[:5], ds.labels[:5], ds.class_names, 2)
    paths = [tmp_path / "i.idx", tmp_path / "l.idx"]
    write_idx(small, *map(str, paths))
    outcomes = Counter()
    for path in paths:
        data = path.read_bytes()
        variants = [data[:n] for n in range(len(data))]
        variants += [data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
                     for i in range(len(data)) for mask in (0x01, 0x10, 0x80, 0xFF)]
        for raw in variants:
            path.write_bytes(raw)
            try:
                load_idx(*map(str, paths))
                outcomes["loaded"] += 1
            except IdxFormatError:
                outcomes["refused"] += 1
        path.write_bytes(data)
    assert sum(outcomes.values()) == 5 * (16 + 5 * 16 + 8 + 5)
    assert outcomes["loaded"] and outcomes["refused"]


def test_idx_header_larger_than_file_is_refused_before_reading(tmp_path):
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF) + b"\0" * 4)
    lp.write_bytes(struct.pack(">II", 0x801, 1) + b"\0")
    with pytest.raises(IdxFormatError, match="offset 16, got 4"):
        load_idx(str(ip), str(lp))


def test_generate_balanced_classes():
    ds = generate_synthetic(400, 4, (16, 16), 0.1, seed=3)
    counts = np.bincount(ds.labels, minlength=4)
    np.testing.assert_array_equal(counts, [100, 100, 100, 100])


def test_generate_noise_free_is_binary():
    ds = generate_synthetic(40, 4, (32, 32), 0.0, seed=1)
    assert set(np.unique(ds.images)) <= {0.0, 1.0}


def test_generate_deterministic():
    a = generate_synthetic(60, 3, (16, 16), 0.2, seed=9)
    b = generate_synthetic(60, 3, (16, 16), 0.2, seed=9)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_generate_pixels_in_unit_interval():
    ds = generate_synthetic(80, 8, (16, 16), 0.5, seed=2)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.class_names == SHAPE_NAMES


def test_generate_class_count_limits():
    with pytest.raises(ContractError):
        generate_synthetic(100, 9, (16, 16), 0.1, seed=0)
    with pytest.raises(ContractError):
        generate_synthetic(100, 1, (16, 16), 0.1, seed=0)
    with pytest.raises(ContractError):
        generate_synthetic(30, 4, (16, 16), 0.1, seed=0)  # n < 10*K


@pytest.mark.parametrize("noise_std", [-0.5, float("nan"), float("inf")])
def test_generate_rejects_a_negative_or_nan_noise_std(noise_std):
    with pytest.raises(ContractError, match="noise_std"):
        generate_synthetic(40, 4, (16, 16), noise_std, seed=0)


def test_partition_sizes_n100():
    ds = generate_synthetic(100, 4, (8, 8), 0.0, seed=0)
    split = partition(ds, 0)
    assert (len(split.subsets[0]), len(split.subsets[1]), len(split.subsets[2]),
            len(split.d_test)) == (10, 10, 10, 70)


def test_partition_sizes_remainder():
    ds = generate_synthetic(103, 4, (8, 8), 0.0, seed=0)
    split = partition(ds, 1)
    assert (len(split.subsets[0]), len(split.subsets[1]), len(split.subsets[2]),
            len(split.d_test)) == (10, 10, 10, 73)


def test_partition_disjoint_and_complete():
    ds = generate_synthetic(250, 5, (8, 8), 0.0, seed=0)
    for seed in range(5):
        split = partition(ds, seed)
        parts = [split.subsets[0], split.subsets[1], split.subsets[2], split.d_test]
        allidx = np.concatenate(parts)
        assert len(np.unique(allidx)) == 250
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.intersect1d(parts[i], parts[j]).size == 0


def test_partition_deterministic():
    ds = generate_synthetic(100, 4, (8, 8), 0.0, seed=0)
    a, b = partition(ds, 7), partition(ds, 7)
    np.testing.assert_array_equal(a.subsets[0], b.subsets[0])
    np.testing.assert_array_equal(a.d_test, b.d_test)


def test_partition_stratified_balances_slices():
    ds = generate_synthetic(400, 4, (8, 8), 0.0, seed=0)
    split = partition(ds, 0)
    for subset in (split.subsets[0], split.subsets[1], split.subsets[2]):
        counts = np.bincount(ds.labels[subset], minlength=4)
        assert counts.max() - counts.min() <= 1


# stratified=True is what the CLI and the benchmark harness pass
@pytest.mark.parametrize("stratified", [True])
def test_partition_with_an_empty_class_is_disjoint_and_complete(stratified):
    ds = generate_synthetic(60, 2, (8, 8), 0.0, seed=0)
    ds = LabeledDataset(ds.images, ds.labels * 2, ["a", "b", "c"], 3)  # no class 1
    split = partition(ds, 0, stratified=stratified)
    merged = np.concatenate([split.subsets[0], split.subsets[1], split.subsets[2], split.d_test])
    np.testing.assert_array_equal(np.sort(merged), np.arange(60))
    assert [len(split.subsets[0]), len(split.subsets[1]), len(split.subsets[2])] == [6, 6, 6]


def test_partition_rejects_unstratified():
    ds = generate_synthetic(20, 2, (8, 8), 0.0, seed=0)
    with pytest.raises(ContractError, match="always stratified"):
        partition(ds, 0, stratified=False)


def test_partition_minimum_size():
    ds = generate_synthetic(20, 2, (8, 8), 0.0, seed=0)
    small = LabeledDataset(ds.images[:9], ds.labels[:9] % 2, ["a", "b"], 2)
    with pytest.raises(ContractError):
        partition(small, 0)


def test_batch_sizes():
    ds = generate_synthetic(100, 4, (8, 8), 0.0, seed=0)
    batches = make_batches(ds, np.arange(70), 32)
    assert [len(y) for _, y in batches] == [32, 32, 6]
    singles = make_batches(ds, np.arange(70), 1)
    assert len(singles) == 70


def test_batch_order():
    # the seeded epoch shuffle lives in training (test_training.py::test_epoch_order_*)
    ds = generate_synthetic(50, 4, (8, 8), 0.0, seed=0)
    plain = make_batches(ds, np.arange(10), 4)
    np.testing.assert_array_equal(np.concatenate([y for _, y in plain]), ds.labels[:10])


def test_batch_empty_indices_rejected():
    ds = generate_synthetic(50, 4, (8, 8), 0.0, seed=0)
    with pytest.raises(ContractError):
        make_batches(ds, np.array([], dtype=int), 4)
