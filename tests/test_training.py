import ast
import json
import os
import platform
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import weckd.tensor
import weckd.training
from weckd.backbone import BackboneConfig, build_model, param_digest
from weckd.config import parse_config
from weckd.data import DatasetSplit, generate_synthetic, partition
from weckd.losses import DistillParams, hybrid_loss_grad
from weckd.runner import (
    backbone_for,
    deltas,
    evaluate_model,
    load_dataset,
    run_experiment,
    score_chain,
    tune_experiment,
)
from weckd.tensor import ContractError, NumericError, ShapeError, Tape
from weckd.training import (
    CHECKPOINT_DTYPE,
    CheckpointError,
    TrainConfig,
    at_checkpoint_precision,
    evaluate,
    load_checkpoint,
    logits_of,
    loss_accuracy,
    run_chain,
    save_checkpoint,
    scheduler_step,
    train_distill_stage,
    train_stage1,
)

from oracles import train_single_baseline

TINY_BB = BackboneConfig(input_size=(12, 12, 1), conv_blocks=(4, 6), fc_width=8,
                         num_classes=3)


def tiny_setup(n=60, seed=0):
    ds = generate_synthetic(n, 3, (12, 12), 0.1, seed=seed)
    return ds, partition(ds, seed)


def fast_cfg(**kw):
    base = dict(learning_rate=5e-3, batch_size=8, max_epochs=3, patience=50,
                lr_patience=20, momentum=0.9, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# -- scheduler ---------------------------------------------------------------

def test_scheduler_improving_history_keeps_going():
    cfg = TrainConfig(patience=10, lr_patience=5)
    lr, stop, decays, best_epoch = scheduler_step([1.0, 0.9, 0.8], 1e-3, cfg)
    assert lr == 1e-3 and not stop and decays == 0 and best_epoch == 2


def test_scheduler_stops_after_patience_stagnant_epochs():
    cfg = TrainConfig(patience=10, lr_patience=5)
    history = [1.0] + [1.0] * 10
    _, stop, _, _ = scheduler_step(history, 1e-3, cfg)
    assert stop


def test_scheduler_decays_at_lr_patience():
    cfg = TrainConfig(patience=10, lr_patience=5)
    history = [1.0] + [1.0] * 5
    lr, stop, decays, _ = scheduler_step(history, 1e-3, cfg)
    assert lr == pytest.approx(1e-4) and not stop and decays == 1


def test_scheduler_caps_total_decays():
    cfg = TrainConfig(patience=50, lr_patience=5)
    lr = 1e-3
    decays = 0
    for stagnant in range(1, 40):
        lr, _, decays, _ = scheduler_step([1.0] + [1.0] * stagnant, lr, cfg, decays)
    assert decays == 3
    assert lr == pytest.approx(1e-6)


def test_scheduler_improvement_threshold_is_strict():
    cfg = TrainConfig(patience=2, lr_patience=5)
    # a drop below 1e-6 does not count as improvement
    _, stop, _, _ = scheduler_step([1.0, 1.0 - 1e-9, 1.0 - 2e-9], 1e-3, cfg)
    assert stop


def test_scheduler_keeps_the_last_epoch_that_improved_by_the_threshold():
    cfg = TrainConfig()
    assert scheduler_step([1.0, 1.0 - 1e-9], 1e-3, cfg)[3] == 0
    assert scheduler_step([1.0, 0.5, 0.5 - 5e-7, 0.4], 1e-3, cfg)[3] == 3
    assert scheduler_step([1.0, 0.5, 0.5 - 5e-7], 1e-3, cfg)[3] == 1


def test_scheduler_rejects_empty_history():
    with pytest.raises(ContractError):
        scheduler_step([], 1e-3, TrainConfig())


# -- stage training ----------------------------------------------------------

def test_steps_per_epoch_ceiling():
    ds, split = tiny_setup()
    model = build_model(TINY_BB)
    res = train_stage1(model, split.subsets[0][:6], ds, fast_cfg(batch_size=32, max_epochs=1))
    assert res.steps_per_epoch == 1
    assert res.best_epoch == 0
    assert len(res.epoch_curves) == 1


def test_stage_training_is_deterministic():
    ds, split = tiny_setup()
    results = []
    for _ in range(2):
        model = build_model(TINY_BB)
        results.append(train_stage1(model, split.subsets[0], ds, fast_cfg()))
    assert param_digest(results[0].model) == param_digest(results[1].model)
    assert results[0].epoch_curves == results[1].epoch_curves


def test_distill_with_alpha_one_matches_supervised_trajectory():
    ds, split = tiny_setup()
    teacher = train_stage1(build_model(TINY_BB), split.subsets[0], ds, fast_cfg()).model
    cfg = fast_cfg(distill=DistillParams(alpha=1.0))
    supervised = train_stage1(build_model(replace(TINY_BB, init_seed=2)),
                              split.subsets[1], ds, cfg)
    distilled = train_distill_stage(build_model(replace(TINY_BB, init_seed=2)),
                                    teacher, split.subsets[1], ds, cfg, stage_index=0)
    assert param_digest(supervised.model) == param_digest(distilled.model)


def test_teacher_parameters_frozen_through_distillation():
    ds, split = tiny_setup()
    teacher = train_stage1(build_model(TINY_BB), split.subsets[0], ds, fast_cfg()).model
    digest_before = param_digest(teacher)
    train_distill_stage(build_model(replace(TINY_BB, init_seed=5)), teacher,
                        split.subsets[1], ds, fast_cfg(), stage_index=1)
    assert param_digest(teacher) == digest_before


def test_distill_class_count_mismatch_rejected():
    ds, split = tiny_setup()
    teacher = build_model(replace(TINY_BB, num_classes=4))
    with pytest.raises(ContractError, match="classes"):
        train_distill_stage(build_model(TINY_BB), teacher, split.subsets[1], ds,
                            fast_cfg(), stage_index=1)


def test_best_validation_epoch_parameters_returned():
    ds, split = tiny_setup()
    model = build_model(TINY_BB)
    res = train_stage1(model, split.subsets[0], ds, fast_cfg(max_epochs=5))
    # re-run and capture the parameters at the kept epoch by truncating the budget
    res2 = train_stage1(build_model(TINY_BB), split.subsets[0], ds,
                        fast_cfg(max_epochs=res.best_epoch + 1))
    assert param_digest(res.model) == param_digest(res2.model)


def _snapshot(model):
    return {name: value.copy() for name, value in model.params.items()}


def _assert_unchanged(model, snapshot):
    assert model.params.keys() == snapshot.keys()
    for name, value in snapshot.items():
        np.testing.assert_array_equal(model.params[name], value, err_msg=name)


def test_stage_training_leaves_the_given_model_unchanged():
    ds, split = tiny_setup()
    model = build_model(TINY_BB)
    before = _snapshot(model)
    res = train_stage1(model, split.subsets[0], ds, fast_cfg())
    _assert_unchanged(model, before)
    assert param_digest(res.model) != param_digest(model)


def test_chain_leaves_every_stage_start_and_teacher_unchanged(monkeypatch):
    # each stage starts from arrays it shares with the init or its teacher,
    # uncopied, so no stage may write into the arrays it was given
    ds, split = tiny_setup(n=90)
    given = []
    real_stage1, real_distill = weckd.training.train_stage1, weckd.training.train_distill_stage

    def stage1(model, *args, **kwargs):
        given.append((model, _snapshot(model)))
        return real_stage1(model, *args, **kwargs)

    def distill(student, teacher, *args, **kwargs):
        given.extend([(student, _snapshot(student)), (teacher, _snapshot(teacher))])
        return real_distill(student, teacher, *args, **kwargs)

    monkeypatch.setattr(weckd.training, "train_stage1", stage1)
    monkeypatch.setattr(weckd.training, "train_distill_stage", distill)
    run_chain(ds, split, fast_cfg(max_epochs=2, stage_attention=(True, True, True)), TINY_BB)
    assert len(given) == 5
    for model, snapshot in given:
        _assert_unchanged(model, snapshot)


def test_step_time_recorded():
    ds, split = tiny_setup()
    res = train_stage1(build_model(TINY_BB), split.subsets[0], ds, fast_cfg())
    assert res.ms_per_step > 0
    assert res.row_blocks == min(8, weckd.tensor._cpus())


# -- heap ----------------------------------------------------------------------

MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
MMAP, TRIM = (-3, 32 << 20), (-1, -1)  # (mallopt parameter, value) that `import weckd` sets


@pytest.mark.parametrize("env, has_mallopt, calls", [
    ({}, True, [MMAP, TRIM]),
    ({"MALLOC_TRIM_THRESHOLD_": "0"}, True, [MMAP]),
    ({"MALLOC_MMAP_THRESHOLD_": "4096"}, True, [TRIM]),
    ({"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0:glibc.malloc.mmap_threshold=4096"},
     True, []),
    ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX512F"}, True, [MMAP, TRIM]),
    ({}, False, []),
])
def test_import_sets_the_malloc_thresholds_the_environment_leaves_unset(env, has_mallopt, calls):
    # weckd's import runs against a stand-in C library that records each mallopt
    probe = (
        "import ctypes\n"
        "calls = []\n"
        "class Mallopt:\n"
        "    def __call__(self, param, value): calls.append((param, value))\n"
        f"class Libc:\n    {'mallopt = Mallopt()' if has_mallopt else 'pass'}\n"
        "ctypes.CDLL = lambda name: Libc()\n"
        "import weckd\n"
        "print(calls)\n"
    )
    clean = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
    out = subprocess.run([sys.executable, "-c", probe], env={**clean, **env},
                         capture_output=True, text=True, check=True)
    assert ast.literal_eval(out.stdout) == calls


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc"
                    or any(v in os.environ for v in MALLOC_ENV),
                    reason="the heap settings that `import weckd` makes are glibc's")
def test_a_repeated_chain_reuses_its_heap_pages():
    # a backward sweep frees each step's graph and glibc keeps the freed pages,
    # so once one chain has run, an identical one takes almost no page faults;
    # with the heap trimmed back to the kernel it took 13k-24k
    import resource  # Unix only, like the skip condition
    ds = generate_synthetic(400, 4, (32, 32), 0.15, seed=3)
    split = partition(ds, 0)
    cfg = TrainConfig(max_epochs=2, batch_size=64)
    run_chain(ds, split, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_chain(ds, split, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2000, f"{faults} minor page faults in a repeated chain"


# -- image blocks --------------------------------------------------------------

@pytest.mark.parametrize("attention", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_training_steps_bits_do_not_depend_on_the_cpu_count(attention, dtype, monkeypatch):
    # the default network, so every GEMM has the shapes training gives it;
    # conv and pool split their images into one block per CPU
    from weckd.backbone import Model, forward_on_tape
    cfg = BackboneConfig(input_size=(32, 32, 1), num_classes=4, attention_enabled=attention)
    model = build_model(cfg)
    model = Model(cfg, {k: v.astype(dtype) for k, v in model.params.items()})
    rng = np.random.default_rng(1)

    def step(x, y, cpus):
        monkeypatch.setattr(weckd.tensor, "_cpus", lambda: cpus)
        tape = Tape()
        out = forward_on_tape(model, tape, x)
        return out.value, tape.backward(out, hybrid_loss_grad(out.value, out.value, y, 1.0, 1.0))

    for batch in (1, 2, 3, 5, 16, 20, 32, 33, 64):
        x = rng.random((batch, 1, 32, 32)).astype(dtype)
        y = rng.integers(0, 4, batch)
        z1, one = step(x, y, 1)
        for cpus in (2, 3, 4):
            z, grads = step(x, y, cpus)
            assert z.dtype == dtype and np.array_equal(z, z1), (batch, cpus)
            assert list(grads) == list(one)
            for name in one:
                assert grads[name].dtype == one[name].dtype, (batch, cpus, name)
                assert np.array_equal(grads[name], one[name]), (batch, cpus, name)


@pytest.mark.parametrize("attention", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_inference_bits_do_not_depend_on_the_cpu_count(attention, dtype, monkeypatch):
    # forward raises its tile count to a multiple of the CPU count, but never
    # below 2 rows a tile: a 1-row tile's logits differ in the last bits
    from weckd.backbone import Model, _tile_rows, forward
    cfg = BackboneConfig(input_size=(32, 32, 1), num_classes=4, attention_enabled=attention)
    model = build_model(cfg)
    model = Model(cfg, {k: v.astype(dtype) for k, v in model.params.items()})
    rows = _tile_rows(cfg, dtype)
    real_layers = weckd.backbone._layers
    tiles = []

    def recording(ops, p, x, config):
        tiles.append(len(x))
        return real_layers(ops, p, x, config)

    monkeypatch.setattr(weckd.backbone, "_layers", recording)
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5, rows + 1, 257):
        x = rng.random((n, 1, 32, 32)).astype(dtype)
        monkeypatch.setattr(weckd.tensor, "_cpus", lambda: 1)
        tiles.clear()
        z1 = forward(model, x)
        assert tiles == [len(t) for t in np.array_split(x, -(-n // rows))], n
        for cpus in (2, 3, 4):
            monkeypatch.setattr(weckd.tensor, "_cpus", lambda: cpus)
            tiles.clear()
            z = forward(model, x)
            assert z.dtype == dtype and np.array_equal(z, z1), (n, cpus)
            assert sum(tiles) == n and min(tiles) >= min(n, 2), (n, cpus, tiles)


@pytest.mark.parametrize("error", [ShapeError, NumericError, MemoryError])
def test_a_worker_blocks_exception_reaches_the_caller_after_every_block(error):
    finished = []

    def block(i):
        if i == 0:  # on a pool thread: every block but the last runs there
            assert threading.current_thread() is not threading.main_thread()
            raise error(f"block {i}")
        time.sleep(0.05)
        finished.append(i)
        return i

    with pytest.raises(error, match="block 0"):
        weckd.tensor._on_blocks(block, [(0,), (1,), (2,)])
    assert sorted(finished) == [1, 2]
    assert weckd.tensor._on_blocks(lambda i: i * i, [(1,), (2,), (3,)]) == [1, 4, 9]


# -- chain -------------------------------------------------------------------

def test_chain_deltas_telescope_exactly():
    ds, split = tiny_setup(n=90)
    chain = run_chain(ds, split, fast_cfg(), TINY_BB)
    progression, _ = score_chain([r.model for r in chain.stage_results], ds, split)
    d = deltas(progression)
    assert d["m1_to_m3"] == pytest.approx(d["m1_to_m2"] + d["m2_to_m3"], abs=0)
    assert [r["stage"] for r in progression] == ["M1", "M2", "M3"]


def test_chain_attention_flags_follow_config():
    ds, split = tiny_setup(n=90)
    chain = run_chain(ds, split, fast_cfg(), TINY_BB)
    assert [r.model.attention_enabled for r in chain.stage_results] == [False, True, True]


def test_chain_students_inherit_teacher_features():
    ds, split = tiny_setup(n=90)
    cfg = fast_cfg(max_epochs=1)
    chain = run_chain(ds, split, cfg, TINY_BB)
    # a fresh model trained one epoch on d2 alone would differ far more; the
    # student's conv kernels must start from (and stay close to) the teacher's
    m1 = chain.stage_results[0].model
    m2 = chain.stage_results[1].model
    drift = np.abs(m2.params["conv0_w"] - m1.params["conv0_w"]).max()
    fresh = build_model(replace(TINY_BB, attention_enabled=True))
    gap = np.abs(fresh.params["conv0_w"] - m1.params["conv0_w"]).max()
    assert drift < gap


@pytest.mark.parametrize("flags", [(False, True, True), (True, False, True)])
def test_chain_student_starts_from_teacher_and_takes_the_gate_only_if_both_use_one(
        monkeypatch, flags):
    ds, split = tiny_setup(n=90)
    starts = []
    real = weckd.training.train_distill_stage

    def recording(student, teacher, *args, **kwargs):
        starts.append((student.attention_enabled, dict(student.params), teacher))
        return real(student, teacher, *args, **kwargs)

    monkeypatch.setattr(weckd.training, "train_distill_stage", recording)
    run_chain(ds, split, fast_cfg(max_epochs=1, stage_attention=flags), TINY_BB)
    init = build_model(replace(TINY_BB, init_seed=weckd.training._f_base_seed(0))).params
    assert len(starts) == 2
    for gated, params, teacher in starts:
        both = gated and teacher.attention_enabled
        for name, value in params.items():
            source = init if name in ("w_att", "b_att") and not both else teacher.params
            np.testing.assert_array_equal(value, source[name], err_msg=name)
    # the gated M3 of (False, True, True) must take M2's trained gate, not its init
    if flags == (False, True, True):
        assert not np.array_equal(starts[1][1]["w_att"], init["w_att"])


def test_chain_refuses_test_leakage():
    ds, _ = tiny_setup(n=90)
    leaky = DatasetSplit(subsets=(np.arange(0, 9), np.arange(9, 18), np.arange(18, 27)),
                         d_test=np.arange(8, 90))
    with pytest.raises(ContractError, match="test"):
        run_chain(ds, leaky, fast_cfg(), TINY_BB)


def test_chain_refuses_overlapping_subsets():
    ds, _ = tiny_setup(n=90)
    leaky = DatasetSplit(subsets=(np.arange(0, 9), np.arange(5, 14), np.arange(18, 27)),
                         d_test=np.arange(27, 90))
    with pytest.raises(ContractError, match="overlap"):
        run_chain(ds, leaky, fast_cfg(), TINY_BB)


def test_single_baseline_uses_all_training_subsets():
    ds, split = tiny_setup(n=90)
    res = train_single_baseline(ds, split, fast_cfg(max_epochs=1), TINY_BB)
    assert not res.model.attention_enabled
    # 27 training indices minus 2 validation carve, batch 8 -> 4 steps
    assert res.steps_per_epoch == int(np.ceil((27 - 2) / 8))


def test_logits_loss_matches_evaluate_bit_for_bit():
    ds = generate_synthetic(600, 3, (12, 12), 0.1, seed=2)
    model = build_model(TINY_BB)
    idx = np.arange(600)
    assert loss_accuracy(logits_of(model, ds, idx), ds.labels) == evaluate(model, ds, idx)


def test_a_rows_logits_do_not_depend_on_how_its_pass_is_split():
    ds = generate_synthetic(300, 3, (12, 12), 0.1, seed=2)
    model = build_model(TINY_BB)
    idx = np.arange(257)  # a 256-row chunking would score the last row alone
    whole = logits_of(model, ds, idx)
    for part in (idx[-2:], idx[:255], idx[100:], idx[::2]):
        np.testing.assert_array_equal(logits_of(model, ds, part), whole[part])


def test_epoch_order_is_a_seeded_permutation():
    cfg = fast_cfg(seed=4)
    order = weckd.training._epoch_order(cfg, 1, 0, 10)
    np.testing.assert_array_equal(np.sort(order), np.arange(10))
    np.testing.assert_array_equal(order, weckd.training._epoch_order(cfg, 1, 0, 10))
    others = [weckd.training._epoch_order(c, s, e, 10)
              for c, s, e in ((cfg, 1, 1), (cfg, 2, 0), (fast_cfg(seed=5), 1, 0))]
    assert not any(np.array_equal(order, o) for o in others)


def test_teacher_scores_each_training_image_once_per_stage(monkeypatch):
    ds, split = tiny_setup(n=200)
    teacher = build_model(TINY_BB)
    seen = Counter()
    real = weckd.training.forward

    def counting(model, batch):
        if model is teacher:
            seen.update(row.tobytes() for row in np.asarray(batch))
        return real(model, batch)

    monkeypatch.setattr(weckd.training, "forward", counting)
    subset = split.subsets[1]
    train_distill_stage(build_model(replace(TINY_BB, init_seed=1)), teacher, subset, ds,
                        fast_cfg(max_epochs=3, batch_size=4), stage_index=1)
    train_idx, val_idx = weckd.training._carve_validation(subset)
    assert [seen[ds.images[i].tobytes()] for i in train_idx] == [1] * train_idx.size
    assert sum(seen[ds.images[i].tobytes()] for i in val_idx) == 0


def test_forward_logits_do_not_depend_on_the_batch_size():
    # the teacher's logits are scored once per stage and then indexed per
    # training batch, and `forward` splits any batch into tiles; this holds
    # only if a row's logits are the same bits whatever batch or tile it is
    # scored in
    from weckd.backbone import Model, _layers, _tile_rows, forward
    x = np.random.default_rng(0).random((300, 1, 32, 32))
    for attention in (False, True):
        model = build_model(BackboneConfig(input_size=(32, 32, 1), attention_enabled=attention))
        whole = forward(model, x[:144])
        chunked = np.concatenate([forward(model, x[s:s + 16]) for s in range(0, 144, 16)])
        np.testing.assert_array_equal(whole, chunked)
        for dtype in (np.float64, np.float32):
            params = {k: v.astype(dtype) for k, v in model.params.items()}
            rows = _tile_rows(model.config, dtype)
            for n in (rows + 1, 2 * rows + 1, 256, 300):
                batch = x[:n].astype(dtype)
                np.testing.assert_array_equal(forward(Model(model.config, params), batch),
                                              _layers(weckd.tensor, params, batch, model.config))


# -- scoring passes ------------------------------------------------------------

def _count_forward_images(monkeypatch):
    """Wrap the network's inference pass; count how often each image goes through."""
    seen = Counter()
    real = weckd.training.forward

    def counting(model, batch):
        seen.update(row.tobytes() for row in np.asarray(batch))
        return real(model, batch)

    monkeypatch.setattr(weckd.training, "forward", counting)
    return seen


def test_run_experiment_scores_each_test_image_once_per_model(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": {"synthetic": {"n": 90, "classes": 3, "height": 12, "width": 12,
                                  "noise_std": 0.1, "seed": 0}},
        "backbone": {"conv_blocks": [4, 6], "fc_width": 8},
        "train": {"max_epochs": 2, "batch_size": 8},
    }))
    cfg = parse_config(str(path))
    ds = generate_synthetic(90, 3, (12, 12), 0.1, seed=0)
    split = partition(ds, cfg.partition_seed)
    seen = _count_forward_images(monkeypatch)
    run_experiment(cfg, out_dir=str(tmp_path / "run"))
    assert [seen[ds.images[i].tobytes()] for i in split.d_test] == [3] * split.d_test.size


def test_evaluate_model_scores_each_image_once(monkeypatch):
    ds = generate_synthetic(300, 3, (12, 12), 0.1, seed=3)
    seen = _count_forward_images(monkeypatch)
    evaluate_model(build_model(TINY_BB), ds)
    assert sorted(seen.values()) == [1] * 300


def test_tune_objective_reports_the_kept_epoch(tmp_path, monkeypatch):
    # epoch 1's validation loss is below epoch 0's by less than the 1e-6
    # threshold, so each stage keeps epoch 0 and the objective is its accuracy
    calls = []

    def scripted(model, dataset, indices):
        calls.append(indices)
        return [(0.5, 0.8), (0.5 - 5e-7, 0.6)][(len(calls) - 1) % 2]

    monkeypatch.setattr(weckd.training, "evaluate", scripted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": {"synthetic": {"n": 90, "classes": 3, "height": 12, "width": 12,
                                  "noise_std": 0.1, "seed": 0}},
        "backbone": {"conv_blocks": [4, 6], "fc_width": 8},
        "train": {"max_epochs": 2, "batch_size": 8},
    }))
    tune_experiment(parse_config(str(path)), 1, out_dir=str(tmp_path / "study"))
    assert len(calls) == 6
    rows = (tmp_path / "study" / "trials.csv").read_text().splitlines()
    assert rows[1].split(",")[4:] == ["0.800000", "complete"]


# -- run artifacts -------------------------------------------------------------

def _tiny_experiment(tmp_path, seeds):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dataset": {"synthetic": {"n": 60, "classes": 3, "height": 12, "width": 12,
                                  "noise_std": 0.1, "seed": 0}},
        "backbone": {"conv_blocks": [4, 6], "fc_width": 8},
        "train": {"max_epochs": 1, "batch_size": 8},
        "repeat_seeds": seeds,
    }))
    return parse_config(str(path))


@pytest.mark.parametrize("seeds,last", [([0], "metrics.json"), ([0, 1], "summary.json")])
def test_artifacts_are_renamed_into_place_with_the_marker_last(tmp_path, monkeypatch, seeds, last):
    import weckd.runner
    replaced = []
    real = weckd.runner.os.replace

    def recording(src, dst):
        assert src == dst + ".tmp"
        replaced.append(os.path.relpath(dst, tmp_path / "run"))
        real(src, dst)

    monkeypatch.setattr(weckd.runner.os, "replace", recording)
    run_experiment(_tiny_experiment(tmp_path, seeds), out_dir=str(tmp_path / "run"))
    assert replaced[-1] == last
    for seed_dir in {os.path.dirname(p) for p in replaced if p.endswith(".wckd")}:
        in_dir = [p for p in replaced if os.path.dirname(p) == seed_dir
                  and p not in ("config_resolved.json", "summary.json")]
        assert os.path.basename(in_dir[-1]) == "metrics.json"
    written = sorted(os.path.relpath(os.path.join(d, f), tmp_path / "run")
                     for d, _, files in os.walk(tmp_path / "run") for f in files)
    assert written == sorted(replaced)  # every file was renamed in; no temp file is left


def test_crashed_run_leaves_no_metrics_and_no_partial_file(tmp_path, monkeypatch):
    import weckd.runner

    def crash(*args):
        raise RuntimeError("killed while scoring")

    monkeypatch.setattr(weckd.runner, "score_chain", crash)
    with pytest.raises(RuntimeError):
        run_experiment(_tiny_experiment(tmp_path, [0]), out_dir=str(tmp_path / "run"))
    assert sorted(os.listdir(tmp_path / "run")) == [
        "config_resolved.json", "m1.wckd", "m2.wckd", "m3.wckd"]

    def torn_write(model, path):
        with open(path, "wb") as f:
            f.write(b"WCKD")
        raise OSError("disk full")

    monkeypatch.setattr(weckd.runner, "save_checkpoint", torn_write)
    with pytest.raises(OSError):
        run_experiment(_tiny_experiment(tmp_path, [0]), out_dir=str(tmp_path / "run2"))
    assert sorted(os.listdir(tmp_path / "run2")) == ["config_resolved.json"]


# -- checkpoints -------------------------------------------------------------

def test_checkpoint_round_trip_outputs_close(tmp_path):
    model = build_model(replace(TINY_BB, init_seed=3))
    path = str(tmp_path / "m.wckd")
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    batch = np.random.default_rng(0).uniform(0, 1, size=(4, 1, 12, 12))
    from weckd.backbone import forward
    diff = np.abs(forward(model, batch) - forward(back, batch)).max()
    assert diff <= 1e-6
    assert back.config == model.config


def test_loaded_checkpoint_scores_at_its_stored_float32(tmp_path):
    model = build_model(replace(TINY_BB, init_seed=5, attention_enabled=True))
    path = str(tmp_path / "m.wckd")
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert {v.dtype for v in back.params.values()} == {np.dtype(np.float32)}
    from weckd.backbone import forward
    batch = np.random.default_rng(0).uniform(0, 1, size=(4, 1, 12, 12))
    assert forward(back, batch).dtype == np.float32


def test_training_stays_float64():
    # a float32 chain moves M3 accuracy beyond the benchmark's reference
    # tolerance, so only loaded checkpoints run at float32
    ds, split = tiny_setup(n=90)
    assert {v.dtype for v in build_model(TINY_BB).params.values()} == {np.dtype(np.float64)}
    chain = run_chain(ds, split, fast_cfg(max_epochs=1), TINY_BB)
    for result in chain.stage_results:
        assert {v.dtype for v in result.model.params.values()} == {np.dtype(np.float64)}


def test_metrics_json_is_the_score_of_the_saved_checkpoints(tmp_path):
    cfg = _tiny_experiment(tmp_path, [0])
    out = tmp_path / "run"
    run_experiment(cfg, out_dir=str(out))
    progression = json.loads((out / "metrics.json").read_text())["progression"]
    ds = load_dataset(cfg)
    split = partition(ds, cfg.partition_seed)
    truths = ds.labels[split.d_test]
    chain = run_chain(ds, split, replace(cfg.train, seed=0), backbone_for(cfg, ds))
    for i, (row, result) in enumerate(zip(progression, chain.stage_results)):
        back = load_checkpoint(str(out / f"m{i + 1}.wckd"))
        loss, acc = loss_accuracy(logits_of(back, ds, split.d_test), truths)
        assert (row["test_loss"], row["test_acc"]) == (loss, acc)
        rounded = at_checkpoint_precision(result.model).params
        assert rounded.keys() == back.params.keys()
        for name, value in back.params.items():
            assert value.dtype == rounded[name].dtype == CHECKPOINT_DTYPE
            assert value.tobytes() == rounded[name].tobytes(), name


def test_checkpoint_reserialization_byte_identical(tmp_path):
    model = build_model(replace(TINY_BB, init_seed=4, attention_enabled=True))
    p1, p2 = str(tmp_path / "a.wckd"), str(tmp_path / "b.wckd")
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.wckd"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_truncation(tmp_path):
    model = build_model(TINY_BB)
    path = str(tmp_path / "m.wckd")
    save_checkpoint(model, path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:len(data) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_unknown_version(tmp_path):
    model = build_model(TINY_BB)
    path = str(tmp_path / "m.wckd")
    save_checkpoint(model, path)
    data = bytearray(open(path, "rb").read())
    data[4] = 99
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_reader_fuzz_gives_only_checkpoint_errors(tmp_path):
    # every truncation and four flips of every byte: each variant loads
    # cleanly or raises CheckpointError, never another exception
    config = BackboneConfig(input_size=(6, 6, 1), conv_blocks=(3, 2), fc_width=3,
                            num_classes=2, attention_enabled=True)
    path = tmp_path / "m.wckd"
    save_checkpoint(build_model(config), str(path))
    data = path.read_bytes()
    variants = [data[:n] for n in range(len(data))]
    variants += [data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]
                 for i in range(len(data)) for mask in (0x01, 0x10, 0x80, 0xFF)]
    outcomes = Counter()
    for raw in variants:
        path.write_bytes(raw)
        try:
            load_checkpoint(str(path))
            outcomes["loaded"] += 1
        except CheckpointError:
            outcomes["refused"] += 1
    assert outcomes["loaded"] and outcomes["refused"]


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(learning_rate=0.0)
    for bad in ("nan", "inf"):
        with pytest.raises(ContractError, match=f"learning_rate .*got {bad}"):
            TrainConfig(learning_rate=float(bad))
    with pytest.raises(ContractError):
        TrainConfig(patience=0)
    with pytest.raises(ContractError):
        TrainConfig(lr_decay_factor=1.5)
    with pytest.raises(ContractError):
        TrainConfig(stage_attention=(True, False))
    with pytest.raises(ContractError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError, match="max_epochs"):
        TrainConfig(max_epochs=0)
