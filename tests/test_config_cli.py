import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weckd.runner
import weckd.tensor
import weckd.training
from weckd.backbone import BackboneConfig, build_model
from weckd.cli import main
from weckd.config import ConfigError, canonical_config, parse_config
from weckd.data import LabeledDataset, generate_synthetic, load_idx, partition, write_idx
from weckd.training import save_checkpoint


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TINY_EXPERIMENT = {
    "dataset": {"synthetic": {"n": 60, "classes": 3, "height": 12, "width": 12,
                              "noise_std": 0.1, "seed": 0}},
    "backbone": {"conv_blocks": [4, 6], "fc_width": 8},
    "train": {"max_epochs": 2, "batch_size": 8},
}


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {}))
    assert cfg.dataset["synthetic"]["n"] == 1000
    assert cfg.train.max_epochs == 50
    assert cfg.train.batch_size == 16
    assert cfg.train.learning_rate == 1e-2
    assert cfg.train.distill.alpha == 0.7
    assert cfg.train.stage_attention == (False, True, True)
    assert cfg.repeat_seeds == [0]


def test_unknown_top_level_key_named(tmp_path):
    with pytest.raises(ConfigError, match=r"\$\.learningrate"):
        parse_config(write_config(tmp_path, {"learningrate": 1}))


def test_unknown_train_key_named(tmp_path):
    with pytest.raises(ConfigError, match=r"\$\.train\.lr"):
        parse_config(write_config(tmp_path, {"train": {"lr": 0.1}}))


def test_alpha_out_of_range_named(tmp_path):
    with pytest.raises(ConfigError, match=r"\$\.train\.distill\.alpha"):
        parse_config(write_config(tmp_path, {"train": {"distill": {"alpha": 1.2}}}))


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(str(path))


def test_both_dataset_sources_rejected(tmp_path):
    doc = {"dataset": {"synthetic": {}, "idx": {"images": "a", "labels": "b"}}}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(write_config(tmp_path, doc))


def test_canonical_config_round_trips(tmp_path):
    cfg = parse_config(write_config(tmp_path, TINY_EXPERIMENT))
    again = parse_config(write_config(tmp_path, json.loads(canonical_config(cfg)), "c2.json"))
    assert canonical_config(again) == canonical_config(cfg)
    assert again == cfg


def test_gen_data_round_trip(tmp_path, capsys):
    out = str(tmp_path / "shapes")
    code = main(["gen-data", "--out", out, "--n", "40", "--classes", "4",
                 "--size", "16", "--seed", "3"])
    assert code == 0
    from weckd.data import load_idx
    ds = load_idx(out + "-images.idx", out + "-labels.idx")
    assert len(ds) == 40


def test_gen_data_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert main(["gen-data", "--out", out, "--n", "30", "--classes", "3",
                     "--size", "12", "--seed", "7"]) == 0
    assert open(a + "-images.idx", "rb").read() == open(b + "-images.idx", "rb").read()


def test_cli_and_runner_load_no_scipy_module():
    # a fresh interpreter: this process may have imported scipy already
    src = os.path.dirname(os.path.dirname(weckd.runner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, weckd.cli, weckd.runner; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_gen_data_too_many_classes_is_usage_error(tmp_path, capsys):
    code = main(["gen-data", "--out", str(tmp_path / "x"), "--classes", "9"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_gen_data_negative_noise_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["gen-data", "--out", out, "--noise", "-0.5"]) == 2
    assert "noise_std" in capsys.readouterr().err
    assert not os.path.exists(out + "-images.idx")


@pytest.mark.parametrize("size", ["0", "-1"])
def test_gen_data_empty_image_size_is_usage_error(tmp_path, capsys, size):
    out = str(tmp_path / "x")
    assert main(["gen-data", "--out", out, "--size", size]) == 2
    err = capsys.readouterr().err
    assert f"{size}x{size}" in err and "Traceback" not in err
    assert not os.path.exists(out + "-images.idx")


# the per-stage keys a three-stage run stores
THEORY_KEYS = {"risks", "gaps", "kl_m2_m1", "kl_m3_m2", "beta_hat", "hierarchy_holds"}
DELTA_KEYS = {"m1_to_m2", "m2_to_m3", "m1_to_m3"}


def test_train_writes_run_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_EXPERIMENT)
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    for name in ("m1.wckd", "m2.wckd", "m3.wckd", "metrics.json",
                 "chain_progression.csv", "timing.csv", "config_resolved.json"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    payload = json.load(open(os.path.join(out_dir, "metrics.json")))
    assert {"accuracy", "progression", "deltas", "theory"} <= set(payload)
    assert [row["stage"] for row in payload["progression"]] == ["M1", "M2", "M3"]
    assert set(payload["theory"]) == THEORY_KEYS
    assert set(payload["deltas"]) == DELTA_KEYS
    with open(os.path.join(out_dir, "timing.csv")) as f:
        assert f.readline().strip() == "stage,steps_per_epoch,ms_per_step,epochs_run,row_blocks"


def test_train_on_idx_data_with_an_empty_class(tmp_path, capsys):
    ds = generate_synthetic(60, 2, (12, 12), 0.1, seed=0)
    images, labels = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(LabeledDataset(ds.images, ds.labels * 2, ["a", "b", "c"], 3), images, labels)
    doc = dict(TINY_EXPERIMENT, dataset={"idx": {"images": images, "labels": labels}})
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "metrics.json").exists()


@pytest.mark.parametrize("command", ["train", "tune"])
def test_one_class_idx_labels_are_usage_error_naming_the_labels_file(tmp_path, capsys, command):
    ds = generate_synthetic(60, 2, (12, 12), 0.1, seed=0)
    images, labels = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(LabeledDataset(ds.images, ds.labels * 0, ["a"], 1), images, labels)
    doc = dict(TINY_EXPERIMENT, dataset={"idx": {"images": images, "labels": labels}})
    out_dir = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert labels in err and "$.backbone" not in err
    assert not out_dir.exists()


# below 20 images some 10% subset has no image left to train on after its
# validation carve
@pytest.mark.parametrize("n", [0, 5, 10, 19])
def test_too_few_idx_images_is_usage_error_naming_the_images_file(tmp_path, capsys, n):
    ds = generate_synthetic(60, 2, (12, 12), 0.1, seed=0)
    images, labels = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx(LabeledDataset(ds.images[:n], ds.labels[:n], ["a", "b"], 2), images, labels)
    doc = dict(TINY_EXPERIMENT, dataset={"idx": {"images": images, "labels": labels}})
    out_dir = tmp_path / "run"
    for command in ("train", "tune"):
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"{images} holds {n} images" in err and "partition" not in err
        assert "Traceback" not in err
        assert not out_dir.exists()


def test_config_resolved_lists_the_resolved_backbone(tmp_path, capsys):
    doc = dict(TINY_EXPERIMENT, backbone={"fc_width": 8})
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 0
    resolved = json.loads((out_dir / "config_resolved.json").read_text())
    assert resolved["backbone"] == {"conv_blocks": [16, 32, 64], "fc_width": 8}
    assert resolved["hyperopt"] == {"n_trials": 5, "seed": 0}


@pytest.mark.parametrize("key", ["batch_size", "max_epochs", "lr_patience"])
@pytest.mark.parametrize("value", [0, 2.5])
def test_train_bad_count_is_usage_error_naming_the_key(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(TINY_EXPERIMENT))
    doc["train"][key] = value
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 2
    assert f"$.train.{key}" in capsys.readouterr().err
    assert not out_dir.exists()


# mistyped values, and momentum outside [0, 1)
BAD_DOCUMENTS = [
    ({"partition_seed": "x"}, "$.partition_seed"),
    ({"partition_seed": -1}, "$.partition_seed"),
    ({"partition_seed": True}, "$.partition_seed"),
    ({"repeat_seeds": 5}, "$.repeat_seeds"),
    ({"repeat_seeds": []}, "$.repeat_seeds"),
    ({"repeat_seeds": [0, -3]}, "$.repeat_seeds[1]"),
    ({"repeat_seeds": [3, 4, 3]}, "$.repeat_seeds[2]"),
    ({"hyperopt": 3}, "$.hyperopt"),
    ({"hyperopt": {"seed": 1.5}}, "$.hyperopt.seed"),
    ({"hyperopt": {"enabled": True}}, "$.hyperopt.enabled"),
    ({"backbone": {"conv_blocks": 5}}, "$.backbone.conv_blocks"),
    ({"backbone": {"fc_width": "8"}}, "$.backbone.fc_width"),
    ({"train": {"distill": {"alpha": "x"}}}, "$.train.distill.alpha"),
    ({"train": {"distill": {"t_squared_compensation": 1}}},
     "$.train.distill.t_squared_compensation"),
    ({"train": {"stage_attention": [0, 1, 1]}}, "$.train.stage_attention[0]"),
    ({"train": {"learning_rate": None}}, "$.train.learning_rate"),
    ({"train": {"patience": 1.5}}, "$.train.patience"),
    ({"train": {"seed": "x"}}, "$.train.seed"),
    ({"dataset": {"synthetic": {"n": 100.5}}}, "$.dataset.synthetic.n"),
    ({"dataset": {"idx": {"images": 1, "labels": "l.idx"}}}, "$.dataset.idx.images"),
    ({"output_dir": 5}, "$.output_dir"),
    ({"train": {"momentum": 1.0}}, "$.train.momentum"),
    ({"train": {"momentum": -0.1}}, "$.train.momentum"),
    ({"dataset": {"synthetic": {"noise_std": -0.5}}}, "$.dataset.synthetic.noise_std"),
    ({"dataset": {"synthetic": {"height": 0}}}, "$.dataset.synthetic.height"),
    ({"dataset": {"synthetic": {"width": 0}}}, "$.dataset.synthetic.width"),
]


@pytest.mark.parametrize("doc, path", BAD_DOCUMENTS,
                         ids=[p[2:].replace("[", "_").rstrip("]") for _, p in BAD_DOCUMENTS])
def test_bad_config_is_usage_error_naming_the_path(tmp_path, capsys, doc, path):
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 2
    assert path in capsys.readouterr().err
    assert not out_dir.exists()


HUGE = 10 ** 400  # an integer beyond the float range


@pytest.mark.parametrize("doc, path", [
    ({"train": {"learning_rate": HUGE}}, "$.train.learning_rate"),
    ({"train": {"distill": {"alpha": HUGE}}}, "$.train.distill.alpha"),
    ({"dataset": {"synthetic": {"noise_std": HUGE}}}, "$.dataset.synthetic.noise_std"),
], ids=["learning_rate", "alpha", "noise_std"])
def test_float_key_rejects_an_integer_beyond_the_float_range(tmp_path, capsys, doc, path):
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err
    assert not out_dir.exists()


# sizes that are checked against the data (or against another key)
SIZE_DOCUMENTS = [
    ({"backbone": {"fc_width": 0}}, "$.backbone.fc_width"),
    ({"backbone": {"conv_blocks": [0]}}, "$.backbone.conv_blocks"),
    ({"backbone": {"conv_blocks": [4] * 6}}, "$.backbone.conv_blocks"),  # 32x32 collapses
    ({"dataset": {"synthetic": {"n": 20}}}, "$.dataset.synthetic.n"),
    ({"dataset": {"synthetic": {"classes": 9}}}, "$.dataset.synthetic.classes"),
]


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("doc, path", SIZE_DOCUMENTS,
                         ids=["fc_width", "conv_blocks_zero", "conv_blocks_collapse", "n",
                              "classes"])
def test_bad_size_is_usage_error_before_the_run_directory(tmp_path, capsys, command, doc, path):
    out_dir = tmp_path / "run"
    assert main([command, "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 2
    assert path in capsys.readouterr().err
    assert not out_dir.exists()


def test_out_of_memory_is_runtime_error_naming_it(tmp_path, capsys, monkeypatch):
    def too_big(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(weckd.runner, "generate_synthetic", too_big)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, {}), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "out of memory" in err and "74.5 GiB" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("error, code", [(weckd.tensor.ShapeError, 2),
                                         (weckd.tensor.NumericError, 1), (MemoryError, 1)])
def test_an_error_in_a_worker_row_block_keeps_its_exit_code(tmp_path, capsys, monkeypatch,
                                                             error, code):
    real = weckd.tensor._im2col

    def failing_on_a_worker(*args):
        if threading.current_thread() is not threading.main_thread():
            raise error("raised in a worker block")
        return real(*args)

    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: 2)  # two image blocks: one on the pool
    monkeypatch.setattr(weckd.tensor, "BUFFER_BYTES", 1)  # one image a chunk: a pass of 2+ spans both
    monkeypatch.setattr(weckd.tensor, "_im2col", failing_on_a_worker)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, TINY_EXPERIMENT),
                 "--out-dir", str(out_dir)]) == code
    err = capsys.readouterr().err
    assert "raised in a worker block" in err and "Traceback" not in err
    assert not (out_dir / "metrics.json").exists()


@pytest.fixture(scope="module")
def default_tree(tmp_path_factory):
    """The resolved default config as JSON, with an idx source beside the synthetic one."""
    path = tmp_path_factory.mktemp("default") / "config.json"
    path.write_text("{}")
    tree = json.loads(canonical_config(parse_config(str(path))))
    tree["dataset"]["idx"] = {"images": "images.idx", "labels": "labels.idx"}
    return tree


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=8)
BEYOND_FLOAT = st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024)


def _near(tree):
    """JSON shaped like `tree` (any subset of its keys, lists of any length),
    where any node may be replaced by an arbitrary JSON value."""
    if isinstance(tree, dict):
        shaped = st.fixed_dictionaries({}, optional={k: _near(v) for k, v in tree.items()})
    elif isinstance(tree, list):
        shaped = st.lists(_near(tree[0]), max_size=4)
    else:
        shaped = st.just(tree) | st.integers() | st.floats() | BEYOND_FLOAT
    return shaped | ANY_JSON


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_config_returns_or_raises_config_error(tmp_path_factory, default_tree, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data.draw(_near(default_tree))))
    try:
        cfg = parse_config(str(path))
    except ConfigError:
        return
    path.write_text(canonical_config(cfg))
    assert parse_config(str(path)) == cfg
    # every value of a float-typed key converts to a float
    resolved = json.loads(canonical_config(cfg))
    for keys in _nodes(default_tree):
        if isinstance(functools.reduce(operator.getitem, keys, default_tree), float):
            value = functools.reduce(lambda node, key: node.get(key, {}), keys, resolved)
            assert value == {} or math.isfinite(float(value)), keys


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | BEYOND_FLOAT
           | st.text(max_size=4))


@st.composite
def _one_leaf_off(draw, tree):
    """`tree` with one dataset source kept and one leaf replaced by any JSON
    scalar: a config that parses unless that one value is out of range."""
    tree = copy.deepcopy(tree)
    del tree["dataset"][draw(st.sampled_from(sorted(tree["dataset"])))]
    leaves = [keys for keys in _nodes(tree)
              if not isinstance(functools.reduce(operator.getitem, keys, tree), (dict, list))]
    keys = draw(st.sampled_from(leaves))
    functools.reduce(operator.getitem, keys[:-1], tree)[keys[-1]] = draw(SCALARS)
    return tree


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_config_with_one_bad_leaf_is_refused_or_holds_only_valid_values(
        tmp_path_factory, default_tree, data):
    path = tmp_path_factory.getbasetemp() / "one_leaf.json"
    path.write_text(json.dumps(data.draw(_one_leaf_off(default_tree))))
    try:
        cfg = parse_config(str(path))
    except ConfigError:
        return
    resolved = json.loads(canonical_config(cfg))
    for keys in _nodes(resolved):
        value = functools.reduce(operator.getitem, keys, resolved)
        if isinstance(value, (dict, list)):
            continue
        # the default's leaf at the same place; a list's items share its first item's type
        default = functools.reduce(
            lambda node, key: node[0] if isinstance(key, int) else node[key], keys, default_tree)
        if isinstance(default, bool):
            assert isinstance(value, bool), keys
        elif isinstance(default, int):
            assert isinstance(value, int) and not isinstance(value, bool) and value >= 0, keys
        elif isinstance(default, float):
            assert not isinstance(value, bool) and math.isfinite(float(value)), keys
        else:
            assert isinstance(value, type(default)), keys


def test_train_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.json")]) in (1, 2)


def test_eval_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_EXPERIMENT)
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    capsys.readouterr()
    data_out = str(tmp_path / "shapes")
    assert main(["gen-data", "--out", data_out, "--n", "30", "--classes", "3",
                 "--size", "12", "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", os.path.join(out_dir, "m3.wckd"),
                 "--data", data_out + "-images.idx", data_out + "-labels.idx"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert len(payload["confusion_matrix"]) == 3


def test_eval_on_the_test_split_reproduces_metrics_json(tmp_path, capsys):
    data = str(tmp_path / "shapes")
    assert main(["gen-data", "--out", data, "--n", "60", "--classes", "3", "--size", "12"]) == 0
    images, labels = data + "-images.idx", data + "-labels.idx"
    doc = dict(TINY_EXPERIMENT, dataset={"idx": {"images": images, "labels": labels}})
    out_dir = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 0
    ds = load_idx(images, labels)
    test = partition(ds, 0).d_test
    test_images, test_labels = str(tmp_path / "test-images.idx"), str(tmp_path / "test-labels.idx")
    write_idx(LabeledDataset(ds.images[test], ds.labels[test], ds.class_names, ds.num_classes),
              test_images, test_labels)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out_dir / "m3.wckd"),
                 "--data", test_images, test_labels]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((out_dir / "metrics.json").read_text())
    assert got["loss"] == want["progression"][2]["test_loss"]
    assert got["accuracy"] == want["accuracy"]
    assert got["confusion_matrix"] == want["confusion_matrix"]
    assert got["auc"]["macro"] == want["macro_auc"]


def test_eval_class_count_mismatch(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_EXPERIMENT)
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    data_out = str(tmp_path / "wide")
    assert main(["gen-data", "--out", data_out, "--n", "50", "--classes", "5",
                 "--size", "12", "--seed", "1"]) == 0
    code = main(["eval", "--checkpoint", os.path.join(out_dir, "m3.wckd"),
                 "--data", data_out + "-images.idx", data_out + "-labels.idx"])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


# -- eval on hand-made checkpoints ---------------------------------------------

EVAL_BB = BackboneConfig(input_size=(12, 12, 1), conv_blocks=(4, 6), fc_width=8,
                         num_classes=4)


def _eval_inputs(tmp_path, capsys, classes=4):
    """A 4-class checkpoint file and a 12x12 IDX pair with `classes` classes."""
    ckpt = str(tmp_path / "m.wckd")
    save_checkpoint(build_model(EVAL_BB), ckpt)
    data = str(tmp_path / "d")
    assert main(["gen-data", "--out", data, "--n", "40", "--classes", str(classes),
                 "--size", "12"]) == 0
    capsys.readouterr()
    return ckpt, [data + "-images.idx", data + "-labels.idx"]


def _run_eval(ckpt, data, capsys):
    code = main(["eval", "--checkpoint", ckpt, "--data", *data])
    return code, capsys.readouterr()


def test_eval_takes_class_count_from_checkpoint(tmp_path, capsys):
    ckpt, data = _eval_inputs(tmp_path, capsys, classes=3)
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 0, out.err
    payload = json.loads(out.out)
    assert np.array(payload["confusion_matrix"]).shape == (4, 4)
    assert len(payload["per_class"]) == 4


@pytest.mark.parametrize("error, code", [(weckd.tensor.ShapeError, 2),
                                         (weckd.tensor.NumericError, 1), (MemoryError, 1)])
def test_an_error_in_a_worker_tile_of_eval_keeps_its_exit_code(tmp_path, capsys, monkeypatch,
                                                               error, code):
    ckpt, data = _eval_inputs(tmp_path, capsys)
    real = weckd.tensor._im2col

    def failing_on_a_worker(*args):
        if threading.current_thread() is not threading.main_thread():
            raise error("raised in a worker tile")
        return real(*args)

    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: 2)  # two runs of tiles: one on the pool
    monkeypatch.setattr(weckd.tensor, "BUFFER_BYTES", 1)  # 2-row tiles, so a pass has several
    monkeypatch.setattr(weckd.tensor, "_im2col", failing_on_a_worker)
    got, out = _run_eval(ckpt, data, capsys)
    assert got == code
    assert "raised in a worker tile" in out.err and "Traceback" not in out.err
    assert out.out == ""


def test_eval_on_zero_images_is_usage_error_naming_the_images_file(tmp_path, capsys):
    ckpt, _ = _eval_inputs(tmp_path, capsys)
    images, labels = str(tmp_path / "empty-i.idx"), str(tmp_path / "empty-l.idx")
    write_idx(LabeledDataset(np.zeros((0, 1, 12, 12)), np.zeros(0, dtype=np.int64), ["a", "b"], 2),
              images, labels)
    code, out = _run_eval(ckpt, [images, labels], capsys)
    assert code == 2
    assert images in out.err and "empty index set" not in out.err


def _rewrite_config_blob(path, edit):
    raw = open(path, "rb").read()
    (n,) = struct.unpack("<I", raw[8:12])
    blob = edit(raw[12:12 + n])
    open(path, "wb").write(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])


def test_eval_rejects_trailing_bytes(tmp_path, capsys):
    ckpt, data = _eval_inputs(tmp_path, capsys)
    size = os.path.getsize(ckpt)
    with open(ckpt, "ab") as f:
        f.write(b"\0\0\0")
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "trailing" in out.err and f"offset {size}" in out.err


def test_eval_rejects_non_utf8_config_blob(tmp_path, capsys):
    ckpt, data = _eval_inputs(tmp_path, capsys)
    _rewrite_config_blob(ckpt, lambda blob: b"\xff" + blob[1:])
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "config blob at offset 12" in out.err
    assert "Traceback" not in out.err


def test_eval_rejects_config_blob_without_key(tmp_path, capsys):
    ckpt, data = _eval_inputs(tmp_path, capsys)

    def drop_fc_width(blob):
        d = json.loads(blob)
        del d["fc_width"]
        return json.dumps(d).encode()

    _rewrite_config_blob(ckpt, drop_fc_width)
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "offset 12" in out.err and "fc_width" in out.err


def test_eval_rejects_config_blob_with_an_unknown_key(tmp_path, capsys):
    ckpt, data = _eval_inputs(tmp_path, capsys)
    _rewrite_config_blob(ckpt, lambda blob: blob[:-1] + b',"dropout":0.5}')
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "offset 12" in out.err and "dropout" in out.err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_rejects_non_finite_weights(tmp_path, capsys, bad):
    ckpt, data = _eval_inputs(tmp_path, capsys)
    model = build_model(EVAL_BB)
    model.params["w2"][0, 0] = bad
    save_checkpoint(model, ckpt)
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "non-finite" in out.err and "w2" in out.err
    assert out.out == ""


def test_eval_rejects_duplicate_tensor(tmp_path, capsys):
    ckpt, data = _eval_inputs(tmp_path, capsys)
    raw = open(ckpt, "rb").read()
    (n,) = struct.unpack("<I", raw[8:12])
    count_at = 12 + n
    (count,) = struct.unpack("<I", raw[count_at:count_at + 4])
    # the first record is b1 (names are sorted): a 1-d tensor of fc_width f32
    first = raw[count_at + 4:count_at + 4 + 2 + 2 + 1 + 4 + 4 * EVAL_BB.fc_width]
    assert first[2:4] == b"b1"
    open(ckpt, "wb").write(raw[:count_at] + struct.pack("<I", count + 1)
                           + raw[count_at + 4:] + first)
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "duplicate tensor b1" in out.err


def _rewrite_first_tensor_dims(path, dims):
    """Give the first tensor record (b1, names are sorted) the rank and dims
    `dims`, keeping its name and data bytes."""
    raw = open(path, "rb").read()
    (n,) = struct.unpack("<I", raw[8:12])
    rank_at = 12 + n + 4 + 2 + 2  # blob, tensor count, name length, b"b1"
    assert raw[rank_at - 2:rank_at] == b"b1" and raw[rank_at] == 1
    head = raw[:rank_at] + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
    open(path, "wb").write(head + raw[rank_at + 1 + 4:])


@pytest.mark.parametrize("dims", [
    (EVAL_BB.fc_width,) + (1,) * 64,  # rank 65: more dims than numpy allows
    (1 << 16,) * 4,                   # a product that wraps a 64-bit int to 0
])
def test_eval_rejects_tensor_dims_the_config_does_not_imply(tmp_path, capsys, dims):
    ckpt, data = _eval_inputs(tmp_path, capsys)
    _rewrite_first_tensor_dims(ckpt, dims)
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "shape mismatch for b1" in out.err


def test_eval_rejects_config_blob_with_zero_channels(tmp_path, capsys):
    ckpt, data = _eval_inputs(tmp_path, capsys)

    def zero_channels(blob):
        d = json.loads(blob)
        d["input_size"][2] = 0
        return json.dumps(d).encode()

    _rewrite_config_blob(ckpt, zero_channels)
    code, out = _run_eval(ckpt, data, capsys)
    assert code == 1
    assert "config blob at offset 12" in out.err and "input_size" in out.err


def test_eval_requires_data_flag():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", "x.wckd"])
    assert exc.value.code == 2


def test_report_renders_progression(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY_EXPERIMENT)
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out-dir", out_dir]) == 0
    capsys.readouterr()
    assert main(["report", out_dir]) == 0
    text = capsys.readouterr().out
    assert "M1" in text and "M3" in text and "risk hierarchy" in text


def test_report_renders_every_seed_of_a_multi_seed_run(tmp_path, capsys):
    doc = dict(TINY_EXPERIMENT, repeat_seeds=[10, 2])
    out_dir = str(tmp_path / "run")
    assert main(["train", "--config", write_config(tmp_path, doc), "--out-dir", out_dir]) == 0
    capsys.readouterr()
    assert main(["report", out_dir]) == 0
    text = capsys.readouterr().out
    assert text.index("seed 2") < text.index("seed 10")
    assert text.count("risk hierarchy") == 2
    summary = json.load(open(os.path.join(out_dir, "summary.json")))
    for seed in ("2", "10"):
        assert set(summary[seed]["deltas"]) == DELTA_KEYS
        payload = json.load(open(os.path.join(out_dir, f"seed_{seed}", "metrics.json")))
        assert set(payload["theory"]) == THEORY_KEYS
        assert set(payload["deltas"]) == DELTA_KEYS
    table = text[text.index("m1_to_m3"):].splitlines()[1:]
    assert [row.split()[0] for row in table] == ["2", "10"]
    for row in table:
        seed = row.split()[0]
        assert row.split()[1] == f"{summary[seed]['accuracy']:.4f}"
        assert row.split()[4] == f"{summary[seed]['deltas']['m1_to_m3']:+.4f}"


@pytest.mark.parametrize("name", ["metrics.json", "summary.json"])
def test_report_malformed_json_is_runtime_error_naming_the_file(tmp_path, capsys, name):
    (tmp_path / name).write_text('{"progression": [')
    assert main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err and "Traceback" not in err


@pytest.mark.parametrize("name, text, key", [
    ("metrics.json", "{}", "'progression'"),
    ("summary.json", '{"a": {}}', "'a'"),
])
def test_report_wrong_shape_is_runtime_error_naming_the_file_and_key(tmp_path, capsys,
                                                                     name, text, key):
    (tmp_path / name).write_text(text)
    assert main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err and key in err and "Traceback" not in err


# the keys `weckd report` reads from a run's metrics.json and summary.json
METRICS_TREE = {
    "progression": [{"stage": "M1", "train_acc": 0.5, "test_acc": 0.5,
                     "train_loss": 1.0, "test_loss": 1.0}],
    "theory": {"hierarchy_holds": True, "risks": [0.5, 0.4, 0.3],
               "kl_m2_m1": 0.1, "kl_m3_m2": 0.1, "beta_hat": 0.5},
}
SEED_ROW = {"accuracy": 0.5, "deltas": {"m1_to_m2": 0.0, "m2_to_m3": 0.0, "m1_to_m3": 0.0}}
SUMMARY_TREE = {"0": SEED_ROW, "7": SEED_ROW}


def _nodes(tree, path=()):
    """The path of every node in `tree`, its own () first."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, child in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from _nodes(child, path + (key,))


@st.composite
def _mutated(draw, tree):
    """`tree` with up to three nodes each replaced by arbitrary JSON (integers
    beyond the float range included) or, the whole tree excepted, deleted."""
    holder = [copy.deepcopy(tree)]
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_nodes(holder))[1:]))
        parent = functools.reduce(operator.getitem, path[:-1], holder)
        if len(path) > 1 and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(ANY_JSON | BEYOND_FLOAT)
    return holder[0]


@example(files={"metrics.json": dict(METRICS_TREE, progression=[
    dict(METRICS_TREE["progression"][0], train_acc=10 ** 400)])})
@settings(max_examples=200, deadline=None)
@given(files=st.one_of(
    st.fixed_dictionaries({"metrics.json": _mutated(METRICS_TREE)}),
    st.fixed_dictionaries({"summary.json": _mutated(SUMMARY_TREE),
                           **{f"seed_{k}/metrics.json": _mutated(METRICS_TREE)
                              for k in SUMMARY_TREE}}),
))
def test_report_on_any_run_files_returns_0_or_1(tmp_path_factory, files):
    run_dir = tmp_path_factory.mktemp("run")
    for name, payload in files.items():
        (run_dir / name).parent.mkdir(exist_ok=True)
        (run_dir / name).write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["report", str(run_dir)]) in (0, 1)


def test_tune_trials_default_to_the_config(tmp_path, capsys):
    doc = dict(TINY_EXPERIMENT, train={"max_epochs": 1, "batch_size": 8},
               hyperopt={"n_trials": 2})
    out_dir = tmp_path / "study"
    assert main(["tune", "--config", write_config(tmp_path, doc), "--out-dir", str(out_dir)]) == 0
    assert len((out_dir / "trials.csv").read_text().splitlines()) == 1 + 2


def test_train_on_best_config_rebuilds_the_best_trials_m3(tmp_path, capsys, monkeypatch):
    # every trial trains with train.seed, whatever repeat_seeds says
    last_models = []
    run_chain = weckd.runner.run_chain

    def recording(*args, **kwargs):
        chain = run_chain(*args, **kwargs)
        last_models.append(chain.stage_results[-1].model)
        return chain

    monkeypatch.setattr(weckd.runner, "run_chain", recording)
    doc = dict(TINY_EXPERIMENT, train={"max_epochs": 1, "batch_size": 8, "seed": 5},
               repeat_seeds=[0, 1])
    study = tmp_path / "study"
    best, _ = weckd.runner.tune_experiment(parse_config(write_config(tmp_path, doc)), 2,
                                           out_dir=str(study))
    save_checkpoint(last_models[best.trial_index], str(tmp_path / "best.wckd"))
    assert json.loads((study / "best-config.json").read_text())["repeat_seeds"] == [5]
    assert main(["train", "--config", str(study / "best-config.json"),
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "m3.wckd").read_bytes() == (tmp_path / "best.wckd").read_bytes()


@pytest.mark.parametrize("value", [0, 2.5, "3"])
def test_bad_trial_count_is_usage_error_naming_the_key(tmp_path, capsys, value):
    doc = dict(TINY_EXPERIMENT, hyperopt={"n_trials": value})
    assert main(["tune", "--config", write_config(tmp_path, doc),
                 "--out-dir", str(tmp_path / "study")]) == 2
    assert "$.hyperopt.n_trials" in capsys.readouterr().err


def test_bad_trials_flag_is_usage_error_before_the_run_directory(tmp_path, capsys):
    out_dir = tmp_path / "study"
    assert main(["tune", "--config", write_config(tmp_path, TINY_EXPERIMENT),
                 "--trials", "0", "--out-dir", str(out_dir)]) == 2
    assert "n_trials" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_checkpoint_is_runtime_error(tmp_path, capsys):
    data_out = str(tmp_path / "d")
    main(["gen-data", "--out", data_out, "--n", "30", "--classes", "3", "--size", "12"])
    code = main(["eval", "--checkpoint", str(tmp_path / "no.wckd"),
                 "--data", data_out + "-images.idx", data_out + "-labels.idx"])
    assert code == 1
