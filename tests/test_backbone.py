from dataclasses import replace

import numpy as np
import pytest

import weckd.backbone
import weckd.tensor
from weckd.backbone import (
    BackboneConfig,
    Model,
    _layers,
    _tile_rows,
    build_model,
    forward,
    forward_on_tape,
    param_digest,
    param_shapes,
)
from weckd.losses import softmax_temperature
from weckd.tensor import ContractError, ShapeError, Tape, attention_scores


class _RecordGap:
    """The pure `tensor` ops, keeping the array that reaches `gap`: the
    pre-GAP features, gated when the model has attention enabled."""

    def __getattr__(self, name):
        return getattr(weckd.tensor, name)

    def gap(self, x):
        self.features = x
        return weckd.tensor.gap(x)


def _features(model, batch):
    """(pre-GAP features, logits) of one inference pass."""
    ops = _RecordGap()
    logits = _layers(ops, model.params, batch, model.config)
    return ops.features, logits


def test_build_is_deterministic():
    a = build_model(BackboneConfig(init_seed=7))
    b = build_model(BackboneConfig(init_seed=7))
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])


def test_default_head_shape():
    model = build_model(BackboneConfig())
    assert model.params["w2"].shape == (128, 4)


def test_linear_biases_start_at_zero():
    model = build_model(BackboneConfig(init_seed=3))
    for name in ("conv0_b", "conv1_b", "conv2_b", "b1", "b2"):
        assert np.all(model.params[name] == 0.0)


def test_attention_gate_starts_near_pass_through():
    model = build_model(BackboneConfig(init_seed=3))
    assert float(model.params["b_att"]) == 2.0
    assert np.all(np.abs(model.params["w_att"]) < 0.1)


def test_spatial_collapse_rejected():
    with pytest.raises(ShapeError):
        BackboneConfig(input_size=(4, 4, 1), conv_blocks=(8, 8, 8))


def test_probability_rows_sum_to_one():
    model = build_model(BackboneConfig(init_seed=0))
    batch = np.random.default_rng(0).uniform(0, 1, size=(3, 3, 32, 32))
    probs = softmax_temperature(forward(model, batch), 1.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_zero_parameters_give_uniform_probs():
    model = build_model(BackboneConfig(init_seed=0))
    model = Model(model.config, {k: np.zeros_like(v) for k, v in model.params.items()})
    probs = softmax_temperature(forward(model, np.ones((2, 3, 32, 32))), 1.0)
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_feature_map_shape_default_config():
    model = build_model(BackboneConfig(init_seed=0))
    f_base, logits = _features(model, np.zeros((2, 3, 32, 32)))
    assert f_base.shape == (2, 64, 4, 4)
    assert np.all(np.isfinite(logits))


def test_wrong_input_size_rejected():
    model = build_model(BackboneConfig())
    with pytest.raises(ShapeError):
        forward(model, np.zeros((1, 3, 16, 16)))


def test_attention_scores_zero_weights():
    scores = attention_scores(np.random.default_rng(0).normal(size=(2, 5, 3, 3)),
                              np.zeros(5), np.zeros(()))
    np.testing.assert_array_equal(scores, np.full((2, 3, 3), 0.5))


def test_attention_scores_saturate_with_large_bias():
    scores = attention_scores(np.zeros((1, 4, 2, 2)), np.zeros(4), np.array(50.0))
    assert np.all(scores > 1 - 1e-9)


def test_attention_scores_single_location_value():
    scores = attention_scores(np.full((1, 1, 1, 1), 2.0), np.ones(1), np.zeros(()))
    assert scores[0, 0, 0] == pytest.approx(0.880797, abs=1e-6)


def test_attention_scores_channel_mismatch():
    with pytest.raises(ShapeError):
        attention_scores(np.zeros((1, 4, 2, 2)), np.zeros(3), np.zeros(()))


def _attended_model(seed=0):
    return build_model(BackboneConfig(attention_enabled=True, init_seed=seed))


def _plain_twin(model):
    """The same parameters with the attention gate switched off."""
    return Model(replace(model.config, attention_enabled=False), model.params)


def test_saturated_attention_equals_base_path():
    model = _attended_model()
    model.params["w_att"] = np.zeros_like(model.params["w_att"])
    model.params["b_att"] = np.array(800.0)  # sigmoid underflows to exactly 1.0
    batch = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
    np.testing.assert_array_equal(forward(model, batch), forward(_plain_twin(model), batch))


def test_constant_half_attention_scales_gap():
    model = _attended_model()
    model.params["w_att"] = np.zeros_like(model.params["w_att"])
    model.params["b_att"] = np.array(0.0)  # every score exactly 0.5
    batch = np.random.default_rng(2).uniform(0, 1, size=(1, 3, 32, 32))
    f_base = _features(_plain_twin(model), batch)[0]
    f_att = _features(model, batch)[0]
    np.testing.assert_allclose(f_att.mean(axis=(2, 3)), 0.5 * f_base.mean(axis=(2, 3)),
                               atol=1e-12)


def test_attention_scores_strictly_inside_unit_interval():
    model = _attended_model(seed=5)
    batch = np.random.default_rng(5).uniform(0, 1, size=(2, 3, 32, 32))
    f_att = _features(model, batch)[0]
    scores = attention_scores(_features(_plain_twin(model), batch)[0],
                              model.params["w_att"], model.params["b_att"])
    assert np.all(scores > 0) and np.all(scores < 1)
    assert np.all(np.isfinite(f_att))


def test_forward_routes_by_flag():
    batch = np.random.default_rng(3).uniform(0, 1, size=(1, 3, 32, 32))
    plain = build_model(BackboneConfig(init_seed=4))
    gated = build_model(BackboneConfig(attention_enabled=True, init_seed=4))
    # same init seed, same parameters: the flag alone inserts the gate
    f_plain = _features(plain, batch)[0]
    scores = attention_scores(f_plain, gated.params["w_att"], gated.params["b_att"])
    np.testing.assert_array_equal(_features(gated, batch)[0], f_plain * scores[:, None])
    assert not np.array_equal(forward(gated, batch), forward(plain, batch))


@pytest.mark.parametrize("attention", [False, True])
def test_forward_matches_taped_forward_exactly(attention):
    model = build_model(BackboneConfig(input_size=(16, 16, 1), attention_enabled=attention,
                                       init_seed=6))
    batch = np.random.default_rng(6).uniform(0, 1, size=(3, 1, 16, 16))
    np.testing.assert_array_equal(forward(model, batch),
                                  forward_on_tape(model, Tape(), batch).value)


def test_param_digest_tracks_changes():
    model = build_model(BackboneConfig(init_seed=0))
    d1 = param_digest(model)
    assert d1 == param_digest(model)
    model.params["w1"][0, 0] += 1e-9
    assert param_digest(model) != d1


def test_float32_weights_score_close_to_float64():
    # the same f32-representable weights and images, run once at each dtype:
    # the dtype of the params is the dtype of the whole pass
    model = build_model(BackboneConfig(attention_enabled=True, init_seed=8))
    p32 = {k: v.astype(np.float32) for k, v in model.params.items()}
    p64 = {k: v.astype(np.float64) for k, v in p32.items()}
    batch = np.random.default_rng(8).uniform(0, 1, size=(16, 3, 32, 32)).astype(np.float32)
    z32 = forward(Model(model.config, p32), batch)
    z64 = forward(Model(model.config, p64), batch)
    assert z32.dtype == np.float32 and z64.dtype == np.float64
    scale = max(1.0, float(np.abs(z64).max()))
    assert np.abs(z32 - z64).max() <= 1e-5 * scale


def _taped(layers, x, g):
    """Value and input gradient of `layers(tape, x_node)` on a fresh tape."""
    tape = Tape()
    y = layers(tape, tape.param("x", x))
    return y.value, tape.backward(y, g)["x"]


@pytest.mark.parametrize("seed", range(4))
def test_relu_commutes_with_maxpool_in_value_and_gradient(seed):
    rng = np.random.default_rng(seed)
    # few distinct values, so windows tie, and a band of all-negative windows
    x = rng.integers(-2, 3, size=(2, 3, 8, 7)).astype(np.float64)
    x[:, :, :2] = -rng.integers(1, 3, size=(2, 3, 2, 7))
    g = rng.normal(size=(2, 3, 4, 3))
    v_new, g_new = _taped(lambda t, n: t.relu(t.maxpool2(n)), x, g)
    v_old, g_old = _taped(lambda t, n: t.maxpool2(t.relu(n)), x, g)
    np.testing.assert_array_equal(v_new, v_old)
    np.testing.assert_array_equal(v_new, weckd.tensor.relu(weckd.tensor.maxpool2(x)))
    np.testing.assert_array_equal(g_new, g_old)  # -0.0 == 0.0: equal up to the sign of zero
    assert np.all(v_new[:, :, 0] == 0) and np.all(g_new[:, :, :2] == 0)


def test_param_shapes_name_build_model_params_in_order():
    for config in (BackboneConfig(), BackboneConfig(input_size=(20, 24, 1), conv_blocks=(5,),
                                                    fc_width=3, num_classes=7)):
        built = build_model(config).params
        assert list(param_shapes(config).items()) == [(k, v.shape) for k, v in built.items()]


@pytest.mark.parametrize("field, value", [
    ("input_size", (32, 32, 0)),
    ("input_size", (0, 32, 3)),
    ("input_size", (32, 32)),
    ("input_size", (32.0, 32, 3)),
    ("conv_blocks", (16, 0, 64)),
    ("conv_blocks", ()),
])
def test_config_rejects_sizes_that_are_not_positive_integers(field, value):
    with pytest.raises(ContractError):
        BackboneConfig(**{field: value})


# -- inference tiles -----------------------------------------------------------

class _RecordConv:
    """The pure `tensor` ops, recording the element count of every conv's
    output per image."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(weckd.tensor, name)

    def conv2d(self, x, w, b, stride, pad):
        out = weckd.tensor.conv2d(x, w, b, stride=stride, pad=pad)
        self.sizes.append(out[0].size)
        return out


TILE_CONFIGS = [BackboneConfig(input_size=(32, 32, 1), attention_enabled=True),
                BackboneConfig(input_size=(64, 64, 3)),
                BackboneConfig(input_size=(12, 12, 1), conv_blocks=(4, 6)),
                BackboneConfig(input_size=(256, 256, 3), conv_blocks=(32, 64))]


@pytest.mark.parametrize("config", TILE_CONFIGS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tile_rows_keep_the_widest_conv_buffer_within_budget(config, dtype):
    # a tile's conv passes chunk their columns, so the widest buffer a tile
    # holds whole is a conv output
    model = build_model(config)
    h, w, c = config.input_size
    ops = _RecordConv()
    _layers(ops, model.params, np.zeros((1, c, h, w), dtype=dtype), config)
    row_bytes = max(ops.sizes) * np.dtype(dtype).itemsize
    rows = _tile_rows(config, dtype)
    budget = weckd.tensor.BUFFER_BYTES
    assert rows == 2 or rows * row_bytes <= budget < (rows + 1) * row_bytes


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("batch", [1, 3, 16, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_logits_do_not_depend_on_the_column_chunks(dtype, batch, cpus, monkeypatch):
    # a budget of one image's widest columns (block 1's) gives 2-row tiles and
    # one image a chunk; one of the whole batch's, one tile and one chunk
    config = BackboneConfig(input_size=(32, 32, 1), attention_enabled=True)
    base = build_model(config)
    model = Model(config, {k: v.astype(dtype) for k, v in base.params.items()})
    x = np.random.default_rng(batch).random((batch, 1, 32, 32)).astype(dtype)
    image = 16 * 9 * 16 * 16 * x.itemsize
    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: cpus)
    monkeypatch.setattr(weckd.tensor, "BUFFER_BYTES", image)
    per_image = forward(model, x)
    monkeypatch.setattr(weckd.tensor, "BUFFER_BYTES", batch * image)
    whole = forward(model, x)
    assert per_image.dtype == dtype and np.array_equal(per_image, whole)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_forward_peaks_below_its_input_and_one_tile_and_budget_per_cpu(cpus, monkeypatch):
    # each CPU runs one tile at a time, whose widest conv output fits the tile
    # budget, and whose conv passes build one chunk of columns at a time
    import tracemalloc
    config = BackboneConfig(input_size=(32, 32, 1), attention_enabled=True)
    base = build_model(config)
    model = Model(config, {k: v.astype(np.float32) for k, v in base.params.items()})
    x = np.random.default_rng(0).random((280, 1, 32, 32)).astype(np.float32)
    monkeypatch.setattr(weckd.tensor, "_cpus", lambda: cpus)
    ops = _RecordConv()
    _layers(ops, model.params, x[:1], config)
    tile = _tile_rows(config, np.float32) * max(ops.sizes) * x.itemsize
    forward(model, x)  # warm-up: the image-block pool and numpy's caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        forward(model, x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + cpus * (tile + weckd.tensor.BUFFER_BYTES), (peak, tile)


def test_forward_splits_a_batch_into_even_tiles_of_two_rows_or_more(monkeypatch):
    config = BackboneConfig(input_size=(32, 32, 1))
    model = build_model(config)
    rows = _tile_rows(config, np.float64)
    tiles = []

    def spy(ops, p, x, cfg):
        tiles.append(len(x))
        return x[:, 0, 0, :2]  # a row's own pixels stand in for its logits

    monkeypatch.setattr(weckd.backbone, "_layers", spy)
    for n in range(1, 4 * rows + 3):
        tiles.clear()
        batch = np.random.default_rng(n).random((n, 1, 32, 32))
        np.testing.assert_array_equal(forward(model, batch), batch[:, 0, 0, :2])
        assert sum(tiles) == n and max(tiles) <= rows and max(tiles) - min(tiles) <= 1
        assert n == 1 or min(tiles) >= 2
