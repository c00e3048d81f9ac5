"""End-to-end gates for the distillation chain at desk scale.

These ten tests exercise the whole package against its headline claims:
exact gradients, loss identities, the partition protocol, chain improvement
over five seeds, parity with a single model trained on all three subsets,
the risk hierarchy, teacher freezing, TPE search quality, serialization,
and run-level determinism.  The five-seed chain protocol is expensive, so
it runs once in a session fixture shared by the tests that need it.
"""
import csv
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from weckd.backbone import BackboneConfig, build_model, forward
from weckd.cli import main
from weckd.config import parse_config
from weckd.data import (
    LabeledDataset,
    generate_synthetic,
    load_idx,
    partition,
    write_idx,
)
from weckd.losses import (
    anneal_temperature,
    hybrid_loss,
    kd_loss,
)
from weckd.runner import score_chain
from weckd.tpe import SearchSpace, run_study
from weckd.training import (
    TrainConfig,
    at_checkpoint_precision,
    evaluate,
    load_checkpoint,
    run_chain,
    save_checkpoint,
)

from oracles import finite_diff_check, train_single_baseline


# ---------------------------------------------------------------------------
# shared five-seed protocol: dataset n=1000, K=4, 32x32, noise 0.15,
# default training config, seeds 0..4, plus the 30% single-model baseline
# ---------------------------------------------------------------------------

N_SEEDS = 5


@pytest.fixture(scope="session")
def protocol():
    dataset = generate_synthetic(1000, 4, (32, 32), 0.15, seed=0)
    split = partition(dataset, 0)
    chains, scores, singles = [], [], []
    t0 = time.perf_counter()
    for seed in range(N_SEEDS):
        chains.append(run_chain(dataset, split, TrainConfig(seed=seed)))
        scores.append(score_chain([r.model for r in chains[-1].stage_results], dataset, split))
    chain_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    for seed in range(N_SEEDS):
        singles.append(train_single_baseline(dataset, split, TrainConfig(seed=seed)))
    single_seconds = time.perf_counter() - t0

    def test_acc(model):
        # at the precision score_chain scores the chain's models at
        return float(evaluate(at_checkpoint_precision(model), dataset, split.d_test)[1])

    return {
        "dataset": dataset,
        "split": split,
        "chains": chains,
        "scores": scores,  # per seed: (progression rows, M1..M3 test-set logits)
        "chain_accs": [[row["test_acc"] for row in progression] for progression, _ in scores],
        "single_accs": [test_acc(s.model) for s in singles],
        "chain_seconds": chain_seconds,
        "single_seconds": single_seconds,
    }


# -- 1. gradient oracle ------------------------------------------------------

def test_gradient_oracle_full_backbone():
    bb = BackboneConfig(input_size=(32, 32, 3))
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, size=(2, 3, 32, 32))
        y = rng.integers(0, bb.num_classes, 2)
        for attention in (False, True):
            model = build_model(replace(bb, attention_enabled=attention,
                                        init_seed=seed))

            def loss_of(params):
                from weckd.backbone import Model
                z = forward(Model(model.config, params), x)
                return hybrid_loss(z, z, y, 1.0, 1.0)[0]

            def grad_of(params):
                from weckd.backbone import Model
                from weckd.losses import hybrid_loss_grad
                from weckd.tensor import Tape
                from weckd.backbone import forward_on_tape
                work = Model(model.config, params)
                tape = Tape()
                node = forward_on_tape(work, tape, x)
                dz = hybrid_loss_grad(node.value, node.value, y, 1.0, 1.0)
                return tape.backward(node, dz)

            # eps small enough that the secant stays on one linear piece of
            # the relu/maxpool surface; 1e-5 straddles kinks for first-layer
            # weights, which fan out to thousands of activation sites
            err = finite_diff_check(loss_of, grad_of, model.params, eps=1e-6,
                                    max_coords_per_param=6, seed=seed)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"


# -- 2. loss identities ------------------------------------------------------

def test_loss_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    zs = rng.normal(0, 3, size=(10_000, 5))
    zt = rng.normal(0, 3, size=(10_000, 5))
    for i in range(0, 10_000, 500):
        assert kd_loss(zs[i:i + 500], zt[i:i + 500], 2.0) >= 0.0
    assert abs(kd_loss(zs[:100], zs[:100], 3.0)) <= 1e-12

    y = rng.integers(0, 5, 8)
    a, b = zs[:8], zt[:8]
    for alpha in np.linspace(0, 1, 11):
        total, ce, kd = hybrid_loss(a, b, y, float(alpha), 2.5)
        assert total == alpha * ce + (1.0 - alpha) * kd

    for _ in range(100):
        t_max = float(rng.uniform(1.5, 8.0))
        t_min = float(rng.uniform(0.5, t_max))
        epochs = int(rng.integers(1, 50)) * 2
        assert anneal_temperature(0, epochs, t_max, t_min) == t_max
        assert anneal_temperature(epochs, epochs, t_max, t_min) == t_min
        mid = anneal_temperature(epochs // 2, epochs, t_max, t_min)
        assert mid == pytest.approx((t_max + t_min) / 2.0, abs=1e-12)
    assert time.perf_counter() - t0 < 10.0


# -- 3. partition protocol ---------------------------------------------------

def test_partition_protocol():
    # the time limit bounds the partition calls only, not this test's checks
    spent = 0.0
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(10, 100_001))
        seed = int(rng.integers(0, 2**31))
        ds = LabeledDataset(np.zeros((n, 1, 1, 1)), np.zeros(n, dtype=int),
                            ["a", "b"], 2)
        t0 = time.perf_counter()
        split = partition(ds, seed)
        spent += time.perf_counter() - t0
        tenth = n // 10
        assert split.subsets[0].size == split.subsets[1].size == split.subsets[2].size == tenth
        assert split.d_test.size == n - 3 * tenth
        merged = np.concatenate([split.subsets[0], split.subsets[1], split.subsets[2],
                                 split.d_test])
        # every index in 0..n-1 exactly once: disjoint slices covering the data
        assert np.array_equal(np.sort(merged), np.arange(n))
    assert spent < 10.0, f"1000 partition calls took {spent:.1f}s"


# -- 4. chain improvement over five seeds ------------------------------------

def test_chain_improvement(protocol):
    accs = protocol["chain_accs"]
    ordered = sum(m3 > m2 > m1 for m1, m2, m3 in accs)
    mean_gain = float(np.mean([m3 - m1 for m1, _, m3 in accs]))
    assert ordered >= 4, f"strict M3>M2>M1 ordering in only {ordered}/5 seeds: {accs}"
    assert mean_gain >= 0.05, f"mean M1->M3 gain {mean_gain:+.3f} below +5pp"
    assert protocol["chain_seconds"] < 900.0


# -- 5. chain vs single model on 30% -----------------------------------------

def test_chain_parity_with_single_model(protocol):
    chain_m3 = float(np.mean([a[2] for a in protocol["chain_accs"]]))
    single = float(np.mean(protocol["single_accs"]))
    assert chain_m3 >= single - 0.01, (
        f"mean chain M3 {chain_m3:.3f} vs single-model {single:.3f} "
        f"(paired: {[a[2] for a in protocol['chain_accs']]} vs {protocol['single_accs']})"
    )
    assert protocol["single_seconds"] < 600.0


# -- 6. risk hierarchy -------------------------------------------------------

def test_risk_hierarchy(protocol):
    from weckd.metrics import theory_report
    holds = 0
    for progression, test_logits in protocol["scores"]:
        report = theory_report(progression, test_logits)
        assert report["kl_m2_m1"] >= 0.0
        assert report["kl_m3_m2"] >= 0.0
        r1, r2, r3 = report["risks"]
        holds += (r3 <= r2 <= r1)
    assert holds >= 4, f"risk hierarchy held in only {holds}/5 runs"


# -- 7. teacher freezing -----------------------------------------------------

def test_teachers_frozen_in_every_run(protocol):
    for chain in protocol["chains"]:
        assert len(chain.teacher_digests) == 2
        for before, after in chain.teacher_digests:
            assert before == after


# -- 8. TPE sanity and full tuning run ---------------------------------------

def test_tpe_beats_random_on_analytic_objective():
    def objective(eta, alpha, temp):
        return -(alpha - 0.7) ** 2

    t0 = time.perf_counter()
    tpe_best, rand_best = [], []
    near = 0
    for seed in range(10):
        best, _ = run_study(objective, SearchSpace(), 20, seed=seed)
        tpe_best.append(best.objective)
        near += abs(best.params[1] - 0.7) < 0.05
        rng = np.random.default_rng(seed)
        rand_best.append(max(objective(0, a, 0)
                             for a in rng.uniform(0.5, 0.9, 20)))
    assert near >= 8, f"TPE within 0.05 of the optimum in only {near}/10 studies"
    assert np.median(tpe_best) >= np.median(rand_best)
    assert time.perf_counter() - t0 < 5.0


def test_full_tune_run_emits_trials_table(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"synthetic": {"n": 300, "classes": 4, "height": 16,
                                  "width": 16, "noise_std": 0.15, "seed": 0}},
        "train": {"max_epochs": 10},
    }))
    out_dir = str(tmp_path / "study")
    t0 = time.perf_counter()
    assert main(["tune", "--config", str(cfg_path), "--trials", "5",
                 "--out-dir", out_dir]) == 0
    assert time.perf_counter() - t0 < 2700.0
    with open(os.path.join(out_dir, "trials.csv")) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["trial_index", "eta", "alpha", "temp", "objective", "status"]
    assert len(rows) == 6
    assert {row[5] for row in rows[1:]} <= {"complete", "failed"}
    assert os.path.exists(os.path.join(out_dir, "best-config.json"))


# -- 9. serialization --------------------------------------------------------

def test_serialization_round_trips(tmp_path):
    model = build_model(BackboneConfig(input_size=(16, 16, 1),
                                       attention_enabled=True, init_seed=7))
    p1, p2 = str(tmp_path / "a.wckd"), str(tmp_path / "b.wckd")
    save_checkpoint(model, p1)
    back = load_checkpoint(p1)
    x = np.random.default_rng(0).uniform(0, 1, size=(4, 1, 16, 16))
    diff = np.abs(forward(model, x) - forward(back, x)).max()
    assert diff <= 1e-6
    save_checkpoint(back, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()

    ds = generate_synthetic(40, 3, (12, 12), 0.1, seed=0)
    img1, lab1 = str(tmp_path / "i1.idx"), str(tmp_path / "l1.idx")
    img2, lab2 = str(tmp_path / "i2.idx"), str(tmp_path / "l2.idx")
    write_idx(ds, img1, lab1)
    again = load_idx(img1, lab1)
    write_idx(again, img2, lab2)
    assert open(img1, "rb").read() == open(img2, "rb").read()
    assert open(lab1, "rb").read() == open(lab2, "rb").read()
    np.testing.assert_array_equal(ds.labels, again.labels)


# -- 10. run determinism -----------------------------------------------------

def test_train_command_is_deterministic(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"synthetic": {"n": 200, "classes": 3, "height": 16,
                                  "width": 16, "noise_std": 0.15, "seed": 0}},
        "train": {"max_epochs": 8},
    }))
    payloads = []
    for name in ("run_a", "run_b"):
        out_dir = str(tmp_path / name)
        assert main(["train", "--config", str(cfg_path), "--out-dir", out_dir]) == 0
        payloads.append(open(os.path.join(out_dir, "metrics.json"), "rb").read())
    assert payloads[0] == payloads[1]
