"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from heteroembed.cli import main, run_compare
from heteroembed.data import (
    SynthConfig,
    generate_synthetic,
    load_manifest,
    save_manifest,
)
from heteroembed.loss import (
    EmbeddingTuple,
    Margins,
    hetero_loss_grad,
    mean_embedding,
    triplet_loss_grad,
)
from heteroembed.metrics import ScoreSet, eer, gar_at_far, identify, roc
from heteroembed.net import NetConfig, load_checkpoint, save_checkpoint
from heteroembed.train import TrainConfig

from test_metrics import brute_cmc, brute_eer, brute_gar_at_far, brute_roc_points

# Pinned by the first verified run of the default benchmark (seed 42, 30
# epochs, 50 identities, rotation 30 deg, offset 1.0). Must reproduce
# bit-identically.
PINNED_HETERO_CROSS_RANK1 = 1.0
PINNED_BASELINE_CROSS_RANK1 = 1.0


def report(criterion, name, ok):
    print(f"\nACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {criterion} ({name}) failed"


def random_tuple(rng, dim, k1, k2):
    return EmbeddingTuple(
        anchor=rng.standard_normal(dim),
        pos_same=rng.standard_normal(dim),
        pos_cross=rng.standard_normal(dim),
        negs_same=[rng.standard_normal(dim) for _ in range(k1)],
        negs_cross=[rng.standard_normal(dim) for _ in range(k2)],
    )


def hinge_args(tup, margins):
    def sq(x, y):
        d = x - y
        return float(d @ d)

    a1 = sq(tup.anchor, tup.pos_same) - sq(tup.anchor, mean_embedding(tup.negs_same)) + margins.alpha1
    a2 = sq(tup.anchor, tup.pos_cross) - sq(tup.anchor, mean_embedding(tup.negs_cross)) + margins.alpha2
    return a1, a2


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    margins = Margins(0.4, 0.4)
    start = time.time()
    checked = 0
    ok = True
    # scale embeddings so both hinge regimes (active and inactive) occur
    while checked < 120:
        dim = int(rng.integers(1, 9))
        scale = float(rng.choice([0.2, 1.0]))
        tup = random_tuple(rng, dim, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        for name in ("anchor", "pos_same", "pos_cross"):
            setattr(tup, name, getattr(tup, name) * scale)
        tup.negs_same = [v * scale for v in tup.negs_same]
        tup.negs_cross = [v * scale for v in tup.negs_cross]
        a1, a2 = hinge_args(tup, margins)
        if abs(a1) < 1e-3 or abs(a2) < 1e-3:
            continue
        checked += 1
        _, grad = hetero_loss_grad(tup, margins)
        vecs = [tup.anchor, tup.pos_same, tup.pos_cross, *tup.negs_same, *tup.negs_cross]
        grads = [grad.anchor, grad.pos_same, grad.pos_cross,
                 *grad.negs_same, *grad.negs_cross]
        h = 1e-5
        for vec, g in zip(vecs, grads):
            for i in range(dim):
                old = vec[i]
                vec[i] = old + h
                f_plus = hetero_loss_grad(tup, margins)[0].total
                vec[i] = old - h
                f_minus = hetero_loss_grad(tup, margins)[0].total
                vec[i] = old
                fd = (f_plus - f_minus) / (2 * h)
                if abs(fd - g[i]) > 1e-4 * max(1.0, abs(fd)):
                    ok = False
    elapsed = time.time() - start
    report(1, "gradient correctness", ok and checked >= 100 and elapsed < 10)


def test_criterion_2_reduction_oracle():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        a, p, n = rng.standard_normal((3, dim))
        tup = EmbeddingTuple(a, p, p.copy(), [n], [n.copy()])
        l1 = hetero_loss_grad(tup, Margins(0.4, 0.4))[0].l1
        if abs(l1 - triplet_loss_grad(a, p, n, 0.4)[0]) > 1e-12:
            ok = False
        total = hetero_loss_grad(tup, Margins(0.4, 0.25))[0].total
        two = triplet_loss_grad(a, p, n, 0.4)[0] + triplet_loss_grad(a, p, n, 0.25)[0]
        if abs(total - two) > 1e-12:
            ok = False
    report(2, "reduction to triplet loss", ok)


def test_criterion_3_loss_identities():
    ok = True
    z = np.zeros(3)
    coincident = EmbeddingTuple(z, z.copy(), z.copy(), [z.copy(), z.copy()], [z.copy()])
    ok &= hetero_loss_grad(coincident, Margins(0.4, 0.4))[0].total == 0.8

    rng = np.random.default_rng(103)
    for _ in range(100):
        tup = random_tuple(rng, 4, 3, 2)
        c = rng.standard_normal(4)
        shifted = EmbeddingTuple(
            tup.anchor + c, tup.pos_same + c, tup.pos_cross + c,
            [v + c for v in tup.negs_same], [v + c for v in tup.negs_cross],
        )
        before = hetero_loss_grad(tup, Margins())[0].total
        after = hetero_loss_grad(shifted, Margins())[0].total
        ok &= abs(before - after) < 1e-9

        perm = rng.permutation(len(tup.negs_same))
        permuted = EmbeddingTuple(
            tup.anchor, tup.pos_same, tup.pos_cross,
            [tup.negs_same[i] for i in perm], list(reversed(tup.negs_cross)),
        )
        ok &= hetero_loss_grad(permuted, Margins())[0].total == before
    report(3, "loss identities", ok)


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(104)
    start = time.time()
    ok = True
    for _ in range(200):
        n_gen = int(rng.integers(2, 250))
        n_imp = int(rng.integers(2, 250))
        genuine = rng.random(n_gen)
        impostor = rng.random(n_imp) + rng.random() * 0.3
        curve = roc(ScoreSet(genuine=genuine, impostor=impostor))
        far, gar, _ = curve.points()
        expected = brute_roc_points(list(genuine), list(impostor))
        if len(far) != len(expected):
            ok = False
        else:
            for (f, g, _), cf, cg in zip(expected, far, gar):
                if abs(cf - f) > 1e-12 or abs(cg - g) > 1e-12:
                    ok = False
        if abs(eer(curve) - brute_eer(list(genuine), list(impostor))) > 1e-12:
            ok = False
        for level in (0.001, 0.1):
            if abs(gar_at_far(curve, level) - brute_gar_at_far(list(genuine), list(impostor), level)) > 1e-12:
                ok = False

        n_gallery = int(rng.integers(2, 30))
        n_probes = int(rng.integers(1, 16))
        gallery_ids = [f"g{i}" for i in rng.integers(0, 8, size=n_gallery)]
        probe_ids = [gallery_ids[i] for i in rng.integers(0, n_gallery, size=n_probes)]
        dist = rng.random((n_probes, n_gallery))
        cmc = identify(dist, probe_ids, gallery_ids).rank_accuracies
        if not np.array_equal(cmc, brute_cmc(dist, probe_ids, gallery_ids)):
            ok = False
    elapsed = time.time() - start
    report(4, "metric oracles", ok and elapsed < 30)


@pytest.fixture(scope="module")
def benchmark_results():
    dataset = generate_synthetic(SynthConfig(seed=42))
    config = TrainConfig(net=NetConfig(input_dim=16), epochs=30, seed=42)
    start = time.time()
    results = run_compare(dataset, config, train_fraction=0.8, enroll=3)
    results["_elapsed"] = time.time() - start
    return results


def test_criterion_5_desk_benchmark(benchmark_results):
    r = benchmark_results
    ok = (
        r["hetero.final_epoch_loss"] < r["hetero.first_epoch_loss"]
        and r["baseline.final_epoch_loss"] < r["baseline.first_epoch_loss"]
        and r["hetero.cross_rank1"] >= r["baseline.cross_rank1"]
        and r["hetero.cross_rank1"] == PINNED_HETERO_CROSS_RANK1
        and r["baseline.cross_rank1"] == PINNED_BASELINE_CROSS_RANK1
        and r["_elapsed"] < 300
    )
    report(5, "desk-scale benchmark", ok)


def test_criterion_6_end_to_end_determinism(tmp_path):
    data = tmp_path / "data.hem"
    save_manifest(
        generate_synthetic(SynthConfig(n_identities=10, samples_per_identity_per_domain=6, seed=5)),
        data,
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=3\ntuples_per_epoch=100\nnet.hidden_dims=8\nnet.embed_dim=8\n")
    outs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        log = tmp_path / f"{name}.log.csv"
        code = main([
            "train", "--config", str(cfg), "--data", str(data),
            "--out", str(ckpt), "--log-out", str(log),
        ])
        outs.append((code, ckpt.read_bytes(), log.read_bytes()))
    ok = outs[0] == outs[1] and outs[0][0] == 0
    report(6, "end-to-end determinism", ok)


def test_criterion_7_format_round_trips(tmp_path):
    dataset = generate_synthetic(SynthConfig(n_identities=5, samples_per_identity_per_domain=3, seed=7))
    m1 = tmp_path / "m1.hem"
    m2 = tmp_path / "m2.hem"
    save_manifest(dataset, m1)
    save_manifest(load_manifest(m1), m2)
    manifest_ok = m1.read_bytes() == m2.read_bytes()

    from heteroembed.net import init_net

    net = init_net(NetConfig(input_dim=4, hidden_dims=(6,), embed_dim=3, activation="tanh"), 9)
    c1 = tmp_path / "c1.ckpt"
    c2 = tmp_path / "c2.ckpt"
    save_checkpoint(net, c1)
    save_checkpoint(load_checkpoint(c1), c2)
    ckpt_ok = c1.read_bytes() == c2.read_bytes()
    report(7, "format round-trips", manifest_ok and ckpt_ok)
