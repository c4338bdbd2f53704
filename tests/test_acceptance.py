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
from heteroembed.loss import Margins, hetero_loss_grad, mean_embedding, triplet_loss_grad
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


def random_tuple(rng, dim, k1, k2, scale=1.0):
    """(anchor, positives, negatives, counts) in the loss's layout: the same- and
    cross-domain negative sets of k1 and k2 vectors, the shorter NaN-padded."""
    anchor, positives = scale * rng.standard_normal(dim), scale * rng.standard_normal((2, dim))
    negatives = np.full((2, max(k1, k2), dim), np.nan)
    for term, k in enumerate((k1, k2)):
        negatives[term, :k] = scale * rng.standard_normal((k, dim))
    return anchor, positives, negatives, np.array([k1, k2])


def total(tup, margins=Margins()):
    anchor, positives, negatives, counts = tup
    return hetero_loss_grad(anchor, positives, negatives, margins, counts)[0].sum()


def hinge_args(tup, margins):
    def sq(x, y):
        d = x - y
        return float(d @ d)

    anchor, positives, negatives, counts = tup
    m = mean_embedding(negatives, counts)
    return [sq(anchor, positives[t]) - sq(anchor, m[t]) + alpha
            for t, alpha in enumerate((margins.alpha1, margins.alpha2))]


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
        tup = random_tuple(rng, dim, int(rng.integers(1, 5)), int(rng.integers(1, 5)), scale)
        if min(abs(arg) for arg in hinge_args(tup, margins)) < 1e-3:
            continue
        checked += 1
        grads = hetero_loss_grad(*tup[:3], margins, tup[3])[1:]
        h = 1e-5
        for vecs, g in zip(tup[:3], grads):
            for i in np.ndindex(vecs.shape):
                old = vecs[i]
                vecs[i] = old + h
                f_plus = total(tup, margins)
                vecs[i] = old - h
                f_minus = total(tup, margins)
                vecs[i] = old
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
        tup = (a, np.stack([p, p]), np.stack([n, n])[:, None], None)
        l1 = hetero_loss_grad(*tup[:3], Margins(0.4, 0.4))[0][0]
        if abs(l1 - triplet_loss_grad(a, p, n, 0.4)[0]) > 1e-12:
            ok = False
        two = triplet_loss_grad(a, p, n, 0.4)[0] + triplet_loss_grad(a, p, n, 0.25)[0]
        if abs(total(tup, Margins(0.4, 0.25)) - two) > 1e-12:
            ok = False
    report(2, "reduction to triplet loss", ok)


def test_criterion_3_loss_identities():
    ok = True
    z = np.zeros(3)
    ok &= total((z, np.zeros((2, 3)), np.zeros((2, 2, 3)), np.array([2, 1])), Margins(0.4, 0.4)) == 0.8

    rng = np.random.default_rng(103)
    for _ in range(100):
        anchor, positives, negatives, counts = random_tuple(rng, 4, 3, 2)
        c = rng.standard_normal(4)
        before = total((anchor, positives, negatives, counts))
        after = total((anchor + c, positives + c, negatives + c, counts))
        ok &= abs(before - after) < 1e-9

        permuted = negatives.copy()
        permuted[0] = negatives[0, rng.permutation(3)]
        permuted[1, :2] = negatives[1, 1::-1]
        ok &= total((anchor, positives, permuted, counts)) == before
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
