"""Correctness checks with brute-force oracles written independently of the library.

Each check returns (name, ok, detail). The caller counts every check as one
attempted operation and every failed check as one failed operation.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

import heteroembed.data as hdata
import heteroembed.metrics as hmetrics
import heteroembed.net as hnet

# The package re-exports the function `train`, which shadows the submodule attribute.
htrain = importlib.import_module("heteroembed.train")

FAR_LEVELS = (0.001, 0.1)


def _protocol_sets(kind, args):
    """Rebuild the (probes, gallery) sample lists an evaluate call matched."""
    test_set = args[1]
    if kind == "enroll":
        gallery, probes = hdata.split_enroll_probe(test_set, args[2], args[3])
        return probes.samples, gallery.samples
    gallery_domain, probe_domain = args[2], args[3]
    probes = [s for s in test_set.samples if s.domain == probe_domain]
    gallery = [s for s in test_set.samples if s.domain == gallery_domain]
    return probes, gallery


def _brute_cmc(dist, probe_labels, gallery_labels):
    n_probes, n_gallery = dist.shape
    hits = np.zeros(n_gallery)
    for i in range(n_probes):
        best = None
        for j in range(n_gallery):
            if gallery_labels[j] == probe_labels[i] and (best is None or dist[i, j] < dist[i, best]):
                best = j
        rank = sum(
            1 for j in range(n_gallery)
            if dist[i, j] < dist[i, best] or (dist[i, j] == dist[i, best] and j < best)
        )
        hits[rank] += 1
    return np.cumsum(hits) / n_probes


def _brute_roc(genuine, impostor):
    thresholds = [-math.inf] + sorted(set(genuine) | set(impostor)) + [math.inf]
    t = np.array(thresholds)[:, None]
    far = (np.array(impostor)[None, :] <= t).sum(axis=1) / len(impostor)
    gar = (np.array(genuine)[None, :] <= t).sum(axis=1) / len(genuine)
    return far, gar


def _brute_eer(far, gar):
    diff = [f - (1.0 - g) for f, g in zip(far, gar)]
    for i, d in enumerate(diff):
        if d >= 0:
            if i == 0:
                return float(far[0])
            d0 = diff[i - 1]
            if d == d0:
                return float(far[i])
            t = -d0 / (d - d0)
            return float(far[i - 1] + t * (far[i] - far[i - 1]))
    return float(far[-1])


def _brute_gar_at_far(far, gar, level):
    best: dict[float, float] = {}
    for f, g in zip(far, gar):
        best[f] = max(best.get(f, 0.0), g)
    fars = sorted(best)
    positive = [f for f in fars if f > 0]
    if positive and level < positive[0]:
        return best.get(0.0, best[fars[0]])
    return float(np.interp(level, fars, [best[f] for f in fars]))


def eval_bruteforce(kind, args, result, rng, n_probes=60, n_gallery=80):
    """distance_matrix, identify's CMC, EER and GAR@FAR on a random subsample."""
    name = f"eval_bruteforce.{kind}"
    net = args[0]
    _, _, dist, probe_labels, gallery_labels = result
    probes, gallery = _protocol_sets(kind, args)
    if [s.identity for s in probes] != list(probe_labels) or [
        s.identity for s in gallery
    ] != list(gallery_labels):
        return name, False, "probe/gallery order differs from the protocol"
    pi = np.sort(rng.choice(len(probes), min(n_probes, len(probes)), replace=False))
    gj = np.sort(rng.choice(len(gallery), min(n_gallery, len(gallery)), replace=False))

    p_emb = hnet.forward_batch(net, np.stack([probes[i].features for i in pi]))
    g_emb = hnet.forward_batch(net, np.stack([gallery[j].features for j in gj]))
    worst = 0.0
    for a, i in enumerate(pi):
        for b, j in enumerate(gj):
            d = sum((float(x) - float(y)) ** 2 for x, y in zip(p_emb[a], g_emb[b]))
            worst = max(worst, abs(d - dist[i, j]) / max(1.0, d))
    if worst > 1e-9:
        return name, False, f"distance differs from brute force by {worst:.3g}"

    sub_labels = [probe_labels[i] for i in pi]
    cmc = hmetrics.identify(dist[pi], sub_labels, gallery_labels).rank_accuracies
    brute = _brute_cmc(dist[pi], sub_labels, list(gallery_labels))
    if not np.array_equal(cmc, brute):
        return name, False, "CMC differs from brute force"

    genuine, impostor = [], []
    for i in pi:
        for j in gj:
            (genuine if probe_labels[i] == gallery_labels[j] else impostor).append(float(dist[i, j]))
    if not genuine or not impostor:
        return name, True, "subsample has no genuine or no impostor pair; CMC and distances checked"
    far, gar = _brute_roc(genuine, impostor)
    curve = hmetrics.roc(hmetrics.ScoreSet(np.array(genuine), np.array(impostor)))
    if abs(hmetrics.eer(curve) - _brute_eer(far, gar)) > 1e-12:
        return name, False, "EER differs from brute force"
    for level in FAR_LEVELS:
        if abs(hmetrics.gar_at_far(curve, level) - _brute_gar_at_far(far, gar, level)) > 1e-12:
            return name, False, f"GAR@FAR={level:g} differs from brute force"
    return name, True, f"{len(pi)}x{len(gj)} subsample, {len(genuine)} genuine pairs"


def cmc_shape(ident):
    cmc = np.asarray(ident.rank_accuracies)
    ok = bool(np.all(np.diff(cmc) >= 0) and cmc[-1] == 1.0)
    return "cmc_shape", ok, "" if ok else f"CMC not monotone or ends at {cmc[-1]}"


def training_log(log, epochs):
    rows = log.records
    ok = len(rows) == epochs and all(
        math.isfinite(v)
        for r in rows
        for v in (r.mean_loss, r.mean_l1, r.mean_l2, r.active_fraction, r.lr)
    )
    return "training_log", ok, "" if ok else f"{len(rows)} rows for {epochs} epochs or non-finite"


def checkpoint_reload(net, features, path):
    """Save, reload and re-embed: the embeddings must be bit-identical."""
    hnet.save_checkpoint(net, path)
    again = hnet.load_checkpoint(path)
    ok = np.array_equal(hnet.forward_batch(net, features), hnet.forward_batch(again, features))
    return "checkpoint_reload", ok, "" if ok else "re-embedding after reload differs"


def determinism(workdir, seed):
    """A small train run repeated with one seed: checkpoint and log CSV byte-identical."""
    dataset = hdata.generate_synthetic(
        hdata.SynthConfig(n_identities=10, samples_per_identity_per_domain=6, seed=seed)
    )
    config = htrain.TrainConfig(
        net=hnet.NetConfig(input_dim=16, hidden_dims=(8,), embed_dim=8),
        epochs=3, tuples_per_epoch=100, seed=seed,
    )
    outputs = []
    for tag in ("a", "b"):
        net, log = htrain.train(dataset, config)
        ckpt, csv = workdir / f"det_{tag}.ckpt", workdir / f"det_{tag}.log.csv"
        hnet.save_checkpoint(net, ckpt)
        log.write_csv(csv)
        outputs.append((ckpt.read_bytes(), csv.read_bytes()))
    ok = outputs[0] == outputs[1]
    return "determinism", ok, "" if ok else "same seed gave different checkpoint or log bytes"
