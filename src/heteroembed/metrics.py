"""Matching and biometric metrics: CMC/Rank-k, ROC, EER, GAR@FAR.

Scores are distances (lower = more similar); a pair is accepted when its
distance falls at or below the decision threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .net import EmbeddingNet, ShapeError, forward_batch


@dataclass
class ScoreSet:
    genuine: np.ndarray  # same-identity distances
    impostor: np.ndarray  # different-identity distances


@dataclass
class RocCurve:
    far: np.ndarray
    gar: np.ndarray
    threshold: np.ndarray


@dataclass
class IdentReport:
    rank_accuracies: np.ndarray  # index r-1 = CMC at rank r
    n_probes: int
    n_gallery: int

    @property
    def rank1(self) -> float:
        return float(self.rank_accuracies[0])


@dataclass
class VerificationReport:
    eer: float
    gar_at: dict[float, float]


def embed_dataset(net: EmbeddingNet, dataset: Dataset) -> np.ndarray:
    """Embed every sample: row i of the (n, embed_dim) result is sample i's embedding."""
    if dataset.feature_dim != net.config.input_dim:
        raise ShapeError(
            f"dataset feature_dim {dataset.feature_dim} != net input_dim "
            f"{net.config.input_dim}"
        )
    feats = np.array([s.features for s in dataset.samples])
    return forward_batch(net, feats.reshape(len(dataset), dataset.feature_dim))


def distance_matrix(probes: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, probes on rows."""
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    gallery = np.atleast_2d(np.asarray(gallery, dtype=np.float64))
    if probes.size == 0 or gallery.size == 0:
        raise ValueError("probe and gallery sets must be nonempty")
    if probes.shape[1] != gallery.shape[1]:
        raise ShapeError("probe/gallery embedding dims differ")
    d = np.empty((probes.shape[0], gallery.shape[0]))
    for i, p in enumerate(probes):  # one row at a time: no (P, G, D) tensor
        diff = p - gallery
        d[i] = np.einsum("jk,jk->j", diff, diff)
    return np.maximum(d, 0.0)


def identify(dist: np.ndarray, probe_identities, gallery_identities) -> IdentReport:
    """CMC over a probe x gallery distance matrix.

    A probe's first genuine match is its closest same-identity gallery entry,
    the lowest index among equals; its rank counts the entries strictly
    closer plus the equal ones at a lower index. A NaN distance ranks after
    every number, as `np.sort` puts it. A probe identity missing from the
    gallery is an error.
    """
    dist = np.asarray(dist, dtype=np.float64)
    probe_identities = list(probe_identities)
    gallery_identities = list(gallery_identities)
    if dist.shape != (len(probe_identities), len(gallery_identities)):
        raise ShapeError("distance matrix does not match label lists")
    n_probes, n_gallery = dist.shape
    same = np.asarray(probe_identities)[:, None] == np.asarray(gallery_identities)[None, :]
    missing = np.flatnonzero(~same.any(axis=1))
    if missing.size:
        raise ValueError(f"probe identity {probe_identities[missing[0]]!r} absent from gallery")

    nan = np.isnan(dist)
    live = same & ~nan
    found = live.any(axis=1, keepdims=True)  # else every genuine distance is NaN
    best = np.min(dist, axis=1, where=live, initial=np.inf, keepdims=True)
    hit = np.where(found, live & (dist == best), same)
    earlier = ~np.logical_or.accumulate(hit, axis=1)  # before the first genuine match
    ahead = np.where(found, (dist < best) | ((dist == best) & earlier), ~nan | earlier)
    cmc = np.cumsum(np.bincount(ahead.sum(axis=1), minlength=n_gallery)) / n_probes
    return IdentReport(rank_accuracies=cmc, n_probes=n_probes, n_gallery=n_gallery)


def roc(scores: ScoreSet) -> RocCurve:
    """Sweep all distinct distances (plus -inf/+inf sentinels) as thresholds."""
    genuine = np.asarray(scores.genuine, dtype=np.float64)
    impostor = np.asarray(scores.impostor, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("genuine and impostor sets must be nonempty")
    thresholds = np.concatenate(
        ([-np.inf], np.unique(np.concatenate([genuine, impostor])), [np.inf])
    )
    genuine_sorted = np.sort(genuine)
    impostor_sorted = np.sort(impostor)
    gar = np.searchsorted(genuine_sorted, thresholds, side="right") / genuine.size
    far = np.searchsorted(impostor_sorted, thresholds, side="right") / impostor.size
    return RocCurve(far=far, gar=gar, threshold=thresholds)


def eer(curve: RocCurve) -> float:
    """Operating point where FAR equals FRR, linearly interpolated."""
    far = curve.far
    frr = 1.0 - curve.gar
    diff = far - frr  # non-decreasing along the threshold sweep
    idx = int(np.searchsorted(diff, 0.0, side="left"))
    if idx == 0:
        return float(far[0])
    if idx == len(diff):
        return float(far[-1])
    d0, d1 = diff[idx - 1], diff[idx]
    if d1 == d0:
        return float(far[idx])
    t = -d0 / (d1 - d0)
    return float(far[idx - 1] + t * (far[idx] - far[idx - 1]))


def gar_at_far(curve: RocCurve, far_level: float) -> float:
    """GAR at the requested FAR, interpolating between operating points.

    Below the smallest achievable positive FAR the curve is taken as flat
    at its FAR = 0 value.
    """
    if not 0.0 <= far_level <= 1.0:
        raise ValueError("far_level must lie in [0, 1]")
    # Collapse to one (max) GAR per distinct FAR. `roc` returns FAR sorted; a
    # hand-built curve may not be.
    far = np.asarray(curve.far)
    gar = np.asarray(curve.gar)
    if not (far[1:] >= far[:-1]).all():
        order = np.argsort(far, kind="stable")
        far, gar = far[order], gar[order]
    run_starts = np.ones(far.shape, dtype=bool)
    run_starts[1:] = far[1:] != far[:-1]
    starts = np.flatnonzero(run_starts)
    fars = far[starts]
    gars = np.maximum.reduceat(gar, starts)
    positive = fars[fars > 0]
    if positive.size and far_level < positive[0]:
        return float(gars[fars == 0.0][0]) if (fars == 0.0).any() else float(gars[0])
    return float(np.interp(far_level, fars, gars))


def verification_scores(
    dist: np.ndarray, probe_identities, gallery_identities
) -> ScoreSet:
    """Label every probe x gallery distance genuine or impostor by identity."""
    dist = np.asarray(dist, dtype=np.float64)
    probe_identities = np.asarray(list(probe_identities))
    gallery_identities = np.asarray(list(gallery_identities))
    same = probe_identities[:, None] == gallery_identities[None, :]
    return ScoreSet(genuine=dist[same], impostor=dist[~same])


def verification_report(
    scores: ScoreSet, far_levels=(0.001, 0.1)
) -> VerificationReport:
    curve = roc(scores)
    return VerificationReport(
        eer=eer(curve),
        gar_at={f: gar_at_far(curve, f) for f in far_levels},
    )


def write_roc_csv(curve: RocCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("far,gar,threshold\n")
        for fa, ga, th in zip(curve.far, curve.gar, curve.threshold):
            f.write(f"{fa:.9g},{ga:.9g},{th:.9g}\n")


def write_cmc_csv(report: IdentReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("rank,accuracy\n")
        for r, acc in enumerate(report.rank_accuracies, start=1):
            f.write(f"{r},{acc:.9g}\n")
