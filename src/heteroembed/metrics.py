"""Matching and biometric metrics: CMC/Rank-k, ROC, EER, GAR@FAR.

Scores are distances (lower = more similar); a pair is accepted when its
distance falls at or below the decision threshold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .net import EmbeddingNet, ShapeError, forward_batch

# Probe x gallery entries per block in `identify` and `verification_scores`,
# and ROC rows per block of `write_roc_csv`: bounds the temporaries, not the
# results.
BLOCK = 1 << 16

# The false accept rates every verification report gives the GAR at.
FAR_LEVELS = (0.001, 0.1)


@dataclass(frozen=True)
class ScoreSet:
    """Genuine (same-identity) and impostor distances.

    The ROC reads need both sorted ascending, as `roc` returns them: the
    sweep's thresholds are -inf, every distinct score, then +inf, and at each
    one FAR and GAR are the shares of impostor and genuine scores at or below
    it. `far`, `gar` and `threshold` build those arrays when read.
    """

    genuine: np.ndarray
    impostor: np.ndarray

    def rates(self, threshold):
        """(FAR, GAR) at a threshold or an array of thresholds."""
        far = np.searchsorted(self.impostor, threshold, side="right") / self.impostor.size
        gar = np.searchsorted(self.genuine, threshold, side="right") / self.genuine.size
        return far, gar

    def points(self):
        """(far, gar, threshold) arrays, one entry per threshold of the sweep."""
        threshold = np.concatenate(
            ([-np.inf], np.unique(np.concatenate((self.genuine, self.impostor))), [np.inf])
        )
        return (*self.rates(threshold), threshold)

    @property
    def far(self) -> np.ndarray:
        return self.points()[0]

    @property
    def gar(self) -> np.ndarray:
        return self.points()[1]

    @property
    def threshold(self) -> np.ndarray:
        return self.points()[2]


@dataclass
class IdentReport:
    rank_accuracies: np.ndarray  # index r-1 = CMC at rank r

    @property
    def rank1(self) -> float:
        return float(self.rank_accuracies[0])


@dataclass
class VerificationReport:
    eer: float
    gar_at: dict[float, float]


def embed_dataset(net: EmbeddingNet, dataset: Dataset) -> np.ndarray:
    """Embed every sample: row i of the (n, embed_dim) result is sample i's embedding."""
    feats = np.array([s.features for s in dataset.samples])
    return forward_batch(net, feats.reshape(len(dataset), dataset.feature_dim))


def distance_matrix(probes: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, probes on rows."""
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    gallery = np.atleast_2d(np.asarray(gallery, dtype=np.float64))
    if probes.size == 0 or gallery.size == 0:
        raise ValueError("probe and gallery sets must be nonempty")
    if probes.ndim != 2 or gallery.ndim != 2 or probes.shape[1] != gallery.shape[1]:
        raise ShapeError(f"probes {probes.shape} and gallery {gallery.shape} must be 2-D with equal dims")
    d = np.empty((probes.shape[0], gallery.shape[0]))
    for i, p in enumerate(probes):  # one row at a time: no (P, G, D) tensor
        diff = p - gallery
        d[i] = np.einsum("jk,jk->j", diff, diff)
    return d


def _identity_codes(dist: np.ndarray, probe_identities: list, gallery_identities: list):
    """(probe codes, gallery codes, genuine entries per probe) for a matching `dist`.

    Equal codes are equal identities.
    """
    if dist.shape != (len(probe_identities), len(gallery_identities)):
        raise ShapeError("distance matrix does not match label lists")
    _, codes = np.unique(np.asarray(probe_identities + gallery_identities), return_inverse=True)
    probe_codes, gallery_codes = np.split(codes, [len(probe_identities)])
    per_probe = np.bincount(gallery_codes, minlength=codes.size)[probe_codes]
    return probe_codes, gallery_codes, per_probe


def _probe_blocks(dist: np.ndarray):
    """Row slices of `dist` holding about BLOCK entries each."""
    rows = max(1, BLOCK // max(1, dist.shape[1]))
    return (slice(i, i + rows) for i in range(0, dist.shape[0], rows))


def identify(dist: np.ndarray, probe_identities, gallery_identities) -> IdentReport:
    """CMC over a probe x gallery distance matrix.

    A probe's first genuine match is its closest same-identity gallery entry,
    the lowest index among equals; its rank counts the entries strictly
    closer plus the equal ones at a lower index. No probes, a NaN distance and
    a probe identity missing from the gallery are errors.
    """
    dist = np.asarray(dist, dtype=np.float64)
    probe_identities = list(probe_identities)
    probe_codes, gallery_codes, per_probe = _identity_codes(
        dist, probe_identities, list(gallery_identities)
    )
    if not probe_identities:
        raise ValueError("no probes to identify")
    missing = np.flatnonzero(per_probe == 0)
    if missing.size:
        raise ValueError(f"probe identity {probe_identities[missing[0]]!r} absent from gallery")

    n_probes, n_gallery = dist.shape
    hits = np.zeros(n_gallery, dtype=np.int64)
    for rows in _probe_blocks(dist):
        d = dist[rows]
        if np.isnan(d).any():
            raise ValueError(f"NaN distance for probe {rows.start + np.isnan(d).any(axis=1).argmax()}")
        same = probe_codes[rows, None] == gallery_codes
        best = np.min(d, axis=1, where=same, initial=np.inf, keepdims=True)
        earlier = ~np.logical_or.accumulate(same & (d == best), axis=1)  # before the first genuine match
        ahead = (d < best) | ((d == best) & earlier)
        hits += np.bincount(ahead.sum(axis=1), minlength=n_gallery)
    return IdentReport(rank_accuracies=np.cumsum(hits) / n_probes)


def roc(scores: ScoreSet) -> ScoreSet:
    """`scores` with both arrays sorted float64, copying neither that already is; refuses an empty or NaN set."""
    arrays = [np.asarray(a, dtype=np.float64) for a in (scores.genuine, scores.impostor)]
    if min(a.size for a in arrays) == 0:
        raise ValueError("genuine and impostor sets must be nonempty")
    arrays = [a if (a[1:] >= a[:-1]).all() else np.sort(a) for a in arrays]
    for name, a in zip(("genuine", "impostor"), arrays):
        if np.isnan(a[-1]):  # NaN sorts last
            raise ValueError(f"NaN {name} score")
    return ScoreSet(*arrays)


def eer(curve: ScoreSet) -> float:
    """Operating point where FAR equals FRR, linearly interpolated.

    FAR - FRR never falls along the sweep. The first threshold where it
    reaches 0 is the lower of the first such genuine and impostor scores (or
    +inf), each found by bisection; the interpolation runs from the sweep's
    threshold just below it.
    """

    def far_minus_frr(threshold):
        far, gar = curve.rates(threshold)
        return far, far - (1.0 - gar)

    far, diff = far_minus_frr(-np.inf)
    if diff >= 0:
        return float(far)
    high = np.inf
    for scores in (curve.genuine, curve.impostor):
        j = bisect_left(scores, True, key=lambda s: far_minus_frr(s)[1] >= 0)
        if j < scores.size:
            high = min(high, scores[j])
    low = max(_below(curve.genuine, high), _below(curve.impostor, high))
    (f0, d0), (f1, d1) = far_minus_frr(low), far_minus_frr(high)
    t = -d0 / (d1 - d0)  # d0 < 0 <= d1
    return float(f0 + t * (f1 - f0))


def _below(scores: np.ndarray, threshold) -> float:
    """The largest score under `threshold`, or -inf."""
    j = np.searchsorted(scores, threshold, side="left")
    return scores[j - 1] if j else -np.inf


def gar_at_far(curve: ScoreSet, far_level: float) -> float:
    """GAR at the requested FAR, interpolating between operating points.

    An operating point is a FAR the sweep reaches, with the highest GAR it
    reaches there: FAR c/n where c, the impostor scores accepted, is 0 or
    the end of a run of equal scores, and GAR the share of genuine scores
    below the next impostor score. Below the smallest achievable positive
    FAR the curve is taken as flat at its lowest point.
    """
    if not 0.0 <= far_level <= 1.0:
        raise ValueError("far_level must lie in [0, 1]")
    genuine, impostor = curve.genuine, curve.impostor
    n = impostor.size

    def best_gar(c):
        if c == n:
            return np.searchsorted(genuine, np.inf, side="right") / genuine.size
        return np.searchsorted(genuine, impostor[c], side="left") / genuine.size

    k = bisect_right(range(n + 1), far_level, key=lambda c: c / n) - 1  # largest c/n <= far_level
    if k == n:
        return float(best_gar(n))
    low = np.searchsorted(impostor, impostor[k], side="left")  # the run of scores holding k
    high = np.searchsorted(impostor, impostor[k], side="right")
    if low == 0:  # below the first positive FAR: the lowest point, accepting only -inf impostors
        return float(best_gar(np.searchsorted(impostor, -np.inf, side="right")))
    return float(np.interp(far_level, [low / n, high / n], [best_gar(low), best_gar(high)]))


def verification_scores(
    dist: np.ndarray, probe_identities, gallery_identities
) -> ScoreSet:
    """Label every probe x gallery distance genuine or impostor by identity; each set comes back sorted."""
    dist = np.asarray(dist, dtype=np.float64)
    probe_codes, gallery_codes, per_probe = _identity_codes(
        dist, list(probe_identities), list(gallery_identities)
    )
    n_genuine = int(per_probe.sum())
    genuine, impostor = np.empty(n_genuine), np.empty(dist.size - n_genuine)
    g = i = 0
    for rows in _probe_blocks(dist):
        d = dist[rows]
        same = probe_codes[rows, None] == gallery_codes
        block_genuine, block_impostor = d[same], d[~same]
        genuine[g:g + block_genuine.size] = block_genuine
        impostor[i:i + block_impostor.size] = block_impostor
        g += block_genuine.size
        i += block_impostor.size
    genuine.sort()
    impostor.sort()
    return ScoreSet(genuine=genuine, impostor=impostor)


def verification_report(scores: ScoreSet, roc_out=None) -> VerificationReport:
    """EER and GAR at each of FAR_LEVELS; with `roc_out`, the curve is then written there."""
    curve = roc(scores)
    report = VerificationReport(
        eer=eer(curve),
        gar_at={f: gar_at_far(curve, f) for f in FAR_LEVELS},
    )
    if roc_out is not None:
        write_roc_csv(curve, roc_out)
    return report


def write_roc_csv(curve: ScoreSet, path) -> None:
    points = curve.points()
    with open(path, "w", encoding="utf-8") as f:
        f.write("far,gar,threshold\n")
        for start in range(0, points[0].size, BLOCK):  # BLOCK rows of Python floats at a time
            f.writelines(
                f"{fa:.9g},{ga:.9g},{th:.9g}\n"
                for fa, ga, th in zip(*(a[start:start + BLOCK].tolist() for a in points))
            )


def write_cmc_csv(report: IdentReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("rank,accuracy\n")
        for r, acc in enumerate(report.rank_accuracies, start=1):
            f.write(f"{r},{acc:.9g}\n")
