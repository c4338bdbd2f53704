"""Matching and biometric metrics: CMC/Rank-k, ROC, EER, GAR@FAR.

Scores are distances (lower = more similar); a pair is accepted when its
distance falls at or below the decision threshold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .net import ConfigError, EmbeddingNet, ShapeError, forward_batch, is_finite

# Probe x gallery entries per block in `identify` and `verification_scores`,
# and ROC rows per block of `write_roc_csv`: bounds the temporaries, not the
# results.
BLOCK = 1 << 16

# The false accept rates every verification report gives the GAR at.
FAR_LEVELS = (0.001, 0.1)


@dataclass(frozen=True)
class ScoreSet:
    """Genuine (same-identity) and impostor distances, each held sorted ascending float64.

    Building one converts and sorts each array, copying neither that already
    is sorted float64, and refuses an empty set, a NaN or a score that is not a
    real number. The sweep's thresholds are -inf, every distinct score, then
    +inf; at each one FAR and GAR are the shares of impostor and genuine scores
    at or below it.
    """

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        arrays = []
        for name in ("genuine", "impostor"):
            try:
                a = np.asarray(getattr(self, name))
            except ValueError:  # a ragged list, refused below as an object array
                a = np.array(None)
            if a.dtype.kind not in "iuf":
                raise ValueError(f"{name} scores must be real numbers, got dtype {a.dtype}")
            if a.ndim != 1:
                raise ShapeError(f"{name} scores must be 1-D, got shape {a.shape}")
            arrays.append(a.astype(np.float64, copy=False))
        if min(a.size for a in arrays) == 0:
            raise ValueError("genuine and impostor sets must be nonempty")
        for name, a in zip(("genuine", "impostor"), arrays):
            if not (a[1:] >= a[:-1]).all():  # a NaN compares false, so its array is sorted, NaN last
                a = np.sort(a)
            if np.isnan(a[-1]):
                raise ValueError(f"NaN {name} score")
            object.__setattr__(self, name, a)

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
        """The FAR of each threshold; the benchmark's `metrics.roc_points` counter reads its length."""
        return self.points()[0]


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


def _labeled_blocks(dist, probe_identities: list, gallery_identities: list):
    """(genuine entries per probe, blocks) for `dist` and its label lists, coded once.

    Labels match by `==`, as a dict's keys do: each is coded by its first
    occurrence, so any hashable label works and `1` never matches `'1'`.
    `blocks` yields `(rows, dist[rows], same)` over float64 row slices of about
    BLOCK entries; `same` marks the same-identity entries.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (len(probe_identities), len(gallery_identities)):
        raise ShapeError("distance matrix does not match label lists")
    codes: dict = {}
    probe_codes, gallery_codes = (
        np.array([codes.setdefault(label, len(codes)) for label in labels], dtype=np.intp)
        for labels in (probe_identities, gallery_identities)
    )
    per_probe = np.bincount(gallery_codes, minlength=len(codes))[probe_codes]
    step = max(1, BLOCK // max(1, dist.shape[1]))
    rows = (slice(i, i + step) for i in range(0, dist.shape[0], step))
    return per_probe, ((r, dist[r], probe_codes[r, None] == gallery_codes) for r in rows)


def identify(dist: np.ndarray, probe_identities, gallery_identities) -> IdentReport:
    """CMC over a probe x gallery distance matrix, one block of probes at a time.

    A probe's first genuine match is its closest same-identity gallery entry,
    the lowest index among equals; its rank counts the entries strictly
    closer plus the equal ones at a lower index. No probes, a NaN distance and
    a probe identity with no sample in the gallery are errors.
    """
    probe_identities, gallery_identities = list(probe_identities), list(gallery_identities)
    per_probe, blocks = _labeled_blocks(dist, probe_identities, gallery_identities)
    if not probe_identities:
        raise ValueError("no probes to identify")
    missing = np.flatnonzero(per_probe == 0)
    if missing.size:
        raise ValueError(f"probe identity {probe_identities[missing[0]]!r} has no sample in the gallery")
    hits = np.zeros(len(gallery_identities), dtype=np.int64)
    for rows, d, same in blocks:
        if np.isnan(d).any():
            raise ValueError(f"NaN distance for probe {rows.start + np.isnan(d).any(axis=1).argmax()}")
        best = np.min(d, axis=1, where=same, initial=np.inf, keepdims=True)
        earlier = ~np.logical_or.accumulate(same & (d == best), axis=1)  # before the first genuine match
        ahead = (d < best) | ((d == best) & earlier)
        hits += np.bincount(ahead.sum(axis=1), minlength=hits.size)
    return IdentReport(rank_accuracies=np.cumsum(hits) / per_probe.size)


def roc(scores: ScoreSet) -> ScoreSet:
    """`scores` itself: a `ScoreSet` is its own ROC, sorted and checked when it was built."""
    return scores


def eer(curve: ScoreSet) -> float:
    """Operating point where FAR equals FRR on any `ScoreSet`, linearly interpolated.

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
    if not (is_finite("far_level", far_level) and 0.0 <= far_level <= 1.0):
        raise ConfigError(f"far_level must lie in [0, 1], got {far_level!r}")
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


def verification_scores(dist: np.ndarray, probe_identities, gallery_identities) -> ScoreSet:
    """Label every distance genuine or impostor by identity, a probe block at a time; each set is sorted in place."""
    probe_identities, gallery_identities = list(probe_identities), list(gallery_identities)
    per_probe, blocks = _labeled_blocks(dist, probe_identities, gallery_identities)
    n_genuine = int(per_probe.sum())
    genuine, impostor = np.empty(n_genuine), np.empty(per_probe.size * len(gallery_identities) - n_genuine)
    g = i = 0  # genuine and impostor entries filled
    for _, d, same in blocks:
        n = np.count_nonzero(same)
        genuine[g:g + n], impostor[i:i + d.size - n] = d[same], d[~same]
        g, i = g + n, i + d.size - n
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
