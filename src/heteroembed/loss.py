"""Margin losses over embedding tuples: one function per loss, returning its value and gradients.

`hetero_loss_grad` gives the within-domain term L1 and the cross-domain term
L2, each measured against a mean negative; `triplet_loss_grad` is the
single-negative baseline. Distances are squared Euclidean throughout; each
hinge is clipped to 0 independently and contributes gradient only when
strictly active.

One kernel, `_hinge`, serves every loss: T hinge terms stacked on the axis
before the last, positives (..., T, D) and negative sets (..., T, K, D) against
one anchor (..., D), with any leading batch dimensions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .net import ConfigError, ShapeError, check_field


@dataclass(frozen=True)
class Margins:
    alpha1: float = 0.4
    alpha2: float = 0.4

    def __post_init__(self):
        for name, value in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            check_field(name, value)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")


def _sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if x.shape != y.shape:
        raise ShapeError(f"dim mismatch {x.shape} vs {y.shape}")
    d = x - y
    # A stacked matmul takes the same dot product as `d @ d`, bit for bit.
    return (d[..., None, :] @ d[..., :, None])[..., 0, 0]


def _as_set(vectors, count=None) -> tuple[np.ndarray, np.ndarray]:
    """(..., K, D) vectors, from an array or a list of K equal-shape vectors,
    and the (..., K) mask of those in use: the first `count` of each set, 1 <= count <= K."""
    try:
        vectors = np.asarray(vectors)
    except ValueError as exc:  # a ragged list
        raise ShapeError("mean_embedding over mixed dims") from exc
    if vectors.ndim < 2 or vectors.shape[-2] == 0:
        raise ValueError("mean_embedding of empty set")
    if count is None:
        return vectors, np.ones(vectors.shape[:-1], dtype=bool)
    count, k = np.asarray(count), vectors.shape[-2]
    if count.dtype.kind not in "iu":
        raise ValueError(f"each negative set needs an integer count, got dtype {count.dtype}")
    if count.shape != vectors.shape[:-2]:
        raise ShapeError(f"count shape {count.shape} does not match the sets' leading shape {vectors.shape[:-2]}")
    if (count < 1).any():
        raise ValueError("each negative set needs a count >= 1")
    if (count > k).any():
        raise ValueError(f"each negative set needs a count <= K={k}, got {count.max()}")
    return vectors, np.arange(k) < count[..., None]


def mean_embedding(vectors, count=None) -> np.ndarray:
    """Component-wise mean of each nonempty set of equal-dim vectors.

    `vectors` is (..., K, D) or a list of K vectors; with `count`, only the
    first count[...] vectors of each set take part. Each component is summed
    in ascending order, one value after another, so the result is
    bit-identical under any permutation of a set's vectors.
    """
    stack, in_use = _as_set(vectors, count)
    keep = in_use[..., None]
    # Unused slots sort last as NaN (a NaN in use stays among the kept), then become -0.0, which adds nothing.
    ordered = np.where(keep, np.sort(np.where(keep, stack, np.nan), axis=-2), -0.0)
    # a fold adds left to right: ordered.sum(axis=-2) reorders the adds for narrow D
    return functools.reduce(np.add, np.moveaxis(ordered, -2, 0)) / in_use.sum(axis=-1)[..., None]


def _hinge(anchor, pos, negs, count, margins):
    """max(0, d2(a, p) - d2(a, mean negative) + alpha) of each of T stacked terms, and its subgradients.

    `anchor` (..., D) serves every term; `pos` is (..., T, D), `negs` (..., T, K, D),
    `count` (..., T) or None for all K, and `margins` (T,) or a scalar. Returns
    (loss (..., T), d_anchor (..., T, D) per term, d_pos, d_negs). A NaN argument
    stays NaN. An inactive hinge (argument <= 0) has zero gradient; each negative
    in use receives 1/k of the mean's gradient.
    """
    anchor, pos = np.asarray(anchor), np.asarray(pos)
    if anchor.shape[-1:] != pos.shape[-1:]:
        raise ShapeError(f"dim mismatch {anchor.shape} vs {pos.shape}")
    a = np.broadcast_to(anchor[..., None, :], pos.shape)
    negs, in_use = _as_set(negs, count)
    m = mean_embedding(negs, count)
    loss = np.maximum(0.0, _sqdist(a, pos) - _sqdist(a, m) + margins)
    on = (loss > 0)[..., None]
    d_anchor = np.where(on, 2.0 * (m - pos), 0.0)
    d_pos = np.where(on, -2.0 * (a - pos), 0.0)
    per_neg = np.where(on, 2.0 * (a - m) / in_use.sum(axis=-1)[..., None], 0.0)
    d_negs = np.where(in_use[..., None], per_neg[..., None, :], 0.0)
    return loss, d_anchor, d_pos, d_negs


def triplet_loss_grad(anchor, positive, negative, alpha: float):
    """Loss and subgradients (val, d_a, d_p, d_n) of the single-negative baseline: one term, one negative."""
    val, d_a, d_p, d_n = _hinge(anchor, np.asarray(positive)[..., None, :],
                                np.asarray(negative)[..., None, None, :], None, alpha)
    return val[..., 0], d_a[..., 0, :], d_p[..., 0, :], d_n[..., 0, 0, :]


def hetero_loss_grad(anchor, positives, negatives, margins: Margins, counts=None):
    """Value and subgradients (val, d_anchor, d_pos, d_negs) of the two terms; val (..., 2) holds L1 and L2.

    Term 0, L1, is within-domain: the anchor against its same-domain positive and
    the mean same-domain negative; term 1, L2, is cross-domain. `positives` is
    (..., 2, D), `negatives` (..., 2, K, D) and `counts` (..., 2), each set's
    leading negatives in use (None: all K); the gradients come in their layout.
    """
    val, d_a, d_pos, d_negs = _hinge(anchor, positives, negatives, counts,
                                     np.array([margins.alpha1, margins.alpha2]))
    # term by term: np.sum over the terms would turn a -0.0 into +0.0
    return val, d_a[..., 0, :] + d_a[..., 1, :], d_pos, d_negs
