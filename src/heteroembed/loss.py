"""Margin losses over embedding tuples: one function per loss, returning its value and gradients.

`hetero_loss_grad` sums the within-domain term L1 and the cross-domain term
L2, each measured against a mean negative; `triplet_loss_grad` is the
single-negative baseline. Distances are squared Euclidean throughout; each
hinge is clipped to 0 independently and contributes gradient only when
strictly active.

Inputs may carry leading batch dimensions: vectors (..., D), negative
sets (..., K, D) or lists of K vectors; values and gradients then come
batch-shaped. One kernel, `_hinge`, serves every loss.
"""

from __future__ import annotations

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


@dataclass
class EmbeddingTuple:
    """Anchor, same/cross-domain positives, and per-domain negative sets.

    All negatives come from a single negative identity (enforced by the
    sampler, not here). In a batch whose tuples have fewer negatives than
    the sets' K, `n_same`/`n_cross` (batch-shaped ints) count the leading
    negatives in use, 1 to K; None means all K. A loss returns its gradients in the
    same layout, each in the field of the embedding it belongs to.
    """

    anchor: np.ndarray
    pos_same: np.ndarray
    pos_cross: np.ndarray
    negs_same: list[np.ndarray] | np.ndarray
    negs_cross: list[np.ndarray] | np.ndarray
    n_same: np.ndarray | None = None
    n_cross: np.ndarray | None = None


@dataclass
class LossValue:
    l1: np.ndarray
    l2: np.ndarray
    total: np.ndarray


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
    in_use = np.arange(k) < count[..., None]
    if in_use.shape != vectors.shape[:-1] or not in_use[..., 0].all():
        raise ValueError("each negative set needs a count >= 1")
    if (count > k).any():
        raise ValueError(f"each negative set needs a count <= K={k}, got {count.max()}")
    return vectors, in_use


def mean_embedding(vectors, count=None) -> np.ndarray:
    """Component-wise mean of each nonempty set of equal-dim vectors.

    `vectors` is (..., K, D) or a list of K vectors; with `count`, only the
    first count[...] vectors of each set take part. Each component is summed
    in ascending order, one value after another, so the result is
    bit-identical under any permutation of a set's vectors.
    """
    stack, in_use = _as_set(vectors, count)
    # Unused slots become NaN, which np.sort puts last: the first n values of
    # each sorted component are the ones in use. A NaN in use stays among
    # them, so it reaches the sum.
    ordered = np.sort(np.where(in_use[..., None], stack, np.nan), axis=-2)
    n = in_use.sum(axis=-1)[..., None]
    total = ordered[..., 0, :]
    for j in range(1, stack.shape[-2]):
        total = np.where(j < n, total + ordered[..., j, :], total)
    return total / n


def _hinge(anchor, pos, negs, count, alpha: float):
    """max(0, d2(a,p) - d2(a, mean negative) + alpha) and its subgradients.

    Returns (loss, d_anchor, d_pos, d_negs). A NaN argument stays NaN. An
    inactive hinge (argument <= 0) has zero gradient; each negative in use
    receives 1/k of the mean's gradient.
    """
    negs, in_use = _as_set(negs, count)
    m = mean_embedding(negs, count)
    loss = np.maximum(0.0, _sqdist(anchor, pos) - _sqdist(anchor, m) + alpha)
    on = (loss > 0)[..., None]
    d_anchor = np.where(on, 2.0 * (m - pos), 0.0)
    d_pos = np.where(on, -2.0 * (anchor - pos), 0.0)
    per_neg = np.where(on, 2.0 * (anchor - m) / in_use.sum(axis=-1)[..., None], 0.0)
    d_negs = np.where(in_use[..., None], per_neg[..., None, :], 0.0)
    return loss, d_anchor, d_pos, d_negs


def triplet_loss_grad(anchor, positive, negative, alpha: float):
    """Loss and subgradients (val, d_a, d_p, d_n) of the single-negative baseline."""
    negs = np.asarray(negative)[..., None, :]
    val, d_a, d_p, d_negs = _hinge(anchor, positive, negs, None, alpha)
    return val, d_a, d_p, d_negs[..., 0, :]


def hetero_loss_grad(tup: EmbeddingTuple, margins: Margins) -> tuple[LossValue, EmbeddingTuple]:
    """L1, the within-domain term (anchor vs same-domain positive vs mean same-domain negative),
    L2, the cross-domain term (anchor vs cross-domain positive vs mean cross-domain negative),
    and their sum; and the subgradients w.r.t. every embedding, as an EmbeddingTuple."""
    l1, d_a1, d_pos_same, d_negs_same = _hinge(
        tup.anchor, tup.pos_same, tup.negs_same, tup.n_same, margins.alpha1
    )
    l2, d_a2, d_pos_cross, d_negs_cross = _hinge(
        tup.anchor, tup.pos_cross, tup.negs_cross, tup.n_cross, margins.alpha2
    )
    value = LossValue(l1=l1, l2=l2, total=l1 + l2)
    grad = EmbeddingTuple(d_a1 + d_a2, d_pos_same, d_pos_cross, d_negs_same, d_negs_cross,
                          tup.n_same, tup.n_cross)
    return value, grad
