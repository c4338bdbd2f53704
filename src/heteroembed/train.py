"""Training loop: tuple batches, analytic gradients, Adam updates.

One logical thread; the sampler stream, network init, and optimizer are
all seeded so a run is a pure function of (config, data, seed). The
triplet baseline consumes the identical sampler stream and simply
ignores the cross-domain and extra-negative fields of each tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .loss import Margins, EmbeddingTuple, hetero_loss_grad, triplet_loss_grad
from .net import (
    AdamState,
    EmbeddingNet,
    NetConfig,
    adam_step,
    backward,
    decay_learning_rate,
    forward_batch,
    init_net,
)
from .sampler import SampledTuple, TupleSpec, build_index, epoch_tuples


class NumericalError(RuntimeError):
    """Loss, gradient or updated parameter became non-finite during training."""


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    mean_l1: float
    mean_l2: float
    active_fraction: float
    lr: float


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("epoch,mean_loss,mean_l1,mean_l2,active_fraction,lr\n")
            for r in self.records:
                f.write(
                    f"{r.epoch},{r.mean_loss:.17g},{r.mean_l1:.17g},"
                    f"{r.mean_l2:.17g},{r.active_fraction:.17g},{r.lr:.17g}\n"
                )


@dataclass
class TrainConfig:
    net: NetConfig
    margins: Margins = field(default_factory=Margins)
    tuple_spec: TupleSpec = field(default_factory=TupleSpec)
    learning_rate: float = 1e-3
    lr_decay: float = 1.0
    epochs: int = 30
    tuples_per_epoch: int = 2000
    batch_size: int = 32
    seed: int = 42
    loss_mode: str = "hetero"  # or "triplet_baseline"

    def __post_init__(self):
        if self.loss_mode not in ("hetero", "triplet_baseline"):
            raise ValueError(f"unknown loss_mode {self.loss_mode!r}")
        if self.epochs < 0 or self.tuples_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("epochs/tuples_per_epoch/batch_size out of range")


def _seq_sum(values: np.ndarray) -> float:
    """Left-to-right sum, the order a running per-tuple total adds in."""
    return float(np.cumsum(values)[-1])


def _batch_step(
    net: EmbeddingNet,
    features: np.ndarray,
    row_of: dict[int, int],
    batch: list[SampledTuple],
    margins: Margins,
    baseline: bool,
):
    """Returns (param grads, sum loss, sum l1, sum l2, active hinges, total hinges).

    Each tuple fills a row of slots: anchor, same- and cross-domain
    positives, then its same- and cross-domain negatives, padded to the
    batch's largest sets. The baseline uses only the anchor, the same-domain
    positive and the first same-domain negative. Every slot in use is one
    forward row, in slot order, so a sample in two slots sums both gradients.
    """
    n_same = np.array([len(t.neg_same_ids) for t in batch])
    n_cross = np.array([len(t.neg_cross_ids) for t in batch])
    k1, k2 = n_same.max(), n_cross.max()
    same, cross = slice(3, 3 + k1), slice(3 + k1, None)
    ids = np.array([
        [t.anchor_id, t.pos_same_id, t.pos_cross_id,
         *t.neg_same_ids, *[-1] * (k1 - len(t.neg_same_ids)),
         *t.neg_cross_ids, *[-1] * (k2 - len(t.neg_cross_ids))]
        for t in batch
    ])
    in_use = np.ones(ids.shape, dtype=bool)
    in_use[:, same] = np.arange(k1) < n_same[:, None]
    in_use[:, cross] = np.arange(k2) < n_cross[:, None]
    if baseline:
        in_use[:, 2] = in_use[:, 4:] = False
    rows = np.zeros(ids.shape, dtype=np.intp)
    rows[in_use] = np.arange(np.count_nonzero(in_use))
    X = features[[row_of[i] for i in ids[in_use].tolist()]]
    E = forward_batch(net, X)[rows]

    G = np.zeros_like(E)
    if baseline:
        a, p, n = E[:, 0], E[:, 1], E[:, 3]
        l1, G[:, 0], G[:, 1], G[:, 3] = triplet_loss_grad(a, p, n, margins.alpha1)
        l2 = np.zeros_like(l1)
    else:
        emb = EmbeddingTuple(E[:, 0], E[:, 1], E[:, 2], E[:, same], E[:, cross], n_same, n_cross)
        val, g = hetero_loss_grad(emb, margins)
        l1, l2 = val.l1, val.l2
        G[:, 0], G[:, 1], G[:, 2] = g.d_anchor, g.d_pos_same, g.d_pos_cross
        G[:, same], G[:, cross] = g.d_negs_same, g.d_negs_cross

    scale = 1.0 / len(batch)  # batch reduction: mean over tuples
    param_grads = backward(net, X, scale * G[in_use])
    active = np.count_nonzero(l1 > 0) + np.count_nonzero(l2 > 0)
    hinges = len(batch) * (1 if baseline else 2)
    return param_grads, _seq_sum(l1 + l2), _seq_sum(l1), _seq_sum(l2), active, hinges


# Overflow is reported once, as a NumericalError, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, config: TrainConfig) -> tuple[EmbeddingNet, TrainingLog]:
    """Train an embedding network on the given dataset."""
    index = build_index(dataset)
    features = np.stack([s.features for s in dataset.samples])
    row_of = {s.id: row for row, s in enumerate(dataset.samples)}
    net = init_net(config.net, config.seed)
    sampler_rng = np.random.default_rng([config.seed, 1])
    state = AdamState(learning_rate=config.learning_rate, decay=config.lr_decay)
    baseline = config.loss_mode == "triplet_baseline"
    log = TrainingLog()

    for epoch in range(config.epochs):
        tuples = epoch_tuples(index, sampler_rng, config.tuple_spec, config.tuples_per_epoch)
        loss_sum = l1_sum = l2_sum = 0.0
        active = hinges = 0
        for start in range(0, len(tuples), config.batch_size):
            batch = tuples[start : start + config.batch_size]
            grads, bl, b1, b2, ba, bh = _batch_step(
                net, features, row_of, batch, config.margins, baseline
            )
            new_params, state = adam_step(state, net.params(), grads)
            if not (np.isfinite(bl) and all(np.isfinite(x).all() for x in grads + new_params)):
                raise NumericalError(f"non-finite loss, gradient or parameter in epoch {epoch}")
            net = EmbeddingNet(net.config, weights=new_params[0::2], biases=new_params[1::2])
            loss_sum += bl
            l1_sum += b1
            l2_sum += b2
            active += ba
            hinges += bh
        n = len(tuples)
        log.records.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=loss_sum / n,
                mean_l1=l1_sum / n,
                mean_l2=l2_sum / n,
                active_fraction=active / hinges if hinges else 0.0,
                lr=state.learning_rate,
            )
        )
        state = decay_learning_rate(state)
    return net, log
