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
from .loss import Margins, hetero_loss_grad, triplet_loss_grad
from .net import (
    AdamState,
    ConfigError,
    EmbeddingNet,
    NetConfig,
    adam_step,
    backward,
    check_field,
    forward_batch,
    init_net,
    is_finite,
)
from .sampler import SampledTuple, TupleSpec, build_index, epoch_tuples


class NumericalError(RuntimeError):
    """A loss, updated parameter or distance became non-finite; a NaN or ±inf gradient shows as a NaN parameter."""


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


@dataclass(frozen=True)
class TrainConfig:
    net: NetConfig
    margins: Margins = field(default_factory=Margins)
    tuple_spec: TupleSpec = field(default_factory=TupleSpec)
    learning_rate: float = AdamState.learning_rate
    epochs: int = 30
    tuples_per_epoch: int = 2000
    batch_size: int = 32
    seed: int = 42
    loss_mode: str = "hetero"  # or "triplet_baseline"

    def __post_init__(self):
        if self.loss_mode not in ("hetero", "triplet_baseline"):
            raise ConfigError(f"unknown loss_mode {self.loss_mode!r}")
        check_field("epochs", self.epochs, 0)
        check_field("tuples_per_epoch", self.tuples_per_epoch, 1)
        check_field("batch_size", self.batch_size, 1)
        check_field("seed", self.seed, 0)
        if not (is_finite("learning_rate", self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")


def _slots(tuples: list[SampledTuple]) -> np.ndarray:
    """One row per tuple: anchor, same- and cross-domain positives, then each negative set -1-padded to the widest."""
    k = max(len(negs) for t in tuples for negs in (t.negs_same, t.negs_cross))
    pad = lambda rows: [*rows, *[-1] * (k - len(rows))]
    return np.array([[t.anchor, t.pos_same, t.pos_cross, *pad(t.negs_same), *pad(t.negs_cross)] for t in tuples])


def _batch_step(net: EmbeddingNet, features: np.ndarray, slots: np.ndarray, margins: Margins, baseline: bool):
    """Returns the flat gradient and the sums (loss, l1, l2, active hinges).

    `slots` is a block of `_slots`' table of `features` rows, -1 marking an empty
    slot. Its columns are the loss's layout (anchor, two positives, two negative
    sets of k), so the hetero loss takes views of the embedded block. The baseline
    uses the anchor, the same-domain positive and the first same-domain negative.
    Every slot in use is one forward row, in row-major slot order, so a sample in
    two slots sums both gradients.
    """
    in_use = slots >= 0
    n, k = len(slots), (slots.shape[1] - 3) // 2
    if baseline:
        in_use[:, 2] = in_use[:, 4:] = False
    X = features[slots[in_use]]
    E = np.zeros((*slots.shape, net.config.embed_dim))
    E[in_use] = forward_batch(net, X)  # the mask fills in the row-major order it read X in

    G = np.zeros_like(E)
    if baseline:
        l1, G[:, 0], G[:, 1], G[:, 3] = triplet_loss_grad(E[:, 0], E[:, 1], E[:, 3], margins.alpha1)
        l2 = np.zeros_like(l1)
    else:
        negs, counts = E[:, 3:].reshape(n, 2, k, -1), in_use[:, 3:].reshape(n, 2, k).sum(axis=2)
        val, G[:, 0], G[:, 1:3], d_negs = hetero_loss_grad(E[:, 0], E[:, 1:3], negs, margins, counts)
        G[:, 3:] = d_negs.reshape(n, 2 * k, -1)
        l1, l2 = val[:, 0], val[:, 1]

    scale = 1.0 / n  # batch reduction: mean over tuples
    grad = backward(net, X, scale * G[in_use])
    active = np.count_nonzero(l1 > 0) + np.count_nonzero(l2 > 0)
    # left-to-right sums, the order a running per-tuple total adds in
    sums = np.cumsum([l1 + l2, l1, l2], axis=1)[:, -1]
    return grad, np.append(sums, active)


# Overflow is reported once, as a NumericalError, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, config: TrainConfig) -> tuple[EmbeddingNet, TrainingLog]:
    """Train an embedding network on the given dataset; distinct sample ids order the sampler's rows."""
    index = build_index(dataset)
    features = dataset.feature_rows()
    net = init_net(config.net, config.seed)
    sampler_rng = np.random.default_rng([config.seed, 1])
    state = AdamState(learning_rate=config.learning_rate)
    baseline = config.loss_mode == "triplet_baseline"
    log = TrainingLog()

    for epoch in range(config.epochs):
        slots = _slots(epoch_tuples(index, sampler_rng, config.tuple_spec, config.tuples_per_epoch))
        totals = np.zeros(4)  # running sums in batch order, as `_batch_step` returns them
        for start in range(0, len(slots), config.batch_size):
            block = slots[start : start + config.batch_size]
            grad, sums = _batch_step(net, features, block, config.margins, baseline)
            adam_step(state, net.params, grad)
            if not (np.isfinite(sums[0]) and np.isfinite(net.params).all()):
                raise NumericalError(f"non-finite loss, gradient or parameter in epoch {epoch}")
            totals += sums
        n = len(slots)
        loss, l1, l2, active = totals.tolist()
        log.records.append(EpochRecord(epoch=epoch, mean_loss=loss / n, mean_l1=l1 / n, mean_l2=l2 / n,
                                       active_fraction=active / (n * (1 if baseline else 2)), lr=state.learning_rate))
    return net, log
