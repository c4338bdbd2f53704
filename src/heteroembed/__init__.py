"""Heterogeneity-aware metric learning on (identity, domain)-labeled features."""

from .data import Dataset, Sample, SynthConfig, generate_synthetic, load_manifest
from .loss import (
    EmbeddingTuple,
    Margins,
    hetero_loss,
    hetero_loss_grad,
    triplet_loss,
    triplet_loss_grad,
)
from .net import AdamState, EmbeddingNet, NetConfig, forward, init_net
from .sampler import TupleSpec, build_index, sample_tuple
from .train import TrainConfig, train

__all__ = [
    "AdamState",
    "Dataset",
    "EmbeddingNet",
    "EmbeddingTuple",
    "Margins",
    "NetConfig",
    "Sample",
    "SynthConfig",
    "TrainConfig",
    "TupleSpec",
    "build_index",
    "forward",
    "generate_synthetic",
    "hetero_loss",
    "hetero_loss_grad",
    "init_net",
    "load_manifest",
    "sample_tuple",
    "train",
    "triplet_loss",
    "triplet_loss_grad",
]
