"""Heterogeneity-aware metric learning on (identity, domain)-labeled features."""

from .data import Dataset, Sample, SynthConfig, generate_synthetic, load_manifest
from .loss import Margins, hetero_loss_grad, triplet_loss_grad
from .net import AdamState, EmbeddingNet, NetConfig, init_net
from .sampler import TupleSpec, build_index
from .train import TrainConfig, train

__all__ = [
    "AdamState",
    "Dataset",
    "EmbeddingNet",
    "Margins",
    "NetConfig",
    "Sample",
    "SynthConfig",
    "TrainConfig",
    "TupleSpec",
    "build_index",
    "generate_synthetic",
    "hetero_loss_grad",
    "init_net",
    "load_manifest",
    "train",
    "triplet_loss_grad",
]
