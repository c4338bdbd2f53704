"""Every count and real setting of the configs goes through `net.check_field`.

A count must pass `operator.index` and reach its minimum; a real must be
finite. A failure is one ValueError (a `ConfigError`) naming the field.
"""

import math

import numpy as np
import pytest

from heteroembed.cli import SplitConfig
from heteroembed.data import SynthConfig, generate_synthetic, split_enroll_probe
from heteroembed.loss import Margins
from heteroembed.net import ConfigError, NetConfig
from heteroembed.sampler import TupleSpec, build_index, epoch_tuples
from heteroembed.train import TrainConfig

NET = NetConfig(input_dim=2, embed_dim=2)
SMALL = SynthConfig(n_identities=2, samples_per_identity_per_domain=3, feature_dim=2)

# id -> (build something from the value, the field's minimum, the name in the message)
COUNTS = {
    "TupleSpec.k": (lambda v: TupleSpec(k=v), 1, "k"),
    "NetConfig.input_dim": (lambda v: NetConfig(input_dim=v), 1, "input_dim"),
    "NetConfig.hidden_dims": (lambda v: NetConfig(input_dim=2, hidden_dims=(4, v)), 1, "hidden_dims[1]"),
    "NetConfig.embed_dim": (lambda v: NetConfig(input_dim=2, embed_dim=v), 1, "embed_dim"),
    "TrainConfig.epochs": (lambda v: TrainConfig(net=NET, epochs=v), 0, "epochs"),
    "TrainConfig.tuples_per_epoch": (lambda v: TrainConfig(net=NET, tuples_per_epoch=v), 1, "tuples_per_epoch"),
    "TrainConfig.batch_size": (lambda v: TrainConfig(net=NET, batch_size=v), 1, "batch_size"),
    "TrainConfig.seed": (lambda v: TrainConfig(net=NET, seed=v), 0, "seed"),
    "SynthConfig.n_identities": (lambda v: SynthConfig(n_identities=v), 2, "n_identities"),
    "SynthConfig.samples_per_identity_per_domain": (
        lambda v: SynthConfig(samples_per_identity_per_domain=v), 1, "samples_per_identity_per_domain"),
    "SynthConfig.feature_dim": (lambda v: SynthConfig(feature_dim=v), 1, "feature_dim"),
    "SynthConfig.seed": (lambda v: SynthConfig(seed=v), 0, "seed"),
    "SplitConfig.enroll_per_identity": (lambda v: SplitConfig(enroll_per_identity=v), 1, "enroll_per_identity"),
    "epoch_tuples.n_tuples": (
        lambda v: epoch_tuples(build_index(generate_synthetic(SMALL)), np.random.default_rng(0), TupleSpec(), v),
        0, "n_tuples"),
    "split_enroll_probe.per_identity_enroll": (
        lambda v: split_enroll_probe(generate_synthetic(SMALL), v, 0), 1, "per_identity_enroll"),
}


@pytest.mark.parametrize("value", [2.5, "4", None])
@pytest.mark.parametrize("field", COUNTS)
def test_count_must_be_an_integer(field, value):
    build, _, name = COUNTS[field]
    with pytest.raises(ConfigError) as info:
        build(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("kind", [int, np.int64])
@pytest.mark.parametrize("field", COUNTS)
def test_count_below_minimum_refused(field, kind):
    build, minimum, name = COUNTS[field]
    with pytest.raises(ConfigError) as info:
        build(kind(minimum - 1))
    assert str(info.value) == f"{name} must be >= {minimum}, got {minimum - 1}"


@pytest.mark.parametrize("field", COUNTS)
def test_numpy_integer_count_passes(field):
    build, minimum, _ = COUNTS[field]
    build(np.int64(minimum))
    build(np.int64(minimum + 1))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha1", "alpha2"])
def test_margin_must_be_finite(name, value):
    # the synth reals are checked the same way: test_data.py::test_non_finite_synth_setting_refused
    with pytest.raises(ConfigError) as info:
        Margins(**{name: value})
    assert str(info.value) == f"{name} must be finite, got {value!r}"
