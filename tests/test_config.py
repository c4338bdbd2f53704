"""Every count and real setting of the configs goes through `net.check_field`.

A count must pass `operator.index`, not be a bool, and reach its minimum; a real must be a
number and finite, and the margins, `learning_rate` and `train_fraction` must
also lie in their intervals. A failure is one ValueError (a `ConfigError`)
naming the field and the value. `NetConfig` also refuses a `hidden_dims` that is not a sequence, a
`normalize_output` that is not a bool and an activation that `net.ACTIVATIONS` lacks.
"""

import math

import numpy as np
import pytest

from heteroembed.cli import SplitConfig
from heteroembed.data import DomainShift, SynthConfig, generate_synthetic, split_by_identity, split_enroll_probe
from heteroembed.loss import Margins
from heteroembed.net import ConfigError, NetConfig, init_net
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
    "split_by_identity.seed": (lambda v: split_by_identity(generate_synthetic(SMALL), 0.5, v), 0, "seed"),
    "split_enroll_probe.seed": (lambda v: split_enroll_probe(generate_synthetic(SMALL), 1, v), 0, "seed"),
    "init_net.seed": (lambda v: init_net(NET, v), 0, "seed"),
}


@pytest.mark.parametrize("value", [2.5, "4", None, True])  # operator.index(True) is 1, but a bool is no count
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


# id -> (build something from the value, the name in the message)
REALS = {
    "Margins.alpha1": (lambda v: Margins(alpha1=v), "alpha1"),
    "Margins.alpha2": (lambda v: Margins(alpha2=v), "alpha2"),
    "DomainShift.rotation_angle_degrees": (lambda v: DomainShift(rotation_angle_degrees=v), "rotation_angle_degrees"),
    "DomainShift.offset_magnitude": (lambda v: DomainShift(offset_magnitude=v), "offset_magnitude"),
    "DomainShift.noise_scale": (lambda v: DomainShift(noise_scale=v), "noise_scale"),
    "SynthConfig.cluster_spread": (lambda v: SynthConfig(cluster_spread=v), "cluster_spread"),
    "TrainConfig.learning_rate": (lambda v: TrainConfig(net=NET, learning_rate=v), "learning_rate"),
    "SplitConfig.train_fraction": (lambda v: SplitConfig(train_fraction=v), "train_fraction"),
    "split_by_identity.train_fraction": (
        lambda v: split_by_identity(generate_synthetic(SMALL), v, 0), "train_fraction"),
}


@pytest.mark.parametrize("value", ["0.4", None, [0.4], 1j, True, np.True_])
@pytest.mark.parametrize("field", REALS)
def test_real_must_be_a_number(field, value):
    build, name = REALS[field]
    with pytest.raises(ConfigError) as info:
        build(value)
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("field", REALS)
def test_numpy_real_passes(field):
    build, _ = REALS[field]
    build(np.float64(0.5))


@pytest.mark.parametrize("value", [0, 1, -0.5, 1.5])
@pytest.mark.parametrize("field", ["SplitConfig.train_fraction", "split_by_identity.train_fraction"])
def test_train_fraction_outside_the_open_interval_refused(field, value):
    build, _ = REALS[field]
    with pytest.raises(ConfigError) as info:
        build(value)
    assert str(info.value) == f"train_fraction must lie in (0, 1), got {value!r}"


@pytest.mark.parametrize("name", ["alpha1", "alpha2"])
def test_negative_margin_refused(name):
    with pytest.raises(ConfigError) as info:
        Margins(**{name: -0.1})
    assert str(info.value) == f"{name} must be >= 0, got -0.1"


@pytest.mark.parametrize("value", [0, -1.0])
def test_non_positive_learning_rate_refused(value):
    with pytest.raises(ConfigError) as info:
        TrainConfig(net=NET, learning_rate=value)
    assert str(info.value) == f"learning_rate must be finite and > 0, got {value!r}"


@pytest.mark.parametrize("value", [8, None, {8}])
def test_hidden_dims_must_be_a_sequence(value):
    with pytest.raises(ConfigError) as info:
        NetConfig(input_dim=2, hidden_dims=value)
    assert str(info.value) == f"hidden_dims must be a sequence of integers, got {value!r}"


@pytest.mark.parametrize("value", ["no", "false", None, 0, 1])
def test_normalize_output_must_be_a_bool(value):
    with pytest.raises(ConfigError) as info:
        NetConfig(input_dim=2, normalize_output=value)
    assert str(info.value) == f"normalize_output must be a bool, got {value!r}"


@pytest.mark.parametrize("value", ["gelu", "RELU", ["relu"], None])
def test_activation_not_in_the_table_refused(value):
    # a list is unhashable, and is refused like any other value the table lacks
    with pytest.raises(ConfigError) as info:
        NetConfig(input_dim=2, activation=value)
    assert str(info.value) == f"unknown activation {value!r}"


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_bool_normalize_output_passes(value):
    assert NetConfig(input_dim=2, normalize_output=value).normalize_output == value


def test_unknown_loss_mode_refused():
    with pytest.raises(ConfigError) as info:
        TrainConfig(net=NET, loss_mode="x")
    assert str(info.value) == "unknown loss_mode 'x'"
