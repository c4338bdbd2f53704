import dataclasses
import importlib

import numpy as np
import pytest

from heteroembed.data import Dataset, DomainShift, SynthConfig, generate_synthetic
from heteroembed.net import NetConfig, forward_batch, init_net
from heteroembed.train import NumericalError, TrainConfig, train


def small_dataset(seed=0):
    return generate_synthetic(
        SynthConfig(
            n_identities=6,
            samples_per_identity_per_domain=5,
            feature_dim=4,
            seed=seed,
        )
    )


def small_config(**overrides):
    defaults = dict(
        net=NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4),
        epochs=2,
        tuples_per_epoch=50,
        batch_size=8,
        seed=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_zero_epochs_keeps_init():
    ds = small_dataset()
    cfg = small_config(epochs=0)
    net, log = train(ds, cfg)
    init = init_net(cfg.net, cfg.seed)
    assert np.array_equal(net.params, init.params)
    assert log.records == []


def test_deterministic():
    ds = small_dataset()
    cfg = small_config()
    net_a, log_a = train(ds, cfg)
    net_b, log_b = train(ds, cfg)
    assert np.array_equal(net_a.params, net_b.params)
    assert log_a.records == log_b.records


@pytest.mark.parametrize("mode", ["hetero", "triplet_baseline"])
def test_loss_decreases_on_hard_data(mode):
    # tight clusters with a big domain gap keeps hinges active at init
    ds = generate_synthetic(
        SynthConfig(
            n_identities=8,
            samples_per_identity_per_domain=6,
            feature_dim=4,
            cluster_spread=0.6,
            domain_shift=DomainShift(rotation_angle_degrees=60, offset_magnitude=2.0, noise_scale=0.2),
            seed=1,
        )
    )
    cfg = small_config(epochs=10, tuples_per_epoch=100, loss_mode=mode, learning_rate=3e-3)
    _, log = train(ds, cfg)
    assert log.records[-1].mean_loss < log.records[0].mean_loss


def test_baseline_has_no_l2():
    ds = small_dataset()
    _, log = train(ds, small_config(loss_mode="triplet_baseline"))
    assert all(r.mean_l2 == 0.0 for r in log.records)


def test_parameters_change():
    ds = small_dataset()
    cfg = small_config(epochs=3, tuples_per_epoch=100)
    net, _ = train(ds, cfg)
    init = init_net(cfg.net, cfg.seed)
    assert not np.array_equal(net.params, init.params)
    # trained net still emits unit-norm embeddings
    feats = np.stack([s.features for s in ds.samples[:10]])
    out = forward_batch(net, feats)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


def test_log_csv(tmp_path):
    ds = small_dataset()
    _, log = train(ds, small_config())
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,mean_l1,mean_l2,active_fraction,lr"
    assert len(lines) == 3


def test_runaway_learning_rate_raises():
    # the first Adam step moves every weight by ~1e300; the next forward
    # overflows and the non-finite loss or gradient must stop the run
    with pytest.raises(NumericalError):
        train(small_dataset(), small_config(learning_rate=1e300))


@pytest.mark.parametrize("stage", ["backward", "adam_step"])
def test_non_finite_gradient_or_parameter_raises(monkeypatch, stage):
    # one step in all, and its loss is finite: only the gradient or the
    # updated-parameter check can stop the value reaching the network
    htrain = importlib.import_module("heteroembed.train")
    real = getattr(htrain, stage)

    def poisoned(*args):
        out = real(*args)
        flat = args[1] if stage == "adam_step" else out  # updated in place, or returned
        flat[0] = np.inf
        return out

    monkeypatch.setattr(htrain, stage, poisoned)
    with pytest.raises(NumericalError, match="epoch 0"):
        train(small_dataset(), small_config(epochs=1, tuples_per_epoch=8))


@pytest.mark.parametrize("decay", [1.0, 0.95, 0.5])
def test_learning_rate_decays_once_per_epoch(decay):
    _, log = train(small_dataset(), small_config(epochs=3, learning_rate=2e-3, lr_decay=decay))
    assert [r.lr for r in log.records] == [2e-3, 2e-3 * decay, 2e-3 * decay * decay]


@pytest.mark.parametrize(
    "field,value",
    [("learning_rate", v) for v in (float("nan"), -1.0, 0.0, float("inf"))]
    + [("lr_decay", v) for v in (float("nan"), -0.5, 0.0, float("inf"))],
)
def test_non_finite_or_non_positive_rate_refused(field, value):
    with pytest.raises(ValueError, match="must be finite and > 0"):
        small_config(**{field: value})


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        small_config(seed=-1)


def test_config_is_frozen():
    # A field assigned after construction would skip the checks in __post_init__.
    config = small_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = -1
    assert config.seed == small_config().seed


def test_duplicate_sample_ids_refused():
    ds = small_dataset()
    samples = list(ds.samples)
    samples[1] = dataclasses.replace(samples[1], id=samples[0].id)
    with pytest.raises(ValueError, match="sample ids must be distinct"):
        train(Dataset(samples=samples, feature_dim=ds.feature_dim), small_config())


def test_sample_order_does_not_matter():
    # ids, not list positions, pick the feature rows
    ds = small_dataset()
    shuffled = Dataset(samples=ds.samples[::-1], feature_dim=ds.feature_dim)
    net_a, log_a = train(ds, small_config())
    net_b, log_b = train(shuffled, small_config())
    assert net_a.params.tobytes() == net_b.params.tobytes()
    assert log_a.records == log_b.records
