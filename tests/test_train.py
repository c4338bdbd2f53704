import dataclasses
import importlib

import numpy as np
import pytest

from heteroembed.data import Dataset, DomainShift, SynthConfig, generate_synthetic
from heteroembed.loss import Margins, hetero_loss_grad, triplet_loss_grad
from heteroembed.net import EmbeddingNet, NetConfig, forward_batch, init_net, save_checkpoint
from heteroembed.sampler import TupleSpec, build_index, epoch_tuples
from heteroembed.train import NumericalError, TrainConfig, _batch_step, _slots, train


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


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("stage", ["backward", "adam_step"])
def test_non_finite_gradient_or_parameter_raises(monkeypatch, stage, value):
    # One step in all, and its loss is finite: only the updated-parameter check
    # after Adam can stop the value. It stops a poisoned gradient too, since Adam
    # turns a NaN or ±inf gradient entry into a NaN parameter (inf/inf).
    htrain = importlib.import_module("heteroembed.train")
    real = getattr(htrain, stage)

    def poisoned(*args):
        out = real(*args)
        flat = args[1] if stage == "adam_step" else out  # updated in place, or returned
        flat[0] = value
        return out

    monkeypatch.setattr(htrain, stage, poisoned)
    with pytest.raises(NumericalError, match="epoch 0"):
        train(small_dataset(), small_config(epochs=1, tuples_per_epoch=8))


@pytest.mark.parametrize("field,value", [("learning_rate", v) for v in (float("nan"), -1.0, 0.0, float("inf"))])
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
    # the sampler takes each group's rows in sample-id order, not list order
    ds = small_dataset()
    shuffled = Dataset(samples=ds.samples[::-1], feature_dim=ds.feature_dim)
    net_a, log_a = train(ds, small_config())
    net_b, log_b = train(shuffled, small_config())
    assert net_a.params.tobytes() == net_b.params.tobytes()
    assert log_a.records == log_b.records


# --- the training step against the loss it differentiates --------------------

# Largest relative error (max |step - central difference| / max |central
# difference|) allowed for `_batch_step`'s gradient. These cases, and the same
# eight on four more data and network seeds, reach at most 2.3e-9.
STEP_REL_TOL = 1e-6
STEP_H = 1e-6
STEP_MARGINS = Margins(alpha1=1.5, alpha2=2.5)  # most hinges active, and the two terms told apart


def step_inputs(seed):
    """(features, batch) of 12 tuples with k=3 from 4 identities with 3 samples in
    each of 2 domains, except one identity with a single sample in the second domain.

    Up to 108 slots over 22 samples repeat samples across slots, and that identity's
    negative sets are shorter than the others, so the batch's sets are padded.
    """
    data = generate_synthetic(SynthConfig(n_identities=4, samples_per_identity_per_domain=3,
                                          feature_dim=3, seed=seed))
    lone, second = data.identities()[0], data.domains()[1]
    dropped = [s.id for s in data.samples if (s.identity, s.domain) == (lone, second)][1:]
    data = Dataset([s for s in data.samples if s.id not in dropped], data.feature_dim)
    features = np.stack([s.features for s in data.samples])
    batch = epoch_tuples(build_index(data), np.random.default_rng(seed), TupleSpec(k=3), 12)
    return features, batch


def per_tuple_losses(net, features, batch, baseline):
    """(total, l1, l2) of each tuple, from its own forward pass and loss call."""
    def embed(rows):
        return forward_batch(net, features[rows])

    values = []
    for t in batch:
        anchor, pos_same, pos_cross = embed([t.anchor, t.pos_same, t.pos_cross])
        if baseline:
            l1, l2 = triplet_loss_grad(anchor, pos_same, embed(t.negs_same)[0], STEP_MARGINS.alpha1)[0], 0.0
        else:
            # the two sets padded to the wider with zeros, and given counts
            k = max(len(t.negs_same), len(t.negs_cross))
            negatives = np.zeros((2, k, len(anchor)))
            for term, rows in enumerate((t.negs_same, t.negs_cross)):
                negatives[term, : len(rows)] = embed(rows)
            counts = np.array([len(t.negs_same), len(t.negs_cross)])
            l1, l2 = hetero_loss_grad(anchor, np.stack([pos_same, pos_cross]), negatives, STEP_MARGINS, counts)[0]
        values.append((l1 + l2, l1, l2))
    return np.array(values, dtype=np.float64)


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("baseline", [False, True])
def test_batch_step_matches_the_batch_mean_loss(baseline, activation, normalize):
    features, batch = step_inputs(seed=0)
    rows = [[t.anchor, t.pos_same, t.pos_cross, *t.negs_same, *t.negs_cross] for t in batch]
    assert sum(map(len, rows)) > len(set().union(*rows))  # a sample fills more than one slot
    assert len({len(t.negs_same) for t in batch}) > 1 or len({len(t.negs_cross) for t in batch}) > 1
    # Wide enough that no sample's ReLUs all die: an all-zero output row is
    # where the normalization jumps, and a difference across it means nothing.
    config = NetConfig(input_dim=3, hidden_dims=(8, 6), embed_dim=3,
                       activation=activation, normalize_output=normalize)
    net = init_net(config, seed=0)

    grad, sums = _batch_step(net, features, _slots(batch), STEP_MARGINS, baseline)

    values = per_tuple_losses(net, features, batch, baseline)
    active = np.count_nonzero(values[:, 1:] > 0)
    assert 0 < active
    np.testing.assert_allclose(sums[:3], [sum(column) for column in values.T], rtol=1e-12)
    assert sums[3:].tolist() == [active]

    def mean_loss(params):
        return per_tuple_losses(EmbeddingNet(config, params), features, batch, baseline)[:, 0].mean()

    numeric = np.empty_like(net.params)
    for i in range(net.params.size):
        step = np.zeros_like(net.params)
        step[i] = STEP_H
        numeric[i] = (mean_loss(net.params + step) - mean_loss(net.params - step)) / (2 * STEP_H)
    assert np.abs(grad - numeric).max() <= STEP_REL_TOL * np.abs(numeric).max()


@pytest.mark.parametrize("baseline", [False, True])
def test_batch_step_does_not_depend_on_padding_width(baseline):
    # `train` pads every negative set to the widest set of the epoch, not of the block
    features, batch = step_inputs(seed=0)
    net = init_net(NetConfig(input_dim=3, hidden_dims=(8, 6), embed_dim=3), seed=0)
    table = _slots(batch)
    k = (table.shape[1] - 3) // 2
    pad = np.full((len(table), 2), -1)
    wide = np.hstack([table[:, : 3 + k], pad, table[:, 3 + k :], pad])
    narrow_step = _batch_step(net, features, table, STEP_MARGINS, baseline)
    wide_step = _batch_step(net, features, wide, STEP_MARGINS, baseline)
    assert [a.tobytes() for a in narrow_step] == [a.tobytes() for a in wide_step]


@pytest.mark.parametrize("baseline", [False, True])
def test_one_loss_call_and_one_centroid_per_step(monkeypatch, baseline):
    # both hetero terms go through one kernel call, so one centroid call serves both sets
    hloss, htrain = importlib.import_module("heteroembed.loss"), importlib.import_module("heteroembed.train")
    loss = "triplet_loss_grad" if baseline else "hetero_loss_grad"
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    counted(hloss, "mean_embedding")
    counted(htrain, loss)
    features, batch = step_inputs(seed=0)
    net = init_net(NetConfig(input_dim=3, hidden_dims=(8, 6), embed_dim=3), seed=0)
    _batch_step(net, features, _slots(batch), STEP_MARGINS, baseline)
    assert sorted(calls) == sorted(["mean_embedding", loss])


def test_slots_are_as_wide_as_the_widest_set_drawn():
    # groups of 3 and one of 2 samples: every set is narrower than the spec's k
    data = generate_synthetic(SynthConfig(n_identities=4, samples_per_identity_per_domain=3, feature_dim=3))
    data = Dataset(data.samples[1:], data.feature_dim)
    tuples = epoch_tuples(build_index(data), np.random.default_rng(0), TupleSpec(k=5), 40)
    widest = max(len(negs) for t in tuples for negs in (t.negs_same, t.negs_cross))
    assert widest == 3 and any(len(t.negs_same) < 3 or len(t.negs_cross) < 3 for t in tuples)
    table = _slots(tuples)
    assert table.shape == (40, 3 + 2 * widest)
    for t, row in zip(tuples, table.tolist()):
        pad = lambda negs: negs + [-1] * (widest - len(negs))
        assert row == [t.anchor, t.pos_same, t.pos_cross, *pad(t.negs_same), *pad(t.negs_cross)]


@pytest.mark.parametrize("mode", ["hetero", "triplet_baseline"])
def test_active_fraction_is_the_epochs_active_hinges_over_its_hinges(monkeypatch, mode):
    # 50 tuples in blocks of 8: the last block holds 2, and each tuple has one hinge per term
    recorded_sums = []

    def recorded(*args):
        grad, sums = _batch_step(*args)
        recorded_sums.append(sums)
        return grad, sums

    monkeypatch.setattr(importlib.import_module("heteroembed.train"), "_batch_step", recorded)
    cfg = small_config(epochs=1, loss_mode=mode)
    _, log = train(small_dataset(), cfg)
    assert cfg.tuples_per_epoch % cfg.batch_size != 0 and len(recorded_sums) == 7
    terms = 1 if mode == "triplet_baseline" else 2
    active = sum(sums[3] for sums in recorded_sums)
    assert 0 < active < cfg.tuples_per_epoch * terms
    assert log.records[0].active_fraction == active / (cfg.tuples_per_epoch * terms)


def test_k_above_every_group_costs_nothing(tmp_path, monkeypatch):
    # 5 samples per group: k=50 draws what k=5 draws, into a table as narrow
    widths = []

    def recorded(net, features, slots, *args):
        widths.append(slots.shape[1])
        return _batch_step(net, features, slots, *args)

    monkeypatch.setattr(importlib.import_module("heteroembed.train"), "_batch_step", recorded)
    outputs = []
    for k in (5, 50):
        net, log = train(small_dataset(), small_config(tuple_spec=TupleSpec(k=k)))
        save_checkpoint(net, tmp_path / "net.ckpt")
        log.write_csv(tmp_path / "log.csv")
        outputs.append([(tmp_path / name).read_bytes() for name in ("net.ckpt", "log.csv")])
    assert set(widths) == {13}
    assert outputs[0] == outputs[1]
