"""The names the benchmark's tracer patches exist in the library, and its oracle runs.

`perfbench/spans.py` wraps library functions by (module, attribute) and
reads the sampler's output; a rename there would only show when the
benchmark runs with `--trace 1`. `perfbench/checks.py` calls the metrics
and reads the evaluation results; a change there would only show in a
benchmark run. These tests fail on either under pytest.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from heteroembed import cli
from heteroembed.data import SynthConfig, generate_synthetic, split_by_identity
from heteroembed.net import NetConfig, init_net
from heteroembed.sampler import TupleSpec, build_index, epoch_tuples
from heteroembed.train import TrainConfig

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _from_source(name):
    # run from its source text, so no bytecode cache lands under perfbench/
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def spans():
    return _from_source("spans")


@pytest.fixture(scope="module")
def checks():
    return _from_source("checks")


def test_every_patched_name_is_a_library_callable(spans):
    names = [(m, a) for m, a, *_ in spans.LAYER_PATCHES + spans.PROBE_PATCHES]
    assert len(names) > 20
    for module_name, attr in names:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_tuple_keys_reads_the_sampler_output(spans):
    index = build_index(generate_synthetic(SynthConfig(n_identities=4, samples_per_identity_per_domain=3)))
    tuples = epoch_tuples(index, np.random.default_rng(0), TupleSpec(k=2), 25)
    keys = spans.tuple_keys(tuples)
    assert len(keys) == 25
    for a, b, p, q in keys:
        assert a != b and p != q
        assert {a, b} <= set(index.identities) and {p, q} <= set(index.domains)


def test_layer_counters_read_the_run(spans, tmp_path):
    # The counters read argument positions and result fields: a change to
    # either would leave a per-layer figure silently at 0. Every patched name
    # must be called too, each reached through its module as the library's
    # callers reach it: the benchmark's traced runs refuse a name never called.
    data, net, train = (importlib.import_module(f"heteroembed.{m}") for m in ("data", "net", "train"))
    config = TrainConfig(net=NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4),
                         epochs=2, tuples_per_epoch=30, batch_size=8)
    rec = spans.Recorder()
    rec.install(with_layers=True)
    try:
        rec.tracing = True
        synthetic = data.generate_synthetic(SynthConfig(n_identities=12, samples_per_identity_per_domain=4,
                                                        feature_dim=4))
        data.save_manifest(synthetic, tmp_path / "data.hem")
        dataset = data.load_manifest(tmp_path / "data.hem")
        trained, _ = train.train(data.split_by_identity(dataset, 0.5, 0)[0], config)
        net.save_checkpoint(trained, tmp_path / "net.ckpt")
        net.load_checkpoint(tmp_path / "net.ckpt")
        cli.run_compare(dataset, config, 0.5, 2)
    finally:
        rec.tracing = False
        rec.uninstall()
    assert [label for label, calls in rec.traced_calls.items() if calls == 0] == []
    counts = {key: value for (key, _), value in rec.counters.items()}
    matrices = [result[2] for span, *_, result in rec.calls if span.startswith("cli.evaluate.")]
    assert len(matrices) == 4  # both protocols for both losses
    assert counts["sampler.tuples"] == 3 * 2 * 30  # one training, then two losses, each two epochs
    assert counts["net.forward_rows"] == counts["net.backward_rows"] > 0
    assert counts["metrics.pairs"] == sum(d.size for d in matrices)
    assert counts["metrics.roc_points"] > 0


def test_eval_bruteforce_accepts_both_protocols(checks):
    # The benchmark's oracle builds a ScoreSet and calls roc, eer, gar_at_far
    # and identify on each evaluate call's result.
    dataset = generate_synthetic(SynthConfig(n_identities=12, samples_per_identity_per_domain=4, feature_dim=4))
    _, test_set = split_by_identity(dataset, 0.5, 0)
    net = init_net(NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4), 0)
    for kind, evaluate, args in [("enroll", cli.evaluate_enroll_probe, (net, test_set, 2, 0)),
                                 ("cross", cli.evaluate_cross_domain, (net, test_set, "A", "B"))]:
        name, ok, detail = checks.eval_bruteforce(kind, args, evaluate(*args), np.random.default_rng(0))
        assert ok and "genuine pairs" in detail, (name, detail)
