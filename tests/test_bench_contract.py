"""The names the benchmark's tracer patches exist in the library.

`perfbench/spans.py` wraps library functions by (module, attribute) and
reads the sampler's output; a rename there would only show when the
benchmark runs with `--trace 1`. These tests fail on it under pytest.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from heteroembed import cli
from heteroembed.data import SynthConfig, generate_synthetic
from heteroembed.net import NetConfig
from heteroembed.sampler import TupleSpec, build_index, epoch_tuples
from heteroembed.train import TrainConfig

SPANS_PATH = Path(__file__).parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # run from its source text, so no bytecode cache lands under perfbench/
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"), module.__dict__)
    return module


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


def test_layer_counters_read_the_run(spans):
    # The counters read argument positions and result fields: a change to
    # either would leave a per-layer figure silently at 0.
    dataset = generate_synthetic(SynthConfig(n_identities=12, samples_per_identity_per_domain=4, feature_dim=4))
    config = TrainConfig(net=NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4),
                         epochs=2, tuples_per_epoch=30, batch_size=8)
    rec = spans.Recorder()
    rec.install(with_layers=True)
    try:
        rec.tracing = True
        cli.run_compare(dataset, config, 0.5, 2)
    finally:
        rec.tracing = False
        rec.uninstall()
    counts = {key: value for (key, _), value in rec.counters.items()}
    matrices = [result[2] for span, *_, result in rec.calls if span.startswith("cli.evaluate.")]
    assert len(matrices) == 4  # both protocols for both losses
    assert counts["sampler.tuples"] == 2 * 2 * 30  # two losses, two epochs
    assert counts["net.forward_rows"] == counts["net.backward_rows"] > 0
    assert counts["metrics.pairs"] == sum(d.size for d in matrices)
    assert counts["metrics.roc_points"] > 0
