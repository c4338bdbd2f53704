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

from heteroembed.data import SynthConfig, generate_synthetic
from heteroembed.sampler import TupleSpec, build_index, epoch_tuples

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
