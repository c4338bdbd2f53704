"""README's "Library use" section: its example runs, and every name it gives exists."""

import re
from pathlib import Path

import pytest

import heteroembed
import heteroembed.loss
import heteroembed.metrics

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY_USE = README.split("## Library use", 1)[1]


def test_library_example_runs():
    block = LIBRARY_USE.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert len(namespace["log"].records) == 30


@pytest.mark.parametrize("module, opening, end", [
    (heteroembed.loss, "The loss functions in `heteroembed.loss` (", ")"),
    (heteroembed.metrics, "`heteroembed.metrics` exposes", ";"),
], ids=["loss", "metrics"])
def test_listed_names_are_in_their_module(module, opening, end):
    listed = LIBRARY_USE.split(opening, 1)[1].split(end, 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert names
    assert [name for name in names if not hasattr(module, name)] == []


def test_every_exported_name_resolves():
    assert [name for name in heteroembed.__all__ if not hasattr(heteroembed, name)] == []
