"""README's "Library use" section: its example runs, and every name it gives exists."""

import re
from pathlib import Path

import heteroembed
import heteroembed.loss

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY_USE = README.split("## Library use", 1)[1]


def test_library_example_runs():
    block = LIBRARY_USE.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert len(namespace["log"].records) == 30


def test_loss_paragraph_names_are_in_the_loss_module():
    listed = LIBRARY_USE.split("The loss functions in `heteroembed.loss` (", 1)[1].split(")", 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert names
    assert [name for name in names if not hasattr(heteroembed.loss, name)] == []


def test_every_exported_name_resolves():
    assert [name for name in heteroembed.__all__ if not hasattr(heteroembed, name)] == []
