"""The benchmark's tracer wraps module attributes by name; each must exist.

``perfbench/spans.py`` lists them in TIMED and COUNTED.  A refactor that drops
or renames one of them would otherwise surface only as a traced benchmark run
that exits 1.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TIMED + spans.COUNTED]


@pytest.mark.parametrize("module, attr", traced_attributes())
def test_traced_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
