"""The benchmark's tracer wraps module attributes by name; each must exist.

``perfbench/spans.py`` lists them in TIMED and COUNTED.  A refactor that drops
or renames one of them would otherwise surface only as a traced benchmark run
that exits 1.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from mixedvol import bodies

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TIMED + spans.COUNTED]


@pytest.mark.parametrize("module, attr", traced_attributes())
def test_traced_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_volume_calls_hull_and_determinant_through_traced_names(monkeypatch):
    # The tracer wraps mixedvol.bodies.convex_hull_3d and .determinant; if
    # bodies.volume stopped calling through those names, --trace 1 would
    # report 0 calls for them without failing.
    calls = {"convex_hull_3d": 0, "determinant": 0}

    def counting(name):
        inner = getattr(bodies, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bodies, name, counting(name))
    cube = bodies.AxisBox.from_lengths([1, 2, 3]).vertices()
    assert bodies.volume(bodies.VPolytope(3, tuple(cube))) == 6
    assert calls == {"convex_hull_3d": 1, "determinant": 0}
    unit = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    assert bodies.volume(bodies.Zonotope(3, tuple(unit))) == 1
    assert calls == {"convex_hull_3d": 1, "determinant": 1}
