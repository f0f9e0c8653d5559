"""The benchmark's tracer wraps module attributes by name; each must exist.

``perfbench/spans.py`` lists them in TIMED and COUNTED.  A refactor that drops
or renames one of them would otherwise surface only as a traced benchmark run
that exits 1.  The work counted through some of them is pinned too, and so
is the import of the CLI, which leaves the process pool out.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mixedvol
from mixedvol import bodies, inequalities, mixed
from mixedvol.search import Finding, SearchConfig, SearchSpace, search, verify_finding
from test_cli import FLAT_FINDING_DOC

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


def test_envelope_search_scans_through_traced_name(monkeypatch):
    # The tracer wraps mixedvol.inequalities._envelope_scan; if the
    # full-envelope target stopped calling it through that module global,
    # once per candidate, inequalities.envelope.* would read 0 on
    # envelope-hunt without failing.
    calls = 0
    inner = inequalities._envelope_scan

    def counting(vp):
        nonlocal calls
        calls += 1
        return inner(vp)

    monkeypatch.setattr(inequalities, "_envelope_scan", counting)
    space = SearchSpace(tuple(Fraction(x) for x in ("0", "1/3", "1", "2", "5")))
    config = SearchConfig(mode="random", seed=3, max_evaluations=40, target="full-envelope")
    assert search(space, config).evaluations == 40
    assert calls == 40


def test_cli_import_leaves_process_machinery_unloaded():
    # Only a pooled scan imports the process pool, which costs every process
    # that imports it memory and start-up time.
    code = (
        "import sys, mixedvol.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mixedvol.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Seven unit cubes and a two-point comparison that holds with equality.
ONES_LINE = {
    "candidate": 0,
    "side_matrix": [[1] * 7] * 7,
    "violation_ratio": "1",
    "certificate": {
        "center": [1] * 7,
        "support": [
            {"index": [2, 0, 1, 1, 1, 1, 1], "weight": "1/2"},
            {"index": [0, 2, 1, 1, 1, 1, 1], "weight": "1/2"},
        ],
        "lhs": "1",
        "rhs": "1",
        "comparison": "V(1, 1, 1, 1, 1, 1, 1)^2 vs V(2, 0, 1, 1, 1, 1, 1)^1 * V(0, 2, 1, 1, 1, 1, 1)^1",
    },
}


def envelope_candidate_99():
    space = SearchSpace(tuple(Fraction(x) for x in ("0", "1/3", "1", "2", "5")))
    config = SearchConfig(mode="random", seed=0, max_evaluations=150, target="full-envelope")
    return next(f for f in search(space, config) if f.index == 99)


@pytest.mark.parametrize(
    "finding, verdict, evaluations",
    [
        (lambda: Finding.from_json(FLAT_FINDING_DOC), True, 13),
        (envelope_candidate_99, True, 13),
        (lambda: Finding.from_json(ONES_LINE), False, 191),
    ],
    ids=["flat-triple", "envelope-99", "ones-7x7"],
)
def test_verify_evaluates_only_the_named_coefficients(monkeypatch, finding, verdict, evaluations):
    # The tracer wraps mixedvol.mixed.volume; verify reads the volumes of the
    # weighted sums that polarization of the certificate's own indices needs,
    # not those of the whole volume polynomial (19 for k = n = 3, 3,431 for
    # k = n = 7).
    f = finding()
    calls = 0
    inner = mixed.volume

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(mixed, "volume", counting)
    assert verify_finding(f) is verdict
    assert calls == evaluations
