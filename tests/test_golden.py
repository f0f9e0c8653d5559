"""Byte-exact outputs of every subcommand, recorded in ``tests/golden/``.

Each case feeds one input document on standard input to one subcommand, in
text and in json format, and compares stdout, stderr and the exit code with
``tests/golden/<case>.json``.  After an intended change of output, record
the fixtures again with::

    PYTHONPATH=src python tests/test_golden.py [case ...]

which records the named cases, or every case when none is named.  A verify
case reads the json stream of its search case, so record the search first.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mixedvol.cli import run

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json")


def box(*sides):
    return {"type": "box", "intervals": [["0", s] for s in sides]}


def zonotope(*generators):
    return {"type": "zonotope", "generators": [list(g) for g in generators]}


def vpolytope(*vertices):
    return {"type": "vpolytope", "vertices": [list(v) for v in vertices]}


FLAT_TRIPLE = {"dimension": 3, "bodies": [box("1", "1", "0"), box("1", "0", "5"), box("0", "1/3", "1")]}
BOXES_4 = {
    "dimension": 4,
    "bodies": [
        box("1", "2", "0", "1/2"),
        box("0", "1", "3", "1"),
        box("2", "0", "1", "1"),
        box("1", "1", "1", "0"),
    ],
}
ZONOTOPES = {
    "dimension": 3,
    "bodies": [
        zonotope(("1", "0", "0"), ("1", "1", "0")),
        zonotope(("0", "1", "1"), ("0", "0", "2"), ("1/2", "0", "1")),
        zonotope(("1", "0", "1"), ("0", "1", "0")),
    ],
}
VPOLYTOPES = {
    "dimension": 3,
    "bodies": [
        vpolytope(("0", "0", "0"), ("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
        vpolytope(("0", "0", "0"), ("2", "0", "0"), ("0", "1", "1"), ("1", "1", "0")),
        vpolytope(("0", "0", "0"), ("1", "1", "1"), ("0", "0", "1"), ("1/2", "0", "0")),
    ],
}
PSD_MATRICES = {
    "matrices": [
        [["2", "1", "0"], ["1", "2", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "3", "1"], ["0", "1", "1"]],
        [["1", "1/2", "1/2"], ["1/2", "1", "0"], ["1/2", "0", "1"]],
    ]
}
INDEFINITE = {"matrices": [[["1", "2"], ["2", "1"]], [["1", "0"], ["0", "1"]]]}
NON_CONCAVE_EDGE = [
    {"index": [0, 2], "value": "4"},
    {"index": [1, 1], "value": "1"},
    {"index": [2, 0], "value": "4"},
]
UNIT_CUBE_AND_FLAT_BOX = {"dimension": 3, "bodies": [box("1", "1", "1"), box("2", "0", "1/3")]}
ZONOTOPE_PAIR = {"dimension": 3, "bodies": ZONOTOPES["bodies"][:2]}
NOT_A_TUPLE = {"rows": [[1]]}

SEARCH_TRIPLE = ["--grid", "0,1/3,1,5", "--mode", "random", "--seed", "0", "--max-evaluations", "300"]
SEARCH_ENVELOPE = [
    "--grid", "0,1/3,1,5", "--mode", "random", "--seed", "6",
    "--max-evaluations", "60", "--target", "full-envelope",
]
HILL_TRIPLE = ["--grid", "0,1/3,1,5", "--mode", "hill-climb", "--seed", "1", "--max-evaluations", "400"]
HILL_ENVELOPE = [
    "--grid", "0,1/3,1,5", "--mode", "hill-climb", "--seed", "1",
    "--max-evaluations", "150", "--target", "full-envelope",
]
GRID_ENVELOPE = ["--grid", "0,1,2", "--max-evaluations", "500", "--target", "full-envelope"]

# case name -> (argv without --format, input document or None for no stdin)
CASES = {
    "perm-integer": (["perm"], [["1", "2"], ["3", "4"]]),
    "perm-fraction": (["perm"], [["1", "1", "0"], ["1", "0", "5"], ["0", "1/3", "1"]]),
    "mixvol-triple": (["mixvol"], FLAT_TRIPLE),
    "mixvol-boxes4": (["mixvol"], BOXES_4),
    "mixvol-zonotopes": (["mixvol"], ZONOTOPES),
    "mixvol-vpolytopes": (["mixvol"], VPOLYTOPES),
    "mixdisc-psd": (["mixdisc"], PSD_MATRICES),
    "mixdisc-indefinite": (["mixdisc"], INDEFINITE),
    "volpoly-triple": (["volpoly"], FLAT_TRIPLE),
    "volpoly-boxes4": (["volpoly"], BOXES_4),
    "volpoly-zonotopes": (["volpoly"], ZONOTOPES),
    "volpoly-vpolytopes": (["volpoly"], VPOLYTOPES),
    "volpoly-psd": (["volpoly"], PSD_MATRICES),
    "volpoly-indefinite": (["volpoly"], INDEFINITE),
    "volpoly-not-a-tuple": (["volpoly"], NOT_A_TUPLE),
    "af-check-triple": (["af-check"], FLAT_TRIPLE),
    "af-check-boxes4": (["af-check"], BOXES_4),
    "af-check-zonotopes": (["af-check"], ZONOTOPES),
    "af-check-psd": (["af-check"], PSD_MATRICES),
    "af-check-indefinite": (["af-check"], INDEFINITE),
    "af-check-not-a-tuple": (["af-check"], NOT_A_TUPLE),
    "segment-triple": (["segment-concavity"], FLAT_TRIPLE),
    "segment-boxes4": (["segment-concavity"], BOXES_4),
    "segment-zonotopes": (["segment-concavity"], ZONOTOPES),
    "segment-psd": (["segment-concavity"], PSD_MATRICES),
    "segment-indefinite": (["segment-concavity"], INDEFINITE),
    "segment-edge": (["segment-concavity"], NON_CONCAVE_EDGE),
    "gromov-triple": (["gromov-check"], FLAT_TRIPLE),
    "gromov-zonotopes": (["gromov-check"], ZONOTOPES),
    "gromov-vpolytopes": (["gromov-check"], VPOLYTOPES),
    "gromov-psd": (["gromov-check"], PSD_MATRICES),
    "gromov-indefinite": (["gromov-check"], INDEFINITE),
    "gromov-edge": (["gromov-check"], NON_CONCAVE_EDGE),
    "gromov-not-a-tuple": (["gromov-check"], NOT_A_TUPLE),
    "triple-check-triple": (["triple-check"], FLAT_TRIPLE),
    "triple-check-zonotopes": (["triple-check"], ZONOTOPES),
    "triple-check-vpolytopes": (["triple-check"], VPOLYTOPES),
    "bm-check-boxes": (["bm-check"], UNIT_CUBE_AND_FLAT_BOX),
    "bm-check-zonotopes": (["bm-check"], ZONOTOPE_PAIR),
    "vdw-check-uniform": (["vdw-check"], [["1/3"] * 3] * 3),
    "vdw-check-mixed": (["vdw-check"], [["1/2", "1/2", "0"], ["1/4", "1/4", "1/2"], ["1/4", "1/4", "1/2"]]),
    "search-triple": (["search", *SEARCH_TRIPLE], None),
    "search-envelope": (["search", *SEARCH_ENVELOPE], None),
    "search-hill-triple": (["search", *HILL_TRIPLE], None),
    "search-hill-envelope": (["search", *HILL_ENVELOPE], None),
    "search-grid-envelope": (["search", *GRID_ENVELOPE], None),
}

# verify reads the json stream that the named search case recorded.
VERIFY_CASES = {
    "verify-triple": "search-triple",
    "verify-envelope": "search-envelope",
    "verify-hill-triple": "search-hill-triple",
    "verify-hill-envelope": "search-hill-envelope",
    "verify-grid-envelope": "search-grid-envelope",
}


def run_case(argv, stdin_text, fmt):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run([*argv, "--format", fmt])
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load(case):
    return json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))


def case_inputs(case):
    if case in VERIFY_CASES:
        return ["verify"], load(VERIFY_CASES[case])["json"]["stdout"]
    argv, doc = CASES[case]
    return argv, "" if doc is None else json.dumps(doc)


@pytest.mark.parametrize("case", [*CASES, *VERIFY_CASES])
def test_golden_output(case):
    argv, stdin_text = case_inputs(case)
    expected = load(case)
    for fmt in FORMATS:
        assert run_case(argv, stdin_text, fmt) == expected[fmt], fmt


def record(cases):
    GOLDEN.mkdir(exist_ok=True)
    for case in cases or [*CASES, *VERIFY_CASES]:
        argv, stdin_text = case_inputs(case)
        doc = {fmt: run_case(argv, stdin_text, fmt) for fmt in FORMATS}
        text = json.dumps(doc, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
        print(case, doc["text"]["exit"], doc["json"]["exit"])


if __name__ == "__main__":
    record(sys.argv[1:])
