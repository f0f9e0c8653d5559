"""End-to-end command tests driving ``run(argv)`` directly.

Exit code contract: 0 success or holding verdict, 1 input problem, 2 internal
fault, 3 failing verdict or nonempty findings stream.
"""

import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import mixedvol
from mixedvol.bodies import AxisBox
from mixedvol.cli import EXIT_FAILS, EXIT_INPUT, EXIT_OK, _build_parser, run
from mixedvol.inequalities import gromov_concavity
from mixedvol.mixed import BodyTuple, volume_polynomial
from test_golden import CASES, FORMATS, VERIFY_CASES, load, run_case

FLAT_TRIPLE_DOC = {
    "dimension": 3,
    "bodies": [
        {"type": "box", "intervals": [["0", "1"], ["0", "1"], ["0", "0"]]},
        {"type": "box", "intervals": [["0", "1"], ["0", "0"], ["0", "5"]]},
        {"type": "box", "intervals": [["0", "0"], ["0", "1/3"], ["0", "1"]]},
    ],
}

UNIT_CUBE = {"type": "box", "intervals": [["0", "1"], ["0", "1"], ["0", "1"]]}

# Edge coefficients of a polynomial no body tuple produces: the middle value
# dips below both neighbours, so log concavity along the edge must fail.
NON_CONCAVE_EDGE = [
    {"index": [0, 2], "value": "4"},
    {"index": [1, 1], "value": "1"},
    {"index": [2, 0], "value": "4"},
]


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_perm_integer_prints_plain(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", [["1", "0"], ["0", "1"]])
    assert run(["perm", path]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"


def test_perm_fraction_gets_approximation(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", [["1", "1", "0"], ["1", "0", "5"], ["0", "1/3", "1"]])
    assert run(["perm", path]) == EXIT_OK
    assert capsys.readouterr().out == "8/3 (≈ 2.66666666667)\n"


def test_perm_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('[["1","2"],["3","4"]]'))
    assert run(["perm"]) == EXIT_OK
    assert capsys.readouterr().out == "10\n"


def test_mixvol_counterexample_value(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["mixvol", path]) == EXIT_OK
    assert capsys.readouterr().out == "4/9 (≈ 0.444444444444)\n"


def test_mixvol_json_format(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["mixvol", "--format", "json", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"value": "4/9", "approx": "0.444444444444"}


def test_mixdisc_diagonal_pair(tmp_path, capsys):
    doc = {"matrices": [[["1", "0"], ["0", "2"]], [["3", "0"], ["0", "4"]]]}
    path = write_doc(tmp_path, "d.json", doc)
    assert run(["mixdisc", path]) == EXIT_OK
    assert capsys.readouterr().out == "5\n"


def test_volpoly_text_is_lex_sorted(tmp_path, capsys):
    doc = {
        "bodies": [
            {"type": "box", "intervals": [["0", "1"], ["0", "0"]]},
            {"type": "box", "intervals": [["0", "0"], ["0", "1"]]},
        ]
    }
    path = write_doc(tmp_path, "p.json", doc)
    assert run(["volpoly", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["(0, 2): 0", "(1, 1): 1/2 (≈ 0.5)", "(2, 0): 0"]


def test_volpoly_json_round_trips(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["volpoly", "--format", "json", path]) == EXIT_OK
    entries = json.loads(capsys.readouterr().out)
    values = {tuple(e["index"]): Fraction(e["value"]) for e in entries}
    assert values[(1, 1, 1)] == Fraction(4, 9)
    assert values[(2, 1, 0)] == Fraction(5, 3)
    assert [e["index"] for e in entries] == sorted(e["index"] for e in entries)


def test_af_check_holds_on_counterexample_bodies(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["af-check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("verdict: holds")


def test_af_check_discriminants_need_positive_definite(tmp_path, capsys):
    doc = {"matrices": [[["1", "0"], ["0", "-1"]], [["1", "0"], ["0", "1"]]]}
    path = write_doc(tmp_path, "d.json", doc)
    assert run(["af-check", path]) == EXIT_INPUT
    assert "positive definite" in capsys.readouterr().err


def test_segment_concavity_fails_on_synthetic_edge(tmp_path, capsys):
    path = write_doc(tmp_path, "e.json", NON_CONCAVE_EDGE)
    assert run(["segment-concavity", path]) == EXIT_FAILS
    out = capsys.readouterr().out
    assert out.startswith("verdict: fails")
    assert "violation at (1, 1)" in out


def test_segment_concavity_holds_on_bodies(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["segment-concavity", path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("verdict: holds")


def test_gromov_check_rejects_counterexample(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["gromov-check", path]) == EXIT_FAILS
    out = capsys.readouterr().out
    assert "verdict: fails" in out
    assert "64/729" in out
    assert "25/243" in out


def test_triple_check_reports_certificate(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["triple-check", path]) == EXIT_FAILS
    out = capsys.readouterr().out
    assert "violation at (1, 1, 1)" in out
    assert "lhs: 64/729" in out
    assert "rhs: 25/243" in out
    assert "(2, 1, 0) weight 1/3" in out


def test_triple_check_json_certificate(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", FLAT_TRIPLE_DOC)
    assert run(["triple-check", "--format", "json", path]) == EXIT_FAILS
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fails"
    cert = doc["certificates"][0]
    assert cert["center"] == [1, 1, 1]
    assert Fraction(cert["lhs"]) == Fraction(64, 729)
    assert Fraction(cert["rhs"]) == Fraction(25, 243)


def test_triple_check_needs_three_bodies(tmp_path, capsys):
    doc = {"bodies": [UNIT_CUBE, UNIT_CUBE]}
    path = write_doc(tmp_path, "t.json", doc)
    assert run(["triple-check", path]) == EXIT_INPUT
    assert "exactly 3 bodies" in capsys.readouterr().err


def test_bm_check_equal_cubes(tmp_path, capsys):
    doc = {"dimension": 3, "bodies": [UNIT_CUBE, UNIT_CUBE]}
    path = write_doc(tmp_path, "b.json", doc)
    assert run(["bm-check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("verdict: holds")
    assert "non-authoritative" in out


def test_vdw_check_uniform_matrix(tmp_path, capsys):
    third = str(Fraction(1, 3))
    path = write_doc(tmp_path, "m.json", [[third] * 3] * 3)
    assert run(["vdw-check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "margin: 0" in out
    assert "holds: true" in out


def test_vdw_check_json(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", [["1", "0"], ["0", "1"]])
    assert run(["vdw-check", "--format", "json", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"margin": "1/2", "holds": True}


def test_vdw_check_rejects_non_stochastic(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", [["1", "1"], ["0", "1"]])
    assert run(["vdw-check", path]) == EXIT_INPUT
    assert "row 0" in capsys.readouterr().err


def test_unknown_command_is_input_error(capsys):
    assert run(["frobnicate"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_missing_input_file(capsys):
    assert run(["perm", "/nonexistent/matrix.json"]) == EXIT_INPUT
    assert "not found" in capsys.readouterr().err


def test_invalid_json_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all", encoding="utf-8")
    assert run(["perm", str(path)]) == EXIT_INPUT
    assert "not valid JSON" in capsys.readouterr().err


def test_wrong_document_shape(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", {"rows": [[1]]})
    assert run(["perm", path]) == EXIT_INPUT
    assert "matrix document" in capsys.readouterr().err


def test_declared_dimension_mismatch(tmp_path, capsys):
    doc = {"dimension": 3, "bodies": [{"type": "box", "intervals": [["0", "1"], ["0", "1"]]}]}
    path = write_doc(tmp_path, "t.json", doc)
    assert run(["mixvol", path]) == EXIT_INPUT
    assert "declares 3" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "command" in capsys.readouterr().out


def test_parser_built_once_serves_every_run(monkeypatch, capsys):
    # One parser serves all run() calls of a process; after a usage error and
    # --help it must still answer each request as a fresh process does.
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
    assert _build_parser() is _build_parser()
    for args, stdin_text in [
        (["perm", "--format", "xml"], ""),
        (["--help"], ""),
        (["perm"], '[["1","2"],["3","4"]]'),
    ]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = run(args)
        out, err = capsys.readouterr()
        fresh = command(args, stdin_text)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), args


def test_search_finds_and_streams_jsonl(tmp_path, capsys):
    out_path = tmp_path / "findings.jsonl"
    argv = [
        "search",
        "--grid", "0,1/3,1,5",
        "--mode", "random",
        "--seed", "42",
        "--max-evaluations", "800",
        "--format", "json",
        "--output", str(out_path),
    ]
    assert run(argv) == EXIT_FAILS
    lines = out_path.read_text(encoding="utf-8").splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"] is True
    assert summary["evaluations"] == 800
    assert summary["findings"] == len(lines) - 1 > 0
    for line in lines[:-1]:
        doc = json.loads(line)
        assert Fraction(doc["violation_ratio"]) > 1


def test_search_output_is_deterministic_across_jobs(tmp_path):
    paths = []
    for jobs, name in ((1, "a.jsonl"), (4, "b.jsonl")):
        out_path = tmp_path / name
        argv = [
            "search",
            "--grid", "0,1/3,1,5",
            "--mode", "random",
            "--seed", "42",
            "--max-evaluations", "800",
            "--jobs", str(jobs),
            "--format", "json",
            "--output", str(out_path),
        ]
        assert run(argv) == EXIT_FAILS
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_search_text_summary_and_clean_exit(capsys):
    argv = ["search", "--grid", "1", "--max-evaluations", "10"]
    assert run(argv) == EXIT_OK
    assert "evaluated 1 candidates, 0 findings" in capsys.readouterr().out


def test_hill_climb_warns_that_it_ignores_jobs(capsys):
    argv = ["search", "--grid", "0,1/3,1,5", "--mode", "hill-climb", "--seed", "3",
            "--max-evaluations", "60", "--format", "json"]
    code = run(argv)
    alone = capsys.readouterr()
    assert alone.err == ""
    assert run([*argv, "--jobs", "4"]) == code
    parallel = capsys.readouterr()
    assert parallel.out == alone.out
    assert parallel.err.splitlines() == ["warning: hill-climb ignores --jobs; the walk runs in one process"]


def test_search_rejects_bad_grid(capsys):
    assert run(["search", "--grid", "0,sideways"]) == EXIT_INPUT
    assert "bad grid value" in capsys.readouterr().err


def test_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "findings.jsonl"
    argv = [
        "search",
        "--grid", "0,1/3,1,5",
        "--mode", "random",
        "--seed", "42",
        "--max-evaluations", "800",
        "--format", "json",
        "--output", str(out_path),
    ]
    assert run(argv) == EXIT_FAILS
    assert run(["verify", str(out_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.strip().endswith("all ok")


def test_verify_flags_tampered_stream(tmp_path, capsys):
    out_path = tmp_path / "findings.jsonl"
    argv = [
        "search",
        "--grid", "0,1/3,1,5",
        "--mode", "random",
        "--seed", "42",
        "--max-evaluations", "800",
        "--format", "json",
        "--output", str(out_path),
    ]
    assert run(argv) == EXIT_FAILS
    lines = out_path.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[0])
    doc["violation_ratio"] = "7"
    lines[0] = json.dumps(doc, separators=(",", ":"))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["verify", str(out_path)]) == EXIT_FAILS
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert out.strip().endswith("mismatches found")


def test_verify_checks_summary_count(tmp_path, capsys):
    out_path = tmp_path / "findings.jsonl"
    argv = [
        "search",
        "--grid", "0,1/3,1,5",
        "--mode", "random",
        "--seed", "42",
        "--max-evaluations", "800",
        "--format", "json",
        "--output", str(out_path),
    ]
    assert run(argv) == EXIT_FAILS
    lines = out_path.read_text(encoding="utf-8").splitlines()
    del lines[0]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["verify", str(out_path)]) == EXIT_FAILS
    assert "summary claims" in capsys.readouterr().out


# -- hostile input ----------------------------------------------------------------

# Weights -1, -1, 3 satisfy both convex-combination identities of a
# certificate, -(0,1,2) - (2,1,0) + 3 (1,1,1) = (1,1,1), yet these boxes pass
# the envelope test, so a stream built on them must never verify.
FORGED_SIDES = [["1", "2", "3"], ["3", "1", "2"], ["2", "3", "1"]]


def _forged_finding_doc() -> dict:
    vp = volume_polynomial(BodyTuple(tuple(AxisBox.from_lengths(r) for r in FORGED_SIDES)))
    assert gromov_concavity(vp).holds
    lhs = vp[(1, 1, 1)]
    rhs = vp[(1, 1, 1)] ** 3 / (vp[(0, 1, 2)] * vp[(2, 1, 0)])
    assert lhs < rhs
    return {
        "candidate": 0,
        "side_matrix": FORGED_SIDES,
        "violation_ratio": str(rhs / lhs),
        "certificate": {
            "center": [1, 1, 1],
            "support": [
                {"index": [0, 1, 2], "weight": "-1"},
                {"index": [2, 1, 0], "weight": "-1"},
                {"index": [1, 1, 1], "weight": "3"},
            ],
            "lhs": str(lhs),
            "rhs": str(rhs),
            "comparison": "V(1, 1, 1)^1 vs V(0, 1, 2)^-1 * V(2, 1, 0)^-1 * V(1, 1, 1)^3",
        },
    }


def test_verify_rejects_forged_negative_weights(tmp_path, capsys):
    path = tmp_path / "forged.jsonl"
    path.write_text(json.dumps(_forged_finding_doc()) + "\n", encoding="utf-8")
    assert run(["verify", str(path)]) == EXIT_INPUT
    assert "weight" in capsys.readouterr().err


# A finding whose comparison text is not the one search writes for its
# (center, support) must not verify, even when every number in it is right.
# Each forgery is the honest text in the other writer's format.
@pytest.mark.parametrize(
    "argv, candidate, forged",
    [
        (
            ["--grid", "0,1/3,1,5", "--max-evaluations", "26745"],
            26744,
            "V(1, 1, 1)^3 vs V(2, 1, 0)^1 * V(0, 2, 1)^1 * V(1, 0, 2)^1",
        ),
        (
            ["--grid", "0,1/3,1,2,5", "--mode", "random", "--target", "full-envelope", "--max-evaluations", "150"],
            99,
            "V(1,1,1)^3 vs V(0,1,2)^1 * V(1,2,0)^1 * V(2,0,1)^1",
        ),
    ],
    ids=["triple", "envelope"],
)
def test_verify_rejects_forged_comparison_text(tmp_path, capsys, argv, candidate, forged):
    stream = tmp_path / "findings.jsonl"
    assert run(["search", *argv, "--format", "json", "--output", str(stream)]) == EXIT_FAILS
    docs = [json.loads(line) for line in stream.read_text(encoding="utf-8").splitlines()]
    doc = next(d for d in docs if d.get("candidate") == candidate)
    one = tmp_path / "one.jsonl"
    one.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    assert run(["verify", str(one)]) == EXIT_OK
    assert doc["certificate"]["comparison"] != forged
    doc["certificate"]["comparison"] = forged
    one.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["verify", str(one)]) == EXIT_FAILS
    assert f"candidate {candidate}: MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("command_name", ["perm", "gromov-check", "verify"])
def test_deeply_nested_json_is_input_error(monkeypatch, capsys, command_name):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 2000 + "]" * 2000))
    assert run([command_name]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_zero_denominator_matrix_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('[["1/0","1"],["1","1"]]'))
    assert run(["perm"]) == EXIT_INPUT
    assert "internal error" not in capsys.readouterr().err


def test_zero_denominator_body_is_input_error(tmp_path, capsys):
    doc = {"dimension": 3, "bodies": [{"type": "box", "intervals": [["0", "1/0"], ["0", "1"], ["0", "1"]]}] * 3}
    assert run(["mixvol", write_doc(tmp_path, "bodies.json", doc)]) == EXIT_INPUT
    assert "internal error" not in capsys.readouterr().err


# The flat-box triple's finding, as the search streams it.
FLAT_FINDING_DOC = {
    "candidate": 0,
    "side_matrix": [["1", "1", "0"], ["1", "0", "5"], ["0", "1/3", "1"]],
    "violation_ratio": "75/64",
    "certificate": {
        "center": [1, 1, 1],
        "support": [
            {"index": [2, 1, 0], "weight": "1/3"},
            {"index": [0, 2, 1], "weight": "1/3"},
            {"index": [1, 0, 2], "weight": "1/3"},
        ],
        "lhs": "64/729",
        "rhs": "25/243",
        "comparison": "V(1,1,1)^3 vs V(2,1,0)^1 * V(0,2,1)^1 * V(1,0,2)^1",
    },
}


@pytest.mark.parametrize(
    "field",
    [("certificate", "support", 0, "weight"), ("certificate", "lhs"), ("violation_ratio",)],
    ids=["weight", "lhs", "ratio"],
)
def test_zero_denominator_findings_stream_is_input_error(tmp_path, capsys, field):
    path = tmp_path / "findings.jsonl"
    path.write_text(json.dumps(FLAT_FINDING_DOC) + "\n", encoding="utf-8")
    assert run(["verify", str(path)]) == EXIT_OK
    doc = json.loads(json.dumps(FLAT_FINDING_DOC))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = "1/0"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    assert run(["verify", str(path)]) == EXIT_INPUT
    assert "internal error" not in capsys.readouterr().err


def test_verify_rejects_certificate_of_fewer_bodies(tmp_path, capsys):
    # The flat triple's exact certificate names three bodies; attached to four
    # boxes whose first three are that triple, it must not verify, although
    # every number in it is right for the first three.
    doc = json.loads(json.dumps(FLAT_FINDING_DOC))
    doc["side_matrix"].append(["1", "1", "1"])
    path = tmp_path / "forged.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    assert run(["verify", str(path)]) == EXIT_FAILS
    assert "candidate 0: MISMATCH" in capsys.readouterr().out


def test_verify_rejects_huge_weight_denominator(tmp_path, capsys):
    # A genuine convex combination, but 999999/3000000 = 333333/1000000, so
    # the common weight denominator is q = 10^6, and verify would raise
    # V(1,1,1) to that power.  Weights of a vertex comparison have
    # q <= n^min(k, n) = 27 here.
    doc = json.loads(json.dumps(FLAT_FINDING_DOC))
    weight = "999999/3000000"
    doc["certificate"]["support"] = [
        {"index": [1, 1, 1], "weight": "1/1000000"},
        *({"index": s["index"], "weight": weight} for s in doc["certificate"]["support"]),
    ]
    path = tmp_path / "forged.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    start = time.perf_counter()
    assert run(["verify", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert "denominator" in capsys.readouterr().err


# Every malformed input exits 1, never 2: seeded mutations of the golden
# inputs, each replacing or deleting one nested value.  A replacement is JSON
# text, so each use parses a fresh copy.
REPLACEMENTS = (
    "null", "true", "0", "-1", "7", '"0"', '"-1"', '"1/0"', '"1/3"', '"x"', '""', "[]", "{}",
    "[1, 1, 1, 0]", '[["1"]]',
)


def nested_paths(value, path=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from nested_paths(item, path + (key,))


def mutated(doc, rng):
    """A copy of ``doc`` with one nested value replaced or deleted."""
    doc = json.loads(json.dumps(doc))
    *parents, key = rng.choice(list(nested_paths(doc)))
    target = doc
    for k in parents:
        target = target[k]
    if rng.random() < 0.5:
        del target[key]
    else:
        target[key] = json.loads(rng.choice(REPLACEMENTS))
    return doc


def internal_faults(inputs, count, seed):
    rng = Random(seed)
    faults = []
    for _ in range(count):
        argv, doc = rng.choice(inputs)
        text = json.dumps(mutated(doc, rng))
        result = run_case(argv, text, rng.choice(FORMATS))
        if result["exit"] not in (EXIT_OK, EXIT_INPUT, EXIT_FAILS):
            faults.append((argv, text, result["stderr"]))
    return faults


def test_mutated_documents_never_exit_internal():
    inputs = [(argv, doc) for argv, doc in CASES.values() if doc is not None]
    faults = internal_faults(inputs, 2500, seed=0)
    assert not faults, f"{len(faults)} internal faults, first: {faults[0]}"


def test_mutated_findings_never_exit_internal():
    streams = (load(search_case)["json"]["stdout"] for search_case in VERIFY_CASES.values())
    inputs = [(["verify"], json.loads(line)) for text in streams for line in text.splitlines()[:-1]]
    faults = internal_faults(inputs, 3000, seed=0)
    assert not faults, f"{len(faults)} internal faults, first: {faults[0]}"


# -- large exact answers ------------------------------------------------------

SEVENS = "7" * 1200


def command(args, stdin_text):
    """Run the mixedvol command in a fresh interpreter, as its users do."""
    env = dict(os.environ, PYTHONPATH=str(Path(mixedvol.__file__).parents[1]))
    argv = [sys.executable, "-m", "mixedvol.cli", *args]
    return subprocess.run(argv, input=stdin_text, capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_perm_prints_answer_beyond_int_str_limit(fmt):
    # Each term of the 4x4 permanent has 4800 digits, beyond Python's default
    # limit of 4300 for int-to-str conversion.
    done = command(["perm", "--format", fmt], json.dumps([[SEVENS] * 4] * 4))
    assert done.returncode == EXIT_OK, done.stderr
    expected = str(Decimal(24 * int(SEVENS) ** 4))  # Decimal prints any integer
    assert (done.stdout if fmt == "text" else json.loads(done.stdout)["value"] + "\n") == expected + "\n"


@pytest.mark.parametrize(
    "args, stdin_text",
    [
        (["perm"], "[[" + "9" * 5000 + "]]"),
        (["verify"], json.dumps(dict(FLAT_FINDING_DOC, candidate="9" * 5000))),
    ],
    ids=["json-literal", "index-string"],
)
def test_long_integer_input_is_input_error(args, stdin_text):
    done = command(args, stdin_text)
    assert done.returncode == EXIT_INPUT
    assert "exceeds 4300" in done.stderr


def test_verify_rejects_support_index_shorter_than_center():
    doc = json.loads(json.dumps(FLAT_FINDING_DOC))
    doc["certificate"]["center"] = [1, 1, 1, 0]
    done = command(["verify"], json.dumps(doc) + "\n")
    assert done.returncode == EXIT_INPUT, done.stderr
    assert done.stderr.startswith("error: "), done.stderr
    assert "coordinates" in done.stderr


def test_verify_accepts_long_sides_that_search_writes():
    # A grid value of 1501 digits gives certificate sides of about 4500
    # characters and ratios of about 9000, beyond the 4300-character bound
    # on input strings.
    grid = ["--grid", "0,1/3,1,1e1500", "--mode", "random", "--seed", "0"]
    found = command(["search", *grid, "--max-evaluations", "300", "--format", "json"], "")
    assert found.returncode == EXIT_FAILS, found.stderr
    lines = found.stdout.splitlines()
    doc = json.loads(lines[0])
    assert len(doc["certificate"]["lhs"]) > 4300
    checked = command(["verify"], found.stdout)
    assert checked.returncode == EXIT_OK, checked.stderr
    assert checked.stdout.strip().endswith("all ok")

    doc["certificate"]["lhs"] = "1" * 1_000_000
    tampered = "\n".join([json.dumps(doc), *lines[1:]]) + "\n"
    start = time.perf_counter()
    rejected = command(["verify"], tampered)
    assert time.perf_counter() - start < 1.0
    assert rejected.returncode == EXIT_INPUT
    assert "exceeds 4300" in rejected.stderr


def long_claim_finding(rows, center, support):
    weight = format(Fraction(1, len(support)))
    return {
        "candidate": 0,
        "side_matrix": rows,
        "violation_ratio": "2",
        "certificate": {
            "center": center,
            "support": [{"index": s, "weight": weight} for s in support],
            "lhs": "1" * 4301,
            "rhs": "2",
            "comparison": "forged",
        },
    }


@pytest.mark.parametrize(
    "doc",
    [
        long_claim_finding([[(i + j) % 5 + 1 for j in range(25)] for i in range(2)], [12, 13], [[13, 12], [11, 14]]),
        long_claim_finding([[(j % 5) + 1 for j in range(30)]], [30], [[30]]),
    ],
    ids=["2x25", "1x30"],
)
def test_verify_rejects_forged_long_claim_on_wide_boxes_quickly(doc):
    # An over-long claim is held against the value recomputed from the side
    # matrix.  For boxes with many sides that recompute is cheap by
    # polarization, where permanents of 25x25 or 30x30 matrices are not.
    start = time.perf_counter()
    rejected = command(["verify"], json.dumps(doc) + "\n")
    assert time.perf_counter() - start < 5.0
    assert rejected.returncode == EXIT_INPUT
    assert "exceeds 4300" in rejected.stderr


def test_cli_import_does_not_load_mpmath():
    # mpmath is slow to import; only the bm-check diagnostic needs it.
    code = "import sys, mixedvol.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(mixedvol.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# -- file errors ----------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        lambda d: ["perm", str(d)],
        lambda d: ["verify", str(d)],
        lambda d: ["search", "--grid", "0,1", "--output", str(d)],
        lambda d: ["search", "--grid", "0,1", "--output", str(d / "missing" / "x")],
    ],
    ids=["perm-directory", "verify-directory", "output-directory", "output-missing-parent"],
)
def test_file_errors_are_input_errors(tmp_path, args):
    done = command(args(tmp_path), "")
    assert done.returncode == EXIT_INPUT, done.stderr
    assert done.stderr.startswith("error: "), done.stderr
