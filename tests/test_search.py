"""Tests for the violation search: determinism, parallel equivalence, and
independent re-verification of every emitted finding."""

import dataclasses
import importlib
import json
import os
import pickle
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedvol.bodies import AxisBox
from mixedvol.inequalities import Certificate, envelope_vertex_comparisons
from mixedvol.mixed import BodyTuple, volume_polynomial
from mixedvol.numerics import Matrix
from mixedvol.search import (
    ENVELOPE,
    EXHAUSTIVE,
    HILL_CLIMB,
    RANDOM,
    TRIPLE,
    Finding,
    SearchConfig,
    SearchSpace,
    findings_from_jsonl,
    result_to_jsonl,
    search,
    verify_finding,
)
from oracles import per_candidate_scan

# The flat-box triple known to break log concavity, as a side matrix.
TARGET_MATRIX = Matrix([
    [1, 1, 0],
    [1, 0, 5],
    [0, Fraction(1, 3), 1],
])
TARGET_RATIO = Fraction(75, 64)

# The package re-exports the function ``search`` under the submodule's name.
search_module = importlib.import_module("mixedvol.search")

FULL_GRID = (0, Fraction(1, 3), 1, 5)


def test_space_canonicalizes_grid():
    sp = SearchSpace(side_grid=(5, 1, Fraction(1, 3), 0, 1))
    assert sp.side_grid == (0, Fraction(1, 3), 1, 5)


def test_space_rejects_bad_grids():
    with pytest.raises(ValueError):
        SearchSpace(side_grid=())
    with pytest.raises(ValueError):
        SearchSpace(side_grid=(1, -1))
    with pytest.raises(ValueError):
        SearchSpace(side_grid=(1,), n=0)


def test_space_identity_is_its_three_fields():
    # The integer grid is carried for the scans but is not part of a space's
    # repr, equality, hash or constructor.
    sp = SearchSpace(side_grid=FULL_GRID)
    assert repr(sp) == (
        "SearchSpace(side_grid=(Fraction(0, 1), Fraction(1, 3), Fraction(1, 1), Fraction(5, 1)), n=3, k=3)"
    )
    same = SearchSpace(side_grid=("5", "1", "1/3", "0"))
    assert sp == same and hash(sp) == hash(same) == hash((sp.side_grid, 3, 3))
    assert sp != SearchSpace(side_grid=FULL_GRID, n=2)
    assert (sp.denom, sp.int_grid) == (3, (0, 1, 3, 15))
    back = pickle.loads(pickle.dumps(sp))
    assert back == sp and repr(back) == repr(sp) and hash(back) == hash(sp)
    assert (back.denom, back.int_grid) == (3, (0, 1, 3, 15))
    assert [f.name for f in dataclasses.fields(sp) if f.init] == ["side_grid", "n", "k"]
    assert dataclasses.replace(sp, n=2).int_grid == sp.int_grid


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        SearchConfig(mode="annealing")
    with pytest.raises(ValueError):
        SearchConfig(target="widest-gap")
    with pytest.raises(ValueError):
        SearchConfig(max_evaluations=0)


def test_config_masks_seed_to_64_bits():
    assert SearchConfig(seed=-1).seed == 2**64 - 1
    assert SearchConfig(seed=2**64 + 5).seed == 5


def test_triple_target_needs_three_bodies_in_dim_three():
    with pytest.raises(ValueError):
        search(SearchSpace(side_grid=(0, 1), n=2, k=2), SearchConfig(target=TRIPLE))
    with pytest.raises(ValueError):
        search(SearchSpace(side_grid=(0, 1), n=3, k=2), SearchConfig(target=TRIPLE))


def test_exhaustive_grid_finds_known_violation():
    result = search(SearchSpace(side_grid=FULL_GRID), SearchConfig(mode=EXHAUSTIVE))
    assert result.evaluations == 4**9
    hits = [f for f in result if f.side_matrix == TARGET_MATRIX]
    assert len(hits) == 1
    assert hits[0].violation_ratio == TARGET_RATIO
    assert verify_finding(hits[0])
    # Strongest violation first, and the stream carries no duplicate matrices.
    ratios = [f.violation_ratio for f in result]
    assert ratios == sorted(ratios, reverse=True)
    assert result.best_ratio == ratios[0] > TARGET_RATIO >= ratios[-1]
    assert len({f.side_matrix for f in result}) == len(result)


def test_unit_grid_has_no_violations():
    result = search(SearchSpace(side_grid=(1,)), SearchConfig(mode=EXHAUSTIVE))
    assert result.evaluations == 1
    assert len(result) == 0
    assert result.best_ratio is None


def test_exhaustive_respects_evaluation_budget():
    space = SearchSpace(side_grid=(0, 1))
    config = SearchConfig(mode=EXHAUSTIVE, max_evaluations=100)
    result = search(space, config)
    assert result.evaluations == 100


def test_parallel_scan_matches_sequential():
    space = SearchSpace(side_grid=(0, 1, 5))
    config = SearchConfig(mode=EXHAUSTIVE)
    a = search(space, config, jobs=1)
    b = search(space, config, jobs=4)
    assert result_to_jsonl(a) == result_to_jsonl(b)
    # A budget that splits row blocks between the chunks.
    config = SearchConfig(mode=EXHAUSTIVE, max_evaluations=100_000)
    a = search(SearchSpace(side_grid=FULL_GRID), config, jobs=1)
    b = search(SearchSpace(side_grid=FULL_GRID), config, jobs=2)
    assert len(a) > 0
    assert result_to_jsonl(a) == result_to_jsonl(b)


def test_random_mode_is_reproducible():
    space = SearchSpace(side_grid=FULL_GRID)
    config = SearchConfig(mode=RANDOM, seed=5501, max_evaluations=3000)
    a = search(space, config)
    b = search(space, config)
    assert result_to_jsonl(a) == result_to_jsonl(b)
    assert len(a) > 0
    for f in a:
        assert f.violation_ratio > 1
        assert verify_finding(f)


def test_random_mode_parallel_matches_sequential():
    space = SearchSpace(side_grid=FULL_GRID)
    config = SearchConfig(mode=RANDOM, seed=5502, max_evaluations=2000)
    assert result_to_jsonl(search(space, config, jobs=1)) == result_to_jsonl(
        search(space, config, jobs=3)
    )


def test_random_seeds_change_the_draw():
    space = SearchSpace(side_grid=FULL_GRID)
    a = search(space, SearchConfig(mode=RANDOM, seed=1, max_evaluations=500))
    b = search(space, SearchConfig(mode=RANDOM, seed=2, max_evaluations=500))
    # Same budget, different candidate stream.  Identical outputs would mean
    # the seed is ignored.
    assert result_to_jsonl(a) != result_to_jsonl(b)


def test_hill_climb_deterministic_and_verified():
    space = SearchSpace(side_grid=FULL_GRID)
    config = SearchConfig(mode=HILL_CLIMB, seed=5503, max_evaluations=2000)
    a = search(space, config)
    b = search(space, config)
    assert result_to_jsonl(a) == result_to_jsonl(b)
    assert a.evaluations == 2000
    assert len(a) > 0
    for f in a:
        assert verify_finding(f)


def test_random_scan_keeps_one_finding_per_side_matrix():
    # Random draws repeat side matrices; the scan keeps the first finding of
    # each as it goes, so what it holds is bounded by the distinct violating
    # matrices and not by the budget.
    space = SearchSpace(side_grid=FULL_GRID)
    config = SearchConfig(mode=RANDOM, seed=0, max_evaluations=20_000)
    every_hit = per_candidate_scan(space, config, 0, config.max_evaluations)
    first = {}
    for f in every_hit:
        first.setdefault(f.side_matrix, f)
    assert len(every_hit) > len(first)  # the draw does repeat violators
    assert search_module._scan_range(space, config, 0, config.max_evaluations) == list(first.values())
    assert search(space, config, jobs=2) == search(space, config, jobs=1)


def test_hill_climb_keeps_one_finding_per_side_matrix(monkeypatch):
    held = []
    finish = search_module._finish

    def spy(parts, evaluations):
        parts = [list(part) for part in parts]
        held.extend(f.side_matrix for part in parts for f in part)
        return finish(parts, evaluations)

    monkeypatch.setattr(search_module, "_finish", spy)
    config = SearchConfig(mode=HILL_CLIMB, seed=1, max_evaluations=400)
    result = search(SearchSpace(side_grid=FULL_GRID), config)
    assert len(held) == len(set(held)) == len(result) > 0


def test_envelope_covers_triple_violations():
    # The envelope enumerates every vertex comparison, so on a candidate that
    # fails the fixed triple inequality it must see a ratio at least as big.
    result = search(SearchSpace(side_grid=FULL_GRID), SearchConfig(mode=EXHAUSTIVE))
    for f in list(result)[:4]:
        boxes = BodyTuple(tuple(AxisBox.from_lengths(row) for row in f.side_matrix))
        comparisons = envelope_vertex_comparisons(volume_polynomial(boxes))
        best = max(cert.rhs / cert.lhs for cert in comparisons)
        assert best >= f.violation_ratio > 1


def test_envelope_on_pairs_finds_nothing():
    # Two-body envelopes reduce to segment concavity, which always holds.
    space = SearchSpace(side_grid=(0, 1, 2), n=2, k=2)
    result = search(space, SearchConfig(mode=EXHAUSTIVE, target=ENVELOPE))
    assert result.evaluations == 3**4
    assert len(result) == 0


def test_verify_rejects_tampered_findings():
    result = search(
        SearchSpace(side_grid=FULL_GRID),
        SearchConfig(mode=RANDOM, seed=5504, max_evaluations=1500),
    )
    f = result[0]
    assert verify_finding(f)
    wrong_ratio = dataclasses.replace(f, violation_ratio=f.violation_ratio + 1)
    assert not verify_finding(wrong_ratio)
    rows = [list(r) for r in f.side_matrix]
    rows[0][0] += 1
    wrong_matrix = dataclasses.replace(f, side_matrix=Matrix(rows))
    assert not verify_finding(wrong_matrix)


def test_jsonl_round_trip():
    result = search(
        SearchSpace(side_grid=FULL_GRID),
        SearchConfig(mode=RANDOM, seed=5505, max_evaluations=1500),
    )
    text = result_to_jsonl(result)
    findings, summary = findings_from_jsonl(text)
    assert findings == list(result.findings)
    assert summary is not None
    assert summary["evaluations"] == result.evaluations
    assert summary["findings"] == len(result)
    assert Fraction(summary["best_ratio"]) == result.best_ratio


@st.composite
def certificates(draw):
    # Pairs J = I + d and I - d, weighted a_i / (2 Σ a), meet at the center I.
    # Weight denominators divide 2 Σ a <= 54, so centers of at least 54 keep
    # them within the bound n^min(k, n) that Certificate enforces.
    k = draw(st.integers(1, 4))
    center = tuple(draw(st.lists(st.integers(54, 57), min_size=k, max_size=k)))
    offsets = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=3))
    shares = draw(st.lists(st.integers(1, 9), min_size=len(offsets), max_size=len(offsets)))
    support = []
    for d, a in zip(offsets, shares):
        w = Fraction(a, 2 * sum(shares))
        support.append((tuple(c + x for c, x in zip(center, d)), w))
        support.append((tuple(c - x for c, x in zip(center, d)), w))
    sides = st.fractions(min_value=-(10**40), max_value=10**40, max_denominator=10**40)
    return Certificate(
        center=center,
        support=tuple(support),
        lhs=draw(sides),
        rhs=draw(sides),
        comparison=draw(st.text(max_size=20)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(certificates())
def test_certificate_json_round_trip(cert):
    assert Certificate.from_json(json.loads(json.dumps(cert.to_json()))) == cert


@contextmanager
def unlimited_int_str():
    # Certificate sides beyond 4300 digits print only with the limit lifted,
    # as the mixedvol command does for its process (Python 3.10.7 and later
    # have the limit).
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


HUGE = 10**1500


@st.composite
def findings(draw):
    # Genuine findings-shaped documents: an envelope comparison (violated or
    # not) of boxes whose sides include 1501-digit values.
    k, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    grid = [0, Fraction(1, 3), 1, 5, HUGE, Fraction(HUGE + 1, 7)]
    rows = draw(st.lists(st.lists(st.sampled_from(grid), min_size=n, max_size=n), min_size=k, max_size=k))
    side_matrix = Matrix(rows)
    boxes = BodyTuple(tuple(AxisBox.from_lengths(row) for row in side_matrix))
    comparisons = envelope_vertex_comparisons(volume_polynomial(boxes))
    assume(comparisons)
    cert = draw(st.sampled_from(comparisons))
    index = draw(st.integers(0, 10**6))
    ratio = cert.rhs / cert.lhs
    return Finding(index=index, side_matrix=side_matrix, certificate=cert, violation_ratio=ratio)


LONG_SIDES = [[HUGE, 1, 0], [1, 0, 5], [0, Fraction(1, 3), HUGE]]


def long_finding():
    boxes = BodyTuple(tuple(AxisBox.from_lengths(row) for row in LONG_SIDES))
    comparisons = envelope_vertex_comparisons(volume_polynomial(boxes))
    cert = max(comparisons, key=lambda c: c.lhs.numerator.bit_length())
    ratio = cert.rhs / cert.lhs
    return Finding(index=7, side_matrix=Matrix(LONG_SIDES), certificate=cert, violation_ratio=ratio)


def round_trips(finding):
    with unlimited_int_str():
        return Finding.from_json(json.loads(json.dumps(finding.to_json()))) == finding


def test_finding_with_long_sides_round_trips():
    finding = long_finding()
    with unlimited_int_str():
        doc = finding.to_json()
    assert len(doc["certificate"]["lhs"]) > 4300
    assert round_trips(finding)
    with pytest.raises(ValueError, match="exceeds 4300"):
        Certificate.from_json(doc["certificate"])  # nothing to recompute it from


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(findings())
def test_finding_json_round_trip(finding):
    assert round_trips(finding)


def test_malformed_finding_document_rejected():
    with pytest.raises(ValueError, match="malformed"):
        Finding.from_json({"candidate": 0, "side_matrix": [[1]]})


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and maps
    in this process, so the test starts no processes at all."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_jobs_clamped_to_cpus_and_chunks(monkeypatch):
    monkeypatch.setattr(search_module, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(_RecordingPool, "started", [])
    space = SearchSpace(side_grid=FULL_GRID)
    sequential = search(space, SearchConfig(mode=RANDOM, seed=77, max_evaluations=40))
    for jobs, evaluations, workers in ((10**9, 40, 3), (64, 5, 2), (2, 40, 2)):
        config = SearchConfig(mode=RANDOM, seed=77, max_evaluations=evaluations)
        result = search(space, config, jobs=jobs)
        assert _RecordingPool.started[-1] == workers
        if evaluations == 40:
            assert result == sequential
    # Too few candidates for two chunks of two: no pool at all.
    search(space, SearchConfig(mode=RANDOM, seed=77, max_evaluations=3), jobs=8)
    assert len(_RecordingPool.started) == 3
