"""The exhaustive triple scan by body rows against the frozen per-candidate
scan.

``oracles.per_candidate_scan`` decodes every index and evaluates it on its
own.  The row scan must emit the same findings, in the same order, for every
grid and every index range, so chunked and budgeted searches stay
byte-identical; ``test_search.test_parallel_scan_matches_sequential``
compares chunked scans.
"""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvol.search import EXHAUSTIVE, SearchConfig, SearchSpace
from oracles import per_candidate_scan

S = importlib.import_module("mixedvol.search")

CONFIG = SearchConfig(mode=EXHAUSTIVE)
FULL_GRID = (0, Fraction(1, 3), 1, 5)
FULL_SPACE = SearchSpace(side_grid=FULL_GRID)
ROWS = 4**3  # rows per block of the full grid


def _agree(space, start, stop):
    got = S._scan_range(space, CONFIG, start, stop)
    assert got == per_candidate_scan(space, CONFIG, start, stop)
    return got


@pytest.mark.parametrize(
    "grid", [(0, 1, 2), (0, Fraction(1, 2), 3), (0, 1, 5), (1, 2)], ids=["0,1,2", "0,1/2,3", "0,1,5", "1,2"]
)
def test_full_grids_agree(grid):
    space = SearchSpace(side_grid=grid)
    _agree(space, 0, len(space.side_grid) ** 9)


@pytest.mark.parametrize("count", [1, ROWS - 1, ROWS * ROWS + 5, 77_777, 100_000])
def test_unaligned_counts_agree(count):
    _agree(FULL_SPACE, 0, count)


def test_range_inside_one_block_agrees():
    # Row pair 483 holds hits at i3 = 20, 21, 40, 41, 42 and 60 to 63; the
    # range starts and stops inside its block.
    base = 483 * ROWS
    assert [f.index - base for f in _agree(FULL_SPACE, base + 21, base + 61)] == [21, 40, 41, 42, 60]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4**9 - 1), st.integers(0, 3 * ROWS * ROWS))
def test_index_ranges_agree(start, length):
    _agree(FULL_SPACE, start, min(start + length, 4**9))


def test_hit_goes_through_the_ratio_guard(monkeypatch):
    # Boxes cannot have V(1,2,3) = 0 under a positive cyclic product, so the
    # guard is reached by forging the permanents a hit is rebuilt from.
    monkeypatch.setattr(S, "_triple_perms", lambda sp, digits: (0, 1, 1, 1))
    with pytest.raises(ArithmeticError):
        S._scan_range(FULL_SPACE, CONFIG, 0, 4**9)
