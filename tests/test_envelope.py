"""The table-driven envelope scan against the frozen per-candidate scan.

``oracles.slow_envelope_scan`` solves every column subset of every center
again for each polynomial, behind an exact LP feasibility screen.  The fast
scan must return the same comparisons in the same order with the same
checked count, so Reports and findings streams cannot tell them apart.
"""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvol.bodies import AxisBox
from mixedvol.inequalities import FAILS, HOLDS, _envelope_scan, _vertex_table, gromov_concavity
from mixedvol.mixed import BodyTuple, VolumePolynomial, discrete_simplex, volume_polynomial
from oracles import slow_envelope_scan


def _poly(rng: Random, k: int, n: int, zeros: int) -> VolumePolynomial:
    points = discrete_simplex(k, n)
    zeroed = set(rng.sample(points, zeros))
    coeffs = {
        idx: Fraction(0) if idx in zeroed else Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for idx in points
    }
    return VolumePolynomial(k=k, n=n, coefficients=coeffs)


def _assert_matches_oracle(vp: VolumePolynomial) -> None:
    comparisons, checked = _envelope_scan(vp)
    expected, expected_checked = slow_envelope_scan(vp.k, vp.n, vp.coefficients)
    got = [(c.center, c.support, c.lhs, c.rhs, c.comparison) for c in comparisons]
    assert got == expected
    assert checked == expected_checked

    report = gromov_concavity(vp)
    violated = [c for c in expected if c[2] < c[3]]
    assert report.verdict == (FAILS if violated else HOLDS)
    assert [(c.center, c.support, c.lhs, c.rhs, c.comparison) for c in report.certificates] == violated
    assert report.checked_count == expected_checked


# (k, n, share of zero coefficients per polynomial).  Every k = 4, n = 3
# polynomial has at least half its coefficients zero: the oracle's subset
# scan over 19 positive points takes seconds per polynomial.
CASES = [
    (1, 3, (0, Fraction(1, 2))),
    (2, 3, (0, Fraction(1, 4), Fraction(1, 2))),
    (3, 2, (0, Fraction(1, 3), Fraction(2, 3))),
    (3, 3, (0, Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))),
    (3, 4, (0, Fraction(1, 2), Fraction(2, 3))),
    (4, 2, (0, Fraction(1, 3), Fraction(1, 2))),
    (4, 3, (Fraction(1, 2), Fraction(3, 5), Fraction(3, 4))),
]


@pytest.mark.parametrize("k, n, shares", CASES, ids=[f"k{k}n{n}" for k, n, _ in CASES])
def test_scan_matches_frozen_oracle(k, n, shares):
    rng = Random(7000 + 10 * k + n)
    size = len(discrete_simplex(k, n))
    for share in shares:
        for _ in range(2):
            _assert_matches_oracle(_poly(rng, k, n, int(share * size + Fraction(1, 2))))


def test_scan_matches_oracle_on_box_polynomials():
    # Boxes with zero sides give the structured zero patterns that flat
    # counterexamples need, including failing verdicts.
    rng = Random(7100)
    verdicts = set()
    for _ in range(12):
        boxes = tuple(
            AxisBox.from_lengths([Fraction(rng.choice((0, 0, 1, 2, 5))) for _ in range(3)])
            for _ in range(3)
        )
        vp = volume_polynomial(BodyTuple(boxes))
        _assert_matches_oracle(vp)
        verdicts.add(gromov_concavity(vp).verdict)
    flat = volume_polynomial(
        BodyTuple(
            (
                AxisBox.from_lengths([1, 1, 0]),
                AxisBox.from_lengths([1, 0, 5]),
                AxisBox.from_lengths([0, "1/3", 1]),
            )
        )
    )
    _assert_matches_oracle(flat)
    assert gromov_concavity(flat).verdict == FAILS
    assert HOLDS in verdicts


@st.composite
def _polynomials(draw):
    k, n = draw(st.sampled_from([(1, 3), (2, 3), (3, 2), (3, 3), (4, 2)]))
    values = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 2)])
    coeffs = {idx: draw(values) for idx in discrete_simplex(k, n)}
    return VolumePolynomial(k=k, n=n, coefficients=coeffs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_polynomials())
def test_scan_matches_oracle_property(vp):
    _assert_matches_oracle(vp)


@pytest.mark.parametrize("k, n", [(2, 6), (3, 3), (3, 4), (3, 5), (4, 3), (5, 2)])
def test_vertex_weights_within_certificate_bound(k, n):
    # Certificate rejects a common weight denominator q > n^min(k, n); every
    # vertex of the table must stay within it, or genuine comparisons break.
    q = max(
        lcm(*(w.denominator for _, w in support))
        for _, entries in _vertex_table(k, n)
        for _, support in entries
    )
    assert 1 < q <= n ** min(k, n)
