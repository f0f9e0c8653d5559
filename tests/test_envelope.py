"""The table-driven envelope scan against the frozen per-candidate scan.

``oracles.slow_envelope_scan`` solves every column subset of every center
again for each polynomial, behind an exact LP feasibility screen.  The fast
scan must return the same comparisons in the same order with the same
checked count, and the certificates built from them the same text, so
Reports and findings streams cannot tell them apart.
"""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvol.bodies import AxisBox
from mixedvol.inequalities import (
    FAILS,
    HOLDS,
    _envelope_scan,
    _vertex_table,
    envelope_vertex_comparisons,
    gromov_concavity,
    strongest_envelope_comparison,
)
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
    assert comparisons == [c[:4] for c in expected]
    assert checked == expected_checked
    certs = envelope_vertex_comparisons(vp)
    assert [(c.center, c.support, c.lhs, c.rhs, c.comparison) for c in certs] == expected

    ratios = [rhs / lhs for _, _, lhs, rhs, _ in expected]
    best = max(ratios, default=Fraction(0))
    ratio, cert = strongest_envelope_comparison(vp)
    assert ratio == best
    if best > 1:
        first = expected[ratios.index(best)]
        assert (cert.center, cert.support, cert.lhs, cert.rhs, cert.comparison) == first
    else:
        assert cert is None

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
    # The stored q and powers p_J = w_J·q are those of power_certificate.
    top = 0
    for _, entries in _vertex_table(k, n):
        for _, support, q, powers in entries:
            assert q == lcm(*(w.denominator for _, w in support))
            assert [idx for idx, _ in powers] == [idx for idx, _ in support]
            assert all(type(p) is int and p == w * q for (_, p), (_, w) in zip(powers, support))
            top = max(top, q)
    assert 1 < top <= n ** min(k, n)


def test_strongest_comparison_keeps_the_first_of_a_tie():
    # Bodies 2 and 3 are interchangeable: centers (1,0,1) and (1,1,0) both
    # compare against V(2,0,0) = 4 at ratio 4, and (1,0,1) comes first in
    # scan order.  (0,1,1) compares at ratio 1.
    coeffs = {(2, 0, 0): 4, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    vp = VolumePolynomial(k=3, n=2, coefficients={i: Fraction(v) for i, v in coeffs.items()})
    half = Fraction(1, 2)
    order = [(c.center, c.rhs / c.lhs) for c in envelope_vertex_comparisons(vp)]
    assert order == [((0, 1, 1), 1), ((1, 0, 1), 4), ((1, 1, 0), 4)]
    ratio, cert = strongest_envelope_comparison(vp)
    assert ratio == 4
    assert cert.center == (1, 0, 1)
    assert cert.support == (((0, 0, 2), half), ((2, 0, 0), half))
    assert cert.comparison == "V(1, 0, 1)^2 vs V(0, 0, 2)^1 * V(2, 0, 0)^1"
