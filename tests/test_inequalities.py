from fractions import Fraction
from random import Random

import pytest

from mixedvol.bodies import AxisBox, Zonotope, scale
from mixedvol.inequalities import (
    FAILS,
    HOLDS,
    VACUOUS,
    Certificate,
    PreconditionError,
    Report,
    af_check_discriminants,
    af_check_volumes,
    envelope_vertex_comparisons,
    gromov_concavity,
    gromov_triple_check,
    minkowski_sequence_check,
    recheck_certificate,
    segment_concavity,
    vdw_check,
)
from mixedvol.mixed import BodyTuple, VolumePolynomial, volume_polynomial
from mixedvol.numerics import Matrix, SymMatrix

FLAT_A1 = AxisBox.from_lengths([1, 1, 0])
FLAT_A2 = AxisBox.from_lengths([1, 0, 5])
FLAT_A3 = AxisBox.from_lengths([0, "1/3", 1])
FLAT_POLY = volume_polynomial(BodyTuple((FLAT_A1, FLAT_A2, FLAT_A3)))


def random_boxes(rng, n, count, hi=4):
    return [AxisBox.from_lengths([Fraction(rng.randint(0, hi)) for _ in range(n)]) for _ in range(count)]


def test_certificate_validates_convex_combination():
    with pytest.raises(ValueError):
        Certificate(
            center=(1, 1),
            support=(((2, 0), Fraction(1, 3)),),
            lhs=Fraction(1),
            rhs=Fraction(1),
            comparison="x",
        )
    with pytest.raises(ValueError):
        Certificate(
            center=(1, 1),
            support=(((2, 0), Fraction(1)),),
            lhs=Fraction(1),
            rhs=Fraction(1),
            comparison="x",
        )


def test_report_requires_certificates_iff_fails():
    with pytest.raises(ValueError):
        Report(verdict=FAILS, certificates=(), checked_count=1)
    with pytest.raises(ValueError):
        Report(
            verdict=HOLDS,
            certificates=(
                Certificate(
                    center=(1, 1),
                    support=(((1, 1), Fraction(1)),),
                    lhs=Fraction(1),
                    rhs=Fraction(2),
                    comparison="x",
                ),
            ),
            checked_count=1,
        )


# -- squared comparisons --------------------------------------------------------


def test_af_volumes_on_flat_triple():
    # pair (A1, A2) with A3 fixed: 16/81 on the left, 15/81 on the right
    report = af_check_volumes([FLAT_A1, FLAT_A2, FLAT_A3])
    assert report.verdict == HOLDS
    assert "V(1,2,rest) = 4/9" in report.diagnostic
    assert "16/81 vs 5/27" in report.diagnostic


def test_af_volumes_equal_pair_is_equality():
    report = af_check_volumes([FLAT_A2, FLAT_A2, FLAT_A3])
    assert report.verdict == HOLDS


def test_af_volumes_random_boxes_always_hold():
    rng = Random(4401)
    for _ in range(60):
        n = rng.randint(2, 4)
        report = af_check_volumes(random_boxes(rng, n, n))
        assert report.verdict == HOLDS


def test_af_volumes_random_segments_always_hold():
    rng = Random(4402)
    for _ in range(30):
        n = rng.randint(2, 3)
        segs = [
            Zonotope(n, (tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)),))
            for _ in range(n)
        ]
        assert af_check_volumes(segs).verdict == HOLDS


def test_af_discriminants_identity_equality():
    eye = SymMatrix.diagonal([1, 1, 1])
    assert af_check_discriminants([eye, eye, eye]).verdict == HOLDS


def test_af_discriminants_requires_positive_definite():
    eye = SymMatrix.diagonal([1, 1])
    bad = SymMatrix.diagonal([1, -1])
    with pytest.raises(PreconditionError):
        af_check_discriminants([eye, bad])


def test_af_discriminants_random_pd_hold():
    rng = Random(4403)
    for _ in range(40):
        n = 3
        mats = []
        for _ in range(n):
            m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
            prod = [
                [sum(m[t][i] * m[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
            for i in range(n):
                prod[i][i] += 1
            mats.append(SymMatrix(prod))
        assert af_check_discriminants(mats).verdict == HOLDS


def test_af_verdicts_agree_on_diagonal_and_boxes():
    rng = Random(4404)
    for _ in range(25):
        n = rng.randint(2, 3)
        diags = [[Fraction(rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        boxes = [AxisBox.from_lengths(d) for d in diags]
        mats = [SymMatrix.diagonal(d) for d in diags]
        assert af_check_volumes(boxes).verdict == af_check_discriminants(mats).verdict


# -- segment concavity -----------------------------------------------------------


def test_segment_concavity_on_flat_triple():
    report = segment_concavity(FLAT_POLY)
    assert report.verdict == HOLDS
    assert report.checked_count == 9


def test_segment_concavity_single_body_vacuous():
    vp = volume_polynomial(BodyTuple((AxisBox.from_lengths([1, 1, 1]),)))
    assert segment_concavity(vp).verdict == VACUOUS


def test_segment_concavity_two_box_example():
    b1 = AxisBox.from_lengths([1, 1])
    b2 = AxisBox.from_lengths([2, 3])
    vp = volume_polynomial(BodyTuple((b1, b2)))
    # V(1,1) = 5/2 and (5/2)^2 >= 1 * 6
    assert vp[(1, 1)] == Fraction(5, 2)
    report = segment_concavity(vp)
    assert report.verdict == HOLDS
    assert report.checked_count == 1


def test_segment_concavity_holds_on_random_tuples():
    rng = Random(4405)
    for _ in range(40):
        n = rng.randint(2, 4)
        k = rng.randint(2, 3)
        vp = volume_polynomial(BodyTuple(tuple(random_boxes(rng, n, k))))
        assert segment_concavity(vp).verdict == HOLDS


def test_segment_concavity_fails_on_synthetic_nonconcave_data():
    # not from a body tuple: a hand-made coefficient map with a log-convex spike
    coeffs = {
        (2, 0): Fraction(4),
        (1, 1): Fraction(1),
        (0, 2): Fraction(4),
    }
    vp = VolumePolynomial(k=2, n=2, coefficients=coeffs)
    report = segment_concavity(vp)
    assert report.verdict == FAILS
    cert = report.certificates[0]
    assert cert.center == (1, 1)
    assert cert.lhs == 1 and cert.rhs == 16
    assert recheck_certificate(vp, cert)


# -- envelope concavity -----------------------------------------------------------


def test_gromov_fails_on_flat_triple_with_expected_support():
    report = gromov_concavity(FLAT_POLY)
    assert report.verdict == FAILS
    expected_support = {(2, 1, 0), (0, 2, 1), (1, 0, 2)}
    matching = [
        c
        for c in report.certificates
        if c.center == (1, 1, 1) and {idx for idx, _ in c.support} == expected_support
    ]
    assert len(matching) == 1
    cert = matching[0]
    assert all(w == Fraction(1, 3) for _, w in cert.support)
    assert cert.lhs == Fraction(64, 729)
    assert cert.rhs == Fraction(75, 729)
    assert recheck_certificate(FLAT_POLY, cert)


def test_gromov_single_point_holds():
    vp = volume_polynomial(BodyTuple((AxisBox.from_lengths([2, 2, 2]),)))
    report = gromov_concavity(vp)
    assert report.verdict == HOLDS  # one point, nothing to compare, not vacuous


def test_gromov_equals_segment_for_two_bodies():
    rng = Random(4406)
    for _ in range(40):
        n = rng.randint(2, 3)
        vp = volume_polynomial(BodyTuple(tuple(random_boxes(rng, n, 2, hi=3))))
        g = gromov_concavity(vp)
        s = segment_concavity(vp)
        if s.verdict == VACUOUS:
            assert g.verdict == HOLDS
        else:
            assert g.verdict == s.verdict


def test_envelope_comparisons_cover_all_vertices():
    comps = envelope_vertex_comparisons(FLAT_POLY)
    assert comps  # the flat triple has positive centers with feasible weights
    for c in comps:
        assert sum((w for _, w in c.support), Fraction(0)) == 1
        assert all(w > 0 for _, w in c.support)


def test_gromov_verdict_is_scale_invariant():
    rng = Random(4407)
    for _ in range(10):
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = BodyTuple(tuple(scale(b, lam) for b in (FLAT_A1, FLAT_A2, FLAT_A3)))
        report = gromov_concavity(volume_polynomial(scaled))
        assert report.verdict == FAILS


# -- triple comparison ------------------------------------------------------------


def test_triple_check_fails_on_flat_triple():
    report = gromov_triple_check([FLAT_A1, FLAT_A2, FLAT_A3])
    assert report.verdict == FAILS
    cert = report.certificates[0]
    assert cert.lhs == Fraction(64, 729)
    assert cert.rhs == Fraction(75, 729)
    assert cert.center == (1, 1, 1)


def test_triple_check_unit_cubes_equality():
    cube = AxisBox.from_lengths([1, 1, 1])
    assert gromov_triple_check([cube, cube, cube]).verdict == HOLDS


def test_triple_check_rejects_wrong_shape():
    with pytest.raises(ValueError):
        gromov_triple_check([FLAT_A1, FLAT_A2])
    with pytest.raises(ValueError):
        gromov_triple_check([AxisBox.from_lengths([1, 1])] * 3)


def test_triple_check_full_boxes_small_grid():
    rng = Random(4408)
    for _ in range(40):
        boxes = random_boxes(rng, 3, 3, hi=4)
        report = gromov_triple_check(boxes)
        if report.verdict == FAILS:
            cert = report.certificates[0]
            assert cert.lhs < cert.rhs  # any failure must carry a strict witness
            again = gromov_triple_check(boxes)
            assert again.certificates[0] == cert


def test_triple_verdict_is_scale_invariant():
    lam = Fraction(7, 3)
    scaled = [scale(b, lam) for b in (FLAT_A1, FLAT_A2, FLAT_A3)]
    assert gromov_triple_check(scaled).verdict == FAILS


# -- replacement sequence ----------------------------------------------------------


def test_bm_check_equal_cubes():
    cube = AxisBox.from_lengths([1, 1, 1])
    report = minkowski_sequence_check(cube, cube, 3)
    assert report.verdict == HOLDS
    assert report.checked_count == 2
    assert "non-authoritative" in report.diagnostic


def test_bm_check_homothetic_boxes():
    a = AxisBox.from_lengths([1, 1, 1])
    b = AxisBox.from_lengths([2, 2, 2])
    report = minkowski_sequence_check(a, b, 3)
    # V_j = 2^{3-j}: constant ratio, equality throughout
    assert report.verdict == HOLDS


def test_bm_check_random_box_pairs():
    rng = Random(4409)
    for _ in range(25):
        n = rng.randint(2, 3)
        a, b = random_boxes(rng, n, 2)
        assert minkowski_sequence_check(a, b, n).verdict in (HOLDS, VACUOUS)


def test_bm_check_dimension_one_is_vacuous():
    a = AxisBox.from_lengths([2])
    b = AxisBox.from_lengths([3])
    assert minkowski_sequence_check(a, b, 1).verdict == VACUOUS


# -- permanent bound ----------------------------------------------------------------


def test_vdw_uniform_matrix_margin_zero():
    third = Fraction(1, 3)
    m = Matrix([[third] * 3] * 3)
    result = vdw_check(m)
    assert result.margin == 0
    assert result.holds


def test_vdw_identity_margin():
    result = vdw_check(Matrix.identity(3))
    assert result.margin == Fraction(7, 9)
    assert result.holds


def test_vdw_convex_combination():
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    mixed_row = [half + sixth, sixth, sixth]
    m = Matrix([
        [mixed_row[0], sixth, sixth],
        [sixth, mixed_row[0], sixth],
        [sixth, sixth, mixed_row[0]],
    ])
    result = vdw_check(m)
    assert result.margin == Fraction(5, 36)
    assert result.holds


def test_vdw_rejects_bad_row_sum():
    with pytest.raises(PreconditionError, match="row 0"):
        vdw_check(Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 2)]]))


def test_vdw_rejects_bad_column_sum():
    m = Matrix([[1, 0], [1, 0]])
    with pytest.raises(PreconditionError, match="column"):
        vdw_check(m)


def test_vdw_rejects_negative_entry():
    m = Matrix([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]])
    with pytest.raises(PreconditionError, match="negative"):
        vdw_check(m)


def test_vdw_random_permutation_mixtures():
    rng = Random(4410)
    for _ in range(30):
        n = rng.randint(2, 5)
        perms = []
        for _ in range(rng.randint(1, 4)):
            order = list(range(n))
            rng.shuffle(order)
            perms.append(order)
        weights = [rng.randint(1, 5) for _ in perms]
        total = sum(weights)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for w, order in zip(weights, perms):
            for i, j in enumerate(order):
                rows[i][j] += Fraction(w, total)
        result = vdw_check(Matrix(rows))
        assert result.holds



@pytest.mark.parametrize(
    "support",
    [
        (((0, 1, 2), Fraction(-1)), ((2, 1, 0), Fraction(-1)), ((1, 1, 1), Fraction(3))),
        (((0, 1, 2), Fraction(0)), ((1, 1, 1), Fraction(1))),
    ],
)
def test_certificate_rejects_nonpositive_weights(support):
    # Both supports sum to 1 and combine to the center; only the sign is wrong.
    with pytest.raises(ValueError, match="weight"):
        Certificate(center=(1, 1, 1), support=support, lhs=Fraction(1), rhs=Fraction(2), comparison="x")
