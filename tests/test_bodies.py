from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvol.bodies import (
    AxisBox,
    Interval,
    VPolytope,
    Zonotope,
    affine_dimension,
    body_from_json,
    body_to_json,
    convex_hull_3d,
    hull_volume,
    minkowski_sum,
    scale,
    volume,
)
from mixedvol.bodies import _orient3d
from oracles import seeded_by_scans_convex_hull_3d

FLAT_A1 = AxisBox.from_lengths([1, 1, 0])
FLAT_A2 = AxisBox.from_lengths([1, 0, 5])
FLAT_A3 = AxisBox.from_lengths([0, "1/3", 1])


def test_interval_validation():
    Interval(Fraction(0), Fraction(0))  # point interval is fine
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_box_needs_a_side():
    with pytest.raises(ValueError):
        AxisBox(())


def test_scale_examples():
    cube = AxisBox.from_lengths([1, 1, 1])
    doubled = scale(cube, 2)
    assert volume(doubled) == 8
    assert scale(cube, 1) == cube
    b = AxisBox.from_lengths([1, 5])
    shrunk = scale(b, "1/5")
    assert shrunk.sides == (Interval(Fraction(0), Fraction(1, 5)), Interval(Fraction(0), Fraction(1)))


def test_scale_rejects_negative():
    with pytest.raises(ValueError):
        scale(FLAT_A1, -1)


def test_scale_zero_collapses_to_point():
    b = AxisBox([Interval(Fraction(1), Fraction(2)), Interval(Fraction(0), Fraction(3))])
    p = scale(b, 0)
    assert volume(p) == 0
    assert all(s.lo == s.hi == 0 for s in p.sides)


def test_minkowski_sum_of_flat_boxes():
    total = minkowski_sum([(1, FLAT_A1), (1, FLAT_A2), (1, FLAT_A3)])
    assert isinstance(total, AxisBox)
    assert [s.length for s in total.sides] == [2, Fraction(4, 3), 6]
    assert volume(total) == 16


def test_minkowski_single_part_is_identity():
    assert minkowski_sum([(1, FLAT_A2)]) == FLAT_A2


def test_minkowski_zonotope_concatenates_generators():
    z1 = Zonotope(2, ((Fraction(1), Fraction(0)),))
    z2 = Zonotope(2, ((Fraction(0), Fraction(1)),))
    z = minkowski_sum([(1, z1), (1, z2)])
    assert isinstance(z, Zonotope)
    assert z.generators == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_minkowski_mixed_kinds_becomes_vpolytope():
    seg = Zonotope(2, ((Fraction(1), Fraction(1)),))
    box = AxisBox.from_lengths([1, 1])
    m = minkowski_sum([(1, seg), (1, box)])
    assert isinstance(m, VPolytope)
    # unit square swept along (1,1): hexagon of area 1 + 2 shear strips
    assert volume(m) == 3


def test_minkowski_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        minkowski_sum([(1, FLAT_A1), (1, AxisBox.from_lengths([1, 1]))])


def test_minkowski_mixed_kind_needs_low_dimension():
    b4 = AxisBox.from_lengths([1, 1, 1, 1])
    z4 = Zonotope(4, ((Fraction(1), Fraction(0), Fraction(0), Fraction(0)),))
    with pytest.raises(ValueError):
        minkowski_sum([(1, b4), (1, z4)])


def test_volume_examples():
    assert volume(AxisBox.from_lengths([1, 1, 1])) == 1
    assert volume(FLAT_A1) == 0
    e = [(Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))]
    assert volume(Zonotope(3, tuple(e))) == 1


def test_volume_scaling_is_homogeneous():
    rng = Random(2201)
    for _ in range(20):
        n = rng.randint(1, 4)
        b = AxisBox.from_lengths([rng.randint(1, 4) for _ in range(n)])
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert volume(scale(b, lam)) == lam**n * volume(b)


def test_volume_invariant_under_summand_order():
    rng = Random(2202)
    for _ in range(15):
        n = rng.randint(1, 3)
        parts = [
            (Fraction(rng.randint(0, 3)), AxisBox.from_lengths([rng.randint(0, 3) for _ in range(n)]))
            for _ in range(3)
        ]
        shuffled = list(parts)
        rng.shuffle(shuffled)
        assert volume(minkowski_sum(parts)) == volume(minkowski_sum(shuffled))


def test_box_sum_volume_matches_interval_arithmetic():
    rng = Random(2203)
    for _ in range(20):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        lams = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(k)]
        boxes = [AxisBox.from_lengths([Fraction(rng.randint(0, 4)) for _ in range(n)]) for _ in range(k)]
        total = minkowski_sum(list(zip(lams, boxes)))
        expected = Fraction(1)
        for j in range(n):
            expected *= sum((lam * b.sides[j].length for lam, b in zip(lams, boxes)), Fraction(0))
        assert volume(total) == expected


def test_axis_aligned_zonotope_volume_equals_box():
    rng = Random(2204)
    for _ in range(20):
        n = rng.randint(1, 4)
        lengths = [Fraction(rng.randint(0, 5)) for _ in range(n)]
        gens = tuple(
            tuple(lengths[i] if j == i else Fraction(0) for j in range(n)) for i in range(n)
        )
        assert volume(Zonotope(n, gens)) == volume(AxisBox.from_lengths(lengths))


def test_box_and_vpolytope_volumes_agree():
    rng = Random(2205)
    for _ in range(15):
        n = rng.randint(1, 3)
        b = AxisBox.from_lengths([Fraction(rng.randint(0, 3)) for _ in range(n)])
        vp = VPolytope(n, tuple(b.vertices()))
        assert volume(vp) == volume(b)


# -- hulls --------------------------------------------------------------------


def test_hull_of_tetrahedron_has_four_facets():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    h = convex_hull_3d(pts)
    assert h.affine_dim == 3
    assert len(h.facets) == 4
    assert hull_volume(h) == Fraction(1, 6)


def test_hull_ignores_interior_point():
    cube = AxisBox.from_lengths([1, 1, 1])
    pts = cube.vertices() + [(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
    h = convex_hull_3d(pts)
    used = {i for f in h.facets for i in f}
    center = pts.index((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert center not in used
    assert hull_volume(h) == 1


def test_hull_of_coplanar_points_is_lower_dimensional():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (Fraction(1, 2), Fraction(1, 2), 0)]
    h = convex_hull_3d(pts)
    assert h.affine_dim == 2
    assert h.facets == ()


def test_hull_rejects_empty_input():
    with pytest.raises(ValueError):
        convex_hull_3d([])


def test_hull_facets_contain_all_points():
    rng = Random(2206)
    for _ in range(25):
        pts = [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
            for _ in range(rng.randint(4, 12))
        ]
        h = convex_hull_3d(pts)
        if h.affine_dim < 3:
            continue
        for f in h.facets:
            a, b, c = (h.points[i] for i in f)
            for q in h.points:
                # outward orientation: nothing may lie strictly outside
                assert _orient3d(a, b, c, q) <= 0


def test_hull_volume_matches_box():
    rng = Random(2207)
    for _ in range(10):
        lengths = [Fraction(rng.randint(1, 4)) for _ in range(3)]
        b = AxisBox.from_lengths(lengths)
        h = convex_hull_3d(b.vertices())
        assert hull_volume(h) == volume(b)


def flat_point_set(base, directions, coefficients, repeats):
    """base + Σ c_j d_j for each coefficient row, then the points at the
    ``repeats`` positions again: affine dimension at most len(directions)."""
    pts = [
        tuple(b + sum(c * d[t] for c, d in zip(row, directions)) for t, b in enumerate(base))
        for row in coefficients
    ]
    return pts + [pts[i % len(pts)] for i in repeats]


def seeded_flat_point_sets(seed, count):
    rng = Random(seed)
    for _ in range(count):
        dim = rng.randint(0, 3)
        base = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        directions = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(dim)]
        coefficients = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, 10))]
        repeats = [rng.randrange(10) for _ in range(rng.randint(0, 3))]
        yield flat_point_set(base, directions, coefficients, repeats)


def test_hull_seed_matches_the_scans_it_replaced():
    dims = set()
    for pts in seeded_flat_point_sets(2208, 400):
        h = convex_hull_3d(pts)
        assert h == seeded_by_scans_convex_hull_3d(pts), pts
        dims.add(h.affine_dim)
    assert dims == {0, 1, 2, 3}


@st.composite
def flat_points(draw):
    dim = draw(st.integers(0, 3))
    small = st.integers(-2, 2)
    base = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=3, max_size=3))
    directions = draw(st.lists(st.lists(small, min_size=3, max_size=3), min_size=dim, max_size=dim))
    coefficients = draw(st.lists(st.lists(small, min_size=dim, max_size=dim), min_size=1, max_size=9))
    repeats = draw(st.lists(st.integers(0, 8), max_size=3))
    return flat_point_set(base, directions, coefficients, repeats)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(flat_points())
def test_hull_seed_matches_the_scans_it_replaced_property(pts):
    assert convex_hull_3d(pts) == seeded_by_scans_convex_hull_3d(pts)


def test_affine_dimension_examples():
    assert affine_dimension(FLAT_A1) == 2
    assert affine_dimension(AxisBox.from_lengths([0, 0, 0])) == 0
    assert affine_dimension(AxisBox.from_lengths([1, 1, 1])) == 3
    assert affine_dimension(Zonotope(3, ((Fraction(1), Fraction(1), Fraction(0)),))) == 1
    assert affine_dimension(VPolytope(2, ((Fraction(0), Fraction(0)),))) == 0


# -- serialization ------------------------------------------------------------


def test_body_json_round_trip():
    bodies = [
        FLAT_A3,
        Zonotope(3, ((Fraction(1), Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 3), Fraction(1)))),
        VPolytope(2, ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1, 2)))),
    ]
    for b in bodies:
        assert body_from_json(body_to_json(b)) == b


def test_body_from_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        body_from_json({"type": "ball", "radius": "1"})
    with pytest.raises(ValueError):
        body_from_json({"intervals": []})
    with pytest.raises(ValueError):
        body_from_json({"type": "box"})
