import json
import time
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvol import bodies as bodies_module
from mixedvol.bodies import (
    AxisBox,
    VPolytope,
    Zonotope,
    body_from_json,
    minkowski_sum,
    volume,
    weighted_volume,
)
from mixedvol.mixed import (
    BodyTuple,
    _polarize,
    _weighted_volume,
    MatrixTuple,
    VolumePolynomial,
    coefficients,
    discrete_simplex,
    discriminant_polynomial,
    mixed_discriminant,
    mixed_volume,
    mixed_volume_boxes,
    mixed_volume_segments,
    multinomial,
    volume_polynomial,
    volume_polynomial_interpolated,
)
from mixedvol.numerics import Matrix, SymMatrix, permanent
from oracles import zonotope_polynomial

FLAT_A1 = AxisBox.from_lengths([1, 1, 0])
FLAT_A2 = AxisBox.from_lengths([1, 0, 5])
FLAT_A3 = AxisBox.from_lengths([0, "1/3", 1])
FLAT_TUPLE = BodyTuple((FLAT_A1, FLAT_A2, FLAT_A3))


def unit_segment(n, i):
    return Zonotope(n, (tuple(Fraction(int(j == i)) for j in range(n)),))


def test_discrete_simplex_size_and_order():
    pts = discrete_simplex(3, 3)
    assert len(pts) == comb(3 + 3 - 1, 3 - 1) == 10
    assert pts == sorted(pts)
    assert all(sum(p) == 3 for p in pts)


def test_multinomial():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(3, (2, 1, 0)) == 3
    assert multinomial(4, (4,)) == 1
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_volume_polynomial_requires_full_simplex():
    with pytest.raises(ValueError):
        VolumePolynomial(k=2, n=2, coefficients={(2, 0): Fraction(1)})


# -- mixed volume -------------------------------------------------------------


def test_mixed_volume_of_equal_bodies_is_volume():
    cube = AxisBox.from_lengths([1, 1, 1])
    assert mixed_volume([cube, cube, cube]) == 1
    b = AxisBox.from_lengths([2, "1/2", 3])
    assert mixed_volume([b, b, b]) == volume(b)


def test_mixed_volume_of_flat_triple():
    assert mixed_volume([FLAT_A1, FLAT_A2, FLAT_A3]) == Fraction(4, 9)
    assert mixed_volume([FLAT_A1, FLAT_A1, FLAT_A2]) == Fraction(5, 3)
    assert mixed_volume([FLAT_A2, FLAT_A2, FLAT_A3]) == Fraction(5, 9)
    assert mixed_volume([FLAT_A3, FLAT_A3, FLAT_A1]) == Fraction(1, 9)


def test_mixed_volume_of_coordinate_segments():
    segs = [unit_segment(3, i) for i in range(3)]
    assert mixed_volume(segs) == Fraction(1, 6)


def test_mixed_volume_needs_matching_count():
    with pytest.raises(ValueError):
        mixed_volume([FLAT_A1, FLAT_A2])


def test_mixed_volume_symmetry():
    rng = Random(3301)
    for _ in range(10):
        n = rng.randint(2, 3)
        bodies = [AxisBox.from_lengths([Fraction(rng.randint(0, 3)) for _ in range(n)]) for _ in range(n)]
        v = mixed_volume(bodies)
        shuffled = list(bodies)
        rng.shuffle(shuffled)
        assert mixed_volume(shuffled) == v


def test_mixed_volume_scaling():
    rng = Random(3302)
    from mixedvol.bodies import scale

    for _ in range(10):
        n = rng.randint(2, 3)
        bodies = [AxisBox.from_lengths([Fraction(rng.randint(0, 3)) for _ in range(n)]) for _ in range(n)]
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        scaled = [scale(bodies[0], lam)] + bodies[1:]
        assert mixed_volume(scaled) == lam * mixed_volume(bodies)


# -- closed-form routes --------------------------------------------------------


def test_boxes_route_examples():
    m = Matrix([[1, 1, 0], [1, 0, 5], [0, "1/3", 1]])
    assert mixed_volume_boxes(m) == Fraction(4, 9)
    m2 = Matrix([[1, 1, 0], [1, 1, 0], [1, 0, 5]])
    assert mixed_volume_boxes(m2) == Fraction(5, 3)
    assert mixed_volume_boxes(Matrix.identity(3)) == Fraction(1, 6)


def test_boxes_route_rejects_negative_side():
    with pytest.raises(ValueError):
        mixed_volume_boxes(Matrix([[1, -1], [1, 1]]))


def test_segments_route_examples():
    assert mixed_volume_segments([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == Fraction(1, 6)
    assert mixed_volume_segments([[1, 1], [2, 2]]) == 0
    assert mixed_volume_segments([[2, 0], [0, 1]]) == 1


def test_route_agreement_boxes():
    rng = Random(3303)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [[Fraction(rng.randint(0, 5)) for _ in range(n)] for _ in range(n)]
        boxes = [AxisBox.from_lengths(r) for r in rows]
        assert mixed_volume(boxes) == mixed_volume_boxes(Matrix(rows))


def test_route_agreement_segments():
    rng = Random(3304)
    for _ in range(25):
        n = rng.randint(2, 3)
        gens = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        segs = [Zonotope(n, (tuple(g),)) for g in gens]
        assert mixed_volume(segs) == mixed_volume_segments(gens)


def test_mixed_volume_of_general_polytopes():
    # simplex with vertices 0, e1, e2, e3 three times over: ordinary volume
    simplex = VPolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert mixed_volume([simplex] * 3) == Fraction(1, 6)


# -- polynomials ----------------------------------------------------------------


def test_volume_polynomial_single_body():
    b = AxisBox.from_lengths([2, 3, 4])
    vp = volume_polynomial(BodyTuple((b,)))
    assert vp.coefficients == {(3,): Fraction(24)}


def test_volume_polynomial_of_flat_triple():
    vp = volume_polynomial(FLAT_TUPLE)
    expected = {
        (3, 0, 0): Fraction(0),
        (2, 1, 0): Fraction(5, 3),
        (2, 0, 1): Fraction(1, 3),
        (1, 2, 0): Fraction(5, 3),
        (1, 1, 1): Fraction(4, 9),
        (1, 0, 2): Fraction(1, 9),
        (0, 3, 0): Fraction(0),
        (0, 2, 1): Fraction(5, 9),
        (0, 1, 2): Fraction(1, 9),
        (0, 0, 3): Fraction(0),
    }
    assert dict(vp.coefficients) == expected


@pytest.mark.parametrize(
    "index",
    [(1, 1), (1, 1, 1, 0), (2, 2, -1), (1, 1, 0), (2, 1, 1)],
    ids=["short", "long", "negative", "sum-low", "sum-high"],
)
def test_coefficients_reject_index_off_the_simplex(index):
    # Polarization would read such an index anyway: zip drops the coordinates
    # past the last body, and a negative count sums no terms.
    with pytest.raises(ValueError, match="discrete simplex"):
        coefficients(FLAT_TUPLE, [(1, 1, 1), index])


def test_volume_polynomial_two_segments():
    segs = BodyTuple((unit_segment(2, 0), unit_segment(2, 1)))
    vp = volume_polynomial(segs)
    assert dict(vp.coefficients) == {
        (2, 0): Fraction(0),
        (1, 1): Fraction(1, 2),
        (0, 2): Fraction(0),
    }


def test_interpolated_polynomial_matches_direct():
    rng = Random(3305)
    for _ in range(15):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        bodies = tuple(
            AxisBox.from_lengths([Fraction(rng.randint(0, 4)) for _ in range(n)]) for _ in range(k)
        )
        t = BodyTuple(bodies)
        assert volume_polynomial_interpolated(t).coefficients == volume_polynomial(t).coefficients


def test_interpolated_polynomial_flat_triple():
    assert (
        volume_polynomial_interpolated(FLAT_TUPLE).coefficients
        == volume_polynomial(FLAT_TUPLE).coefficients
    )


def test_polynomial_reconstructs_volumes():
    rng = Random(3306)
    for _ in range(10):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        bodies = tuple(
            AxisBox.from_lengths([Fraction(rng.randint(0, 3)) for _ in range(n)]) for _ in range(k)
        )
        vp = volume_polynomial(BodyTuple(bodies))
        lams = [Fraction(rng.randint(1, 4)) for _ in range(k)]
        direct = volume(minkowski_sum(list(zip(lams, bodies))))
        total = Fraction(0)
        for idx, coeff in vp.coefficients.items():
            term = Fraction(multinomial(n, idx)) * coeff
            for lam, e in zip(lams, idx):
                term *= lam**e
            total += term
        assert total == direct


def test_polynomial_coefficients_nonnegative():
    rng = Random(3307)
    for _ in range(10):
        n = rng.randint(2, 3)
        k = rng.randint(2, 3)
        bodies = tuple(
            AxisBox.from_lengths([Fraction(rng.randint(0, 3)) for _ in range(n)]) for _ in range(k)
        )
        vp = volume_polynomial(BodyTuple(bodies))
        assert all(c >= 0 for c in vp.coefficients.values())


def test_polynomial_json_round_trip():
    vp = volume_polynomial(FLAT_TUPLE)
    doc = vp.to_json()
    indices = [tuple(e["index"]) for e in doc]
    assert indices == sorted(indices)
    back = VolumePolynomial.from_json(doc)
    assert back.coefficients == vp.coefficients
    assert (back.k, back.n) == (vp.k, vp.n)


# -- discriminants --------------------------------------------------------------


def test_mixed_discriminant_of_identities():
    eye = SymMatrix.diagonal([1, 1, 1])
    assert mixed_discriminant([eye, eye, eye]) == 1


def test_mixed_discriminant_diagonal_example():
    mats = [
        SymMatrix.diagonal([1, 1, 0]),
        SymMatrix.diagonal([1, 0, 5]),
        SymMatrix.diagonal([0, "1/3", 1]),
    ]
    assert mixed_discriminant(mats) == Fraction(4, 9)


def test_mixed_discriminant_two_by_two():
    a = SymMatrix.diagonal([1, 2])
    b = SymMatrix.diagonal([3, 4])
    assert mixed_discriminant([a, b]) == 5


def test_mixed_discriminant_multilinear():
    rng = Random(3308)
    for _ in range(15):
        n = rng.randint(2, 3)

        def rand_sym():
            entries = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    entries[j][i] = entries[i][j]
            return SymMatrix(entries)

        rest = [rand_sym() for _ in range(n - 1)]
        a, b = rand_sym(), rand_sym()
        alpha = Fraction(rng.randint(-2, 2))
        beta = Fraction(rng.randint(-2, 2))
        combo = a.scaled(alpha) + b.scaled(beta)
        lhs = mixed_discriminant([combo, *rest])
        rhs = alpha * mixed_discriminant([a, *rest]) + beta * mixed_discriminant([b, *rest])
        assert lhs == rhs


def test_mixed_discriminant_symmetry():
    rng = Random(3309)
    mats = [SymMatrix.diagonal([rng.randint(0, 4) for _ in range(3)]) for _ in range(3)]
    d = mixed_discriminant(mats)
    shuffled = list(mats)
    rng.shuffle(shuffled)
    assert mixed_discriminant(shuffled) == d


def test_diagonal_discriminant_equals_box_volume_polynomial():
    rng = Random(3310)
    for _ in range(15):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        diags = [[Fraction(rng.randint(0, 4)) for _ in range(n)] for _ in range(k)]
        mats = MatrixTuple(tuple(SymMatrix.diagonal(d) for d in diags))
        boxes = BodyTuple(tuple(AxisBox.from_lengths(d) for d in diags))
        assert discriminant_polynomial(mats).coefficients == volume_polynomial(boxes).coefficients


def test_discriminant_polynomial_examples():
    a = SymMatrix([[1, 2], [2, 1]])  # det -3
    dp = discriminant_polynomial(MatrixTuple((a,)))
    assert dp.coefficients == {(2,): Fraction(-3)}
    eye = SymMatrix.diagonal([1, 1, 1])
    dp3 = discriminant_polynomial(MatrixTuple((eye, eye)))
    assert all(c == 1 for c in dp3.coefficients.values())


def test_diagonal_shortcut_is_permanent():
    rng = Random(3311)
    for _ in range(20):
        n = rng.randint(2, 4)
        diags = [[Fraction(rng.randint(0, 4)) for _ in range(n)] for _ in range(n)]
        mats = [SymMatrix.diagonal(d) for d in diags]
        from math import factorial

        assert mixed_discriminant(mats) == permanent(Matrix(diags)) / factorial(n)


# -- per-tuple evaluator: zonotope and vertex-sum tuples ----------------------------


def _small(rng):
    return Fraction(rng.randint(-2, 2), rng.randint(1, 3))


@pytest.mark.parametrize("k, n", list(product((2, 3, 4), repeat=2)))
def test_zonotope_routes_agree(k, n):
    # Polarization goes through the evaluator, interpolation through
    # volume(minkowski_sum(...)), the oracle through one |det| per choice.
    rng = Random(3400 + 10 * k + n)
    for _ in range(2):
        gens = [[tuple(_small(rng) for _ in range(n)) for _ in range(rng.randint(1, 2))] for _ in range(k)]
        gens[rng.randrange(k)].append((Fraction(0),) * n)
        t = BodyTuple(tuple(Zonotope(n, tuple(g)) for g in gens))
        by_polarization = volume_polynomial(t).coefficients
        assert by_polarization == volume_polynomial_interpolated(t).coefficients
        assert by_polarization == zonotope_polynomial(gens, n)


def _vertex_body(rng, n):
    # A V-polytope with a repeated vertex, often flat, or a box or zonotope.
    kind = rng.choice(("vpolytope", "flat", "box", "zonotope"))
    if kind == "box":
        return AxisBox.from_lengths([abs(_small(rng)) for _ in range(n)])
    if kind == "zonotope":
        return Zonotope(n, tuple(tuple(_small(rng) for _ in range(n)) for _ in range(rng.randint(0, 2))))
    pts = [[_small(rng) for _ in range(n)] for _ in range(rng.randint(1, 6))]
    if kind == "flat":
        for p in pts:
            p[-1] = p[0]
    return VPolytope(n, tuple(map(tuple, pts + pts[:1])))


def test_vpolytope_routes_agree():
    rng = Random(3430)
    for trial in range(24):
        n, k = 1 + trial % 3, rng.randint(2, 3)
        bodies = [_vertex_body(rng, n) for _ in range(k)]
        bodies[0] = VPolytope(n, tuple(bodies[0].vertices()))
        t = BodyTuple(tuple(bodies))
        assert volume_polynomial(t).coefficients == volume_polynomial_interpolated(t).coefficients


def test_mixed_kinds_above_dimension_three():
    # As through minkowski_sum: only sums of bodies of one kind have a volume.
    t = BodyTuple((AxisBox.from_lengths([1, 2, 3, 4]), Zonotope(4, (tuple(Fraction(1) for _ in range(4)),))))
    assert coefficients(t, [(4, 0), (0, 4)]) == [24, 0]
    with pytest.raises(ValueError, match="dimensions 1..3"):
        coefficients(t, [(3, 1)])


RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "vpolytopes.json"


def test_recorded_vpolytope_tuples():
    for entry in json.loads(RECORDED.read_text(encoding="utf-8")):
        t = BodyTuple(tuple(body_from_json(b) for b in entry["bodies"]))
        recorded = {tuple(map(int, i.split(","))): Fraction(v) for i, v in entry["polynomial"].items()}
        assert volume_polynomial(t).coefficients == recorded
        assert volume_polynomial_interpolated(t).coefficients == recorded


@st.composite
def weighted_tuples(draw):
    # Bodies of every kind with zero and repeated generators, repeated and
    # flat vertex sets, and weights that leave some bodies out.
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * n)
    kinds = st.sampled_from(("box", "zonotope", "vpolytope") if n <= 3 else ("zonotope",))
    bodies = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "box":
            bodies.append(AxisBox(tuple((lo, lo + abs(d)) for lo, d in zip(draw(point), draw(point)))))
        elif kind == "zonotope":
            bodies.append(Zonotope(n, tuple(draw(st.lists(point, max_size=3)))))
        else:
            pts = draw(st.lists(point, min_size=1, max_size=5))
            bodies.append(VPolytope(n, tuple(pts + pts[:1])))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(bodies), max_size=len(bodies)))
    return bodies, weights


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(weighted_tuples())
def test_weighted_volume_matches_minkowski_sum_property(case):
    bodies, weights = case
    parts = [(c, b) for c, b in zip(weights, bodies) if c]
    v = weighted_volume(bodies)(weights)
    assert type(v) is Fraction
    assert v == (volume(minkowski_sum(parts)) if parts else 0)


def _zonotopes_3x3():
    rng = Random(3440)
    return tuple(
        Zonotope(3, tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)))
        for _ in range(3)
    )


@pytest.mark.parametrize("route", [lambda zs: volume_polynomial(BodyTuple(zs)), mixed_volume], ids=["volpoly", "mixvol"])
def test_zonotope_tuple_computes_each_determinant_once(monkeypatch, route):
    # C(9, 3) = 84 subsets of the nine generators; each weighted sum's own
    # volume used to take 273 determinants for the polynomial, 147 for V(1,1,1).
    calls = {"integer_determinant": 0, "determinant": 0}

    def counting(name):
        inner = getattr(bodies_module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bodies_module, name, counting(name))
    route(_zonotopes_3x3())
    assert calls == {"integer_determinant": 84, "determinant": 0}


def test_vpolytope_polynomial_with_large_distinct_denominators():
    # Six vertices per body, each with its own 200-digit denominator: every
    # weighted sum's points keep their own lcm.  Equal to polarization over
    # volume(minkowski_sum(...)), the route every tuple took before.
    rng = Random(2301)
    bodies = []
    for _ in range(3):
        verts = []
        for _ in range(6):
            d = rng.randrange(10**199, 10**200)
            verts.append(tuple(Fraction(rng.randint(-d, d), d) for _ in range(3)))
        bodies.append(VPolytope(3, tuple(verts)))
    t = BodyTuple(tuple(bodies))
    start = time.perf_counter()
    vp = volume_polynomial(t)
    assert time.perf_counter() - start < 20
    cache = {}
    evaluate = partial(_weighted_volume, t.bodies)
    assert vp.coefficients == {i: _polarize(evaluate, i, 3, cache) for i in discrete_simplex(3, 3)}


@pytest.mark.parametrize("coplanar", [False, True], ids=["spatial", "coplanar"])
def test_zonotope_of_many_generators_with_cubes(coplanar):
    # V(Z, C, C) = (1/3)·Σ_g ‖g‖₁ for the unit cube C.  With every distinct
    # subset sum of its 14 generators as a vertex (7,904 here, against 176
    # extreme points), the spatial case took 32 s.
    rng = Random(3450)
    gens = []
    while len(gens) < 14:
        g = [rng.randint(-4, 4) for _ in range(3)]
        if coplanar:
            g[2] = g[0] - g[1]
        if any(g):
            gens.append(tuple(map(Fraction, g)))
    z = Zonotope(3, tuple(gens))
    cube = VPolytope(3, tuple(AxisBox.from_lengths([1, 1, 1]).vertices()))
    start = time.perf_counter()
    v = mixed_volume([z, cube, cube])
    assert time.perf_counter() - start < 10
    assert v == Fraction(sum(abs(x) for g in gens for x in g), 3)
    if coplanar:  # a zonogon: two vertices per direction of its generators
        directions = {tuple(x / next(y for y in g if y) for x in g) for g in gens}
        assert len(z.vertices()) == 2 * len(directions)
