"""Convex bodies: axis-aligned boxes, zonotopes, and low-dimensional
V-polytopes, with exact scaling, Minkowski sums, and volume.

Degenerate (lower-dimensional) bodies are first-class citizens: a box may have
point intervals, a zonotope may have dependent generators, and volume is then
0.  The counterexample bodies this package exists to handle are all flat.

General polytopes are supported only up to ambient dimension 3, by an
incremental convex hull on integers, each point cleared of its own
denominators and each facet storing its plane; boxes and zonotopes work in
any dimension.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from typing import Callable, Iterable, Sequence, Union

from .numerics import (
    Matrix,
    RationalLike,
    as_index,
    as_rational,
    clear_denominators,
    determinant,
    format_rational,
    integer_determinant,
    matrix_rank,
)

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]; lo = hi is a valid point interval."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class AxisBox:
    """Axis-parallel box, the product of one interval per coordinate."""

    sides: tuple[Interval, ...]

    def __post_init__(self):
        sides = tuple(
            s if isinstance(s, Interval) else Interval(as_rational(s[0]), as_rational(s[1]))
            for s in self.sides
        )
        if not sides:
            raise ValueError("a box needs at least one side")
        object.__setattr__(self, "sides", sides)

    @classmethod
    def from_lengths(cls, lengths: Iterable[RationalLike]) -> "AxisBox":
        """Box [0, a_1] x ... x [0, a_n] from nonnegative side lengths."""
        sides = []
        for a in lengths:
            a = as_rational(a)
            if a < 0:
                raise ValueError(f"box side length must be nonnegative, got {a}")
            sides.append(Interval(Fraction(0), a))
        return cls(tuple(sides))

    @property
    def dim(self) -> int:
        return len(self.sides)

    def vertices(self) -> list[Point]:
        corners = [(s.lo,) if s.lo == s.hi else (s.lo, s.hi) for s in self.sides]
        return [tuple(p) for p in product(*corners)]


@dataclass(frozen=True)
class Zonotope:
    """Minkowski sum of the segments [0, v] over the generators v."""

    dim: int
    generators: tuple[Point, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        gens = tuple(tuple(as_rational(x) for x in g) for g in self.generators)
        for g in gens:
            if len(g) != self.dim:
                raise ValueError(f"generator {g} does not have length {self.dim}")
        object.__setattr__(self, "generators", gens)

    def vertices(self) -> list[Point]:
        # Subset sums of the generators.  In dimension <= 3 each step keeps
        # only the extreme points, O(m^2) of them for m generators instead of
        # up to 2^m; above that every distinct sum stays.
        origin = (0,) * self.dim + (1,)
        pts = [origin]
        for g in _homogeneous(self.generators):
            pts = _sum_points(pts, [origin, g])
            if self.dim <= 3:
                pts = _extreme_points(pts)
        return _fraction_points(pts)


@dataclass(frozen=True)
class VPolytope:
    """Convex hull of a vertex list; redundant (interior) points are allowed."""

    dim: int
    verts: tuple[Point, ...]

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError("vertex-set polytopes are supported only in dimensions 1..3")
        if not self.verts:
            raise ValueError("a polytope needs at least one vertex")
        pts = tuple(tuple(as_rational(x) for x in v) for v in self.verts)
        for p in pts:
            if len(p) != self.dim:
                raise ValueError(f"vertex {p} does not have length {self.dim}")
        object.__setattr__(self, "verts", pts)

    def vertices(self) -> list[Point]:
        return list(self.verts)


Body = Union[AxisBox, Zonotope, VPolytope]


def scale(b: Body, lam: RationalLike) -> Body:
    """Dilate a body by a nonnegative rational factor."""
    lam = as_rational(lam)
    if lam < 0:
        raise ValueError(f"scaling factor must be nonnegative, got {lam}")
    if isinstance(b, AxisBox):
        return AxisBox(tuple(Interval(lam * s.lo, lam * s.hi) for s in b.sides))
    if isinstance(b, Zonotope):
        return Zonotope(b.dim, tuple(tuple(lam * x for x in g) for g in b.generators))
    if isinstance(b, VPolytope):
        return VPolytope(b.dim, tuple(tuple(lam * x for x in v) for v in b.verts))
    raise TypeError(f"not a body: {type(b).__name__}")


def minkowski_sum(parts: Sequence[tuple[RationalLike, Body]]) -> Body:
    """Weighted Minkowski sum Σ λ_i B_i with λ_i ≥ 0.

    Closure rules: boxes sum to a box of interval sums, zonotopes to the
    zonotope of concatenated scaled generators, and any mixed-kind combination
    falls back to summing vertex sets, which requires ambient dimension ≤ 3.
    """
    if not parts:
        raise ValueError("minkowski_sum needs at least one part")
    scaled = [(as_rational(lam), b) for lam, b in parts]
    for lam, _ in scaled:
        if lam < 0:
            raise ValueError(f"Minkowski coefficient must be nonnegative, got {lam}")
    dims = {b.dim for _, b in scaled}
    if len(dims) != 1:
        raise ValueError(f"bodies live in different ambient dimensions: {sorted(dims)}")
    n = dims.pop()

    if all(isinstance(b, AxisBox) for _, b in scaled):
        sides = []
        for j in range(n):
            lo = sum((lam * b.sides[j].lo for lam, b in scaled), Fraction(0))
            hi = sum((lam * b.sides[j].hi for lam, b in scaled), Fraction(0))
            sides.append(Interval(lo, hi))
        return AxisBox(tuple(sides))

    if all(isinstance(b, Zonotope) for _, b in scaled):
        gens: list[Point] = []
        for lam, b in scaled:
            gens.extend(tuple(lam * x for x in g) for g in b.generators)
        return Zonotope(n, tuple(gens))

    if n > 3:
        raise ValueError("mixed-kind Minkowski sums are supported only in dimensions 1..3")
    acc = [(0,) * n + (1,)]
    for lam, b in scaled:
        acc = _sum_points(acc, _homogeneous([tuple(lam * x for x in v) for v in b.vertices()]))
    return VPolytope(n, tuple(_fraction_points(acc)))


def affine_dimension(b: Body) -> int:
    """Dimension of the affine hull, computed by exact rank."""
    if isinstance(b, AxisBox):
        return sum(1 for s in b.sides if s.length > 0)
    if isinstance(b, Zonotope):
        return matrix_rank([list(g) for g in b.generators])
    pts = b.vertices()
    base = pts[0]
    return matrix_rank([[x - y for x, y in zip(p, base)] for p in pts[1:]])


# ---------------------------------------------------------------------------
# Exact convex hulls


def _homogeneous(points: Sequence[Point]) -> list[tuple[int, ...]]:
    # Each point as integers (X, ..., W) cleared of its own denominators:
    # one W for all points would make every coordinate huge.
    return [(*x, w) for x, w in map(clear_denominators, points)]


def _fraction_points(hom: Sequence[tuple[int, ...]]) -> list[Point]:
    return [tuple(Fraction(x, p[-1]) for x in p[:-1]) for p in hom]


def _sum_points(acc, pts, c: int = 1) -> list[tuple[int, ...]]:
    # The distinct points p + c*v of homogeneous points, each over the lcm of
    # its two W and reduced by its gcd, so equal points have equal integers.
    out = {}
    for p in acc:
        wp = p[-1]
        for v in pts:
            wv = v[-1]
            w = wp * wv // gcd(wp, wv)
            a, b = w // wp, c * (w // wv)
            s = [a * x + b * y for x, y in zip(p, v)]
            s[-1] = w
            g = gcd(*s)
            out[tuple(x // g for x in s) if g > 1 else tuple(s)] = None
    return list(out)


def _facet(hom, a: int, b: int, c: int) -> tuple[int, ...]:
    # (a, b, c, n, δ) with n = W_a·B×C + W_b·C×A + W_c·A×B, which is
    # W_a·W_b·W_c·(b−a)×(c−a), and δ = A·(B×C): a point D lies on the positive
    # side of the oriented plane through a, b, c iff n·D − W_d·δ > 0.
    (ax, ay, az, aw), (bx, by, bz, bw), (cx, cy, cz, cw) = hom[a], hom[b], hom[c]
    u, v, t = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx  # B×C
    nx = aw * u + bw * (cy * az - cz * ay) + cw * (ay * bz - az * by)
    ny = aw * v + bw * (cz * ax - cx * az) + cw * (az * bx - ax * bz)
    nz = aw * t + bw * (cx * ay - cy * ax) + cw * (ax * by - ay * bx)
    return a, b, c, nx, ny, nz, ax * u + ay * v + az * t


def _side(f: tuple[int, ...], p: tuple[int, ...]) -> int:
    return f[3] * p[0] + f[4] * p[1] + f[5] * p[2] - p[3] * f[6]


def _hull(hom: list[tuple[int, int, int, int]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Seed and outward facets, each with its plane, of distinct homogeneous
    points in R^3.  The seed is the first point, then each point that raises
    the affine dimension: its length is that dimension plus one."""
    seed, plane = [0], None
    for i in range(1, len(hom)):
        if len(seed) == 2:
            raised = any(_facet(hom, 0, seed[1], i)[3:6])  # not collinear
        else:
            raised = plane is None or _side(plane, hom[i]) != 0  # distinct, or not coplanar
        if raised:
            seed.append(i)
            if len(seed) == 3:
                plane = _facet(hom, *seed)
            elif len(seed) == 4:
                break
    if len(seed) < 4:
        return seed, []
    _, i1, i2, i3 = seed
    if _side(plane, hom[i3]) > 0:
        i1, i2 = i2, i1
    # Now i3 lies on the negative side of (0, i1, i2), so each face below sees
    # the remaining vertex on its negative side: outward orientation.
    facets = [_facet(hom, *f) for f in ((0, i1, i2), (0, i2, i3), (0, i3, i1), (i1, i3, i2))]
    done = set(seed)
    for ip, (x, y, z, w) in enumerate(hom):
        if ip in done:
            continue
        sides = [nx * x + ny * y + nz * z - w * d for _, _, _, nx, ny, nz, d in facets]
        if max(sides) <= 0:
            continue  # inside the hull, or on its boundary
        # Horizon: directed edges of visible facets whose opposite direction
        # belongs to a kept facet. Closed visibility (side >= 0) removes whole
        # coplanar clusters, so horizon edges are never collinear with the
        # point and no degenerate facet can be created.
        edges = set()
        for f, s in zip(facets, sides):
            if s >= 0:
                a, b, c = f[:3]
                edges.update(((a, b), (b, c), (c, a)))
        facets = [f for f, s in zip(facets, sides) if s < 0]
        facets.extend(_facet(hom, u, v, ip) for u, v in edges if (v, u) not in edges)
    return seed, facets


def _fraction_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    # Σ num/den, adding the numerators of equal denominators as integers first.
    sums: dict[int, int] = defaultdict(int)
    for num, den in terms:
        sums[den] += num
    return sum((Fraction(s, d) for d, s in sums.items()), Fraction(0))


def _hull_volume(hom, facets) -> Fraction:
    # The cones from the origin over the outward facets: Σ det(a, b, c) / 6.
    return _fraction_sum((f[6], hom[f[0]][3] * hom[f[1]][3] * hom[f[2]][3]) for f in facets) / 6


@dataclass(frozen=True)
class Hull3D:
    """Hull of a 3D point set.

    ``facets`` index into ``points`` and carry outward orientation (every hull
    point is on the nonpositive side of every facet plane).  For affinely
    degenerate input ``affine_dim`` < 3 and the facet list is empty.
    """

    points: tuple[Point, ...]
    affine_dim: int
    facets: tuple[tuple[int, int, int], ...]


def convex_hull_3d(points: Sequence[Sequence[RationalLike]]) -> Hull3D:
    """Incremental convex hull in R^3 with exact orientation predicates."""
    if not points:
        raise ValueError("convex hull of an empty point set")
    pts: list[Point] = list(
        dict.fromkeys(tuple(as_rational(x) for x in p) for p in points)
    )
    for p in pts:
        if len(p) != 3:
            raise ValueError(f"point {p} is not three-dimensional")
    seed, facets = _hull(_homogeneous(pts))
    return Hull3D(points=tuple(pts), affine_dim=len(seed) - 1, facets=tuple(f[:3] for f in facets))


def hull_volume(h: Hull3D) -> Fraction:
    if h.affine_dim < 3:
        return Fraction(0)
    hom = _homogeneous(h.points)
    return _hull_volume(hom, [_facet(hom, *f) for f in h.facets])


def _extreme_points(hom: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # The vertices of the hull of distinct homogeneous points in dimension
    # <= 3, in input order: the 3D hull's facet vertices, or else the 2D hull
    # of a projection that is one to one on the points' affine hull.
    pad = (0,) * (4 - len(hom[0]))
    hom3 = [p[:-1] + pad + p[-1:] for p in hom]
    seed, facets = _hull(hom3)
    if facets:
        keep = {i for f in facets for i in f[:3]}
    else:
        if len(seed) == 3:  # coplanar: drop a coordinate the normal has
            k = next(j for j, x in enumerate(_facet(hom3, *seed)[3:6]) if x)
        else:  # collinear: keep a coordinate the line moves in, and one more
            p, q = hom3[0], hom3[seed[-1]]
            k = next((j for j in range(3) if p[j] * q[3] != q[j] * p[3]), 0) - 1
        a, b = (j for j in range(3) if j != k % 3)
        flat = [(Fraction(p[a], p[3]), Fraction(p[b], p[3])) for p in hom3]
        corners = set(_hull_2d(flat))
        keep = {i for i, q in enumerate(flat) if q in corners}
    return [p for i, p in enumerate(hom) if i in keep]


def _hull_2d(pts: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    # Monotone chain; returns the hull boundary counterclockwise.
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[Fraction, Fraction]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon_area(pts: list[tuple[Fraction, Fraction]]) -> Fraction:
    hull = _hull_2d(pts)
    if len(hull) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        s += x1 * y2 - x2 * y1
    return s / 2


def volume(b: Body) -> Fraction:
    """Exact n-dimensional volume; lower-dimensional bodies return 0."""
    if isinstance(b, AxisBox):
        v = Fraction(1)
        for s in b.sides:
            v *= s.length
        return v
    if isinstance(b, Zonotope):
        gens = [g for g in b.generators if any(x != 0 for x in g)]
        n = b.dim
        if len(gens) < n:
            return Fraction(0)
        total = Fraction(0)
        for sub in combinations(gens, n):
            d = determinant(Matrix(sub))
            total += d if d >= 0 else -d
        return total
    if isinstance(b, VPolytope):
        if b.dim == 1:
            xs = [v[0] for v in b.verts]
            return max(xs) - min(xs)
        if b.dim == 2:
            return _polygon_area([(v[0], v[1]) for v in b.verts])
        return hull_volume(convex_hull_3d(b.verts))
    raise TypeError(f"not a body: {type(b).__name__}")


def weighted_volume(bodies: Sequence[Body]) -> Callable[[Sequence[int]], Fraction]:
    """``evaluate(c)`` = Vol(Σ c_j B_j) for nonnegative integer weights c,
    with the bodies' numbers cleared to integers once for all calls.

    Zonotopes: Σ over n-subsets T of all generators of Π_{g∈T} c_body(g) ·
    |det X_T| / Π_{g∈T} W_g, each |det X_T| computed once.  Otherwise, in
    dimension <= 3: integer vertex sums and the integer 3D hull."""
    n = bodies[0].dim
    if all(isinstance(b, Zonotope) for b in bodies):
        gens = [(j, *clear_denominators(g)) for j, b in enumerate(bodies) for g in b.generators if any(g)]
        sums: dict = defaultdict(int)  # (bodies of T, Π W_g) -> Σ |det X_T|
        for sub in combinations(gens, n):
            d = integer_determinant([list(x) for _, x, _ in sub])
            sums[tuple(j for j, _, _ in sub), prod(w for _, _, w in sub)] += abs(d)
        return lambda c: _fraction_sum((s * prod(c[j] for j in js), w) for (js, w), s in sums.items())
    if n > 3:
        return lambda c: volume(minkowski_sum([(w, b) for w, b in zip(c, bodies) if w]))
    verts = [list(dict.fromkeys(_homogeneous(b.vertices()))) for b in bodies]

    def evaluate(c: Sequence[int]) -> Fraction:
        pts = [(0,) * n + (1,)]
        for w, vs in zip(c, verts):
            if w:
                pts = _sum_points(pts, vs, w)
        if n < 3:
            return volume(VPolytope(n, tuple(_fraction_points(pts))))
        return _hull_volume(pts, _hull(pts)[1])

    return evaluate


# ---------------------------------------------------------------------------
# JSON encoding


def body_to_json(b: Body) -> dict:
    if isinstance(b, AxisBox):
        return {
            "type": "box",
            "intervals": [[format_rational(s.lo), format_rational(s.hi)] for s in b.sides],
        }
    if isinstance(b, Zonotope):
        return {
            "type": "zonotope",
            "dimension": b.dim,
            "generators": [[format_rational(x) for x in g] for g in b.generators],
        }
    if isinstance(b, VPolytope):
        return {
            "type": "vpolytope",
            "vertices": [[format_rational(x) for x in v] for v in b.verts],
        }
    raise TypeError(f"not a body: {type(b).__name__}")


def body_from_json(doc: object) -> Body:
    if not isinstance(doc, dict):
        raise ValueError("body document must be a JSON object")
    kind = doc.get("type")
    try:
        if kind == "box":
            ivs = doc["intervals"]
            return AxisBox(tuple(Interval(as_rational(lo), as_rational(hi)) for lo, hi in ivs))
        if kind == "zonotope":
            gens = [tuple(as_rational(x) for x in g) for g in doc["generators"]]
            dim = doc.get("dimension", len(gens[0]) if gens else 0)
            return Zonotope(as_index(dim), tuple(gens))
        if kind == "vpolytope":
            verts = [tuple(as_rational(x) for x in v) for v in doc["vertices"]]
            if not verts:
                raise ValueError("vpolytope needs at least one vertex")
            return VPolytope(len(verts[0]), tuple(verts))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed body document of type {kind!r}: {exc}") from exc
    raise ValueError(f"unknown body type {kind!r} (expected box, zonotope, or vpolytope)")
