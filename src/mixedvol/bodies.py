"""Convex bodies: axis-aligned boxes, zonotopes, and low-dimensional
V-polytopes, with exact scaling, Minkowski sums, and volume.

Degenerate (lower-dimensional) bodies are first-class citizens: a box may have
point intervals, a zonotope may have dependent generators, and volume is then
0.  The counterexample bodies this package exists to handle are all flat.

General polytopes are supported only up to ambient dimension 3, where an
incremental convex hull with exact orientation predicates is tractable; boxes
and zonotopes work in any dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence, Union

from .numerics import (
    Matrix,
    RationalLike,
    as_index,
    as_rational,
    determinant,
    eliminate,
    format_rational,
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
        # Subset sums; a superset of the true vertex set, which downstream
        # hull construction is required to tolerate.
        pts = [tuple(Fraction(0) for _ in range(self.dim))]
        for g in self.generators:
            pts = [p for p in pts] + [tuple(a + b for a, b in zip(p, g)) for p in pts]
            pts = list(dict.fromkeys(pts))
        return pts


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
    acc = [tuple(Fraction(0) for _ in range(n))]
    for lam, b in scaled:
        vs = [tuple(lam * x for x in v) for v in b.vertices()]
        acc = list(dict.fromkeys(tuple(a + c for a, c in zip(p, v)) for p in acc for v in vs))
    return VPolytope(n, tuple(acc))


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


def _orient3d(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    # Determinant of the rows b-a, c-a, d-a: positive iff d lies on the
    # positive side of the oriented plane through a, b, c.
    (ax, ay, az) = a
    u = (b[0] - ax, b[1] - ay, b[2] - az)
    v = (c[0] - ax, c[1] - ay, c[2] - az)
    w = (d[0] - ax, d[1] - ay, d[2] - az)
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


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

    # Seed tetrahedron: the first point, then each point whose difference from
    # it raises the rank (first distinct, first non-collinear, first
    # non-coplanar).  Their count is the affine dimension.
    echelon: list[tuple[int, list[Fraction]]] = []
    seed = []
    for i in range(1, len(pts)):
        if eliminate(echelon, [x - y for x, y in zip(pts[i], pts[0])], 3):
            seed.append(i)
            if len(seed) == 3:
                break
    if len(seed) < 3:
        return Hull3D(points=tuple(pts), affine_dim=len(seed), facets=())
    i1, i2, i3 = seed
    if _orient3d(pts[0], pts[i1], pts[i2], pts[i3]) > 0:
        i1, i2 = i2, i1
    # Now orient3d(p0,p1,p2,p3) < 0, so each face below sees the remaining
    # vertex on its negative side: outward orientation.
    facets = [(0, i1, i2), (0, i2, i3), (0, i3, i1), (i1, i3, i2)]

    done = {0, i1, i2, i3}
    for ip, p in enumerate(pts):
        if ip in done:
            continue
        vis = []
        strictly_outside = False
        for f in facets:
            o = _orient3d(pts[f[0]], pts[f[1]], pts[f[2]], p)
            if o > 0:
                strictly_outside = True
            if o >= 0:
                vis.append(f)
        if not strictly_outside:
            continue  # inside the hull, or on its boundary
        vis_set = set(vis)
        # Horizon: directed edges of visible facets whose opposite direction
        # belongs to a kept facet. Closed visibility (o >= 0 above) removes
        # whole coplanar clusters, so horizon edges are never collinear with p
        # and no degenerate facet can be created.
        edges = set()
        for a, b, c in vis:
            for e in ((a, b), (b, c), (c, a)):
                edges.add(e)
        facets = [f for f in facets if f not in vis_set]
        for u, v in edges:
            if (v, u) not in edges:
                facets.append((u, v, ip))
    return Hull3D(points=tuple(pts), affine_dim=3, facets=tuple(facets))


def hull_volume(h: Hull3D) -> Fraction:
    if h.affine_dim < 3:
        return Fraction(0)
    ref = h.points[h.facets[0][0]]
    total = Fraction(0)
    for a, b, c in h.facets:
        total += _orient3d(ref, h.points[a], h.points[b], h.points[c])
    # Outward facets make each cone volume nonnegative relative to a hull point.
    return total / 6


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
