"""Independent reference implementations used only by the tests.

These are deliberately naive (factorial-time permutation sums) so that any
bug in the fast routes cannot be mirrored here.  Keep them slow and obvious.
"""

import importlib
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, lcm
from random import Random

import mpmath

from mixedvol.bodies import Hull3D, minkowski_sum, volume
from mixedvol.inequalities import (
    FAILS,
    HOLDS,
    VACUOUS,
    Certificate,
    Report,
    envelope_vertex_comparisons,
    triple_certificate,
)
from mixedvol.mixed import discrete_simplex, mixed_volume
from mixedvol.numerics import INFEASIBLE, Matrix, as_rational, matrix_rank, simplex_max

# The package re-exports the function ``search`` under the submodule's name.
S = importlib.import_module("mixedvol.search")


def naive_permanent(rows):
    n = len(rows)
    total = Fraction(0)
    for sigma in permutations(range(n)):
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][sigma[i]]
        total += term
    return total


def naive_determinant(rows):
    n = len(rows)
    total = Fraction(0)
    for sigma in permutations(range(n)):
        # sign by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        term = Fraction(1) if inv % 2 == 0 else Fraction(-1)
        for i in range(n):
            term *= rows[i][sigma[i]]
        total += term
    return total


def zonotope_polynomial(generators, n):
    """V_I of the zonotopes with the given generator lists: (1/n!) times the
    sum of |det| over one generator per slot, body j filling I_j slots."""
    out = {}
    for index in discrete_simplex(len(generators), n):
        slots = [generators[j] for j, m in enumerate(index) for _ in range(m)]
        total = sum((abs(naive_determinant(choice)) for choice in product(*slots)), Fraction(0))
        out[index] = total / factorial(n)
    return out


def leading_minors_positive(rows):
    """Sylvester's criterion, one naive determinant per leading minor."""
    return all(naive_determinant([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1))


def orient3d(a, b, c, d):
    """Determinant of the rows b-a, c-a, d-a, in Fractions: positive iff d
    lies on the positive side of the oriented plane through a, b, c."""
    (ax, ay, az) = a
    u = (b[0] - ax, b[1] - ay, b[2] - az)
    v = (c[0] - ax, c[1] - ay, c[2] - az)
    w = (d[0] - ax, d[1] - ay, d[2] - az)
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def fraction_hull_volume(h):
    """Volume of a hull as the sum of its facet cones, in Fractions."""
    if h.affine_dim < 3:
        return Fraction(0)
    ref = h.points[h.facets[0][0]]
    return sum((orient3d(ref, *(h.points[i] for i in f)) for f in h.facets), Fraction(0)) / 6


def _cross3(o, a, b):
    u = (a[0] - o[0], a[1] - o[1], a[2] - o[2])
    v = (b[0] - o[0], b[1] - o[1], b[2] - o[2])
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def seeded_by_scans_convex_hull_3d(points):
    """The 3D hull as it was before its seed came from one elimination pass:
    a rank pre-pass for the affine dimension, then three scans for the first
    distinct, first non-collinear and first non-coplanar point."""
    if not points:
        raise ValueError("convex hull of an empty point set")
    pts = list(dict.fromkeys(tuple(as_rational(x) for x in p) for p in points))
    for p in pts:
        if len(p) != 3:
            raise ValueError(f"point {p} is not three-dimensional")
    base = pts[0]
    adim = matrix_rank([[x - y for x, y in zip(p, base)] for p in pts[1:]]) if len(pts) > 1 else 0
    if adim < 3:
        return Hull3D(points=tuple(pts), affine_dim=adim, facets=())
    i1 = next(i for i in range(1, len(pts)) if pts[i] != pts[0])
    i2 = next(i for i in range(i1 + 1, len(pts)) if any(c != 0 for c in _cross3(pts[0], pts[i1], pts[i])))
    i3 = next(i for i in range(i2 + 1, len(pts)) if orient3d(pts[0], pts[i1], pts[i2], pts[i]) != 0)
    if orient3d(pts[0], pts[i1], pts[i2], pts[i3]) > 0:
        i1, i2 = i2, i1
    facets = [(0, i1, i2), (0, i2, i3), (0, i3, i1), (i1, i3, i2)]
    done = {0, i1, i2, i3}
    for ip, p in enumerate(pts):
        if ip in done:
            continue
        vis = []
        strictly_outside = False
        for f in facets:
            o = orient3d(pts[f[0]], pts[f[1]], pts[f[2]], p)
            if o > 0:
                strictly_outside = True
            if o >= 0:
                vis.append(f)
        if not strictly_outside:
            continue
        vis_set = set(vis)
        edges = set()
        for a, b, c in vis:
            for e in ((a, b), (b, c), (c, a)):
                edges.add(e)
        facets = [f for f in facets if f not in vis_set]
        for u, v in edges:
            if (v, u) not in edges:
                facets.append((u, v, ip))
    return Hull3D(points=tuple(pts), affine_dim=3, facets=tuple(facets))


def random_fraction(rng: Random, lo=-5, hi=5, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_rows(rng: Random, n: int, lo=-5, hi=5, max_den=4):
    return [[random_fraction(rng, lo, hi, max_den) for _ in range(n)] for _ in range(n)]


def random_nonneg_rows(rng: Random, n: int, hi=5, max_den=3):
    return [
        [Fraction(rng.randint(0, hi), rng.randint(1, max_den)) for _ in range(n)]
        for _ in range(n)
    ]


def _solve_unique_slow(cols, rhs):
    # Gauss-Jordan on the k x s system; None unless the solution is unique.
    k, s = len(rhs), len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(s)] + [Fraction(rhs[i])] for i in range(k)]
    r = 0
    for c in range(s):
        pivot = next((i for i in range(r, k) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(k):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][s] != 0 for i in range(r, k)):
        return None
    return tuple(aug[i][s] for i in range(s))


def slow_envelope_scan(k, n, coefficients):
    """The per-candidate concave-envelope vertex scan: for every
    center I with V_I > 0, an exact LP feasibility screen over the other
    positive points, then every column subset of size <= k solved exactly.

    Returns ([(center, support, lhs, rhs, comparison), ...], checked), where
    checked counts centers with at least one other positive point.
    """
    positive = [idx for idx in discrete_simplex(k, n) if coefficients[idx] > 0]
    comparisons = []
    checked = 0
    for center in positive:
        cands = [idx for idx in positive if idx != center]
        if not cands:
            continue
        checked += 1
        eq_lhs = Matrix([[cand[i] for cand in cands] for i in range(k)])
        lp = simplex_max([Fraction(0)] * len(cands), eq_lhs, [Fraction(x) for x in center])
        if lp.status == INFEASIBLE:
            continue
        for size in range(1, min(k, len(cands)) + 1):
            for subset in combinations(cands, size):
                w = _solve_unique_slow(subset, center)
                if w is None or any(x <= 0 for x in w):
                    continue
                support = tuple(sorted(zip(subset, w)))
                q = lcm(*(x.denominator for _, x in support))
                lhs = coefficients[center] ** q
                rhs = Fraction(1)
                pieces = []
                for idx, x in support:
                    p = x.numerator * (q // x.denominator)
                    rhs *= coefficients[idx] ** p
                    pieces.append(f"V{tuple(idx)}^{p}")
                comparison = f"V{tuple(center)}^{q} vs " + " * ".join(pieces)
                comparisons.append((center, support, lhs, rhs, comparison))
    return comparisons, checked


# Alexandrov-Fenchel, triple and Brunn-Minkowski reports built from one
# separate mixed volume (or discriminant) call per term, each polarizing
# afresh: the checks as they were before they shared one evaluation cache.


def per_term_af_report(items, mixed, what):
    n = len(items)
    first, second, *rest = items
    v12 = mixed([first, second, *rest])
    v11 = mixed([first, first, *rest])
    v22 = mixed([second, second, *rest])
    lhs, rhs = v12 * v12, v11 * v22
    values = (
        f"{what}(1,2,rest) = {v12}, {what}(1,1,rest) = {v11}, {what}(2,2,rest) = {v22}; "
        f"squared comparison {lhs} vs {rhs}"
    )
    if lhs >= rhs:
        return Report(verdict=HOLDS, certificates=(), checked_count=1, diagnostic=values)
    half = Fraction(1, 2)
    cert = Certificate(
        center=(1,) * n,
        support=(((2, 0) + (1,) * (n - 2), half), ((0, 2) + (1,) * (n - 2), half)),
        lhs=lhs,
        rhs=rhs,
        comparison=f"{what}(1,2,rest)^2 vs {what}(1,1,rest)*{what}(2,2,rest)",
    )
    return Report(verdict=FAILS, certificates=(cert,), checked_count=1, diagnostic=values)


def per_term_triple_report(bodies):
    a1, a2, a3 = bodies
    v123 = mixed_volume([a1, a2, a3])
    v112 = mixed_volume([a1, a1, a2])
    v223 = mixed_volume([a2, a2, a3])
    v331 = mixed_volume([a3, a3, a1])
    third = Fraction(1, 3)
    cert = Certificate(
        center=(1, 1, 1),
        support=(((2, 1, 0), third), ((0, 2, 1), third), ((1, 0, 2), third)),
        lhs=v123**3,
        rhs=v112 * v223 * v331,
        comparison="V(1,1,1)^3 vs V(2,1,0)^1 * V(0,2,1)^1 * V(1,0,2)^1",
    )
    values = (
        f"V(A1,A2,A3) = {v123}, V(A1,A1,A2) = {v112}, "
        f"V(A2,A2,A3) = {v223}, V(A3,A3,A1) = {v331}; cubed comparison {cert.lhs} vs {cert.rhs}"
    )
    if cert.lhs >= cert.rhs:
        return Report(verdict=HOLDS, certificates=(), checked_count=1, diagnostic=values)
    return Report(verdict=FAILS, certificates=(cert,), checked_count=1, diagnostic=values)


def per_term_bm_report(a, b, n):
    seq = [mixed_volume([a] * j + [b] * (n - j)) for j in range(n + 1)]
    certs = []
    for j in range(1, n):
        if seq[j] ** 2 < seq[j - 1] * seq[j + 1]:
            up, down = (j + 1, n - j - 1), (j - 1, n - j + 1)
            certs.append(
                Certificate(
                    center=(j, n - j),
                    support=((up, Fraction(1, 2)), (down, Fraction(1, 2))),
                    lhs=seq[j] ** 2,
                    rhs=seq[j + 1] * seq[j - 1],
                    comparison=f"V{(j, n - j)}^2 vs V{up}^1 * V{down}^1",
                )
            )
    with mpmath.workdps(64):
        vsum = volume(minkowski_sum([(Fraction(1), a), (Fraction(1), b)]))
        gap = (
            mpmath.root(mpmath.mpf(vsum.numerator) / vsum.denominator, n)
            - mpmath.root(mpmath.mpf(seq[n].numerator) / seq[n].denominator, n)
            - mpmath.root(mpmath.mpf(seq[0].numerator) / seq[0].denominator, n)
        )
        diagnostic = (
            f"root form V(A+B)^(1/{n}) - V(A)^(1/{n}) - V(B)^(1/{n}) "
            f"= {mpmath.nstr(gap, 12)} (64-digit float, non-authoritative)"
        )
    verdict = VACUOUS if n == 1 else FAILS if certs else HOLDS
    return Report(verdict=verdict, certificates=tuple(certs), checked_count=n - 1, diagnostic=diagnostic)


def _per_candidate_evaluate(sp, target, digits, index):
    # The per-candidate evaluation as it was before the triple target had one
    # evaluator: the ratio and the certificate come from separate permanent
    # calls, and the envelope keeps the first strictly best vertex.
    if target == S.TRIPLE:
        p123, p112, p223, p331 = S._triple_perms(sp, digits)
        lhs, rhs = p123**3, p112 * p223 * p331
        if rhs == 0:
            return Fraction(0), None
        if lhs == 0:
            raise ArithmeticError("cyclic product positive while the mixed volume vanishes")
        ratio = Fraction(rhs, lhs)
        if ratio <= 1:
            return ratio, None
        scale = Fraction(1, sp.denom**sp.n * factorial(sp.n))
        cert = triple_certificate(*(p * scale for p in S._triple_perms(sp, digits)))
        side = S._candidate_matrix(sp, digits)
        return ratio, S.Finding(
            index=index, side_matrix=side, certificate=cert, violation_ratio=cert.rhs / cert.lhs
        )
    best, best_cert = Fraction(0), None
    for cert in envelope_vertex_comparisons(S._box_polynomial(sp, digits)):
        ratio = cert.rhs / cert.lhs
        if ratio > best:
            best, best_cert = ratio, cert
    if best > 1 and best_cert is not None:
        side = S._candidate_matrix(sp, digits)
        return best, S.Finding(index=index, side_matrix=side, certificate=best_cert, violation_ratio=best)
    return best, None


def per_candidate_scan(space, config, start, stop):
    """The search scan as it was before exhaustive triple scans went by body
    rows: decode each index and evaluate it on its own, keeping every hit."""
    out = []
    for index in range(start, stop):
        digits = S._candidate_digits(space, config, index)
        _, finding = _per_candidate_evaluate(space, config.target, digits, index)
        if finding is not None:
            out.append(finding)
    return out
