"""Exact verification of the Alexandrov-Fenchel inequality family and of
concavity of f(I) = log V_I on the discrete simplex.

No logarithm is ever evaluated in a verdict path.  A concavity comparison
with rational weights w_J = p_J / q (common denominator q) is decided by
comparing V_I^q against Π_J V_J^{p_J} in exact rational arithmetic; f(I) for
V_I = 0 is treated as negative infinity, which can never win a comparison.
The only floating point in this module is an explicitly non-authoritative
diagnostic attached to the Brunn-Minkowski surrogate check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, lcm
from typing import Mapping, Sequence

from .bodies import Body, minkowski_sum, volume
from .mixed import (
    BodyTuple,
    MatrixTuple,
    MultiIndex,
    VolumePolynomial,
    coefficients,
    discrete_simplex,
    mixed_discriminant,  # noqa: F401 - perfbench/spans.py traces this attribute
    mixed_volume,  # noqa: F401 - perfbench/spans.py traces this attribute
    volume_polynomial,
)
from .numerics import (
    Matrix,
    SingularSystemError,
    SymMatrix,
    as_index,
    as_rational,
    format_rational,
    is_positive_definite,
    permanent,
    simplex_max,  # noqa: F401 - perfbench/spans.py traces this attribute
    solve_linear,
)

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"


class PreconditionError(ValueError):
    """The input violates a hypothesis of the inequality being checked."""


@dataclass(frozen=True)
class Certificate:
    """Exact witness of a violated concavity comparison.

    ``support`` lists (J, w_J) with w_J > 0, Σ w_J = 1 and Σ w_J · J = center.
    ``lhs`` and ``rhs`` are the two sides after clearing roots: with common
    weight denominator q, lhs = V_center^q and rhs = Π V_J^{p_J}, p_J = w_J·q.
    A violation means lhs < rhs.
    """

    center: MultiIndex
    support: tuple[tuple[MultiIndex, Fraction], ...]
    lhs: Fraction
    rhs: Fraction
    comparison: str

    def __post_init__(self):
        k, n = len(self.center), sum(self.center)
        for idx, w in self.support:
            if w <= 0:
                raise ValueError(f"support weight of {idx} is {w}, expected > 0")
            if len(idx) != k:
                raise ValueError(f"support index {idx} has {len(idx)} coordinates, the center {k}")
        # The sides are powers V^q, so q bounds the work of every recheck.  A
        # vertex of {w >= 0 : Σ w_J J = center} solves a nonsingular s x s
        # system, s <= min(k, n), whose columns have 2-norm <= n; by Cramer
        # and Hadamard its weights have a common denominator q <= n^s.
        q = lcm(*(w.denominator for _, w in self.support))
        bound = max(n, 1) ** min(k, n)
        if q > bound:
            raise ValueError(f"weight denominator {q} exceeds n^min(k, n) = {bound}")
        total = sum((w for _, w in self.support), Fraction(0))
        if total != 1:
            raise ValueError(f"support weights sum to {total}, expected 1")
        for j in range(k):
            coord = sum((w * idx[j] for idx, w in self.support), Fraction(0))
            if coord != self.center[j]:
                raise ValueError(
                    f"support combination misses the center in coordinate {j}: {coord} != {self.center[j]}"
                )

    def to_json(self) -> dict:
        return {
            "center": list(self.center),
            "support": [
                {"index": list(idx), "weight": format_rational(w)} for idx, w in self.support
            ],
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "comparison": self.comparison,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Certificate":
        try:
            return cls(
                center=tuple(as_index(x) for x in doc["center"]),
                support=tuple(
                    (tuple(as_index(x) for x in item["index"]), as_rational(item["weight"]))
                    for item in doc["support"]
                ),
                lhs=as_rational(doc["lhs"]),
                rhs=as_rational(doc["rhs"]),
                comparison=str(doc["comparison"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate document: {exc}") from exc


@dataclass(frozen=True)
class Report:
    """Outcome of one inequality check.

    ``certificates`` is nonempty exactly when the verdict is "fails";
    ``checked_count`` is the number of comparisons (or centers) examined.
    ``diagnostic`` carries optional non-authoritative floating-point context.
    """

    verdict: str
    certificates: tuple[Certificate, ...]
    checked_count: int
    diagnostic: str | None = None

    def __post_init__(self):
        if (self.verdict == FAILS) != bool(self.certificates):
            raise ValueError("certificates must be present exactly for a failing verdict")

    @classmethod
    def of(cls, certificates: Sequence[Certificate], checked: int, diagnostic: str | None = None) -> "Report":
        """A failing verdict with these certificates, or a holding one without any."""
        return cls(FAILS if certificates else HOLDS, tuple(certificates), checked, diagnostic)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_json(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "checked": self.checked_count,
            "certificates": [c.to_json() for c in self.certificates],
        }
        if self.diagnostic is not None:
            doc["diagnostic"] = self.diagnostic
        return doc


def power_certificate(
    center: MultiIndex,
    support: Sequence[tuple[MultiIndex, Fraction]],
    values: Mapping[MultiIndex, Fraction],
) -> Certificate:
    """The comparison V_center^q vs Π V_J^{p_J}, violated or not; q is the weights' common denominator."""
    q = lcm(*(w.denominator for _, w in support))
    lhs = values[center] ** q
    rhs = Fraction(1)
    pieces = []
    for idx, w in support:
        p = w.numerator * (q // w.denominator)
        rhs *= values[idx] ** p
        pieces.append(f"V{tuple(idx)}^{p}")
    comparison = f"V{tuple(center)}^{q} vs " + " * ".join(pieces)
    return Certificate(center=center, support=tuple(support), lhs=lhs, rhs=rhs, comparison=comparison)


def recheck_certificate(vp: VolumePolynomial, cert: Certificate) -> bool:
    """Recompute both sides of a certificate from the polynomial; exact match."""
    try:
        fresh = power_certificate(cert.center, cert.support, vp.coefficients)
    except (KeyError, ValueError):
        return False
    return fresh.lhs == cert.lhs and fresh.rhs == cert.rhs and cert.lhs < cert.rhs


# ---------------------------------------------------------------------------
# Alexandrov-Fenchel


def _af_report(t: BodyTuple | MatrixTuple, what: str) -> Report:
    # The squared comparison varies the first two items and fixes the rest:
    # I = e1 + e2 + (1,...,1) on the remaining slots, halfway between the
    # doubled indices.
    rest = (1,) * (t.n - 2)
    center, a, b = (1, 1) + rest, (2, 0) + rest, (0, 2) + rest
    v12, v11, v22 = coefficients(t, [center, a, b])
    lhs, rhs = v12 * v12, v11 * v22
    values = (
        f"{what}(1,2,rest) = {v12}, {what}(1,1,rest) = {v11}, {what}(2,2,rest) = {v22}; "
        f"squared comparison {lhs} vs {rhs}"
    )
    half = Fraction(1, 2)
    cert = Certificate(
        center=center,
        support=((a, half), (b, half)),
        lhs=lhs,
        rhs=rhs,
        comparison=f"{what}(1,2,rest)^2 vs {what}(1,1,rest)*{what}(2,2,rest)",
    )
    return Report.of((cert,) if lhs < rhs else (), 1, values)


def af_check_volumes(bodies: Sequence[Body]) -> Report:
    """V(A_1,A_2,rest)^2 >= V(A_1,A_1,rest) * V(A_2,A_2,rest), exactly.

    The first two bodies are the varying pair; the rest stay fixed.
    """
    if len(bodies) < 2:
        raise ValueError("the comparison needs at least two bodies")
    return _af_report(BodyTuple.square(bodies), "V")


def af_check_discriminants(matrices: Sequence[SymMatrix]) -> Report:
    """The matrix analogue of the squared-mixed-volume inequality, for
    positive-definite symmetric matrices."""
    if len(matrices) < 2:
        raise ValueError("the comparison needs at least two matrices")
    for pos, m in enumerate(matrices):
        if not is_positive_definite(m):
            raise PreconditionError(f"matrix {pos} is not positive definite")
    return _af_report(MatrixTuple.square(matrices), "D")


# ---------------------------------------------------------------------------
# Concavity on the discrete simplex


def segment_concavity(vp: VolumePolynomial) -> Report:
    """Concavity of log V_I along simplex segments parallel to an edge:
    V_I^2 >= V_{I+e_a-e_b} * V_{I-e_a+e_b} for every valid step.

    Zero coefficients only ever help (the right side vanishes).  With no
    checkable segment at all (k = 1) the verdict is vacuous.
    """
    coeffs = vp.coefficients
    checked = 0
    certs: list[Certificate] = []
    for index in discrete_simplex(vp.k, vp.n):
        for a, b in combinations(range(vp.k), 2):
            if index[a] < 1 or index[b] < 1:
                continue
            up = list(index)
            up[a] += 1
            up[b] -= 1
            down = list(index)
            down[a] -= 1
            down[b] += 1
            plus, minus = tuple(up), tuple(down)
            checked += 1
            lhs = coeffs[index] ** 2
            rhs = coeffs[plus] * coeffs[minus]
            if lhs < rhs:
                half = Fraction(1, 2)
                certs.append(power_certificate(index, ((plus, half), (minus, half)), coeffs))
    if checked == 0:
        return Report(verdict=VACUOUS, certificates=(), checked_count=0)
    return Report.of(certs, checked)


def _solve_unique(cols: list[tuple[int, ...]], rhs: Sequence[int]) -> tuple[Fraction, ...] | None:
    # The weights w with Σ_j w_j cols[j] = rhs, when they are unique.
    try:
        return solve_linear(Matrix(list(zip(*cols))), rhs)
    except SingularSystemError:
        return None


@cache
def _vertex_table(k: int, n: int) -> tuple[tuple[MultiIndex, tuple[tuple[int, tuple, int, tuple], ...]], ...]:
    # Per center I, in simplex order: (bitmask over simplex positions, sorted
    # (J, w_J) pairs, q, (J, p_J) pairs) for every support of other points
    # with a unique, strictly positive solution of Σ w_J J = I, by size and
    # then in subset-scan order; q is the weights' common denominator and
    # p_J = w_J·q, the powers of power_certificate.  A positive w_J with
    # J_c > 0 = I_c is impossible, so supports lie in the smallest face
    # holding I, whose points span one dimension per nonzero I_c.
    points = discrete_simplex(k, n)
    table = []
    for center in points:
        zero = [c for c in range(k) if center[c] == 0]
        face = [
            (1 << pos, idx)
            for pos, idx in enumerate(points)
            if idx != center and all(idx[c] == 0 for c in zero)
        ]
        entries = []
        for size in range(1, k - len(zero) + 1):
            for subset in combinations(face, size):
                cols = [idx for _, idx in subset]
                w = _solve_unique(cols, center)
                if w is None or any(x <= 0 for x in w):
                    continue
                mask = sum(bit for bit, _ in subset)
                support = tuple(sorted(zip(cols, w)))
                q = lcm(*(x.denominator for x in w))
                powers = tuple((idx, x.numerator * (q // x.denominator)) for idx, x in support)
                entries.append((mask, support, q, powers))
        table.append((center, tuple(entries)))
    return tuple(table)


def _envelope_scan(vp: VolumePolynomial) -> tuple[list[tuple], int]:
    # For every center I with V_I > 0, the vertices of the weight polytope
    # {w >= 0 : Σ w_J J = I, support on J != I with V_J > 0} are the vertex
    # table entries whose support avoids every V_J = 0 (an empty polytope
    # keeps none).  Compare the exact powers V_I^q and Π V_J^{p_J} at each.
    # Returns every (center, support, lhs, rhs), violated or not, plus the
    # number of centers examined; power_certificate turns one into a
    # Certificate.
    coeffs = vp.coefficients
    table = _vertex_table(vp.k, vp.n)
    for center, _ in table:
        if coeffs[center] < 0:
            raise ValueError(f"log of a negative value: {coeffs[center]}")
    positive = [coeffs[center] > 0 for center, _ in table]
    zero_mask = sum(1 << pos for pos, finite in enumerate(positive) if not finite)
    others = sum(positive) > 1
    comparisons = []
    checked = 0
    for (center, entries), finite in zip(table, positive):
        if not finite or not others:
            continue
        checked += 1
        value = coeffs[center]
        for mask, support, q, powers in entries:
            if not mask & zero_mask:
                rhs = Fraction(1)
                for idx, p in powers:
                    rhs *= coeffs[idx] ** p
                comparisons.append((center, support, value**q, rhs))
    return comparisons, checked


def envelope_vertex_comparisons(vp: VolumePolynomial) -> tuple[Certificate, ...]:
    """Every vertex comparison of the concave-envelope test, violated or not.

    The weighted geometric mean over a polytope of weights is maximized at a
    vertex (the objective Σ w_J log V_J is linear in w), so these comparisons
    are exhaustive evidence for or against envelope concavity.
    """
    comparisons, _ = _envelope_scan(vp)
    return tuple(power_certificate(center, support, vp.coefficients) for center, support, *_ in comparisons)


def strongest_envelope_comparison(vp: VolumePolynomial) -> tuple[Fraction, Certificate | None]:
    """The largest rhs/lhs over the vertex comparisons (0 with none), and the
    certificate of the first comparison that attains it when it exceeds 1.

    Comparisons run over positive coefficients only, so no lhs vanishes.
    """
    comparisons, _ = _envelope_scan(vp)
    best = max(comparisons, key=lambda c: c[3] / c[2], default=None)
    ratio = Fraction(0) if best is None else best[3] / best[2]
    if ratio <= 1:
        return ratio, None
    return ratio, power_certificate(best[0], best[1], vp.coefficients)


def gromov_concavity(vp: VolumePolynomial) -> Report:
    """Concavity of log V_I against arbitrary convex combinations of other
    simplex points (the concave-envelope reading).

    For each center I with V_I > 0 the feasible weight polytope is searched
    at its vertices, where weights are rational and the comparison
    V_I^q vs Π V_J^{p_J} is exact.  The vertices are read off a table of
    weight-polytope vertices built once per (k, n): those whose support
    avoids every V_J = 0, since points with V_J = 0 can never contribute
    (log 0 = -infinity).
    """
    comparisons, checked = _envelope_scan(vp)
    violated = [
        power_certificate(center, support, vp.coefficients)
        for center, support, lhs, rhs in comparisons
        if lhs < rhs
    ]
    return Report.of(violated, checked)


def gromov_triple_check(bodies: Sequence[Body]) -> Report:
    """The three-body cyclic comparison in R^3:
    V(A_1,A_2,A_3)^3 vs V(A_1,A_1,A_2) * V(A_2,A_2,A_3) * V(A_3,A_3,A_1)."""
    if len(bodies) != 3:
        raise ValueError(f"the triple comparison needs exactly 3 bodies, got {len(bodies)}")
    if any(b.dim != 3 for b in bodies):
        raise ValueError("the triple comparison lives in dimension 3")
    v123, v112, v223, v331 = coefficients(
        BodyTuple(tuple(bodies)), [(1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)]
    )
    cert = triple_certificate(v123, v112, v223, v331)
    values = (
        f"V(A1,A2,A3) = {v123}, V(A1,A1,A2) = {v112}, "
        f"V(A2,A2,A3) = {v223}, V(A3,A3,A1) = {v331}; cubed comparison {cert.lhs} vs {cert.rhs}"
    )
    return Report.of((cert,) if cert.lhs < cert.rhs else (), 1, values)


def triple_certificate(v123: Fraction, v112: Fraction, v223: Fraction, v331: Fraction) -> Certificate:
    """The comparison V(1,1,1)^3 vs V(2,1,0) * V(0,2,1) * V(1,0,2), violated
    or not, from the four mixed volumes of a body triple."""
    third = Fraction(1, 3)
    return Certificate(
        center=(1, 1, 1),
        support=(((2, 1, 0), third), ((0, 2, 1), third), ((1, 0, 2), third)),
        lhs=v123**3,
        rhs=v112 * v223 * v331,
        comparison="V(1,1,1)^3 vs V(2,1,0)^1 * V(0,2,1)^1 * V(1,0,2)^1",
    )


# ---------------------------------------------------------------------------
# Brunn-Minkowski surrogate and the permanent bound


def minkowski_sequence_check(a: Body, b: Body, n: int) -> Report:
    """Log-concavity of V_j = V(A,...,A,B,...,B) (j copies of A), i.e. segment
    concavity of the pair's volume polynomial: the exact surrogate that
    implies the root-form volume inequality for A + B.

    The root form itself is also evaluated in 64-digit floating point and
    reported as a non-authoritative diagnostic.
    """
    import mpmath  # only this diagnostic needs it, and it is slow to import

    if a.dim != n or b.dim != n:
        raise ValueError("both bodies must live in the stated dimension")
    vp = volume_polynomial(BodyTuple((a, b)))
    with mpmath.workdps(64):
        vsum = volume(minkowski_sum([(Fraction(1), a), (Fraction(1), b)]))
        va, vb, vs = (mpmath.mpf(v.numerator) / v.denominator for v in (vp[n, 0], vp[0, n], vsum))
        gap = mpmath.root(vs, n) - mpmath.root(va, n) - mpmath.root(vb, n)
        diagnostic = (
            f"root form V(A+B)^(1/{n}) - V(A)^(1/{n}) - V(B)^(1/{n}) "
            f"= {mpmath.nstr(gap, 12)} (64-digit float, non-authoritative)"
        )
    return replace(segment_concavity(vp), diagnostic=diagnostic)


@dataclass(frozen=True)
class VdwResult:
    """Margin of the permanent over its doubly stochastic minimum n!/n^n."""

    margin: Fraction
    holds: bool

    def to_json(self) -> dict:
        return {"margin": format_rational(self.margin), "holds": self.holds}


def vdw_check(m: Matrix) -> VdwResult:
    """permanent(m) - n!/n^n for a doubly stochastic matrix, with the
    nonnegativity verdict; the minimum is attained at the all-1/n matrix."""
    if not m.is_square():
        raise PreconditionError(f"matrix must be square, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        raise PreconditionError("matrix must be nonempty")
    for i in range(n):
        for j in range(n):
            if m[i][j] < 0:
                raise PreconditionError(f"entry ({i},{j}) is negative: {m[i][j]}")
    for i in range(n):
        s = sum(m[i], Fraction(0))
        if s != 1:
            raise PreconditionError(f"row {i} sums to {s}, expected 1")
    for j in range(n):
        s = sum((m[i][j] for i in range(n)), Fraction(0))
        if s != 1:
            raise PreconditionError(f"column {j} sums to {s}, expected 1")
    margin = permanent(m) - Fraction(factorial(n), n**n)
    return VdwResult(margin=margin, holds=margin >= 0)
