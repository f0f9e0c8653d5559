"""Mixed volumes V_I and mixed discriminants D_I.

Vol(λ_1 A_1 + ... + λ_k A_k) is a homogeneous degree-n polynomial in λ; its
coefficients, indexed by the discrete simplex {I in Z_+^k : |I| = n}, are the
mixed volumes after the multinomial factor is split off:

    Vol(Σ λ_i A_i) = Σ_I multinomial(n; I) · V_I · λ^I

Coefficients are stored normalized (multinomial factor outside).  The same
expansion of det(Σ λ_i A_i) defines the mixed discriminants D_I.

Three independent routes are implemented: polarization (inclusion-exclusion
over body subsets), closed forms via permanents/determinants for boxes and
segments, and interpolation of the volume polynomial on an integer grid.
Route agreement is a standing cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, product
from math import comb, factorial, prod
from typing import Callable, Iterable, Mapping, Sequence

from .bodies import AxisBox, Body, minkowski_sum, volume, weighted_volume
from .numerics import (
    Matrix,
    SymMatrix,
    as_index,
    as_rational,
    determinant,
    eliminate,
    format_rational,
    permanent,
    solve_linear,
)

MultiIndex = tuple[int, ...]


def discrete_simplex(k: int, n: int) -> list[MultiIndex]:
    """All I in Z_+^k with |I| = n, in lexicographic order."""
    if k < 1:
        raise ValueError("need at least one body")
    if n < 0:
        raise ValueError("dimension must be nonnegative")

    def rec(slots: int, total: int) -> Iterable[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rec(slots - 1, total - first):
                yield (first,) + rest

    return list(rec(k, n))


def multinomial(n: int, index: MultiIndex) -> int:
    """n! / (i_1! ... i_k!) for |index| = n."""
    if sum(index) != n:
        raise ValueError(f"index {index} does not sum to {n}")
    value = factorial(n)
    for i in index:
        value //= factorial(i)
    return value


@dataclass(frozen=True)
class VolumePolynomial:
    """The full coefficient map I -> V_I (or D_I) over the discrete simplex."""

    k: int
    n: int
    coefficients: Mapping[MultiIndex, Fraction]

    def __post_init__(self):
        expected = set(discrete_simplex(self.k, self.n))
        got = set(self.coefficients)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                f"coefficient keys must be the full discrete simplex; missing {missing}, extra {extra}"
            )
        object.__setattr__(self, "coefficients", dict(self.coefficients))

    def __getitem__(self, index: MultiIndex) -> Fraction:
        return self.coefficients[tuple(index)]

    def to_json(self) -> list[dict]:
        return [
            {"index": list(i), "value": format_rational(self.coefficients[i])}
            for i in sorted(self.coefficients)
        ]

    @classmethod
    def from_json(cls, doc: object) -> "VolumePolynomial":
        if not isinstance(doc, list) or not doc:
            raise ValueError("polynomial document must be a nonempty JSON array")
        coeffs: dict[MultiIndex, Fraction] = {}
        for item in doc:
            try:
                index = tuple(as_index(x) for x in item["index"])
                coeffs[index] = as_rational(item["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed polynomial entry {item!r}: {exc}") from exc
        k = len(next(iter(coeffs)))
        n = sum(next(iter(coeffs)))
        return cls(k=k, n=n, coefficients=coeffs)


@dataclass(frozen=True)
class BodyTuple:
    bodies: tuple[Body, ...]

    def __post_init__(self):
        if not self.bodies:
            raise ValueError("body tuple must be nonempty")
        dims = {b.dim for b in self.bodies}
        if len(dims) != 1:
            raise ValueError(f"bodies live in different ambient dimensions: {sorted(dims)}")

    @classmethod
    def square(cls, bodies: Sequence[Body]) -> "BodyTuple":
        """The n bodies in dimension n of one mixed volume; ValueError otherwise."""
        return cls(_square(bodies, "mixed volume", "body", "bodies", "in"))

    @property
    def k(self) -> int:
        return len(self.bodies)

    @property
    def n(self) -> int:
        return self.bodies[0].dim


@dataclass(frozen=True)
class MatrixTuple:
    matrices: tuple[SymMatrix, ...]

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("matrix tuple must be nonempty")
        dims = {m.dim for m in self.matrices}
        if len(dims) != 1:
            raise ValueError(f"matrices have different dimensions: {sorted(dims)}")

    @classmethod
    def square(cls, matrices: Sequence[SymMatrix]) -> "MatrixTuple":
        """The n matrices of dimension n of one mixed discriminant; ValueError otherwise."""
        mats = [m if isinstance(m, SymMatrix) else SymMatrix(m) for m in matrices]
        return cls(_square(mats, "mixed discriminant", "matrix", "matrices", "of"))

    @property
    def k(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].dim


def _square(items: Sequence, what: str, one: str, many: str, of: str) -> tuple:
    # The n items of dimension n of one mixed volume or discriminant.
    n = len(items)
    if n == 0:
        raise ValueError(f"{what} needs at least one {one}")
    for item in items:
        if item.dim != n:
            raise ValueError(
                f"{what} needs exactly n {many} {of} dimension n; got {n} {many}, one of dimension {item.dim}"
            )
    return tuple(items)


def mixed_volume(bodies: Sequence[Body]) -> Fraction:
    """V(A_1, ..., A_n) by polarization:

        V = (1/n!) Σ_{∅ ≠ S ⊆ [n]} (−1)^{n−|S|} Vol(Σ_{i∈S} A_i)

    (the empty set contributes Vol(∅) = 0), the coefficient at (1, ..., 1)
    of the tuple's volume polynomial.  Symmetric in its arguments and equal
    to Vol(A) when all arguments are the same body A.
    """
    t = BodyTuple.square(bodies)
    return coefficients(t, [(1,) * t.n])[0]


def mixed_volume_boxes(sides: Matrix) -> Fraction:
    """Mixed volume of boxes A_i = [0, a_i1] x ... x [0, a_in] from the side
    matrix (a_ij): the permanent divided by n!."""
    if not sides.is_square():
        raise ValueError(f"side matrix must be square, got {sides.rows}x{sides.cols}")
    for row in sides:
        for x in row:
            if x < 0:
                raise ValueError(f"box side length must be nonnegative, got {x}")
    return permanent(sides) / factorial(sides.rows)


def mixed_volume_segments(generators: Sequence[Sequence[object]]) -> Fraction:
    """Mixed volume of the segments [0, v_i]: |det(v_1, ..., v_n)| / n!."""
    m = Matrix(generators)
    if not m.is_square():
        raise ValueError(f"need n generators of length n, got {m.rows} of length {m.cols}")
    d = determinant(m)
    return (d if d >= 0 else -d) / factorial(m.rows)


def _weighted_volume(bodies: Sequence[Body], weights: Sequence[int]) -> Fraction:
    parts = [(Fraction(c), b) for c, b in zip(weights, bodies) if c > 0]
    if not parts:
        return Fraction(0)
    return volume(minkowski_sum(parts))


def _polarize(
    evaluate: Callable[[MultiIndex], Fraction],
    index: MultiIndex,
    n: int,
    cache: dict[MultiIndex, Fraction],
) -> Fraction:
    # The coefficient at `index` of a degree-n form, normalized by the
    # multinomial factor, from its values evaluate(c) = F(Σ c_j A_j) at integer
    # weights c (F is Vol or det).  Inclusion-exclusion over the 2^n subsets of
    # the multiset with i_j copies of A_j, grouped by how many copies c_j they
    # pick: subsets with count vector c contribute with multiplicity
    # Π_j C(i_j, c_j).  `cache` keeps each evaluate(c) for every coefficient
    # of the same tuple.
    total = Fraction(0)
    ranges = [range(i + 1) for i in index]
    for c in product(*ranges):
        size = sum(c)
        if size == 0:
            continue
        v = cache.get(c)
        if v is None:
            v = cache[c] = evaluate(c)
        term = prod(map(comb, index, c)) * v
        total += -term if (n - size) & 1 else term
    return total / factorial(n)


def coefficients(t: BodyTuple | MatrixTuple, indices: Sequence[MultiIndex]) -> list[Fraction]:
    """The tuple's coefficients V_I (D_I for matrices) at ``indices``, in
    order.  Each weighted sum's volume (determinant) is computed only once.
    An index off the discrete simplex of (k, n) raises ValueError."""
    for index in indices:
        if len(index) != t.k or min(index) < 0 or sum(index) != t.n:
            raise ValueError(f"index {tuple(index)} is not in the discrete simplex of k = {t.k}, n = {t.n}")
    if isinstance(t, MatrixTuple):
        evaluate = partial(_weighted_det, t.matrices)
    elif all(isinstance(b, AxisBox) for b in t.bodies):
        evaluate = partial(_weighted_volume, t.bodies)  # box sums are boxes: nothing to clear once
    else:
        evaluate = weighted_volume(t.bodies)
    cache: dict[MultiIndex, Fraction] = {}
    return [_polarize(evaluate, index, t.n, cache) for index in indices]


def volume_polynomial(t: BodyTuple | MatrixTuple) -> VolumePolynomial:
    """All mixed volumes V_I (discriminants D_I of a MatrixTuple) by polarization."""
    indices = discrete_simplex(t.k, t.n)
    return VolumePolynomial(k=t.k, n=t.n, coefficients=dict(zip(indices, coefficients(t, indices))))


def volume_polynomial_interpolated(t: BodyTuple) -> VolumePolynomial:
    """Recover the coefficients by evaluating Vol(Σ λ_i A_i) on a
    deterministic positive-integer grid and solving the exact linear system.

    Grid points are taken in shells of increasing maximum entry; rows are kept
    only while they raise the rank of the fit system, so the final square
    system is nonsingular by construction.
    """
    k, n = t.k, t.n
    indices = discrete_simplex(k, n)
    m = len(indices)
    mults = [multinomial(n, i) for i in indices]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    # Row echelon copy used only for rank tracking.
    echelon: list[tuple[int, list[Fraction]]] = []

    def try_add(lam: tuple[int, ...]) -> None:
        row = [Fraction(mult * prod(map(pow, lam, idx))) for mult, idx in zip(mults, indices)]
        if eliminate(echelon, list(row), m):
            rows.append(row)
            rhs.append(_weighted_volume(t.bodies, lam))

    for shell in count(1):
        for lam in product(range(1, shell + 1), repeat=k):
            if max(lam) != shell:
                continue  # already visited in an earlier shell
            try_add(lam)
            if len(rows) == m:
                break
        if len(rows) == m:
            break

    solution = solve_linear(Matrix(rows), rhs)
    return VolumePolynomial(k=k, n=n, coefficients=dict(zip(indices, solution)))


def mixed_discriminant(matrices: Sequence[SymMatrix]) -> Fraction:
    """D(A_1, ..., A_n) by polarization with determinants in place of volumes."""
    t = MatrixTuple.square(matrices)
    return coefficients(t, [(1,) * t.n])[0]


def _weighted_det(matrices: Sequence[SymMatrix], weights: Sequence[int]) -> Fraction:
    n = matrices[0].dim
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c, m in zip(weights, matrices):
        if c:
            for i in range(n):
                row = m[i]
                for j in range(n):
                    acc[i][j] += c * row[j]
    return determinant(Matrix(acc))


def discriminant_polynomial(t: MatrixTuple) -> VolumePolynomial:
    """All mixed discriminants D_I of the tuple, by the polarization of
    :func:`volume_polynomial` with determinants; coefficients may be negative
    for indefinite matrices."""
    return volume_polynomial(t)
