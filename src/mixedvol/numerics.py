"""Exact rational linear algebra: matrices, permanents, determinants, solving,
positive-definiteness, and an exact equality-form LP solver.

Every correctness-bearing value in this package is a ``fractions.Fraction``;
nothing in this module touches floating point.  All functions but
:func:`eliminate`, which updates the echelon it is given, are pure and operate
on immutable inputs, so concurrent use is safe.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Bound on numeric strings: their length, and the decimal exponent that
# Fraction would otherwise expand into 10**exponent.  It equals Python's
# default int-to-str limit, which the CLI lifts so that large exact answers
# print, and so keeps inputs bounded either way.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(_\d+)*)\s*\Z")


class DimensionError(ValueError):
    """Shapes of the operands do not fit the requested operation."""


class SingularSystemError(ValueError):
    """A linear solve was attempted on a singular system."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int, and strings like ``"5"``, ``"-8/3"`` or ``"1.25"``.
    Floats are rejected: a binary float silently misrepresents values such as
    1/3, and exactness is the whole point of this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_DIGITS:
            raise ValueError(f"rational string of {len(value)} characters exceeds {MAX_DIGITS}")
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent[1])) > MAX_DIGITS:
            raise ValueError(f"decimal exponent {exponent[1]} exceeds {MAX_DIGITS} in absolute value")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational (Fraction, int, or string), got {type(value).__name__}")


def as_index(value: object) -> int:
    """``int(value)`` for an integer field of a document, with strings
    bounded like those of :func:`as_rational`."""
    if isinstance(value, str) and len(value) > MAX_DIGITS:
        raise ValueError(f"integer string of {len(value)} characters exceeds {MAX_DIGITS}")
    return int(value)


def parse_json(text: str):
    """``json.loads`` with integer literals bounded like numeric strings, and
    nesting too deep to parse reported as a ValueError."""
    try:
        return json.loads(text, parse_int=as_index)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def format_rational(value: Fraction) -> str:
    """Canonical wire form: ``"p/q"`` with q > 1, else just ``"p"``."""
    return str(value)


class Matrix:
    """Immutable dense matrix of exact rationals, stored row-major."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        converted = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if converted:
            width = len(converted[0])
            for row in converted:
                if len(row) != width:
                    raise DimensionError("matrix rows must all have the same length")
        self._rows = converted

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix addition requires equal shapes")
        return type(self)(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def scaled(self, factor: RationalLike) -> "Matrix":
        lam = as_rational(factor)
        return type(self)([[lam * x for x in row] for row in self._rows])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"Matrix[{body}]"

    def to_json(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self._rows]


class SymMatrix(Matrix):
    """Square symmetric matrix; symmetry is validated on construction."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        super().__init__(rows)
        if not self.is_square():
            raise DimensionError("symmetric matrix must be square")
        for i in range(self.rows):
            for j in range(i + 1, self.cols):
                if self._rows[i][j] != self._rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")

    @property
    def dim(self) -> int:
        return self.rows

    @classmethod
    def diagonal(cls, values: Iterable[RationalLike]) -> "SymMatrix":
        vals = [as_rational(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])


def permanent(m: Matrix) -> Fraction:
    """Permanent of a square matrix by Ryser's inclusion-exclusion.

    Column subsets are walked in Gray-code order so each step updates the
    per-row sums by a single column.  The empty matrix has permanent 1.
    """
    if not m.is_square():
        raise DimensionError(f"permanent requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)

    cols = [[m[i][j] for i in range(n)] for j in range(n)]
    sums = [Fraction(0)] * n
    total = Fraction(0)
    gray = 0
    for t in range(1, 1 << n):
        j = (t & -t).bit_length() - 1
        gray ^= 1 << j
        col = cols[j]
        if gray >> j & 1:
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        prod = sums[0]
        for i in range(1, n):
            prod *= sums[i]
        if (n - gray.bit_count()) & 1:
            total -= prod
        else:
            total += prod
    return total


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The empty matrix has determinant 1.
    """
    if not m.is_square():
        raise DimensionError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def eliminate(echelon: list[tuple[int, list[Fraction]]], row: list[Fraction], width: int) -> bool:
    """One step of forward elimination; every exact solve and rank goes through it.

    ``echelon`` holds (pivot column, row) pairs in row echelon form: sorted
    by pivot column, each row zero left of its pivot.  ``row`` is reduced in
    place against the pivots it meets, then inserted in order with its own
    pivot (its first nonzero entry among the first ``width`` columns) if it
    has one.  Columns from ``width`` on, such as a right-hand side, are
    carried along.  Returns whether the row was inserted, i.e. whether it
    raised the rank.
    """
    first = next((j for j in range(width) if row[j]), None)
    i = 0
    while first is not None and i < len(echelon):
        lead, pivot = echelon[i]
        if first < lead:
            break  # every later pivot row is zero in column `first`
        if first == lead:
            f = row[lead] / pivot[lead]
            for j in range(lead, len(row)):
                row[j] -= f * pivot[j]
            first = next((j for j in range(lead + 1, width) if row[j]), None)
        i += 1
    if first is None:
        return False
    echelon.insert(i, (first, row))
    return True


def solve_linear(a: Matrix, b: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Exact solution of ``a @ x = b`` when it is unique; ``a`` may have more
    rows than columns.

    Raises :class:`SingularSystemError` when there is no solution or more
    than one; the caller decides the fallback.
    """
    if len(b) != a.rows:
        raise DimensionError(f"right-hand side length {len(b)} != row count {a.rows}")
    n = a.cols
    echelon: list[tuple[int, list[Fraction]]] = []
    for coeffs, rhs in zip(a, b):
        row = [*coeffs, as_rational(rhs)]
        if not eliminate(echelon, row, n) and row[n]:
            raise SingularSystemError("system is inconsistent")
    if len(echelon) < n:
        raise SingularSystemError("matrix is singular")
    x = [Fraction(0)] * n
    for lead, row in reversed(echelon):
        s = row[n]
        for j in range(lead + 1, n):
            s -= row[j] * x[j]
        x[lead] = s / row[lead]
    return tuple(x)


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a sequence of rational row vectors."""
    echelon: list[tuple[int, list[Fraction]]] = []
    for r in rows:
        if len(echelon) == len(r):
            break  # full column rank: later rows cannot raise it
        eliminate(echelon, list(r), len(r))
    return len(echelon)


def is_positive_definite(m: SymMatrix) -> bool:
    """True iff every leading principal minor D_i is strictly positive (exact):
    eliminated in order, row i reduces to D_i / D_{i-1} in column i."""
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    echelon: list[tuple[int, list[Fraction]]] = []
    for i, row in enumerate(list(r) for r in m):
        if not eliminate(echelon, row, m.dim) or row[i] <= 0:
            return False
    return True


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Outcome of :func:`simplex_max`.

    ``status`` is one of ``"optimal"``, ``"infeasible"``, ``"unbounded"``;
    ``optimum`` and ``solution`` are set only for the optimal case.
    """

    status: str
    optimum: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None


def simplex_max(
    objective: Sequence[RationalLike],
    eq_lhs: Matrix,
    eq_rhs: Sequence[RationalLike],
) -> LPResult:
    """Maximize ``objective . x`` over ``{x >= 0 : eq_lhs @ x = eq_rhs}``, exactly.

    Two-phase dense simplex with Bland's lowest-index pivot rule, which
    guarantees termination without any degeneracy perturbation.  Infeasibility
    and unboundedness are reported as distinct statuses.
    """
    c = [as_rational(v) for v in objective]
    b = [as_rational(v) for v in eq_rhs]
    m, n = eq_lhs.rows, eq_lhs.cols
    if len(c) != n:
        raise DimensionError(f"objective length {len(c)} != variable count {n}")
    if len(b) != m:
        raise DimensionError(f"rhs length {len(b)} != constraint count {m}")

    # Tableau rows: [original vars | artificial vars | rhs], one artificial per row.
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = list(eq_lhs[i])
        rhs = b[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        row.extend(Fraction(int(j == i)) for j in range(m))
        row.append(rhs)
        tab.append(row)
    basis = [n + i for i in range(m)]

    def pivot(r: int, col: int, obj: list[Fraction]) -> None:
        pv = tab[r][col]
        tab[r] = [x / pv for x in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][col]:
                f = tab[i][col]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
        if obj[col]:
            f = obj[col]
            for j in range(len(obj)):
                obj[j] -= f * tab[r][j]
        basis[r] = col

    def run_phase(obj: list[Fraction], active: int) -> str:
        # Bland's rule: entering = lowest index with positive reduced cost,
        # leaving = lowest basis index among minimal ratios.
        while True:
            enter = next((j for j in range(active) if obj[j] > 0), None)
            if enter is None:
                return OPTIMAL
            best: Fraction | None = None
            leave = -1
            for i in range(len(tab)):
                coeff = tab[i][enter]
                if coeff > 0:
                    ratio = tab[i][-1] / coeff
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if best is None:
                return UNBOUNDED
            pivot(leave, enter, obj)

    width = n + m + 1
    # Phase 1: maximize -(sum of artificials); start objective row reduced
    # against the artificial basis.
    obj1 = [Fraction(0)] * width
    for j in range(n):
        obj1[j] = sum(tab[i][j] for i in range(m))
    obj1[-1] = sum(tab[i][-1] for i in range(m))
    run_phase(obj1, n + m)
    if obj1[-1] != 0:
        return LPResult(status=INFEASIBLE)

    # Drive remaining artificials out of the basis; a row with no original
    # coefficient left is a redundant constraint and is dropped.
    for r in range(len(tab) - 1, -1, -1):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is None:
                del tab[r]
                del basis[r]
            else:
                pivot(r, col, obj1)

    # Phase 2 on original columns only.
    for i in range(len(tab)):
        tab[i] = tab[i][:n] + [tab[i][-1]]
    obj2 = [*c, Fraction(0)]
    for r, bv in enumerate(basis):
        if obj2[bv]:
            f = obj2[bv]
            for j in range(n + 1):
                obj2[j] -= f * tab[r][j]
    status = run_phase(obj2, n)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        x[bv] = tab[r][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult(status=OPTIMAL, optimum=value, solution=tuple(x))
