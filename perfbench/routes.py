"""Second routes for the tuple-check gate, independent of the CLI's route.

The CLI computes every coefficient V_I by polarization over volumes of
Minkowski sums.  The gate recomputes them without polarization, volumes or
hulls: permanents of side matrices for boxes, one determinant per choice of
generators for zonotopes, and the diagonal correspondence for matrices
Q^T diag(a_i) Q.  Permanents and determinants are expanded over permutations
here, so they share no code with ``mixedvol.numerics`` either.

The reports of the concavity checks are recomputed from those polynomials.
``envelope_report`` is a frozen copy of the library's envelope test as it
stood when the benchmark was written (every vertex of every center's weight
polytope, by exact solves over column subsets), so that a later rewrite of
the library's vertex enumeration is checked against it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, lcm


def simplex(k: int, n: int) -> list[tuple[int, ...]]:
    """All I in Z_+^k with |I| = n."""
    if k == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n + 1) for rest in simplex(k - 1, n - first)]


def _sign(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i, j in combinations(range(len(p)), 2) if p[i] > p[j])
    return -1 if inversions & 1 else 1


def perm(rows) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for p in permutations(range(n)):
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][p[i]]
        total += term
    return total


def det(rows) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for p in permutations(range(n)):
        term = Fraction(_sign(p))
        for i in range(n):
            term *= rows[i][p[i]]
        total += term
    return total


def _stack(per_body: list, index: tuple[int, ...]) -> list:
    # Body j repeated index[j] times, one slot each.
    return [per_body[j] for j, mult in enumerate(index) for _ in range(mult)]


def box_polynomial(sides: list[list[Fraction]]) -> dict:
    """V_I of boxes with the given side lengths: perm(stacked sides) / n!."""
    k, n = len(sides), len(sides[0])
    return {I: perm(_stack(sides, I)) / factorial(n) for I in simplex(k, n)}


def zonotope_polynomial(generators: list[list[tuple[Fraction, ...]]], n: int) -> dict:
    """V_I of zonotopes: (1/n!) Σ |det(g_1, ..., g_n)| over one generator
    per slot, slot s drawing from the body it stands for."""
    out = {}
    for I in simplex(len(generators), n):
        total = Fraction(0)
        for choice in product(*_stack(generators, I)):
            total += abs(det(choice))
        out[I] = total / factorial(n)
    return out


def matrix_polynomial(q: list[list[int]], diagonals: list[list[Fraction]]) -> dict:
    """D_I of Q^T diag(a_i) Q: det(Q)^2 times the box coefficient of the a_i."""
    scale = det(q) ** 2
    return {I: scale * v for I, v in box_polynomial(diagonals).items()}


def segment_report(poly: dict) -> tuple[str, int, list]:
    """Verdict, checked count and (center, lhs, rhs) of every violated
    V_I^2 >= V_{I+e_a-e_b} V_{I-e_a+e_b}."""
    checked = 0
    certs = []
    for I in sorted(poly):
        for a, b in combinations(range(len(I)), 2):
            if I[a] < 1 or I[b] < 1:
                continue
            up, down = list(I), list(I)
            up[a] += 1
            up[b] -= 1
            down[a] -= 1
            down[b] += 1
            checked += 1
            lhs = poly[I] ** 2
            rhs = poly[tuple(up)] * poly[tuple(down)]
            if lhs < rhs:
                certs.append((I, lhs, rhs))
    if checked == 0:
        return "vacuous", 0, []
    return ("fails" if certs else "holds"), checked, certs


def pair_report(poly: dict, k: int) -> tuple[str, int, list]:
    """The squared comparison V(1,2,rest)^2 vs V(1,1,rest) V(2,2,rest)."""
    rest = (1,) * (k - 2)
    v12, v11, v22 = poly[(1, 1) + rest], poly[(2, 0) + rest], poly[(0, 2) + rest]
    lhs, rhs = v12 * v12, v11 * v22
    if lhs >= rhs:
        return "holds", 1, []
    return "fails", 1, [((1, 1) + rest, lhs, rhs)]


def triple_report(poly: dict) -> tuple[str, int, list]:
    """V(1,2,3)^3 vs V(1,1,2) V(2,2,3) V(3,3,1) for k = n = 3."""
    lhs = poly[(1, 1, 1)] ** 3
    rhs = poly[(2, 1, 0)] * poly[(0, 2, 1)] * poly[(1, 0, 2)]
    if lhs >= rhs:
        return "holds", 1, []
    return "fails", 1, [((1, 1, 1), lhs, rhs)]


def _solve_unique(cols, rhs) -> list[Fraction] | None:
    """The w with sum_j w_j cols[j] = rhs, or None unless it exists and is unique."""
    s = len(cols)
    rows = [[Fraction(c[i]) for c in cols] + [Fraction(rhs[i])] for i in range(len(rhs))]
    for c in range(s):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    if any(row[s] for row in rows[s:]):
        return None
    return [rows[j][s] for j in range(s)]


def envelope_report(poly: dict, k: int, n: int) -> tuple[str, int, list]:
    """The concave-envelope test: at every center I with V_I > 0 and every
    vertex w of {w >= 0 : sum_J w_J J = I} over the other J with V_J > 0,
    V_I^q vs prod_J V_J^(q w_J), q the least common denominator of w.  The
    checked count is the number of centers with another positive J."""
    positive = [I for I in simplex(k, n) if poly[I] > 0]
    checked = 0
    certs = []
    for center in positive:
        others = [I for I in positive if I != center]
        if not others:
            continue
        checked += 1
        for size in range(1, min(k, len(others)) + 1):
            for cols in combinations(others, size):
                w = _solve_unique(cols, center)
                if w is None or min(w) <= 0:
                    continue
                q = lcm(*(x.denominator for x in w))
                lhs = poly[center] ** q
                rhs = Fraction(1)
                for J, x in zip(cols, w):
                    rhs *= poly[J] ** (x.numerator * (q // x.denominator))
                if lhs < rhs:
                    certs.append((center, lhs, rhs))
    return ("fails" if certs else "holds"), checked, certs
