"""Independent reference implementations used only by the tests.

These are deliberately naive (factorial-time permutation sums) so that any
bug in the fast routes cannot be mirrored here.  Keep them slow and obvious.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from random import Random

from mixedvol.mixed import discrete_simplex
from mixedvol.numerics import INFEASIBLE, Matrix, simplex_max


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
