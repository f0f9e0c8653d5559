from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvol.numerics import (
    DimensionError,
    INFEASIBLE,
    Matrix,
    OPTIMAL,
    SingularSystemError,
    SymMatrix,
    UNBOUNDED,
    as_rational,
    determinant,
    format_rational,
    is_positive_definite,
    matrix_rank,
    permanent,
    simplex_max,
    solve_linear,
)
from oracles import (
    leading_minors_positive,
    naive_determinant,
    naive_permanent,
    random_fraction,
    random_rows,
)


def test_as_rational_accepts_fraction_int_string():
    assert as_rational(Fraction(3, 4)) == Fraction(3, 4)
    assert as_rational(7) == Fraction(7)
    assert as_rational("-8/3") == Fraction(-8, 3)
    assert as_rational("1.25") == Fraction(5, 4)


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.1)


def test_as_rational_bounds_length_and_exponent():
    assert as_rational("1e4300") == 10**4300
    assert as_rational("-5E-4_300") == Fraction(-5, 10**4300)
    for text in ("1e100000", "1e-4301", "1e4_301", "7" * 4301):
        with pytest.raises(ValueError, match="exceeds 4300"):
            as_rational(text)


def test_format_rational_canonical():
    assert format_rational(Fraction(4, 9)) == "4/9"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_matrix_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])


def test_symmetric_matrix_validation():
    SymMatrix([[1, 2], [2, 5]])
    with pytest.raises(ValueError):
        SymMatrix([[1, 2], [3, 5]])
    with pytest.raises(DimensionError):
        SymMatrix([[1, 2, 3], [2, 5, 4]])


# -- permanent ---------------------------------------------------------------


def test_permanent_identity():
    assert permanent(Matrix.identity(3)) == 1


def test_permanent_known_matrix():
    m = Matrix([[1, 1, 0], [1, 0, 5], [0, "1/3", 1]])
    assert permanent(m) == Fraction(8, 3)


def test_permanent_all_ones():
    m = Matrix([[1, 1, 1]] * 3)
    assert permanent(m) == 6


def test_permanent_empty_matrix_is_one():
    assert permanent(Matrix([])) == 1


def test_permanent_rejects_nonsquare():
    with pytest.raises(DimensionError):
        permanent(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_permanent_matches_naive_oracle():
    rng = Random(1101)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = random_rows(rng, n)
        assert permanent(Matrix(rows)) == naive_permanent(rows)


def test_permanent_multilinear_in_rows():
    rng = Random(1102)
    for _ in range(30):
        n = rng.randint(2, 4)
        rows = random_rows(rng, n)
        u = [random_fraction(rng) for _ in range(n)]
        v = [random_fraction(rng) for _ in range(n)]
        alpha, beta = random_fraction(rng), random_fraction(rng)
        i = rng.randrange(n)
        combo = rows[:i] + [[alpha * a + beta * b for a, b in zip(u, v)]] + rows[i + 1 :]
        with_u = rows[:i] + [u] + rows[i + 1 :]
        with_v = rows[:i] + [v] + rows[i + 1 :]
        assert permanent(Matrix(combo)) == alpha * permanent(Matrix(with_u)) + beta * permanent(
            Matrix(with_v)
        )


def test_permanent_invariant_under_permutations():
    rng = Random(1103)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = random_rows(rng, n)
        p = permanent(Matrix(rows))
        order = list(range(n))
        rng.shuffle(order)
        assert permanent(Matrix([rows[i] for i in order])) == p
        transposed = [[rows[i][j] for i in range(n)] for j in range(n)]
        rng.shuffle(order)
        assert permanent(Matrix([[transposed[j][i] for j in order] for i in range(n)])) == p


# -- determinant -------------------------------------------------------------


def test_determinant_examples():
    assert determinant(Matrix.identity(4)) == 1
    assert determinant(Matrix([[1, 2], [3, 4]])) == -2
    assert determinant(Matrix([[1, 2], [1, 2]])) == 0
    assert determinant(Matrix([])) == 1


def test_determinant_matches_naive_oracle():
    rng = Random(1105)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = random_rows(rng, n)
        assert determinant(Matrix(rows)) == naive_determinant(rows)


def test_determinant_alternates_under_row_swap():
    rng = Random(1106)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = random_rows(rng, n)
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert determinant(Matrix(swapped)) == -determinant(Matrix(rows))


# -- linear solving ----------------------------------------------------------


def test_solve_linear_examples():
    assert solve_linear(Matrix.identity(2), [3, 5]) == (3, 5)
    assert solve_linear(Matrix([[2, 0], [0, 4]]), [1, 1]) == (Fraction(1, 2), Fraction(1, 4))


def test_solve_linear_singular():
    with pytest.raises(SingularSystemError):
        solve_linear(Matrix([[1, 1], [2, 2]]), [1, 1])


def test_solve_linear_resubstitution():
    rng = Random(1107)
    solved = 0
    while solved < 30:
        n = rng.randint(1, 5)
        rows = random_rows(rng, n)
        a = Matrix(rows)
        if determinant(a) == 0:
            continue
        b = [random_fraction(rng) for _ in range(n)]
        x = solve_linear(a, b)
        for i in range(n):
            assert sum(rows[i][j] * x[j] for j in range(n)) == b[i]
        solved += 1


def test_matrix_rank():
    assert matrix_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert matrix_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert matrix_rank([]) == 0
    assert matrix_rank([[Fraction(0), Fraction(0)]]) == 0


# -- positive definiteness ---------------------------------------------------


def test_is_positive_definite_examples():
    assert is_positive_definite(SymMatrix.diagonal([1, 1, 1]))
    assert not is_positive_definite(SymMatrix.diagonal([1, -1]))
    assert is_positive_definite(SymMatrix([[2, 1], [1, 2]]))
    # positive semidefinite but singular: not accepted
    assert not is_positive_definite(SymMatrix([[1, 1], [1, 1]]))


def test_mtm_plus_identity_is_positive_definite():
    rng = Random(1108)
    for _ in range(20):
        n = 3
        m = random_rows(rng, n)
        prod = [
            [sum(m[t][i] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)
        ]
        for i in range(n):
            prod[i][i] += 1
        assert is_positive_definite(SymMatrix(prod))


# A zero or negative leading minor, early or late, including a zero minor
# followed by a row that still raises the rank.
NOT_DEFINITE = [
    [[0]],
    [[-1]],
    [[0, 1], [1, 0]],
    [[1, 1], [1, 1]],
    [[1, 2], [2, 1]],
    [[1, 0, 0], [0, 0, 1], [0, 1, 1]],
    [[2, 1, 0], [1, 1, 1], [0, 1, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
]


@pytest.mark.parametrize("rows", NOT_DEFINITE)
def test_is_positive_definite_rejects_a_nonpositive_leading_minor(rows):
    assert not leading_minors_positive(rows)
    assert not is_positive_definite(SymMatrix(rows))


def random_symmetric_rows(rng, n):
    rows = random_rows(rng, n, lo=-3, hi=3, max_den=2)
    if rng.random() < 0.5:  # a Gram matrix, often definite, sometimes singular
        m = n - rng.randint(0, 1)
        rows = [[sum(rows[t][i] * rows[t][j] for t in range(m)) for j in range(n)] for i in range(n)]
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_is_positive_definite_matches_leading_minors():
    rng = Random(1109)
    verdicts = set()
    for _ in range(600):
        rows = random_symmetric_rows(rng, rng.randint(1, 5))
        verdict = is_positive_definite(SymMatrix(rows))
        assert verdict == leading_minors_positive(rows), rows
        verdicts.add(verdict)
    assert verdicts == {True, False}


@st.composite
def symmetric_rows(draw):
    n = draw(st.integers(1, 4))
    upper = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    shift = draw(st.integers(0, 8))  # a larger diagonal makes definite matrices common
    return [[upper[min(i, j) * n + max(i, j)] + shift * (i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(symmetric_rows())
def test_is_positive_definite_matches_leading_minors_property(rows):
    assert is_positive_definite(SymMatrix(rows)) == leading_minors_positive(rows)


# -- simplex -----------------------------------------------------------------


def test_simplex_single_variable():
    res = simplex_max([1], Matrix([[1]]), [1])
    assert res.status == OPTIMAL
    assert res.optimum == 1
    assert res.solution == (1,)


def test_simplex_convex_combination():
    res = simplex_max([1, 1], Matrix([[1, 1]]), [1])
    assert res.status == OPTIMAL
    assert res.optimum == 1


def test_simplex_unbounded():
    res = simplex_max([1, 0], Matrix([[1, -1]]), [0])
    assert res.status == UNBOUNDED


def test_simplex_infeasible():
    # x + y = -1 has no nonnegative solution
    res = simplex_max([1, 1], Matrix([[1, 1]]), [-1])
    assert res.status == INFEASIBLE


def test_simplex_redundant_constraints():
    res = simplex_max([2, 3], Matrix([[1, 1], [2, 2]]), [1, 2])
    assert res.status == OPTIMAL
    assert res.optimum == 3
    assert res.solution == (0, 1)


def test_simplex_witness_attains_optimum():
    rng = Random(1109)
    seen_optimal = 0
    for _ in range(80):
        m = rng.randint(1, 3)
        nvars = rng.randint(m, 5)
        rows = [[Fraction(rng.randint(0, 4)) for _ in range(nvars)] for _ in range(m)]
        # build a feasible rhs from a known nonnegative point
        point = [Fraction(rng.randint(0, 3)) for _ in range(nvars)]
        rhs = [sum(r[j] * point[j] for j in range(nvars)) for r in rows]
        obj = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
        res = simplex_max(obj, Matrix(rows), rhs)
        assert res.status in (OPTIMAL, UNBOUNDED)
        if res.status == OPTIMAL:
            seen_optimal += 1
            x = res.solution
            assert all(v >= 0 for v in x)
            for r, b in zip(rows, rhs):
                assert sum(rj * xj for rj, xj in zip(r, x)) == b
            value = sum(c * xj for c, xj in zip(obj, x))
            assert value == res.optimum
            # the known feasible point cannot beat the reported optimum
            assert sum(c * p for c, p in zip(obj, point)) <= res.optimum
    assert seen_optimal > 20
