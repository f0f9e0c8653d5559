"""The af, triple and bm checks read every term from one shared polarization
cache; they must agree with one separate mixed volume (or discriminant) call
per term, and make fewer volume evaluations."""

from fractions import Fraction
from random import Random

import pytest

import mixedvol.mixed
from mixedvol.bodies import AxisBox, VPolytope, Zonotope
from mixedvol.inequalities import (
    af_check_discriminants,
    af_check_volumes,
    gromov_triple_check,
    minkowski_sequence_check,
)
from mixedvol.mixed import BodyTuple, mixed_discriminant, mixed_volume, volume_polynomial
from mixedvol.numerics import SymMatrix
from oracles import per_term_af_report, per_term_bm_report, per_term_triple_report

FLAT_TRIPLE = [AxisBox.from_lengths(s) for s in ([1, 1, 0], [1, 0, 5], [0, "1/3", 1])]
VPOLYTOPES = [
    VPolytope(3, tuple(tuple(Fraction(x) for x in v) for v in vertices))
    for vertices in (
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, 0), (2, 0, 0), (0, 1, 1), (1, 1, 0)),
        ((0, 0, 0), (1, 1, 1), (0, 0, 1), ("1/2", 0, 0)),
    )
]


def seeded_bodies(kind, seed, n):
    rng = Random(seed)
    if kind == "box":
        return [AxisBox.from_lengths([rng.choice([0, "1/3", 1, 2, 5]) for _ in range(n)]) for _ in range(n)]
    bodies = []
    for _ in range(n):
        generators = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        bodies.append(Zonotope(n, tuple(map(tuple, generators))))
    return bodies


def seeded_pd_matrices(seed, n):
    rng = Random(seed)
    mats = []
    for _ in range(n):
        m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        gram = [[sum(m[t][i] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            gram[i][i] += 1
        mats.append(SymMatrix(gram))
    return mats


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["box", "zonotope"])
def test_checks_match_per_term_calls(kind, n, seed):
    bodies = seeded_bodies(kind, 100 * n + seed, n)
    assert af_check_volumes(bodies) == per_term_af_report(bodies, mixed_volume, "V")
    assert minkowski_sequence_check(bodies[0], bodies[1], n) == per_term_bm_report(bodies[0], bodies[1], n)
    if n == 3:
        assert gromov_triple_check(bodies) == per_term_triple_report(bodies)
    mats = seeded_pd_matrices(seed, n)
    assert af_check_discriminants(mats) == per_term_af_report(mats, mixed_discriminant, "D")


@pytest.mark.parametrize("bodies", [FLAT_TRIPLE, VPOLYTOPES], ids=["flat-triple", "vpolytopes"])
def test_checks_match_per_term_calls_on_fixed_triples(bodies):
    assert af_check_volumes(bodies) == per_term_af_report(bodies, mixed_volume, "V")
    assert gromov_triple_check(bodies) == per_term_triple_report(bodies)
    assert minkowski_sequence_check(bodies[0], bodies[2], 3) == per_term_bm_report(bodies[0], bodies[2], 3)


def test_bm_check_matches_per_term_calls_in_dimension_one():
    a, b = AxisBox.from_lengths([2]), AxisBox.from_lengths([3])
    assert minkowski_sequence_check(a, b, 1) == per_term_bm_report(a, b, 1)


def test_flat_triple_volume_evaluations(monkeypatch):
    calls = []
    volume = mixedvol.mixed.volume
    monkeypatch.setattr(mixedvol.mixed, "volume", lambda body: calls.append(body) or volume(body))

    def evaluations(check, *args):
        calls.clear()
        check(*args)
        return len(calls)

    assert evaluations(volume_polynomial, BodyTuple(tuple(FLAT_TRIPLE))) == 19
    assert evaluations(af_check_volumes, FLAT_TRIPLE) <= 11
    assert evaluations(gromov_triple_check, FLAT_TRIPLE) <= 13
    assert evaluations(minkowski_sequence_check, FLAT_TRIPLE[0], FLAT_TRIPLE[1], 3) <= 9
