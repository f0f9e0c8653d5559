"""Deterministic search over box families for violations of concavity of
log V_I, reproducing known counterexamples and hunting for new ones.

Candidates are k boxes in R^n with side lengths drawn from a finite grid, so a
candidate is a k x n side matrix.  The hot path evaluates the target
inequality through integer-scaled permanents; every emitted Finding is
re-derivable through the completely independent polarization route
(:func:`verify_finding`), which guards the fast path against itself.

Everything is a pure function of (space, config): the random stream is a
counter-based generator keyed by (seed, candidate index, cell), so results
are identical across runs and across worker counts.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial, lcm
from typing import Iterable, Iterator, Sequence

from .bodies import AxisBox
from .inequalities import (
    Certificate,
    envelope_vertex_comparisons,
    power_certificate,
    recheck_certificate,
    triple_certificate,
)
from .mixed import BodyTuple, VolumePolynomial, discrete_simplex, volume_polynomial
from .numerics import MAX_DIGITS, Matrix, as_index, as_rational, format_rational, parse_json, permanent

EXHAUSTIVE = "exhaustive-grid"
RANDOM = "random"
HILL_CLIMB = "hill-climb"
MODES = (EXHAUSTIVE, RANDOM, HILL_CLIMB)

TRIPLE = "triple-inequality"
ENVELOPE = "full-envelope"
TARGETS = (TRIPLE, ENVELOPE)

_MASK64 = (1 << 64) - 1
_TRIPLE_SHAPE = triple_certificate(1, 1, 1, 1)  # center, support and text of every triple finding


@dataclass(frozen=True)
class SearchSpace:
    """Box families: k bodies in R^n, each side from a fixed rational grid.

    The grid is canonicalized to sorted order, so candidate numbering does not
    depend on how the caller listed the values.  Zero side lengths are allowed
    on purpose: the known violations need flat boxes.
    """

    side_grid: tuple[Fraction, ...]
    n: int = 3
    k: int = 3
    # The grid scaled by its common denominator, shared by all candidates.
    denom: int = field(init=False, repr=False, compare=False)
    int_grid: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = sorted({as_rational(v) for v in self.side_grid})
        if not grid:
            raise ValueError("side grid must be nonempty")
        for v in grid:
            if v < 0:
                raise ValueError(f"side grid values must be nonnegative, got {v}")
        object.__setattr__(self, "side_grid", tuple(grid))
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be at least 1")
        denom = lcm(*(v.denominator for v in grid))
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "int_grid", tuple(int(v * denom) for v in grid))


@dataclass(frozen=True)
class SearchConfig:
    mode: str = EXHAUSTIVE
    seed: int = 0
    max_evaluations: int = 1_000_000
    target: str = TRIPLE

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1")
        object.__setattr__(self, "seed", self.seed & _MASK64)


@dataclass(frozen=True)
class Finding:
    """A violated candidate: the box side matrix (row i = sides of body i),
    the exact certificate, and rhs/lhs of the comparison (> 1 iff violated).
    ``index`` is the evaluation position, kept for deterministic ordering."""

    index: int
    side_matrix: Matrix
    certificate: Certificate
    violation_ratio: Fraction

    def to_json(self) -> dict:
        return {
            "candidate": self.index,
            "side_matrix": self.side_matrix.to_json(),
            "violation_ratio": format_rational(self.violation_ratio),
            "certificate": self.certificate.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Finding":
        try:
            side_matrix = Matrix(doc["side_matrix"])
            cert, ratio = _resolve_long_claims(side_matrix, doc["certificate"], doc["violation_ratio"])
            return cls(
                index=as_index(doc["candidate"]),
                side_matrix=side_matrix,
                certificate=Certificate.from_json(cert),
                violation_ratio=as_rational(ratio),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed finding document: {exc}") from exc


def _resolve_long_claims(side_matrix: Matrix, cert: dict, ratio: object) -> tuple[dict, object]:
    # Certificate sides are powers of V_I, so honest claims (lhs, rhs, ratio)
    # can outgrow as_rational's bound on input strings.  An over-long claim
    # that is the canonical string of the value verify_finding recomputes
    # becomes that value; any other claim is left to the bound.
    claims = (cert["lhs"], cert["rhs"], ratio)
    if all(not isinstance(c, str) or len(c) <= MAX_DIGITS for c in claims):
        return cert, ratio
    try:
        shape = Certificate.from_json({**cert, "lhs": 0, "rhs": 0})
        fresh = power_certificate(shape.center, shape.support, _polynomial(side_matrix).coefficients)
        values = (fresh.lhs, fresh.rhs, fresh.rhs / fresh.lhs)
        lhs, rhs, ratio = (v if c == format_rational(v) else c for c, v in zip(claims, values))
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return cert, ratio
    return {**cert, "lhs": lhs, "rhs": rhs}, ratio


@dataclass(frozen=True)
class SearchResult:
    """Findings sorted by descending violation ratio (ties by evaluation
    order), plus the number of candidates evaluated."""

    findings: tuple[Finding, ...]
    evaluations: int

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def __getitem__(self, i):
        return self.findings[i]

    @property
    def best_ratio(self) -> Fraction | None:
        return self.findings[0].violation_ratio if self.findings else None


# ---------------------------------------------------------------------------
# Counter-based randomness


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _cell_draw(seed: int, index: int, cell: int) -> int:
    key = (
        seed * 0x9E3779B97F4A7C15 + index * 0xD1B54A32D192ED03 + cell * 0x8CB92BA72F3D8DD7
    ) & _MASK64
    return _splitmix64(key)


# ---------------------------------------------------------------------------
# Candidate evaluation


def _perm3(r0: Sequence[int], r1: Sequence[int], r2: Sequence[int]) -> int:
    return (
        r0[0] * (r1[1] * r2[2] + r1[2] * r2[1])
        + r0[1] * (r1[0] * r2[2] + r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] + r1[1] * r2[0])
    )


def _digits_of(index: int, base: int, cells: int) -> tuple[int, ...]:
    out = [0] * cells
    for c in range(cells - 1, -1, -1):
        index, out[c] = divmod(index, base)
    return tuple(out)


def _triple_perms(sp: SearchSpace, digits: Sequence[int]) -> tuple[int, int, int, int]:
    # V(1,2,3), V(1,1,2), V(2,2,3) and V(3,3,1) of the candidate, each scaled
    # by denom^n * n! to an integer permanent.
    g = sp.int_grid
    r1 = (g[digits[0]], g[digits[1]], g[digits[2]])
    r2 = (g[digits[3]], g[digits[4]], g[digits[5]])
    r3 = (g[digits[6]], g[digits[7]], g[digits[8]])
    return _perm3(r1, r2, r3), _perm3(r1, r1, r2), _perm3(r2, r2, r3), _perm3(r3, r3, r1)


def _box_polynomial(sp: SearchSpace, digits: Sequence[int]) -> VolumePolynomial:
    # Permanent-route polynomial of the candidate boxes, exact Fractions.
    rows = _candidate_matrix(sp, digits)
    nfact = factorial(sp.n)
    coeffs = {}
    for idx in discrete_simplex(sp.k, sp.n):
        stacked = []
        for i, mult in enumerate(idx):
            stacked.extend([rows[i]] * mult)
        coeffs[idx] = permanent(Matrix(stacked)) / nfact
    return VolumePolynomial(k=sp.k, n=sp.n, coefficients=coeffs)


def _candidate_matrix(sp: SearchSpace, digits: Sequence[int]) -> Matrix:
    return Matrix([[sp.side_grid[digits[i * sp.n + j]] for j in range(sp.n)] for i in range(sp.k)])


def _triple(sp: SearchSpace, digits: Sequence[int], index: int) -> tuple[Fraction, Finding | None]:
    # Integer-scaled comparison: each V scales by denom^n * n!, and both sides
    # of V(1,2,3)^3 vs the cyclic product carry the same total factor, so the
    # scaled permanents compare directly and their ratio is the true ratio.
    p123, p112, p223, p331 = perms = _triple_perms(sp, digits)
    lhs, rhs = p123**3, p112 * p223 * p331
    if rhs == 0:
        return Fraction(0), None
    # A row-support argument rules out lhs = 0 with rhs > 0 for boxes, but the
    # guard keeps the invariant visible.
    if lhs == 0:
        raise ArithmeticError("cyclic product positive while the mixed volume vanishes")
    ratio = Fraction(rhs, lhs)
    if ratio <= 1:
        return ratio, None
    scale = Fraction(1, sp.denom**sp.n * factorial(sp.n))
    cert = triple_certificate(*(p * scale for p in perms))
    return ratio, Finding(index, _candidate_matrix(sp, digits), cert, ratio)


def _envelope(sp: SearchSpace, digits: Sequence[int], index: int) -> tuple[Fraction, Finding | None]:
    # The first vertex comparison with the largest ratio; comparisons run over
    # positive coefficients only, so no lhs vanishes.
    comparisons = envelope_vertex_comparisons(_box_polynomial(sp, digits))
    best = max(comparisons, key=lambda cert: cert.rhs / cert.lhs, default=None)
    ratio = Fraction(0) if best is None else best.rhs / best.lhs
    if ratio <= 1:
        return ratio, None
    return ratio, Finding(index, _candidate_matrix(sp, digits), best, ratio)


def _evaluate(sp: SearchSpace, target: str, digits: Sequence[int], index: int) -> tuple[Fraction, Finding | None]:
    """Ratio rhs/lhs of the strongest comparison, and a Finding when > 1."""
    return (_triple if target == TRIPLE else _envelope)(sp, digits, index)


def _candidate_digits(sp: SearchSpace, config: SearchConfig, index: int) -> tuple[int, ...]:
    cells = sp.k * sp.n
    g = len(sp.side_grid)
    if config.mode == RANDOM:
        return tuple(_cell_draw(config.seed, index, c) % g for c in range(cells))
    return _digits_of(index, g, cells)


def _triple_grid_scan(sp: SearchSpace, start: int, stop: int) -> list[Finding]:
    # Exhaustive triple scan of indices [start, stop) in (row 1, row 2, row 3)
    # blocks: index = (i1·G + i2)·G + i3 over the G = g^3 rows in digit order.
    # _perm3 is linear in each row, so perm3(r1, r2, r3) = m(r1, r2)·r3 and
    # perm3(r, r, s) = u(r)·s with u(r) = 2(r_1 r_2, r_0 r_2, r_0 r_1).  A row
    # pair computes V(1,1,2), u(r2) and m(r1, r2) once and skips its block
    # when V(1,1,2) = 0; each r3 costs three dot products and one integer
    # comparison.  Only a hit is decoded, and it goes through _triple (which
    # guards lhs = 0) like any other candidate.
    cells = [(a, b, c, 2 * b * c, 2 * a * c, 2 * a * b) for a, b, c in product(sp.int_grid, repeat=3)]
    size = len(cells)
    out: list[Finding] = []
    for pair in range(start // size, -(-stop // size)):
        base = pair * size
        a1, b1, c1, x1, y1, z1 = cells[pair // size]
        a2, b2, c2, x2, y2, z2 = cells[pair % size]
        p112 = x1 * a2 + y1 * b2 + z1 * c2
        if p112 == 0:
            continue
        m0, m1, m2 = b1 * c2 + c1 * b2, a1 * c2 + c1 * a2, a1 * b2 + b1 * a2
        lo, hi = max(start - base, 0), min(stop - base, size)
        for i3 in range(lo, hi):
            a, b, c, x, y, z = cells[i3]
            p123 = m0 * a + m1 * b + m2 * c
            if p112 * (x2 * a + y2 * b + z2 * c) * (x * a1 + y * b1 + z * c1) > p123 * p123 * p123:
                index = base + i3
                _, finding = _triple(sp, _digits_of(index, len(sp.side_grid), 9), index)
                out.append(finding)
    return out


def _scan_range(sp: SearchSpace, config: SearchConfig, start: int, stop: int) -> list[Finding]:
    # The first finding per side matrix, in index order.  Grid indices name
    # distinct matrices; random draws repeat, and only the first is kept.
    if config.mode == EXHAUSTIVE and config.target == TRIPLE:
        return _triple_grid_scan(sp, start, stop)
    first: dict[Matrix, Finding] = {}
    for index in range(start, stop):
        _, finding = _evaluate(sp, config.target, _candidate_digits(sp, config, index), index)
        if finding is not None:
            first.setdefault(finding.side_matrix, finding)
    return list(first.values())


def _finish(parts: Iterable[Iterable[Finding]], evaluations: int) -> SearchResult:
    # Parts arrive in chunk order, each in index order, so the first finding
    # kept per side matrix is its earliest.
    first: dict[Matrix, Finding] = {}
    for part in parts:
        for f in part:
            first.setdefault(f.side_matrix, f)
    ordered = sorted(first.values(), key=lambda f: (-f.violation_ratio, f.index))
    return SearchResult(findings=tuple(ordered), evaluations=evaluations)


def _hill_climb(sp: SearchSpace, config: SearchConfig) -> SearchResult:
    cells = sp.k * sp.n
    g = len(sp.side_grid)
    budget = config.max_evaluations
    evaluations = 0
    first: dict[Matrix, Finding] = {}

    def evaluate(digits: tuple[int, ...]) -> Fraction:
        nonlocal evaluations
        ratio, finding = _evaluate(sp, config.target, digits, evaluations)
        evaluations += 1
        if finding is not None:
            first.setdefault(finding.side_matrix, finding)
        return ratio

    restart = 0
    while evaluations < budget:
        digits = tuple(_cell_draw(config.seed, restart, c) % g for c in range(cells))
        restart += 1
        ratio = evaluate(digits)
        improved = True
        while improved:
            improved = False
            # First-improvement scan over single-cell grid steps; plateaus
            # (equal ratio) are rejected so the walk cannot cycle.
            for cell, step in product(range(cells), (-1, 1)):
                di = digits[cell] + step
                if not 0 <= di < g:
                    continue
                if evaluations >= budget:
                    break
                cand = digits[:cell] + (di,) + digits[cell + 1 :]
                cand_ratio = evaluate(cand)
                if cand_ratio > ratio:
                    digits, ratio = cand, cand_ratio
                    improved = True
                    break
    return _finish([first.values()], evaluations)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def search(space: SearchSpace, config: SearchConfig, *, jobs: int = 1) -> SearchResult:
    """Run the configured search; output is a pure function of (space, config).

    ``jobs`` > 1 splits grid and random scans into contiguous index chunks
    evaluated in worker processes, at most one per CPU available to this
    process; chunk results are merged in index order, so the outcome is
    identical for every worker count.  Hill-climb walks are
    sequential by nature and ignore ``jobs``.
    """
    if config.target == TRIPLE and (space.k != 3 or space.n != 3):
        raise ValueError("the triple-inequality target needs k = 3 bodies in dimension 3")
    if config.mode == HILL_CLIMB:
        return _hill_climb(space, config)

    count = config.max_evaluations
    if config.mode == EXHAUSTIVE:
        count = min(count, len(space.side_grid) ** (space.k * space.n))

    # One chunk per worker and at least two candidates per chunk.
    jobs = max(1, min(int(jobs), _cpu_count(), count // 2))
    if jobs == 1:
        return _finish([_scan_range(space, config, 0, count)], count)

    bounds = [count * i // jobs for i in range(jobs + 1)]
    chunks = [(bounds[i], bounds[i + 1]) for i in range(jobs)]
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_scan_range, [space] * jobs, [config] * jobs, *zip(*chunks)))
    except OSError:
        # Restricted environments may forbid worker processes; the sequential
        # result is identical by construction.
        parts = [_scan_range(space, config, a, b) for a, b in chunks]
    return _finish(parts, count)


def _polynomial(side_matrix: Matrix) -> VolumePolynomial:
    # The boxes' full volume polynomial by polarization, without permanents.
    return volume_polynomial(BodyTuple(tuple(AxisBox.from_lengths(row) for row in side_matrix)))


def verify_finding(f: Finding) -> bool:
    """Re-derive a Finding through the polarization route.

    Boxes are rebuilt from the side matrix, the full volume polynomial is
    recomputed without permanents, and the certificate, its text included,
    plus ratio must match exactly.  The search hot path never touches this code.
    """
    try:
        vp = _polynomial(f.side_matrix)
    except (ValueError, TypeError):
        return False
    cert = f.certificate
    if not recheck_certificate(vp, cert):
        return False
    # The sides are rechecked, so only the text is rebuilt, from unit values.
    honest = _TRIPLE_SHAPE
    if (cert.center, cert.support) != (honest.center, honest.support):
        honest = power_certificate(cert.center, cert.support, dict.fromkeys(vp.coefficients, 1))
    return cert.comparison == honest.comparison and f.violation_ratio == cert.rhs / cert.lhs


# ---------------------------------------------------------------------------
# Streaming serialization


def result_to_jsonl(result: SearchResult) -> str:
    """One Finding per line, then a summary record terminating the stream."""
    lines = [json.dumps(f.to_json(), separators=(",", ":")) for f in result.findings]
    summary = {
        "summary": True,
        "evaluations": result.evaluations,
        "findings": len(result.findings),
        "best_ratio": format_rational(result.best_ratio) if result.findings else None,
    }
    lines.append(json.dumps(summary, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def findings_from_jsonl(text: str) -> tuple[list[Finding], dict | None]:
    """Parse a findings stream; returns (findings, summary record or None)."""
    findings: list[Finding] = []
    summary: dict | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        doc = parse_json(line)
        if isinstance(doc, dict) and doc.get("summary"):
            summary = doc
        else:
            findings.append(Finding.from_json(doc))
    return findings, summary
