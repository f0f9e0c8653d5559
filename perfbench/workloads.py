"""The three workloads of the mixedvol benchmark.

Each workload turns (seed, pass number) into inputs, runs one timed pass over
them, and gates the pass's outputs afterwards, outside the timed region.
Every loop is closed (one operation at a time) and every search uses
``jobs=1``.  Library calls go through module attributes (``S.search``,
``C.run``) so that the tracer's wrappers see them.

A pass records raw clock intervals: the pass itself, each operation (one
``verify_finding`` call, one search batch or one CLI request), and the
intervals spent on items (candidates scanned, or CLI requests).  It calls
``meter.tick()`` between operations so that speed probes bracket each of
them; run.py normalizes the intervals (see speed.py).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter as clock
from typing import Callable

import mixedvol.cli as C
from mixedvol import Matrix, format_rational

import routes

# The package re-exports the function search under the submodule's name.
S = importlib.import_module("mixedvol.search")

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0


@dataclass
class Pass:
    start: float = 0.0
    end: float = 0.0
    items: int = 0
    item_spans: list[tuple[float, float]] = field(default_factory=list)
    ops: list[tuple[float, float]] = field(default_factory=list)
    outputs: object = None


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def _grid(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


class TripleRediscover:
    """The paper's reproduction: an exhaustive triple-inequality scan of the
    grid 0,1/3,1,5 (4^9 candidates), then verify_finding on every finding.
    The seed only sets the order in which findings are verified."""

    findings = 1422
    flat = Matrix([["1", "1", "0"], ["1", "0", "5"], ["0", "1/3", "1"]])
    flat_ratio = Fraction(75, 64)
    verify_limit: int | None = None  # verify every finding

    def __init__(self, seed: int):
        self.seed = seed
        self.space = S.SearchSpace(side_grid=_grid(("0", "1/3", "1", "5")), n=3, k=3)
        self.config = S.SearchConfig(
            mode="exhaustive-grid", target="triple-inequality", max_evaluations=4**9
        )

    def inputs(self, p: int) -> random.Random:
        return random.Random(f"{self.seed}/{p}")

    def run(self, order_rng: random.Random, meter) -> Pass:
        out = Pass()
        meter.probe()
        out.start = clock()
        result = S.search(self.space, self.config, jobs=1)
        out.item_spans.append((out.start, clock()))
        out.items = result.evaluations
        order = list(result.findings)
        order_rng.shuffle(order)
        oks = []
        for f in order[: self.verify_limit]:
            meter.tick()
            t = clock()
            oks.append(S.verify_finding(f))
            out.ops.append((t, clock()))
        out.end = clock()
        meter.probe()
        out.outputs = (result, oks)
        return out

    def gate(self, p: int, out: Pass) -> Gate:
        result, oks = out.outputs
        g = Gate()
        for i, ok in enumerate(oks):
            g.check(ok, f"finding {i} in verify order fails verify_finding")
        g.check(
            len(result.findings) == self.findings,
            f"{len(result.findings)} findings, expected {self.findings}",
        )
        ratios = {f.side_matrix: f.violation_ratio for f in result.findings}
        g.check(
            ratios.get(self.flat) == self.flat_ratio,
            f"flat triple ratio {ratios.get(self.flat)}, expected {self.flat_ratio}",
        )
        return g


class EnvelopeHunt:
    """Seeded random-mode full-envelope search over k = n = 3 boxes on the
    grid 0,1/3,1,2,5, in batches of three candidates, every finding verified.
    Each pass draws fresh batch seeds from (seed, pass)."""

    batch = 3
    batches = 50
    # (seed, batches) -> (findings, best ratio) of pass 0, recorded at the
    # commit that introduced the benchmark.  Three batches is the smoke
    # test's size.
    recorded = {(DEFAULT_SEED, 50): (1, "248400/226981"), (DEFAULT_SEED, 3): (0, None)}

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = self.recorded.get((seed, self.batches))
        self.space = S.SearchSpace(side_grid=_grid(("0", "1/3", "1", "2", "5")), n=3, k=3)

    def inputs(self, p: int) -> list:
        rng = random.Random(f"{self.seed}/{p}")
        return [
            S.SearchConfig(
                mode="random",
                seed=rng.getrandbits(63),
                max_evaluations=self.batch,
                target="full-envelope",
            )
            for _ in range(self.batches)
        ]

    def run(self, configs: list, meter) -> Pass:
        out = Pass()
        evaluated, found, oks = [], [], []
        meter.probe()
        out.start = clock()
        for config in configs:
            meter.tick()
            t = clock()
            result = S.search(self.space, config, jobs=1)
            out.ops.append((t, clock()))
            out.items += result.evaluations
            evaluated.append(result.evaluations)
            for f in result.findings:
                found.append(f)
                oks.append(S.verify_finding(f))
        out.end = clock()
        meter.probe()
        out.item_spans = out.ops
        out.outputs = (evaluated, found, oks)
        return out

    def gate(self, p: int, out: Pass) -> Gate:
        evaluated, found, oks = out.outputs
        g = Gate()
        for i, n in enumerate(evaluated):
            g.check(n == self.batch, f"batch {i} evaluated {n} candidates, asked for {self.batch}")
        for f, ok in zip(found, oks):
            g.check(ok and f.violation_ratio > 1, f"finding {f.index} fails verify_finding")
        if p == 0 and self.expected is not None:
            count, best = self.expected
            got_best = max((f.violation_ratio for f in found), default=None)
            g.check(len(found) == count, f"{len(found)} findings, recorded {count}")
            g.check(
                got_best == (None if best is None else Fraction(best)),
                f"best ratio {got_best}, recorded {best}",
            )
        return g


# ---------------------------------------------------------------------------
# tuple-check

_SIDES = _grid(("0", "1/3", "1/2", "1", "2", "3", "5"))
_OFFSETS = _grid(("-1", "0", "1/2", "2"))
_ENTRIES = _grid(("-2", "-1/2", "0", "1/3", "1", "3/2", "2"))
_SCALES = _grid(("1", "2"))
_FULL3 = ("volpoly", "mixvol", "af-check", "triple-check", "segment-concavity", "gromov-check")
_FULL4 = ("volpoly", "mixvol", "af-check", "segment-concavity")
_MATRIX = ("volpoly", "af-check", "segment-concavity", "gromov-check")
# Two requests per recorded V-polytope tuple; the pairs keep the heavy tail
# the same from pass to pass and seed to seed.
_VPOLY = (
    ("volpoly", "gromov-check"),
    ("mixvol", "triple-check"),
    ("af-check", "segment-concavity"),
    ("volpoly", "mixvol"),
)


def _doc(bodies: list[dict], n: int) -> str:
    return json.dumps({"dimension": n, "bodies": bodies})


def _strs(values) -> list[str]:
    return [format_rational(v) for v in values]


def _box_tuple(rng: random.Random, k: int):
    sides = [[rng.choice(_SIDES) for _ in range(k)] for _ in range(k)]
    bodies = []
    for row in sides:
        intervals = []
        for s in row:
            lo = rng.choice(_OFFSETS)
            intervals.append(_strs((lo, lo + s)))
        bodies.append({"type": "box", "intervals": intervals})
    return _doc(bodies, k), lambda: routes.box_polynomial(sides)


def _zonotope_tuple(rng: random.Random, n: int, gens: int):
    def generator():
        while True:
            g = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            if any(g):
                return g

    generators = [[generator() for _ in range(gens)] for _ in range(n)]
    bodies = [
        {"type": "zonotope", "dimension": n, "generators": [_strs(g) for g in body]}
        for body in generators
    ]
    return _doc(bodies, n), lambda: routes.zonotope_polynomial(generators, n)


def _matrix_tuple(rng: random.Random):
    while True:
        q = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if routes.det(q) != 0:
            break
    diagonals = [[Fraction(rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
    matrices = []
    for a in diagonals:
        m = [[sum(q[r][i] * a[r] * q[r][j] for r in range(3)) for j in range(3)] for i in range(3)]
        matrices.append([_strs(row) for row in m])
    return json.dumps({"matrices": matrices}), lambda: routes.matrix_polynomial(q, diagonals)


def _vpolytope_tuple(rng: random.Random, entry: dict):
    # Coordinates permuted, reflected, scaled by t and shifted: volume
    # changes by t^3 only.  Body order stays, so each request's cost does too.
    axes = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    t = rng.choice(_SCALES)
    bodies = []
    for body in entry["bodies"]:
        shift = [rng.randint(-1, 1) for _ in range(3)]
        moved = [
            _strs(t * signs[a] * Fraction(v[axes[a]]) + shift[a] for a in range(3))
            for v in body["vertices"]
        ]
        bodies.append({"type": "vpolytope", "vertices": moved})
    poly = {
        tuple(int(x) for x in key.split(",")): t**3 * Fraction(value)
        for key, value in entry["polynomial"].items()
    }
    return _doc(bodies, 3), lambda: poly


def _perm_request(rng: random.Random, n: int):
    rows = [[rng.choice(_ENTRIES) for _ in range(n)] for _ in range(n)]
    return json.dumps([_strs(r) for r in rows]), lambda: routes.perm(rows)


@dataclass
class Request:
    command: str
    doc: str
    k: int
    expected: Callable[[], object]  # second-route answer, computed in the gate

    @property
    def argv(self) -> list[str]:
        return [self.command, "--format", "json"]


def _report_of(doc: dict) -> tuple:
    certs = sorted(
        (tuple(c["center"]), Fraction(c["lhs"]), Fraction(c["rhs"])) for c in doc["certificates"]
    )
    return doc["verdict"], doc["checked"], certs


def _expected_report(command: str, poly: dict, k: int, n: int) -> tuple:
    if command == "segment-concavity":
        verdict, checked, certs = routes.segment_report(poly)
    elif command == "af-check":
        verdict, checked, certs = routes.pair_report(poly, k)
    elif command == "triple-check":
        verdict, checked, certs = routes.triple_report(poly)
    else:
        verdict, checked, certs = routes.envelope_report(poly, k, n)
    return verdict, checked, sorted(certs)


def _check_request(req: Request, code: int, stdout: str) -> bool:
    doc = json.loads(stdout)
    want = req.expected()
    if req.command == "perm":
        return code == 0 and Fraction(doc["value"]) == want
    if req.command == "volpoly":
        got = {tuple(e["index"]): Fraction(e["value"]) for e in doc}
        return code == 0 and got == want
    if req.command == "mixvol":
        return code == 0 and Fraction(doc["value"]) == want[(1,) * req.k]
    expected = _expected_report(req.command, want, req.k, sum(next(iter(want))))
    return code == (3 if expected[0] == "fails" else 0) and _report_of(doc) == expected


class TupleCheck:
    """A seeded batch of JSON requests sent one at a time to mixedvol.cli.run
    in process, with stdout captured: boxes (k = n = 3, 4), zonotopes in R^3
    and R^4, matrix tuples Q^T diag(a_i) Q, permanents, and the recorded
    V-polytope tuples moved to seeded coordinates.  gromov-check is only sent
    for k = 3, since one k = n = 4 box tuple takes minutes."""

    perm_sizes = (4, 5, 5, 6)
    copies = 2  # of each k = 3 box and zonotope tuple
    vpolytopes = len(_VPOLY)  # recorded tuples sent

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = json.loads((HERE / "vpolytopes.json").read_text(encoding="utf-8"))

    def inputs(self, p: int) -> list[Request]:
        rng = random.Random(f"{self.seed}/{p}")
        reqs: list[Request] = []

        def add(commands, k, made):
            doc, compute = made
            once = functools.cache(compute)  # one tuple, several requests
            reqs.extend(Request(c, doc, k, once) for c in commands)

        for n in self.perm_sizes:
            add(("perm",), n, _perm_request(rng, n))
        for _ in range(self.copies):
            add(_FULL3, 3, _box_tuple(rng, 3))
            add(_FULL3, 3, _zonotope_tuple(rng, 3, 3))
        add(_FULL4, 4, _box_tuple(rng, 4))
        add(_FULL4, 4, _zonotope_tuple(rng, 4, 2))
        add(_MATRIX, 3, _matrix_tuple(rng))
        for entry, commands in zip(self.pool[: self.vpolytopes], _VPOLY):
            add(commands, 3, _vpolytope_tuple(rng, entry))
        rng.shuffle(reqs)
        return reqs

    def run(self, reqs: list[Request], meter) -> Pass:
        out = Pass()
        outputs = []
        saved = sys.stdin
        meter.probe()
        out.start = clock()
        try:
            for req in reqs:
                meter.tick()
                stdout, stderr = io.StringIO(), io.StringIO()
                sys.stdin = io.StringIO(req.doc)
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    t = clock()
                    code = C.run(req.argv)
                    out.ops.append((t, clock()))
                outputs.append((code, stdout.getvalue(), stderr.getvalue()))
        finally:
            sys.stdin = saved
        out.end = clock()
        meter.probe()
        out.items = len(reqs)
        out.item_spans = out.ops
        out.outputs = (reqs, outputs)
        return out

    def gate(self, p: int, out: Pass) -> Gate:
        reqs, outputs = out.outputs
        g = Gate()
        for req, (code, stdout, stderr) in zip(reqs, outputs):
            try:
                ok = _check_request(req, code, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                ok, stderr = False, f"{stderr} {type(exc).__name__}: {exc}"
            g.check(ok, f"{req.command} exit {code} on {req.doc[:80]}... {stderr.strip()}")
        return g


WORKLOADS = {
    "triple-rediscover": TripleRediscover,
    "envelope-hunt": EnvelopeHunt,
    "tuple-check": TupleCheck,
}
