"""Span tracing installed from outside the library.

The tracer replaces module attributes through which one mixedvol module
calls into another (for example ``mixedvol.search.volume_polynomial``) with
wrappers that record a span: name, parent span, start and end.  A span's
layer is the first component of its name, which is always the module of the
callee, so the time inside a span that its child spans do not cover is that
layer's self time.

Spans stay in memory and are summarized (and optionally written out) after
the traced pass.  Nothing is installed unless :meth:`Tracer.install` runs,
and :meth:`Tracer.uninstall` restores every original attribute.  If an
attribute in TIMED or COUNTED no longer exists, install fails rather than
letting its metrics read 0: the tables must follow the library's call graph.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("numerics", "bodies", "mixed", "inequalities", "search", "cli")

# (module, attribute, span name): calls across a module boundary, plus the
# envelope scan, which inequalities calls internally from both of its entry
# points.  The bench calls search and cli.run through these attributes too.
TIMED = [
    ("mixedvol.cli", "run", "cli.run"),
    ("mixedvol.cli", "search", "search.scan"),
    ("mixedvol.cli", "verify_finding", "search.verify"),
    ("mixedvol.cli", "volume_polynomial", "mixed.volume_polynomial"),
    ("mixedvol.cli", "discriminant_polynomial", "mixed.discriminant_polynomial"),
    ("mixedvol.cli", "mixed_volume", "mixed.mixed_volume"),
    ("mixedvol.cli", "mixed_discriminant", "mixed.mixed_discriminant"),
    ("mixedvol.cli", "permanent", "numerics.permanent"),
    ("mixedvol.cli", "segment_concavity", "inequalities.segment"),
    ("mixedvol.cli", "gromov_concavity", "inequalities.gromov"),
    ("mixedvol.cli", "gromov_triple_check", "inequalities.triple"),
    ("mixedvol.cli", "af_check_volumes", "inequalities.af"),
    ("mixedvol.cli", "af_check_discriminants", "inequalities.af"),
    ("mixedvol.cli", "minkowski_sequence_check", "inequalities.bm"),
    ("mixedvol.cli", "vdw_check", "inequalities.vdw"),
    ("mixedvol.search", "search", "search.scan"),
    ("mixedvol.search", "verify_finding", "search.verify"),
    ("mixedvol.search", "volume_polynomial", "mixed.volume_polynomial"),
    ("mixedvol.search", "envelope_vertex_comparisons", "inequalities.vertex_comparisons"),
    ("mixedvol.search", "recheck_certificate", "inequalities.recheck"),
    ("mixedvol.search", "permanent", "numerics.permanent"),
    ("mixedvol.inequalities", "_envelope_scan", "inequalities.envelope"),
    ("mixedvol.inequalities", "mixed_volume", "mixed.mixed_volume"),
    ("mixedvol.inequalities", "mixed_discriminant", "mixed.mixed_discriminant"),
    ("mixedvol.inequalities", "volume", "bodies.volume"),
    ("mixedvol.inequalities", "minkowski_sum", "bodies.minkowski_sum"),
    ("mixedvol.inequalities", "permanent", "numerics.permanent"),
    ("mixedvol.inequalities", "simplex_max", "numerics.simplex_max"),
    ("mixedvol.inequalities", "is_positive_definite", "numerics.is_positive_definite"),
    ("mixedvol.mixed", "volume", "bodies.volume"),
    ("mixedvol.mixed", "minkowski_sum", "bodies.minkowski_sum"),
    ("mixedvol.mixed", "permanent", "numerics.permanent"),
    ("mixedvol.mixed", "determinant", "numerics.determinant"),
    ("mixedvol.bodies", "convex_hull_3d", "bodies.convex_hull_3d"),
    ("mixedvol.bodies", "determinant", "numerics.determinant"),
    ("mixedvol.bodies", "matrix_rank", "numerics.matrix_rank"),
]

# Hot intra-module calls that are counted but not timed: a span per call
# would cost more than the call itself.
COUNTED = [
    ("mixedvol.inequalities", "_solve_unique", "inequalities.envelope.subset_solves"),
]

_BODY_KINDS = {"AxisBox": "box", "Zonotope": "zonotope", "VPolytope": "vpolytope"}
_TARGET_SCANS = {"triple-inequality": "search.scan.triple", "full-envelope": "search.scan.envelope"}


def _note(name: str, counts: Counter, args, kwargs, result) -> str:
    """Count exact work at the boundary; returns the span name to record."""
    if name == "bodies.volume":
        counts[f"bodies.volume.{_BODY_KINDS[type(args[0]).__name__]}.calls"] += 1
    elif name == "search.scan":
        config = args[1] if len(args) > 1 else kwargs["config"]
        name = _TARGET_SCANS[config.target]
        counts[f"{name}.cands"] += result.evaluations
        counts["search.findings"] += len(result.findings)
    elif name == "inequalities.envelope":
        counts["inequalities.envelope.comparisons"] += len(result[0])
    return name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, fn, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[0] = _note(name, counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        missing = [
            f"{module_name}.{attr}"
            for module_name, attr, _ in TIMED + COUNTED
            if not hasattr(importlib.import_module(module_name), attr)
        ]
        if missing:
            raise LookupError(f"attributes to trace are missing from the library: {missing}")
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def root(self, name: str = "bench.pass"):
        """Record the span that encloses one traced pass."""
        span = [name, -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")

    def summary(self, length) -> dict[str, float]:
        """Per-layer metrics of the recorded spans and counts; ``length``
        turns a span's clock interval into its duration (see speed.py)."""
        spans = self.spans
        durations = [length(start, end) for _, _, start, end in spans]
        child = [0.0] * len(spans)
        for (name, parent, start, end), dur in zip(spans, durations):
            if parent >= 0:
                child[parent] += dur
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        evals_in_poly = 0
        for i, (name, parent, start, end) in enumerate(spans):
            dur = durations[i]
            calls[name] += 1
            total[name] += dur
            self_s[name.split(".", 1)[0]] += dur - child[i]
            if name == "bodies.volume" and parent >= 0 and spans[parent][0] == "mixed.volume_polynomial":
                evals_in_poly += 1
        c = self.counts
        m: dict[str, float] = {}
        for target in ("triple", "envelope"):
            key = f"search.scan.{target}"
            m[f"{key}.s"] = total[key]
            m[f"{key}.cands"] = c[f"{key}.cands"]
            m[f"{key}.cands_per_s"] = c[f"{key}.cands"] / total[key] if total[key] else 0.0
        cands = c["search.scan.triple.cands"] + c["search.scan.envelope.cands"]
        m["search.findings"] = c["search.findings"]
        m["search.hit_ratio"] = c["search.findings"] / cands if cands else 0.0
        m["search.verify.calls"] = calls["search.verify"]
        m["search.verify.s"] = total["search.verify"]
        polys = calls["mixed.volume_polynomial"]
        m["mixed.volume_polynomial.calls"] = polys
        m["mixed.volume_polynomial.s"] = total["mixed.volume_polynomial"]
        m["mixed.mixed_volume.calls"] = calls["mixed.mixed_volume"]
        m["mixed.mixed_volume.s"] = total["mixed.mixed_volume"]
        m["mixed.discriminant_polynomial.calls"] = calls["mixed.discriminant_polynomial"]
        m["mixed.discriminant_polynomial.s"] = total["mixed.discriminant_polynomial"]
        m["mixed.volume_evals_per_poly"] = evals_in_poly / polys if polys else 0.0
        for kind in ("box", "zonotope", "vpolytope"):
            m[f"bodies.volume.{kind}.calls"] = c[f"bodies.volume.{kind}.calls"]
        m["bodies.volume.s"] = total["bodies.volume"]
        m["bodies.minkowski_sum.calls"] = calls["bodies.minkowski_sum"]
        m["bodies.minkowski_sum.s"] = total["bodies.minkowski_sum"]
        m["bodies.convex_hull_3d.calls"] = calls["bodies.convex_hull_3d"]
        m["bodies.convex_hull_3d.s"] = total["bodies.convex_hull_3d"]
        solves = c["inequalities.envelope.subset_solves"]
        comparisons = c["inequalities.envelope.comparisons"]
        m["inequalities.envelope.calls"] = calls["inequalities.envelope"]
        m["inequalities.envelope.s"] = total["inequalities.envelope"]
        m["inequalities.envelope.comparisons"] = comparisons
        m["inequalities.envelope.lp_screens"] = calls["numerics.simplex_max"]
        m["inequalities.envelope.subset_solves"] = solves
        m["inequalities.envelope.solve_yield"] = comparisons / solves if solves else 0.0
        m["inequalities.recheck.calls"] = calls["inequalities.recheck"]
        m["inequalities.recheck.s"] = total["inequalities.recheck"]
        m["inequalities.segment.calls"] = calls["inequalities.segment"]
        m["inequalities.segment.s"] = total["inequalities.segment"]
        for fn in ("permanent", "determinant"):
            m[f"numerics.{fn}.calls"] = calls[f"numerics.{fn}"]
            m[f"numerics.{fn}.s"] = total[f"numerics.{fn}"]
        m["numerics.simplex_max.s"] = total["numerics.simplex_max"]
        m["cli.run.calls"] = calls["cli.run"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        m["trace.layers_self_s"] = sum(self_s[layer] for layer in LAYERS)
        m["trace.bench_self_s"] = self_s["bench"]
        m["trace.spans"] = len(spans)
        return m
