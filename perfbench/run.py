"""Benchmark of mixedvol, run from the repository root:

    python3 perfbench/run.py --workload triple-rediscover --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): triple-rediscover, envelope-hunt, tuple-check.
The program is imported from ./src; nothing is installed.

Every time reported is normalized to a nominal machine speed by probes
interleaved with the timed operations (see speed.py); raw wall times go to
the run report.

With ``--trace 0`` the run sets up the workload several times, then runs
timed passes until they add up to ``--seconds``, and reports the end-to-end
metrics named in BENCHMARK.json:

    setup_s      median CPU time of nine set-ups: import of mixedvol.cli plus
                 input generation (one in this process, eight in fresh
                 interpreters)
    wall_s       median time of one pass
    items_per_s  median per pass of items over the time spent on them:
                 candidates scanned (triple-rediscover, envelope-hunt) or
                 CLI requests (tuple-check)
    op_p50_ms    median over passes of the median and the p90 latency of one
    op_p90_ms    operation in the pass: a verify_finding call, a search
                 batch, or a CLI request.  Taken per pass, a quantile of a
                 request mix does not move with the number of passes.
    peak_rss_mb  peak resident memory of this process after the passes

With ``--trace 1`` the run makes one untraced and one traced pass over the
inputs of pass 0 and reports the per-layer metrics: span times, exact work
counts, per-layer self times and the tracing overhead, plus a --jobs 1 vs 2
triple scan, one k=4, n=3 envelope test and the cold start of the CLI.

Every pass is gated right after its timed interval.  ``attempted`` and
``failed`` in the result count gated operations, so error_rate is
failed / attempted.  The last line of
stdout is the result as JSON; a report with run metadata (and the spans of a
traced run) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import COMPARABLE, Meter, clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("triple-rediscover", "envelope-hunt", "tuple-check")
SETUP_SAMPLES = 9
COLD_SAMPLES = 5
K4N3_SIDES = [[1, 1, 1], [1, 2, 1], [2, 1, 3], [1, 3, 2]]
JOBS2_GRID = ("0", "1/3", "1", "5")


def setup_once(workload: str, seed: int):
    """Import the CLI and generate pass 0's inputs.

    Returns (start, end, CPU seconds, workload, inputs); start and end are
    read from the system-wide monotonic clock, so that a parent process can
    normalize them.
    """
    t0, cpu = clock(), time.process_time()
    import mixedvol.cli  # noqa: F401

    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    first = wl.inputs(0)
    return t0, clock(), time.process_time() - cpu, wl, first


def _setup_times(meter: Meter, t0: float, t1: float, cpu: float) -> tuple[float, float]:
    # Over 30 fresh imports CPU time spread less than wall time (IQR/median
    # 0.10 against 0.15): wall time also holds file reads and waits for a CPU.
    return cpu * meter.factor(t0, t1), t1 - t0


def _child_setup(meter: Meter, workload: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter, normalized by this process's probes
    around it; returns (normalized CPU, raw wall) seconds."""
    code = (
        "import sys; sys.path[:0] = [{!r}, {!r}]; import run; "
        "print(*run.setup_once({!r}, {!r})[:3])"
    ).format(str(BENCH), str(SRC), workload, seed)
    meter.probe()
    meter.probe()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    meter.probe()
    meter.probe()
    return _setup_times(meter, *map(float, done.stdout.split()[-3:]))


def _timed(meter: Meter, fn) -> float:
    """Normalized seconds of one call, bracketed by probes."""
    meter.probe()
    meter.probe()
    t0 = clock()
    fn()
    t1 = clock()
    meter.probe()
    meter.probe()
    return meter.normalize(t0, t1)


def _cold_start() -> None:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mixedvol.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def _git_revision() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a checkout of its own, or inside some other repository
    return lines[1]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _untraced(args, meter, wl, first, setup):
    setups = [setup] + [
        _child_setup(meter, args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    passes, gates = [], []
    inputs = first
    busy = 0.0
    while busy < args.seconds:
        out = wl.run(inputs, meter)
        busy += out.end - out.start
        # Gate now and drop the outputs, so that memory does not grow with
        # the number of passes.
        gates.append(wl.gate(len(passes), out))
        out.outputs = None
        passes.append(out)
        inputs = wl.inputs(len(passes))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = [meter.normalize(p.start, p.end) for p in passes]
    rates = [p.items / sum(meter.normalize(*s) for s in p.item_spans) for p in passes]
    ops = [[meter.normalize(*op) * 1e3 for op in p.ops] for p in passes]
    metrics = {
        "setup_s": statistics.median(norm for norm, _ in setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(statistics.median(p) for p in ops),
        "op_p90_ms": statistics.median(_p90(p) for p in ops),
        "peak_rss_mb": peak_kb / 1024,
    }
    extra = {
        "passes": len(passes),
        "ops": sum(map(len, ops)),
        "raw": {
            "setup_s": [raw for _, raw in setups],
            "pass_wall_s": [p.end - p.start for p in passes],
            "speed_factor": [meter.factor(p.start, p.end) for p in passes],
        },
    }
    return gates, metrics, extra


def _k4n3():
    from mixedvol import AxisBox, BodyTuple, gromov_concavity, volume_polynomial

    boxes = tuple(AxisBox.from_lengths(row) for row in K4N3_SIDES)
    vp = volume_polynomial(BodyTuple(boxes))
    return lambda: gromov_concavity(vp)


def _triple_scan(jobs: int):
    from fractions import Fraction

    from workloads import S

    space = S.SearchSpace(side_grid=tuple(Fraction(v) for v in JOBS2_GRID), n=3, k=3)
    config = S.SearchConfig(
        mode="exhaustive-grid", target="triple-inequality", max_evaluations=4**9
    )
    return lambda: S.search(space, config, jobs=jobs)


def _traced(meter, wl, first, stem: str):
    from spans import Tracer

    plain = wl.run(first, meter)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root():
            traced = wl.run(first, meter)
    finally:
        tracer.uninstall()
    metrics = tracer.summary(meter.normalize)
    plain_wall = meter.normalize(plain.start, plain.end)
    traced_wall = meter.normalize(traced.start, traced.end)
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    one = _timed(meter, _triple_scan(1))
    two = _timed(meter, _triple_scan(2))
    metrics["search.scan.jobs2_speedup"] = one / two
    metrics["inequalities.envelope.k4n3_s"] = _timed(meter, _k4n3())
    metrics["cli.cold_start_s"] = statistics.median(
        _timed(meter, _cold_start) for _ in range(COLD_SAMPLES)
    )
    tracer.write(OUT / f"{stem}.spans.jsonl")
    extra = {
        "raw": {
            "untraced_wall_s": plain.end - plain.start,
            "traced_wall_s": traced.end - traced.start,
            "speed_factor": [meter.factor(traced.start, traced.end)],
        }
    }
    return [wl.gate(0, plain), wl.gate(0, traced)], metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mixedvol" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no mixedvol sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "loadavg_start": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    meter = Meter()
    for _ in range(3):  # the first probes of an interpreter run cold
        meter.probe()
    t0, t1, cpu, wl, first = setup_once(args.workload, args.seed)
    meter.probe()
    meter.probe()
    if not Path(sys.modules["mixedvol"].__file__).resolve().is_relative_to(SRC):
        print("error: mixedvol was not imported from ./src", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        gates, measured, extra = _traced(meter, wl, first, stem)
        declared = spec["per_layer"]
    else:
        setup = _setup_times(meter, t0, t1, cpu)
        gates, measured, extra = _untraced(args, meter, wl, first, setup)
        declared = spec["end_to_end"]
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    notes = [note for g in gates for note in g.notes]

    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    meta["loadavg_end"] = os.getloadavg()
    factor = statistics.median(extra["raw"]["speed_factor"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "error_rate": failed / attempted if attempted else None,
        "comparable": abs(factor - 1) <= COMPARABLE,
        "failures": notes[:50],
        "measured": measured,
        **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for note in notes[:10]:
        print(f"gate: {note}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: error_rate={failed}/{attempted} "
        f"load={meta['loadavg_start'][0]:.2f}->{meta['loadavg_end'][0]:.2f} "
        f"speed_factor={factor:.3f}"
        + ("" if report["comparable"] else " (unusual machine speed: not comparable)")
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
