"""Smoke test of the benchmark itself, at tiny sizes.  From the repository root:

    python3 perfbench/smoke.py

It checks that BENCHMARK.json is well formed; that every workload runs, passes
its gate on two seeds and emits every declared metric with its unit, with
tracing off and on; that the exact counters of a traced run repeat; that a
corrupted expected value is counted as a failure rather than timed; and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the contract's keys",
    )
    expect(spec["paths"] == ["perfbench"] and spec["command"][1].startswith("perfbench/"),
           "command and paths stay inside perfbench")
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]
    ]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "names are well formed and unique")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"]),
           "workloads have a name and a short why")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               and UNIT.match(m["unit"]) for m in spec["end_to_end"]),
           "end-to-end metrics have unit, direction and a bound of at most 0.25")
    expect(all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
               for m in spec["per_layer"]),
           "per-layer metrics have unit and direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is declared with the largest bound")


# Run the benchmark in process at tiny sizes, after the optional corruption.
TINY = """
import sys
sys.path[:0] = ["perfbench", "src"]
import routes, run, workloads
workloads.TripleRediscover.verify_limit = 40
workloads.EnvelopeHunt.batches = 3
workloads.TupleCheck.perm_sizes = (4,)
workloads.TupleCheck.copies = 1
workloads.TupleCheck.vpolytopes = 1
run.K4N3_SIDES = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
run.JOBS2_GRID = ("0", "1", "5")
{corrupt}
sys.exit(run.main(sys.argv[1:]))
"""
# One expected value per workload, made wrong.
CORRUPT = {
    "triple-rediscover": "workloads.TripleRediscover.findings += 1",
    "envelope-hunt": "workloads.EnvelopeHunt.recorded[(0, 3)] = (1, None)",
    "tuple-check": "perm = routes.perm; routes.perm = lambda rows: perm(rows) + 1",
}


def bench(cwd: Path, workload: str, seed: int, trace: int, corrupt: bool = False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    code = TINY.format(corrupt=CORRUPT[workload] if corrupt else "")
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return _parse(done)


def _parse(done):
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_result(result, declared: list[dict], what: str) -> None:
    expect(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: last line is the result object")
    if result is None:
        return
    units = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{what}: emits every declared metric with its unit")
    expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
           f"{what}: every value is a number")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: gate passes ({result['failed']}/{result['attempted']} failed)")


def counts(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for w in (w["name"] for w in spec["workloads"]):
        for seed in (0, 1):
            code, result, err = bench(ROOT, w, seed, 0)
            expect(code == 0, f"{w} seed {seed} untraced exits 0 {err[-300:]}")
            check_result(result, spec["end_to_end"], f"{w} seed {seed} untraced")
        traced = []
        for _ in range(2):
            code, result, err = bench(ROOT, w, 0, 1)
            expect(code == 0, f"{w} traced exits 0 {err[-300:]}")
            check_result(result, spec["per_layer"], f"{w} traced")
            traced.append(result)
        if all(traced):
            expect(counts(traced[0]) == counts(traced[1]), f"{w}: traced counters repeat exactly")
        code, result, err = bench(ROOT, w, 0, 0, corrupt=True)
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{w}: a corrupted expected value is counted as failed")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    code, result, _ = _parse(done)
    expect(code != 0 and result is None, "without the sources it exits nonzero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
