"""Machine-speed normalization of every time the benchmark reports.

On a shared machine the same Python code runs up to twice as slow for
seconds or minutes at a time, and exact-rational code (big integers,
Fractions, dicts) slows far more than a plain integer loop.  The meter
therefore interleaves a fixed probe of that kind of work, independent of
mixedvol, between the operations it times, and scales each interval by
NOMINAL_S over the probe times around it.  A reported time is thus the wall
time the interval would have taken on a machine where one probe takes
exactly NOMINAL_S; raw wall times go to the run report.

The probe was checked against the triple scan, the interval with the least
Fraction work.  Over 40 back-to-back scans on a 2-vCPU machine, the scan
normalized by this probe spread less (IQR/median 0.096, raw 0.129) than when
normalized by a probe built like the scan (0.118).

NOMINAL_S is about the probe's duration under sustained load on that
machine.  A run whose median factor NOMINAL_S / probe leaves 1 by more than
COMPARABLE ran at an unusual speed; run.py marks it in its report.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter as clock

NOMINAL_S = 2e-3
COMPARABLE = 0.25
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Duration of a fixed Fraction workload, in seconds."""
    t0 = clock()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 160):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(1, i)
        seen[(i, i % 5)] = acc
    return clock() - t0


class Meter:
    """Probes taken between timed intervals, and the normalization they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        t0 = clock()
        d = probe()
        self.starts.append(t0)
        self.ends.append(t0 + d)
        self.durations.append(d)

    def tick(self) -> None:
        """Probe if the last probe is older than PROBE_EVERY_S; call only
        between timed intervals."""
        if not self.ends or clock() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def _around(self, t0: float, t1: float) -> list[float]:
        # The two probes that ended last by t0, any inside, and the two that
        # start first at or after t1.
        lo = max(bisect_right(self.ends, t0) - 2, 0)
        hi = bisect_left(self.starts, t1) + 2
        return self.durations[lo:hi]

    def factor(self, t0: float, t1: float) -> float:
        return NOMINAL_S / statistics.median(self._around(t0, t1))

    def normalize(self, t0: float, t1: float) -> float:
        """Normalized length of [t0, t1] without the probes inside it: each
        stretch between probes is scaled by the probes on either side."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.ends, t1)
        edges = [t0]
        for i in range(lo, hi):
            edges += [self.starts[i], self.ends[i]]
        edges.append(t1)
        return sum((b - a) * self.factor(a, b) for a, b in zip(edges[::2], edges[1::2]))
