"""Machine-speed gauge: scales measured times to a fixed reference speed.

The benchmark was built on two vCPUs of a shared host.  Other tenants
slow every instruction of a run by up to 1.7x, in phases of seconds to a
minute; CPU time slows with wall time, so neither clock removes it.  The
gauge times a fixed reference kernel, a GF(2) elimination of constant
rows written here and independent of the package, between the queries
of a pass.  A query's time is then scaled by the speed the nearby probes
measured:

    scaled = measured * nominal / median(nearby probe times)

which reads as the query's time on a machine where the probe takes
``nominal``, its time at a quiet moment of the build machine.  Over the
passes of one run on that machine, the median query time spread by
17-18% (interquartile range over median) unscaled and by 3-5% scaled.

The kernel runs twice per probe and the second call is timed, so that its
own data and code are warm whatever the query before it left in the
caches.  The package never runs inside a probe, so a change to the package
moves only the measured times, not the gauge.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

PROBE_EVERY_S = 0.025  # at most this much query time between two probes
WINDOW = 9  # probes whose median gives the speed around a query

_rows = random.Random(20240119)
REF_ROWS = tuple(_rows.getrandbits(160) for _ in range(160))
REF_RANK = 159  # rank of REF_ROWS; a different result means a broken kernel


def kernel(rows=REF_ROWS) -> int:
    """GF(2) rank of ``rows``, by elimination keyed on lowest set bits."""
    table: dict[int, int] = {}
    r = 0
    for row in rows:
        while row:
            low = row & -row
            pivot = table.get(low)
            if pivot is None:
                table[low] = row
                r += 1
                break
            row ^= pivot
    return r


class Gauge:
    """Probe times of one pass, and the scale they give at a moment."""

    nominal_s = 1.35e-3

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> float:
        """Time one probe; returns the clock after it."""
        kernel()
        start = time.perf_counter()
        rank = kernel()
        end = time.perf_counter()
        if rank != REF_RANK:
            raise RuntimeError(f"reference kernel gave rank {rank}, expected {REF_RANK}")
        self.at.append(start)
        self.took.append(end - start)
        return end

    def scale(self, moment: float) -> float:
        """nominal_s over the median of the WINDOW probes nearest ``moment``."""
        if not self.took:
            raise RuntimeError("no probe in this pass")
        k = bisect.bisect(self.at, moment)
        hi = min(len(self.took), max(k + WINDOW // 2, WINDOW))
        lo = max(0, hi - WINDOW)
        return self.nominal_s / statistics.median(self.took[lo:hi])

    def speed(self) -> float:
        """Median probe time of the pass, in seconds."""
        return statistics.median(self.took)

