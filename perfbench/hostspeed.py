"""Time adjusted to a fixed reference host speed.

On a shared host the same work can run up to twice as slow, in swings
from under a second to tens of seconds, because of other tenants'
load. Steal time stays low, so process CPU time slows just as much as
wall time. A run of a few dozen seconds then reads whatever the host's
mood was, and runs of the same code minutes apart differ by more than
a change worth catching.

:class:`Sidecar` corrects for that. It is a separate process that
times a fixed piece of pure-Python work, the *probe*, every
``PROBE_EVERY_S`` seconds, pinned to each usable CPU in turn. The probe
lives in the benchmark and shares no code with the program. The
sidecar runs under ``SCHED_FIFO``, so it preempts the program's
(normal-priority) processes at once: its time shows how fast the host
runs, not how busy the program keeps the CPUs. The program loses about
8 % of one CPU to it.

Between two probes taken at ``t0`` and ``t1``, elapsed time is scaled
by ``REFERENCE_PROBE_S / mean(p0, p1)``: when the probe ran 1.4x slower
than its reference, the host was 1.4x slow, and a second of that
stretch counts as 1/1.4 of a reference second. So an adjusted time is
what the work would have taken on a host on which the probe takes
``REFERENCE_PROBE_S`` seconds; a faster or slower program changes
adjusted times exactly as it changes raw times.
"""

from __future__ import annotations

import heapq
import os
import select
import subprocess
import sys
import time
from operator import itemgetter
from typing import List, Optional, Tuple

#: what one probe takes on the reference host, about its median on the
#: 2-vCPU Xeon cloud VM this benchmark was written on: the unit of
#: adjusted time (any fixed value would do; it only sets the scale)
REFERENCE_PROBE_S = 0.02
#: probe rounds: about REFERENCE_PROBE_S of work on the reference host
PROBE_ROUNDS = 12
#: seconds between two probes
PROBE_EVERY_S = 0.25

_KEYS = [("n%d" % (i & 255), i * 7919 % 10007) for i in range(4096)]


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    total = 0
    for _ in range(PROBE_ROUNDS):
        table = {}
        for name, value in _KEYS:
            table[name] = table.get(name, 0) + value
        ordered = sorted(_KEYS, key=itemgetter(1))
        heap: List[Tuple[int, str]] = []
        for name, value in ordered[:1024]:
            heapq.heappush(heap, (value, name))
        while heap:
            total += heapq.heappop(heap)[0]
        total += len(table)
    elapsed = time.perf_counter() - start
    assert total > 0
    return elapsed


class Sidecar:
    """The probing process, from :meth:`start` to :meth:`stop`, and the
    adjustment its samples give.

    When real-time scheduling is refused, the sidecar takes no samples
    and :meth:`span` reads raw time."""

    def __init__(self) -> None:
        #: (time.perf_counter() reading, probe seconds) in order
        self.samples: List[Tuple[float, float]] = []
        self._proc: Optional[subprocess.Popen] = None

    def start(self) -> "Sidecar":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(PROBE_EVERY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._proc.stdout.readline()  # "ready": probing from now on
        return self

    def stop(self) -> None:
        """Stop the sidecar, wait for it and collect its samples."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        try:
            out, _ = proc.communicate("stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        for line in out.splitlines():
            at, seconds = map(float, line.split())
            self.samples.append((at, seconds))
        self.samples.sort()

    def _reference(self, reading: float) -> float:
        """Reference-host seconds from the first sample to ``reading``
        (negative before it): each stretch between two samples is scaled
        by the mean of their probes; before the first sample and after
        the last, that sample's scale holds."""
        samples = self.samples
        first_at, first_p = samples[0]
        if reading <= first_at:
            return (reading - first_at) * REFERENCE_PROBE_S / first_p
        total = 0.0
        for (at0, p0), (at1, p1) in zip(samples, samples[1:]):
            factor = REFERENCE_PROBE_S / ((p0 + p1) / 2.0)
            if reading <= at1:
                return total + (reading - at0) * factor
            total += (at1 - at0) * factor
        last_at, last_p = samples[-1]
        return total + (reading - last_at) * REFERENCE_PROBE_S / last_p

    def span(self, begin: float, end: float) -> float:
        """Adjusted seconds between two ``time.perf_counter()`` readings."""
        if not self.samples:
            return end - begin
        return self._reference(end) - self._reference(begin)

    def host_speed(self) -> float:
        """Reference probe time over the median probe time (1.0 when
        the host ran at the reference speed; 0 without samples)."""
        if not self.samples:
            return 0.0
        ordered = sorted(p for _, p in self.samples)
        return REFERENCE_PROBE_S / ordered[len(ordered) // 2]


def _sidecar(interval: float) -> None:
    """The sidecar process: probe until a line (or EOF) on stdin."""
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except (OSError, AttributeError):
        print("unavailable", flush=True)
        return
    cpus = sorted(os.sched_getaffinity(0))
    print("ready", flush=True)
    turn = 0
    while True:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        turn += 1
        # perf_counter is CLOCK_MONOTONIC on Linux, one clock for every
        # process, so the parent can place this reading among its own
        at = time.perf_counter()
        print(f"{at!r} {probe()!r}", flush=True)
        if select.select([sys.stdin], [], [], interval)[0]:
            return


if __name__ == "__main__":
    _sidecar(float(sys.argv[1]))
