"""A clock that runs at the speed of a reference host, not of this one.

The benchmark runs on shared machines whose cores change speed by up to a
factor of two, as other tenants load them; a slow or fast stretch lasts from
a fraction of a second to minutes.  Such a change moves every timing of a run
alike, and no statistic taken within one run removes it.

``HostClock`` measures the core's speed as it goes.  A timer signal
interrupts the program every ``PERIOD_S`` seconds and times a small fixed
piece of pure-Python work, the probe, on the same core.  The clock advances
by the wall time elapsed since the last tick, multiplied by
``REFERENCE_S / probe time``: a stretch during which the probe ran twice as
slow counts half.  The probe's own time is left out.  The result reads as
seconds on a host on which the probe takes ``REFERENCE_S``.

The probe does the kind of work the library does -- dictionaries of
adjacency lists, tuples, breadth-first search, sets and sorting -- and never
calls the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

PERIOD_S = 0.01
# Seconds the probe takes on the reference host: about its time on an
# unloaded 2.1 GHz Xeon core.  Any fixed value would do; scaled times
# compare across runs because it never changes.
REFERENCE_S = 0.0002
# The rate follows the median of the last few probes, so that one probe
# that an interrupt happened to hit does not skew a whole period.
WINDOW = 3

_N = 96


def probe() -> int:
    """Build and search a small 3-regular graph; return a checksum."""
    adj = {v: ((v + 1) % _N, (v - 1) % _N, (v * 7 + 3) % _N)
           for v in range(_N)}
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    edges = {(min(u, w), max(u, w)) for u in adj for w in adj[u]}
    return len(edges) + sum(sorted(dist.values())[-8:])


_CHECKSUM = probe()


class HostClock:
    """Reference-speed seconds, ticking while ``start``-ed."""

    def __init__(self):
        self._scaled = 0.0      # reference seconds up to self._mark
        self._mark = 0.0        # wall time the current rate applies from
        self._recent = deque([REFERENCE_S], maxlen=WINDOW)
        self._rate = 1.0        # reference seconds per wall second
        self._running = False
        self._busy = False
        self.probes = []        # every probe time, for the run record

    def start(self):
        self._mark = time.perf_counter()
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._scaled = self.now()
        self._running = False

    def now(self) -> float:
        if not self._running:
            return self._scaled
        return self._scaled + (time.perf_counter() - self._mark) * self._rate

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self._scaled += (t0 - self._mark) * self._rate
            value = probe()
            t1 = time.perf_counter()
            if value != _CHECKSUM:
                raise RuntimeError("clock probe changed its result")
            self.probes.append(t1 - t0)
            self._recent.append(t1 - t0)
            self._rate = REFERENCE_S / statistics.median(self._recent)
            self._mark = time.perf_counter()
        finally:
            self._busy = False

    def speed(self) -> float:
        """Median probe speed relative to the reference host (1 = as fast)."""
        if not self.probes:
            return 1.0
        return REFERENCE_S / statistics.median(self.probes)
