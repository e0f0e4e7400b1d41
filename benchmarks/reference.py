"""Fixed reference work that gauges how fast the host runs while it is timed.

The benchmark gets a share of a shared host whose speed drifts: the same
pass can take twice as long, on either core, for anything from a fraction
of a second to minutes, with no time stolen that the process could see.
The slowdowns come mostly from contention for caches and memory. So a
``Gauge`` runs a short piece of reference work on a timer all through the
timed passes, and each stage time is reported scaled to the speed the
pieces around it show:

    scaled = (measured - time spent in pieces) * REF_S / mean piece time

that is, seconds on a host where one piece takes ``REF_S``. A piece reads
Python objects at random from a working set larger than a core's L2 cache,
as the pipeline's dicts and lists do, so a slow host stretches both by a
similar factor: on the 2-vCPU host the benchmark was built on, piece time
and pass time correlated at 0.8-0.94 with a log-log slope of 0.8-1.06,
where a cache-resident piece of regex and sorting work correlated as
little as 0.2 in one busy spell.
The work uses nothing from ``chronicle``, so a change to the program
cannot move it.
"""

from __future__ import annotations

import signal
from time import perf_counter, sleep

# Scaled times equal wall times where a piece takes REF_S. On the build
# host, in busy spells, pieces between pipeline work took 1.3-2.0 ms.
REF_S = 0.0010
PERIOD_S = 0.025        # one piece per period: about 4% of the time
WINDOW_S = 0.1          # pieces this close to an interval also gauge it
_ITEMS = 20_000         # about 3 MB of small lists, strings and ints
_READS = 3_000          # random reads per piece


class Work:
    """A fixed working set, read in a fixed shuffled order. It needs no
    import beyond this module's, so that a set-up probe can gauge its own
    import time."""

    def __init__(self):
        self.items = [[i, str(i)] for i in range(_ITEMS)]
        self.order = list(range(_ITEMS))
        x = 1
        for i in range(_ITEMS - 1, 0, -1):      # Fisher-Yates with an LCG
            x = (x * 1103515245 + 12345) % 2 ** 31
            j = x % (i + 1)
            self.order[i], self.order[j] = self.order[j], self.order[i]
        self.at = 0

    def run(self) -> int:
        total = 0
        for j in self.order[self.at:self.at + _READS]:
            total += self.items[j][0]
        self.at = (self.at + _READS) % (_ITEMS - _READS)
        return total


class Gauge:
    """Runs a reference piece every PERIOD_S (SIGALRM, main thread) while
    started, and scales intervals of wall time by the pieces around them."""

    def __init__(self):
        self.pieces: list[tuple[float, float]] = []   # (start, end)
        self._work = Work()
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self._work.run()
        self.pieces.append((start, perf_counter()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(wall time of [start, end) minus pieces in it, the same scaled)."""
        busy = sum(e - s for s, e in self.pieces if start <= s < end)
        near = [e - s for s, e in self.pieces
                if start - WINDOW_S <= s < end + WINDOW_S]
        if not near:
            raise RuntimeError("no reference piece ran near a timed interval")
        seconds = end - start - busy
        return seconds, seconds * REF_S * len(near) / sum(near)

    def around(self, timed):
        """Call ``timed()`` with the gauge sampling from WINDOW_S before it
        to WINDOW_S after it; returns ``measure`` of the call."""
        self.start()
        try:
            sleep(WINDOW_S)
            start = perf_counter()
            timed()
            end = perf_counter()
            sleep(WINDOW_S)
        finally:
            self.stop()
        return self.measure(start, end)
