"""Host-speed probe and the per-operation timer that uses it.

The reference host is a 2-vCPU virtual machine whose vCPUs run up to
~1.5x slower while the physical host is busy, in spells lasting from
seconds to minutes.  A run that lands in one spell would read 1.5x
slower than the next, so every gated timing is also reported at
reference speed: the measured time multiplied by ``REFERENCE_S / p``,
where ``p`` is a fixed pure-Python loop timed in the same process next
to the measured work.  The raw times stay on the detail line.
"""

from __future__ import annotations

import time
import typing as _t

#: what :func:`probe` takes on the reference host in its fast spells
REFERENCE_S = 0.35e-3


def probe() -> float:
    """Seconds for a fixed interpreter-bound loop (best of three, so an
    interrupt does not count)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for j in range(5000):
            x += j * j
        best = min(best, time.perf_counter() - t0)
    return best


class Meter:
    """Times consecutive operations: :meth:`mark` ends one and starts
    the next.  A probe runs first and then after any operation that ends
    at least ``every`` seconds after the previous probe; probe time is
    excluded from the operations."""

    def __init__(self, every: float = 0.05) -> None:
        self.every = every
        self.gaps: _t.List[float] = []
        #: (operations completed before the probe, probe seconds)
        self.probes: _t.List[_t.Tuple[int, float]] = [(0, probe())]
        self._probed = self._start = time.perf_counter()

    def mark(self) -> None:
        now = time.perf_counter()
        self.gaps.append(now - self._start)
        self._start = now
        if now - self._probed >= self.every:
            self.probes.append((len(self.gaps), probe()))
            self._probed = self._start = time.perf_counter()

    def close(self) -> None:
        """Probe after the last operation (if that did not happen)."""
        if self.probes[-1][0] != len(self.gaps):
            self.probes.append((len(self.gaps), probe()))

    def reference_gaps(self) -> _t.List[float]:
        """Each operation's time at reference speed, using the mean of
        the probes just before and just after it."""
        out = []
        k = 0
        for i, gap in enumerate(self.gaps, start=1):
            while self.probes[k + 1][0] < i:
                k += 1
            speed = (self.probes[k][1] + self.probes[k + 1][1]) / 2
            out.append(gap * REFERENCE_S / speed)
        return out
