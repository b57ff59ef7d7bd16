"""How fast the core runs right now, read from a fixed loop of plain Python.

The cores of the machine the benchmark was made on run a thread at one of
two speeds, about 1.5 to 1.7x apart, depending on what else shares the
core; the slow stretches last from a fraction of a second to minutes, and
even the fast speed drifts by some 15% from one minute to the next. A time
measured over a run therefore depends on when the run happened. The
benchmark corrects for that: it times a fixed loop (a probe, about 0.2 to
0.4 ms) next to every operation, and every PROBE_INTERVAL_S during one,
counts each operation's time in probes, and reports that count times
REFERENCE_PROBE_S. The loop is the benchmark's own code, so a change to
genlink does not change it, and a change that makes genlink faster lowers
the count in proportion.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean
from typing import Callable, TypeVar

PROBE_INTERVAL_S = 0.01

# Seconds of one probe on a core of the machine the benchmark was made on
# (2 shared cores, Python 3.11.7) at its full speed: the fastest probe of a
# 20 s run there took 208 to 243 us. Times are reported as seconds on such
# a core.
REFERENCE_PROBE_S = 225e-6

T = TypeVar("T")


def _loop(n: int = 40) -> int:
    """Tuple, dict and set work of the kind genlink's monomial code does."""
    seen = set()
    counts: dict[tuple[int, ...], int] = {}
    for i in range(n):
        a = tuple((i * k) % 7 for k in range(12))
        b = tuple(max(x, y) for x, y in zip(a, a[::-1]))
        if all(x <= y for x, y in zip(a, b)):
            seen.add(b)
        counts[a] = counts.get(a, 0) + len(seen)
    return len(counts)


class Speedometer:
    """Times probes; `call` times a function with probes around and inside it."""

    def __init__(self) -> None:
        self.walls: list[float] = []  # wall seconds of every probe, in order
        self.cpus: list[float] = []  # CPU seconds of the same probes

    def probe(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _loop()
        self.cpus.append(time.process_time() - cpu0)
        self.walls.append(time.perf_counter() - wall0)

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def call(self, fn: Callable[[], T]) -> tuple[T, float, float, float, float]:
        """Run fn(); return its result, its wall and CPU seconds without the
        probes taken while it ran, and the mean wall and CPU seconds of the
        probes from the one just before it to the one just after it."""
        if not self.walls:
            self.probe()
        first = len(self.walls) - 1
        inner = len(self.walls)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.walls[inner:])
        cpu -= sum(self.cpus[inner:])
        self.probe()
        return (result, wall, cpu, fmean(self.walls[first:]), fmean(self.cpus[first:]))
