"""Host speed, sampled between units of work, to put times on one scale.

On a shared host the same pure-Python work runs up to 1.6x slower from
one moment to the next, and whole runs drift by 20-30%.  A short fixed
probe run between states slows down in step with the program (1.57x
against 1.62x for a (2,3,12) state), so each state's time is scaled by
PROBE_REF_S over the mean of the probes just before and after it.  On a
2-core VM this cut the quartile spread of pass times over five seeded
runs from 13-33% to 3-6%.  Scaled times are "seconds at the speed where
the probe takes PROBE_REF_S"; the raw figures are kept alongside them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

PROBE_REF_S = 0.0005
PROBE_EVERY_S = 0.02


def probe() -> int:
    """Fixed work in the program's style: Fraction sums and int arithmetic."""
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(1, i)
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return acc + f.denominator % 7


class Speedometer:
    """Runs the probe at most every PROBE_EVERY_S seconds of work.

    `local(mark())` scales one unit of work by the probes just before and
    just after it; `factor()` scales a whole pass, each probe weighted by
    the work time since the previous one.  `spent` is the time taken by
    the probes, for the caller to leave out of its wall time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probes: list[float] = []
        self.weighted = 0.0
        self.work = 0.0
        self.spent = 0.0
        self._last = perf_counter()
        self.tick(force=True)

    def tick(self, force: bool = False):
        gap = perf_counter() - self._last
        if gap < PROBE_EVERY_S and not force:
            return
        t0 = perf_counter()
        if self.tracer:
            self.tracer.span("trace.probe", probe)
        else:
            probe()
        took = perf_counter() - t0
        self.probes.append(took)
        self.weighted += gap * took
        self.work += gap
        self.spent += took
        self._last = perf_counter()

    def mark(self) -> int:
        """Call before a unit of work; pass the result to `local` after the next tick."""
        return len(self.probes)

    def local(self, mark: int) -> float:
        """Scale for a unit of work that started at `mark`."""
        return 2 * PROBE_REF_S / (self.probes[mark - 1] + self.probes[mark])

    def factor(self) -> float:
        """Scale for all the work since construction; ends with a probe."""
        self.tick(force=True)
        return PROBE_REF_S * self.work / self.weighted
