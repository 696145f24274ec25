"""Host-speed correction for the times the benchmark reports.

The benchmark gets a few cores of a shared host, and the speed of those
cores drifts with the other tenants' load: the same pass can take 30-50%
longer for tens of seconds at a time, which is more than any useful
regression bound.  To take that drift out, a timed section runs with a
real-time interval timer: every PROBE_INTERVAL_S of wall time a signal
handler runs a fixed probe (an interpreted scan over numpy scalars, the
kind of loop chewdet spends most of its time in; it does not use chewdet)
and records how long it took.  The probes sample the host's speed evenly
over the section, so a section of ``raw`` seconds whose probes took
``p_1 .. p_n`` seconds is reported as

    (raw - sum(p)) * REFERENCE_PROBE_S / mean(p)

seconds: its own time, probes excluded, at the host speed at which the
probe takes REFERENCE_PROBE_S.  A pass that does half the work reports
half the time, whatever the host's speed; the host slowing everything
down by a third leaves the figure as it was.  The probes cost about 1% of
the section.

Python runs signal handlers in the main thread between bytecodes, so a
probe never interrupts a C call in the middle; interrupted system calls
are retried by the interpreter.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

PROBE_INTERVAL_S = 0.05
# The probe's time at typical speed on a 2-vCPU x86-64 VM (Python 3,
# numpy); it only sets the scale, so reported seconds stay close to wall
# seconds there.
REFERENCE_PROBE_S = 0.0004
_PROBE_DATA = np.cumsum(np.random.default_rng(20191117).normal(0.0, 1.0, 1200))


def _probe() -> int:
    sig = _PROBE_DATA
    n = sig.shape[0]
    count = 0
    i = 1
    while i < n - 1:
        h = sig[i]
        if h > sig[i - 1] and h >= sig[i + 1]:
            count += 1
        i += 1
    return count


def _probe_seconds() -> float:
    t0 = time.perf_counter()
    _probe()
    return time.perf_counter() - t0


@dataclass
class Timing:
    """Wall time of one section and the probes taken during it."""

    raw: float = 0.0
    probes: list[float] = field(default_factory=list)

    @property
    def factor(self) -> float:
        """REFERENCE_PROBE_S over the section's mean probe time."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)

    @property
    def seconds(self) -> float:
        """The section's time, probes excluded, at the reference host speed."""
        return (self.raw - sum(self.probes)) * self.factor


@contextmanager
def timed() -> Iterator[Timing]:
    """Time the body of the with-statement, sampling the host speed."""
    timing = Timing()

    def on_alarm(signum, frame):
        timing.probes.append(_probe_seconds())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield timing
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        timing.raw = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
        if not timing.probes:
            # A section shorter than the interval: sample the speed right after it.
            timing.probes.append(_probe_seconds())
            timing.raw += timing.probes[-1]
