"""Machine-speed probe that runs inside the measured thread.

The small shared machines this benchmark runs on switch between a fast and
a slow state, about 1.4x apart, every few seconds, and may stay slow for half
a minute; a pure-Python loop slows down exactly like the program does. A
median over the passes of one run therefore lands in either state.

:class:`SpeedProbe` times a fixed loop from a ``SIGALRM`` handler every
``INTERVAL_S``, so the samples come from the same thread, on the same core,
interleaved with the program's own work (the handler runs between bytecodes;
during a long native call it waits until the call returns). A measured time
``t`` with probe samples ``p`` becomes ``t * NOMINAL_S / median(p)``: seconds
at the nominal speed, at which the loop takes ``NOMINAL_S`` (close to the
fast state of a 2-vCPU Xeon VM). A program change shows in ``t`` and not in
``p``; a change of machine state shows in both.

The loop is long (about 1 ms) on purpose. A sample often starts right after
a native call returns. A 50 us loop read up to 4% slower after the
numpy-bound ensemble objective than after the pure-Python edit DP, and
followed the numpy stage's slowdowns poorly (correlation 0.67), so moving
work into numpy would have shifted the divisor as well as the time. The
1 ms loop read the two within 2.5% and followed both (correlation about
0.9); ``probe_check.py`` measures this on the machine at hand. The probe
costs one loop per ``INTERVAL_S`` (5%), inside every time reported.

Only the standard library is used, so the probe can start before ``numpy``
and ``qestack`` are imported.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
LOOP = 20000
NOMINAL_S = 0.8e-3
MIN_SAMPLES = 3


class SpeedProbe:
    """Context manager sampling the loop time every ``INTERVAL_S``."""

    def __init__(self, loop: int = LOOP):
        self.loop = loop
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        s = 0
        for i in range(self.loop):
            s += i
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def take(self) -> list[float]:
        """Samples since the last call, removed from the probe."""
        taken, self.samples = self.samples, []
        return taken


def at_nominal(seconds: float, probe_median_s: float | None) -> float:
    """``seconds`` measured while the loop took ``probe_median_s``, put at
    the nominal speed (unchanged when there was no sample)."""
    if not probe_median_s:
        return seconds
    return seconds * NOMINAL_S / probe_median_s


def nominal(seconds: float, samples: list[float], fallback: list[float]) -> float:
    """``seconds`` at the nominal speed, from the samples taken while they
    elapsed, or from ``fallback`` when there are fewer than ``MIN_SAMPLES``
    (a call shorter than a few intervals)."""
    if len(samples) < MIN_SAMPLES:
        samples = fallback
    return at_nominal(seconds, statistics.median(samples) if samples else None)
