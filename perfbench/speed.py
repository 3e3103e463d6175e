"""Machine-speed probe, so that times taken on a shared host can be compared.

On a shared host one vCPU's speed swings by up to 1.6x within seconds and for
minutes at a stretch, with identical work, which is more than the changes the
benchmark must resolve.  While the measured code runs, ``SpeedProbe`` times a
fixed pure-Python chunk every ``PROBE_INTERVAL_S`` from a SIGALRM handler, on
the same vCPU, and ``normalised_s`` scales the measured time (the probe's own
time taken out) to the speed at which one chunk takes ``REFERENCE_CHUNK_S``.
Across repeated passes of the same work, pass time and mean chunk time
correlate at 0.89-0.96, and the normalised time varies 2-3x less than the raw.

The handler runs only between Python bytecodes, so a sample lands at the next
return from C code.  Works in the main thread only.
"""

from __future__ import annotations

import signal
import time
from typing import List

PROBE_INTERVAL_S = 0.05
# Median chunk time on a 2-vCPU Intel Xeon host: normalised times read close
# to seconds there.
REFERENCE_CHUNK_S = 0.0008


def chunk() -> int:
    table: dict = {}
    for i in range(4000):
        key = (i * 7919) % 500
        table[key] = table.get(key, 0) + i
    return len(table)


class SpeedProbe:
    """Context manager: samples chunk time in and around the ``with`` body."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.elapsed_s = 0.0

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed_s = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def net_s(self) -> float:
        """Time of the body without the samples taken inside it."""
        return self.elapsed_s - sum(self.samples[1:-1])

    @property
    def chunk_s(self) -> float:
        """Mean chunk time, each sample capped at twice the median so that one
        preempted sample (~9 ms against ~1 ms) cannot swing a short window."""
        ordered = sorted(self.samples)
        cap = 2 * ordered[len(ordered) // 2]
        return sum(min(x, cap) for x in ordered) / len(ordered)

    def normalised_s(self) -> float:
        return self.net_s * REFERENCE_CHUNK_S / self.chunk_s
