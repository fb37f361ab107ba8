"""Host-speed probe: how fast this host runs a fixed piece of Python and
numpy code, sampled between the program's calls all through a run.

On a shared host a core's speed swings with its neighbours' load: a
fixed kernel runs 1.7 times slower in one millisecond than in the next,
and the share of slow time drifts over seconds and minutes, so two 45 s
runs of the same units can differ by 40% in wall time.  Before each
timed call or cold start the benchmark lets the probe run a burst of a
fixed small kernel that lasts ``SHARE`` of the time since the last
burst, so the samples spread evenly over what was timed.  Their mean,
divided by ``REFERENCE_S``, is the host factor; a time divided by it
reads as seconds on a host that runs the kernel in ``REFERENCE_S``.  The
kernel is code of the benchmark, not of the program, and runs outside
every timed interval, so a change to the program does not move it.
Cold starts run in a child process but follow the factor too: over 16
sets of 20 starts their median correlated 0.83 with it.

The probe samples between calls and not during them: a sample taken
inside a call (from a timer signal) runs with the program's state in the
caches and reads about 50% slower, by an amount that depends on the
program and not on the host.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: probe time as a share of the time since the previous burst
SHARE = 0.1
#: the kernel's time on a 2 vCPU Xeon (Sapphire Rapids family) in a calm
#: period; it only fixes the scale of the host-normalised metrics
REFERENCE_S = 1e-4

_X = np.linspace(0.0, 1.0, 1024)


def kernel() -> float:
    """The probe: a Python float loop and small numpy calls, the two kinds
    of work the program's calls are made of.  Returns its wall seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(400):
        s += i * 0.5
    for _ in range(4):
        np.cos(_X).sum()
    return time.perf_counter() - t0


class Probe:
    def __init__(self):
        self.samples: list[float] = []
        self._last = None

    def burst(self) -> None:
        """Sample for ``SHARE`` of the time since the previous burst; the
        first sample of each burst warms the kernel up and is dropped."""
        now = time.perf_counter()
        if self._last is not None:
            end = now + SHARE * (now - self._last)
            kernel()
            self.samples.append(kernel())
            while time.perf_counter() < end:
                self.samples.append(kernel())
        self._last = time.perf_counter()

    def factor(self) -> float:
        """How much slower than the reference the host ran while sampled."""
        return statistics.fmean(self.samples) / REFERENCE_S
