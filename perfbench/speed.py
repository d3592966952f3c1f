"""Host-speed probe: a fixed kernel timed in a background thread.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU switches
between a fast state and one about 1.45x slower several times a second, and
the share of slow time changes from minute to minute, so a median over one
run follows that share more than the program.  The probe measures it: every
PERIOD_S it runs a fixed mix of interpreter and numpy work and records the
thread CPU time that took (CPU time, so that waiting for the GIL or for a
core does not count; the slow state slows CPU time as much as wall time).

A time measured while the probe's mean was ``m`` is scaled by ``REF_S / m``:
it is reported as it would read on a host where the kernel takes REF_S, the
probe's time on a fast core of the 2-vCPU host the bounds were set on.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.05
REF_S = 0.7e-3

_X = np.linspace(0.1, 10.0, 2000)


def kernel() -> float:
    """About 0.8 ms of mixed work, half interpreter, half numpy."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    y = _X
    for _ in range(16):
        y = np.sqrt(np.exp(-0.5 * _X) + y)
    return s + float(y[-1])


class SpeedProbe:
    """Runs :func:`kernel` every PERIOD_S while the ``with`` block runs."""

    def __init__(self):
        self.samples = []           # (perf_counter at the end, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean kernel time of the samples taken in [t0, t1];
        a pass shorter than PERIOD_S may hold none, and then all samples of
        the run are used."""
        inside = [c for t, c in self.samples if t0 <= t <= t1]
        cpu = inside or [c for _, c in self.samples]
        return REF_S * len(cpu) / sum(cpu)
