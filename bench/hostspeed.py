"""Host-speed reference for the end-to-end timings.

On a shared host the CPU's speed drifts by tens of percent over seconds to
minutes, which moves every timing of a run together.  :class:`HostClock`
times a fixed reference loop about every ``EVERY_S`` seconds: between
operations, and, on a timer (``SIGALRM``), inside an operation while no
other thread of the program runs and it has no child process.  The program's own thread
is stopped in the signal handler while the loop runs, so the loop never
shares the CPU with the program it judges; while helper threads or worker
processes of the program run, readings are taken only between operations,
where they are sparser but still not disturbed by it.  Time spent in the
handler is taken back out of the operation.  Each operation's wall time is
then scaled by ``REFERENCE_S`` over the mean reference time within
``WINDOW_S`` of it, so the figures read as seconds on a host where the loop
takes ``REFERENCE_S``.

Set-up work is scaled instead by readings taken just before and after it
(:func:`reference_seconds`), in the process that does the work.

The loop is shaped like the step kernel (float updates, a sliding tuple
window, one record per step) so that host slowdowns hit it in the same
proportion as the program, and it lives in the benchmark so that no change
to the program moves it.  The garbage collector is off while it runs, so the
program's heap cannot slow it down and hide a regression.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import threading
import time
from collections import namedtuple

#: Mean time of one reference loop on the 2-core host the benchmark was
#: defined on (Python 3.11).
REFERENCE_S = 0.0025
EVERY_S = 0.25
WINDOW_S = 1.0
#: Loops per reading; a reading is their median.
LOOPS = 3

_Row = namedtuple("_Row", "n df gov window")


def reference_loop(steps: int = 2000) -> float:
    df = gov = 0.0
    window = (0.0,)
    for n in range(steps):
        gov_next = gov + 0.08 * (-df / 0.2 - gov)
        df_next = 0.002 * (gov * 1.9 - 0.02 - df * (0.4 - 480.0)) * 1e-3
        window = (window + (df_next,))[-7:]
        row = _Row(n, df_next, gov_next, window)
        df, gov = row.df, row.gov
    return df


def _loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_seconds(loops: int = 5) -> float:
    """Median time of an odd number of reference loops, for a reading
    between steps.  (This module imports little, so that a child process
    can take readings around ``import frosim`` without importing ahead what
    frosim would.)"""
    return sorted(_loop_seconds() for _ in range(loops))[loops // 2]


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* of wall time in reference time, given readings on either side."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


def _alone() -> bool:
    """True when no other thread of this process is running or runnable
    (idle helper threads, such as a BLAS pool's, sleep) and the process has
    no child process.  False where /proc cannot tell."""
    me = str(threading.get_native_id())
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
                if fh.read().strip():
                    return False
            if task == me:
                continue
            with open(f"/proc/self/task/{task}/stat", encoding="ascii") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "R":
                    return False
    except OSError:
        return False
    return True


class HostClock:
    """Reference readings taken while the ``with`` block runs.

    Call :meth:`read_if_due` between operations; readings inside them come
    from the timer.  :attr:`spent` is the wall time the timer's handler took,
    which the caller takes out of the operation it interrupted.
    """

    def __init__(self):
        self.times: list[float] = []     # when each reading started
        self.readings: list[float] = []  # reference loop seconds
        self.spent = 0.0                 # wall seconds spent in the handler
        self._reading = False

    def read(self) -> None:
        self._reading = True  # the timer must not add a reading meanwhile
        try:
            t0 = time.perf_counter()
            self.readings.append(reference_seconds(LOOPS))
            self.times.append(t0)
        finally:
            self._reading = False

    def read_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.read()

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        if not self._reading and _alone():
            self.times.append(t0)
            self.readings.append(_loop_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.read()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns wall time spent in [t0, t1] into reference time."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.readings[lo:hi] or [self.readings[min(lo, len(self.readings) - 1)]]
        return REFERENCE_S * len(near) / sum(near)
