"""Timing in seconds at a fixed reference CPU speed.

A shared virtual machine does not run at one speed: on a 2-vCPU shared VM
the same pure-Python loop took 1.4 ms for seconds at a time and 2.1 ms for
the next seconds, and process CPU time moved with wall time, so CPU time
does not remove it.  Over 30-s windows this spread fixed work by up to 30%
(interquartile range over median) and moved whole 10-run sets by 25%.

``SpeedClock.time`` therefore samples the machine's speed while the timed
call runs: an interval timer raises SIGALRM every ``INTERVAL_S`` and the
handler times a fixed probe of about 0.5 ms.  The call's wall time, less
the time spent in probes, is scaled by the mean of ``ref / probe time`` over
the probes that fired during it and one probe each right before and right
after it (these carry the estimate for calls shorter than the interval).
The result is the time the call would take on a machine where the probe
takes ``ref``; a change of the program moves it fully, a change of the
machine's speed state largely cancels.

A slow spell does not slow all code alike, so each timing uses the probe
that resembles the code it times:

* ``numeric`` (an integer loop and numpy calls on a small array) for the GA:
  ``quality``'s numpy kernels and ``engine``'s per-candidate Python.
* ``objects`` (split, parse, hash and format short CSV lines) for the CSV
  reading and writing of ``tensor_io``.

On the same VM, timing 1-s ingests of a 300k-row CSV, 1-s generates of it
and 0.3-s batches of fitness calls on a 48k-cell tricluster, single timings
spread about 30% in wall time (interquartile range over median).  Scaled by
the numeric probe they spread 5%, 10% and 7%; by the objects probe 6%, 5%
and 10%.  A probe that gathers from a 2.4 MB array tracked them worse
(11-21%).

The probe code is the benchmark's own and never changes with the program.
Signal handlers run in the main thread between bytecodes, so probes wait for
a running numpy call to return; the clock is meant for single-threaded code
such as trievolve.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.04

_ARRAY = np.random.default_rng(0).random(2000)
_LINES = [
    f"gene{i},cond{i % 10},t{i % 15},{x!r}"
    for i, x in enumerate(np.random.default_rng(1).random(400).tolist())
]


def numeric_probe() -> float:
    """Seconds taken by an integer loop and numpy calls on a small array."""
    start = time.perf_counter()
    x = 0
    for i in range(4000):
        x += (i * 31) % 7
    for _ in range(80):
        x += float(_ARRAY.sum())
    return time.perf_counter() - start


def objects_probe() -> float:
    """Seconds taken to parse 400 CSV lines into a dict and format them back."""
    start = time.perf_counter()
    cells = {}
    for line in _LINES:
        gene, cond, t, value = line.split(",")
        cells[gene, cond, t] = float(value)
    [f"{g},{c},{t},{v!r}" for (g, c, t), v in cells.items()]
    return time.perf_counter() - start


# Each probe with its duration at full speed on a 2-vCPU shared x86-64 VM.
# Any fixed value works; these make reference seconds read close to wall
# seconds on a fast machine.
PROBES = {
    "numeric": (numeric_probe, 4.0e-4),
    "objects": (objects_probe, 5.0e-4),
}


class SpeedClock:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self):
        self._probe = None
        self._probes: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        if self._probe is not None:
            self._probes.append(self._probe())

    def time(self, kind: str, fn, *args):
        """Call ``fn(*args)``, sampling speed with probe ``kind``; returns
        (its result, wall seconds less the probes', reference seconds).
        Not reentrant."""
        probe, ref = PROBES[kind]
        before = probe()
        self._probes = probes = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._probe = probe
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._probe = None
            signal.signal(signal.SIGALRM, previous)
        busy = wall - sum(probes)
        probes += [before, probe()]
        scale = sum(ref / p for p in probes) / len(probes)
        return result, busy, busy * scale
