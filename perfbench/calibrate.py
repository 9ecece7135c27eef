"""Machine-speed calibration: a fixed unit of work timed around and during each job.

The shared VM the benchmark runs on changes speed by up to ~1.7x over
seconds to minutes (other tenants on the same host cores; the process's
own CPU time slows with its wall time, so it is not descheduling).  No
repetition count inside one run averages that out, so every job is timed
by a ``JobClock``: it times ``EDGE_UNITS`` calibration units just before
and just after the job and one unit every ``SAMPLE_INTERVAL_S`` while it
runs (from a timer signal; the time spent in those samples is taken out
of the job's time).  The job's time is then rescaled to the speed at
which one unit takes ``UNIT_S``:

    normalized = raw * UNIT_S / mean(unit times around and during the job)

The unit mixes the two kinds of work the package does: interpreter-bound
float formatting (the CSV and report writers) and many small numpy array
operations shaped like a step of the fixed-point sweep (gather,
interpolate, combine, reduce), in about equal parts.  It uses nothing
from ``chfif``, so a change to the package moves the job times but never
the unit.  A program change shows in the normalized time as it does in
wall time; a change of machine speed largely cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Time of one unit on the 2-vCPU Intel Xeon VM the baseline was taken on,
# in its usual state: normalized times read as seconds on that machine.
UNIT_S = 0.0033

EDGE_UNITS = 5
SAMPLE_INTERVAL_S = 0.2

_ROWS = 360
_ARRAY_STEPS = 6
_GRID = 6561                # the sweep's default grid

_rng = np.random.default_rng(12345)
_XS = np.linspace(0.0, 1.0, _GRID)
_F = _rng.random(_GRID)
_IDX = np.minimum((_XS * 4).astype(int), 3)
_A = np.array([0.2, 0.3, 0.25, 0.25])
_B = np.array([0.0, 0.2, 0.5, 0.75])
_TABLE = _rng.random((3, _ROWS))


def _format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _unit() -> float:
    # CSV rows from numpy scalars, joined and encoded, like the writers
    text = "\n".join(f"{_format(x)},{_format(y)},{_format(z)}" for x, y, z in zip(*_TABLE))
    total = len(text.encode("utf-8"))
    f = _F
    for _ in range(_ARRAY_STEPS):
        # one step shaped like the sweep: gather, interpolate, combine, reduce
        u = np.clip((_XS - _B[_IDX]) / _A[_IDX], 0.0, 1.0)
        g = 0.4 * np.interp(u, _XS, f) + 0.3 * u + _B[_IDX]
        total += float(np.max(np.abs(g - f)))
        f = g
    return total + float(np.sort(f)[0])


def unit_time() -> float:
    """Seconds one calibration unit takes now."""
    start = time.perf_counter()
    _unit()
    return time.perf_counter() - start


class JobClock:
    """Times the block it wraps, raw and at the reference speed.

    With ``sample=True`` a timer signal times one unit every
    ``SAMPLE_INTERVAL_S`` inside the block; leave it off when the block
    only waits for a child process on the same CPU.  After the block,
    ``raw`` and ``normalized`` hold its seconds and ``units`` every unit
    time taken.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.units: list[float] = []
        self.raw = self.normalized = 0.0
        self._paused = 0.0

    def _on_timer(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.units.append(unit_time())
        self._paused += time.perf_counter() - entered

    def __enter__(self) -> JobClock:
        self.units += [unit_time() for _ in range(EDGE_UNITS)]
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)
        self.raw = end - self._start - self._paused
        self.units += [unit_time() for _ in range(EDGE_UNITS)]
        self.normalized = self.raw * UNIT_S / statistics.fmean(self.units)


def warm_up() -> None:
    """Run the unit a few times so the first timed one is not a cold start."""
    for _ in range(EDGE_UNITS):
        _unit()
