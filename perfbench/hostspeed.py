"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings
by a fifth or more, both from moment to moment and in phases longer
than a run.  A run's medians inherit the phase it landed in, so ten
runs spread by that much whatever the program does.

Every timed step (a set-up, a pass) is therefore bracketed by samples
of a fixed calibration kernel (numpy, scipy and plain-Python work on
constant data, none of it the program's code), and its time is scaled
to the reference host: a step of ``t`` seconds counts as
``t * REFERENCE_S / k``, where ``k`` is the mean kernel time of the
samples taken within :data:`WINDOW_S` of the step.  A slower program
still reads slower, because the kernel does not change with the
program; a slower host slows step and kernel alike and cancels.  The
mean, not the median, because the kernel's times are bimodal on a
busy host and the step pays the average.  Steps that leave the CPU
idle much of the time read the calibration poorly and are reported as
measured (``Steps(..., scaled=False)``).  The raw figures and the
host's slowness are printed on the detail line.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy import signal

from benchstats import median

#: Seconds one :func:`kernel` call takes on the host that fixed the
#: bounds, at its median speed (``PROVENANCE.json``).  A constant: it
#: only sets the scale of the reported figures.
REFERENCE_S = 0.0064
#: Timed kernel calls per calibration sample; the sample is their
#: median.
REPS = 5
#: Untimed kernel calls first: right after the CPU idled (a paced
#: serve pass idles half the time) the first few tens of milliseconds
#: run slow, which the steps, lasting a second or more, do not feel.
WARMUP = 2
#: Samples this close (seconds) to either end of a step scale it.
WINDOW_S = 5.0

_X = np.random.default_rng(20240517).standard_normal(20000)
_SOS = signal.butter(4, [0.5, 40.0], btype="band", fs=250.0,
                     output="sos")


def kernel() -> None:
    """A fixed mix of filtering, FFT, sorting and dict-heavy Python."""
    signal.sosfiltfilt(_SOS, _X)
    np.fft.rfft(_X)
    np.sort(_X)
    counts: dict = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i


class HostSpeed:
    """The calibration samples of one run, ``(time, seconds per kernel
    call)``, and the host slowness they give (2 means the host ran at
    half the reference speed, so a time measured then is halved)."""

    def __init__(self, reps: int = REPS) -> None:
        self.reps = reps
        self.samples: list = []

    def sample(self) -> None:
        for _ in range(WARMUP):
            kernel()
        times = []
        for _ in range(self.reps):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.samples.append((time.perf_counter(), median(times)))

    def bracket(self, fn, *args) -> tuple:
        """``(fn(*args), (start, end))`` of one call made between two
        calibration samples.  The garbage earlier steps left is
        collected first, so a step does not pay for its predecessor."""
        gc.collect()
        self.sample()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.sample()
        return result, (start, end)

    def slowness(self, span) -> float:
        """Host slowness over ``span``; the bracketing samples are
        always near it."""
        lo, hi = span[0] - WINDOW_S, span[1] + WINDOW_S
        near = [k for t, k in self.samples if lo <= t <= hi]
        return sum(near) / len(near) / REFERENCE_S

    def mean_slowness(self) -> float:
        """Host slowness over the whole run."""
        return (sum(k for _, k in self.samples) / len(self.samples)
                / REFERENCE_S)


class Steps:
    """Measured values of timed steps with their spans, reported at
    the reference host speed once the run's samples are all in, or as
    measured when ``scaled`` is false."""

    def __init__(self, speed: HostSpeed, per_second: bool,
                 scaled: bool = True) -> None:
        self.speed = speed
        self.per_second = per_second
        self.scaled = scaled
        self.raw: list = []
        self.spans: list = []

    def add(self, value: float, span) -> None:
        self.raw.append(value)
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.raw)

    def reference(self) -> list:
        """A rate is multiplied by the slowness, a time divided."""
        if not self.scaled:
            return list(self.raw)
        out = []
        for value, span in zip(self.raw, self.spans):
            slow = self.speed.slowness(span)
            out.append(value * slow if self.per_second else value / slow)
        return out

    def median(self) -> float:
        return median(self.reference())

    def detail(self) -> dict:
        return {"raw": [round(v, 6) for v in self.raw],
                "ref": [round(v, 6) for v in self.reference()]}
