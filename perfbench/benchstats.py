"""Summary statistics shared by the benchmark's workloads and tracer.

Timings are reported as a median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it (capped at the requested
percentile, floored at the median), together with the sample count, so
a "p99" never rests on fewer than ten samples.
"""

from __future__ import annotations

import math
import statistics

#: Samples a reported tail percentile must have beyond it.
MIN_BEYOND = 10


def tail_percentile(n: int, want: float = 99.0,
                    beyond: int = MIN_BEYOND) -> float:
    """The highest percentile <= ``want`` with ``beyond`` samples above it.

    Nearest-rank convention: percentile ``p`` of ``n`` sorted samples is
    the sample at rank ``ceil(p / 100 * n)``, which leaves ``n - rank``
    samples beyond it.  Below ``2 * beyond`` samples no tail percentile
    is supported and the median (50) is returned.
    """
    if n < 1:
        raise ValueError("no samples")
    if math.ceil(want / 100.0 * n) <= n - beyond:
        return float(want)
    if n - beyond < math.ceil(n / 2):
        return 50.0
    return 100.0 * (n - beyond) / n


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile ``p`` of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail(samples, want: float = 99.0) -> tuple:
    """``(value, percentile_used, n)`` for the supported tail of
    ``samples`` (see :func:`tail_percentile`)."""
    n = len(samples)
    p = tail_percentile(n, want)
    return percentile(samples, p), p, n


def median(samples) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of
    the median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


class LagAccount:
    """How late an open-loop generator released its items.

    ``record(due, released)`` takes one item's due time and the time
    it was actually released (same clock); lag is clamped at zero (an
    early release is on time).  An item is *late* when its lag exceeds
    ``late_after_s``; the run is valid while the supported tail of
    the lag stays within ``bound_s``.
    """

    def __init__(self, late_after_s: float, bound_s: float) -> None:
        self.late_after_s = float(late_after_s)
        self.bound_s = float(bound_s)
        self.lags: list = []

    def record(self, due: float, released: float) -> float:
        lag = max(0.0, released - due)
        self.lags.append(lag)
        return lag

    @property
    def late_share(self) -> float:
        if not self.lags:
            return 0.0
        late = sum(1 for lag in self.lags if lag > self.late_after_s)
        return late / len(self.lags)

    def tail_s(self, want: float = 99.0) -> float:
        if not self.lags:
            return 0.0
        return tail(self.lags, want)[0]

    @property
    def valid(self) -> bool:
        return self.tail_s() <= self.bound_s
