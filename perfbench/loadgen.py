"""Open-loop chunk generator for the paced serve workload.

One source replays a pre-built chunk stream on its own schedule: each
chunk is due at ``t0 + offset`` (``t0`` is when the daemon starts
iterating the source), the generator sleeps until then, stamps the
release time and yields.  Latency is measured from the due time, so a
stall that delays later releases is charged to those chunks.

The daemon's producer thread iterates the source and blocks while the
program applies backpressure, so a chunk asked for after its due time
is the program's backlog, not the generator's: it is released at once
and counted in :attr:`PacedSource.behind`.  Only a release the
generator slept for and woke late on counts as generator lag, kept in
a :class:`~benchstats.LagAccount`.
"""

from __future__ import annotations

import time

from benchstats import LagAccount

#: A release later than this counts as late.
LATE_AFTER_S = 0.005
#: A run whose generator lag tail exceeds this is invalid.
LAG_BOUND_S = 0.050


def schedule(chunks, compression: float) -> list:
    """Due offsets (seconds from start) of ``chunks``: each chunk's
    simulated arrival time divided by ``compression``, shifted so the
    first chunk is due at 0."""
    if not chunks:
        return []
    first = chunks[0].arrival_s
    return [(chunk.arrival_s - first) / compression for chunk in chunks]


class PacedSource:
    """Yield ``chunks`` at ``t0 + offsets[i]``; one pass only.

    After iteration, :attr:`due` maps ``(session_id, seq)`` to the
    absolute due time (``time.perf_counter`` clock), :attr:`lag` holds
    the lags of the releases the generator slept for and :attr:`behind`
    counts the chunks asked for only after they were due.
    """

    def __init__(self, chunks, offsets, clock=time.perf_counter,
                 sleep=time.sleep, late_after_s: float = LATE_AFTER_S,
                 bound_s: float = LAG_BOUND_S) -> None:
        if len(chunks) != len(offsets):
            raise ValueError("one offset per chunk")
        self.chunks = chunks
        self.offsets = offsets
        self.clock = clock
        self.sleep = sleep
        self.lag = LagAccount(late_after_s, bound_s)
        self.due: dict = {}
        self.behind = 0
        self.t0 = None

    def __iter__(self):
        if self.t0 is not None:
            raise RuntimeError("a paced source replays once")
        clock = self.clock
        self.t0 = clock()
        for chunk, offset in zip(self.chunks, self.offsets):
            due = self.t0 + offset
            wait = due - clock()
            if wait > 0:
                self.sleep(wait)
                self.lag.record(due, clock())
            else:
                self.behind += 1
            self.due[(chunk.session_id, chunk.seq)] = due
            yield chunk
