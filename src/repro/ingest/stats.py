"""Process-wide counters of the ingest plane.

The :class:`~repro.core.executor.IpcStats` accounting made the
process backend's pipe traffic falsifiable: tests assert the
descriptor collapse instead of trusting it.  This module is the same
idea for the ingest path.  Every layer of the chunk plane credits its
traffic here:

* the journal codec counts every **intermediate byte it
  materializes** — the quantity the copy-free iovec path drives to
  zero and the ``"bytes"`` reference codec pays three to four times
  per record;
* the group-commit writer counts its flush windows and fsyncs, so the
  "one fsync per window" contract is a number, not a comment;
* the serve daemon counts its session lifecycles, sheds, retries and
  deadline hits.

``bytes_copied`` is therefore the headline: on the hot path (plain
chunks through the iovec journal) it stays **zero** for arbitrarily
long streams — asserted by the zero-copy tests — while
``repro cache-stats`` renders the counters for capacity planning.

Counters are process-wide and monotonic (reset via
:func:`reset_ingest_stats`); updates take a lock because producer
thread, drain loop and the journal's background writer all credit
them concurrently.
"""

from __future__ import annotations

import threading

__all__ = ["IngestStats", "ingest_stats", "reset_ingest_stats"]


class IngestStats:
    """Counters of the ingest data plane (see attribute docs)."""

    _FIELDS = (
        "bytes_copied",
        "journal_records", "journal_bytes_written",
        "group_flushes", "group_fsyncs", "strict_fsyncs",
        "serve_sessions_accepted", "serve_sessions_done",
        "serve_sessions_quarantined", "serve_sheds",
        "serve_retries", "serve_deadline_hits", "serve_degradations",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Intermediate bytes the journal codec materialized: codec
        #: ``tobytes``/join copies, dtype casts, decoded replay
        #: arrays.  Zero on the iovec hot path.
        self.bytes_copied = 0
        #: Records the journal wrote (either codec).
        self.journal_records = 0
        #: Frame bytes the journal put on disk.
        self.journal_bytes_written = 0
        #: Group-commit flush windows (each one ``writev`` drain).
        self.group_flushes = 0
        #: fsyncs issued by the group-commit writer (one per window).
        self.group_fsyncs = 0
        #: fsyncs issued by strict-durability appends (one per record).
        self.strict_fsyncs = 0
        #: Sessions the serve daemon admitted (supervised lifecycles).
        self.serve_sessions_accepted = 0
        #: Supervised sessions finalized to DONE.
        self.serve_sessions_done = 0
        #: Supervised sessions quarantined (stalled past their chunk
        #: deadline, finalize timeout/poison, journal damage).
        self.serve_sessions_quarantined = 0
        #: New sessions rejected by overload shedding (admission-class
        #: degradation: shed the newcomers, never the journaled).
        self.serve_sheds = 0
        #: Retry attempts the daemon's backoff policies consumed
        #: (broken finalize pools, journal OSErrors).
        self.serve_retries = 0
        #: Deadline expirations (per-chunk ingest + finalize timeout).
        self.serve_deadline_hits = 0
        #: Degradation-level escalations the overload ladder took.
        self.serve_degradations = 0

    def add(self, **deltas) -> None:
        """Credit counters atomically (``name=delta`` keywords)."""
        with self._lock:
            for name, delta in deltas.items():
                if name not in self._FIELDS:
                    raise AttributeError(f"no ingest counter {name!r}")
                setattr(self, name, getattr(self, name) + int(delta))

    def as_dict(self) -> dict:
        """The counters as a plain dict (stats views and JSON)."""
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}


_STATS = IngestStats()


def ingest_stats() -> IngestStats:
    """The process-wide ingest counters (live object, not a copy)."""
    return _STATS


def reset_ingest_stats() -> IngestStats:
    """Zero every counter (tests, fresh bench sections); returns the
    live stats object."""
    stats = _STATS
    with stats._lock:
        for name in IngestStats._FIELDS:
            setattr(stats, name, 0)
    return stats
