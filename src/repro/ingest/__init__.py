"""Streaming ingest: chunked session sources, a simulated device
fleet, a bounded work queue with backpressure, the streaming executor
that drains it into the stage graph — and the durability layer that
lets all of it survive a crash.

The offline executor (:mod:`repro.core.executor`) consumes fully
materialized recording lists; nothing there models data *arriving*.
This package does: a :class:`~repro.ingest.chunks.SessionSource`
yields :class:`~repro.ingest.chunks.RecordingChunk` objects over
(simulated) time, a :class:`~repro.ingest.fleet.DeviceFleet` simulates
N concurrent touch devices (optionally over repeated measurement
rounds with dropout/rejoin churn) feeding a
:class:`~repro.ingest.workqueue.BoundedWorkQueue`, and a
:class:`~repro.ingest.streaming.StreamingExecutor` drains the queue —
conditioning each chunk causally as it lands (the vectorized
counterpart of the :mod:`repro.rt` kernels, pinned against them by
tests) and running the offline stage graph on the assembled session so
streaming results are bit-identical to ``process_batch``.

Durability rides the same drain loop: a
:class:`~repro.ingest.journal.ChunkJournal` persists every consumed
chunk as a CRC-framed record before analysis sees it, and a
:class:`~repro.ingest.recovery.RecoveryManager` reads the journal back
after a crash — finalizing completed sessions as one batch,
bit-identically to the interrupted run, and resuming open ones when
their source reconnects.

Chunks cross the queue as the plain
:class:`~repro.ingest.chunks.RecordingChunk` objects the source
yielded — the one transport live ingest, recovery and ``repro serve``
share.  The journal writes their arrays through its
copy-free iovec codec, and :mod:`repro.ingest.stats` counts every byte
the plane copies (the hot path's ``bytes_copied`` is asserted zero).
"""

from repro.ingest.chunks import (
    RecordingChunk,
    RecordingSource,
    SessionAssembler,
    SessionSource,
    chunk_recording,
)
from repro.ingest.fleet import (
    DeviceFleet,
    FleetConfig,
    SessionSchedule,
    SimulatedDevice,
)
from repro.ingest.gc import GcReport, collectible_sessions, journal_gc
from repro.ingest.journal import (
    ChunkJournal,
    DURABILITY_MODES,
    JOURNAL_CODECS,
    JournalScan,
    scan_journal,
)
from repro.ingest.recovery import (
    RecoveryManager,
    RecoveryResult,
    ReingestReport,
)
from repro.ingest.stats import IngestStats, ingest_stats, \
    reset_ingest_stats
from repro.ingest.streaming import (
    CausalIcgConditioner,
    SessionResult,
    StreamingExecutor,
)
from repro.ingest.workqueue import BoundedWorkQueue, QueueStats

__all__ = [
    "RecordingChunk", "SessionSource", "RecordingSource",
    "SessionAssembler", "chunk_recording",
    "IngestStats", "ingest_stats", "reset_ingest_stats",
    "DeviceFleet", "FleetConfig", "SimulatedDevice", "SessionSchedule",
    "BoundedWorkQueue", "QueueStats",
    "StreamingExecutor", "SessionResult", "CausalIcgConditioner",
    "ChunkJournal", "JournalScan", "scan_journal",
    "DURABILITY_MODES", "JOURNAL_CODECS",
    "RecoveryManager", "RecoveryResult", "ReingestReport",
    "GcReport", "collectible_sessions", "journal_gc",
]
