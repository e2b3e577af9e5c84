"""Chunked recording transport: the unit of streaming ingest.

A :class:`RecordingChunk` is a contiguous slice of one session's
channels as a device would radio it out: session id, sequence number,
sample offset, the sample payload, and — on the final chunk — the
session's annotations and metadata (the trailer a device transmits
once the measurement ends).  Chunking then reassembling is exact:
slicing and concatenating float arrays never touches a sample, so a
:class:`SessionAssembler` reproduces the original
:class:`~repro.io.records.Recording` bit-identically, which is what
lets the streaming executor pin its results against the offline batch
path.

:class:`SessionSource` is the protocol every chunk producer satisfies
(iterate -> chunks in arrival order); :class:`RecordingSource` adapts
one materialized recording, and :class:`~repro.ingest.fleet.DeviceFleet`
interleaves many simulated devices.

Chunks travel as these plain objects end to end: producer, bounded
work queue, journal codec, causal previewer and assembler all read the
same arrays, and the journal's iovec codec writes them to disk without
an intermediate copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError, SignalError
from repro.io.records import Recording

__all__ = ["RecordingChunk", "SessionSource", "RecordingSource",
           "SessionAssembler", "chunk_recording"]


@dataclass(frozen=True)
class RecordingChunk:
    """One contiguous slice of a session's sampled channels.

    Parameters
    ----------
    session_id:
        Identifies the session the chunk belongs to; chunks of
        different sessions interleave freely on the wire.
    seq:
        0-based chunk index within the session; consumers enforce
        contiguity.
    fs:
        Sampling rate shared by every channel of the session.
    signals:
        Mapping of channel name to the 1-D slice payload.
    start_sample:
        Offset of the chunk's first sample in the full session.
    is_last:
        Marks the session trailer; only the trailer carries
        ``annotations``/``meta`` (ground truth and scalar metadata are
        transmitted once, after the measurement).
    arrival_s:
        Simulated arrival timestamp (seconds since ingest start) —
        the fleet uses it to interleave devices; it never influences
        sample values.
    annotations / meta:
        The session's annotation arrays and scalar metadata; empty on
        every chunk except the trailer.
    """

    session_id: str
    seq: int
    fs: float
    signals: dict
    start_sample: int
    is_last: bool = False
    arrival_s: float = 0.0
    annotations: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seq < 0 or self.start_sample < 0:
            raise ConfigurationError(
                "seq and start_sample must be non-negative")
        if self.fs <= 0:
            raise ConfigurationError("fs must be positive")
        if not self.signals:
            raise SignalError("a chunk needs at least one channel")
        lengths = {np.asarray(v).size for v in self.signals.values()}
        if len(lengths) != 1 or 0 in lengths:
            raise SignalError(
                f"chunk channels must share one non-zero length, got "
                f"{sorted(lengths)}")

    @property
    def n_samples(self) -> int:
        """Samples per channel in this chunk."""
        return next(iter(self.signals.values())).size

    @property
    def nbytes(self) -> int:
        """Approximate payload size (sample data only) — the quantity
        the work queue's byte-based backpressure bounds."""
        return int(sum(np.asarray(v).nbytes
                       for v in self.signals.values()))


@runtime_checkable
class SessionSource(Protocol):
    """Anything that yields :class:`RecordingChunk` in arrival order.

    Sources may interleave chunks of many concurrent sessions; within
    one session, ``seq`` must be contiguous from 0 and exactly one
    chunk must carry ``is_last``.
    """

    def __iter__(self) -> Iterator[RecordingChunk]:
        """Chunks in (simulated) arrival order."""
        ...


def chunk_recording(recording: Recording, session_id: str,
                    chunk_s: float = 2.0,
                    start_s: float = 0.0,
                    jitter: Optional[np.random.Generator] = None,
                    jitter_s: float = 0.0):
    """Slice one recording into transport chunks (a generator).

    The last chunk is the trailer: it carries the recording's
    annotations and metadata.  ``arrival_s`` is ``start_s`` plus the
    chunk's end time (a chunk cannot arrive before its samples exist)
    plus optional non-negative jitter — radio/queueing delay in the
    simulated link.
    """
    if chunk_s <= 0:
        raise ConfigurationError("chunk_s must be positive")
    n = recording.n_samples
    step = max(1, int(round(chunk_s * recording.fs)))
    n_chunks = (n + step - 1) // step
    for k in range(n_chunks):
        i0, i1 = k * step, min((k + 1) * step, n)
        last = i1 == n
        delay = 0.0
        if jitter is not None and jitter_s > 0.0:
            delay = float(abs(jitter.normal(0.0, jitter_s)))
        yield RecordingChunk(
            session_id=session_id,
            seq=k,
            fs=recording.fs,
            signals={name: data[i0:i1]
                     for name, data in recording.signals.items()},
            start_sample=i0,
            is_last=last,
            arrival_s=start_s + i1 / recording.fs + delay,
            annotations=dict(recording.annotations) if last else {},
            meta=dict(recording.meta) if last else {},
        )


class RecordingSource:
    """A single-session :class:`SessionSource` over one materialized
    recording — the adapter that lets offline data replay through the
    streaming path."""

    def __init__(self, recording: Recording, session_id: str = "session",
                 chunk_s: float = 2.0) -> None:
        self.recording = recording
        self.session_id = session_id
        self.chunk_s = float(chunk_s)

    def __iter__(self) -> Iterator[RecordingChunk]:
        """The recording's chunks, in order."""
        return chunk_recording(self.recording, self.session_id,
                               self.chunk_s)


class SessionAssembler:
    """Reassembles interleaved chunk streams into whole recordings.

    ``add`` returns the completed :class:`Recording` when a session's
    trailer arrives (and forgets the session), ``None`` otherwise.
    Out-of-order or duplicated sequence numbers fail loudly — the
    simulated link is ordered per session, so a gap is a programming
    error, not noise.
    """

    def __init__(self) -> None:
        #: session_id -> [parts, next_start_sample] (the running
        #: sample count makes contiguity checks O(1) per chunk).
        self._sessions: dict = {}

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def open_sessions(self) -> tuple:
        """Ids of sessions with chunks pending assembly."""
        return tuple(sorted(self._sessions))

    def add(self, chunk: RecordingChunk):
        """Fold one chunk in; the assembled recording on the trailer."""
        state = self._sessions.get(chunk.session_id)
        if state is None:
            state = self._sessions[chunk.session_id] = [[], 0]
        parts, expected_start = state
        if chunk.seq != len(parts):
            raise SignalError(
                f"session {chunk.session_id!r}: expected chunk "
                f"{len(parts)}, got {chunk.seq}")
        if chunk.start_sample != expected_start:
            raise SignalError(
                f"session {chunk.session_id!r}: chunk {chunk.seq} "
                f"starts at sample {chunk.start_sample}, expected "
                f"{expected_start}")
        parts.append(chunk)
        state[1] = expected_start + chunk.n_samples
        if not chunk.is_last:
            return None
        del self._sessions[chunk.session_id]
        signals = {
            name: np.concatenate([p.signals[name] for p in parts])
            for name in parts[0].signals
        }
        return Recording(chunk.fs, signals, dict(chunk.annotations),
                         dict(chunk.meta))
