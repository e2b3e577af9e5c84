"""Fault-injection harness for the durable-ingest tests.

Three families of scripted damage, mirroring the failure taxonomy the
journal's record framing is designed around
(:mod:`repro.io.journal_records`):

* :class:`FaultySource` — the *process* dies: a source that yields its
  wrapped source's chunks and then raises :class:`SimulatedCrash`
  mid-stream (between chunks, i.e. at a chunk boundary — the journal
  only ever observes whole consumed chunks; sub-record deaths are the
  torn-tail case below).
* :func:`tear_journal_tail` — the *write* dies: truncate the last
  segment mid-record, exactly what a crash inside ``write`` leaves
  behind.  Recovery must drop the torn bytes and heal.
* :func:`flip_crc_byte` / :func:`flip_payload_byte` — the *medium*
  lies: flip one byte of a stored record's CRC field or payload.  The
  scan must flag the record, pin it to its session, and quarantine
  exactly that session — never crash, never silently accept.
* :func:`append_undecodable_record` — the *writer* lied: a frame whose
  CRC is valid but whose payload does not decode (arrays shorter than
  the header declares, or bytes after the header's JSON object).  The
  scan must report it as an undecodable record, not accept it.

The storage-lifecycle PR adds three more families:

* :class:`CrashAfterEvents` — a ``crash_hook`` for
  :func:`repro.ingest.gc.journal_gc` that raises
  :class:`SimulatedCrash` after the N-th GC event, exercising every
  interruption window of the mark/sweep protocol.
* :func:`flip_archive_byte` — cold-tier medium damage: flip one byte
  of a stored archive file; loading must raise ``ArchiveError``,
  never return silently wrong data.
* :func:`kill_worker_job` — a picklable poison job for the process
  backend: SIGKILLs the worker that runs the sentinel item, the
  worker-death case the crash-tolerant fan-out must survive.

And the serve-daemon PR one more:

* :class:`StalledSource` — the source goes *silent* (not dead): it
  yields N chunks and then blocks without closing, the case a
  deadline policy (not crash recovery) must handle.

All helpers operate on a journal *directory* so tests stay independent
of segment layout; record indices count across segments in log order.
"""

from __future__ import annotations

import json
import os
import signal
import struct
from pathlib import Path
from typing import Optional

from repro.io.journal_records import (
    MAGIC,
    encode_chunk,
    frame_record,
    scan_segment,
)

__all__ = ["SimulatedCrash", "FaultySource", "StalledSource",
           "journal_segments",
           "tear_journal_tail", "flip_crc_byte", "flip_payload_byte",
           "flip_magic_byte", "append_undecodable_record",
           "CrashAfterEvents", "flip_archive_byte",
           "kill_worker_job", "KILL_SENTINEL"]

_FRAME = len(MAGIC) + 4 + 4


class SimulatedCrash(BaseException):
    """Stands in for SIGKILL.  Deliberately *not* a ReproError (and not
    even an Exception): nothing in the library may catch it, exactly
    like a real kill."""


class FaultySource:
    """A session source that dies after yielding ``crash_after`` chunks.

    Wraps any iterable source; iterating raises
    :class:`SimulatedCrash` once the budget is exhausted.  If the
    wrapped source ends first, no crash happens (the degenerate
    crash-after-everything case recovery must also handle).
    """

    def __init__(self, source, crash_after: int) -> None:
        self.source = source
        self.crash_after = int(crash_after)

    def __iter__(self):
        count = 0
        for chunk in self.source:
            if count >= self.crash_after:
                raise SimulatedCrash(
                    f"source killed after {self.crash_after} chunks")
            yield chunk
            count += 1


class StalledSource:
    """A source that goes silent: yields ``yield_chunks`` chunks, then
    blocks forever (until :meth:`release`) without closing.

    This is the serve daemon's stalled-device case — the session is
    open, its chunks are journaled, and nothing further ever arrives.
    A deadline policy must quarantine exactly this session while its
    neighbours keep flowing; the source never crashes and never ends,
    so only the deadline (or :meth:`release` from the test) gets the
    consumer unstuck.
    """

    def __init__(self, source, yield_chunks: int,
                 stall_s: float = 3600.0) -> None:
        import threading
        self.source = source
        self.yield_chunks = int(yield_chunks)
        self.stall_s = float(stall_s)
        self.stalled = threading.Event()   # set once the stall begins
        self._release = threading.Event()

    def release(self) -> None:
        """Un-stall the source (it then ends without further chunks)."""
        self._release.set()

    def __iter__(self):
        count = 0
        for chunk in self.source:
            if count >= self.yield_chunks:
                self.stalled.set()
                self._release.wait(timeout=self.stall_s)
                return
            yield chunk
            count += 1


def journal_segments(directory) -> list:
    """Segment files of a journal directory, in log order."""
    return sorted(Path(directory).glob("segment-*.log"))


def _locate_record(directory, index: int):
    """(segment_path, RecordEntry) of the ``index``-th record across
    the whole journal, in log order."""
    count = 0
    for path in journal_segments(directory):
        entries = scan_segment(path).entries
        if index < count + len(entries):
            return path, entries[index - count]
        count += len(entries)
    raise IndexError(f"journal holds {count} records, no index {index}")


def tear_journal_tail(directory, keep_bytes: int = 11) -> Path:
    """Truncate the last segment mid-record (a crash inside ``write``).

    The final record is cut down to ``keep_bytes`` of its frame —
    enough to leave recognisable garbage, too little to parse — and
    the truncated segment path is returned.  Raises when the journal
    has no records to tear.
    """
    segments = journal_segments(directory)
    for path in reversed(segments):
        entries = scan_segment(path).entries
        if entries:
            last = entries[-1]
            keep = min(int(keep_bytes), last.length - 1)
            with open(path, "r+b") as fh:
                fh.truncate(last.offset + keep)
            return path
    raise IndexError("journal holds no records to tear")


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def flip_crc_byte(directory, index: int = 0) -> str:
    """Flip one byte of record ``index``'s stored CRC field.

    The payload stays intact, so the scan can still identify the
    session the damaged record belonged to; returns that session id.
    """
    path, entry = _locate_record(directory, index)
    _flip_byte(path, entry.offset + len(MAGIC) + 4)
    return entry.session_id


def flip_magic_byte(directory, index: int = 0) -> str:
    """Flip one byte of record ``index``'s frame MAGIC — the
    lost-framing damage class: nothing after it in that segment can be
    interpreted.  Returns the record's session id."""
    path, entry = _locate_record(directory, index)
    _flip_byte(path, entry.offset)
    return entry.session_id


def flip_payload_byte(directory, index: int = 0,
                      payload_offset: Optional[int] = None) -> str:
    """Flip one byte inside record ``index``'s payload (array bytes by
    default, so the JSON header — and session attribution — survives);
    returns the damaged record's session id."""
    path, entry = _locate_record(directory, index)
    if payload_offset is None:
        # Flip in the trailing half: safely past the JSON header.
        payload_offset = (entry.length - _FRAME) - 8
    _flip_byte(path, entry.offset + _FRAME + payload_offset)
    return entry.session_id


def append_undecodable_record(directory, chunk, kind: str) -> str:
    """Append a CRC-valid frame that does not decode to the journal's
    last segment; returns ``chunk.session_id``.

    The frame is ``chunk``'s record with one defect, framed (and so
    CRC'd) by :func:`~repro.io.journal_records.frame_record` after the
    damage:

    * ``"short_arrays"`` — the header declares one more sample per
      signal than the payload holds.  The header itself still parses,
      so the scan can pin the record to its session.
    * ``"trailing_header_bytes"`` — bytes follow the header's JSON
      object inside its declared length, so the header does not parse
      and the record cannot be attributed.
    """
    payload = encode_chunk(chunk)
    (head_len,) = struct.unpack_from("<I", payload)
    head = payload[4:4 + head_len]
    arrays = payload[4 + head_len:]
    if kind == "short_arrays":
        header = json.loads(head)
        header["signals"] = [[name, size + 1]
                             for name, size in header["signals"]]
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    elif kind == "trailing_header_bytes":
        head += b"#junk"
    else:
        raise ValueError(f"unknown damage kind {kind!r}")
    frame = frame_record(struct.pack("<I", len(head)) + head + arrays)
    with open(journal_segments(directory)[-1], "ab") as fh:
        fh.write(frame)
    return chunk.session_id


# -- storage-lifecycle faults --------------------------------------------


class CrashAfterEvents:
    """A ``crash_hook`` for :func:`repro.ingest.gc.journal_gc` that
    dies after ``budget`` GC events.

    ``journal_gc`` reports each durable step as a
    ``crash_hook(stage, detail)`` call — manifests marked, segments
    dropped, compacted segments written and swapped.  Raising
    :class:`SimulatedCrash` on the N-th call interrupts the collector
    in every distinct on-disk window; ``events`` records what ran so a
    test can assert it crashed where intended.
    """

    def __init__(self, budget: int) -> None:
        self.budget = int(budget)
        self.events: list = []

    def __call__(self, stage: str, detail: str) -> None:
        self.events.append((stage, detail))
        if len(self.events) >= self.budget:
            raise SimulatedCrash(
                f"gc killed at event {len(self.events)}: "
                f"{stage} {detail}")


def flip_archive_byte(archive_directory, offset: int = -64) -> Path:
    """Flip one byte of the first archive file (negative offsets count
    from the end — the default lands in array payload, past the npz
    directory).  Returns the damaged file's path."""
    files = sorted(Path(archive_directory).glob("archive-*.npz"))
    if not files:
        raise IndexError(f"no archives in {archive_directory}")
    data = bytearray(files[0].read_bytes())
    data[offset] ^= 0xFF
    files[0].write_bytes(bytes(data))
    return files[0]


#: Item value that makes :func:`kill_worker_job` kill its worker.
KILL_SENTINEL = "kill-this-worker"


def kill_worker_job(item):
    """Process-backend job that SIGKILLs its own worker on the
    :data:`KILL_SENTINEL` item and echoes everything else — picklable
    on purpose, so the crash-tolerant fan-out can ship it."""
    if item == KILL_SENTINEL:
        os.kill(os.getpid(), signal.SIGKILL)
    return ("ok", item)
