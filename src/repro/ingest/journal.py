"""The chunk journal: durable, append-only ingest persistence.

A :class:`ChunkJournal` is a directory of numbered append-only segment
files (``segment-00000.log`` ...) holding CRC-framed
:class:`~repro.ingest.chunks.RecordingChunk` records (the codec lives
in :mod:`repro.io.journal_records`), plus one small JSON *manifest*
per completed session (written atomically when the session's trailer
is journaled).  The streaming executor writes every consumed chunk
through the journal before analysing it, so after any crash the disk
holds exactly the chunks the service had accepted — and a
:class:`~repro.ingest.recovery.RecoveryManager` can replay them.

Durability contract, pinned by the journal/fault tests:

* **Idempotent append** — re-appending an already-journaled
  ``(session, seq)`` is a no-op, which is what lets recovery replay a
  whole source through a journal-attached executor without duplicating
  records; appending a *gap* (seq beyond the next expected) raises,
  since a replay could then never reconstruct the session.
* **Torn tails heal** — reopening a journal whose last segment ends
  mid-record truncates the torn bytes (the classic WAL recovery step)
  and appends cleanly after the last good record.
* **Damage quarantines** — a record failing its CRC marks its session
  damaged; the journal refuses further appends for that session (new
  records could never be replayed past the hole) and the scan reports
  exactly which sessions are affected, while every other session stays
  fully usable.

Write path
----------
Records are encoded by the copy-free iovec codec by default
(``codec="iov"``: header bytes + raw array views, framed with a
chained CRC and written through one ``os.writev`` — bit-identical on
disk to the legacy ``codec="bytes"`` path, which is retained as the
bench reference).  ``durability`` picks when those bytes reach the
file:

* ``"strict"`` (default) writes — and, with ``fsync``, syncs — inside
  ``append``, preserving the historical chunk-on-disk-before-analysis
  ordering per record;
* ``"group"`` lands appends in a bounded in-memory buffer drained by
  a background writer thread, one flush (and one fsync) per drain
  window — the classic group commit: while one window syncs, the next
  batches.  Appends block when the buffer is full (backpressure), a
  session trailer barriers on :meth:`ChunkJournal.flush` *before* its
  manifest is written (so the manifest-after-records invariant and
  finalize's recovery bit-identity both survive any crash point), and
  what is on disk is always a prefix of append order — which is why
  the crash-point property tests hold in both modes.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import ConfigurationError, JournalError
from repro.io.journal_records import (
    encode_chunk,
    encode_chunk_iov,
    frame_nbytes,
    frame_record,
    frame_record_iov,
    scan_segment,
)

__all__ = ["ChunkJournal", "JournalScan", "scan_journal",
           "repair_torn_tail", "write_manifest", "read_manifests",
           "DURABILITY_MODES", "JOURNAL_CODECS"]

#: ``"strict"`` writes per append; ``"group"`` batches appends into
#: background flush windows with one fsync each.
DURABILITY_MODES = ("strict", "group")

#: ``"iov"`` is the zero-copy writev codec; ``"bytes"`` the legacy
#: materializing codec (bit-identical output, kept as the reference).
JOURNAL_CODECS = ("iov", "bytes")


def _credit(**deltas) -> None:
    from repro.ingest.stats import ingest_stats
    ingest_stats().add(**deltas)


#: How long the group writer lingers (only when ``fsync`` is on) so
#: more appends can join the flush window before it pays the fsync.
#: A :meth:`ChunkJournal.flush` barrier bypasses the wait entirely, so
#: finalize never eats the window latency.
GROUP_WINDOW_S = 0.002

try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
    if _IOV_MAX <= 0:
        _IOV_MAX = 1024
except (AttributeError, OSError, ValueError):
    _IOV_MAX = 1024


def _writev_all(fd: int, buffers) -> int:
    """Write an iovec fully (handling partial writes); bytes written.

    The common case is one complete ``writev`` straight off the
    caller's buffers; only a partial write pays for the byte-granular
    views needed to slice off the consumed prefix."""
    total = sum(len(b) if isinstance(b, (bytes, bytearray))
                else memoryview(b).nbytes for b in buffers)
    n = os.writev(fd, buffers)
    done = n
    if done >= total:
        return total
    views = [memoryview(b).cast("B") for b in buffers]
    while done < total:
        while n:                       # drop the consumed prefix
            head = views[0]
            if n >= head.nbytes:
                n -= head.nbytes
                views.pop(0)
            else:
                views[0] = head[n:]
                n = 0
        n = os.writev(fd, views)
        done += n
    return total

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"
_MANIFEST_PREFIX = "manifest-"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:05d}{_SEGMENT_SUFFIX}"


def _segment_index(path) -> int:
    """The numeric index a segment filename encodes.

    Resume must parse this rather than count files: garbage collection
    may delete segments from the middle of the sequence, and appending
    into a *positional* index would create a file that sorts before
    surviving higher-numbered segments, reordering the log.
    """
    return int(Path(path).name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


def _segment_paths(directory: Path) -> list:
    """Existing segment files in index order."""
    return sorted(directory.glob(
        f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))


def _safe_session_id(session_id: str) -> str:
    """Filesystem-safe spelling of a session id (percent-escaped)."""
    return "".join(c if c.isalnum() or c in "-_." else f"%{ord(c):02x}"
                   for c in session_id)


def _manifest_name(session_id: str) -> str:
    """Filesystem-safe manifest filename (the id is also stored inside
    the JSON, so the filename never needs to be parsed back)."""
    return f"{_MANIFEST_PREFIX}{_safe_session_id(session_id)}.json"


def write_manifest(directory, session_id: str, n_chunks: int,
                   n_samples: int, fs: float) -> Path:
    """Atomically write one session's completion manifest (tmp file +
    rename, so a crash never leaves a half manifest)."""
    directory = Path(directory)
    path = directory / _manifest_name(session_id)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({
        "session_id": session_id,
        "n_chunks": int(n_chunks),
        "n_samples": int(n_samples),
        "fs": float(fs),
        "completed": True,
    }, indent=2) + "\n")
    os.replace(tmp, path)
    return path


def read_manifests(directory) -> dict:
    """All readable session manifests, ``{session_id: manifest}``.

    A torn/unparsable manifest is skipped — the log is the source of
    truth; manifests only accelerate and cross-check it.
    """
    manifests = {}
    for path in sorted(Path(directory).glob(
            f"{_MANIFEST_PREFIX}*.json")):
        try:
            manifest = json.loads(path.read_text())
            manifests[str(manifest["session_id"])] = manifest
        except Exception:
            continue
    return manifests


@dataclass
class JournalScan:
    """Everything a journal directory holds, classified.

    ``complete``/``open`` map session ids to their chunk lists in log
    order; ``damaged`` maps a session id to the human-readable reason
    it was quarantined.  ``torn_tail`` is ``(segment_path, offset)``
    when the last segment ended mid-record (crash mid-append) — the
    torn bytes carry no completed ``write`` and are safe to truncate.
    ``unattributed_damage`` counts damaged records whose header did not
    survive (they could not be pinned to a session; any session with a
    sequence gap is quarantined instead).
    """

    directory: Path
    segments: tuple = ()
    n_records: int = 0
    complete: dict = field(default_factory=dict)
    open: dict = field(default_factory=dict)
    damaged: dict = field(default_factory=dict)
    manifests: dict = field(default_factory=dict)
    #: Manifests of sessions whose journal records were reclaimed by
    #: ``journal-gc`` (``collected: true`` in the manifest).  Their
    #: left-over records — a GC interrupted mid-way legitimately leaves
    #: some behind — are skipped as garbage, not counted as damage, and
    #: the journal refuses new appends under their ids just as it does
    #: for completed sessions.
    collected: dict = field(default_factory=dict)
    torn_tail: Optional[tuple] = None
    unattributed_damage: int = 0
    #: Records per segment file, in log order (damaged ones included —
    #: their frames occupy the file, so appends count them too).
    records_per_segment: tuple = ()
    #: Whether the *last* segment lost its framing (bad magic):
    #: appending after the unreadable bytes would hide the new records
    #: from every future scan, so a reopening journal must roll to a
    #: fresh segment instead.
    last_segment_lost_framing: bool = False

    @property
    def session_counts(self) -> dict:
        """Good journaled chunks per non-damaged session."""
        counts = {sid: len(chunks) for sid, chunks in self.open.items()}
        counts.update({sid: len(chunks)
                       for sid, chunks in self.complete.items()})
        return counts


def scan_journal(directory) -> JournalScan:
    """Classify every record of a journal directory.

    Never raises on damaged content (that is the point of recovery);
    raises :class:`~repro.errors.JournalError` only when ``directory``
    is not a journal at all.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise JournalError(f"no journal directory at {directory}")
    segments = _segment_paths(directory)
    scan = JournalScan(directory=directory,
                       segments=tuple(segments),
                       manifests=read_manifests(directory))
    scan.collected = {sid: manifest
                      for sid, manifest in scan.manifests.items()
                      if manifest.get("completed")
                      and manifest.get("collected")}
    sessions: dict = {}          # sid -> [chunks] in log order
    expected: dict = {}          # sid -> next seq
    completed: set = set()
    damaged: dict = {}

    def quarantine(sid: Optional[str], reason: str) -> None:
        if sid is None:
            scan.unattributed_damage += 1
            return
        damaged.setdefault(sid, reason)

    records_per_segment = []
    for position, path in enumerate(segments):
        segment = scan_segment(path)
        last = position == len(segments) - 1
        records_per_segment.append(len(segment.entries))
        if last:
            scan.last_segment_lost_framing = (
                segment.lost_framing_offset is not None)
        for entry in segment.entries:
            scan.n_records += 1
            if entry.session_id in scan.collected:
                # Reclaimed by journal-gc: the session's results no
                # longer depend on these records (a crash mid-GC can
                # leave some behind; a rerun finishes deleting them).
                continue
            if entry.error is not None:
                quarantine(entry.session_id,
                           f"{entry.error} in {path.name} at offset "
                           f"{entry.offset}")
                continue
            chunk = entry.chunk
            sid = chunk.session_id
            if sid in damaged:
                continue
            want = expected.get(sid, 0)
            if sid in completed or chunk.seq != want:
                quarantine(sid,
                           f"record sequence broken in {path.name}: "
                           f"got seq {chunk.seq}, expected {want}")
                continue
            sessions.setdefault(sid, []).append(chunk)
            expected[sid] = want + 1
            if chunk.is_last:
                completed.add(sid)
        if segment.torn_offset is not None:
            if last:
                scan.torn_tail = (path, segment.torn_offset)
            else:
                # A short read inside a *non*-final segment means the
                # file was externally truncated, not crash-torn; the
                # bytes lost cannot be attributed to a session.
                scan.unattributed_damage += 1
        if segment.lost_framing_offset is not None:
            scan.unattributed_damage += 1

    # A session can be quarantined after some of its records were
    # accepted (e.g. a damaged middle record then a seq gap) — those
    # already-collected chunks are untrustworthy too.
    for sid in damaged:
        sessions.pop(sid, None)
        completed.discard(sid)

    # A manifest asserting completion for a session the log cannot
    # complete is itself evidence of damage (the trailer was journaled
    # before the manifest was written — log and manifest can only
    # disagree if records were lost).
    for sid, manifest in scan.manifests.items():
        if (manifest.get("completed") and sid not in completed
                and sid not in damaged
                and sid not in scan.collected):
            damaged[sid] = ("manifest records a completed session the "
                            "log cannot reassemble")
            sessions.pop(sid, None)

    for sid, chunks in sessions.items():
        (scan.complete if sid in completed else scan.open)[sid] = chunks
    scan.damaged = damaged
    scan.records_per_segment = tuple(records_per_segment)
    return scan


def repair_torn_tail(scan: JournalScan) -> bool:
    """Truncate the torn bytes a crash mid-append left behind.

    The torn record never completed its ``write`` — no consumer can
    have observed it — so dropping it is the safe WAL-recovery step.
    Returns whether anything was truncated.
    """
    if scan.torn_tail is None:
        return False
    path, offset = scan.torn_tail
    with open(path, "r+b") as fh:
        fh.truncate(offset)
    return True


class ChunkJournal:
    """Append-only, CRC-framed chunk log with per-session manifests.

    Opening a directory that already holds a journal *continues* it:
    the scan rebuilds per-session positions, a torn tail left by a
    crash is truncated away, and appends resume in the last segment
    (rolling to a new one every ``segment_records`` records when set).

    Parameters
    ----------
    directory:
        Journal directory; created when missing.
    segment_records:
        Roll to a new segment file after this many records (``None``
        keeps a single segment).  Segmentation bounds how much data a
        lost-framing corruption can take down and is the knob the
        recovery property test sweeps.
    fsync:
        Force records to stable storage — per append in ``"strict"``
        durability, once per flush window in ``"group"``.  Off by
        default — the simulated workloads only need crash consistency
        with respect to the process, not the kernel.
    durability:
        ``"strict"`` (default) writes each record inside ``append``;
        ``"group"`` batches appends into a bounded buffer a
        background writer drains — see the module docstring.
    codec:
        ``"iov"`` (default) writes the copy-free writev iovec;
        ``"bytes"`` the legacy materializing codec.  Byte-identical on
        disk.
    max_pending_bytes:
        Group-commit buffer bound; appends block (backpressure) while
        the writer is this many frame bytes behind.
    """

    def __init__(self, directory, segment_records: Optional[int] = None,
                 fsync: bool = False, durability: str = "strict",
                 codec: str = "iov",
                 max_pending_bytes: int = 8 << 20) -> None:
        if segment_records is not None and segment_records < 1:
            raise ConfigurationError("segment_records must be >= 1")
        if durability not in DURABILITY_MODES:
            raise ConfigurationError(
                f"unknown durability {durability!r}; "
                f"choose from {DURABILITY_MODES}")
        if codec not in JOURNAL_CODECS:
            raise ConfigurationError(
                f"unknown journal codec {codec!r}; "
                f"choose from {JOURNAL_CODECS}")
        if max_pending_bytes < 1:
            raise ConfigurationError("max_pending_bytes must be >= 1")
        self.directory = Path(directory)
        self.segment_records = segment_records
        self.fsync = bool(fsync)
        self.durability = durability
        self.codec = codec
        self.max_pending_bytes = int(max_pending_bytes)
        self.directory.mkdir(parents=True, exist_ok=True)
        scan = scan_journal(self.directory)
        #: The classification this reopen was based on (taken before
        #: the torn-tail repair; callers like ``resume`` reuse it
        #: instead of paying a second full-journal scan).
        self.last_scan = scan
        self._expected = dict(scan.session_counts)
        # Collected sessions count as completed: their records were
        # reclaimed, so an append under the same id could never be
        # replayed into the original session.
        self._completed = set(scan.complete) | set(scan.collected)
        self._damaged = dict(scan.damaged)
        self.recovered_torn_tail = repair_torn_tail(scan)
        #: Records actually written by *this* journal instance (the
        #: scan's n_records plus this is the directory's live total).
        self.appended_records = 0
        if not scan.segments:
            self._segment_index = 0
            self._segment_records_written = 0
        elif scan.last_segment_lost_framing:
            # Appending after unreadable bytes would hide the new
            # records from every future scan — roll to a fresh segment
            # and leave the damaged one to the scan's damage report.
            self._segment_index = _segment_index(scan.segments[-1]) + 1
            self._segment_records_written = 0
        else:
            self._segment_index = _segment_index(scan.segments[-1])
            self._segment_records_written = scan.records_per_segment[-1]
        # Unbuffered: writes (and writev against the raw fd) hit the
        # file directly, so fd-level and file-object writes never
        # interleave through a stale userspace buffer.
        self._fh = open(
            self.directory / _segment_name(self._segment_index), "ab",
            buffering=0)
        self._closed = False
        # Group-commit writer state (thread started lazily on the
        # first group-mode append; strict journals never pay for it).
        self._writer: Optional[threading.Thread] = None
        self._wlock = threading.Lock()
        self._wcond = threading.Condition(self._wlock)
        self._pending: list = []
        self._pending_bytes = 0
        self._accepted = 0          # group records accepted by append
        self._synced = 0            # group records written (+synced)
        self._stop = False
        self._flush_waiters = 0     # barriers waiting in flush()
        self._writer_error: Optional[BaseException] = None
        self._writer_busy = False   # a batch is being written unlocked
        self._atexit_registered = False

    # -- bookkeeping ------------------------------------------------------

    @property
    def segments(self) -> tuple:
        """Paths of every segment file, in log order."""
        return tuple(_segment_paths(self.directory))

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (appends raise afterwards)."""
        return self._closed

    @property
    def completed_sessions(self) -> tuple:
        """Ids of sessions whose trailer has been journaled."""
        return tuple(sorted(self._completed))

    @property
    def open_sessions(self) -> tuple:
        """Ids of journaled sessions still awaiting their trailer."""
        return tuple(sorted(set(self._expected)
                            - self._completed - set(self._damaged)))

    def next_seq(self, session_id: str) -> int:
        """The sequence number the journal expects next for a session."""
        return self._expected.get(session_id, 0)

    # -- the append path --------------------------------------------------

    def append(self, chunk) -> bool:
        """Journal one chunk; ``True`` when a record was written.

        Appends are idempotent per ``(session, seq)``: a chunk the
        journal already holds (a recovery replay, a device re-sending
        after a reconnect) returns ``False`` without touching the log.
        A sequence *gap* raises — it could never be replayed — as does
        appending to a damaged (quarantined) session or a closed
        journal.
        """
        if self._closed:
            raise JournalError("journal is closed")
        sid = chunk.session_id
        if sid in self._damaged:
            raise JournalError(
                f"session {sid!r} is quarantined as damaged: "
                f"{self._damaged[sid]}")
        want = self._expected.get(sid, 0)
        if sid in self._completed or chunk.seq < want:
            return False                 # idempotent replay
        if chunk.seq > want:
            raise JournalError(
                f"session {sid!r}: appending seq {chunk.seq} would "
                f"leave a gap (journal expects {want})")
        if self.codec == "bytes":
            # Legacy reference codec: payload and frame materialized.
            record = frame_record(encode_chunk(chunk))
            length = len(record)
        else:
            # Copy-free iovec: header bytes + raw views over the
            # chunk's arrays; the CRC is chained at frame time.
            record = encode_chunk_iov(chunk)
            length = frame_nbytes(record)
        if self.durability == "strict":
            self._write_record(record)
            if self.fsync:
                os.fsync(self._fh.fileno())
                _credit(strict_fsyncs=1)
        else:
            self._enqueue("record", record, length)
        self.appended_records += 1
        self._expected[sid] = want + 1
        if chunk.is_last:
            self._completed.add(sid)
            manifest = dict(
                n_chunks=self._expected[sid],
                n_samples=chunk.start_sample + chunk.n_samples,
                fs=chunk.fs)
            # The manifest-after-records invariant: the trailer (and
            # with it every record of the session) must be on disk
            # before the completion manifest exists.  Strict mode just
            # wrote (and synced) the trailer; group mode enqueues the
            # manifest *behind* the trailer record, so the single
            # writer preserves the ordering at every crash point
            # without the producer serializing a drain per trailer —
            # ``flush``/``close`` still barrier on it.
            if self.durability == "strict":
                write_manifest(self.directory, sid, **manifest)
            else:
                self._enqueue("manifest", (sid, manifest), 0)
        return True

    # -- the write side (strict: append's thread; group: the writer) ------

    def _write_record(self, record) -> None:
        if (self.segment_records is not None
                and self._segment_records_written >= self.segment_records):
            self._roll_segment()
        if isinstance(record, (bytes, bytearray)):
            self._fh.write(record)
            written = len(record)
        else:
            written = _writev_all(self._fh.fileno(),
                                  frame_record_iov(record))
        self._segment_records_written += 1
        _credit(journal_records=1, journal_bytes_written=written)

    def _enqueue(self, kind: str, item, length: int) -> None:
        with self._wlock:
            self._raise_writer_error()
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._writer_loop, name="journal-writer",
                    daemon=True)
                self._writer.start()
                if not self._atexit_registered:
                    # A daemon dying via SIGTERM → SystemExit never
                    # reaches close(); the interpreter's atexit pass
                    # runs while this barrier can still drain the 2 ms
                    # group-commit window — before finalization freezes
                    # the (daemonic) writer thread mid-flight.
                    atexit.register(self._atexit_barrier)
                    self._atexit_registered = True
            while self._pending_bytes >= self.max_pending_bytes:
                self._wcond.wait(timeout=0.05)
                self._raise_writer_error()
            self._pending.append((kind, item))
            self._pending_bytes += length
            self._accepted += 1
            self._wcond.notify_all()

    def _writer_loop(self) -> None:
        while True:
            with self._wlock:
                while not self._pending and not self._stop:
                    self._wcond.wait()
                if not self._pending and self._stop:
                    return
                self._accumulate_window()
                # Take everything accumulated — the flush window.
                # While this batch writes and syncs, the next one
                # batches behind the lock: fsync latency is amortised
                # over however many appends it overlapped.
                batch = self._pending
                self._pending = []
                self._pending_bytes = 0
                self._writer_busy = True
            try:
                records = [item for kind, item in batch
                           if kind == "record"]
                self._write_batch(records)
                if records:
                    if self.fsync:
                        os.fsync(self._fh.fileno())
                        _credit(group_fsyncs=1)
                    _credit(group_flushes=1)
                # Manifests strictly after their records hit disk
                # (and after the window's fsync): the ordering half
                # of the finalize invariant.
                for kind, item in batch:
                    if kind == "manifest":
                        sid, manifest = item
                        write_manifest(self.directory, sid, **manifest)
            except BaseException as exc:
                with self._wlock:
                    self._writer_error = exc
                    self._stop = True
                    self._writer_busy = False
                    self._wcond.notify_all()
                return
            with self._wlock:
                self._synced += len(batch)
                self._writer_busy = False
                self._wcond.notify_all()

    def _accumulate_window(self) -> None:
        """Linger briefly (lock held, inside the condition wait) so
        more appends join the flush window — one writev (and, with
        ``fsync``, one fsync) then covers them all.  Bypassed the
        moment anyone barriers in ``flush``, the journal is stopping,
        or the buffer is already half full: latency is only ever
        traded for fewer syscalls, never added to a finalize or close
        path."""
        deadline = time.monotonic() + GROUP_WINDOW_S
        while (not self._stop and not self._flush_waiters
               and self._pending_bytes < self.max_pending_bytes // 2):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._wcond.wait(timeout=remaining)

    def _write_batch(self, batch) -> None:
        """Write one flush window through one ``os.writev`` per
        contiguous run — runs break only at segment-roll boundaries
        and at the platform ``IOV_MAX``."""
        iov: list = []
        staged = 0

        def drain() -> None:
            nonlocal iov, staged
            if not iov:
                return
            written = _writev_all(self._fh.fileno(), iov)
            self._segment_records_written += staged
            _credit(journal_records=staged, journal_bytes_written=written)
            iov = []
            staged = 0

        for record in batch:
            if (self.segment_records is not None
                    and self._segment_records_written + staged
                    >= self.segment_records):
                drain()
                self._roll_segment()
            parts = ([record] if isinstance(record, (bytes, bytearray))
                     else frame_record_iov(record))
            if iov and len(iov) + len(parts) > _IOV_MAX:
                drain()
            iov.extend(parts)
            staged += 1
        drain()

    def _raise_writer_error(self) -> None:
        if self._writer_error is not None:
            raise JournalError(
                f"journal writer failed: {self._writer_error!r}"
            ) from self._writer_error

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Barrier: every accepted append is on disk (and fsynced when
        ``fsync`` is on) when this returns.  Cheap no-op in strict
        mode (appends already write through) and on an idle group
        journal.

        Returns whether the barrier was reached.  Without ``timeout``
        it always is (or a writer failure raises); with one, ``False``
        means the writer could not catch up in time — the bounded wait
        the atexit barrier uses on a dying interpreter, where the
        writer thread may already be frozen.
        """
        if self._writer is None:
            return True
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._wlock:
            target = self._accepted
            self._flush_waiters += 1
            self._wcond.notify_all()   # cut a lingering window short
            try:
                while self._synced < target:
                    self._raise_writer_error()
                    if (deadline is not None
                            and time.monotonic() >= deadline):
                        return False
                    self._wcond.wait(timeout=0.05)
                self._raise_writer_error()
            finally:
                self._flush_waiters -= 1
        return True

    def set_durability(self, durability: str) -> str:
        """Switch durability mode at runtime; returns the previous mode.

        The serve daemon's degradation ladder uses this lever: under
        overload it degrades ``"group"`` → ``"strict"`` so the bounded
        write buffer stops absorbing memory and every append pays its
        own write (backpressure lands directly on the producer), then
        restores ``"group"`` when pressure clears.  Switching *to*
        strict barriers on :meth:`flush` first, so records never reach
        the file out of append order — the scan's per-session sequence
        check relies on the on-disk order being a prefix of append
        order.
        """
        if durability not in DURABILITY_MODES:
            raise ConfigurationError(
                f"unknown durability {durability!r}; "
                f"choose from {DURABILITY_MODES}")
        previous = self.durability
        if durability == previous:
            return previous
        if durability == "strict":
            self.flush()
        self.durability = durability
        return previous

    def _atexit_barrier(self) -> None:
        """Best-effort drain of the group window on interpreter exit.

        A graceful shutdown path (``close``) never reaches this — it
        unregisters the hook.  On an abrupt ``SystemExit`` (a SIGTERM
        handler, an unhandled exception in a daemon) the writer thread
        is daemonic, so the pending window's appends would silently die
        with it.  The barrier first gives the still-live writer a
        bounded chance to finish, then writes any remaining pending
        batch inline from the exiting thread — unless the writer is
        frozen mid-batch, where writing from a second thread could
        interleave into its half-written frame (the torn bytes are
        then the ordinary torn-tail crash class a rescan heals).
        """
        if self._closed:
            return
        try:
            if self.flush(timeout=1.0):
                return
            with self._wlock:
                if self._writer_busy:
                    return           # mid-frame: appending would tear
                batch, self._pending = self._pending, []
                self._pending_bytes = 0
                self._stop = True
            records = [item for kind, item in batch if kind == "record"]
            self._write_batch(records)
            if records and self.fsync:
                os.fsync(self._fh.fileno())
                _credit(group_fsyncs=1)
            if records:
                _credit(group_flushes=1)
            for kind, item in batch:
                if kind == "manifest":
                    sid, manifest = item
                    write_manifest(self.directory, sid, **manifest)
        except Exception:
            # The interpreter is dying; the journal's crash contract
            # (any on-disk prefix of append order recovers) covers
            # whatever this barrier could not finish.
            pass

    def _roll_segment(self) -> None:
        self._fh.close()
        self._segment_index += 1
        self._segment_records_written = 0
        self._fh = open(
            self.directory / _segment_name(self._segment_index), "ab",
            buffering=0)

    def close(self) -> None:
        """Drain the write buffer and close the segment (idempotent).

        A group journal barriers on its writer first — close returns
        only once every accepted append is on disk — and re-raises a
        writer failure rather than losing it silently.
        """
        if self._closed:
            return
        self._closed = True
        if self._atexit_registered:
            atexit.unregister(self._atexit_barrier)
            self._atexit_registered = False
        try:
            if self._writer is not None:
                with self._wlock:
                    self._stop = True
                    self._wcond.notify_all()
                self._writer.join()
        finally:
            self._fh.close()
        if self._writer_error is not None:
            self._raise_writer_error()

    def __enter__(self) -> "ChunkJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
