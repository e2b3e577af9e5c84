"""Crash recovery: finalize a chunk journal's sessions after a restart.

A service that journals every consumed chunk can die at any instant
and lose nothing it had accepted.  :class:`RecoveryManager` is the
restart path: it scans the journal directory
(:func:`~repro.ingest.journal.scan_journal` classifies every record —
complete sessions, open sessions, damaged sessions, torn tail),
then

* :meth:`recover` finalizes every session whose trailer was journaled
  as one offline batch: each session is assembled from its decoded
  chunks and all of them run through
  :func:`~repro.core.executor.process_batch` (the cohort tier by
  default).  The per-session results are bit-identical to the run the
  crash interrupted because transport is lossless and every batch
  backend is pinned bit-identical to per-recording
  ``process_recording`` — the finalize live ingest runs (the recovery
  property test asserts this for arbitrary crash points and journal
  segmentations);
* :meth:`resume` additionally re-attaches a chunk source (a device
  fleet whose devices reconnect): journaled chunks replay first
  through a :class:`~repro.ingest.streaming.StreamingExecutor`,
  already-journaled sequence numbers from the source are skipped, and
  genuinely new chunks are journaled and assembled — so sessions the
  crash (or a dropout) left open complete exactly as if nothing had
  happened.

Damaged sessions are never silently repaired: they are quarantined by
the scan, excluded from replay, and reported by id in the
:class:`RecoveryResult` — the caller decides whether to re-measure.
Complete sessions the pipeline rejects (a flatline ECG with too few R
peaks, say) are reported the same way, in ``rejected``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.cache import FilterDesignCache
from repro.core.config import PipelineConfig
from repro.core.executor import process_batch
from repro.core.pipeline import BeatToBeatPipeline
from repro.errors import JournalError, ReproError
from repro.ingest.journal import (
    ChunkJournal,
    JournalScan,
    _manifest_name,
    _safe_session_id,
    repair_torn_tail,
    scan_journal,
    write_manifest,
)
from repro.ingest.chunks import SessionAssembler
from repro.ingest.streaming import SessionResult, StreamingExecutor
from repro.io.journal_records import scan_segment

__all__ = ["RecoveryManager", "RecoveryResult", "ReingestReport",
           "backfill_manifests"]

#: Sidecar directory quarantined records are moved into; never read by
#: a journal scan (scans only glob the directory's top level).
QUARANTINE_DIR = ".quarantine"

_REINGEST_TMP_SUFFIX = ".reingest"


def backfill_manifests(directory, scan: JournalScan) -> None:
    """Write the manifests a crash raced past (trailer journaled, but
    the process died before the manifest rename)."""
    for sid, chunks in scan.complete.items():
        if sid not in scan.manifests:
            trailer = chunks[-1]
            write_manifest(
                directory, sid, n_chunks=len(chunks),
                n_samples=trailer.start_sample + trailer.n_samples,
                fs=trailer.fs)


@dataclass
class ReingestReport:
    """What :meth:`RecoveryManager.reingest` moved aside.

    ``sidecar`` is the ``.quarantine/`` file holding the displaced
    frames verbatim (scannable with
    :func:`~repro.io.journal_records.scan_segment` for forensics), or
    ``None`` when the quarantine held no attributable record — e.g. a
    manifest/log mismatch where only the manifest had to be reset.
    """

    session_id: str
    records_moved: int = 0
    sidecar: Optional[Path] = None
    segments_rewritten: tuple = ()
    manifest_reset: bool = False


@dataclass
class RecoveryResult:
    """Outcome of one recovery (or resume) pass.

    ``results`` holds a
    :class:`~repro.ingest.streaming.SessionResult` per session that
    could be finalized; ``open_sessions`` the ids still awaiting their
    trailer after the pass; ``damaged`` the quarantined sessions with
    the scan's reason for each; ``rejected`` the complete sessions the
    pipeline refused (e.g. too few R peaks) with its error message.
    """

    results: dict
    open_sessions: tuple = ()
    damaged: dict = field(default_factory=dict)
    rejected: dict = field(default_factory=dict)
    n_records: int = 0
    torn_tail_recovered: bool = False
    unattributed_damage: int = 0


class RecoveryManager:
    """Re-open a chunk journal and pick its sessions back up.

    Parameters mirror the streaming executor's: ``config`` is the
    stage configuration sessions were (and will be) analysed under —
    recovery must run the identical configuration to reproduce the
    interrupted run's bits — and ``cache`` the filter-design cache for
    cohort-tier and inline finalization.
    """

    def __init__(self, directory,
                 config: Optional[PipelineConfig] = None,
                 cache: Optional[FilterDesignCache] = None) -> None:
        self.directory = Path(directory)
        self.config = config
        self.cache = cache

    def scan(self) -> JournalScan:
        """Classify the journal without replaying anything."""
        return scan_journal(self.directory)

    # -- internals --------------------------------------------------------

    @staticmethod
    def _replay(scan: JournalScan):
        """Every good journaled chunk, session-contiguous.

        The assembler only requires per-session sequence order (live
        ingest interleaves sessions arbitrarily), so replay yields each
        session's chunks in log order, complete sessions first.
        """
        for chunks in scan.complete.values():
            yield from chunks
        for chunks in scan.open.values():
            yield from chunks

    # -- quarantine re-ingest ---------------------------------------------

    def reingest(self, session_id: str) -> ReingestReport:
        """Clear a quarantined session so it can be measured again.

        Every frame attributable to the session — damaged and intact
        alike; a quarantined session is untrustworthy as a whole — is
        byte-copied into a ``.quarantine/`` sidecar file, the frames
        are removed from their segments (live sessions' frames are
        byte-copied through unchanged), and the session's manifest is
        deleted.  Afterwards the journal accepts the session again
        from seq 0 through the ordinary write-through path.

        Crash-safe by ordering: the sidecar is written and fsynced
        before any segment is rewritten, segments are rewritten in log
        order (an interruption leaves the session without its earliest
        records, so it *stays* quarantined until a rerun finishes),
        and the manifest is deleted last (a manifest surviving its
        records keeps the session quarantined too).  Unreadable bytes
        after a lost-framing point are preserved verbatim — they may
        belong to other sessions and are not this session's to move.

        Raises :class:`~repro.errors.JournalError` when the session is
        not quarantined.
        """
        scan = self.scan()
        if session_id not in scan.damaged:
            raise JournalError(
                f"session {session_id!r} is not quarantined "
                f"(nothing to re-ingest)")
        for stale in sorted(self.directory.glob(
                f"segment-*.log{_REINGEST_TMP_SUFFIX}")):
            stale.unlink()

        affected = []                    # (path, segment_scan, data)
        for path in scan.segments:
            segment = scan_segment(path)
            if any(entry.session_id == session_id
                   for entry in segment.entries):
                affected.append((path, segment, path.read_bytes()))

        sidecar = None
        moved = 0
        if affected:
            sidecar_dir = self.directory / QUARANTINE_DIR
            sidecar_dir.mkdir(exist_ok=True)
            safe = _safe_session_id(session_id)
            index = 0
            while (sidecar_dir / f"{safe}-{index:03d}.log").exists():
                index += 1
            sidecar = sidecar_dir / f"{safe}-{index:03d}.log"
            with open(sidecar, "wb") as out:
                for _, segment, data in affected:
                    for entry in segment.entries:
                        if entry.session_id == session_id:
                            out.write(data[entry.offset:
                                           entry.offset + entry.length])
                            moved += 1
                out.flush()
                os.fsync(out.fileno())

        rewritten = []
        for path, segment, data in affected:
            tmp = Path(str(path) + _REINGEST_TMP_SUFFIX)
            with open(tmp, "wb") as fh:
                for entry in segment.entries:
                    if entry.session_id != session_id:
                        fh.write(data[entry.offset:
                                      entry.offset + entry.length])
                if segment.lost_framing_offset is not None:
                    fh.write(data[segment.lost_framing_offset:])
                if segment.torn_offset is not None:
                    fh.write(data[segment.torn_offset:])
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            rewritten.append(path.name)

        manifest_path = self.directory / _manifest_name(session_id)
        manifest_reset = manifest_path.exists()
        if manifest_reset:
            manifest_path.unlink()
        return ReingestReport(
            session_id=session_id, records_moved=moved, sidecar=sidecar,
            segments_rewritten=tuple(rewritten),
            manifest_reset=manifest_reset)

    def _finalize_each(self, recordings: dict) -> tuple:
        """``({sid: result}, {sid: message})`` with every session run
        alone through ``process_recording`` — the oracle every batch
        backend is pinned to — so one session the pipeline rejects
        cannot hold back the others."""
        pipelines: dict = {}
        finalized: dict = {}
        rejected: dict = {}
        for sid, recording in recordings.items():
            fs = float(recording.fs)
            try:
                if fs not in pipelines:
                    pipelines[fs] = BeatToBeatPipeline(
                        fs, self.config, cache=self.cache)
                finalized[sid] = pipelines[fs].process_recording(recording)
            except ReproError as exc:
                rejected[sid] = str(exc)
        return finalized, rejected

    # -- the two entry points ---------------------------------------------

    def recover(self, n_workers: int = 1,
                finalize_backend: str = "cohort") -> RecoveryResult:
        """Finalize every session the journal holds complete.

        Recovery is an offline batch: each complete session is
        assembled from its journaled chunks (the assembler's seq and
        ``start_sample`` contiguity checks run on every chunk, open
        sessions' included), then all of them finalize in one
        :func:`~repro.core.executor.process_batch` call.
        ``finalize_backend`` is ``"cohort"`` (default) or
        ``"process"``; ``n_workers`` is the latter's ``n_jobs`` (``1``
        runs the serial loop) and has no effect on ``"cohort"``.
        Every backend is pinned bit-identical to per-recording
        ``process_recording``, the finalize live ingest runs, so
        results match the interrupted run.  If the batch raises a :class:`~repro.errors.ReproError`,
        each session is finalized alone instead and the ones the
        pipeline rejects are reported in ``rejected``; every other
        session still recovers.

        Open sessions are reported, not dropped — they stay journaled
        for a later :meth:`resume`.  Missing manifests of complete
        sessions are backfilled, and a torn tail left by a crash
        mid-append is truncated away (the same healing a reopening
        journal performs).
        """
        scan = scan_journal(self.directory)
        torn_recovered = repair_torn_tail(scan)
        assembler = SessionAssembler()
        recordings = []
        for chunk in self._replay(scan):
            recording = assembler.add(chunk)
            if recording is not None:
                recordings.append(recording)
        # _replay yields complete sessions first, in scan order, so
        # their recordings line up with scan.complete.
        by_session = dict(zip(scan.complete, recordings))
        rejected: dict = {}
        try:
            finalized = dict(zip(by_session, process_batch(
                recordings, self.config, n_jobs=n_workers,
                cache=self.cache, backend=finalize_backend)))
        except ReproError:
            finalized, rejected = self._finalize_each(by_session)
        results = {
            sid: SessionResult(
                session_id=sid, recording=by_session[sid],
                result=finalized[sid], n_chunks=len(chunks),
                first_arrival_s=chunks[0].arrival_s,
                last_arrival_s=chunks[-1].arrival_s)
            for sid, chunks in scan.complete.items() if sid in finalized
        }
        backfill_manifests(self.directory, scan)
        return RecoveryResult(
            results=results,
            open_sessions=assembler.open_sessions,
            damaged=dict(scan.damaged),
            rejected=rejected,
            n_records=scan.n_records,
            torn_tail_recovered=torn_recovered,
            unattributed_damage=scan.unattributed_damage,
        )

    def resume(self, source, n_workers: int = 1,
               preview: bool = False,
               max_chunks: Optional[int] = 64,
               segment_records: Optional[int] = None) -> RecoveryResult:
        """Replay the journal, then continue ingesting ``source``.

        ``source`` is any :class:`~repro.ingest.chunks.SessionSource`;
        chunks it re-sends that the journal already holds are skipped
        (and the journal's own append is idempotent besides), chunks of
        quarantined sessions are refused, and everything genuinely new
        is journaled before analysis — exactly the live write-through
        path.  The returned results therefore cover *all* finalized
        sessions: those completed before the crash and those completed
        by the resumed stream.
        """
        # The reopening journal scans (and heals) the directory once;
        # its classification is reused for the replay and the result's
        # bookkeeping instead of paying further full-journal scans.
        journal = ChunkJournal(self.directory,
                               segment_records=segment_records)
        scan = journal.last_scan
        counts = scan.session_counts
        completed = set(scan.complete)
        damaged = set(scan.damaged)

        def stream():
            yield from self._replay(scan)
            for chunk in source:
                sid = chunk.session_id
                if sid in damaged or sid in completed:
                    continue
                if chunk.seq < counts.get(sid, 0):
                    continue
                yield chunk

        try:
            executor = StreamingExecutor(
                config=self.config, n_workers=n_workers,
                max_chunks=max_chunks,
                preview=preview, cache=self.cache, journal=journal,
                allow_open=True)
            results = executor.run(stream())
        finally:
            journal.close()
        # Sessions complete on disk before the crash replay as no-op
        # appends (no trailer write, so no manifest): backfill from
        # the scan.  Newly completed sessions wrote theirs live.
        backfill_manifests(self.directory, scan)
        return RecoveryResult(
            results=results,
            open_sessions=executor.last_open_sessions,
            damaged=dict(scan.damaged),
            n_records=scan.n_records + journal.appended_records,
            torn_tail_recovered=journal.recovered_torn_tail,
            unattributed_damage=scan.unattributed_damage,
        )
