"""The serve daemon: a supervised, always-on ingest-and-analyse loop.

``repro serve`` wraps the batch-shaped ingest machinery — bounded work
queue, chunk journal write-through, session assembler,
:class:`~repro.ingest.streaming.FinalizeDispatcher` — in a process
that is *meant to stay up*:

* every session runs under the :mod:`~repro.serve.supervisor` state
  machine, so one stalled, gapped, damaged or finalize-poisoned
  session is quarantined alone while its neighbours keep flowing;
* :class:`~repro.serve.policies.DeadlinePolicy` turns silence into
  action (a source that stops sending past its chunk deadline, a
  finalize that outlives its timeout) and
  :class:`~repro.serve.policies.RetryPolicy` gives transient faults —
  a finalize pool broken by a killed worker, an ``OSError`` from the
  journal's disk — a capped-exponential second chance;
* overload degrades instead of failing: the
  :class:`~repro.serve.policies.DegradationLadder` first sheds *new*
  sessions (admission class; journaled sessions are never dropped),
  then collapses group-commit durability to strict so backpressure
  reaches producers instead of memory;
* boot **is** recovery: :meth:`ServeDaemon.serve` reopens the journal
  (healing any torn tail), replays every journaled chunk through the
  very same consume path live chunks take (appends are idempotent
  no-ops), finalizes sessions whose trailer is on disk, resumes open
  ones from their live source, and quarantines damaged ones — so a
  SIGKILL at any instant costs nothing that was accepted;
* a unix-socket health endpoint (:mod:`~repro.serve.health`) answers
  ``repro serve --status`` with the supervisor's, ladder's and
  journal's live numbers.

Graceful shutdown (:meth:`ServeDaemon.stop`, or SIGTERM via the CLI)
closes the queue — blocked producers fail with
:class:`~repro.errors.QueueClosedError` instead of hanging — drains
what is buffered, finalizes every session whose trailer arrived,
flushes the journal and exits; sessions still awaiting chunks stay
open *in the journal*, which is exactly the durable state the next
boot resumes from.
"""

from __future__ import annotations

import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, wait
from pathlib import Path
from typing import Optional

from repro.core.cache import FilterDesignCache
from repro.core.config import PipelineConfig
from repro.errors import (
    ConfigurationError,
    JournalError,
    QueueClosedError,
    ReproError,
    SupervisorError,
)
from repro.ingest.chunks import SessionAssembler
from repro.ingest.gc import journal_gc
from repro.ingest.journal import ChunkJournal, DURABILITY_MODES
from repro.ingest.recovery import RecoveryManager, backfill_manifests
from repro.ingest.stats import ingest_stats
from repro.ingest.streaming import FinalizeDispatcher, SessionResult
from repro.ingest.workqueue import BoundedWorkQueue
from repro.io.archive import archive_sessions
from repro.serve.health import HealthServer, STATUS_SOCKET_NAME
from repro.serve.policies import (
    DEGRADATION_LEVELS,
    DeadlinePolicy,
    DegradationLadder,
    PeriodicJob,
    RetryPolicy,
    SHED_NEW,
    STRICT_DURABILITY,
)
from repro.serve.supervisor import (
    ACCEPTING,
    DONE,
    DRAINING,
    FINALIZING,
    QUARANTINED,
    SessionSupervisor,
)

__all__ = ["ServeDaemon"]

_SHED_LEVEL = DEGRADATION_LEVELS.index(SHED_NEW)
_STRICT_LEVEL = DEGRADATION_LEVELS.index(STRICT_DURABILITY)


class ServeDaemon:
    """Supervise many concurrent device sessions over one journal.

    Parameters
    ----------
    journal_dir:
        The journal directory the daemon owns — its durable state and
        the root of its status socket.  Created when missing; a
        directory holding a previous (crashed or drained) run is the
        normal case, not an error: boot replays it.
    config / cache:
        Stage configuration and filter-design cache, as everywhere
        else; recovery bit-identity requires serving the same
        configuration the interrupted run used.
    n_workers:
        Finalize width, exactly as
        :class:`~repro.ingest.streaming.StreamingExecutor` takes it:
        ``1`` (default) finalizes inline in the drain loop, more than
        one on the warm process pool.
    max_chunks / max_bytes:
        Ingest queue bounds; also the denominator of the overload
        ladder's pressure signal.
    durability / fsync / segment_records:
        Journal knobs (see :class:`~repro.ingest.journal.ChunkJournal`).
        ``durability`` is the *configured* mode; the ladder may
        temporarily force ``"strict"`` under overload and restores
        this mode when pressure clears.
    deadline / retry:
        The :class:`~repro.serve.policies.DeadlinePolicy` and
        :class:`~repro.serve.policies.RetryPolicy`; defaults disable
        deadlines and allow two attempts.  A finalize timeout needs
        ``n_workers > 1``: an inline finalize holds the drain loop, so
        no deadline check can run until it returns.
    high_water / low_water:
        The ladder's hysteresis band, as fractions of queue capacity.
    gc_interval_s / archive_dir / archive_interval_s:
        When set, journal garbage collection and cold-tier archival
        run as supervised :class:`~repro.serve.policies.PeriodicJob`
        timers (contained failures, backoff on streaks).
    health:
        Whether to bind the status socket
        (``journal_dir/serve.sock``).
    crash_hook:
        Fault-injection instrumentation, the
        :func:`~repro.ingest.gc.journal_gc` convention: called as
        ``crash_hook(stage, detail)`` at every durable step and may
        raise to simulate a SIGKILL at that exact point.
    poll_interval_s:
        Drain-loop tick while idle — the cadence of deadline checks
        and finalize reaping.
    """

    def __init__(self, journal_dir,
                 config: Optional[PipelineConfig] = None,
                 n_workers: int = 1,
                 max_chunks: Optional[int] = 64,
                 max_bytes: Optional[int] = None,
                 durability: str = "strict",
                 fsync: bool = False,
                 segment_records: Optional[int] = None,
                 deadline: Optional[DeadlinePolicy] = None,
                 retry: Optional[RetryPolicy] = None,
                 high_water: float = 0.8,
                 low_water: float = 0.3,
                 gc_interval_s: Optional[float] = None,
                 archive_dir=None,
                 archive_interval_s: Optional[float] = None,
                 cache: Optional[FilterDesignCache] = None,
                 health: bool = True,
                 crash_hook=None,
                 poll_interval_s: float = 0.05) -> None:
        if durability not in DURABILITY_MODES:
            raise ConfigurationError(
                f"unknown durability {durability!r}; "
                f"choose from {DURABILITY_MODES}")
        if archive_interval_s is not None and archive_dir is None:
            raise ConfigurationError(
                "archive_interval_s needs archive_dir")
        self.deadline = deadline or DeadlinePolicy()
        self.n_workers = int(n_workers)
        if (self.deadline.finalize_timeout_s is not None
                and self.n_workers == 1):
            raise ConfigurationError(
                "a finalize timeout needs n_workers >= 2: an inline "
                "finalize holds the drain loop, so its deadline could "
                "only be checked after it returned")
        self.directory = Path(journal_dir)
        self.config = config
        self.max_chunks = max_chunks
        self.max_bytes = max_bytes
        self.configured_durability = durability
        self.fsync = bool(fsync)
        self.segment_records = segment_records
        self.retry = retry or RetryPolicy()
        self.gc_interval_s = gc_interval_s
        self.archive_dir = archive_dir
        self.archive_interval_s = archive_interval_s
        self.health = bool(health)
        self.crash_hook = crash_hook
        self.poll_interval_s = float(poll_interval_s)

        self.supervisor = SessionSupervisor()
        self.ladder = DegradationLadder(high_water=high_water,
                                        low_water=low_water)
        self._dispatcher = FinalizeDispatcher(config, cache)
        self.cache = self._dispatcher.cache

        self.journal: Optional[ChunkJournal] = None
        self._jlock = threading.RLock()
        self.results: dict = {}
        self.source_errors: list = []
        self._assembler = SessionAssembler()
        self._pending: dict = {}      # sid -> (future, arena, recording)
        self._first_arrival: dict = {}
        self._last_arrival: dict = {}
        self._shed: set = set()
        self._queue: Optional[BoundedWorkQueue] = None
        self._jobs: list = []
        self._health_server: Optional[HealthServer] = None
        self._stop = threading.Event()
        self._state = "idle"

    # -- instrumentation ---------------------------------------------------

    @property
    def socket_path(self) -> Path:
        """Where the status socket lives (bound only while serving)."""
        return self.directory / STATUS_SOCKET_NAME

    def _crash(self, stage: str, detail: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(stage, detail)

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Request a graceful drain (idempotent, signal-safe): stop
        admitting, finish what is buffered and submitted, flush, exit.
        The CLI wires SIGTERM/SIGINT here."""
        self._stop.set()

    def serve(self, sources=(), once: bool = True) -> dict:
        """Boot-recover the journal, then serve ``sources``.

        Each source is any chunk iterable (a
        :class:`~repro.ingest.fleet.DeviceFleet`, a live adapter); one
        producer thread feeds each into the shared bounded queue, so a
        stalled source blocks only itself.  With ``once`` the daemon
        exits when every source is exhausted and every submitted
        finalize resolved; without it, it runs until :meth:`stop`.

        Returns ``{session_id: SessionResult}`` for every session
        finalized this run (including those recovered from the
        journal).  A source that raises is recorded in
        :attr:`source_errors` and does not take the service down.
        """
        if self._state in ("serving", "draining"):
            raise ReproError("daemon is already serving")
        self._stop.clear()
        self._state = "booting"
        self.results = {}
        self.source_errors = []
        self._assembler = SessionAssembler()
        self._pending = {}
        self._first_arrival = {}
        self._last_arrival = {}
        self._shed = set()
        queue = BoundedWorkQueue(max_items=self.max_chunks,
                                 max_bytes=self.max_bytes)
        self._queue = queue
        sources = list(sources)
        draining = False
        try:
            with self._dispatcher.pool_context(self.n_workers) as pool:
                self._boot(pool)
                self._start_maintenance()
                self._state = "serving"
                producers = self._start_producers(sources, queue, once)
                while True:
                    if self._stop.is_set() and not draining:
                        # Graceful drain: no further admission; blocked
                        # producers fail with QueueClosedError instead
                        # of waiting on space no consumer will free.
                        draining = True
                        self._state = "draining"
                        queue.close()
                    burst = queue.drain(timeout=self.poll_interval_s)
                    if not burst and queue.closed and self._pending:
                        # A closed, empty queue drains at once: block
                        # on the pending finalizes for up to one tick
                        # instead of spinning until they land.
                        self._await_finalizes()
                    for chunk in burst:
                        self._consume(chunk, pool, live=True)
                    # Overload is backlog that survives a whole tick:
                    # the queue refilling *while* we consumed means the
                    # service is behind.  (A burst merely filling the
                    # bound is backpressure working, not overload —
                    # sampling the burst size would shed every fast
                    # producer's sessions.)
                    self._update_degradation(len(queue))
                    self._check_deadlines()
                    self._reap_finalizes(pool)
                    if (queue.closed and not burst and len(queue) == 0
                            and not self._pending):
                        break
                self._state = "draining"
                with self._jlock:
                    if self.journal is not None:
                        self.journal.flush()
                self._crash("drained", "")
                self._shutdown_clean(producers)
        finally:
            # Crash paths (SimulatedCrash from a crash_hook stands in
            # for SIGKILL) fall through here: tear down the threads a
            # dead process would lose anyway, but leave the journal
            # *unflushed and unclosed* — faking durability the crash
            # did not have would invalidate every recovery guarantee.
            queue.close()
            self._stop_maintenance()
            self._state = "stopped"
        return dict(self.results)

    def run_once(self, source) -> dict:
        """Serve a single source to completion (convenience)."""
        return self.serve([source], once=True)

    # -- boot recovery -----------------------------------------------------

    def _boot(self, pool) -> None:
        """Reopen the journal and replay it through the live path.

        The reopen scan heals a torn tail; manifests a crash raced
        past are backfilled; damaged sessions are supervised straight
        into QUARANTINED; every good journaled chunk is replayed
        through :meth:`_consume` — the appends no-op idempotently, the
        assembler rebuilds open sessions' partial state, and sessions
        whose trailer is on disk finalize exactly as live ones do.
        """
        with self._jlock:
            self.journal = ChunkJournal(
                self.directory, segment_records=self.segment_records,
                fsync=self.fsync, durability=self.configured_durability)
            scan = self.journal.last_scan
        self._crash("boot-scan", str(self.directory))
        backfill_manifests(self.directory, scan)
        for sid, reason in scan.damaged.items():
            self.supervisor.accept(sid)
            self.supervisor.quarantine(
                sid, f"journal damage: {reason}")
        for chunk in RecoveryManager._replay(scan):
            self._consume(chunk, pool, live=False)
        self._crash("replayed", f"{scan.n_records} records")

    # -- producers ---------------------------------------------------------

    def _start_producers(self, sources, queue: BoundedWorkQueue,
                         once: bool) -> list:
        remaining = [len(sources)]
        lock = threading.Lock()
        if not sources and once:
            queue.close()

        def produce(source) -> None:
            try:
                for chunk in source:
                    queue.put(chunk)
            except QueueClosedError:
                pass                  # graceful drain reached us first
            except Exception as exc:
                # One device dying is that device's problem, not the
                # service's: record it and keep the others flowing.
                self.source_errors.append(exc)
            finally:
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0 and once:
                        queue.close()

        producers = []
        for index, source in enumerate(sources):
            thread = threading.Thread(
                target=produce, args=(source,),
                name=f"serve-source-{index}", daemon=True)
            thread.start()
            producers.append(thread)
        return producers

    # -- maintenance and health --------------------------------------------

    def _start_maintenance(self) -> None:
        self._jobs = []
        if self.gc_interval_s is not None:
            self._jobs.append(PeriodicJob(
                "journal-gc", self.gc_interval_s, self._gc_tick,
                retry=self.retry).start())
        if self.archive_interval_s is not None:
            self._jobs.append(PeriodicJob(
                "archive", self.archive_interval_s, self._archive_tick,
                retry=self.retry).start())
        if self.health:
            self._health_server = HealthServer(
                str(self.socket_path), self.status).start()

    def _stop_maintenance(self) -> None:
        for job in self._jobs:
            job.stop()
        if self._health_server is not None:
            self._health_server.stop()
            self._health_server = None

    def _reopen_journal(self, durability: str) -> None:
        self.journal = ChunkJournal(
            self.directory, segment_records=self.segment_records,
            fsync=self.fsync, durability=durability)

    def _gc_tick(self) -> None:
        """One supervised GC sweep: the journal must be closed while
        segments are rewritten (the open append fd would otherwise
        keep writing into a replaced file), so close → sweep → reopen
        under the journal lock."""
        with self._jlock:
            if self.journal is None or self.journal.closed:
                return
            durability = self.journal.durability
            self.journal.close()
            try:
                journal_gc(self.directory)
            finally:
                self._reopen_journal(durability)

    def _archive_tick(self) -> None:
        """One supervised archive sweep (flush first, so the scan the
        archiver takes sees every accepted record)."""
        with self._jlock:
            if self.journal is None or self.journal.closed:
                return
            self.journal.flush()
            archive_sessions(self.directory, self.archive_dir)

    def reingest(self, session_id: str):
        """Readmit a quarantined session whose journal records are
        damaged on disk: move them aside
        (:meth:`~repro.ingest.recovery.RecoveryManager.reingest`) and
        drive the QUARANTINED → ACCEPTING edge, after which the device
        may stream the session again from seq 0.

        Sessions quarantined for *live* reasons (stalled source,
        finalize timeout) keep their good records journaled and are
        resumed by the next boot instead; for those this raises
        :class:`~repro.errors.JournalError` untouched.
        """
        record = self.supervisor.get(session_id)
        if record is None or record.state != QUARANTINED:
            raise SupervisorError(
                f"session {session_id!r} is not quarantined")
        with self._jlock:
            # The open append fd must not survive the segment rewrite;
            # a stopped daemon's journal is already closed, and the
            # next serve() reopens it at boot either way.
            durability = None
            if self.journal is not None and not self.journal.closed:
                durability = self.journal.durability
                self.journal.close()
            try:
                report = RecoveryManager(
                    self.directory, self.config,
                    self.cache).reingest(session_id)
            finally:
                if durability is not None:
                    self._reopen_journal(durability)
        self.supervisor.transition(session_id, ACCEPTING)
        self._shed.discard(session_id)
        return report

    # -- degradation -------------------------------------------------------

    def _update_degradation(self, depth: int) -> None:
        if not self.max_chunks:
            return
        level = self.ladder.update(depth / self.max_chunks)
        with self._jlock:
            if self.journal is None:
                return
            if level >= _STRICT_LEVEL:
                self.journal.set_durability("strict")
            else:
                self.journal.set_durability(self.configured_durability)

    # -- the consume path (replay and live chunks alike) -------------------

    def _consume(self, chunk, pool, live: bool) -> None:
        sid = chunk.session_id
        record = self.supervisor.get(sid)
        if record is None:
            if sid in self._shed:
                return
            if (live and self.ladder.level >= _SHED_LEVEL
                    and not self._journaled(sid)):
                # Overload: reject by admission class.  Only sessions
                # with no journaled chunk are sheddable — anything on
                # disk is a durability promise already made.
                self._shed.add(sid)
                ingest_stats().add(serve_sheds=1)
                return
            record = self.supervisor.accept(sid)
        if record.state == QUARANTINED:
            return                        # isolated; ignore its chunks
        if record.state != ACCEPTING:
            return                        # late duplicate past trailer
        if chunk.seq < record.next_seq:
            return                        # idempotent re-send
        if chunk.seq > record.next_seq:
            self.supervisor.quarantine(
                sid, f"sequence gap: got seq {chunk.seq}, "
                     f"expected {record.next_seq}")
            return
        if not self._append_with_retry(chunk, record):
            return
        record.next_seq = chunk.seq + 1
        record.n_chunks += 1
        record.last_chunk_monotonic = time.monotonic()
        self._first_arrival.setdefault(sid, chunk.arrival_s)
        self._last_arrival[sid] = chunk.arrival_s
        if live:
            self._crash("journaled", f"{sid}:{chunk.seq}")
        recording = self._assembler.add(chunk)
        if recording is not None:
            self.supervisor.transition(sid, DRAINING)
            with self._jlock:
                # Trailer barrier: the session's records and manifest
                # must be durable before finalize observes them, so
                # recovery after any later crash replays identically.
                self.journal.flush()
            self.supervisor.transition(sid, FINALIZING)
            self._submit(pool, sid, record, recording)

    def _journaled(self, sid: str) -> bool:
        with self._jlock:
            if self.journal is None:
                return False
            return (self.journal.next_seq(sid) > 0
                    or sid in self.journal.completed_sessions)

    def _append_with_retry(self, chunk, record) -> bool:
        """Write-through with the retry policy; ``False`` when the
        chunk must not be processed (refused, or replay no-op falls
        through to ``True`` — the assembler still needs it)."""
        attempt = 0
        while True:
            try:
                with self._jlock:
                    self.journal.append(chunk)
                return True
            except JournalError as exc:
                # Damaged session or a gap the journal sees that we do
                # not (e.g. its state moved under a GC reopen): this
                # session is untrustworthy, not the service.
                self.supervisor.quarantine(
                    chunk.session_id, f"journal refused chunk: {exc}")
                return False
            except OSError as exc:
                attempt += 1
                if self.retry.exhausted(attempt):
                    raise
                warnings.warn(
                    f"journal append failed ({exc}); retrying",
                    RuntimeWarning, stacklevel=2)
                self.retry.sleep(attempt - 1)

    # -- finalize ----------------------------------------------------------

    def _submit(self, pool, sid: str, record, recording) -> None:
        future, arena = self._dispatcher.submit(pool, recording)
        record.submitted_monotonic = time.monotonic()
        self._pending[sid] = (future, arena, recording)
        self._crash("submitted", sid)

    def _await_finalizes(self) -> None:
        futures = [entry[0] for entry in self._pending.values()
                   if isinstance(entry[0], Future)]
        if futures:
            wait(futures, timeout=self.poll_interval_s,
                 return_when=FIRST_COMPLETED)

    def _reap_finalizes(self, pool) -> None:
        for sid in list(self._pending):
            future, arena, recording = self._pending[sid]
            # _InlineResult (inline finalize) resolves eagerly and
            # has no done(); treat it as always ready.
            if hasattr(future, "done") and not future.done():
                continue
            record = self.supervisor.get(sid)
            try:
                result = self._dispatcher.resolve(sid, future, arena,
                                                  recording)
            except Exception as exc:
                record.attempts += 1
                if self.retry.exhausted(record.attempts):
                    del self._pending[sid]
                    self.supervisor.quarantine(
                        sid, f"finalize failed after "
                             f"{record.attempts} attempts: {exc}")
                    continue
                self.retry.sleep(record.attempts - 1)
                self._submit(pool, sid, record, recording)
                continue
            del self._pending[sid]
            self.supervisor.transition(sid, DONE)
            self.results[sid] = SessionResult(
                session_id=sid, recording=recording, result=result,
                n_chunks=record.n_chunks,
                first_arrival_s=self._first_arrival.get(sid, 0.0),
                last_arrival_s=self._last_arrival.get(sid, 0.0))
            self._crash("finalized", sid)

    # -- deadlines ---------------------------------------------------------

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        for record in self.supervisor.records():
            if (record.state == ACCEPTING
                    and self.deadline.chunk_overdue(
                        record.last_chunk_monotonic, now)):
                ingest_stats().add(serve_deadline_hits=1)
                self.supervisor.quarantine(
                    record.session_id,
                    f"stalled source: no chunk for "
                    f"{self.deadline.chunk_deadline_s:g}s")
            elif (record.state == FINALIZING
                    and self.deadline.finalize_overdue(
                        record.submitted_monotonic, now)):
                ingest_stats().add(serve_deadline_hits=1)
                # The job cannot be interrupted mid-flight; abandon
                # it (its arena is released; a late result is simply
                # dropped) and isolate the session.
                entry = self._pending.pop(record.session_id, None)
                if entry is not None and entry[1] is not None:
                    entry[1].release()
                self.supervisor.quarantine(
                    record.session_id,
                    f"finalize timeout: exceeded "
                    f"{self.deadline.finalize_timeout_s:g}s")

    # -- clean shutdown ----------------------------------------------------

    def _shutdown_clean(self, producers: list) -> None:
        for thread in producers:
            # A producer blocked inside a stalled *source* cannot be
            # joined; it is a daemon thread and dies with the process.
            thread.join(timeout=0.5)
        with self._jlock:
            if self.journal is not None:
                self.journal.close()

    # -- status ------------------------------------------------------------

    def status(self) -> dict:
        """The live status document (what the health socket serves)."""
        queue = self._queue
        with self._jlock:
            journal = None
            if self.journal is not None and self._state != "idle":
                journal = {
                    "directory": str(self.directory),
                    "durability": self.journal.durability,
                    "configured_durability": self.configured_durability,
                    "open_sessions": list(self.journal.open_sessions),
                    "completed_sessions":
                        len(self.journal.completed_sessions),
                    "appended_records": self.journal.appended_records,
                }
        return {
            "ok": self._state == "serving" and not self.ladder.degraded,
            "state": self._state,
            "degradation": {"level": self.ladder.level,
                            "name": self.ladder.name},
            "sessions": {"counts": self.supervisor.counts(),
                         "by_id": self.supervisor.states()},
            "queue": (dict(depth=len(queue),
                           buffered_bytes=queue.buffered_bytes,
                           closed=queue.closed,
                           **queue.stats.as_dict())
                      if queue is not None else None),
            "pending_finalizes": len(self._pending),
            "shed_sessions": sorted(self._shed),
            "source_errors": [f"{type(e).__name__}: {e}"
                              for e in self.source_errors],
            "jobs": [job.stats() for job in self._jobs],
            "journal": journal,
            "stats": ingest_stats().as_dict(),
        }
