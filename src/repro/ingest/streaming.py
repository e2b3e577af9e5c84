"""The streaming executor: drain a chunk queue into the stage graph.

Work flows producer -> queue -> drain loop -> finalize pool:

* a producer thread iterates the :class:`~repro.ingest.chunks.SessionSource`
  (e.g. a :class:`~repro.ingest.fleet.DeviceFleet`) and feeds the
  bounded queue — blocking when consumers fall behind, which is the
  backpressure that bounds peak memory;
* the drain loop pops chunks, advances each session's
  :class:`CausalIcgConditioner` (the live per-chunk view a device UI
  would show) and folds the chunk into a
  :class:`~repro.ingest.chunks.SessionAssembler`;
* when a session's trailer lands, the assembled recording is
  finalized — inline in the drain loop, or on the warm process pool —
  by the *offline* stage graph, the same code path as
  :func:`repro.core.executor.process_batch`, so the streaming result
  for a recording is bit-identical to the batch result for that
  recording.

The per-chunk conditioner is the vectorized form of the causal
:mod:`repro.rt` kernels: state (filter ``zi``, previous sample) is
carried across chunk boundaries, so its output is invariant to how the
session was chunked and matches a per-sample
:class:`~repro.rt.streaming.StreamingBiquadCascade` run — both to
numerical round-off, and both properties pinned by the ingest tests.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cache import FilterDesignCache, default_design_cache
from repro.core.config import PipelineConfig
from repro.core.executor import (
    _discard_persistent_pool,
    persistent_process_pool,
    plan_recording_job,
    process_recording_job,
    process_shm_job,
    recording_job_nbytes,
    resolve_shm_result,
)
from repro.core.pipeline import BeatToBeatPipeline, PipelineResult
from repro.core.shm import ShmArena
from repro.dsp import iir as _iir
from repro.errors import ConfigurationError
from repro.ingest.chunks import SessionAssembler
from repro.ingest.workqueue import BoundedWorkQueue, QueueStats
from repro.io.records import Recording

__all__ = ["CausalIcgConditioner", "FinalizeDispatcher",
           "SessionResult", "StreamingExecutor"]


class CausalIcgConditioner:
    """Causal, chunk-invariant ICG conditioning for live previews.

    The offline chain is zero-phase (``sosfiltfilt``) and needs the
    whole recording; a device streaming chunks cannot wait for it.
    This conditioner applies the causal counterpart — backward
    difference for ``-dZ/dt``, then the cached low-/high-pass designs
    through :func:`repro.dsp.iir.sosfilt` with carried state — one
    chunk at a time.  The filter state (``zi``) and the previous raw
    sample persist across calls, so feeding a signal in any chunking
    produces the same samples as feeding it whole — equal to within
    numerical round-off (~1e-13: the blocked scan's summation order
    shifts with chunk alignment) — and the output matches a
    per-sample :class:`~repro.rt.streaming.StreamingBiquadCascade`
    cascade at the same tolerance.
    """

    def __init__(self, fs: float,
                 config: Optional[PipelineConfig] = None,
                 cache: Optional[FilterDesignCache] = None) -> None:
        if fs <= 0:
            raise ConfigurationError("fs must be positive")
        config = config or PipelineConfig()
        cache = cache if cache is not None else default_design_cache()
        self.fs = float(fs)
        self._lowpass_sos = cache.icg_lowpass_sos(self.fs, config.icg)
        self._highpass_sos = cache.icg_highpass_sos(self.fs, config.icg)
        self._lowpass_zi = np.zeros((self._lowpass_sos.shape[0], 2))
        self._highpass_zi = (
            None if self._highpass_sos is None
            else np.zeros((self._highpass_sos.shape[0], 2)))
        self._previous: Optional[float] = None

    def process_chunk(self, z_chunk) -> np.ndarray:
        """Conditioned causal ICG samples for one impedance chunk."""
        z = np.asarray(z_chunk, dtype=float)
        previous = z[0] if self._previous is None else self._previous
        icg = -np.diff(z, prepend=previous) * self.fs
        self._previous = float(z[-1])
        icg, self._lowpass_zi = _iir.sosfilt(self._lowpass_sos, icg,
                                             zi=self._lowpass_zi)
        if self._highpass_sos is not None:
            icg, self._highpass_zi = _iir.sosfilt(
                self._highpass_sos, icg, zi=self._highpass_zi)
        return icg


@dataclass
class SessionResult:
    """Everything the streaming executor produced for one session."""

    session_id: str
    recording: Recording            #: the assembled session
    result: PipelineResult          #: offline stage-graph output
    n_chunks: int
    first_arrival_s: float
    last_arrival_s: float
    #: Concatenated causal per-chunk ICG preview (``None`` when the
    #: executor ran with ``preview=False``).
    preview_icg: Optional[np.ndarray] = None


class _InlineResult:
    """Future-alike for synchronously finalized sessions.

    With one finalize worker the drain loop finalizes in place (the
    queue's backpressure holds the producer meanwhile) and wraps the
    outcome in this resolved future.
    """

    def __init__(self, fn, *args) -> None:
        try:
            self._value, self._error = fn(*args), None
        except Exception as exc:          # re-raised at result()
            self._value, self._error = None, exc

    def result(self):
        """The finalize outcome, raising what the pipeline raised."""
        if self._error is not None:
            raise self._error
        return self._value


class FinalizeDispatcher:
    """The shared finalize path: one assembled session → one
    stage-graph result, identical whoever drives it.

    Both the :class:`StreamingExecutor` (batch-shaped ingest runs) and
    the serve daemon (:mod:`repro.serve`) finalize sessions through
    this object, so a session's result is bit-identical no matter
    which front-end consumed its chunks — the invariant the recovery
    and soak property tests rest on.

    One finalize worker finalizes inline, on a per-rate pipeline memo
    over the dispatcher's design ``cache``; more than one ships each
    recording through the shared-memory descriptor plane into the warm
    persistent process pool (degrading to the pickle plane when the
    host cannot grow shared memory) — the two shapes of
    :func:`repro.core.executor.process_batch`.
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 cache: Optional[FilterDesignCache] = None) -> None:
        self.config = config
        self.cache = cache if cache is not None else default_design_cache()
        self._pipelines: dict = {}

    def pool_context(self, n_workers: int):
        """The finalize pool for ``n_workers``: ``None`` (inline
        finalize) for one, else the warm persistent process pool, so
        back-to-back ingest runs reuse one worker fleet."""
        if n_workers == 1:
            return nullcontext(None)
        return persistent_process_pool(n_workers)

    def submit(self, pool, recording: Recording):
        """Submit one assembled session; returns ``(future, arena)``
        (``arena`` is ``None`` off the shared-memory path)."""
        if pool is None:
            return _InlineResult(
                self._pipeline(recording.fs).process_recording,
                recording), None
        # Zero-copy hand-off: the session's arrays land in a
        # per-session shared-memory arena and the worker receives
        # descriptors — the same data plane as process_batch.  If the
        # host cannot provide the arena (/dev/shm cap), this session
        # degrades to the pickle plane: slower, never wrong.
        try:
            arena = ShmArena(recording_job_nbytes(recording))
        except OSError:
            return pool.submit(process_recording_job, recording,
                               self.config), None
        try:
            job = plan_recording_job(recording, arena)
            return pool.submit(process_shm_job, job, self.config), arena
        except Exception:
            arena.release()
            raise

    def _pipeline(self, fs: float) -> BeatToBeatPipeline:
        fs = float(fs)
        pipeline = self._pipelines.get(fs)
        if pipeline is None:
            pipeline = BeatToBeatPipeline(fs, self.config,
                                          cache=self.cache)
            self._pipelines[fs] = pipeline
        return pipeline

    def resolve(self, session_id: str, future, arena,
                recording: Recording) -> PipelineResult:
        """Resolve one submitted finalize, releasing its arena.

        A worker dying mid-finalize (``BrokenProcessPool``) degrades
        to re-running the pure job in the parent — slower, never
        wrong — after dropping the broken pool so later fan-outs
        rebuild.  Pipeline exceptions propagate to the caller, which
        owns the retry/quarantine policy.
        """
        try:
            try:
                result = future.result()
                if arena is not None:
                    result = resolve_shm_result(result, arena)
            except BrokenProcessPool:
                # A worker died mid-finalize.  The job is a pure
                # function of the recording we still hold, so rerun it
                # in the parent — slower, never wrong — and drop the
                # broken pool so later fan-outs rebuild.
                _discard_persistent_pool(wait=False)
                warnings.warn(
                    f"finalize worker died for session "
                    f"{session_id!r}; re-running in the parent "
                    f"process", RuntimeWarning, stacklevel=2)
                result = process_recording_job(recording, self.config)
        finally:
            if arena is not None:
                arena.release()
        return result


class StreamingExecutor:
    """Consume a chunked session source through a bounded work queue.

    Parameters
    ----------
    config:
        Stage configuration shared by every session (paper defaults
        when omitted).
    n_workers:
        Finalize width.  ``1`` (default) finalizes each completed
        session inline in the drain loop, sharing the design
        ``cache``; more than one finalizes on the warm process pool
        (process-local caches) while further chunks stream in — the
        two shapes of :func:`repro.core.executor.process_batch`.
    max_chunks / max_bytes:
        Bounds of the ingest queue; the producer blocks when either is
        reached (backpressure), so peak buffered memory never exceeds
        the configured limit.
    preview:
        Whether to run the causal per-chunk conditioner as chunks land
        (the live view); disable to measure pure assemble+finalize
        throughput.
    cache:
        Filter-design cache for preview conditioners and inline
        finalization; the process-wide default when omitted.
    journal:
        A :class:`~repro.ingest.journal.ChunkJournal` to write every
        consumed chunk through *before* it is analysed — the
        durability step that lets a
        :class:`~repro.ingest.recovery.RecoveryManager` replay the run
        after a crash.  The executor does not close the journal; the
        caller owns its lifetime.
    allow_open:
        What a source closing with sessions still open (no trailer
        seen) means.  Without a journal the default is to raise —
        silently dropping a session would fake durability the system
        does not have.  With a journal attached the default flips to
        tolerate: the open sessions' chunks are durable on disk and a
        later recovery/resume completes them; their ids are reported
        in :attr:`last_open_sessions`.

    After :meth:`run`, :attr:`last_queue_stats` holds the queue's
    counters (peak depth/bytes, backpressure events) for capacity
    planning and :attr:`last_open_sessions` the ids left open (always
    empty when ``allow_open`` resolves to ``False``).
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 n_workers: int = 1,
                 max_chunks: Optional[int] = 64,
                 max_bytes: Optional[int] = None,
                 preview: bool = True,
                 cache: Optional[FilterDesignCache] = None,
                 journal=None,
                 allow_open: Optional[bool] = None) -> None:
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        self.config = config
        self.n_workers = int(n_workers)
        self._dispatcher = FinalizeDispatcher(config, cache)
        self.max_chunks = max_chunks
        self.max_bytes = max_bytes
        self.preview = bool(preview)
        self.cache = self._dispatcher.cache
        self.journal = journal
        self.allow_open = (journal is not None if allow_open is None
                           else bool(allow_open))
        self.last_queue_stats: Optional[QueueStats] = None
        self.last_open_sessions: tuple = ()

    # -- internals ---------------------------------------------------------

    def _produce(self, source, queue: BoundedWorkQueue,
                 errors: list) -> None:
        try:
            for chunk in source:
                queue.put(chunk)
        except BaseException as exc:      # propagate through run()
            errors.append(exc)
        finally:
            queue.close()

    # -- the drain loop ----------------------------------------------------

    def run(self, source) -> dict:
        """Ingest every chunk of ``source``; results per session.

        Returns ``{session_id: SessionResult}``.  Producer and
        pipeline exceptions propagate; sessions still open when the
        source closes (no trailer seen) raise, since silently dropping
        a session would fake durability the system does not have.
        """
        queue = BoundedWorkQueue(max_items=self.max_chunks,
                                 max_bytes=self.max_bytes)
        self.last_queue_stats = queue.stats
        errors: list = []
        producer = threading.Thread(
            target=self._produce, args=(source, queue, errors),
            name="ingest-producer", daemon=True)

        assembler = SessionAssembler()
        conditioners: dict = {}
        previews: dict = {}
        chunk_counts: dict = {}
        first_arrival: dict = {}
        futures: dict = {}

        pool_context = self._dispatcher.pool_context(self.n_workers)
        producer.start()
        try:
            with pool_context as pool:
                while True:
                    burst = queue.drain()
                    if not burst:
                        break
                    for chunk in burst:
                        sid = chunk.session_id
                        if self.journal is not None:
                            # Durability first: the chunk must be on
                            # disk before any analysis observes it, so
                            # a crash at any later point can replay it.
                            self.journal.append(chunk)
                        chunk_counts[sid] = chunk_counts.get(sid, 0) + 1
                        first_arrival.setdefault(sid, chunk.arrival_s)
                        if self.preview:
                            conditioner = conditioners.get(sid)
                            if conditioner is None:
                                conditioner = CausalIcgConditioner(
                                    chunk.fs, self.config, self.cache)
                                conditioners[sid] = conditioner
                            previews.setdefault(sid, []).append(
                                conditioner.process_chunk(
                                    chunk.signals["z"]))
                        recording = assembler.add(chunk)
                        if recording is not None:
                            conditioners.pop(sid, None)
                            future, arena = self._dispatcher.submit(
                                pool, recording)
                            futures[sid] = (future, arena, recording,
                                            chunk.arrival_s)
                results = {}
                for sid, (future, arena, recording,
                          last_s) in futures.items():
                    result = self._dispatcher.resolve(
                        sid, future, arena, recording)
                    results[sid] = SessionResult(
                        session_id=sid,
                        recording=recording,
                        result=result,
                        n_chunks=chunk_counts[sid],
                        first_arrival_s=first_arrival[sid],
                        last_arrival_s=last_s,
                        preview_icg=(np.concatenate(previews[sid])
                                     if self.preview else None),
                    )
        finally:
            # A drain-loop failure must not leave the producer blocked
            # on a full queue: closing wakes it (its pending put fails
            # into `errors`, superseded by the propagating exception).
            queue.close()
            producer.join()
            # Release any per-session arenas a failure left behind
            # (idempotent for the ones already resolved above).
            for entry in futures.values():
                if entry[1] is not None:
                    entry[1].release()
        if errors:
            raise errors[0]
        self.last_open_sessions = assembler.open_sessions
        if len(assembler) and not self.allow_open:
            raise ConfigurationError(
                f"source closed with incomplete sessions: "
                f"{list(assembler.open_sessions)}")
        return results
