"""Batch/cohort execution of the beat-to-beat pipeline.

The paper's evaluation is inherently a batch workload: five subjects
times three positions times four injection frequencies, plus thoracic
references.  :func:`process_batch` runs the stage graph over many
recordings, sharing one filter-design cache (so the cohort pays each
design exactly once) and optionally fanning work out over a pool of
workers.  Results are returned in input order and are bit-identical to
a serial ``process_recording`` loop — every stage is a pure function
of ``(signals, fs, config)``, so execution order cannot change a
single sample.

Two pool backends are available.  ``backend="thread"`` shares one
design cache between workers and costs nothing to start, but the
pure-python portions of the chain hold the GIL, so it mainly overlaps
the numpy-released sections.  ``backend="process"`` fans out over a
``ProcessPoolExecutor`` and buys real multi-core scaling.  The process
backend is organised as a small work-queue: the item list is split
into contiguous *job batches* (:func:`job_batches`), the shared
callable — typically a ``partial`` closing over the pipeline config —
is shipped **once per worker** through the pool initializer rather
than re-pickled with every job, and each batch returns its results
together with a snapshot of the worker's process-local cache counters.
:func:`last_ipc_stats` reports what one fan-out actually shipped
(checked by the executor tests), and
:func:`process_worker_cache_stats` exposes the per-worker design/DSP
cache rebuild counts that ``repro cache-stats --backend process``
renders.

:func:`parallel_map` is the underlying ordered fan-out helper; the
study runner uses it to parallelise synthesis + analysis jobs that do
not reduce to a plain pipeline call.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import os
import pickle
import sys
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.cache import (
    FilterDesignCache,
    cache_statistics,
    default_design_cache,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import BeatToBeatPipeline
from repro.core.shm import (
    RecordingDescriptor,
    ShmArena,
    ShmDescriptor,
    aligned_nbytes,
    attach_view,
    detach,
    publish_recording,
    recording_from_descriptor,
    recording_nbytes,
)
from repro.errors import ConfigurationError, PoisonJobError

__all__ = ["process_batch", "parallel_map", "resolve_n_jobs",
           "resolve_backend", "will_parallelize", "BACKENDS",
           "BATCH_BACKENDS", "job_batches", "IpcStats", "last_ipc_stats",
           "process_worker_cache_stats", "process_recording_job",
           "ShmJob", "process_shm_job", "resolve_shm_result",
           "RESULT_ARRAY_FIELDS", "persistent_pool_stats",
           "shutdown_persistent_pool", "persistent_process_pool",
           "PoisonJob", "raise_if_poison", "POISON_ATTEMPTS",
           "RETRY_BACKOFF_S", "RETRY_BACKOFF_CAP_S"]

#: Supported fan-out backends.
BACKENDS = ("thread", "process")

#: Backends :func:`process_batch` accepts: the fan-out pair plus the
#: single-process cohort-batched kernel tier (:mod:`repro.core.cohort`).
BATCH_BACKENDS = BACKENDS + ("cohort",)

#: Contiguous batches handed to each process worker per fan-out —
#: more than one per worker for mild load balancing, few enough that
#: per-submission IPC stays negligible.
BATCHES_PER_WORKER = 2


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None`` or ``-1`` mean "one worker per CPU"; anything below one is
    rejected.
    """
    if n_jobs is None or n_jobs == -1:
        return os.cpu_count() or 1
    if not isinstance(n_jobs, int) or n_jobs < 1:
        raise ConfigurationError(
            f"n_jobs must be a positive integer, -1 or None, "
            f"got {n_jobs!r}")
    return n_jobs


def resolve_backend(backend: Optional[str]) -> str:
    """Normalise a backend request (``None`` means ``"thread"``)."""
    if backend is None:
        return "thread"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def will_parallelize(n_jobs: Optional[int], n_items: int) -> bool:
    """Whether a fan-out call actually spawns a pool.

    The single definition of the serial-fallback predicate —
    :func:`parallel_map`, :func:`process_batch` and the study runner
    all consult it, so "will this fork" can never drift between them.
    """
    return resolve_n_jobs(n_jobs) > 1 and n_items > 1


def job_batches(items: Sequence, n_batches: int) -> list:
    """Split ``items`` into ``<= n_batches`` contiguous, order-
    preserving batches of near-equal size (never empty).

    Concatenating the batches reproduces ``items`` exactly — the
    property that keeps batched fan-out bit-identical to the serial
    loop.  The shard partitioner in :mod:`repro.experiments.sharding`
    is the cross-machine sibling of this single-machine splitter.
    """
    items = list(items)
    if n_batches < 1:
        raise ConfigurationError("n_batches must be >= 1")
    n_batches = min(n_batches, len(items))
    if n_batches == 0:
        return []
    size, remainder = divmod(len(items), n_batches)
    batches, start = [], 0
    for index in range(n_batches):
        stop = start + size + (1 if index < remainder else 0)
        batches.append(items[start:stop])
        start = stop
    return batches


# -- process-backend work queue ------------------------------------------

#: Worker-side state: the shared callable memoized by content token.
#: With the persistent pool, workers outlive fan-outs — the memo is
#: what lets a warm worker skip re-unpickling a callable it already
#: holds.
_WORKER_SHARED: dict = {}

#: Process-local pipeline memo for the process backend: one pipeline
#: per ``(fs, config)`` per worker, each backed by the worker's own
#: process-wide design cache.
_WORKER_PIPELINES: dict = {}


def _install_worker_state(token: str, shared: bytes) -> Callable:
    """Adopt a submission header in a worker; returns the callable.

    The callable travels pre-pickled so the parent can meter exactly
    what crosses the boundary; a warm worker that already holds this
    ``token`` skips the unpickle.
    """
    if _WORKER_SHARED.get("token") != token:
        _WORKER_SHARED["fn"] = pickle.loads(shared)
        _WORKER_SHARED["token"] = token
    return _WORKER_SHARED["fn"]


def _run_shared_batch(header: tuple, payload: bytes) -> tuple:
    """Worker body: apply the shared callable to one job batch.

    The batch arrives pre-pickled — the parent serialises each batch
    exactly once, both to meter the IPC honestly and to ship it (the
    same scheme as the header's shared callable).  Returns the batch
    results plus a snapshot of this worker's process-local cache
    counters — the statistics are otherwise invisible to the parent
    process.
    """
    fn = _install_worker_state(*header)
    results = [fn(item) for item in pickle.loads(payload)]
    return results, (os.getpid(), cache_statistics())


@dataclass(frozen=True)
class IpcStats:
    """What one process-backend fan-out shipped, and over which plane.

    ``shared_fn_bytes`` counts the shared callable's pickle, and
    ``shared_copies`` how many of those pickles actually crossed the
    pipe: one per *submission* under the persistent-pool header
    protocol (each batch carries the callable so any warm worker can
    serve it; workers memoize by content token), one per worker under
    the legacy initializer scheme (``shared_copies=0`` means "per
    worker" for backward compatibility).  Either way the pre-refactor
    cost was ``n_items * shared_fn_bytes``.  ``payload_bytes`` is the
    pickled size of every job batch actually submitted — under the
    shared-memory data plane these are *descriptors*, not arrays.
    ``data_plane_bytes`` is the raw array payload that travelled
    through shared memory instead of the pipe, and ``n_descriptors``
    how many array handles replaced it; both are zero for fan-outs
    that never touch the data plane (non-recording items).
    """

    n_items: int
    n_submissions: int
    n_workers: int
    shared_fn_bytes: int
    payload_bytes: int
    data_plane_bytes: int = 0
    n_descriptors: int = 0
    shared_copies: int = 0

    @property
    def shipped_bytes(self) -> int:
        """Pickled bytes over the pipe: shared-callable copies + job
        batches (array payloads excluded — they ride the data
        plane)."""
        copies = self.shared_copies or self.n_workers
        return copies * self.shared_fn_bytes + self.payload_bytes

    @property
    def legacy_bytes(self) -> int:
        """What the per-job pickle scheme would have shipped for the
        same work: the shared callable re-pickled with every item plus
        every array payload through the pipe."""
        return (self.n_items * self.shared_fn_bytes + self.payload_bytes
                + self.data_plane_bytes)

    @property
    def descriptor_collapse(self) -> float:
        """How many raw array bytes each pickled payload byte stands
        in for (>= 1 means the data plane is carrying the weight)."""
        return self.data_plane_bytes / max(self.payload_bytes, 1)


_LAST_IPC_STATS: list = [None]
_LAST_WORKER_CACHE_STATS: dict = {}


def last_ipc_stats() -> Optional[IpcStats]:
    """IPC accounting of the most recent process-backend fan-out in
    this process (``None`` before any has run)."""
    return _LAST_IPC_STATS[0]


def process_worker_cache_stats() -> dict:
    """Per-worker cache counters of the most recent process-backend
    fan-out: ``{pid: {"designs": {...}, "kernels": {...}}}``.

    Process workers keep process-local caches the parent cannot see;
    each job batch returns a snapshot, and the latest snapshot per
    worker wins.  This is what ``repro cache-stats --backend process``
    reports (the per-worker ``misses`` are the rebuild counts).
    """
    return dict(_LAST_WORKER_CACHE_STATS)


# -- the warm persistent pool --------------------------------------------

#: Environment toggle for the persistent pool (default on): set to
#: ``0``/``false``/``off`` to recreate a pool per fan-out (the
#: pre-warm-pool behaviour, kept for debugging fork-state issues).
PERSISTENT_POOL_ENV = "REPRO_PERSISTENT_POOL"

#: The process-wide warm pool: ``[pool, n_workers]`` or ``None``.
#: Reused across fan-outs so workers keep their design caches,
#: pipeline memos and shared-callable memo warm — the second fan-out
#: of a session pays zero fork/spawn latency.
_PERSISTENT_POOL: list = [None]
_POOL_COUNTERS = {"created": 0, "reused": 0}


def _persistent_pool_enabled() -> bool:
    value = os.environ.get(PERSISTENT_POOL_ENV, "1").strip().lower()
    return value not in ("0", "false", "no", "off")


def _acquire_persistent_pool(n_workers: int) -> ProcessPoolExecutor:
    """The warm pool at exactly ``n_workers``, creating or resizing.

    Reuse requires a width match: handing a wider warm pool to a
    narrower request would change which workers see which jobs (and
    the reported worker counts), so a mismatch tears the pool down
    and builds the requested width.
    """
    entry = _PERSISTENT_POOL[0]
    if entry is not None and entry[1] == n_workers:
        _POOL_COUNTERS["reused"] += 1
        return entry[0]
    if entry is not None:
        entry[0].shutdown(wait=True)
        _PERSISTENT_POOL[0] = None
    pool = ProcessPoolExecutor(max_workers=n_workers)
    _PERSISTENT_POOL[0] = [pool, n_workers]
    _POOL_COUNTERS["created"] += 1
    return pool


def _discard_persistent_pool(wait: bool = True) -> None:
    entry = _PERSISTENT_POOL[0]
    if entry is not None:
        _PERSISTENT_POOL[0] = None
        entry[0].shutdown(wait=wait)


def shutdown_persistent_pool() -> None:
    """Tear down the warm pool (idempotent).

    Registered at interpreter exit; also the explicit lifecycle hook
    for hosts that must bound worker lifetimes themselves.  The next
    process fan-out simply builds a fresh pool.
    """
    _discard_persistent_pool(wait=True)


atexit.register(shutdown_persistent_pool)


def persistent_pool_stats() -> dict:
    """Lifecycle counters of the warm process pool.

    ``created``/``reused`` count fan-outs that built a fresh pool vs
    re-entered the warm one (process-wide, monotonic); ``n_workers``
    and ``pids`` describe the pool currently alive (``None``/empty
    when none is).  ``repro cache-stats --backend process`` renders
    these next to the per-worker cache counters.
    """
    entry = _PERSISTENT_POOL[0]
    pids: list = []
    n_workers = None
    if entry is not None:
        n_workers = entry[1]
        pids = sorted(getattr(entry[0], "_processes", {}) or {})
    return {"enabled": _persistent_pool_enabled(),
            "created": _POOL_COUNTERS["created"],
            "reused": _POOL_COUNTERS["reused"],
            "n_workers": n_workers,
            "pids": pids}


@contextlib.contextmanager
def persistent_process_pool(n_workers: int):
    """A process pool for direct submissions, warm when enabled.

    Yields the pool itself (``submit(fn, *args)``) — the streaming
    executor's finalize fan-out uses this so back-to-back ingest runs
    reuse one worker fleet.  Exiting the context does *not* tear the
    warm pool down; with the pool disabled via
    :data:`PERSISTENT_POOL_ENV`, an ephemeral pool is created and shut
    down on exit instead.
    """
    if not _persistent_pool_enabled():
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            yield pool
        return
    pool = _acquire_persistent_pool(n_workers)
    try:
        yield pool
    except BrokenProcessPool:
        _discard_persistent_pool(wait=False)
        raise


def _submit_shared_batches(pool, header: tuple, payloads: list) -> list:
    """Submit every pre-pickled batch; returns worker outputs in
    submission order."""
    futures = [pool.submit(_run_shared_batch, header, payload)
               for payload in payloads]
    return [future.result() for future in futures]


# -- crash tolerance ------------------------------------------------------

#: A job is quarantined as poison after this many failed attempts —
#: an attempt fails when the pool broke while the job was in flight.
#: The first failure is collateral (a whole broken fan-out cannot say
#: which job killed the worker); the second is an individually
#: attributed worker death on the rebuilt pool.
POISON_ATTEMPTS = 2

#: Capped exponential backoff between retry submissions after a pool
#: break — gives a transiently starved host (OOM killer sweeps) room
#: to recover before the retry.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 1.0


@dataclass(frozen=True)
class PoisonJob:
    """Structured stand-in for a job that repeatedly killed its worker.

    A poisoned job occupies its input-order slot in the fan-out's
    result list instead of raising, so one pathological job can never
    take down the surviving jobs' results.  Callers that need the
    old throwing behaviour resolve entries through
    :func:`raise_if_poison`.
    """

    #: Input-order position of the job in its fan-out.
    index: int
    #: Failed attempts when the job was quarantined.
    attempts: int
    #: Human-readable account of the worker deaths.
    reason: str


def raise_if_poison(result):
    """Pass a fan-out result through, raising
    :class:`~repro.errors.PoisonJobError` when it is a
    :class:`PoisonJob` — the opt-in bridge back to exception-style
    handling for callers that cannot use a partial batch."""
    if isinstance(result, PoisonJob):
        raise PoisonJobError(
            f"job {result.index} quarantined as poison after "
            f"{result.attempts} failed attempts: {result.reason}")
    return result


def _run_batches_crash_tolerant(fn: Callable, items: list,
                                batches: list, header: tuple,
                                payloads: list, n_workers: int) -> tuple:
    """Run every batch on the warm pool, surviving worker death.

    Returns ``(item_results, stats)`` where ``item_results`` maps the
    global item index to its result (a :class:`PoisonJob` for
    quarantined jobs) and ``stats`` is the list of per-worker cache
    snapshots collected along the way.

    The recovery ladder, in order:

    1. **Fast path** — all batches on the warm pool; no break, no cost.
    2. **Rebuild once** — a break marks one collateral failed attempt
       against every job whose batch had not finished, then the jobs
       are probed one at a time on a fresh pool (sequentially, so a
       second death is attributed to exactly one job), with capped
       exponential backoff between submissions after a break.
    3. **Poison + serial degrade** — a job individually implicated in
       a worker death has :data:`POISON_ATTEMPTS` failures: it is
       quarantined as a :class:`PoisonJob` (never run in-parent — it
       provably kills its host process).  The pool has now broken
       twice, so the remaining unprobed jobs run serially in the
       parent with a loud :class:`RuntimeWarning` instead of betting
       on a third pool.
    """
    offsets = []
    start = 0
    for batch in batches:
        offsets.append(start)
        start += len(batch)
    item_results: dict = {}
    stats: list = []
    pending: list = []
    pool = _acquire_persistent_pool(n_workers)
    broke = False
    futures = []
    try:
        for payload in payloads:
            futures.append(pool.submit(_run_shared_batch, header,
                                       payload))
    except BrokenProcessPool:
        # A pool already broken (a worker killed between fan-outs)
        # refuses the submission itself; every unsubmitted batch is
        # pending.
        broke = True
    for position, future in enumerate(futures):
        try:
            batch_results, worker_stats = future.result()
        except BrokenProcessPool:
            broke = True
            pending.extend(range(offsets[position],
                                 offsets[position]
                                 + len(batches[position])))
            continue
        for shift, result in enumerate(batch_results):
            item_results[offsets[position] + shift] = result
        stats.append(worker_stats)
    for position in range(len(futures), len(batches)):
        pending.extend(range(offsets[position],
                             offsets[position] + len(batches[position])))
    if not broke:
        return item_results, stats

    # Rebuild once; probe the survivors one at a time so a second
    # worker death names its killer.
    _discard_persistent_pool(wait=False)
    pool = _acquire_persistent_pool(n_workers)
    backoff = RETRY_BACKOFF_S
    serial = False
    remaining = list(pending)
    while remaining:
        index = remaining.pop(0)
        if not serial:
            try:
                batch_results, worker_stats = pool.submit(
                    _run_shared_batch, header,
                    pickle.dumps([items[index]])).result()
                item_results[index] = batch_results[0]
                stats.append(worker_stats)
                continue
            except BrokenProcessPool:
                item_results[index] = PoisonJob(
                    index=index, attempts=POISON_ATTEMPTS,
                    reason="worker died running this job on a "
                           "freshly rebuilt pool (and once before "
                           "in the batched fan-out)")
                _discard_persistent_pool(wait=False)
                serial = True
                if remaining:
                    warnings.warn(
                        f"process pool broke twice in one fan-out; "
                        f"running the remaining {len(remaining)} "
                        f"job(s) serially in the parent process",
                        RuntimeWarning, stacklevel=3)
                time.sleep(min(backoff, RETRY_BACKOFF_CAP_S))
                backoff *= 2
                continue
        item_results[index] = fn(items[index])
    return item_results, stats


def _parallel_map_process(fn: Callable, items: list, n_jobs: int,
                          data_plane_bytes: int = 0,
                          n_descriptors: int = 0) -> list:
    """Batched process fan-out over the warm persistent pool; records
    IPC, worker-cache and pool-lifecycle stats.

    Every submission carries a ``(token, shared_pickle)`` header: the
    shared callable is pickled once parent-side, shipped with each
    batch (so any warm worker can serve any batch), and memoized
    worker-side by content token — a warm worker that ran the same
    callable last fan-out never re-unpickles it.

    Worker death never crashes the fan-out: a broken pool is rebuilt
    once and the unfinished jobs retried, a job that keeps killing
    workers comes back as a :class:`PoisonJob` in its result slot,
    and a second pool break degrades the remainder to serial
    execution (see :func:`_run_batches_crash_tolerant`).  With the
    persistent pool disabled the fan-out is single-shot, as before.

    ``data_plane_bytes``/``n_descriptors`` are accounting hints from a
    shared-memory caller: the array payload that bypassed the pipe.
    """
    n_workers = min(n_jobs, len(items))
    batches = job_batches(items, n_workers * BATCHES_PER_WORKER)
    shared = pickle.dumps(fn)
    header = (hashlib.sha1(shared).hexdigest(), shared)
    payloads = [pickle.dumps(batch) for batch in batches]
    payload_bytes = sum(len(payload) for payload in payloads)
    _LAST_WORKER_CACHE_STATS.clear()
    if _persistent_pool_enabled():
        item_results, all_stats = _run_batches_crash_tolerant(
            fn, items, batches, header, payloads, n_workers)
        results = [item_results[index] for index in range(len(items))]
        for pid, stats in all_stats:
            _LAST_WORKER_CACHE_STATS[pid] = stats
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outputs = _submit_shared_batches(pool, header, payloads)
        results = []
        for batch_results, (pid, stats) in outputs:
            results.extend(batch_results)
            _LAST_WORKER_CACHE_STATS[pid] = stats
    _LAST_IPC_STATS[0] = IpcStats(
        n_items=len(items), n_submissions=len(batches),
        n_workers=n_workers, shared_fn_bytes=len(shared),
        payload_bytes=payload_bytes,
        data_plane_bytes=int(data_plane_bytes),
        n_descriptors=int(n_descriptors),
        shared_copies=len(batches))
    return results


def parallel_map(fn: Callable, items: Sequence,
                 n_jobs: Optional[int] = 1,
                 backend: Optional[str] = "thread") -> list:
    """``[fn(item) for item in items]``, optionally over a worker pool.

    Output order always matches input order; exceptions propagate to
    the caller exactly as in the serial loop.  ``backend="process"``
    fans out over a ``ProcessPoolExecutor`` — ``fn``, the items and
    the results must then be picklable (module-level functions or
    :func:`functools.partial` over one, not lambdas or closures).  The
    process backend ships ``fn`` once per worker via the pool
    initializer and submits contiguous job batches, so a shared config
    closed over by a ``partial`` is pickled ``n_workers`` times per
    fan-out instead of once per item (see :func:`last_ipc_stats`).
    """
    items = list(items)
    n_jobs = resolve_n_jobs(n_jobs)
    backend = resolve_backend(backend)
    if not will_parallelize(n_jobs, len(items)):
        return [fn(item) for item in items]
    if backend == "process":
        return _parallel_map_process(fn, items, n_jobs)
    with ThreadPoolExecutor(max_workers=min(n_jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def process_recording_job(recording,
                          config: Optional[PipelineConfig] = None):
    """Run the full chain on one recording with a process-local
    pipeline memo (picklable — the worker body of the process backend,
    also reused by the streaming executor's finalize step)."""
    key = (float(recording.fs), config)
    pipeline = _WORKER_PIPELINES.get(key)
    if pipeline is None:
        pipeline = BeatToBeatPipeline(float(recording.fs), config)
        _WORKER_PIPELINES[key] = pipeline
    return pipeline.process_recording(recording)


# -- the shared-memory data plane ----------------------------------------

#: ``PipelineResult`` fields that are recording-length arrays — the
#: result plane pre-reserves one float64 slot per field per recording.
RESULT_ARRAY_FIELDS = ("ecg_filtered", "icg")


@dataclass(frozen=True)
class ShmJob:
    """One process-backend job by reference: the recording's
    descriptors plus pre-reserved result slots.  Pickles to a few
    hundred bytes however long the recording — this is what crosses
    the pipe instead of the arrays."""

    recording: RecordingDescriptor
    slots: dict


def swap_result_fields(result, slots: dict):
    """Write a dataclass result's array fields into their pre-reserved
    slots and return the result with those fields swapped for
    descriptors — the single definition of the result-plane hand-off
    (batch, streaming and study workers all go through it).

    A field whose array does not match its slot's shape/dtype (a
    custom stage graph changing output lengths) stays inline —
    correctness never depends on the fast path.
    """
    swapped = {}
    for name, descriptor in slots.items():
        value = getattr(result, name, None)
        if (isinstance(value, np.ndarray)
                and tuple(value.shape) == tuple(descriptor.shape)
                and value.dtype.str == descriptor.dtype):
            attach_view(descriptor, writable=True)[...] = value
            swapped[name] = descriptor
    return replace(result, **swapped) if swapped else result


def recording_job_nbytes(recording) -> int:
    """Arena bytes one recording job needs: the published inputs plus
    one float64 result slot per :data:`RESULT_ARRAY_FIELDS` entry."""
    return recording_nbytes(recording) + (
        len(RESULT_ARRAY_FIELDS) * aligned_nbytes(
            recording.n_samples * np.dtype(np.float64).itemsize))


def plan_recording_job(recording, arena: ShmArena) -> ShmJob:
    """Publish one recording and reserve its result slots — the single
    definition of a data-plane job's layout."""
    return ShmJob(
        recording=publish_recording(recording, arena),
        slots={name: arena.reserve((recording.n_samples,), np.float64)
               for name in RESULT_ARRAY_FIELDS})


def process_shm_job(job: ShmJob,
                    config: Optional[PipelineConfig] = None):
    """Worker body of the zero-copy process backend.

    Materialises the recording as shared-memory views, runs the
    pipeline, and hands the result back through
    :func:`swap_result_fields` (descriptors out, arrays in shared
    memory).

    The *entire* body — attachment included — runs under the
    ``finally`` detach: a job that raises anywhere (a partially
    attached recording, a pipeline failure) still leaves the worker
    with zero lingering ``/dev/shm`` mappings, pinned by the shm leak
    test.
    """
    recording = None
    try:
        recording = recording_from_descriptor(job.recording)
        result = process_recording_job(recording, config)
        return swap_result_fields(result, job.slots)
    finally:
        # Drop this job's mappings: long-lived pools (the streaming
        # finalizer runs one arena per *session*) must not accumulate
        # a mapping per processed job — re-attaching within a fan-out
        # is one cheap mmap, an unreclaimable segment per session is
        # an unbounded leak.  The recording and its views are dead by
        # now; detach() refuses (and defers to GC) if any were not.
        del recording
        # A propagating exception's traceback pins the unwound frames
        # — and with them the shared-memory views those frames held —
        # which would turn detach() into the deferred-GC path.  Clear
        # the dead frames so the mappings really close here.
        exc = sys.exc_info()[1]
        if exc is not None:
            traceback.clear_frames(exc.__traceback__)
        blocks = {d.block for d in job.recording.signals.values()}
        blocks |= {d.block for d in job.recording.annotations.values()}
        blocks |= {d.block for d in job.slots.values()}
        for block in blocks:
            detach(block)


def resolve_shm_result(result, arena: ShmArena):
    """Parent-side counterpart of :func:`process_shm_job`: swap every
    :class:`~repro.core.shm.ShmDescriptor` field of a dataclass result
    back to a zero-copy (read-only) view of the arena."""
    swapped = {
        f.name: arena.view(getattr(result, f.name))
        for f in fields(result)
        if isinstance(getattr(result, f.name), ShmDescriptor)
    }
    return replace(result, **swapped) if swapped else result


def _shm_job_plan(recordings) -> tuple:
    """Arena + descriptor jobs for a recording batch.

    Returns ``(arena, jobs, n_descriptors)``; the arena holds every
    input array plus one reserved result slot per
    :data:`RESULT_ARRAY_FIELDS` entry per recording.
    """
    arena = ShmArena(sum(recording_job_nbytes(r) for r in recordings))
    jobs = []
    n_descriptors = 0
    try:
        for recording in recordings:
            job = plan_recording_job(recording, arena)
            jobs.append(job)
            n_descriptors += (len(job.recording.signals)
                              + len(job.recording.annotations)
                              + len(job.slots))
    except Exception:
        arena.release()
        raise
    return arena, jobs, n_descriptors


def _process_batch_shm(recordings, config, n_jobs: int) -> list:
    """Zero-copy process fan-out: descriptors over the pipe,
    recordings and results through one shared-memory arena.

    When the host cannot provide the arena (e.g. a container's
    ``/dev/shm`` cap), the fan-out degrades to the pickle plane — the
    pre-PR data path — instead of failing: slower, never wrong.
    """
    try:
        arena, jobs, n_descriptors = _shm_job_plan(recordings)
    except OSError:
        return _parallel_map_process(
            partial(process_recording_job, config=config),
            recordings, n_jobs)
    try:
        results = _parallel_map_process(
            partial(process_shm_job, config=config), jobs, n_jobs,
            data_plane_bytes=arena.used, n_descriptors=n_descriptors)
        return [resolve_shm_result(result, arena) for result in results]
    finally:
        arena.release()


def process_batch(recordings, config: Optional[PipelineConfig] = None,
                  n_jobs: Optional[int] = 1,
                  cache: Optional[FilterDesignCache] = None,
                  backend: Optional[str] = "thread") -> list:
    """Run the full pipeline over many recordings.

    Parameters
    ----------
    recordings:
        Iterable of :class:`~repro.io.records.Recording` objects with
        ``ecg`` and ``z`` channels; sampling rates may differ between
        recordings (one pipeline is built per distinct rate).
    config:
        Shared stage configuration (paper defaults when omitted).
    n_jobs:
        Worker count; ``1`` runs serially, ``-1``/``None`` uses one
        per CPU.
    cache:
        Filter-design cache shared by every worker; the process-wide
        default when omitted.  Only meaningful for the thread backend
        — process workers cannot share a lock-protected cache and use
        their own process-local default instead.
    backend:
        ``"thread"`` (default), ``"process"`` or ``"cohort"``.
        Threads share one design cache but serialise the GIL-bound
        stages; processes scale with cores.  The process backend runs
        the zero-copy data plane: recordings are published into one
        shared-memory arena, jobs ship ``(block, shape, dtype,
        offset)`` descriptors (the shared callable travels with each
        batch and is memoized per worker), workers write their
        recording-length result arrays into pre-reserved slots, and
        the parent returns results whose arrays are read-only views
        of the arena — see :mod:`repro.core.shm` and
        :func:`last_ipc_stats` for the descriptor-vs-bytes
        accounting.  Process fan-outs run on the warm persistent pool
        (see :func:`persistent_pool_stats`), so consecutive batches
        reuse one worker fleet.  ``"cohort"`` runs the single-process
        cohort-batched kernel tier instead
        (:func:`repro.core.cohort.process_cohort`): recordings are
        grouped and stacked so the hot DSP chain executes as
        leading-axis kernels; ``n_jobs`` is ignored there.

    Returns the list of :class:`~repro.core.pipeline.PipelineResult`
    in input order, identical to ``[pipeline.process_recording(r) for r
    in recordings]``.
    """
    recordings = list(recordings)
    if backend == "cohort":
        from repro.core.cohort import process_cohort
        return process_cohort(recordings, config, cache=cache)
    backend = resolve_backend(backend)
    if backend == "process" and will_parallelize(n_jobs, len(recordings)):
        return _process_batch_shm(recordings, config,
                                  resolve_n_jobs(n_jobs))
    if cache is None:
        cache = default_design_cache()
    # Build pipelines up front (serially) so workers share ready-made,
    # cache-backed instances instead of racing to construct them.
    pipelines: dict = {}
    for recording in recordings:
        fs = float(recording.fs)
        if fs not in pipelines:
            pipelines[fs] = BeatToBeatPipeline(fs, config, cache=cache)
    return parallel_map(
        lambda recording: pipelines[float(recording.fs)]
        .process_recording(recording),
        recordings, n_jobs=n_jobs)
