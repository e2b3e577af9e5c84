"""Span tracing around the program's public layer boundaries.

The traced run installs wrappers — from this file, never from the
program — around the public functions of each layer (stages, cohort
kernels, work queue, journal, assembler, finalize dispatcher,
recovery), records one span per call and removes every wrapper when
the run ends.  A span holds its name, start, end, the span that was
open on the same thread when it began (its parent) and a trace id
(the session id or recording index it worked for, when known).
Spans stay in memory until :meth:`Tracer.dump`.

Self time is a span's duration minus the part of it that its child
spans cover (children are clipped to the parent and overlaps between
children counted once), see :func:`self_times`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

STAGE_NAMES = ("ecg_condition", "r_peaks", "icg_condition",
               "point_detection", "hemodynamics")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: Optional[str]


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``{span_id: self seconds}``: duration minus the union of the
    span's children, each child clipped to the parent's interval."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        inner = [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.span_id, ())]
        out[span.span_id] = max(0.0, (span.end - span.start)
                                - covered(inner))
    return out


class Tracer:
    """In-memory span recorder with a per-thread open-span stack."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, trace_id: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(next(self._ids), name, self.clock(), 0.0,
                    parent.span_id if parent is not None else None,
                    trace_id)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def in_span(self, prefix: str) -> bool:
        """Whether a span whose name starts with ``prefix`` is open on
        this thread."""
        return any(s.name.startswith(prefix) for s in self._stack())

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent,
                    "trace": s.trace_id}) + "\n")


class Patches:
    """Replace attributes and put every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _trace_id_of(recording) -> Optional[str]:
    meta = getattr(recording, "meta", None) or {}
    sid = meta.get("session_id")
    return str(sid) if sid is not None else None


class Instrumentation:
    """The wrappers of one traced run and the counts they collect.

    :meth:`install` patches the layers' public functions, :meth:`remove`
    restores them.  Besides spans it keeps the per-call facts a span
    cannot hold: queue item hand-off times, blocked puts, finalize
    submit/compute/resolve times per recording, scanned journal bytes
    and point-detection beat yields.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches = Patches()
        self.queue_put_at: dict = {}
        self.queue_waits: list = []
        self.queue_blocked_s = 0.0
        self.queues: list = []
        self.drain_calls = 0
        self.scan_bytes = 0
        self.beats_ok = 0
        self.beats_failed = 0
        self.cohort_batched = 0
        self.cohort_planned = 0
        self.submit_at: dict = {}
        self.compute: dict = {}     # id(recording) -> (start, end)
        self.pool_waits: list = []
        self.reap_lags: list = []
        self.compute_s: list = []
        self.submits = 0
        self.resolved = 0

    # -- generic wrapping --------------------------------------------------

    def _span_call(self, fn, name: str):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return wrapper

    def _stage_name(self, stage: str) -> str:
        layer = "cohort" if self.tracer.in_span("cohort.") else "stages"
        return f"{layer}.{stage}"

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        from repro.core import cohort, stages
        from repro.core.pipeline import BeatToBeatPipeline
        from repro.ecg.pan_tompkins import PanTompkinsDetector
        from repro.ingest import journal, recovery, streaming
        from repro.ingest.chunks import SessionAssembler
        from repro.ingest.workqueue import BoundedWorkQueue

        p = self.patches
        for cls in (stages.EcgConditionStage, stages.RPeakStage,
                    stages.IcgConditionStage, stages.PointDetectionStage,
                    stages.HemodynamicsStage):
            p.set(cls, "run", self._wrap_stage(cls.run, cls.name))

        p.set(cohort, "process_cohort", self._span_call(
            cohort.process_cohort, "cohort.process_cohort"))
        p.set(cohort, "plan_cohort", self._wrap_plan(cohort.plan_cohort))
        for attr, stage in (("preprocess_ecg_batch", "ecg_condition"),
                            ("icg_from_impedance_batch", "icg_condition"),
                            ("detect_all_points_batched",
                             "point_detection")):
            p.set(cohort, attr, self._span_call(
                getattr(cohort, attr), f"cohort.{stage}"))
        p.set(PanTompkinsDetector, "detect_batch", self._span_call(
            PanTompkinsDetector.detect_batch, "cohort.r_peaks"))

        p.set(BoundedWorkQueue, "put", self._wrap_put(BoundedWorkQueue.put))
        p.set(BoundedWorkQueue, "drain",
              self._wrap_drain(BoundedWorkQueue.drain))

        p.set(journal.ChunkJournal, "append", self._span_call(
            journal.ChunkJournal.append, "journal.append"))
        p.set(journal.ChunkJournal, "flush", self._span_call(
            journal.ChunkJournal.flush, "journal.flush"))
        scan = self._wrap_scan(journal.scan_journal)
        p.set(journal, "scan_journal", scan)
        p.set(recovery, "scan_journal", scan)

        p.set(SessionAssembler, "add", self._span_call(
            SessionAssembler.add, "chunks.assemble"))

        p.set(streaming.FinalizeDispatcher, "submit",
              self._wrap_submit(streaming.FinalizeDispatcher.submit))
        p.set(streaming.FinalizeDispatcher, "resolve",
              self._wrap_resolve(streaming.FinalizeDispatcher.resolve))
        p.set(BeatToBeatPipeline, "process_recording",
              self._wrap_process(BeatToBeatPipeline.process_recording))

        p.set(recovery.RecoveryManager, "recover", self._span_call(
            recovery.RecoveryManager.recover, "recover.recover"))
        p.set(streaming.StreamingExecutor, "run", self._span_call(
            streaming.StreamingExecutor.run, "recover.replay"))

    def remove(self) -> None:
        self.patches.undo()

    # -- layer wrappers ----------------------------------------------------

    def _wrap_stage(self, run, stage: str):
        tracer = self.tracer
        count = stage == "point_detection"

        @functools.wraps(run)
        def wrapper(stage_self, ctx):
            name = self._stage_name(stage)
            span = tracer.begin(name)
            try:
                out = run(stage_self, ctx)
            finally:
                tracer.end(span)
            if count and name.startswith("stages."):
                self.beats_ok += len(out.points or ())
                self.beats_failed += len(out.failures or ())
            return out
        return wrapper

    def _wrap_plan(self, plan_cohort):
        tracer = self.tracer

        @functools.wraps(plan_cohort)
        def wrapper(recordings, *args, **kwargs):
            span = tracer.begin("cohort.plan")
            try:
                plan = plan_cohort(recordings, *args, **kwargs)
            finally:
                tracer.end(span)
            self.cohort_batched += plan.n_batched
            self.cohort_planned += plan.n_batched + plan.n_per_recording
            return plan
        return wrapper

    def _wrap_put(self, put):
        tracer = self.tracer
        clock = tracer.clock

        @functools.wraps(put)
        def wrapper(queue, item):
            if queue not in self.queues:
                self.queues.append(queue)
            blocked = queue.stats.blocked_puts
            span = tracer.begin("queue.put")
            try:
                put(queue, item)
            finally:
                tracer.end(span)
            if queue.stats.blocked_puts != blocked:
                self.queue_blocked_s += span.end - span.start
            self.queue_put_at[id(item)] = clock()
        return wrapper

    def _wrap_drain(self, drain):
        tracer = self.tracer
        clock = tracer.clock

        @functools.wraps(drain)
        def wrapper(queue, *args, **kwargs):
            span = tracer.begin("queue.drain")
            try:
                items = drain(queue, *args, **kwargs)
            finally:
                tracer.end(span)
            self.drain_calls += 1
            now = clock()
            for item in items:
                put_at = self.queue_put_at.pop(id(item), None)
                if put_at is not None:
                    self.queue_waits.append(now - put_at)
            return items
        return wrapper

    def _wrap_scan(self, scan_journal):
        tracer = self.tracer

        @functools.wraps(scan_journal)
        def wrapper(directory, *args, **kwargs):
            self.scan_bytes += sum(
                path.stat().st_size
                for path in Path(directory).glob("segment-*.log"))
            span = tracer.begin("journal.scan")
            try:
                return scan_journal(directory, *args, **kwargs)
            finally:
                tracer.end(span)
        return wrapper

    def _wrap_submit(self, submit):
        tracer = self.tracer

        @functools.wraps(submit)
        def wrapper(dispatcher, pool, recording):
            self.submits += 1
            self.submit_at[id(recording)] = tracer.clock()
            span = tracer.begin("finalize.submit",
                                _trace_id_of(recording))
            try:
                return submit(dispatcher, pool, recording)
            finally:
                tracer.end(span)
        return wrapper

    def _wrap_process(self, process_recording):
        tracer = self.tracer

        @functools.wraps(process_recording)
        def wrapper(pipeline, recording):
            key = id(recording)
            submitted = self.submit_at.get(key)
            span = tracer.begin("pipeline.process_recording",
                                _trace_id_of(recording))
            try:
                return process_recording(pipeline, recording)
            finally:
                tracer.end(span)
                if submitted is not None:
                    self.pool_waits.append(span.start - submitted)
                    self.compute_s.append(span.end - span.start)
                    self.compute[key] = (span.start, span.end)
        return wrapper

    def _wrap_resolve(self, resolve):
        tracer = self.tracer

        @functools.wraps(resolve)
        def wrapper(dispatcher, session_id, future, arena, recording):
            start = tracer.clock()
            span = tracer.begin("finalize.resolve", str(session_id))
            try:
                result = resolve(dispatcher, session_id, future, arena,
                                 recording)
            finally:
                tracer.end(span)
            computed = self.compute.pop(id(recording), None)
            if computed is not None:
                self.reap_lags.append(max(0.0, start - computed[1]))
            self.submit_at.pop(id(recording), None)
            self.resolved += 1
            return result
        return wrapper


# -- per-layer metrics -------------------------------------------------------

def _ms(seconds) -> list:
    return [1000.0 * s for s in seconds]


def _p(samples, p: float, scale: float = 1.0) -> float:
    from benchstats import percentile, tail

    if not samples:
        return 0.0
    if p == 50.0:
        return scale * percentile(samples, 50.0)
    return scale * tail(samples, p)[0]


def layer_metrics(instr: Instrumentation, records: int,
                  stats_delta: dict, wall_s: float = 0.0) -> dict:
    """The per-layer numbers one traced pass yields.

    ``records`` is the number of recordings or sessions the pass
    finalized (the per-record denominator) and ``stats_delta`` the
    change of the program's ``ingest_stats()`` counters over the pass.
    ``wall_s``, given only for a blocking serial batch call, is that
    call's wall time: the stages' self times should cover most of it,
    and the rest is reported as ``stages.uncovered_ms_per_rec``.
    Layers the workload does not run report 0.
    """
    tracer = instr.tracer
    spans = tracer.spans
    own = self_times(spans)
    per_rec = 1000.0 / records if records else 0.0

    def self_ms_per_rec(name: str) -> float:
        return per_rec * sum(own[s.span_id] for s in spans
                             if s.name == name)

    def durations(name: str) -> list:
        return [s.end - s.start for s in spans if s.name == name]

    out = {}
    stage_sum = 0.0
    for stage in STAGE_NAMES:
        value = self_ms_per_rec(f"stages.{stage}")
        stage_sum += value
        out[f"stages.{stage}.self_ms_per_rec"] = value
    beats = instr.beats_ok + instr.beats_failed
    out["stages.point_detection.beat_yield"] = (
        instr.beats_ok / beats if beats else 0.0)
    # Only meaningful where the stages run serially on the caller's
    # thread for the whole of ``wall_s`` (a blocking batch call).
    out["stages.uncovered_ms_per_rec"] = (
        per_rec * wall_s - stage_sum if wall_s else 0.0)

    out["cohort.plan.self_ms"] = 1000.0 * sum(
        own[s.span_id] for s in spans if s.name == "cohort.plan")
    cohort_recs = instr.cohort_planned
    for stage in STAGE_NAMES:
        total = sum(own[s.span_id] for s in spans
                    if s.name == f"cohort.{stage}")
        out[f"cohort.{stage}.self_ms_per_rec"] = (
            1000.0 * total / cohort_recs if cohort_recs else 0.0)
    out["cohort.batched_share"] = (
        instr.cohort_batched / cohort_recs if cohort_recs else 0.0)

    out["queue.wait_ms.p50"] = _p(instr.queue_waits, 50.0, 1000.0)
    out["queue.wait_ms.p99"] = _p(instr.queue_waits, 99.0, 1000.0)
    out["queue.put_blocked_s"] = instr.queue_blocked_s
    out["queue.blocked_puts"] = float(sum(
        q.stats.blocked_puts for q in instr.queues))
    out["queue.peak_depth"] = float(max(
        (q.stats.peak_depth for q in instr.queues), default=0))
    out["queue.drain_calls_per_rec"] = (
        instr.drain_calls / records if records else 0.0)

    appends = durations("journal.append")
    out["journal.append_us.p50"] = _p(appends, 50.0, 1e6)
    out["journal.append_us.p99"] = _p(appends, 99.0, 1e6)
    out["journal.append.busy_s"] = sum(appends)
    out["journal.flush_ms.p50"] = _p(durations("journal.flush"), 50.0,
                                     1000.0)
    out["journal.bytes_written"] = float(
        stats_delta.get("journal_bytes_written", 0))
    out["journal.records_written"] = float(
        stats_delta.get("journal_records", 0))
    scan_s = sum(durations("journal.scan"))
    out["journal.scan_s"] = scan_s
    out["journal.scan_mb_per_s"] = (
        instr.scan_bytes / 1e6 / scan_s if scan_s else 0.0)

    assemble = durations("chunks.assemble")
    out["assemble_us.p50"] = _p(assemble, 50.0, 1e6)
    out["assemble.busy_s"] = sum(assemble)

    out["finalize.pool_wait_ms.p50"] = _p(instr.pool_waits, 50.0, 1000.0)
    out["finalize.pool_wait_ms.p99"] = _p(instr.pool_waits, 99.0, 1000.0)
    out["finalize.compute_ms.p50"] = _p(instr.compute_s, 50.0, 1000.0)
    out["finalize.compute_ms.p99"] = _p(instr.compute_s, 99.0, 1000.0)
    out["finalize.reap_lag_ms.p50"] = _p(instr.reap_lags, 50.0, 1000.0)
    out["finalize.reap_lag_ms.p99"] = _p(instr.reap_lags, 99.0, 1000.0)
    out["finalize.attempts_per_result"] = (
        instr.submits / instr.resolved if instr.resolved else 0.0)

    out["serve.sheds"] = float(stats_delta.get("serve_sheds", 0))
    out["serve.quarantined"] = float(
        stats_delta.get("serve_sessions_quarantined", 0))
    out["serve.degradations"] = float(
        stats_delta.get("serve_degradations", 0))
    out["serve.retries"] = float(stats_delta.get("serve_retries", 0))

    out["recover.replay_s"] = sum(durations("recover.replay"))
    return out
