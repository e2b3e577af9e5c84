"""The benchmark's three workloads.

Each workload builds all of its inputs from the seed (untimed), sets
the program up many times spread over the run, runs timed passes
through the program's public entry points for the requested number of
seconds, and checks every output bit for bit against a serial
``process_batch`` over the same recordings.  Every set-up and timed
pass is bracketed by host-speed calibration (:mod:`hostspeed`); the
end-to-end figures are medians of the calibrated per-step values.  With ``trace`` it
instead runs one untraced and one traced pass and reports the
per-layer numbers of :mod:`spans`.

Untimed passes observe the program only through return values and the
serve daemon's public ``crash_hook(stage, detail)`` callback.
"""

from __future__ import annotations

import math
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
from benchstats import median, tail
from hostspeed import HostSpeed, Steps
from spans import Instrumentation, Tracer, layer_metrics

#: Minimum set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 30
#: Minimum timed passes of a workload.
MIN_PASSES = 3
#: Wall seconds of one paced serve pass's schedule; the pass repeats
#: for the run, so its median spans the host's speed phases.
PACED_PASS_S = 4.0
#: ``process_cohort`` passes after each paced serve pass.
COHORT_PER_SERVE_PASS = 2
#: Time compression of the paced fleet's arrival schedule: a device
#: starts a session about every 10 s of fleet time (8 s measurement,
#: 1-3 s gap), so 16 devices offer about 16 * 37.5 / 10 = 60 sessions/s,
#: well below the knee of the one-CPU daemon (140-170 sessions/s).
PACED_COMPRESSION = 37.5
#: Mean fleet seconds per device round (session plus gap).
PACED_ROUND_S = 10.0
#: Tiles of the 90-recording base set in the batch cohort.
COHORT_TILES = 4
#: How long a paced pass may overrun its schedule before sessions
#: still missing are counted as failed.
PACED_GRACE_S = 30.0


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule."""


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


# -- shared helpers ----------------------------------------------------------

RESULT_FIELDS = ("r_peak_indices", "ecg_filtered", "icg", "pep_s",
                 "lvet_s", "z0_ohm", "hr_bpm")


def mismatched_fields(got, want) -> list:
    """Fields of a ``PipelineResult`` that differ bit for bit."""
    bad = []
    for name in RESULT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            if not np.array_equal(a, b):
                bad.append(name)
        elif a != b:
            bad.append(name)
    return bad


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stats_snapshot() -> dict:
    from repro.ingest.stats import ingest_stats
    return ingest_stats().as_dict()


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


class Workdir:
    """Numbered scratch directories under one root, removed on close.

    Paths stay relative to the working directory so the daemon's
    unix-socket path stays short wherever the checkout lives.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._n = 0
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)

    def fresh(self, label: str) -> Path:
        self._n += 1
        return self.root / f"{label}-{self._n:03d}"

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def warm_pipelines(cache, recordings_by_fs: dict) -> None:
    """Build one pipeline per rate on ``cache`` and run one recording
    through it (design cache and lazy kernel state filled)."""
    from repro.core.pipeline import BeatToBeatPipeline

    for fs, recording in recordings_by_fs.items():
        BeatToBeatPipeline(fs, cache=cache).process_recording(recording)


def boot_daemon(directory, cache) -> float:
    """Start a daemon on an empty journal, wait until it serves, stop
    it; returns the seconds from construction to serving."""
    from repro.serve.daemon import ServeDaemon

    start = time.perf_counter()
    daemon = ServeDaemon(directory, cache=cache)
    thread = threading.Thread(target=daemon.serve,
                              kwargs={"once": False}, daemon=True)
    thread.start()
    while daemon.status()["state"] != "serving":
        if not thread.is_alive():
            raise RuntimeError("daemon exited during boot")
        time.sleep(0.0005)
    booted = time.perf_counter() - start
    daemon.stop()
    thread.join(timeout=30.0)
    if thread.is_alive():
        raise RuntimeError("daemon did not stop")
    shutil.rmtree(directory, ignore_errors=True)
    return booted


class SetupTimer:
    """Set-ups spread over a run, one per :meth:`sample`.

    ``one_setup(cache)`` sets the program up on a fresh design cache
    and returns the seconds that took (tear-down excluded).  Each
    set-up is bracketed by calibration samples of ``speed`` and scaled
    to the reference host; ``setup_s`` is the median of those.
    """

    def __init__(self, one_setup, speed: HostSpeed) -> None:
        self.one_setup = one_setup
        self.speed = speed
        self.steps = Steps(speed, per_second=False)

    def sample(self) -> None:
        from repro.core.cache import FilterDesignCache

        self.steps.add(*self.speed.bracket(self.one_setup,
                                           FilterDesignCache()))

    def median(self) -> float:
        """The median set-up at the reference host speed, after
        topping up to :data:`SETUP_REPS` set-ups."""
        while len(self.steps) < SETUP_REPS:
            self.sample()
        return self.steps.median()


def timed(fn, *args) -> float:
    """Seconds one call of ``fn(*args)`` took."""
    return clocked(fn, *args)[1]


def clocked(fn, *args) -> tuple:
    """``(fn(*args), seconds the call took)``."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def reference(recordings, setups: SetupTimer) -> tuple:
    """Serial ``process_batch`` results, one recording at a time, and
    the records per second it managed; :data:`SETUP_REPS` set-ups of
    ``setups`` are sampled in between (untimed).

    A recording the pipeline rejects by contract (a ``ReproError`` such
    as "no physiologically valid beats") gets ``None``; workloads leave
    those inputs out, so no operation of a timed pass is expected to
    fail.
    """
    from repro.core import executor
    from repro.errors import ReproError

    results = []
    busy = 0.0
    every = max(1, len(recordings) // SETUP_REPS)
    for i, recording in enumerate(recordings):
        if i % every == 0:
            setups.sample()
        start = time.perf_counter()
        try:
            results.append(executor.process_batch([recording])[0])
        except ReproError:
            results.append(None)
        busy += time.perf_counter() - start
    return results, len(recordings) / busy


def keep_accepted(sids, recordings, refs, chunks, outcome: Outcome):
    """Drop the inputs :func:`reference` rejected, and their chunks;
    returns ``(sids, recordings, refs by sid, chunks)``."""
    kept = [i for i, ref in enumerate(refs) if ref is not None]
    outcome.detail["rejected_inputs"] = len(refs) - len(kept)
    sids = [sids[i] for i in kept]
    keep = set(sids)
    return (sids, [recordings[i] for i in kept],
            {sids[j]: refs[i] for j, i in enumerate(kept)},
            [c for c in chunks if c.session_id in keep])


def cohort_pass(recordings, refs, outcome: Outcome, keys,
                rates: Steps) -> set:
    """One timed ``process_cohort`` pass, its rate added to ``rates``
    and its results checked; returns the failing keys."""
    from repro.core import cohort

    (results, wall), span = rates.speed.bracket(
        clocked, cohort.process_cohort, recordings)
    rates.add(len(recordings) / wall, span)
    return check_all(results, refs, keys, outcome, "process_cohort")


def finish(out: Outcome, setups: SetupTimer, rates: Steps,
           cohort_rates: Steps) -> None:
    """The end-to-end metrics, with their raw figures in the detail."""
    out.metrics["setup_s"] = setups.median()
    out.metrics["rec_per_s"] = rates.median()
    out.metrics["cohort_rec_per_s"] = cohort_rates.median()
    speed = setups.speed
    out.detail["host_slowness"] = {"mean": speed.mean_slowness(),
                                   "samples": len(speed.samples)}
    out.detail["setup_s"] = setups.steps.detail()
    out.detail["pass_rec_per_s"] = rates.detail()
    out.detail["pass_cohort_rec_per_s"] = cohort_rates.detail()


def check_all(results, refs, keys, outcome: Outcome, where: str) -> set:
    """Compare ``results[i]`` with ``refs[i]``; record mismatches by
    name (``keys[i]``) and return the set of failing keys."""
    bad = set()
    for key, got, want in zip(keys, results, refs):
        fields = mismatched_fields(got, want)
        if fields:
            bad.add(key)
            outcome.mismatches.append(f"{where}:{key}:{','.join(fields)}")
    return bad


def latency_metrics(outcome: Outcome, prefix: str, samples_s) -> None:
    """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` (the supported tail,
    see :func:`benchstats.tail`) from seconds."""
    ms = [1000.0 * s for s in samples_s]
    value, pct, n = tail(ms, 99.0)
    outcome.metrics[f"{prefix}_p50_ms"] = median(ms)
    outcome.metrics[f"{prefix}_p99_ms"] = value
    outcome.detail[f"{prefix}_tail"] = {"percentile": pct, "n": n}


def blocking_latencies(outcome: Outcome, walls) -> None:
    """A blocking call acknowledges and answers at once, at its
    return: both latencies read the pass wall times."""
    latency_metrics(outcome, "result_latency", walls)
    latency_metrics(outcome, "ack_latency", walls)


@dataclass
class TracedPass:
    """One untraced then one traced call of the same pass."""

    instr: Instrumentation
    result: object           #: the traced call's return value
    plain_result: object     #: the untraced call's return value
    stats_delta: dict        #: ``ingest_stats()`` change, traced call
    wall: float
    plain_wall: float
    plain_cpu: float

    @property
    def overhead(self) -> float:
        return self.wall / self.plain_wall


def traced_pass(run_pass, outcome: Outcome) -> TracedPass:
    """Run ``run_pass`` untraced, then with every layer wrapped; the
    wrappers are removed before this returns and the tracer is handed
    to ``outcome.detail["tracer"]`` for writing out."""
    t0, c0 = time.perf_counter(), time.process_time()
    plain = run_pass()
    plain_wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    instr = Instrumentation(Tracer())
    before = _stats_snapshot()
    instr.install()
    try:
        t0 = time.perf_counter()
        result = run_pass()
        wall = time.perf_counter() - t0
    finally:
        instr.remove()
    outcome.detail["tracer"] = instr.tracer
    return TracedPass(instr, result, plain, _delta(before,
                      _stats_snapshot()), wall, plain_wall, cpu)


def _common_layers(layers: dict, *, records: int, cpu: float,
                   serial_rec_per_s: float, overhead: float,
                   failed_ratio: float) -> None:
    layers["process.cpu_s_per_rec"] = cpu / records if records else 0.0
    layers["baseline.serial_rec_per_s"] = serial_rec_per_s
    layers.setdefault("loadgen.lag_ms.p99", 0.0)
    layers.setdefault("loadgen.late_share", 0.0)
    layers.setdefault("serve.trailer_barrier_ms.p50", 0.0)
    layers.setdefault("recover.records", 0.0)
    layers.setdefault("recover.open_sessions", 0.0)
    layers["trace.overhead_ratio"] = overhead
    layers["failed_ratio"] = failed_ratio


# -- batch-cohort ------------------------------------------------------------

def cohort_inputs(seed: int) -> list:
    """The 90 base recordings: 5 subjects x {device, thoracic} x
    positions 1-3 x {8, 20, 30} s at 250 Hz, each with its own
    generator seeded from ``seed``."""
    from repro.synth import SynthesisConfig, default_cohort
    from repro.synth import synthesize_recording

    base = []
    for subject in default_cohort():
        for setup in ("device", "thoracic"):
            for position in (1, 2, 3):
                for length in (8.0, 20.0, 30.0):
                    rng = np.random.default_rng((seed, len(base)))
                    base.append(synthesize_recording(
                        subject, setup, position,
                        SynthesisConfig(duration_s=length), rng=rng))
    return base


def batch_cohort(seed: int, seconds: float, trace: bool,
                 work: Workdir) -> Outcome:
    from repro.core import cohort, executor

    base = cohort_inputs(seed)
    out = Outcome()
    speed = HostSpeed()
    setups = SetupTimer(
        lambda cache: timed(warm_pipelines, cache, {base[0].fs: base[0]}),
        speed)
    base_refs, serial_rps = reference(base, setups)
    kept, base, by_index, _ = keep_accepted(
        list(range(len(base))), base, base_refs, (), out)
    base_refs = [by_index[i] for i in kept]
    recordings = [base[i % len(base)]
                  for i in range(COHORT_TILES * len(base))]
    refs = [base_refs[i % len(base)] for i in range(len(recordings))]
    keys = [f"rec{i:04d}" for i in range(len(recordings))]
    out.attempted = len(recordings)
    check_all(cohort.process_cohort(base), base_refs, keys, out,
              "warm-cohort")

    if trace:
        def run_pass():
            t0 = time.perf_counter()
            batch = executor.process_batch(recordings)
            batch_wall = time.perf_counter() - t0
            return batch, cohort.process_cohort(recordings), batch_wall
        tp = traced_pass(run_pass, out)
        batch, coh, batch_wall = tp.result
        failed = (check_all(batch, refs, keys, out, "process_batch")
                  | check_all(coh, refs, keys, out, "process_cohort"))
        layers = layer_metrics(tp.instr, len(recordings), tp.stats_delta,
                               batch_wall)
        _common_layers(layers, records=2 * len(recordings),
                       cpu=tp.plain_cpu, serial_rec_per_s=serial_rps,
                       overhead=tp.overhead,
                       failed_ratio=len(failed) / len(recordings))
        out.failed = len(failed)
        out.metrics = layers
        blocking_latencies(out, [tp.plain_result[2]])
        return out

    batch_rates, cohort_rates = Steps(speed, True), Steps(speed, True)
    walls = []
    failed = set()
    start = time.perf_counter()
    while (len(batch_rates) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        (results, wall), span = speed.bracket(
            clocked, executor.process_batch, recordings)
        walls.append(wall)
        batch_rates.add(len(recordings) / wall, span)
        failed |= check_all(results, refs, keys, out, "process_batch")
        failed |= cohort_pass(recordings, refs, out, keys, cohort_rates)
        setups.sample()
    out.failed = len(failed)
    finish(out, setups, batch_rates, cohort_rates)
    blocking_latencies(out, walls)
    return out


# -- serve workloads ---------------------------------------------------------

def paced_config(seed: int, seconds: float, n_devices: int = 16):
    """16 devices x 8 s sessions in 2 s chunks at 250 Hz, enough
    rounds that the compressed schedule lasts about ``seconds``."""
    from repro.ingest.fleet import FleetConfig

    rounds = math.ceil(seconds * PACED_COMPRESSION / PACED_ROUND_S)
    return FleetConfig(
        n_devices=n_devices, duration_s=8.0, chunk_s=2.0,
        n_rounds=max(1, rounds), round_gap_s=2.0, seed=seed)


def recover_config(seed: int):
    """12 devices x 16 rounds of 8 s sessions in 0.25 s chunks at 250
    and 500 Hz; about 10 % drop out and never rejoin (left open)."""
    from repro.ingest.fleet import FleetConfig

    return FleetConfig(n_devices=12, duration_s=8.0, chunk_s=0.25,
                       fs_choices=(250.0, 500.0), n_rounds=16,
                       round_gap_s=2.0, dropout=0.1, rejoin=False,
                       seed=seed)


def fleet_inputs(config) -> tuple:
    """``(fleet, chunks in arrival order, session ids, recordings)``."""
    from repro.ingest.fleet import DeviceFleet

    fleet = DeviceFleet(config)
    chunks = list(fleet)
    sids = list(fleet.session_ids)
    recordings = [fleet.session_recording(sid) for sid in sids]
    return fleet, chunks, sids, recordings


def _serve_setup(work: Workdir, recordings):
    by_fs = {}
    for recording in recordings:
        by_fs.setdefault(recording.fs, recording)

    def one_setup(cache):
        return (timed(warm_pipelines, cache, by_fs)
                + boot_daemon(work.fresh("boot"), cache))
    return one_setup


class HookLog:
    """The daemon's ``crash_hook``: stamps ``journaled`` per chunk and
    ``finalized``/``submitted`` per session; sets :attr:`done` when
    ``expected`` sessions have finalized."""

    def __init__(self, expected: int = 0) -> None:
        self.journaled: dict = {}
        self.finalized: dict = {}
        self.submitted: dict = {}
        self.expected = expected
        self.done = threading.Event()

    def __call__(self, stage: str, detail: str) -> None:
        now = time.perf_counter()
        if stage == "journaled":
            self.journaled[detail] = now
        elif stage == "finalized":
            self.finalized[detail] = now
            if self.expected and len(self.finalized) >= self.expected:
                self.done.set()
        elif stage == "submitted":
            self.submitted[detail] = now


def _trailer_barrier_ms(hooks: HookLog, last_seq: dict) -> float:
    samples = [1000.0 * (hooks.submitted[sid]
                         - hooks.journaled[f"{sid}:{last_seq[sid]}"])
               for sid in hooks.submitted
               if f"{sid}:{last_seq.get(sid)}" in hooks.journaled]
    return median(samples) if samples else 0.0


def _check_sessions(results: dict, refs: dict, out: Outcome,
                    where: str) -> set:
    bad = set()
    for sid, session in results.items():
        fields = mismatched_fields(session.result, refs[sid])
        if fields:
            bad.add(sid)
            out.mismatches.append(f"{where}:{sid}:{','.join(fields)}")
    return bad


def serve_paced(seed: int, seconds: float, trace: bool,
                work: Workdir) -> Outcome:
    from repro.core import cohort
    from repro.serve.daemon import ServeDaemon

    _, chunks, sids, recordings = fleet_inputs(
        paced_config(seed, PACED_PASS_S))
    out = Outcome()
    speed = HostSpeed()
    setups = SetupTimer(_serve_setup(work, recordings), speed)
    ref_list, serial_rps = reference(recordings, setups)
    sids, recordings, refs, chunks = keep_accepted(
        sids, recordings, ref_list, chunks, out)
    ref_list = [refs[sid] for sid in sids]
    offsets = loadgen.schedule(chunks, PACED_COMPRESSION)
    last_seq = {c.session_id: c.seq for c in chunks if c.is_last}
    check_all(cohort.process_cohort(recordings), ref_list, sids, out,
              "warm-cohort")

    def run_pass():
        for _ in range(2):
            hooks = HookLog(expected=len(sids))
            source = loadgen.PacedSource(chunks, offsets)
            cpu0 = time.process_time()
            directory = work.fresh("paced")
            daemon = ServeDaemon(directory, crash_hook=hooks)
            errors = []

            def serve():
                try:
                    daemon.serve([source], once=False)
                except BaseException as exc:      # reported below
                    errors.append(exc)
            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            hooks.done.wait(timeout=offsets[-1] + PACED_GRACE_S)
            daemon.stop()
            thread.join(timeout=60.0)
            if thread.is_alive():
                raise RuntimeError("serve daemon did not stop")
            cpu = time.process_time() - cpu0
            # Unwritten journal pages go with the files instead of
            # being flushed during a later step.
            shutil.rmtree(directory, ignore_errors=True)
            if errors:
                raise errors[0]
            if source.lag.valid:
                return daemon, source, hooks, cpu
        raise InvalidRun(
            f"generator lag tail {1000 * source.lag.tail_s():.1f} ms "
            f"exceeds {1000 * loadgen.LAG_BOUND_S:.0f} ms twice")

    def latency_samples(daemon, source, hooks) -> tuple:
        return ([hooks.finalized[sid] - source.due[(sid, last_seq[sid])]
                 for sid in daemon.results],
                [hooks.journaled[f"{sid}:{seq}"] - due
                 for (sid, seq), due in source.due.items()
                 if f"{sid}:{seq}" in hooks.journaled])

    def failures(daemon) -> set:
        bad = _check_sessions(daemon.results, refs, out, "serve")
        return (set(sids) - set(daemon.results)) | bad

    if trace:
        tp = traced_pass(run_pass, out)
        daemon, source, hooks, _ = tp.result
        failed = failures(daemon)
        layers = layer_metrics(tp.instr, len(daemon.results),
                               tp.stats_delta)
        layers["loadgen.lag_ms.p99"] = 1000.0 * source.lag.tail_s()
        layers["loadgen.late_share"] = source.lag.late_share
        layers["serve.trailer_barrier_ms.p50"] = _trailer_barrier_ms(
            hooks, last_seq)
        _common_layers(layers, records=len(sids), cpu=tp.plain_cpu,
                       serial_rec_per_s=serial_rps,
                       overhead=tp.overhead,
                       failed_ratio=len(failed) / len(sids))
        out.attempted = len(sids)
        out.failed = len(failed)
        out.metrics = layers
        result_s, ack_s = latency_samples(*tp.plain_result[:3])
        latency_metrics(out, "result_latency", result_s)
        latency_metrics(out, "ack_latency", ack_s)
        return out

    # Passes here are reported as measured: a paced pass leaves the CPU
    # idle half the time, and calibration samples taken around it read
    # the host 0.85-1.3 while the passes' own rates held within 5 %
    # (README, "Host speed").
    rates = Steps(speed, True, scaled=False)
    cohort_rates = Steps(speed, True, scaled=False)
    result_s, ack_s, loadgen_detail = [], [], []
    start = time.perf_counter()
    while (len(rates) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        (daemon, source, hooks, cpu), span = speed.bracket(run_pass)
        failed = failures(daemon)
        # Below the knee the wall rate only echoes the offered rate;
        # the CPU the whole process spent serving the pass is the
        # daemon's cost.
        rates.add(len(daemon.results) / cpu, span)
        more_result, more_ack = latency_samples(daemon, source, hooks)
        result_s += more_result
        ack_s += more_ack
        done_at = [hooks.finalized[sid] for sid in daemon.results]
        loadgen_detail.append({
            "lag_ms_p99": 1000 * source.lag.tail_s(),
            "late_share": source.lag.late_share,
            "behind_share": source.behind / len(chunks),
            "wall_rec_per_s": (len(done_at) / (max(done_at) - source.t0)
                               if done_at else 0.0)})
        for _ in range(COHORT_PER_SERVE_PASS):
            failed |= cohort_pass(recordings, ref_list, out, sids,
                                  cohort_rates)
        out.attempted += len(sids)
        out.failed += len(failed)
        setups.sample()
    finish(out, setups, rates, cohort_rates)
    latency_metrics(out, "result_latency", result_s)
    latency_metrics(out, "ack_latency", ack_s)
    out.detail["loadgen"] = loadgen_detail
    return out


# -- recover-replay ----------------------------------------------------------

def recover_replay(seed: int, seconds: float, trace: bool,
                   work: Workdir) -> Outcome:
    from repro.core import cohort
    from repro.ingest.journal import ChunkJournal
    from repro.ingest.recovery import RecoveryManager

    fleet, chunks, sids, _ = fleet_inputs(recover_config(seed))
    dropped = set(fleet.dropped_session_ids)
    complete = [sid for sid in sids if sid not in dropped]
    recordings = [fleet.session_recording(sid) for sid in complete]
    by_fs = {}
    for recording in recordings:
        by_fs.setdefault(recording.fs, recording)

    out = Outcome()
    speed = HostSpeed()
    setups = SetupTimer(lambda cache: timed(warm_pipelines, cache, by_fs),
                        speed)
    ref_list, serial_rps = reference(recordings, setups)
    rejected = {sid for sid, ref in zip(complete, ref_list) if ref is None}
    complete, recordings, refs, _ = keep_accepted(
        complete, recordings, ref_list, (), out)
    ref_list = [refs[sid] for sid in complete]
    check_all(cohort.process_cohort(recordings), ref_list, complete, out,
              "warm-cohort")
    source = work.fresh("journal")
    with ChunkJournal(source) as journal:
        for chunk in chunks:
            if chunk.session_id not in rejected:
                journal.append(chunk)

    def run_pass():
        directory = work.fresh("recover")
        shutil.copytree(source, directory)
        t0 = time.perf_counter()
        outcome = RecoveryManager(directory).recover()
        wall = time.perf_counter() - t0
        shutil.rmtree(directory, ignore_errors=True)
        return outcome, wall

    def failures(outcome) -> set:
        bad = _check_sessions(outcome.results, refs, out, "recover")
        missing = set(complete) - set(outcome.results)
        unexpected_open = set(outcome.open_sessions) - dropped
        return bad | missing | unexpected_open

    if trace:
        tp = traced_pass(run_pass, out)
        outcome, wall = tp.result
        failed = failures(outcome)
        layers = layer_metrics(tp.instr, len(outcome.results),
                               tp.stats_delta)
        layers["recover.records"] = float(outcome.n_records)
        layers["recover.open_sessions"] = float(
            len(outcome.open_sessions))
        _common_layers(layers, records=len(outcome.results),
                       cpu=tp.plain_cpu, serial_rec_per_s=serial_rps,
                       overhead=wall / tp.plain_result[1],
                       failed_ratio=len(failed) / len(complete))
        out.attempted = len(complete)
        out.failed = len(failed)
        out.metrics = layers
        blocking_latencies(out, [tp.plain_result[1]])
        return out

    rates, cohort_rates = Steps(speed, True), Steps(speed, True)
    walls = []
    start = time.perf_counter()
    while (len(rates) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        (outcome, wall), span = speed.bracket(run_pass)
        failed = failures(outcome)
        rates.add(len(outcome.results) / wall, span)
        walls.append(wall)
        bad = cohort_pass(recordings, ref_list, out, complete,
                          cohort_rates)
        out.attempted += len(complete)
        out.failed += len(failed | bad)
        setups.sample()
    finish(out, setups, rates, cohort_rates)
    blocking_latencies(out, walls)
    out.detail["passes"] = len(rates)
    out.detail["records"] = outcome.n_records
    return out


WORKLOADS = {
    "batch-cohort": batch_cohort,
    "serve-paced": serve_paced,
    "recover-replay": recover_replay,
}
