"""Perf-regression harness: throughput trajectory points and gating.

Measures, for a synthetic cohort, recordings/sec of

* the *filtering kernel layer* of one recording (every SOS/FIR
  application the chain performs) with the scalar reference kernels
  of ``tests/oracles`` vs the vectorized ones — the headline speedup of the vectorized
  DSP layer;
* the *end-to-end pipeline* under the full-scalar chain (reference
  sosfilt + reference per-beat point detection) vs the full-vectorized
  one (blocked SOS scan + beat-batched landmark kernels);
* the *batch executor* serially and over the process pool — the
  process figures ride the shared-memory data plane, whose
  descriptor-vs-bytes IPC accounting lands in the summary
  (``batch.ipc``) and the rendered table;
* the *streaming ingest path*: an 8-device simulated fleet through
  the bounded work queue and the streaming executor, against the
  serial batch over the same recordings (the streaming layer's
  acceptance figure — it must sustain at least serial throughput
  while the queue stays inside its backpressure bound);
* the *cohort-batched tier*: ``process_cohort`` vs per-recording
  dispatch at 10^2 and 10^3 recordings (quick) plus 10^4 (full) —
  the scaling curve of the leading-axis kernel tier.  Two absolute
  floors gate it: ``speedup_1000 >= 2`` (the tier's acceptance bar
  against serial dispatch on the same host) and
  ``curve_ratio >= 0.8`` (rec/s must not *decrease* with cohort
  size beyond noise — a collapsing curve means slab batching
  stopped amortising).

The whole quick run is additionally held to a wall-clock budget
(``--max-seconds``, default ``QUICK_BUDGET_S`` in quick mode): a CI
bench that silently grows unboundedly is itself a perf regression,
so blowing the budget fails the job loudly.

Two entry points:

* ``python benchmarks/perf_regression.py [--quick] --output out.json``
  measures and writes a summary (``--write-baseline`` additionally
  refreshes the committed trajectory file, e.g. ``BENCH_PR3.json``);
* ``... --baseline BENCH_PR3.json [--previous prev.json]`` compares
  the fresh measurement against a reference point and exits non-zero
  when any gated recordings/sec figure regressed more than
  ``--tolerance`` (default 30 %) — the CI perf job.  When
  ``--previous`` names a readable artifact (the prior successful run
  on the *same runner class*, restored from the CI cache), the gate
  checks it *in addition to* the committed cross-machine
  ``--baseline``: the former makes the comparison apples-to-apples on
  the same hardware, the latter remains the absolute floor so
  repeated sub-tolerance regressions cannot ratchet the reference
  down unchecked.

The pytest bench ``bench_batch_throughput.py`` imports the measurement
helpers from here so both views can never drift apart.

Timing estimators: full mode keeps best-of-N (a noise floor on
dedicated hardware); quick mode — the CI gate on contended 1-2 vCPU
runners — first runs a :func:`calibration_spin` (bring the governor/
BLAS/caches to steady state) and then estimates with
:func:`timed_seconds`, a median-of-odd-N that a single 2x-contended
sample cannot move at all (unit-tested in
``tests/test_perf_estimator.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:     # standalone invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:             # the tests.oracles baselines
    sys.path.insert(0, str(REPO_ROOT))

from repro.core import (                                   # noqa: E402
    BeatToBeatPipeline,
    FilterDesignCache,
    PipelineConfig,
    process_batch,
    process_cohort,
    shutdown_persistent_pool,
)
from repro.core.executor import last_ipc_stats             # noqa: E402
from repro.dsp import fir as _fir                          # noqa: E402
from repro.dsp import iir as _iir                          # noqa: E402
from repro.icg.preprocessing import icg_from_impedance     # noqa: E402
from repro.ingest import (                                 # noqa: E402
    DeviceFleet,
    FleetConfig,
    StreamingExecutor,
)
from repro.synth import (                                  # noqa: E402
    SynthesisConfig,
    default_cohort,
    synthesize_recording,
)
from tests.oracles import (                                # noqa: E402
    per_recording,
    reference_pipeline,
    scalar_sosfilt,
)

#: Keys (dotted paths into the summary) gated by the regression check.
GATED_METRICS = (
    "kernels.vectorized_rec_per_s",
    "pipeline.vectorized_rec_per_s",
    "batch.process_rec_per_s",
    "streaming.rec_per_s",
    "cohort.rec_per_s_1000",
)

#: Absolute floors: dotted path -> ``(minimum, multi_cpu_only)``,
#: checked against the fresh summary itself — no baseline involved, so
#: a regression can never ratchet past them.
#:
#: ``process_scaling`` is the shared-memory backend's acceptance bar:
#: the PR 3 process backend ran at 0.46x of serial because every job
#: round-tripped pickled float64 arrays, and that kind of IPC
#: regression must never merge silently again.  A process pool can
#: only beat serial given more than one CPU, so that floor carries
#: ``multi_cpu_only=True`` (``floor_violations`` skips it on
#: single-core runners, where any pool is pure overhead by
#: construction; the value is still recorded for the trajectory).
#:
#: The cohort floors hold on *any* host — the tier's win comes from
#: amortising python-level dispatch into leading-axis kernels, not
#: from extra cores: ``speedup_1000`` is the tier's acceptance bar
#: (>= 2x over per-recording dispatch at 10^3 recordings) and
#: ``curve_ratio`` asserts the scaling curve does not decrease from
#: 10^2 to 10^3 beyond a noise allowance.
GATED_FLOORS = {
    "batch.process_scaling": (1.0, True),
    "cohort.speedup_1000": (2.0, False),
    "cohort.curve_ratio": (0.8, False),
    # The storage lifecycle's disk bound: after journal-gc of the
    # 8-device 3-round fleet, the journal may hold at most
    # STORAGE_DISK_BOUND x the bytes of its still-live sessions.
    # The metric is (bound x live_bytes) / bytes_after, so the floor
    # reads like the others: <= 1.0 means the bound was exceeded.
    "storage.disk_bound": (1.0, False),
    # The durable ingest plane's acceptance bar: with fsync on, plain
    # chunks through group commit and the iovec codec must journal
    # >= 1.5x faster than through strict per-record writes and the
    # materializing bytes codec.  The win needs the group writer's
    # fsync to overlap the producer, so like process_scaling it only
    # holds with more than one CPU.  The group+bytes column next to it
    # is recorded ungated, to attribute the win between the factors.
    "ingest.zero_copy": (1.5, True),
}

DEFAULT_TOLERANCE = 0.30

#: Default wall-clock budget for the quick (CI) bench, seconds.  The
#: quick gate exists to run on every PR; if it creeps past this, the
#: bench itself has regressed and the job fails loudly (override with
#: ``--max-seconds``).
QUICK_BUDGET_S = 90.0

#: Minimum seconds of serial work behind the process_scaling figure —
#: the cohort is replicated until a fan-out amortizes pool start-up.
SCALING_BATCH_MIN_S = 0.75

#: The streaming acceptance fleet: 8 concurrent devices; full mode
#: streams the 10-minute fleet (8 x 75 s of signal), quick mode a
#: shorter one for CI.
STREAM_DEVICES = 8
STREAM_DURATION_FULL_S = 75.0
STREAM_DURATION_QUICK_S = 12.0


def cohort_recordings(quick: bool = False):
    """The bench cohort: device + thoracic per subject.

    Full mode uses all five subjects at 20 s; quick mode (CI) three
    subjects at 12 s.  (Quick recordings were 8 s through PR 4; with
    the post-filter half now beat-batched, an 8 s probe measured
    mostly per-recording constants rather than per-beat throughput —
    12 s keeps CI fast while sitting on the same scaling curve as the
    full-mode 20 s sessions.)
    """
    subjects = default_cohort()
    if quick:
        subjects = subjects[:3]
        duration = 12.0
    else:
        duration = 20.0
    config = SynthesisConfig(duration_s=duration)
    recordings = [
        synthesize_recording(subject, setup, 1, config)
        for subject in subjects
        for setup in ("device", "thoracic")
    ]
    return recordings, duration


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock seconds over ``repeats`` runs (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def median_of(samples) -> float:
    """Median of an *odd* number of timing samples.

    Odd N makes the median an actual order statistic (no averaging of
    the middle pair), so a single wildly contended sample — the
    1-2 vCPU CI runner's signature failure mode — cannot move the
    estimate at all: up to (N-1)/2 outliers are discarded outright.
    Best-of-N, by contrast, needs only one *fast* fluke to flatter the
    baseline and one slow run to fail the gate.
    """
    samples = sorted(samples)
    if not samples or len(samples) % 2 == 0:
        raise ValueError(
            f"median_of needs an odd number of samples, got "
            f"{len(samples)}")
    return samples[len(samples) // 2]


def timed_seconds(fn, repeats: int = 5,
                  clock=time.perf_counter) -> float:
    """Median-of-odd-N wall-clock seconds of ``fn()``.

    Even ``repeats`` are rounded up to the next odd count (the
    estimator requires a true middle sample).  ``clock`` is injectable
    so the outlier-tolerance contract is unit-testable without real
    timers.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if repeats % 2 == 0:
        repeats += 1
    samples = []
    for _ in range(repeats):
        start = clock()
        fn()
        samples.append(clock() - start)
    return median_of(samples)


def calibration_spin(min_s: float = 0.15) -> int:
    """Burn ``min_s`` of CPU on vectorized busywork before sampling.

    Cold CI runners start measurements with the CPU governor parked,
    BLAS threads unspawned and caches cold — the first timing samples
    then read slow through no fault of the code.  A fixed spin brings
    the host to its steady state before the first sample; returns the
    number of spin iterations (so a caller can assert work happened).
    """
    deadline = time.perf_counter() + min_s
    x = np.full(4096, 1.0)
    spins = 0
    while time.perf_counter() < deadline:
        x = np.sqrt(x * x + 1e-9)
        spins += 1
    return spins


def filter_workload(recording, cache: FilterDesignCache,
                    config: PipelineConfig):
    """All filter applications one recording triggers, as a thunk.

    This is the kernel layer in isolation: the ICG conditioning chain
    (zero-phase low-/high-pass Butterworth), the zero-phase ECG FIR,
    the Pan-Tompkins band-pass and the MWI convolution — with designs
    pre-warmed so only *application* cost is measured.
    """
    fs = float(recording.fs)
    ecg = recording.channel("ecg")
    z = recording.channel("z")
    taps = cache.ecg_fir_taps(fs, config.ecg)
    lowpass = cache.icg_lowpass_sos(fs, config.icg)
    highpass = cache.icg_highpass_sos(fs, config.icg)
    qrs_sos = cache.pan_tompkins_sos(fs, config.pan_tompkins)
    mwi = cache.mwi_kernel(fs, config.pan_tompkins)

    def run():
        icg_from_impedance(z, fs, config.icg, lowpass_sos=lowpass,
                           highpass_sos=highpass)
        bandpassed = _fir.filtfilt_fir(taps, ecg)
        qrs = _iir.sosfilt(qrs_sos, bandpassed)
        _fir.apply_fir(mwi, qrs ** 2)

    return run


def measure_streaming(quick: bool = False,
                      n_devices: int = STREAM_DEVICES) -> dict:
    """Streaming-ingest throughput: the N-device fleet vs the serial
    batch over the same chunk stream.

    Full mode streams 10 minutes of simulated fleet recording
    (8 devices x 75 s); quick mode shrinks the sessions for CI.
    Synthesis is memoized in the fleet, so every path measures pure
    ingest + analysis throughput.  Two serial baselines are reported:

    * ``serial_ingest_rec_per_s`` — the architecture-equivalent
      alternative: drain the same chunk stream, assemble sessions,
      then ``process_batch(n_jobs=1)`` (a batch service consuming the
      device wire format pays assembly too).  The headline
      ``ratio_vs_serial`` gates on this one: >= 1 means the
      work-queue architecture costs nothing at equal deliverables.
    * ``serial_batch_rec_per_s`` — plain ``process_batch`` over
      pre-materialized recordings (no chunk transport at all), with
      ``ratio_vs_batch`` alongside; on multi-core hosts the overlap
      of finalize workers with the producer pushes this past 1 as
      well, on a single core it bounds the transport overhead.

    ``preview_rec_per_s`` adds the live causal per-chunk conditioning
    view — extra work the batch path does not offer.  The queue
    counters record peak depth/bytes and how often the producer hit
    backpressure (``put`` blocks at the bound, so the peak can never
    exceed it; ``blocked_puts`` shows the bound actually engaging).
    Sessions finalize inline in the drain loop (``n_workers=1``, the
    executor's default and the configuration of the committed
    ``BENCH_PR8.json`` baseline).
    """
    # The streaming/serial delta is ~1 %; garbage left over from the
    # kernel/batch sections must not tilt the comparison.
    import gc
    gc.collect()
    if quick:
        calibration_spin()
    timer = timed_seconds if quick else _best_of
    duration = STREAM_DURATION_QUICK_S if quick else STREAM_DURATION_FULL_S
    fleet = DeviceFleet(FleetConfig(n_devices=n_devices,
                                    duration_s=duration,
                                    chunk_s=4.0, seed=2016))
    recordings = [fleet.synthesize(device) for device in fleet.devices]
    cache = FilterDesignCache()
    serial_batch_s = timer(
        lambda: process_batch(recordings, n_jobs=1, cache=cache),
        repeats=3)
    # Streaming vs serial-ingest differ by low single-digit percent;
    # a deeper best-of floor keeps container noise out of the ratio.
    stream_repeats = 5

    def serial_ingest():
        from repro.ingest import SessionAssembler

        assembler = SessionAssembler()
        assembled = []
        for chunk in fleet:
            done = assembler.add(chunk)
            if done is not None:
                assembled.append(done)
        return process_batch(assembled, n_jobs=1, cache=cache)

    max_chunks = 64
    # Headline figure: the deliverable-equivalent configuration (both
    # paths turn the chunk stream into per-session PipelineResults),
    # so the ratio isolates the queue architecture's cost/benefit.
    # The two sides are measured interleaved, pairwise, so slow drift
    # (thermals, container neighbours) cancels out of the ratio
    # instead of penalising whichever side runs later.
    executor = StreamingExecutor(max_chunks=max_chunks, cache=cache,
                                 preview=False)
    serial_times, stream_times = [], []
    for _ in range(stream_repeats):
        start = time.perf_counter()
        serial_ingest()
        serial_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        executor.run(fleet)
        stream_times.append(time.perf_counter() - start)
    # Quick mode takes the median of the interleaved samples (one
    # contended repeat cannot tilt either side); full mode keeps the
    # best-of noise floor.
    if quick:
        serial_ingest_s = median_of(serial_times)
        stream_s = median_of(stream_times)
    else:
        serial_ingest_s = min(serial_times)
        stream_s = min(stream_times)
    stats = executor.last_queue_stats.as_dict()
    # The live per-chunk causal view is extra work the batch path
    # simply does not offer; its throughput is reported alongside.
    with_preview = StreamingExecutor(max_chunks=max_chunks,
                                     cache=cache, preview=True)
    preview_s = timer(lambda: with_preview.run(fleet), repeats=2)
    return {
        "n_devices": n_devices,
        "duration_s_each": duration,
        "total_recording_s": fleet.total_recording_s,
        "n_workers": executor.n_workers,
        "max_chunks": max_chunks,
        "rec_per_s": n_devices / stream_s,
        "preview_rec_per_s": n_devices / preview_s,
        "serial_ingest_rec_per_s": n_devices / serial_ingest_s,
        "serial_batch_rec_per_s": n_devices / serial_batch_s,
        "ratio_vs_serial": serial_ingest_s / stream_s,
        "ratio_vs_batch": serial_batch_s / stream_s,
        "queue": stats,
        # blocked_puts > 0 is the falsifiable evidence that the
        # producer outran the consumers and backpressure engaged
        # (peak_depth <= max_chunks holds by construction — put()
        # blocks at the bound).
        "backpressure_engaged": stats["blocked_puts"] > 0,
    }


#: Journal disk bound after GC, as a multiple of live-session bytes
#: (compaction is byte-copying, so the honest overhead is segment
#: granularity — 25 % covers it with margin).
STORAGE_DISK_BOUND = 1.25

#: The storage-lifecycle fleet: the acceptance shape (8 devices x 3
#: rounds) with churn and no rejoin, so dropped sessions stay live in
#: the journal and the post-GC bound has a non-trivial denominator.
STORAGE_FLEET = dict(n_devices=8, duration_s=8.0, chunk_s=2.0,
                     seed=42, n_rounds=3, round_gap_s=2.0,
                     dropout=0.25, rejoin=False)


def measure_storage(quick: bool = False) -> dict:
    """The storage lifecycle's disk-bound figure.

    Journals the 8-device 3-round churning fleet, garbage-collects,
    and reports the journal's byte trajectory: ``bytes_before`` (the
    whole run), ``live_bytes`` (records of sessions still awaiting
    their trailer — the only replay obligation left) and
    ``bytes_after`` GC.  The gated ``disk_bound`` metric is
    ``(STORAGE_DISK_BOUND x live_bytes) / bytes_after`` — above 1.0
    the journal is bounded by its live traffic, at or below 1.0 GC
    stopped reclaiming and the disk grows with *total* traffic again.
    """
    import shutil
    import tempfile

    from repro.ingest import ChunkJournal, scan_journal
    from repro.ingest.gc import journal_bytes, journal_gc

    directory = Path(tempfile.mkdtemp(prefix="repro-bench-journal-"))
    try:
        fleet = DeviceFleet(FleetConfig(**STORAGE_FLEET))
        with ChunkJournal(directory) as journal:
            executor = StreamingExecutor(n_workers=1, preview=False,
                                         journal=journal)
            start = time.perf_counter()
            results = executor.run(fleet)
            run_s = time.perf_counter() - start
        scan = scan_journal(directory)
        # Live = every record of a session without a journaled trailer.
        from repro.io import scan_segment
        live_bytes = sum(
            entry.length
            for path in scan.segments
            for entry in scan_segment(path).entries
            if entry.session_id in scan.open)
        bytes_before = journal_bytes(directory)
        gc_start = time.perf_counter()
        report = journal_gc(directory)
        gc_s = time.perf_counter() - gc_start
        bytes_after = journal_bytes(directory)
        return {
            "n_sessions": len(results) + len(scan.open),
            "n_live_sessions": len(scan.open),
            "bytes_before": int(bytes_before),
            "live_bytes": int(live_bytes),
            "bytes_after_gc": int(bytes_after),
            "records_dropped": report.records_dropped,
            "records_kept": report.records_kept,
            "gc_s": gc_s,
            "ingest_s": run_s,
            "bound_multiple": STORAGE_DISK_BOUND,
            "disk_bound": (STORAGE_DISK_BOUND * live_bytes
                           / max(bytes_after, 1)),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


#: The ingest bench fleet: 8 devices at 2 kHz — enough payload
#: (~3 MB over 48 records) that durability and codec, not synthesis
#: or dispatch, dominate the journal-bound loop.
INGEST_FLEET = dict(n_devices=8, duration_s=12.0, chunk_s=2.0,
                    seed=2016, fs_choices=(2000.0,))

#: The journal configurations the ingest bench times, summary key ->
#: ``(durability, codec)``.  ``object`` is the reference path (a write
#: and an fsync per record, materializing codec); ``zero_copy`` is the
#: production hot path (group commit, copy-free iovec codec);
#: ``group_bytes`` changes only the codec, so it separates the two
#: factors.
INGEST_CONFIGS = {
    "object": ("strict", "bytes"),
    "zero_copy": ("group", "iov"),
    "group_bytes": ("group", "bytes"),
}


def measure_ingest(quick: bool = False) -> dict:
    """The durable ingest plane, journal-bound, one factor at a time.

    Times the ingest hot path as a direct append loop of plain device
    chunks (no queue-thread ping-pong — at this payload scale that
    would measure thread wake-ups, not the journal), once per
    :data:`INGEST_CONFIGS` entry with fsync on and off.  Every
    configuration journals bit-identical bytes.

    The gated ``zero_copy`` ratio divides the durable (fsync=True)
    ``object`` timing by the durable ``zero_copy`` one.  The other
    columns are recorded ungated: ``group_bytes`` against
    ``zero_copy`` attributes the win between group commit and the
    codec, and the fsync=False figures show what durability costs each
    configuration.  A final instrumented ``zero_copy`` run pins the
    contract numbers: ``bytes_copied`` must be zero.
    """
    import shutil
    import tempfile

    from repro.ingest import ChunkJournal, ingest_stats, \
        reset_ingest_stats

    chunks = list(DeviceFleet(FleetConfig(**INGEST_FLEET)))
    payload = sum(sum(d.nbytes for d in c.signals.values())
                  + sum(d.nbytes for d in c.annotations.values())
                  for c in chunks)
    repeats = 3 if quick else 7

    def journal_all(config: str, fsync: bool) -> float:
        durability, codec = INGEST_CONFIGS[config]
        directory = Path(tempfile.mkdtemp(prefix="repro-bench-ingest-"))
        try:
            start = time.perf_counter()
            with ChunkJournal(directory / "j", durability=durability,
                              codec=codec, fsync=fsync) as journal:
                for chunk in chunks:
                    journal.append(chunk)
            return time.perf_counter() - start
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    if quick:
        calibration_spin()
    # Interleave the configurations so page-cache and scheduler drift
    # hit all of them equally; best-of keeps one stolen timeslice from
    # deciding the gate.
    best = {}
    for fsync in (True, False):
        samples = {config: [] for config in INGEST_CONFIGS}
        for _ in range(repeats):
            for config in INGEST_CONFIGS:
                samples[config].append(journal_all(config, fsync))
        for config, seconds in samples.items():
            best[config, fsync] = min(seconds)
    # One instrumented durable run for the contract counters.
    reset_ingest_stats()
    journal_all("zero_copy", True)
    stats = ingest_stats()
    n = len(chunks)
    summary = {
        "n_devices": INGEST_FLEET["n_devices"],
        "n_records": n,
        "payload_bytes": int(payload),
    }
    for config in INGEST_CONFIGS:
        summary[f"{config}_rec_per_s"] = n / best[config, True]
        summary[f"{config}_nofsync_rec_per_s"] = n / best[config, False]
        summary[f"{config}_mb_per_s"] = payload / best[config, True] / 1e6
    summary.update({
        "bytes_copied": int(stats.bytes_copied),
        "group_fsyncs": int(stats.group_fsyncs),
        "group_flushes": int(stats.group_flushes),
        "zero_copy": best["object", True] / best["zero_copy", True],
    })
    return summary


#: Cohort-tier scaling points: recordings per measurement.
COHORT_SIZES_QUICK = (100, 1000)
COHORT_SIZES_FULL = (100, 1000, 10000)

#: Duration of each cohort-tier bench recording.  Short on purpose:
#: the tier's whole point is amortising per-recording overhead, which
#: short recordings maximise (long ones hide it inside kernel time).
COHORT_DURATION_S = 8.0


def measure_cohort(quick: bool = False) -> dict:
    """The cohort tier's scaling curve vs per-recording dispatch.

    A base pool of ten distinct recordings (five subjects x two
    setups, 8 s each) is tiled out to each scaling point — synthesis
    cost stays constant while the measured sweep grows, exactly how
    the executor's ``process_scaling`` workload is built.  Per point:
    per-recording dispatch (``tests.oracles.per_recording`` — the
    oracle the parity suite pins the tier against) and the batched
    tier, both over identical inputs and a shared warm design cache.

    The gated ratio (``speedup_1000``) divides two noisy timings, so
    the serial and cohort samples are taken interleaved, pairwise (as
    in :func:`measure_streaming`): slow drift on the host then hits
    both sides of a pair alike and cancels out of its ratio.  Each
    ``speedup_*`` is the median of the per-pair ratios and each rec/s
    figure the median of its side's samples, over 3 pairs; only the
    full-mode 10^4 point — whole tens of seconds per serial run —
    drops to a single pair (its ratio is recorded, not gated).
    """
    import gc
    gc.collect()
    if quick:
        calibration_spin()
    subjects = default_cohort()
    config = SynthesisConfig(duration_s=COHORT_DURATION_S)
    base = [
        synthesize_recording(subject, setup, 1, config)
        for subject in subjects
        for setup in ("device", "thoracic")
    ]
    sizes = COHORT_SIZES_QUICK if quick else COHORT_SIZES_FULL
    cache = FilterDesignCache()
    summary: dict = {
        "base_duration_s": COHORT_DURATION_S,
        "sizes": list(sizes),
    }
    for size in sizes:
        recordings = [base[i % len(base)] for i in range(size)]
        serial_times, cohort_times = [], []
        for _ in range(3 if size <= 1000 else 1):
            start = time.perf_counter()
            _run_cohort_reference(recordings, cache)
            serial_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            process_cohort(recordings, cache=cache)
            cohort_times.append(time.perf_counter() - start)
        summary[f"serial_rec_per_s_{size}"] = size / median_of(serial_times)
        summary[f"rec_per_s_{size}"] = size / median_of(cohort_times)
        summary[f"speedup_{size}"] = median_of(
            [serial / cohort
             for serial, cohort in zip(serial_times, cohort_times)])
    # The scaling-curve gate: throughput at 10^3 over throughput at
    # 10^2.  >= 1 means batching keeps amortising as cohorts grow;
    # the floor allows 20 % measurement noise but catches a collapse.
    summary["curve_ratio"] = (summary["rec_per_s_1000"]
                              / summary["rec_per_s_100"])
    return summary


def _run_cohort_reference(recordings, cache) -> None:
    """Per-recording dispatch over ``recordings`` (the serial side)."""
    per_recording(recordings, cache=cache)


def measure(quick: bool = False, n_jobs: int = 4,
            include_batch: bool = True,
            include_streaming: bool = True,
            include_cohort_tier: bool = True,
            include_storage: bool = True,
            include_ingest: bool = True,
            cohort=None) -> dict:
    """One trajectory point: kernel, pipeline, batch and streaming
    throughput.

    ``include_batch=False`` skips the (comparatively slow) executor
    measurements — the pytest bench takes its own batch timings and
    splices them in rather than running the cohort twice;
    ``include_streaming=False`` likewise skips the fleet measurement.
    ``cohort`` lets a caller that already synthesized the bench
    recordings pass them in as ``(recordings, duration_s)`` instead of
    paying synthesis again.
    """
    if cohort is not None:
        recordings, duration = cohort
        recordings = list(recordings)
    else:
        recordings, duration = cohort_recordings(quick)
    n = len(recordings)
    config = PipelineConfig()
    cache = FilterDesignCache()
    probe = recordings[0]

    # Quick mode (CI) runs on contended 1-2 vCPU runners where one
    # stolen timeslice can blow a best-of estimate past the gate
    # tolerance with no code change: spin the host to its steady state
    # first, then estimate with the outlier-immune median-of-odd-N.
    # Full mode (local hardware) keeps the best-of noise floor.
    if quick:
        calibration_spin()
    timer = timed_seconds if quick else _best_of

    # -- kernel layer: scalar reference vs vectorized -------------------
    kernel_run = filter_workload(probe, cache, config)
    with scalar_sosfilt():
        scalar_kernel_s = timer(kernel_run)
    vector_kernel_s = timer(kernel_run)

    # -- end-to-end pipeline: full-scalar chain vs full-vectorized ------
    # "Scalar" is the chain of the original implementations from
    # tests/oracles (per-sample SOS loop, per-beat point detection and
    # hemodynamics); "vectorized" is the production pipeline (blocked
    # SOS scan + beat-batched landmark kernels).
    pipeline = BeatToBeatPipeline(probe.fs, config, cache=cache)
    reference = reference_pipeline(probe.fs, config, cache=cache)
    with scalar_sosfilt():
        scalar_pipe_s = timer(lambda: reference.process_recording(probe))
    vector_pipe_s = timer(lambda: pipeline.process_recording(probe))

    summary = {
        "mode": "quick" if quick else "full",
        "n_recordings": n,
        "duration_s_each": duration,
        "n_jobs": n_jobs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": {
            "scalar_rec_per_s": 1.0 / scalar_kernel_s,
            "vectorized_rec_per_s": 1.0 / vector_kernel_s,
            "speedup": scalar_kernel_s / vector_kernel_s,
        },
        "pipeline": {
            "scalar_rec_per_s": 1.0 / scalar_pipe_s,
            "vectorized_rec_per_s": 1.0 / vector_pipe_s,
            "speedup": scalar_pipe_s / vector_pipe_s,
        },
    }

    if include_batch:
        # -- batch executor: serial vs processes --------------------------
        serial_s = timer(
            lambda: process_batch(recordings, config, n_jobs=1,
                                  cache=cache),
            repeats=2)
        # Cold vs warm fan-out: the first process_batch after a pool
        # shutdown pays worker spawn + per-worker warm-up; with the
        # persistent pool every later fan-out reuses the warm workers.
        # Single samples by design — cold start is a one-shot event,
        # and the cold/warm *gap* is the figure of interest.
        shutdown_persistent_pool()
        start = time.perf_counter()
        process_batch(recordings, config, n_jobs=n_jobs)
        process_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        process_batch(recordings, config, n_jobs=n_jobs)
        process_warm_s = time.perf_counter() - start
        process_s = timer(
            lambda: process_batch(recordings, config, n_jobs=n_jobs),
            repeats=2)
        ipc = last_ipc_stats()

        # Scaling figure on a pool-amortizing workload: the cohort is
        # small enough that pool start-up would dominate any honest
        # parallelism measurement, so process_scaling replicates it
        # (identical recordings share all designs) until the fan-out
        # carries a few hundred milliseconds of work.
        replicas = max(1, int(np.ceil(SCALING_BATCH_MIN_S
                                      / max(serial_s, 1e-9))))
        scaled = recordings * replicas
        serial_scaled_s = timer(
            lambda: process_batch(scaled, config, n_jobs=1,
                                  cache=cache),
            repeats=2)
        process_scaled_s = timer(
            lambda: process_batch(scaled, config, n_jobs=n_jobs),
            repeats=2)
        summary["batch"] = {
            "serial_rec_per_s": n / serial_s,
            "process_rec_per_s": n / process_s,
            "process_scaling": serial_scaled_s / process_scaled_s,
            "process_scaling_n_recordings": len(scaled),
            "process_cold_s": process_cold_s,
            "process_warm_s": process_warm_s,
            "warm_pool_speedup": process_cold_s / process_warm_s,
            "ipc": None if ipc is None else {
                "n_items": ipc.n_items,
                "n_descriptors": ipc.n_descriptors,
                "payload_bytes": ipc.payload_bytes,
                "data_plane_bytes": ipc.data_plane_bytes,
                "shipped_bytes": ipc.shipped_bytes,
                "legacy_bytes": ipc.legacy_bytes,
                "descriptor_collapse": ipc.descriptor_collapse,
            },
        }

    if include_streaming:
        summary["streaming"] = measure_streaming(quick)

    if include_cohort_tier:
        summary["cohort"] = measure_cohort(quick)

    if include_storage:
        summary["storage"] = measure_storage(quick)

    if include_ingest:
        summary["ingest"] = measure_ingest(quick)

    summary["cache"] = cache.stats()
    return summary


def _lookup(summary: dict, dotted: str):
    value = summary
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def compare(current: dict, baseline: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> list:
    """Gated metrics that regressed beyond ``tolerance``.

    Returns ``(metric, current, baseline)`` triples; empty means pass.
    Metrics missing from either side are skipped (a new baseline field
    must not fail every older checkout).
    """
    regressions = []
    for metric in GATED_METRICS:
        now = _lookup(current, metric)
        then = _lookup(baseline, metric)
        if now is None or then is None or then <= 0:
            continue
        if now < (1.0 - tolerance) * then:
            regressions.append((metric, now, then))
    return regressions


def floor_violations(summary: dict) -> list:
    """Absolute-floor failures of one fresh summary.

    Returns ``(metric, current, floor)`` triples.  Floors marked
    ``multi_cpu_only`` (the ``process_scaling`` bar — a process pool
    cannot beat serial on one core, whatever the IPC does) are only
    enforced when the summary reports more than one CPU; the cohort
    floors hold everywhere, because leading-axis batching needs no
    extra cores to win.  Skipped values are still recorded in the
    trajectory either way.
    """
    multi_cpu = (summary.get("cpu_count") or 1) > 1
    violations = []
    for metric, (floor, multi_cpu_only) in GATED_FLOORS.items():
        if multi_cpu_only and not multi_cpu:
            continue
        now = _lookup(summary, metric)
        if now is not None and now <= floor:
            violations.append((metric, now, floor))
    return violations


def render(summary: dict) -> str:
    """Human-readable view of one trajectory point."""
    k, p, b = summary["kernels"], summary["pipeline"], summary["batch"]
    lines = [
        f"Perf trajectory ({summary['mode']}: {summary['n_recordings']} "
        f"x {summary['duration_s_each']:.0f} s recordings, "
        f"n_jobs={summary['n_jobs']}, cpus={summary['cpu_count']})",
        f"  filter kernels : scalar {k['scalar_rec_per_s']:8.1f} rec/s"
        f" | vectorized {k['vectorized_rec_per_s']:8.1f} rec/s"
        f" | speedup {k['speedup']:5.1f}x",
        f"  full pipeline  : scalar {p['scalar_rec_per_s']:8.1f} rec/s"
        f" | vectorized {p['vectorized_rec_per_s']:8.1f} rec/s"
        f" | speedup {p['speedup']:5.1f}x",
        f"  batch executor : serial {b['serial_rec_per_s']:8.1f} rec/s"
        f" | processes {b['process_rec_per_s']:8.1f} rec/s"
        f" | scaling {b['process_scaling']:4.2f}x",
    ]
    ipc = b.get("ipc")
    if ipc:
        lines.append(
            f"  process IPC    : {ipc['n_descriptors']} descriptors | "
            f"pipe {ipc['payload_bytes'] / 1024:8.1f} KiB | shm "
            f"{ipc['data_plane_bytes'] / 1024:8.1f} KiB | collapse "
            f"{ipc['descriptor_collapse']:6.0f}x "
            f"(legacy {ipc['legacy_bytes'] / 1024:.1f} KiB)")
    if "process_cold_s" in b:
        lines.append(
            f"  warm pool      : cold fan-out {b['process_cold_s']:6.3f}"
            f" s | warm {b['process_warm_s']:6.3f} s | speedup "
            f"{b['warm_pool_speedup']:4.2f}x")
    s = summary.get("streaming")
    if s:
        queue = s["queue"]
        lines.append(
            f"  streaming      : {s['n_devices']} devices x "
            f"{s['duration_s_each']:.0f} s -> {s['rec_per_s']:8.1f} "
            f"rec/s | serial ingest {s['serial_ingest_rec_per_s']:8.1f} "
            f"rec/s | ratio {s['ratio_vs_serial']:4.2f}x | queue peak "
            f"{queue['peak_depth']}/{s['max_chunks']} "
            f"({queue['blocked_puts']} stalls)")
    c = summary.get("cohort")
    if c:
        for size in c["sizes"]:
            lines.append(
                f"  cohort tier    : n={size:<6d} serial "
                f"{c[f'serial_rec_per_s_{size}']:8.1f} rec/s | batched "
                f"{c[f'rec_per_s_{size}']:8.1f} rec/s | speedup "
                f"{c[f'speedup_{size}']:5.2f}x")
        lines.append(
            f"  cohort curve   : rec/s(10^3) / rec/s(10^2) = "
            f"{c['curve_ratio']:4.2f}")
    st = summary.get("storage")
    if st:
        lines.append(
            f"  journal GC     : {st['bytes_before'] / 1024:8.1f} KiB "
            f"-> {st['bytes_after_gc'] / 1024:8.1f} KiB "
            f"({st['n_live_sessions']} live sessions, "
            f"{st['live_bytes'] / 1024:.1f} KiB live) | bound margin "
            f"{st['disk_bound']:5.2f}x in {st['gc_s'] * 1000:5.1f} ms")
    ing = summary.get("ingest")
    if ing:
        lines.extend(
            f"  ingest {label:8}: strict/bytes "
            f"{ing['object' + suffix]:8.1f} | group/bytes "
            f"{ing['group_bytes' + suffix]:8.1f} | group/iov "
            f"{ing['zero_copy' + suffix]:8.1f} rec/s"
            for label, suffix in (("durable", "_rec_per_s"),
                                  ("no fsync", "_nofsync_rec_per_s")))
        lines.append(
            f"  ingest gate    : group/iov over strict/bytes "
            f"{ing['zero_copy']:4.2f}x | "
            f"{ing['zero_copy_mb_per_s']:6.1f} MB/s durable | "
            f"{ing['bytes_copied']} B copied, "
            f"{ing['group_fsyncs']} fsyncs/"
            f"{ing['n_records']} records")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="measure batch/kernel throughput and gate "
                    "regressions against a committed baseline")
    parser.add_argument("--quick", action="store_true",
                        help="reduced cohort (CI mode)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the batch measurements")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed trajectory JSON to gate against")
    parser.add_argument("--previous", type=Path, default=None,
                        help="previous same-runner summary (e.g. the "
                             "CI cache's artifact); preferred over "
                             "--baseline when the file exists, making "
                             "the gate an apples-to-apples same-"
                             "hardware comparison")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the fresh summary here")
    parser.add_argument("--write-baseline", type=Path, default=None,
                        help="write/refresh a trajectory file with "
                             "both quick and full summaries")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional rec/s regression")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="wall-clock budget for the measurement; "
                             "exceeding it fails the run (quick mode "
                             f"defaults to {QUICK_BUDGET_S:.0f} s, "
                             "full mode to no budget)")
    args = parser.parse_args(argv)

    if args.write_baseline:
        point = {"pr": 8,
                 "quick": measure(quick=True, n_jobs=args.jobs),
                 "full": measure(quick=False, n_jobs=args.jobs)}
        args.write_baseline.write_text(json.dumps(point, indent=2) + "\n")
        print(render(point["full"]))
        print(f"baseline written to {args.write_baseline}")
        return 0

    budget_s = args.max_seconds
    if budget_s is None and args.quick:
        budget_s = QUICK_BUDGET_S
    measure_start = time.perf_counter()
    summary = measure(quick=args.quick, n_jobs=args.jobs)
    elapsed_s = time.perf_counter() - measure_start
    summary["elapsed_s"] = elapsed_s
    print(render(summary))
    print(f"  bench wall     : {elapsed_s:6.1f} s"
          + (f" (budget {budget_s:.0f} s)" if budget_s else ""))
    if args.output:
        args.output.write_text(json.dumps(summary, indent=2) + "\n")

    over_budget = budget_s is not None and elapsed_s > budget_s
    if over_budget:
        print(f"\nBUDGET EXCEEDED: the bench took {elapsed_s:.1f} s "
              f"against a --max-seconds budget of {budget_s:.1f} s — "
              f"the measurement suite itself has regressed; trim it "
              f"or raise the budget deliberately.")

    floors = floor_violations(summary)
    if floors:
        print(f"\nFLOOR VIOLATION (absolute minima, cpu_count="
              f"{summary['cpu_count']}):")
        for metric, now, floor in floors:
            print(f"  {metric}: {now:.2f} <= required {floor:.2f}")

    # Gate against *both* references when available: the previous
    # same-runner artifact gives a tight same-hardware comparison, but
    # the committed cross-machine baseline stays in force as the
    # absolute floor — otherwise successive sub-tolerance regressions
    # would ratchet the moving reference down unchecked.
    references = []
    if args.previous is not None and args.previous.exists():
        references.append(("previous same-runner artifact",
                           args.previous))
    if args.baseline is not None:
        references.append(("committed baseline", args.baseline))
    if not references:
        return 1 if (floors or over_budget) else 0

    failed = bool(floors) or over_budget
    for kind, path in references:
        baseline = json.loads(path.read_text())
        # Trajectory files hold both modes; bare summaries are
        # compared directly.
        baseline = baseline.get(summary["mode"], baseline)
        regressions = compare(summary, baseline,
                              tolerance=args.tolerance)
        if regressions:
            failed = True
            print(f"\nREGRESSION (> {args.tolerance * 100:.0f} % "
                  f"below {kind} {path}):")
            for metric, now, then in regressions:
                print(f"  {metric}: {now:.1f} rec/s vs baseline "
                      f"{then:.1f} rec/s")
        else:
            print(f"within {args.tolerance * 100:.0f} % of {kind} "
                  f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
