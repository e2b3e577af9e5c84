"""Command-line interface: the device experience in a terminal.

The subcommands cover the workflows a user of the real device (or a
reviewer of the paper, or an operator of the simulated fleet) would
want:

* ``measure`` — one touch measurement for a cohort subject, reporting
  the paper's payload (Z0, LVET, PEP, HR);
* ``cohort`` — batch-measure every cohort subject through the parallel
  executor (``--jobs``/``--backend``) and print one payload row per
  subject;
* ``study`` — run the evaluation protocol (optionally with ``--jobs``/
  ``--backend`` fan-out) and print Tables II-IV plus the figure
  series; ``--shards K --shard-index i --out shard.npz`` runs one
  machine's slice instead and writes the shard artifact;
* ``merge`` — merge shard artifacts back into the full study report;
* ``ingest`` — stream a simulated N-device fleet through the bounded
  work queue and the streaming executor, one payload row per session
  plus the queue's backpressure statistics; ``--rounds``/``--dropout``
  turn on multi-round operation with churn, and ``--journal DIR``
  writes every consumed chunk through a durable
  :class:`~repro.ingest.journal.ChunkJournal` first (sessions left
  open by dropouts or a kill then survive the process);
* ``serve`` — the supervised always-on analysis service: boot-recover
  the journal, multiplex a device fleet's sessions under the
  :mod:`repro.serve` state machine (deadlines, retry backoff,
  load-shedding degradation), run journal GC/archival as supervised
  periodic jobs, and answer ``repro serve --status`` over the
  journal directory's unix socket; SIGTERM drains gracefully
  (buffered chunks finalized, open sessions left durable);
* ``recover`` — re-open a journal directory after a crash: finalize
  every session whose trailer was journaled (bit-identical to the
  interrupted run), report the ones still open, quarantine any the
  scan found damaged, and report any the pipeline rejected; ``--json``
  emits the machine-readable report (per-session verdicts, damage
  taxonomy counts, bytes scanned); either form exits 1 on any damage
  or rejected session;
* ``journal-gc`` — reclaim journal segments whose records belong to
  finalized, manifested sessions (delete fully dead segments, compact
  mixed ones); crash-safe and a conservative no-op on damage;
* ``archive`` — compact finalized sessions into a compressed cold-tier
  archive (``io/archive.py``) so ``journal-gc`` can reclaim their hot
  segments; the archive index keeps them addressable;
* ``rehydrate`` — pull one archived session back out of the cold tier,
  bit-identical, and re-run the stage graph over it (``--list`` shows
  the index instead);
* ``power`` — the Table I battery bookkeeping;
* ``monitor`` — a simulated CHF decompensation course with alerts;
* ``cache-stats`` — exercise a small cohort and report the filter-
  design and DSP-kernel cache hit rates (capacity planning);
  ``--backend process`` additionally reports each worker's
  process-local rebuild counts.

Run ``python -m repro.cli <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import numpy as np

from repro.core import BeatToBeatPipeline, process_batch
from repro.core.cache import cache_statistics
from repro.core.executor import (
    BACKENDS,
    BATCH_BACKENDS,
    last_ipc_stats,
    persistent_pool_stats,
    process_worker_cache_stats,
)
from repro.device.power import PowerBudget, battery_life_hours, paper_operating_point
from repro.errors import ReproError
from repro.experiments import (
    ProtocolConfig,
    StudyShard,
    merge_shards,
    render_batch_summary,
    render_correlation_table,
    render_hemodynamics,
    render_mean_z_series,
    render_relative_errors,
    run_study,
    run_study_shard,
)
from repro.ingest import (
    ChunkJournal,
    DeviceFleet,
    FleetConfig,
    RecoveryManager,
    StreamingExecutor,
    ingest_stats,
    reset_ingest_stats,
)
from repro.ingest.gc import journal_bytes, journal_gc
from repro.io import load_shard, save_shard
from repro.io.archive import (
    archive_sessions,
    read_archive_index,
    rehydrate_session,
)
from repro.serve import (
    DeadlinePolicy,
    RetryPolicy,
    STATUS_SOCKET_NAME,
    ServeDaemon,
    read_status,
)
from repro.ingest.journal import DURABILITY_MODES
from repro.monitoring import (
    ChfMonitor,
    DecompensationScenario,
    WeightMonitor,
    simulate_decompensation_course,
)
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Touch-based ICG/ECG reproduction (Sopic et al., "
                    "DATE 2016)")
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser(
        "measure", help="one touch measurement for a cohort subject")
    measure.add_argument("--subject", type=int, default=3,
                         choices=range(1, 6),
                         help="cohort subject id (1-5)")
    measure.add_argument("--position", type=int, default=1,
                         choices=(1, 2, 3), help="arm position")
    measure.add_argument("--setup", default="device",
                         choices=("device", "thoracic"))
    measure.add_argument("--duration", type=float, default=30.0,
                         help="recording length in seconds")
    measure.add_argument("--frequency-khz", type=float, default=50.0,
                         help="injection frequency in kHz")

    cohort = commands.add_parser(
        "cohort", help="batch-measure the whole cohort through the "
                       "parallel executor")
    cohort.add_argument("--position", type=int, default=1,
                        choices=(1, 2, 3), help="arm position")
    cohort.add_argument("--setup", default="device",
                        choices=("device", "thoracic"))
    cohort.add_argument("--duration", type=float, default=30.0,
                        help="recording length in seconds")
    cohort.add_argument("--jobs", type=int, default=1,
                        help="workers (-1 = one per CPU)")
    cohort.add_argument("--backend", default="thread", choices=BACKENDS,
                        help="fan-out backend: threads share one design "
                             "cache, processes scale with cores")

    study = commands.add_parser(
        "study", help="run the evaluation protocol (Tables II-IV, "
                      "Figs 6-9), whole or one shard of it")
    study.add_argument("--quick", action="store_true",
                       help="reduced protocol (12 s, 2 frequencies)")
    study.add_argument("--jobs", type=int, default=1,
                       help="workers (-1 = one per CPU)")
    study.add_argument("--backend", default="thread", choices=BACKENDS,
                       help="fan-out backend: threads share one design "
                            "cache, processes scale with cores")
    study.add_argument("--shards", type=int, default=1,
                       help="total shard count of a distributed run")
    study.add_argument("--shard-index", type=int, default=0,
                       help="which shard this machine executes (0-based)")
    study.add_argument("--out", default=None,
                       help="write the shard artifact here (.npz; "
                            "required when --shards > 1)")

    merge = commands.add_parser(
        "merge", help="merge study shard artifacts into the full "
                      "report")
    merge.add_argument("shards", nargs="+",
                       help="the .npz artifacts of every shard 0..K-1")

    ingest = commands.add_parser(
        "ingest", help="stream a simulated device fleet through the "
                       "bounded work queue")
    ingest.add_argument("--devices", type=int, default=8,
                        help="number of concurrent simulated devices")
    ingest.add_argument("--duration", type=float, default=30.0,
                        help="recording length per device, seconds")
    ingest.add_argument("--chunk", type=float, default=2.0,
                        help="chunk length a device transmits, seconds")
    ingest.add_argument("--jobs", type=int, default=2,
                        help="finalize-pool workers")
    ingest.add_argument("--backend", default="thread", choices=BACKENDS,
                        help="finalize backend (as in process_batch)")
    ingest.add_argument("--max-chunks", type=int, default=64,
                        help="queue bound: buffered chunks before the "
                             "producer blocks (backpressure)")
    ingest.add_argument("--seed", type=int, default=0,
                        help="fleet seed (device parameters + jitter)")
    ingest.add_argument("--rounds", type=int, default=1,
                        help="measurement rounds per device "
                             "(long-lived load)")
    ingest.add_argument("--gap", type=float, default=5.0,
                        help="nominal gap between a device's rounds, "
                             "seconds (jittered 0.5-1.5x)")
    ingest.add_argument("--dropout", type=float, default=0.0,
                        help="per-session probability the user aborts "
                             "mid-measurement")
    ingest.add_argument("--no-rejoin", action="store_true",
                        help="dropped sessions never reconnect (they "
                             "stay open; requires --journal to be "
                             "durable)")
    ingest.add_argument("--journal", default=None,
                        help="journal directory: write every consumed "
                             "chunk through a durable chunk journal "
                             "(enables `repro recover` after a crash)")
    ingest.add_argument("--segment-records", type=int, default=None,
                        help="roll the journal to a new segment file "
                             "every N records")

    serve = commands.add_parser(
        "serve", help="supervised always-on analysis service: "
                      "boot-recover the journal, serve a device "
                      "fleet under session supervision, answer "
                      "--status over a unix socket")
    serve.add_argument("--journal", required=True,
                       help="journal directory the daemon owns (its "
                            "durable state and status socket live "
                            "here)")
    serve.add_argument("--status", action="store_true",
                       help="query a running daemon's health endpoint "
                            "instead of serving (prints the JSON "
                            "status document; exit 0 iff healthy)")
    serve.add_argument("--devices", type=int, default=8,
                       help="simulated fleet size to serve")
    serve.add_argument("--duration", type=float, default=30.0,
                       help="recording length per device, seconds")
    serve.add_argument("--chunk", type=float, default=2.0,
                       help="chunk length a device transmits, seconds")
    serve.add_argument("--seed", type=int, default=0,
                       help="fleet seed (device parameters + jitter)")
    serve.add_argument("--rounds", type=int, default=1,
                       help="measurement rounds per device")
    serve.add_argument("--gap", type=float, default=5.0,
                       help="nominal gap between rounds, seconds")
    serve.add_argument("--dropout", type=float, default=0.0,
                       help="per-session probability the user aborts "
                            "mid-measurement")
    serve.add_argument("--no-rejoin", action="store_true",
                       help="dropped sessions never reconnect (they "
                            "stay open in the journal for the next "
                            "boot)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="finalize-pool workers")
    serve.add_argument("--backend", default="thread", choices=BACKENDS,
                       help="finalize backend (as in process_batch)")
    serve.add_argument("--max-chunks", type=int, default=64,
                       help="queue bound; also the denominator of the "
                            "overload ladder's pressure signal")
    serve.add_argument("--durability", default="strict",
                       choices=DURABILITY_MODES,
                       help="journal durability (overload may force "
                            "strict temporarily)")
    serve.add_argument("--segment-records", type=int, default=None,
                       help="roll the journal to a new segment file "
                            "every N records")
    serve.add_argument("--deadline", type=float, default=None,
                       help="quarantine a session whose source goes "
                            "silent this many seconds (default: "
                            "disabled)")
    serve.add_argument("--finalize-timeout", type=float, default=None,
                       help="quarantine a session whose finalize runs "
                            "longer than this many seconds (default: "
                            "disabled)")
    serve.add_argument("--retries", type=int, default=2,
                       help="attempts per transient fault before a "
                            "session is quarantined")
    serve.add_argument("--gc-interval", type=float, default=None,
                       help="run journal GC every N seconds as a "
                            "supervised job")
    serve.add_argument("--archive-dir", default=None,
                       help="cold-tier archive directory for the "
                            "supervised archival job")
    serve.add_argument("--archive-interval", type=float, default=None,
                       help="archive finalized sessions every N "
                            "seconds (needs --archive-dir)")
    serve.add_argument("--no-health", action="store_true",
                       help="do not bind the status socket")

    recover = commands.add_parser(
        "recover", help="recover a chunk journal after a crash: "
                        "finalize completed sessions, report open, "
                        "damaged and rejected ones")
    recover.add_argument("journal", help="the journal directory a "
                                         "previous `repro ingest "
                                         "--journal` wrote")
    recover.add_argument("--jobs", type=int, default=1,
                         help="finalize workers (thread/process "
                              "backends only)")
    recover.add_argument("--backend", default="cohort",
                         choices=BATCH_BACKENDS,
                         help="batch finalize backend (as in "
                              "process_batch)")
    recover.add_argument("--json", action="store_true",
                         help="machine-readable report: per-session "
                              "verdicts, damage taxonomy counts, bytes "
                              "scanned (same exit code contract)")

    gc = commands.add_parser(
        "journal-gc", help="reclaim journal segments of finalized, "
                           "manifested sessions (crash-safe; no-op on "
                           "damage it cannot prove dead)")
    gc.add_argument("journal", help="the journal directory to collect")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be reclaimed without "
                         "touching the journal")
    gc.add_argument("--json", action="store_true",
                    help="machine-readable GC report")

    archive = commands.add_parser(
        "archive", help="compact finalized journal sessions into a "
                        "compressed cold-tier archive (run journal-gc "
                        "afterwards to reclaim their segments)")
    archive.add_argument("journal", help="the journal directory to "
                                         "archive from")
    archive.add_argument("archive_dir", help="the cold-tier archive "
                                             "directory (index.json + "
                                             "archive-*.npz)")
    archive.add_argument("--sessions", nargs="+", default=None,
                         help="archive only these session ids (default: "
                              "every finalized, manifested session)")
    archive.add_argument("--json", action="store_true",
                         help="machine-readable archive report")

    rehydrate = commands.add_parser(
        "rehydrate", help="pull one archived session back out of the "
                          "cold tier (bit-identical) and re-run the "
                          "stage graph over it")
    rehydrate.add_argument("archive_dir", help="the cold-tier archive "
                                               "directory")
    rehydrate.add_argument("session", nargs="?", default=None,
                           help="session id to rehydrate (omit with "
                                "--list)")
    rehydrate.add_argument("--list", action="store_true",
                           help="list the archive index instead of "
                                "rehydrating")

    commands.add_parser("power", help="Table I battery bookkeeping")

    cache_stats = commands.add_parser(
        "cache-stats", help="filter-design / DSP-kernel cache hit rates "
                            "after a sample cohort run")
    cache_stats.add_argument("--duration", type=float, default=10.0,
                             help="seconds per sample recording")
    cache_stats.add_argument("--backend", default="thread",
                             choices=BACKENDS,
                             help="process: also report each pool "
                                  "worker's process-local rebuild "
                                  "counts")
    cache_stats.add_argument("--jobs", type=int, default=2,
                             help="workers for the sample batch")

    monitor = commands.add_parser(
        "monitor", help="simulated CHF decompensation course")
    monitor.add_argument("--subject", type=int, default=4,
                         choices=range(1, 6))
    monitor.add_argument("--days", type=int, default=40)
    monitor.add_argument("--onset", type=int, default=20)
    monitor.add_argument("--seed", type=int, default=42)
    return parser


def _cmd_measure(args) -> int:
    subject = default_cohort()[args.subject - 1]
    config = SynthesisConfig(
        duration_s=args.duration,
        injection_frequency_hz=args.frequency_khz * 1000.0)
    recording = synthesize_recording(subject, args.setup, args.position,
                                     config)
    result = BeatToBeatPipeline(recording.fs).process_recording(recording)
    summary = result.summary()
    print(f"Subject {subject.subject_id}, {args.setup}, position "
          f"{args.position}, {args.frequency_khz:.0f} kHz, "
          f"{args.duration:.0f} s")
    print(f"  Z0   = {summary['z0_ohm']:8.1f} ohm")
    print(f"  LVET = {summary['lvet_s'] * 1000:8.0f} ms")
    print(f"  PEP  = {summary['pep_s'] * 1000:8.0f} ms")
    print(f"  HR   = {summary['hr_bpm']:8.1f} bpm")
    print(f"  beats analysed: {result.n_beats_detected} "
          f"({len(result.failures)} failed)")
    return 0


def _cmd_cohort(args) -> int:
    cohort = default_cohort()
    config = SynthesisConfig(duration_s=args.duration)
    recordings = [
        synthesize_recording(subject, args.setup, args.position, config)
        for subject in cohort
    ]
    results = process_batch(recordings, n_jobs=args.jobs,
                            backend=args.backend)
    print(render_batch_summary(
        results,
        labels=[f"Subject {subject.subject_id}" for subject in cohort],
        title=(f"Cohort batch: {args.setup}, position {args.position}, "
               f"{args.duration:.0f} s")))
    return 0


def _render_study(study, config) -> None:
    """Print Tables II-IV and the figure series of a study result."""
    for position in config.positions:
        print()
        print(render_correlation_table(study.correlation_table(position),
                                       position))
    print()
    print(render_mean_z_series(study.thoracic_mean_z(),
                               "Fig 6: thoracic mean Z0 (ohm)"))
    for position in config.positions:
        print()
        print(render_mean_z_series(study.device_mean_z(position),
                                   f"Fig 7: device mean Z0 (ohm), "
                                   f"position {position}"))
    print()
    print(render_relative_errors(study.relative_errors()))
    for position in (1, 2):
        print()
        print(render_hemodynamics(
            study.hemodynamics(position,
                               config.frequencies_hz[-1]
                               if 50_000.0 not in config.frequencies_hz
                               else 50_000.0),
            position))
    print(f"\nOverall correlation: {study.mean_correlation():.3f} "
          f"(paper ~0.85); worst error "
          f"{study.worst_case_error() * 100:.1f} % (paper < 20 %)")


def _cmd_study(args) -> int:
    config = ProtocolConfig()
    if args.quick:
        config = config.quick()
    if args.shards < 1 or not 0 <= args.shard_index < args.shards:
        print(f"error: need 0 <= shard-index < shards, got "
              f"{args.shard_index}/{args.shards}", file=sys.stderr)
        return 2
    if args.shards > 1:
        if args.out is None:
            print("error: --shards > 1 requires --out for the shard "
                  "artifact", file=sys.stderr)
            return 2
        shard = run_study_shard(config=config, n_shards=args.shards,
                                shard_index=args.shard_index,
                                n_jobs=args.jobs, backend=args.backend)
        path = save_shard(shard, args.out)
        print(f"Shard {args.shard_index}/{args.shards}: "
              f"{shard.n_jobs_done} of {shard.n_jobs_total} protocol "
              f"jobs analysed")
        print(f"Artifact written to {path}")
        # Suggest sibling artifact names when the user's --out embeds
        # the shard index; otherwise stay generic — guessing wrong
        # filenames would invite a failing copy-paste.
        token = str(args.shard_index)
        if str(args.out).count(token) == 1:
            siblings = " ".join(str(args.out).replace(token, str(i))
                                for i in range(args.shards))
            print(f"Merge with: repro merge {siblings}")
        else:
            print(f"Merge with: repro merge <all {args.shards} shard "
                  f"artifacts>")
        return 0
    print(f"Running protocol: {len(default_cohort())} subjects, "
          f"{len(config.positions)} positions, "
          f"{len(config.frequencies_hz)} frequencies, "
          f"{config.duration_s:.0f} s each ...")
    study = run_study(config=config, n_jobs=args.jobs,
                      backend=args.backend)
    _render_study(study, config)
    if args.out:
        shard = StudyShard(
            config=config, subject_ids=list(study.subject_ids),
            n_shards=1, shard_index=0,
            n_jobs_total=len(study.device) + len(study.thoracic),
            device=study.device, thoracic=study.thoracic)
        path = save_shard(shard, args.out)
        print(f"Study artifact written to {path}")
    return 0


def _cmd_merge(args) -> int:
    shards = [load_shard(path) for path in args.shards]
    study = merge_shards(shards)
    print(f"Merged {len(shards)} shard(s): "
          f"{len(study.device) + len(study.thoracic)} analyses, "
          f"{len(study.subject_ids)} subjects")
    _render_study(study, study.config)
    return 0


def _print_session_rows(results) -> None:
    for session_id in sorted(results):
        session = results[session_id]
        summary = session.result.summary()
        meta = session.recording.meta
        print(f"  {session_id}: subject "
              f"{int(meta['subject_id'])} pos {int(meta['position'])} | "
              f"Z0 {summary['z0_ohm']:7.1f} ohm | "
              f"LVET {summary['lvet_s'] * 1000:4.0f} ms | "
              f"PEP {summary['pep_s'] * 1000:3.0f} ms | "
              f"HR {summary['hr_bpm']:5.1f} bpm | "
              f"{session.n_chunks} chunks")


def _cmd_ingest(args) -> int:
    fleet = DeviceFleet(FleetConfig(n_devices=args.devices,
                                    duration_s=args.duration,
                                    chunk_s=args.chunk,
                                    seed=args.seed,
                                    n_rounds=args.rounds,
                                    round_gap_s=args.gap,
                                    dropout=args.dropout,
                                    rejoin=not args.no_rejoin))
    journal = (None if args.journal is None
               else ChunkJournal(args.journal,
                                 segment_records=args.segment_records))
    executor = StreamingExecutor(n_workers=args.jobs,
                                 finalize_backend=args.backend,
                                 max_chunks=args.max_chunks,
                                 journal=journal)
    rounds = (f", {args.rounds} rounds" if args.rounds > 1 else "")
    churn = (f", dropout {args.dropout:.0%}" if args.dropout else "")
    print(f"Ingesting {args.devices} devices x {args.duration:.0f} s"
          f"{rounds}{churn} ({args.chunk:.1f} s chunks, queue bound "
          f"{args.max_chunks} chunks, {args.jobs} finalize "
          f"worker(s)"
          + (f", journal {args.journal}" if args.journal else "")
          + ") ...")
    try:
        results = executor.run(fleet)
    finally:
        if journal is not None:
            journal.close()
    _print_session_rows(results)
    if executor.last_open_sessions:
        print(f"Open sessions (journaled, awaiting trailer): "
              f"{', '.join(executor.last_open_sessions)}")
        print(f"Finalize later with: repro recover {args.journal}")
    stats = executor.last_queue_stats.as_dict()
    print(f"Queue: {stats['total_put']} chunks through, peak depth "
          f"{stats['peak_depth']} ({stats['peak_bytes']} bytes), "
          f"{stats['blocked_puts']} backpressure stalls")
    return 0


def _cmd_serve(args) -> int:
    if args.status:
        doc = read_status(Path(args.journal) / STATUS_SOCKET_NAME)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if doc.get("ok") else 1
    fleet = DeviceFleet(FleetConfig(n_devices=args.devices,
                                    duration_s=args.duration,
                                    chunk_s=args.chunk,
                                    seed=args.seed,
                                    n_rounds=args.rounds,
                                    round_gap_s=args.gap,
                                    dropout=args.dropout,
                                    rejoin=not args.no_rejoin))
    daemon = ServeDaemon(
        args.journal,
        n_workers=args.jobs,
        finalize_backend=args.backend,
        max_chunks=args.max_chunks,
        durability=args.durability,
        segment_records=args.segment_records,
        deadline=DeadlinePolicy(chunk_deadline_s=args.deadline,
                                finalize_timeout_s=args.finalize_timeout),
        retry=RetryPolicy(max_attempts=args.retries),
        gc_interval_s=args.gc_interval,
        archive_dir=args.archive_dir,
        archive_interval_s=args.archive_interval,
        health=not args.no_health)

    def drain(_signum, _frame):
        # Graceful shutdown: stop admitting, finish what is buffered
        # and submitted, flush, exit.  Open sessions stay journaled.
        daemon.stop()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, drain)
    print(f"Serving {args.devices} device(s) x {args.duration:.0f} s "
          f"over journal {args.journal} "
          f"({args.durability} durability, {args.jobs} finalize "
          f"worker(s)"
          + ("" if args.no_health
             else f"; status: repro serve --status --journal "
                  f"{args.journal}") + ") ...")
    try:
        results = daemon.serve([fleet], once=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    _print_session_rows(results)
    status = daemon.status()
    counts = status["sessions"]["counts"]
    print(f"Sessions: {counts['done']} done, "
          f"{counts['accepting']} still open (journaled), "
          f"{counts['quarantined']} quarantined"
          + (f", {len(status['shed_sessions'])} shed"
             if status["shed_sessions"] else ""))
    for record in daemon.supervisor.in_state("quarantined"):
        print(f"QUARANTINED {record.session_id}: {record.reason}")
    stats = ingest_stats()
    print(f"Policies: {stats.serve_retries} retried fault(s), "
          f"{stats.serve_deadline_hits} deadline hit(s), "
          f"{stats.serve_degradations} degradation(s), "
          f"{stats.serve_sheds} shed(s)")
    return 0


def _damage_taxonomy(damaged: dict, unattributed: int,
                     torn: bool) -> dict:
    """Count quarantine reasons by failure class — the aggregate view
    of the journal damage taxonomy (ARCHITECTURE.md table)."""
    counts = {"crc_mismatch": 0, "sequence_break": 0,
              "manifest_mismatch": 0, "undecodable": 0, "other": 0}
    for reason in damaged.values():
        if "crc mismatch" in reason:
            counts["crc_mismatch"] += 1
        elif "sequence broken" in reason:
            counts["sequence_break"] += 1
        elif "manifest records" in reason:
            counts["manifest_mismatch"] += 1
        elif "undecodable" in reason:
            counts["undecodable"] += 1
        else:
            counts["other"] += 1
    counts["unattributed_records"] = int(unattributed)
    counts["torn_tail"] = 1 if torn else 0
    return counts


def _cmd_recover(args) -> int:
    bytes_scanned = journal_bytes(args.journal)
    manager = RecoveryManager(args.journal)
    outcome = manager.recover(n_workers=args.jobs,
                              finalize_backend=args.backend)
    exit_code = 1 if (outcome.damaged or outcome.rejected
                      or outcome.unattributed_damage) else 0
    if args.json:
        sessions = {}
        for sid, session in outcome.results.items():
            summary = session.result.summary()
            sessions[sid] = {
                "verdict": "recovered",
                "n_chunks": int(session.n_chunks),
                "payload": {key: float(value)
                            for key, value in summary.items()},
            }
        for sid in outcome.open_sessions:
            sessions[sid] = {"verdict": "open"}
        for sid, reason in outcome.damaged.items():
            sessions[sid] = {"verdict": "damaged", "reason": reason}
        for sid, reason in outcome.rejected.items():
            sessions[sid] = {"verdict": "rejected", "reason": reason}
        print(json.dumps({
            "journal": str(args.journal),
            "n_records": int(outcome.n_records),
            "bytes_scanned": int(bytes_scanned),
            "torn_tail_recovered": bool(outcome.torn_tail_recovered),
            "sessions": sessions,
            "damage": _damage_taxonomy(outcome.damaged,
                                       outcome.unattributed_damage,
                                       outcome.torn_tail_recovered),
            "exit_code": exit_code,
        }, indent=2, sort_keys=True))
        return exit_code
    print(f"Journal {args.journal}: {outcome.n_records} records"
          + (", torn tail truncated" if outcome.torn_tail_recovered
             else ""))
    print(f"Recovered {len(outcome.results)} session(s):")
    _print_session_rows(outcome.results)
    if outcome.open_sessions:
        print(f"Still open (no trailer journaled): "
              f"{', '.join(outcome.open_sessions)}")
    for session_id in sorted(outcome.damaged):
        print(f"DAMAGED {session_id}: {outcome.damaged[session_id]}")
    for session_id in sorted(outcome.rejected):
        print(f"REJECTED {session_id}: {outcome.rejected[session_id]}")
    if outcome.unattributed_damage:
        print(f"DAMAGED records not attributable to a session: "
              f"{outcome.unattributed_damage}")
    return exit_code


def _cmd_journal_gc(args) -> int:
    report = journal_gc(args.journal, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    verb = "Would reclaim" if args.dry_run else "Reclaimed"
    print(f"Journal {args.journal}: {report.bytes_before} -> "
          f"{report.bytes_after} bytes")
    print(f"{verb} {report.records_dropped} record(s): "
          f"{len(report.dropped_segments)} segment(s) dropped, "
          f"{len(report.compacted_segments)} compacted "
          f"({report.records_kept} live record(s) kept)")
    if report.sessions_collected:
        print(f"Sessions collected: "
              f"{', '.join(report.sessions_collected)}")
    for name, reason in report.skipped_segments:
        print(f"SKIPPED {name}: {reason}")
    if report.torn_tail_repaired:
        print("Torn tail truncated before collection")
    if report.noop:
        print("Nothing to collect")
    return 0


def _cmd_archive(args) -> int:
    report = archive_sessions(args.journal, args.archive_dir,
                              session_ids=args.sessions)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 1 if report.skipped else 0
    if report.file is not None:
        print(f"Archived {len(report.archived)} session(s) "
              f"({report.n_chunks} chunks) into {report.file} "
              f"({report.bytes_written} bytes)")
        for sid in report.archived:
            print(f"  {sid}")
    if report.already_archived:
        print(f"Already archived: "
              f"{', '.join(report.already_archived)}")
    for sid, reason in sorted(report.skipped.items()):
        print(f"SKIPPED {sid}: {reason}")
    if report.file is None and not report.already_archived:
        print("Nothing to archive")
    print(f"Reclaim the archived sessions' journal segments with: "
          f"repro journal-gc {args.journal}")
    return 1 if report.skipped else 0


def _cmd_rehydrate(args) -> int:
    if args.list:
        index = read_archive_index(args.archive_dir)
        print(f"Archive {args.archive_dir}: {len(index)} session(s)")
        for sid in sorted(index):
            entry = index[sid]
            print(f"  {sid}: {entry['n_chunks']} chunks, "
                  f"{entry['n_samples']} samples @ {entry['fs']:.0f} Hz "
                  f"in {entry['file']}")
        return 0
    if args.session is None:
        print("error: a session id is required unless --list is given",
              file=sys.stderr)
        return 2
    chunks = rehydrate_session(args.archive_dir, args.session)
    executor = StreamingExecutor(n_workers=1, preview=False)
    results = executor.run(iter(chunks))
    print(f"Rehydrated {args.session} from {args.archive_dir}: "
          f"{len(chunks)} chunks")
    _print_session_rows(results)
    return 0


def _cmd_power(_args) -> int:
    budget = PowerBudget()
    duties = paper_operating_point()
    print("Operating point: MCU 50 %, radio 1 %, signal chain on, IMU "
          "off")
    print(f"Average current : "
          f"{budget.average_current_ma(duties):.3f} mA")
    print(f"Battery life    : {battery_life_hours():.1f} h on 710 mAh "
          f"(paper: 106 h)")
    return 0


def _cmd_monitor(args) -> int:
    subject = default_cohort()[args.subject - 1]
    scenario = DecompensationScenario(n_days=args.days,
                                      onset_day=args.onset)
    course = simulate_decompensation_course(
        subject, scenario, np.random.default_rng(args.seed))
    icg_day = ChfMonitor().run(course)
    weight_day = WeightMonitor().run(course)
    print(f"Subject {subject.subject_id}: {args.days}-day course, fluid "
          f"onset day {args.onset}")
    print(f"  ICG multi-parameter alert : day {icg_day}"
          + ("" if icg_day < 0 else
             f" ({icg_day - args.onset} days after onset)"))
    print(f"  weight-gain rule (2 kg/7d): "
          + (f"day {weight_day}" if weight_day >= 0 else "never fired"))
    return 0


def _render_cache_table(stats: dict, indent: str = "  ") -> None:
    for name, entry in stats.items():
        lookups = entry["hits"] + entry["misses"]
        rate = entry["hits"] / lookups if lookups else 0.0
        print(f"{indent}{name:8s}: {entry['entries']:3d} entries, "
              f"{entry['hits']:5d} hits / {entry['misses']:3d} misses "
              f"({rate * 100:5.1f} % hit rate)")


def _cmd_cache_stats(args) -> int:
    """Run a small cohort through the shared caches and report their
    hit/miss counters — the capacity-planning numbers (how much design
    work a warm process saves per recording).  Under
    ``--backend process`` the pool workers' process-local caches are
    invisible to this process, so each worker ships a snapshot home
    with its job batch and the per-worker rebuild counts (misses) are
    reported too."""
    cohort = default_cohort()
    config = SynthesisConfig(duration_s=args.duration)
    recordings = [
        synthesize_recording(subject, "device", 1, config)
        for subject in cohort
    ]
    process_batch(recordings, n_jobs=args.jobs, backend=args.backend)
    process_batch(recordings, n_jobs=args.jobs, backend=args.backend)
    print(f"Cache statistics after 2 x {len(recordings)} recordings "
          f"({args.duration:.0f} s each, backend={args.backend}):")
    _render_cache_table(cache_statistics())
    if args.backend == "process":
        workers = process_worker_cache_stats()
        print(f"Per-worker process-local caches ({len(workers)} "
              f"worker(s), rebuilds = misses):")
        for pid in sorted(workers):
            print(f"  worker pid {pid}:")
            _render_cache_table(workers[pid], indent="    ")
        stats = last_ipc_stats()
        if stats is not None:
            print("Shared-memory data plane (last fan-out):")
            print(f"  {stats.n_descriptors} descriptors | pipe "
                  f"{stats.payload_bytes / 1024:.1f} KiB | shm "
                  f"{stats.data_plane_bytes / 1024:.1f} KiB | "
                  f"collapse {stats.descriptor_collapse:.0f}x "
                  f"(legacy pickle plane: "
                  f"{stats.legacy_bytes / 1024:.1f} KiB)")
        pool = persistent_pool_stats()
        state = ("disabled" if not pool["enabled"] else
                 f"{pool['n_workers']} worker(s), pids "
                 f"{pool['pids']}" if pool["n_workers"] else "cold")
        print("Warm process pool (persistent across fan-outs):")
        print(f"  {pool['created']} built / {pool['reused']} reused "
              f"| {state}")
    _render_ingest_stats()
    return 0


def _render_ingest_stats() -> None:
    """Stream a small fleet through the ingest plane (plain chunks into
    a group-commit iovec journal) and report its counters: the
    capacity-planning numbers for durable ingest."""
    import tempfile

    fleet = DeviceFleet(FleetConfig(n_devices=3, duration_s=6.0,
                                    chunk_s=2.0, seed=2))
    reset_ingest_stats()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            with ChunkJournal(tmp, durability="group", codec="iov",
                              fsync=True) as journal:
                StreamingExecutor(n_workers=1, preview=False,
                                  journal=journal).run(fleet)
        except ReproError as exc:         # never block the report
            print(f"Ingest plane: unavailable ({exc})")
            return
    stats = ingest_stats()
    print(f"Ingest plane ({fleet.config.n_devices} devices through a "
          f"group-commit journal):")
    print(f"  journal: {stats.journal_records} records, "
          f"{stats.journal_bytes_written / 1024:.1f} KiB | "
          f"{stats.bytes_copied} B copied on the hot path")
    print(f"  group commit: {stats.group_flushes} flush(es), "
          f"{stats.group_fsyncs} fsync(s)")
    _render_serve_stats()


def _render_serve_stats() -> None:
    """Serve a tiny fleet through the supervised daemon and report the
    service counters — the same numbers the ``repro serve --status``
    endpoint exposes, from the same :func:`ingest_stats` source."""
    import tempfile

    fleet = DeviceFleet(FleetConfig(n_devices=2, duration_s=4.0,
                                    chunk_s=2.0, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            daemon = ServeDaemon(tmp, n_workers=1, health=False)
            results = daemon.run_once(fleet)
        except ReproError as exc:         # never block the report
            print(f"Serve daemon: unavailable ({exc})")
            return
    stats = ingest_stats()
    print(f"Serve daemon ({fleet.config.n_devices} supervised "
          f"sessions):")
    print(f"  sessions: {stats.serve_sessions_accepted} accepted | "
          f"{stats.serve_sessions_done} done | "
          f"{stats.serve_sessions_quarantined} quarantined | "
          f"{len(results)} finalized this pass")
    print(f"  policies: {stats.serve_sheds} shed(s), "
          f"{stats.serve_retries} retried fault(s), "
          f"{stats.serve_deadline_hits} deadline hit(s), "
          f"{stats.serve_degradations} degradation(s)")


_COMMANDS = {
    "measure": _cmd_measure,
    "cohort": _cmd_cohort,
    "study": _cmd_study,
    "merge": _cmd_merge,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "recover": _cmd_recover,
    "journal-gc": _cmd_journal_gc,
    "archive": _cmd_archive,
    "rehydrate": _cmd_rehydrate,
    "power": _cmd_power,
    "monitor": _cmd_monitor,
    "cache-stats": _cmd_cache_stats,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
