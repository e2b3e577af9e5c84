"""Run one benchmark workload and print its result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-paced --seed 1 \\
        --seconds 16 --trace 0

The program under test is imported from ``src/`` next to this
directory.  With ``--trace 0`` the result carries every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` every per-layer
metric, and the spans are written to ``.perfbench_out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds
provenance and sample counts.  Scratch files live under
``.perfbench_work/run-<pid>/`` and are removed on exit; every helper
process the program started is stopped and reaped before the result
line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "rec_per_s": "rec/s",
    "cohort_rec_per_s": "rec/s",
    "peak_rss_mb": "MB",
}

_STAGES = ("ecg_condition", "r_peaks", "icg_condition",
           "point_detection", "hemodynamics")

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    **{f"stages.{s}.self_ms_per_rec": "ms" for s in _STAGES},
    "stages.point_detection.beat_yield": "share",
    "stages.uncovered_ms_per_rec": "ms",
    "cohort.plan.self_ms": "ms",
    **{f"cohort.{s}.self_ms_per_rec": "ms" for s in _STAGES},
    "cohort.batched_share": "share",
    "queue.wait_ms.p50": "ms",
    "queue.wait_ms.p99": "ms",
    "queue.put_blocked_s": "s",
    "queue.blocked_puts": "count",
    "queue.peak_depth": "count",
    "queue.drain_calls_per_rec": "count",
    "journal.append_us.p50": "us",
    "journal.append_us.p99": "us",
    "journal.append.busy_s": "s",
    "journal.flush_ms.p50": "ms",
    "journal.bytes_written": "bytes",
    "journal.records_written": "count",
    "journal.scan_s": "s",
    "journal.scan_mb_per_s": "MB/s",
    "assemble_us.p50": "us",
    "assemble.busy_s": "s",
    "finalize.pool_wait_ms.p50": "ms",
    "finalize.pool_wait_ms.p99": "ms",
    "finalize.compute_ms.p50": "ms",
    "finalize.compute_ms.p99": "ms",
    "finalize.reap_lag_ms.p50": "ms",
    "finalize.reap_lag_ms.p99": "ms",
    "finalize.attempts_per_result": "count",
    "serve.trailer_barrier_ms.p50": "ms",
    "serve.sheds": "count",
    "serve.quarantined": "count",
    "serve.degradations": "count",
    "serve.retries": "count",
    "recover.replay_s": "s",
    "recover.records": "count",
    "recover.open_sessions": "count",
    "process.cpu_s_per_rec": "s",
    "baseline.serial_rec_per_s": "rec/s",
    "loadgen.lag_ms.p99": "ms",
    "loadgen.late_share": "share",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "share",
    # End-to-end latencies too jittery between runs to gate (see the
    # README), reported from the traced run's untraced pass.
    "result_latency_p50_ms": "ms",
    "result_latency_p99_ms": "ms",
    "ack_latency_p50_ms": "ms",
    "ack_latency_p99_ms": "ms",
}

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def pin_to_one_cpu() -> None:
    """Run the whole process on one CPU (the highest it may use).

    On a small shared host the GIL-bound daemon threads otherwise land
    on different CPUs from run to run, which makes the serve latencies
    bistable.  Pinning happens before numpy is imported, so its BLAS
    pool sizes itself to the one CPU as well; every commit is measured
    the same way.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def stop_helper_processes() -> None:
    """Stop every process the program started and wait for each.

    The arena ingest backend allocates ``multiprocessing`` shared
    memory, which starts the interpreter's resource-tracker process;
    a process backend would leave the warm worker pool.  Left to
    interpreter exit, they outlive this process for a moment and are
    reparented, so the run would end with a process still running.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.core.executor import shutdown_persistent_pool
    from repro.core.shm import detach_all

    shutdown_persistent_pool()
    detach_all()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Closing the tracker's pipe ends it; ``_stop`` also reaps it.
    resource_tracker._resource_tracker._stop()


def provenance(seed: int) -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": commit,
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = workloads.Workdir(Path(WORK_DIR) / f"run-{os.getpid()}")
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work)
    except workloads.InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        stop_helper_processes()
        work.close()
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    if args.trace:
        spec = PER_LAYER
        tracer = outcome.detail.pop("tracer", None)
        if tracer is not None:
            tracer.dump(Path(OUT_DIR) /
                        f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        spec = END_TO_END
        outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    missing = sorted(set(spec) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    for mismatch in outcome.mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    outcome.detail["ungated"] = {k: v for k, v in outcome.metrics.items()
                                 if k not in spec}
    print(json.dumps({"provenance": provenance(args.seed),
                      "workload": args.workload,
                      "detail": outcome.detail}))
    print(json.dumps({
        "correct": not outcome.mismatches,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": unit}
                    for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
