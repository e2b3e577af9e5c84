"""Cohort throughput: kernels, cache, and executor backends.

The stage-graph refactor (PR 1) made cohort workloads cheap by
memoizing filter designs; the vectorized DSP layer (PR 2) makes the
filter *applications* array-speed and adds a multi-core process
backend.  This bench measures recordings/sec for

* ``serial-cold``   — one pipeline per recording, each with a fresh
  design cache (the pre-refactor cost model);
* ``serial-warm``   — one shared cache, serial loop;
* ``batch-threads`` — the executor with ``n_jobs`` worker threads;
* ``batch-process`` — the executor over a process pool;
* the filtering kernel layer and the full pipeline under the scalar
  reference kernels vs the vectorized ones (via
  :mod:`perf_regression`, the shared measurement harness).

It asserts the structural claims (a warm second pass performs zero
filter designs; batch output is bit-identical to the serial loop; the
vectorized kernels match the scalar oracle and are >= 5x faster on
the kernel layer) and writes the rendered table plus JSON summaries:
``benchmarks/results/batch_throughput.json`` for the run, including a
fresh trajectory point.  The committed repo-root ``BENCH_PR2.json``
baseline the CI perf job gates against is refreshed only by the
explicit ``perf_regression.py --write-baseline`` flag, never by a
bench run.
"""

import json
import time

import numpy as np
import perf_regression
from conftest import save_artifact

from repro.core import BeatToBeatPipeline, FilterDesignCache, process_batch
from repro.experiments import format_table
from tests.oracles import scalar_sosfilt

N_JOBS = 4


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_batch_throughput(benchmark, results_dir):
    recordings, duration = perf_regression.cohort_recordings()

    def serial_cold():
        return [
            BeatToBeatPipeline(r.fs, cache=FilterDesignCache())
            .process_recording(r)
            for r in recordings
        ]

    warm_cache = FilterDesignCache()

    def serial_warm():
        return process_batch(recordings, n_jobs=1, cache=warm_cache)

    cold_results, cold_s = _timed(serial_cold)
    warm_results, warm_s = _timed(serial_warm)
    designs_after_first = warm_cache.misses
    # Second warm pass: every design must come from the cache.
    (warm_results, warm_s) = _timed(serial_warm)
    assert warm_cache.misses == designs_after_first, \
        "filters were re-designed on a repeated (fs, config) run"

    batch_results, batch_s = _timed(
        lambda: benchmark.pedantic(
            lambda: process_batch(recordings, n_jobs=N_JOBS,
                                  cache=warm_cache),
            rounds=1, iterations=1))
    process_results, process_s = _timed(
        lambda: process_batch(recordings, n_jobs=N_JOBS,
                              backend="process"))

    # Parallel fan-out — threads or processes — is bit-identical to
    # the serial loop.
    for serial, threaded, forked in zip(cold_results, batch_results,
                                        process_results):
        for parallel in (threaded, forked):
            assert np.array_equal(serial.r_peak_indices,
                                  parallel.r_peak_indices)
            assert np.array_equal(serial.pep_s, parallel.pep_s)
            assert np.array_equal(serial.icg, parallel.icg)

    # The vectorized kernels match the scalar oracle on real pipeline
    # output and clear the >= 5x bar on the filtering layer.
    probe = recordings[0]
    pipeline = BeatToBeatPipeline(probe.fs, cache=warm_cache)
    with scalar_sosfilt():
        reference = pipeline.process_recording(probe)
    vectorized = pipeline.process_recording(probe)
    scale = float(np.max(np.abs(reference.icg)))
    assert np.array_equal(reference.r_peak_indices,
                          vectorized.r_peak_indices)
    assert np.max(np.abs(reference.icg - vectorized.icg)) <= 1e-9 * scale

    # Kernel/pipeline speedups from the shared harness; the batch
    # figures are spliced in from the timings above instead of running
    # the whole cohort a second time.
    n = len(recordings)
    trajectory = perf_regression.measure(n_jobs=N_JOBS,
                                         include_batch=False,
                                         include_streaming=False,
                                         include_cohort_tier=False,
                                         include_storage=False,
                                         cohort=(recordings, duration))
    trajectory["batch"] = {
        "serial_rec_per_s": n / warm_s,
        "threads_rec_per_s": n / batch_s,
        "process_rec_per_s": n / process_s,
        "thread_scaling": warm_s / batch_s,
        "process_scaling": warm_s / process_s,
    }
    assert trajectory["kernels"]["speedup"] >= 5.0, \
        f"vectorized kernel speedup fell to " \
        f"{trajectory['kernels']['speedup']:.1f}x (< 5x)"
    summary = {
        "n_recordings": n,
        "duration_s_each": duration,
        "n_jobs": N_JOBS,
        "serial_cold": {"seconds": cold_s, "rec_per_s": n / cold_s},
        "serial_warm": {"seconds": warm_s, "rec_per_s": n / warm_s},
        "batch_threads": {"seconds": batch_s, "rec_per_s": n / batch_s},
        "batch_process": {"seconds": process_s,
                          "rec_per_s": n / process_s},
        "cache": warm_cache.stats(),
        "trajectory": trajectory,
    }
    # The committed trajectory baselines (BENCH_PR*.json) are
    # refreshed only by an explicit `perf_regression.py
    # --write-baseline` — a bench run on an arbitrary machine must
    # never silently loosen the CI gate.
    (results_dir / "batch_throughput.json").write_text(
        json.dumps(summary, indent=2) + "\n")

    rows = [
        [name, f"{entry['seconds']:.2f}", f"{entry['rec_per_s']:.2f}"]
        for name, entry in summary.items()
        if isinstance(entry, dict) and "seconds" in entry
    ]
    rows.append(["kernel speedup (scalar -> vectorized)",
                 "-", f"{trajectory['kernels']['speedup']:.1f}x"])
    rows.append(["pipeline speedup (scalar -> vectorized)",
                 "-", f"{trajectory['pipeline']['speedup']:.1f}x"])
    table = format_table(
        ["mode", "time (s)", "recordings/s"], rows,
        title=f"Batch throughput: {n} x {duration:.0f} s recordings "
              f"(n_jobs={N_JOBS})")
    save_artifact(results_dir, "batch_throughput", table)
