"""Warm persistent process pool: reuse across fan-outs, lifecycle
hygiene, and the per-submission shipping protocol.

``process_batch``/``run_study`` used to rebuild a process pool per
call, paying worker spawn and per-worker cache warm-up every time.
The executor now keeps one lazily-created pool warm across calls;
these tests pin the observable contract: the *same worker PIDs* serve
consecutive fan-outs, reuse/create counters are reported, and shutdown
is explicit and idempotent.
"""

import os

import numpy as np
import pytest

from repro.core import (
    BATCH_BACKENDS,
    BeatToBeatPipeline,
    FilterDesignCache,
    persistent_pool_stats,
    persistent_process_pool,
    process_batch,
    shutdown_persistent_pool,
)
from repro.core.executor import BACKENDS, process_worker_cache_stats
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording

FS = 250.0


def _square(value):
    return value * value


@pytest.fixture(scope="module")
def recordings():
    cohort = default_cohort()
    config = SynthesisConfig(duration_s=9.0, fs=FS)
    return [synthesize_recording(subject, "thoracic", 1, config)
            for subject in cohort[:4]]


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a warm pool."""
    shutdown_persistent_pool()
    yield
    shutdown_persistent_pool()


def test_batch_backends_supersets_pool_backends():
    assert set(BACKENDS) < set(BATCH_BACKENDS)
    assert "cohort" in BATCH_BACKENDS


def test_consecutive_batches_reuse_the_same_workers(recordings):
    """The satellite acceptance check: two back-to-back process
    fan-outs are served by the *same* worker processes."""
    before = persistent_pool_stats()
    process_batch(recordings, n_jobs=2, backend="process")
    first_pids = set(process_worker_cache_stats())
    process_batch(recordings, n_jobs=2, backend="process")
    second_pids = set(process_worker_cache_stats())
    after = persistent_pool_stats()
    assert first_pids and first_pids == second_pids
    assert after["created"] == before["created"] + 1
    assert after["reused"] >= before["reused"] + 1
    assert after["n_workers"] == 2
    assert set(after["pids"]) == first_pids


def test_warm_results_stay_bit_identical(recordings):
    """Reuse must not leak state between fan-outs: the second warm
    call still matches the serial loop exactly."""
    serial = [BeatToBeatPipeline(r.fs, cache=FilterDesignCache())
              .process_recording(r) for r in recordings]
    process_batch(recordings, n_jobs=2, backend="process")
    warm = process_batch(recordings, n_jobs=2, backend="process")
    for got, want in zip(warm, serial):
        assert np.array_equal(got.ecg_filtered, want.ecg_filtered)
        assert np.array_equal(got.icg, want.icg)
        assert np.array_equal(got.r_peak_indices, want.r_peak_indices)


def test_width_change_recreates_the_pool(recordings):
    """A fan-out asking for a different worker count cannot reuse the
    warm pool — it is torn down and rebuilt at the new width."""
    before = persistent_pool_stats()["created"]
    process_batch(recordings, n_jobs=2, backend="process")
    pids_wide = set(process_worker_cache_stats())
    process_batch(recordings, n_jobs=3, backend="process")
    pids_wider = set(process_worker_cache_stats())
    stats = persistent_pool_stats()
    assert stats["created"] == before + 2
    assert stats["n_workers"] == 3
    assert not (pids_wide & pids_wider)


def test_shutdown_is_idempotent_and_clears_the_pool(recordings):
    process_batch(recordings[:2], n_jobs=2, backend="process")
    assert persistent_pool_stats()["pids"]
    shutdown_persistent_pool()
    stats = persistent_pool_stats()
    assert stats["n_workers"] is None and stats["pids"] == []
    shutdown_persistent_pool()                  # second call: no-op
    # The next fan-out simply warms a fresh pool.
    process_batch(recordings[:2], n_jobs=2, backend="process")
    assert persistent_pool_stats()["pids"]


def test_persistent_process_pool_context_manager():
    """Direct submissions (the streaming finalize path) route through
    the same warm pool and leave it warm on exit."""
    before = persistent_pool_stats()["reused"]
    with persistent_process_pool(2) as pool:
        futures = [pool.submit(_square, v) for v in range(5)]
        assert [f.result() for f in futures] == [0, 1, 4, 9, 16]
    # Exiting the context must NOT tear down the warm pool.
    assert persistent_pool_stats()["n_workers"] == 2
    with persistent_process_pool(2) as pool:
        assert pool.submit(_square, 7).result() == 49
    assert persistent_pool_stats()["reused"] >= before + 1


def test_pool_survives_worker_death(recordings):
    """A broken pool is discarded and the fan-out retried on a fresh
    one — jobs are pure, so the retry is safe and invisible."""
    process_batch(recordings[:2], n_jobs=2, backend="process")
    stats = persistent_pool_stats()
    victim = stats["pids"][0]
    os.kill(victim, 9)
    results = process_batch(recordings[:2], n_jobs=2, backend="process")
    assert len(results) == 2
    fresh = persistent_pool_stats()
    assert victim not in fresh["pids"]
