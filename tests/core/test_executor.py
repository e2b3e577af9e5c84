"""Batch executor: parity with the serial loop, ordering, fan-out,
job batching and IPC accounting."""

import pickle
from functools import partial

import numpy as np
import pytest

from repro.core import (
    BeatToBeatPipeline,
    FilterDesignCache,
    parallel_map,
    process_batch,
)
from repro.core.executor import (
    job_batches,
    last_ipc_stats,
    process_recording_job,
    process_worker_cache_stats,
    resolve_backend,
    resolve_n_jobs,
)
from repro.errors import ConfigurationError
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording

FS = 250.0


@pytest.fixture(scope="module")
def batch_recordings():
    """Six recordings across subjects/setups (one shared fs)."""
    cohort = default_cohort()
    config = SynthesisConfig(duration_s=12.0, fs=FS)
    recordings = [
        synthesize_recording(subject, "thoracic", 1, config)
        for subject in cohort[:3]
    ]
    recordings += [
        synthesize_recording(subject, "device", 2, config)
        for subject in cohort[:3]
    ]
    return recordings


def _assert_results_identical(batch, serial):
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        assert np.array_equal(got.r_peak_indices, want.r_peak_indices)
        assert np.array_equal(got.ecg_filtered, want.ecg_filtered)
        assert np.array_equal(got.icg, want.icg)
        assert np.array_equal(got.pep_s, want.pep_s)
        assert np.array_equal(got.lvet_s, want.lvet_s)
        assert got.z0_ohm == want.z0_ohm
        assert got.hr_bpm == want.hr_bpm


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_batch_identical_to_serial_loop(batch_recordings, n_jobs):
    """The acceptance criterion: bitwise-equal arrays per recording,
    serial or parallel."""
    serial = [
        BeatToBeatPipeline(r.fs, cache=FilterDesignCache())
        .process_recording(r)
        for r in batch_recordings
    ]
    batch = process_batch(batch_recordings, n_jobs=n_jobs,
                          cache=FilterDesignCache())
    _assert_results_identical(batch, serial)


def test_batch_preserves_input_order(batch_recordings):
    results = process_batch(batch_recordings, n_jobs=3,
                            cache=FilterDesignCache())
    for recording, result in zip(batch_recordings, results):
        assert result.fs == recording.fs
        assert result.z0_ohm == pytest.approx(
            recording.meta["true_z0_ohm"], rel=0.05)


def test_batch_shares_one_design_set(batch_recordings):
    cache = FilterDesignCache()
    process_batch(batch_recordings, cache=cache)
    # Five designs total for the whole cohort, not five per recording.
    assert len(cache) == 5
    assert cache.misses == 5


def test_batch_handles_mixed_sampling_rates():
    subject = default_cohort()[1]
    recordings = [
        synthesize_recording(subject, "thoracic", 1,
                             SynthesisConfig(duration_s=12.0, fs=fs,
                                             include_motion=False,
                                             include_powerline=False))
        for fs in (125.0, 250.0)
    ]
    results = process_batch(recordings, n_jobs=2)
    assert [r.fs for r in results] == [125.0, 250.0]
    # The serial loop designs on the caller's cache.
    cache = FilterDesignCache()
    process_batch(recordings, cache=cache)
    assert len(cache) == 10   # one design set per sampling rate


def test_empty_batch_returns_empty_list():
    assert process_batch([], cache=FilterDesignCache()) == []


def test_batch_propagates_processing_errors(batch_recordings):
    from repro.errors import SignalError
    from repro.io import Recording

    n = int(8 * FS)
    flat = Recording(FS, {"ecg": np.zeros(n), "z": np.full(n, 25.0)})
    with pytest.raises(SignalError):
        process_batch([batch_recordings[0], flat],
                      cache=FilterDesignCache())


def _boom(value):
    raise RuntimeError(f"job {value}")


def test_parallel_map_propagates_exceptions():
    with pytest.raises(RuntimeError):
        parallel_map(_boom, [1, 2, 3], n_jobs=2)


def test_batch_process_backend_identical_to_serial(batch_recordings):
    """The process pool returns the same bits as the serial loop —
    recordings and results round-trip through pickling unchanged."""
    serial = [
        BeatToBeatPipeline(r.fs, cache=FilterDesignCache())
        .process_recording(r)
        for r in batch_recordings
    ]
    forked = process_batch(batch_recordings, n_jobs=2,
                           backend="process")
    _assert_results_identical(forked, serial)


def test_batch_process_backend_preserves_order(batch_recordings):
    results = process_batch(batch_recordings, n_jobs=2,
                            backend="process")
    for recording, result in zip(batch_recordings, results):
        assert result.fs == recording.fs


def test_batch_process_backend_serial_fallback(batch_recordings):
    """n_jobs=1 with the process backend must not spawn a pool."""
    serial = process_batch(batch_recordings[:2], n_jobs=1,
                           backend="process",
                           cache=FilterDesignCache())
    want = process_batch(batch_recordings[:2], n_jobs=1,
                         cache=FilterDesignCache())
    _assert_results_identical(serial, want)


def _square(value):
    return value * value


def test_parallel_map_process_backend():
    items = list(range(12))
    assert parallel_map(_square, items, n_jobs=2) == [
        v * v for v in items]


def test_resolve_backend():
    assert resolve_backend(None) == "process"
    assert resolve_backend("process") == "process"
    for bad in ("thread", "fork", "greenlet", 3):
        with pytest.raises(ConfigurationError):
            resolve_backend(bad)


def test_resolve_n_jobs():
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(None) >= 1
    assert resolve_n_jobs(-1) >= 1
    for bad in (0, -2, 1.5, "two"):
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(bad)


def test_job_batches_preserve_order_and_partition():
    items = list(range(23))
    for n_batches in (1, 2, 5, 23, 40):
        batches = job_batches(items, n_batches)
        assert [i for batch in batches for i in batch] == items
        assert all(batches)                       # never empty
        sizes = [len(b) for b in batches]
        assert max(sizes) - min(sizes) <= 1       # near-equal
    assert job_batches([], 3) == []
    with pytest.raises(ConfigurationError):
        job_batches(items, 0)


def test_process_backend_pickles_config_once_per_worker(batch_recordings):
    """The chunked-IPC fix: the shared config/partial is hoisted into
    the worker initializer, so it crosses the pipe once per *worker*,
    not once per job — asserted via the executor's pickle-size
    counter."""
    from repro.core import PipelineConfig
    from repro.core.executor import process_shm_job

    config = PipelineConfig()
    n_workers = 2
    process_batch(batch_recordings, config, n_jobs=n_workers,
                  backend="process")
    stats = last_ipc_stats()
    assert stats is not None
    assert stats.n_items == len(batch_recordings)
    assert stats.n_workers == n_workers

    # The shared callable (partial closing over the config) ships with
    # the initializer — its pickle is paid n_workers times, where the
    # legacy per-job scheme paid it once per item.
    shared_bytes = len(pickle.dumps(partial(process_shm_job,
                                            config=config)))
    assert stats.shared_fn_bytes == shared_bytes
    assert stats.n_workers < stats.n_items
    assert stats.shipped_bytes < stats.legacy_bytes
    # Batching: far fewer submissions than items.
    assert stats.n_submissions <= 2 * n_workers < stats.n_items


def test_process_backend_ships_descriptors_not_arrays(batch_recordings):
    """The shared-memory data plane: every recording and every
    recording-length result array crosses as a (block, shape, dtype,
    offset) descriptor, so the pickled payload collapses to a constant
    per job while the float64 payload rides shared memory."""
    process_batch(batch_recordings, n_jobs=2, backend="process")
    stats = last_ipc_stats()
    assert stats is not None

    recordings_bytes = sum(len(pickle.dumps(r))
                           for r in batch_recordings)
    raw_signal_bytes = sum(
        sum(s.nbytes for s in r.signals.values())
        for r in batch_recordings)
    # Descriptors for: every signal/annotation + 2 result slots each.
    assert stats.n_descriptors >= 4 * len(batch_recordings)
    # The data plane carried at least the raw signals plus the two
    # same-length result arrays per recording.
    assert stats.data_plane_bytes >= 2 * raw_signal_bytes
    # The pipe carried orders of magnitude less than the old pickled
    # payload: at least a 10x collapse (it measures ~50-100x here).
    assert stats.payload_bytes * 10 < recordings_bytes
    assert stats.descriptor_collapse > 10.0
    # legacy_bytes now accounts for the array payload the pickle
    # scheme would have shipped.
    assert stats.legacy_bytes > stats.data_plane_bytes
    assert stats.shipped_bytes < stats.legacy_bytes / 10


def test_process_backend_results_are_shared_views(batch_recordings):
    """Result arrays come back as read-only views over the result
    arena — the parent never unpickles a recording-length array."""
    results = process_batch(batch_recordings[:3], n_jobs=2,
                            backend="process")
    for result in results:
        assert not result.ecg_filtered.flags.writeable
        assert not result.icg.flags.writeable
        # Values are still exactly the pipeline's output (spot check
        # against a fresh serial run).
    serial = [
        BeatToBeatPipeline(r.fs, cache=FilterDesignCache())
        .process_recording(r)
        for r in batch_recordings[:3]
    ]
    _assert_results_identical(results, serial)


def test_process_backend_reports_worker_cache_stats(batch_recordings):
    """Each worker's process-local cache counters come home with its
    job batches — the numbers `repro cache-stats --jobs 2`
    renders (misses = per-worker design rebuilds)."""
    process_batch(batch_recordings, n_jobs=2, backend="process")
    workers = process_worker_cache_stats()
    assert 1 <= len(workers) <= 2
    for stats in workers.values():
        assert set(stats) == {"designs", "kernels"}
        # Every worker that processed a recording rebuilt the designs
        # at least once (they cannot see the parent's cache).
        assert stats["designs"]["misses"] >= 1
        assert stats["designs"]["entries"] >= 1


def test_study_parallel_matches_serial():
    """run_study(n_jobs=2) reproduces the serial tables exactly on the
    process pool."""
    from repro.experiments import ProtocolConfig, run_study

    config = ProtocolConfig().quick()
    cohort = default_cohort()[:2]
    serial = run_study(cohort=cohort, config=config, n_jobs=1,
                       cache=FilterDesignCache())
    forked = run_study(cohort=cohort, config=config, n_jobs=2)
    for position in config.positions:
        assert (serial.correlation_table(position)
                == forked.correlation_table(position))
    assert serial.worst_case_error() == forked.worst_case_error()


def test_process_backend_falls_back_when_shared_memory_unavailable(
        batch_recordings, monkeypatch):
    """A host that cannot provide the arena (e.g. a /dev/shm cap) must
    degrade to the pickle plane, not fail the batch."""
    import repro.core.executor as executor

    def no_shm(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(executor, "ShmArena", no_shm)
    serial = [
        BeatToBeatPipeline(r.fs, cache=FilterDesignCache())
        .process_recording(r)
        for r in batch_recordings[:3]
    ]
    results = process_batch(batch_recordings[:3], n_jobs=2,
                            backend="process")
    _assert_results_identical(results, serial)
    stats = last_ipc_stats()
    assert stats.data_plane_bytes == 0          # pickle plane ran
    assert stats.payload_bytes > 100_000        # arrays over the pipe
