"""Streaming executor: offline parity, causal-preview invariance,
backpressure bounds, failure propagation."""

import numpy as np
import pytest

from repro.core import PipelineConfig, process_batch
from repro.errors import ConfigurationError, SignalError
from repro.ingest import (
    CausalIcgConditioner,
    DeviceFleet,
    FleetConfig,
    RecordingSource,
    StreamingExecutor,
    chunk_recording,
)
from repro.rt.streaming import StreamingBiquadCascade
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording

FLEET = FleetConfig(n_devices=4, duration_s=10.0, chunk_s=1.0, seed=5)


@pytest.fixture(scope="module")
def fleet():
    return DeviceFleet(FLEET)


@pytest.fixture(scope="module")
def fleet_results(fleet):
    executor = StreamingExecutor(n_workers=2, max_chunks=16)
    results = executor.run(fleet)
    return executor, results


def test_streaming_matches_offline_batch_bitwise(fleet, fleet_results):
    """The acceptance criterion: a session streamed chunk-by-chunk
    produces the same bits as the same recording through
    process_batch."""
    _, results = fleet_results
    recordings = [fleet.synthesize(d) for d in fleet.devices]
    offline = process_batch(recordings)
    for device, want in zip(fleet.devices, offline):
        got = results[device.session_id].result
        assert np.array_equal(got.icg, want.icg)
        assert np.array_equal(got.ecg_filtered, want.ecg_filtered)
        assert np.array_equal(got.r_peak_indices, want.r_peak_indices)
        assert np.array_equal(got.pep_s, want.pep_s)
        assert np.array_equal(got.lvet_s, want.lvet_s)
        assert got.z0_ohm == want.z0_ohm
        assert got.hr_bpm == want.hr_bpm


def test_streaming_process_finalize_matches_offline(fleet):
    executor = StreamingExecutor(n_workers=2, max_chunks=16)
    results = executor.run(fleet)
    offline = process_batch([fleet.synthesize(d) for d in fleet.devices])
    for device, want in zip(fleet.devices, offline):
        got = results[device.session_id].result
        assert np.array_equal(got.icg, want.icg)
        assert got.z0_ohm == want.z0_ohm


def test_session_results_carry_stream_bookkeeping(fleet, fleet_results):
    _, results = fleet_results
    assert set(results) == {d.session_id for d in fleet.devices}
    for session in results.values():
        assert session.n_chunks == 10          # 10 s in 1 s chunks
        assert session.first_arrival_s < session.last_arrival_s
        assert session.preview_icg.size == session.recording.n_samples


def test_queue_stats_respect_backpressure_bound(fleet):
    executor = StreamingExecutor(n_workers=2, max_chunks=4)
    executor.run(fleet)
    stats = executor.last_queue_stats
    assert stats.peak_depth <= 4
    assert stats.total_put == stats.total_got == 4 * 10
    chunk_bytes = 2 * 8 * int(FLEET.chunk_s * 250.0)
    assert stats.peak_bytes <= 4 * chunk_bytes


def test_byte_bound_limits_peak_memory(fleet):
    chunk_bytes = 2 * 8 * int(FLEET.chunk_s * 250.0)
    executor = StreamingExecutor(n_workers=2, max_chunks=None,
                                 max_bytes=3 * chunk_bytes)
    executor.run(fleet)
    assert executor.last_queue_stats.peak_bytes <= 3 * chunk_bytes
    assert executor.last_queue_stats.blocked_puts > 0


def test_preview_can_be_disabled(fleet):
    executor = StreamingExecutor(n_workers=1, max_chunks=8,
                                 preview=False)
    results = executor.run(fleet)
    assert all(s.preview_icg is None for s in results.values())


def test_incomplete_session_raises():
    recording = synthesize_recording(
        default_cohort()[0], "device", 1, SynthesisConfig(duration_s=8.0))
    truncated = list(chunk_recording(recording, "cut", 1.0))[:-1]
    executor = StreamingExecutor(max_chunks=8)
    with pytest.raises(ConfigurationError):
        executor.run(truncated)


def test_pipeline_failure_propagates():
    from repro.io import Recording

    n = int(8 * 250.0)
    flat = Recording(250.0, {"ecg": np.zeros(n), "z": np.full(n, 25.0)})
    executor = StreamingExecutor(max_chunks=8)
    with pytest.raises(SignalError):
        executor.run(RecordingSource(flat, "flat", 1.0))


def test_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        StreamingExecutor(n_workers=0)


# -- the causal per-chunk conditioner ------------------------------------


@pytest.fixture(scope="module")
def z_signal():
    recording = synthesize_recording(
        default_cohort()[2], "device", 1, SynthesisConfig(duration_s=10.0))
    return recording.channel("z"), recording.fs


@pytest.mark.parametrize("n_parts", [1, 3, 17])
def test_causal_conditioner_is_chunk_invariant(z_signal, n_parts):
    """Carried filter state makes the preview independent of chunk
    boundaries (to round-off: block alignment shifts the vectorized
    scan's summation order)."""
    z, fs = z_signal
    whole = CausalIcgConditioner(fs).process_chunk(z)
    conditioner = CausalIcgConditioner(fs)
    parts = np.concatenate([conditioner.process_chunk(part)
                            for part in np.array_split(z, n_parts)])
    np.testing.assert_allclose(parts, whole, rtol=0, atol=1e-9)


def test_causal_conditioner_matches_rt_kernels(z_signal):
    """The vectorized per-chunk path is the same filter the per-sample
    rt cascade computes — pinned here so the firmware view and the
    ingest view can never drift."""
    z, fs = z_signal
    z = z[: int(2.0 * fs)]                 # per-sample loop is slow
    config = PipelineConfig()
    conditioner = CausalIcgConditioner(fs, config)
    fast = conditioner.process_chunk(z)

    from repro.core.cache import FilterDesignCache

    cache = FilterDesignCache()
    lowpass = StreamingBiquadCascade(
        np.array(cache.icg_lowpass_sos(fs, config.icg)))
    highpass = StreamingBiquadCascade(
        np.array(cache.icg_highpass_sos(fs, config.icg)))
    previous = z[0]
    reference = np.empty_like(z)
    for i, sample in enumerate(z):
        icg = -(sample - previous) * fs
        previous = sample
        reference[i] = highpass.process(lowpass.process(icg))
    np.testing.assert_allclose(fast, reference, rtol=0, atol=1e-9)


def test_causal_conditioner_tracks_offline_shape(z_signal):
    """The causal preview is delayed but morphologically faithful:
    it must correlate strongly with the zero-phase offline ICG."""
    from repro.bioimpedance.analysis import pearson_correlation
    from repro.icg.preprocessing import icg_from_impedance

    z, fs = z_signal
    preview = CausalIcgConditioner(fs).process_chunk(z)
    offline = icg_from_impedance(z, fs)
    # Search the causal group delay for the best alignment.
    best = max(
        pearson_correlation(preview[lag:], offline[:-lag or None])
        for lag in range(1, int(0.3 * fs))
    )
    assert best > 0.8
