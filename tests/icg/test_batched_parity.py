"""Batched point-detection/hemodynamics vs the per-beat oracle.

The contract under test is *bit-identity*: the beat-batched kernels of
``repro.icg.batch`` and the batched hemodynamics of
``repro.icg.hemodynamics`` must reproduce the original per-beat loops
exactly — same ``BeatPoints`` (including the fractional ``b0_index``),
same failure tuples in the same order with the same messages, same
hemodynamic floats — across synth subjects, sampling rates, configs
and degenerate inputs (0 analysable beats, 1 beat, truncated last
window, non-monotonic R indices).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BeatToBeatPipeline, FilterDesignCache, PipelineConfig
from repro.core.context import BeatContext
from repro.core.stages import default_stage_graph
from repro.icg.batch import BeatLandmarks, detect_all_points_batched
from repro.icg.hemodynamics import (
    HemodynamicsEstimator,
    systolic_intervals,
    systolic_intervals_from_landmarks,
)
from repro.icg.points import (
    PointConfig,
    _detect_all_points_ref,
    detect_all_points,
)
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording
from tests.oracles import reference_pipeline

FS = 250.0

_GRAPH = default_stage_graph().upto("icg_condition")
_CACHE = FilterDesignCache()


def conditioned(subject_index=0, setup="device", fs=FS, duration_s=10.0):
    """(icg, r_peaks) of one synthesized, conditioned recording."""
    subject = default_cohort()[subject_index]
    recording = synthesize_recording(
        subject, setup, 1, SynthesisConfig(duration_s=duration_s, fs=fs))
    ctx = BeatContext.from_signals(recording.channel("ecg"),
                                   recording.channel("z"), fs,
                                   cache=_CACHE)
    ctx = _GRAPH.run(ctx)
    return ctx.icg, ctx.r_peak_indices


def assert_identical(icg, fs, r_indices, config=None, rt=None):
    ref_points, ref_failures = _detect_all_points_ref(
        np.asarray(icg, dtype=float), fs,
        np.asarray(r_indices, dtype=int), config, rt)
    points, failures, landmarks = detect_all_points_batched(
        icg, fs, r_indices, config, rt)
    assert points == ref_points          # dataclass equality: all fields
    assert failures == ref_failures      # same beats, same messages
    assert landmarks.to_points() == points
    return points, failures, landmarks


# --- synth-subject sweep --------------------------------------------------

@pytest.mark.parametrize("subject_index", range(5))
@pytest.mark.parametrize("setup", ["device", "thoracic"])
def test_batched_matches_reference_across_cohort(subject_index, setup):
    icg, r_peaks = conditioned(subject_index, setup)
    assert_identical(icg, FS, r_peaks)


@pytest.mark.parametrize("fs", [125.0, 250.0, 500.0, 1000.0])
def test_batched_matches_reference_across_rates(fs):
    icg, r_peaks = conditioned(1, fs=fs)
    points, failures, _ = assert_identical(icg, fs, r_peaks)
    assert points or failures            # the sweep exercised something


@pytest.mark.parametrize("config", [
    PointConfig(),
    PointConfig(line_fit_low=0.2, line_fit_high=0.95),
    PointConfig(sign_tolerance_fraction=0.0),
    PointConfig(b_search_window_s=0.02),
    PointConfig(x_search_window_s=0.01),
    PointConfig(min_c_delay_s=0.12),
])
def test_batched_matches_reference_across_configs(config):
    icg, r_peaks = conditioned(2)
    assert_identical(icg, FS, r_peaks, config)


def test_batched_matches_reference_rt_window_strategy():
    icg, r_peaks = conditioned(0)
    config = PointConfig(x_strategy="rt_window")
    rt = np.full(r_peaks.size - 1, 0.30)
    assert_identical(icg, FS, r_peaks, config, rt)
    # Missing RT intervals: every surviving beat fails with the same
    # message the reference produces.
    assert_identical(icg, FS, r_peaks, config, None)


# --- degenerate geometries ------------------------------------------------

def test_single_beat_window():
    icg, r_peaks = conditioned(0)
    pair = np.array([int(r_peaks[0]), int(r_peaks[1])])
    points, failures, landmarks = assert_identical(icg, FS, pair)
    assert len(points) + len(failures) == 1
    assert landmarks.n_beats == len(points)


def test_zero_analysable_beats_all_failures():
    """A flat-negative signal fails every beat — identically."""
    icg = np.full(2000, -1.0)
    r_peaks = np.array([0, 400, 800, 1200])
    points, failures, landmarks = assert_identical(icg, FS, r_peaks)
    assert points == []
    assert len(failures) == 3
    assert landmarks.n_beats == 0


def test_truncated_last_window_fails_like_reference():
    """An R peak past the end of the signal (device disconnected
    mid-beat) must produce the reference's exact failure message."""
    icg, r_peaks = conditioned(0)
    truncated = np.append(r_peaks, icg.size + 500)
    points, failures, _ = assert_identical(icg, FS, truncated)
    assert failures[-1][0] == truncated.size - 2
    assert "invalid beat window" in failures[-1][1]


def test_short_beat_windows_fail_like_reference():
    icg, r_peaks = conditioned(0)
    crowded = np.sort(np.concatenate(
        [r_peaks, r_peaks[:-1] + 10]))       # 40 ms beats interleaved
    assert_identical(icg, FS, crowded)


def test_non_monotonic_r_indices_fall_back_to_reference():
    icg, r_peaks = conditioned(0)
    jumbled = np.array([int(r_peaks[0]), int(r_peaks[2]),
                        int(r_peaks[1]), int(r_peaks[3])])
    assert_identical(icg, FS, jumbled)


# --- hypothesis: random signals and windows -------------------------------

@st.composite
def signal_and_peaks(draw):
    n = draw(st.integers(min_value=300, max_value=2500))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    # Smooth-ish random signal with beat-scale structure.
    base = rng.standard_normal(n)
    kernel = np.hanning(25)
    icg = np.convolve(base, kernel / kernel.sum(), mode="same")
    icg += 0.5 * np.sin(np.arange(n) * 2 * np.pi / 180.0)
    n_peaks = draw(st.integers(min_value=2, max_value=8))
    peaks = draw(st.lists(st.integers(min_value=0, max_value=n + 50),
                          min_size=n_peaks, max_size=n_peaks))
    return icg, np.sort(np.asarray(peaks, dtype=int))


@settings(max_examples=60, deadline=None)
@given(signal_and_peaks())
def test_batched_matches_reference_on_random_inputs(case):
    icg, r_indices = case
    if np.any(np.diff(r_indices) == 0):
        r_indices = r_indices + np.arange(r_indices.size)  # de-dup, sorted
    try:
        ref = _detect_all_points_ref(np.asarray(icg, float), FS,
                                     np.asarray(r_indices, int), None)
    except Exception as exc:                  # noqa: BLE001
        with pytest.raises(type(exc)):
            detect_all_points_batched(icg, FS, r_indices, None)
        return
    points, failures, _ = detect_all_points_batched(icg, FS, r_indices,
                                                    None)
    assert (points, failures) == ref


# --- public entry point ---------------------------------------------------

def test_detect_all_points_dispatches_by_backend():
    """The public entry point runs the batched kernels and answers
    exactly what the per-beat reference loop answers."""
    icg, r_peaks = conditioned(0)
    batched = detect_all_points(icg, FS, r_peaks)
    reference = _detect_all_points_ref(icg, FS, np.asarray(r_peaks, int))
    assert batched == reference


# --- batched hemodynamics -------------------------------------------------

def _landmarks_and_points():
    icg, r_peaks = conditioned(0)
    points, _, landmarks = detect_all_points_batched(icg, FS, r_peaks)
    return icg, points, landmarks


def test_systolic_intervals_from_landmarks_bit_identical():
    icg, points, landmarks = _landmarks_and_points()
    ref = systolic_intervals(points, FS)
    got = systolic_intervals_from_landmarks(landmarks, FS)
    assert np.array_equal(ref.pep_s, got.pep_s)
    assert np.array_equal(ref.lvet_s, got.lvet_s)


def test_estimate_series_bit_identical_to_estimate_all():
    icg, points, landmarks = _landmarks_and_points()
    estimator = HemodynamicsEstimator(FS, 30.0, 178.0,
                                      z0_calibration=0.06,
                                      dzdt_calibration=3.3)
    ref = estimator.estimate_all(points, icg)
    assert estimator.estimate_landmarks(landmarks, icg) == ref
    series = estimator.estimate_series(landmarks, icg)
    assert series.n_beats == len(ref)
    assert series.to_beats() == ref


def test_estimate_series_raises_like_per_beat_loop():
    icg, points, landmarks = _landmarks_and_points()
    estimator = HemodynamicsEstimator(FS, 30.0, 178.0)
    # Negate the ICG at the first beat's C index: dzdt <= 0 there.
    broken = icg.copy()
    broken[points[0].c_index] = -1.0
    from repro.errors import SignalError

    with pytest.raises(SignalError):
        estimator.estimate_all(points, broken)
    with pytest.raises(SignalError):
        estimator.estimate_series(landmarks, broken)


@pytest.mark.parametrize("fs", [250.0, 500.0])
def test_full_pipeline_identical_across_backends(fs):
    """End to end: the production (batched) chain equals the reference
    chain (per-beat point loop, hence per-beat hemodynamics) bit for
    bit — at the protocol rate and at the 500 Hz the recovery
    benchmark's fleet records at."""
    subject = default_cohort()[0]
    recording = synthesize_recording(
        subject, "device", 1, SynthesisConfig(duration_s=12.0, fs=fs))
    config = PipelineConfig(height_cm=180.0)
    cache = FilterDesignCache()
    batched = BeatToBeatPipeline(fs, config, cache=cache) \
        .process_recording(recording)
    reference = reference_pipeline(fs, config, cache=cache) \
        .process_recording(recording)
    assert batched.points == reference.points
    assert batched.failures == reference.failures
    assert np.array_equal(batched.pep_s, reference.pep_s)
    assert np.array_equal(batched.lvet_s, reference.lvet_s)
    assert batched.beat_hemodynamics == reference.beat_hemodynamics
    assert batched.hr_bpm == reference.hr_bpm
    assert batched.z0_ohm == reference.z0_ohm


def test_landmarks_roundtrip_points():
    _, points, landmarks = _landmarks_and_points()
    assert BeatLandmarks.from_points(points).to_points() == points


def test_estimate_series_empty_icg_raises_like_per_beat_loop():
    """Exception parity on a degenerate input: an empty ICG must raise
    the per-beat loop's SignalError, not an IndexError."""
    import numpy as np
    import pytest

    from repro.errors import SignalError

    _, points, landmarks = _landmarks_and_points()
    estimator = HemodynamicsEstimator(FS, 30.0, 178.0)
    empty = np.empty(0)
    with pytest.raises(SignalError):
        estimator.estimate_all(points, empty)
    with pytest.raises(SignalError):
        estimator.estimate_series(landmarks, empty)


def test_estimate_series_validates_electrode_distance():
    """A non-positive electrode distance raises the same
    ConfigurationError the per-beat kubicek call produces."""
    import pytest

    from repro.errors import ConfigurationError

    icg, points, landmarks = _landmarks_and_points()
    estimator = HemodynamicsEstimator(FS, 30.0, 178.0,
                                      electrode_distance_cm=-2.0)
    with pytest.raises(ConfigurationError):
        estimator.estimate_all(points, icg)
    with pytest.raises(ConfigurationError):
        estimator.estimate_series(landmarks, icg)
