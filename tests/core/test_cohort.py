"""Cohort-batched tier: planning, bit-identical parity with the
per-recording oracle, and the demotion/fallback lattice.

``process_cohort`` stacks recording groups into leading-axis kernel
calls; the acceptance criterion is that nothing observable changes —
results arrive in input order, every array bit-identical to the serial
loop, and the first failing recording raises the same error at the
same input position.  Every parity test here compares against
:func:`tests.oracles.per_recording`, a plain ``process_recording``
loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.cohort as cohort_mod
from repro.core import (
    FilterDesignCache,
    plan_cohort,
    process_batch,
    process_cohort,
)
from repro.core.cohort import MIN_GROUP_ROWS
from repro.errors import ConfigurationError, SignalError
from repro.io import Recording
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording
from tests.oracles import per_recording

FS = 250.0


def _make_recording(fs=FS, n=4000, channels=("ecg", "z"), seed=0):
    """A cheap synthetic Recording for planning tests (not processable)."""
    rng = np.random.default_rng(seed)
    return Recording(fs=fs, signals={
        name: rng.standard_normal(n) for name in channels})


@pytest.fixture(scope="module")
def pool():
    """Nine recordings across subjects, rates and length buckets."""
    cohort = default_cohort()
    recordings = []
    for i, duration in enumerate([9.0, 9.0, 9.0]):
        recordings.append(synthesize_recording(
            cohort[i], "thoracic", 1 + i % 3,
            SynthesisConfig(duration_s=duration, fs=FS)))
    for i in range(2):
        recordings.append(synthesize_recording(
            cohort[i], "thoracic", 1 + i,
            SynthesisConfig(duration_s=10.0, fs=200.0)))
    for i in range(2):
        recordings.append(synthesize_recording(
            cohort[i + 2], "device", 1 + i,
            SynthesisConfig(duration_s=16.5, fs=FS)))
    recordings.append(synthesize_recording(
        cohort[4], "thoracic", 3, SynthesisConfig(duration_s=9.0, fs=FS)))
    recordings.append(synthesize_recording(
        cohort[3], "thoracic", 2, SynthesisConfig(duration_s=10.0, fs=200.0)))
    return recordings


@pytest.fixture(scope="module")
def oracle(pool):
    """Per-recording reference results, one pipeline per rate."""
    return per_recording(pool, cache=FilterDesignCache())


def _assert_identical(got, want):
    assert np.array_equal(got.r_peak_indices, want.r_peak_indices)
    assert np.array_equal(got.ecg_filtered, want.ecg_filtered)
    assert np.array_equal(got.icg, want.icg)
    assert np.array_equal(got.pep_s, want.pep_s)
    assert np.array_equal(got.lvet_s, want.lvet_s)
    assert got.z0_ohm == want.z0_ohm
    assert got.hr_bpm == want.hr_bpm


# --- planning ------------------------------------------------------------

def test_plan_groups_by_rate_and_length_bucket():
    recordings = ([_make_recording(fs=250.0, n=2250, seed=i)
                   for i in range(3)]
                  + [_make_recording(fs=200.0, n=2000, seed=i)
                     for i in range(2)]
                  + [_make_recording(fs=250.0, n=4125, seed=i)
                     for i in range(2)])
    plan = plan_cohort(recordings)
    keys = sorted((g.fs, g.width, len(g.indices)) for g in plan.groups)
    assert keys == [(200.0, 2000, 2), (250.0, 2250, 3), (250.0, 4125, 2)]
    assert plan.singles == ()
    assert plan.n_batched == 7 and plan.n_per_recording == 0


def test_plan_partitions_input_indices(pool):
    plan = plan_cohort(pool)
    covered = sorted(i for g in plan.groups for i in g.indices)
    covered += list(plan.singles)
    assert sorted(covered) == list(range(len(pool)))


def test_plan_routes_unbatchable_recordings_to_singles():
    batchable = [_make_recording(n=2250, seed=i) for i in range(2)]
    short = _make_recording(n=400)            # < the 2 s learning phase
    no_z = _make_recording(n=2250, channels=("ecg",))
    lone_rate = _make_recording(fs=125.0, n=2250)   # singleton group
    plan = plan_cohort(batchable + [short, no_z, lone_rate])
    assert plan.singles == (2, 3, 4)
    assert len(plan.groups) == 1 and plan.groups[0].indices == (0, 1)


def test_plan_splits_oversized_groups_into_slabs():
    recordings = [_make_recording(n=2250, seed=i) for i in range(7)]
    plan = plan_cohort(recordings, max_group_rows=3)
    assert [len(g.indices) for g in plan.groups] == [3, 3]
    # The trailing 1-recording slab stacks nothing: per-recording.
    assert plan.singles == (6,)
    with pytest.raises(ConfigurationError):
        plan_cohort(recordings, max_group_rows=MIN_GROUP_ROWS - 1)


# --- parity with the per-recording oracle --------------------------------

def test_cohort_bit_identical_to_serial(pool, oracle):
    results = process_cohort(pool, cache=FilterDesignCache())
    plan = plan_cohort(pool)
    assert plan.n_batched >= 7        # the tier actually batched
    for got, want in zip(results, oracle):
        _assert_identical(got, want)


def test_process_batch_routes_cohort_backend(pool, oracle):
    results = process_batch(pool, backend="cohort",
                            cache=FilterDesignCache())
    for got, want in zip(results, oracle):
        _assert_identical(got, want)


def test_empty_and_singleton_cohorts(pool, oracle):
    assert process_cohort([]) == []
    results = process_cohort([pool[0]], cache=FilterDesignCache())
    _assert_identical(results[0], oracle[0])


def test_all_distinct_rates_run_per_recording(pool, oracle):
    """One recording per rate: every group is a singleton, the whole
    cohort takes per-recording dispatch — and still matches."""
    subset = [pool[0], pool[3]]               # 250 Hz, 200 Hz
    plan = plan_cohort(subset)
    assert plan.groups == () and plan.singles == (0, 1)
    results = process_cohort(subset, cache=FilterDesignCache())
    _assert_identical(results[0], oracle[0])
    _assert_identical(results[1], oracle[3])


def test_ragged_bucket_parity(pool, oracle):
    """Mixed lengths inside one bucket exercise the zero-pad masking."""
    subset = [pool[0], pool[1], pool[8], pool[2]]
    plan = plan_cohort(subset)
    assert any(len(g.indices) >= 3 for g in plan.groups)
    results = process_cohort(subset, cache=FilterDesignCache())
    for got, want in zip(results, [oracle[0], oracle[1], oracle[8],
                                   oracle[2]]):
        _assert_identical(got, want)


@settings(max_examples=12, deadline=None)
@given(indices=st.lists(st.integers(min_value=0, max_value=8),
                        min_size=0, max_size=8))
def test_hypothesis_cohort_parity(indices, pool, oracle):
    """Random multisets of the pool (mixed rates, ragged buckets,
    repeats, empty/singleton cohorts): bit-identical, in order."""
    subset = [pool[i] for i in indices]
    results = process_cohort(subset, cache=FilterDesignCache())
    assert len(results) == len(indices)
    for got, i in zip(results, indices):
        _assert_identical(got, oracle[i])


# --- failure semantics ---------------------------------------------------

def _flat_recording(template):
    """Same shape/rate as ``template`` but with an R-peak-free ECG."""
    n = template.n_samples
    return Recording(fs=template.fs, signals={
        "ecg": np.zeros(n), "z": np.full(n, 25.0)})


def test_row_failure_raises_at_input_position(pool):
    """A batched row with too few R peaks raises exactly where — and
    what — the serial loop would have raised."""
    recordings = [pool[0], pool[1], _flat_recording(pool[2]), pool[2]]
    plan = plan_cohort(recordings)
    assert any(2 in g.indices for g in plan.groups)  # batched, not demoted
    with pytest.raises(SignalError) as batched_err:
        process_cohort(recordings, cache=FilterDesignCache())
    with pytest.raises(SignalError) as serial_err:
        per_recording(recordings, cache=FilterDesignCache())
    assert str(batched_err.value) == str(serial_err.value)
    assert "fewer than two R peaks" in str(batched_err.value)


def test_group_failure_demotes_slab_to_per_recording(pool, oracle,
                                                     monkeypatch):
    """Any batched-stage crash sends the slab through per-recording
    dispatch — correctness never depends on the batched tier."""
    def boom(*args, **kwargs):
        raise RuntimeError("batched stage exploded")

    monkeypatch.setattr(cohort_mod, "_run_group", boom)
    results = process_cohort(pool[:4], cache=FilterDesignCache())
    for got, want in zip(results, oracle[:4]):
        _assert_identical(got, want)


def test_pipeline_construction_errors_surface_first(pool):
    """An unusable rate raises at pipeline construction, before any
    recording is touched — matching the serial path's eager builds."""
    # 20 Hz puts the Pan-Tompkins passband above Nyquist; the serial
    # path raises while building its pipelines, and so must we.
    recordings = [pool[0], _make_recording(fs=20.0, n=2250)]
    with pytest.raises(ConfigurationError):
        process_cohort(recordings, cache=FilterDesignCache())
    with pytest.raises(ConfigurationError):
        per_recording(recordings, cache=FilterDesignCache())
