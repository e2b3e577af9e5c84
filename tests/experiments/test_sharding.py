"""Shard partition/merge: determinism, bit-identity with the serial
study, validation of incomplete or inconsistent shard sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.experiments import (
    ProtocolConfig,
    StudyShard,
    merge_shards,
    partition_jobs,
    run_study,
    run_study_shard,
    study_jobs,
)
from repro.synth import default_cohort

CONFIG = ProtocolConfig().quick()
COHORT = default_cohort()[:2]
N_SHARDS = 3


@pytest.fixture(scope="module")
def serial_study():
    return run_study(cohort=COHORT, config=CONFIG)


@pytest.fixture(scope="module")
def shards():
    return [run_study_shard(cohort=COHORT, config=CONFIG,
                            n_shards=N_SHARDS, shard_index=i)
            for i in range(N_SHARDS)]


def _assert_studies_identical(got, want):
    """Bit-level equality of two study results, including dict
    iteration order (the merge re-canonicalises insertion order)."""
    assert got.subject_ids == want.subject_ids
    assert got.config == want.config
    assert list(got.device) == list(want.device)
    assert list(got.thoracic) == list(want.thoracic)
    for store in ("device", "thoracic"):
        for key, want_analysis in getattr(want, store).items():
            got_analysis = getattr(got, store)[key]
            assert np.array_equal(got_analysis.ensemble_beat,
                                  want_analysis.ensemble_beat)
            for field in ("subject_id", "setup", "position",
                          "frequency_hz", "mean_z0_ohm", "hr_bpm",
                          "n_beats", "n_failures"):
                assert (getattr(got_analysis, field)
                        == getattr(want_analysis, field))
            for field in ("mean_pep_s", "mean_lvet_s"):
                a = getattr(got_analysis, field)
                b = getattr(want_analysis, field)
                assert a == b or (np.isnan(a) and np.isnan(b))
    for position in want.config.positions:
        assert (got.correlation_table(position)
                == want.correlation_table(position))
    assert got.relative_errors() == want.relative_errors()
    assert got.worst_case_error() == want.worst_case_error()
    assert got.mean_correlation() == want.mean_correlation()


# -- partitioning --------------------------------------------------------


def test_partition_is_disjoint_and_exhaustive():
    jobs = list(range(23))
    for n_shards in (1, 2, 5, 23, 30):
        parts = [partition_jobs(jobs, n_shards, i)
                 for i in range(n_shards)]
        merged = [job for part in parts for job in part]
        assert sorted(merged) == jobs
        assert sum(len(p) for p in parts) == len(jobs)


def test_partition_validation():
    with pytest.raises(ConfigurationError):
        partition_jobs([1], 0, 0)
    with pytest.raises(ConfigurationError):
        partition_jobs([1], 2, 2)
    with pytest.raises(ConfigurationError):
        partition_jobs([1], 2, -1)


def test_study_jobs_are_deterministic():
    first = study_jobs(COHORT, CONFIG)
    second = study_jobs(COHORT, CONFIG)
    assert [(j[0], j[1]) for j in first] == [(j[0], j[1]) for j in second]
    # thoracic + 3 positions per (subject, frequency)
    assert len(first) == len(COHORT) * len(CONFIG.frequencies_hz) * (
        1 + len(CONFIG.positions))


# -- the acceptance criterion --------------------------------------------


def test_merged_shards_reproduce_serial_study(serial_study, shards):
    _assert_studies_identical(merge_shards(shards), serial_study)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_any_shard_permutation_merges_identically(data):
    """Property: merging the shard artifacts in any order reproduces
    the serial study bit-identically.

    Shards are computed once per test session (the fixtures cannot be
    reused inside ``@given``, so module-level laziness stands in)."""
    permutation = data.draw(st.permutations(range(N_SHARDS)))
    shards = _lazy_shards()
    serial = _lazy_serial()
    _assert_studies_identical(
        merge_shards([shards[i] for i in permutation]), serial)


_CACHE = {}


def _lazy_shards():
    if "shards" not in _CACHE:
        _CACHE["shards"] = [
            run_study_shard(cohort=COHORT, config=CONFIG,
                            n_shards=N_SHARDS, shard_index=i)
            for i in range(N_SHARDS)
        ]
    return _CACHE["shards"]


def _lazy_serial():
    if "serial" not in _CACHE:
        _CACHE["serial"] = run_study(cohort=COHORT, config=CONFIG)
    return _CACHE["serial"]


@pytest.mark.parametrize("n_shards", [1, 2, 5, 16, 40])
def test_every_shard_count_merges_identically(n_shards, serial_study):
    """More shards than jobs is legal: surplus shards are empty."""
    shards = [run_study_shard(cohort=COHORT, config=CONFIG,
                              n_shards=n_shards, shard_index=i)
              for i in range(n_shards)]
    _assert_studies_identical(merge_shards(shards), serial_study)


def test_parallel_shard_execution_matches(serial_study):
    shards = [run_study_shard(cohort=COHORT, config=CONFIG,
                              n_shards=2, shard_index=i, n_jobs=2)
              for i in range(2)]
    _assert_studies_identical(merge_shards(shards), serial_study)


# -- merge validation ----------------------------------------------------


def test_merge_rejects_incomplete_set(shards):
    with pytest.raises(ProtocolError):
        merge_shards(shards[:-1])
    with pytest.raises(ProtocolError):
        merge_shards([])


def test_merge_rejects_duplicates(shards):
    with pytest.raises(ProtocolError):
        merge_shards([shards[0], shards[0], shards[1]])


def test_merge_rejects_mismatched_protocols(shards):
    other = run_study_shard(cohort=COHORT,
                            config=ProtocolConfig(duration_s=13.0,
                                                  frequencies_hz=(
                                                      50_000.0,)),
                            n_shards=N_SHARDS, shard_index=1)
    with pytest.raises(ProtocolError):
        merge_shards([shards[0], other, shards[2]])


def test_merge_rejects_disagreeing_shard_counts(shards):
    stray = run_study_shard(cohort=COHORT, config=CONFIG,
                            n_shards=N_SHARDS + 1, shard_index=1)
    with pytest.raises(ProtocolError):
        merge_shards([shards[0], stray, shards[2]])


def test_merge_detects_missing_jobs(shards):
    hollow = StudyShard(config=CONFIG,
                        subject_ids=[s.subject_id for s in COHORT],
                        n_shards=N_SHARDS, shard_index=1,
                        n_jobs_total=shards[1].n_jobs_total)
    with pytest.raises(ProtocolError):
        merge_shards([shards[0], hollow, shards[2]])
