"""Crash recovery: the bit-identity property and the journal-attached
executor semantics.

The acceptance criterion of the durable-ingest layer: a journaled
8-device, 3-round fleet run killed at an *arbitrary* chunk boundary,
with an *arbitrary* journal segmentation, recovers (``recover`` +
``resume``) to per-session results bit-identical to the uninterrupted
run — asserted here as a hypothesis property (mirroring the shard-
merge property test of the sharding layer)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.io import Recording
from repro.ingest import (
    ChunkJournal,
    DeviceFleet,
    DURABILITY_MODES,
    FleetConfig,
    JOURNAL_CODECS,
    RecoveryManager,
    StreamingExecutor,
    chunk_recording,
)
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording
from tests.ingest.faults import FaultySource, SimulatedCrash

#: The acceptance-criterion fleet: 8 devices x 3 rounds, with churn.
ACCEPTANCE = FleetConfig(n_devices=8, duration_s=8.0, chunk_s=2.0,
                         seed=42, n_rounds=3, round_gap_s=2.0,
                         dropout=0.25, rejoin=True)

_CACHE = {}


def _acceptance_fleet():
    if "fleet" not in _CACHE:
        _CACHE["fleet"] = DeviceFleet(ACCEPTANCE)
    return _CACHE["fleet"]


def _uninterrupted():
    """The reference run (computed once): the live streaming executor
    over the whole fleet, which recovery must reproduce bit for bit."""
    if "reference" not in _CACHE:
        _CACHE["reference"] = StreamingExecutor(
            n_workers=1, preview=False).run(_acceptance_fleet())
        _CACHE["n_chunks"] = sum(1 for _ in _acceptance_fleet())
    return _CACHE["reference"]


def _assert_sessions_identical(got, want):
    assert set(got) == set(want)
    for sid, reference in want.items():
        result = got[sid].result
        assert np.array_equal(result.icg, reference.result.icg)
        assert np.array_equal(result.r_peak_indices,
                              reference.result.r_peak_indices)
        assert np.array_equal(result.pep_s, reference.result.pep_s)
        assert np.array_equal(result.lvet_s, reference.result.lvet_s)
        assert result.z0_ohm == reference.result.z0_ohm
        assert result.hr_bpm == reference.result.hr_bpm


# -- the acceptance criterion --------------------------------------------


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_recovery_is_bit_identical_for_any_crash_and_segmentation(data):
    """Property: for any crash point, journal segmentation, durability
    mode and codec, the journaled 8-device 3-round fleet recovers to
    per-session results bit-identical to the uninterrupted run."""
    reference = _uninterrupted()
    fleet = _acceptance_fleet()
    crash_after = data.draw(
        st.integers(min_value=0, max_value=_CACHE["n_chunks"]),
        label="crash_after")
    segment_records = data.draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        label="segment_records")
    durability = data.draw(st.sampled_from(DURABILITY_MODES),
                           label="durability")
    codec = data.draw(st.sampled_from(JOURNAL_CODECS), label="codec")
    directory = _CACHE.setdefault("tmp_factory")(
        f"crash{crash_after}-seg{segment_records}-{durability}")
    journal = ChunkJournal(directory, segment_records=segment_records,
                           durability=durability, codec=codec)
    executor = StreamingExecutor(n_workers=1, preview=False,
                                 journal=journal)
    try:
        if crash_after >= _CACHE["n_chunks"]:
            executor.run(FaultySource(fleet, crash_after))
        else:
            with pytest.raises(SimulatedCrash):
                executor.run(FaultySource(fleet, crash_after))
    finally:
        journal.close()

    manager = RecoveryManager(directory)
    # recover() alone finalizes exactly the journaled-complete subset,
    # each bit-identical to the reference ...
    partial = manager.recover()
    assert not partial.damaged
    _assert_sessions_identical(
        partial.results,
        {sid: reference[sid] for sid in partial.results})
    # ... and resume() with the reconnected fleet completes everything.
    outcome = manager.resume(fleet)
    assert not outcome.damaged and not outcome.open_sessions
    _assert_sessions_identical(outcome.results, reference)


@pytest.fixture(scope="module", autouse=True)
def _tmp_factory(tmp_path_factory):
    """Expose pytest's tmp dir factory to the hypothesis body (fixtures
    cannot be drawn inside @given examples)."""
    counter = [0]

    def make(tag):
        counter[0] += 1
        return tmp_path_factory.mktemp(f"journal-{counter[0]}-{tag}")

    _CACHE["tmp_factory"] = make
    yield
    _CACHE.pop("tmp_factory", None)


# -- batch recovery vs the streaming replay oracle ------------------------


def _assert_same(got, want, where="results"):
    """Field-for-field equality, recursing through dicts (in order),
    sequences and dataclasses; arrays must match dtype and bits."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name),
                         f"{where}.{f.name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert got.dtype == want.dtype, where
        assert np.array_equal(got, want, equal_nan=True), where
    elif isinstance(want, float):
        assert np.array_equal(got, want, equal_nan=True), where
    else:
        assert got == want, where


@pytest.fixture(scope="module")
def mixed_rate_journal(tmp_path_factory):
    """A journaled 250/500 Hz fleet whose dropouts never rejoin, so
    the journal holds complete sessions at both rates plus open ones."""
    fleet = DeviceFleet(FleetConfig(
        n_devices=4, duration_s=8.0, chunk_s=1.0,
        fs_choices=(250.0, 500.0), seed=3, n_rounds=2,
        round_gap_s=2.0, dropout=0.5, rejoin=False))
    assert fleet.dropped_session_ids      # the seed must churn
    directory = tmp_path_factory.mktemp("mixed-rate")
    with ChunkJournal(directory) as journal:
        for chunk in fleet:
            journal.append(chunk)
    return directory


@pytest.mark.parametrize("backend", ["cohort", "thread", "process"])
def test_batch_recover_equals_streaming_replay(mixed_rate_journal,
                                               backend):
    """recover() finalizes as one batch, yet every SessionResult —
    dict order, chunk count, arrival stamps, the assembled recording
    and every PipelineResult field — equals a streaming-executor
    replay of the same scan, on every batch backend."""
    manager = RecoveryManager(mixed_rate_journal)
    scan = manager.scan()
    rates = {chunks[0].fs for chunks in scan.complete.values()}
    assert rates == {250.0, 500.0} and scan.open
    replay = StreamingExecutor(n_workers=1, preview=False,
                               allow_open=True)
    want = replay.run(RecoveryManager._replay(scan))

    outcome = manager.recover(n_workers=2, finalize_backend=backend)
    assert list(outcome.results) == list(scan.complete)
    _assert_same(outcome.results, want)
    assert outcome.open_sessions == replay.last_open_sessions
    assert outcome.open_sessions == tuple(sorted(scan.open))


# -- sessions the pipeline rejects ---------------------------------------


def _flatline_chunks(session_id, fs=250.0, duration_s=8.0):
    """A complete session whose ECG holds no R peak, so the pipeline
    rejects it ("fewer than two R peaks")."""
    n = int(duration_s * fs)
    recording = Recording(fs=fs, signals={"ecg": np.zeros(n),
                                          "z": np.full(n, 25.0)})
    return list(chunk_recording(recording, session_id, chunk_s=2.0))


@pytest.mark.parametrize("backend", ["cohort", "thread"])
def test_recover_reports_a_rejected_session_and_finalizes_the_rest(
        tmp_path, backend):
    """A flatline session among good ones is reported in ``rejected``;
    every other session recovers bit-identically to a recovery of the
    same journal without it."""
    good = list(DeviceFleet(FleetConfig(n_devices=3, duration_s=8.0,
                                        chunk_s=2.0, seed=5)))
    with ChunkJournal(tmp_path / "with") as journal:
        for chunk in good[:1] + _flatline_chunks("flatline") + good[1:]:
            journal.append(chunk)
    with ChunkJournal(tmp_path / "without") as journal:
        for chunk in good:
            journal.append(chunk)

    manager = RecoveryManager(tmp_path / "with")
    order = list(manager.scan().complete)
    assert 0 < order.index("flatline") < len(order) - 1   # among good ones
    want = RecoveryManager(tmp_path / "without").recover(
        finalize_backend=backend)
    outcome = manager.recover(finalize_backend=backend)
    assert list(outcome.rejected) == ["flatline"]
    assert "fewer than two R peaks" in outcome.rejected["flatline"]
    assert not outcome.damaged and not outcome.open_sessions
    assert len(want.results) == 3 and not want.rejected
    _assert_same(outcome.results, want.results)


# -- dropout + journal completion ----------------------------------------


def test_dropout_leaves_open_sessions_the_journal_later_completes(
        tmp_path):
    """The motivating scenario: users lift their thumbs (dropout, no
    rejoin), the journal persists the open sessions, and a later
    resume — the devices reconnecting — completes them."""
    config = FleetConfig(n_devices=4, duration_s=8.0, chunk_s=2.0,
                         seed=3, n_rounds=2, round_gap_s=2.0,
                         dropout=0.6, rejoin=False)
    churned = DeviceFleet(config)
    assert churned.dropped_session_ids     # the seed must churn
    with ChunkJournal(tmp_path / "j") as journal:
        executor = StreamingExecutor(n_workers=1, preview=False,
                                     journal=journal)
        results = executor.run(churned)
    open_then = executor.last_open_sessions
    assert set(open_then) == set(churned.dropped_session_ids)
    assert set(results).isdisjoint(open_then)

    # The devices come back: the churn-free twin fleet carries the
    # same sessions with the same samples (churn never touches
    # values), so resuming with it supplies exactly the missing tails.
    twin = DeviceFleet(FleetConfig(**{**config.__dict__,
                                      "dropout": 0.0}))
    assert twin.session_ids == churned.session_ids
    outcome = RecoveryManager(tmp_path / "j").resume(twin)
    assert not outcome.open_sessions and not outcome.damaged
    reference = StreamingExecutor(n_workers=1, preview=False).run(twin)
    _assert_sessions_identical(outcome.results, reference)


# -- journal-attached executor semantics ---------------------------------


@pytest.fixture()
def truncated_source():
    recording = synthesize_recording(
        default_cohort()[0], "device", 1, SynthesisConfig(duration_s=8.0))
    return list(chunk_recording(recording, "cut", 2.0))[:-1]


def test_journal_flips_open_session_default(tmp_path, truncated_source):
    """Without a journal an open session still raises (unchanged
    PR 3 semantics); with one it is tolerated and reported."""
    with pytest.raises(ConfigurationError):
        StreamingExecutor(max_chunks=8).run(truncated_source)
    with ChunkJournal(tmp_path / "j") as journal:
        executor = StreamingExecutor(max_chunks=8, journal=journal)
        results = executor.run(truncated_source)
    assert results == {}
    assert executor.last_open_sessions == ("cut",)
    scan = RecoveryManager(tmp_path / "j").scan()
    assert set(scan.open) == {"cut"}
    assert len(scan.open["cut"]) == len(truncated_source)


def test_allow_open_overrides_work_both_ways(tmp_path,
                                             truncated_source):
    executor = StreamingExecutor(max_chunks=8, allow_open=True)
    assert executor.run(truncated_source) == {}
    assert executor.last_open_sessions == ("cut",)
    with ChunkJournal(tmp_path / "j") as journal:
        strict = StreamingExecutor(max_chunks=8, journal=journal,
                                   allow_open=False)
        with pytest.raises(ConfigurationError):
            strict.run(truncated_source)


def test_write_through_precedes_analysis(tmp_path):
    """Every chunk the executor consumed is on disk even though the
    pipeline raised on the session — durability is not conditional on
    analysis succeeding."""
    from repro.errors import SignalError
    from repro.io import Recording

    n = int(8 * 250.0)
    flat = Recording(250.0, {"ecg": np.zeros(n), "z": np.full(n, 25.0)})
    chunks = list(chunk_recording(flat, "flat", 2.0))
    with ChunkJournal(tmp_path / "j") as journal:
        executor = StreamingExecutor(max_chunks=8, n_workers=1,
                                     journal=journal, preview=False)
        with pytest.raises(SignalError):
            executor.run(chunks)
    scan = RecoveryManager(tmp_path / "j").scan()
    assert scan.n_records == len(chunks)
    assert set(scan.complete) == {"flat"}
