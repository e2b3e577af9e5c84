"""Fault injection: killed sources, torn journal tails, flipped CRC
bytes.  The durability contract under test: recovery either resumes
bit-identically or reports the exact damaged session — it never
crashes and never silently drops or mangles data."""

import shutil

import numpy as np
import pytest

from repro.errors import JournalError
from repro.ingest import (
    ChunkJournal,
    DeviceFleet,
    FleetConfig,
    RecoveryManager,
    StreamingExecutor,
    scan_journal,
)
from repro.io.journal_records import scan_segment
from tests.ingest.faults import (
    FaultySource,
    SimulatedCrash,
    append_undecodable_record,
    flip_crc_byte,
    flip_magic_byte,
    flip_payload_byte,
    journal_segments,
    tear_journal_tail,
)

pytestmark = pytest.mark.faults

FLEET = FleetConfig(n_devices=3, duration_s=8.0, chunk_s=2.0, seed=13,
                    n_rounds=2, round_gap_s=2.0)


@pytest.fixture(scope="module")
def fleet():
    return DeviceFleet(FLEET)


@pytest.fixture(scope="module")
def uninterrupted(fleet):
    return StreamingExecutor(n_workers=1, preview=False).run(fleet)


@pytest.fixture(params=["strict", "group"])
def durability(request):
    """Every fault scenario must hold under both write-through modes:
    strict (record on disk before analysis) and group commit (bounded
    buffer, one fsync per flush window)."""
    return request.param


def _crash_journaled_run(tmp_path, fleet, crash_after,
                         segment_records=None, durability="strict"):
    """Run a journal-attached executor into a scripted kill; returns
    the journal directory."""
    directory = tmp_path / "journal"
    journal = ChunkJournal(directory, segment_records=segment_records,
                           durability=durability)
    executor = StreamingExecutor(n_workers=1, preview=False,
                                 journal=journal)
    try:
        with pytest.raises(SimulatedCrash):
            executor.run(FaultySource(fleet, crash_after))
    finally:
        journal.close()
    return directory


def _assert_sessions_identical(got, want):
    assert set(got) == set(want)
    for sid, reference in want.items():
        result = got[sid].result
        assert np.array_equal(result.icg, reference.result.icg)
        assert np.array_equal(result.ecg_filtered,
                              reference.result.ecg_filtered)
        assert np.array_equal(result.pep_s, reference.result.pep_s)
        assert np.array_equal(result.lvet_s, reference.result.lvet_s)
        assert result.z0_ohm == reference.result.z0_ohm
        assert result.hr_bpm == reference.result.hr_bpm


# -- killed sources ------------------------------------------------------


@pytest.mark.parametrize("crash_after", [0, 1, 7, 23])
def test_killed_source_recovers_bit_identically(tmp_path, fleet,
                                                uninterrupted,
                                                crash_after,
                                                durability):
    directory = _crash_journaled_run(tmp_path, fleet, crash_after,
                                     segment_records=5,
                                     durability=durability)
    outcome = RecoveryManager(directory).resume(fleet)
    assert not outcome.damaged and not outcome.open_sessions
    _assert_sessions_identical(outcome.results, uninterrupted)


def test_kill_after_everything_is_a_clean_run(tmp_path, fleet,
                                              uninterrupted):
    """A crash budget the stream never reaches: no crash, journal
    complete, recovery alone (no source) reproduces every session."""
    directory = tmp_path / "journal"
    with ChunkJournal(directory) as journal:
        executor = StreamingExecutor(n_workers=1, preview=False,
                                     journal=journal)
        executor.run(FaultySource(fleet, 10_000))
    outcome = RecoveryManager(directory).recover()
    assert not outcome.open_sessions
    _assert_sessions_identical(outcome.results, uninterrupted)


# -- torn journal tails --------------------------------------------------


def test_torn_tail_is_truncated_and_resume_heals(tmp_path, fleet,
                                                 uninterrupted,
                                                 durability):
    directory = _crash_journaled_run(tmp_path, fleet, 9,
                                     durability=durability)
    tear_journal_tail(directory)
    scan = scan_journal(directory)
    assert scan.torn_tail is not None
    assert not scan.damaged           # torn != damaged: it heals
    outcome = RecoveryManager(directory).resume(fleet)
    assert outcome.torn_tail_recovered
    assert not outcome.damaged and not outcome.open_sessions
    _assert_sessions_identical(outcome.results, uninterrupted)
    # The reopen truncated the torn bytes away for good.
    assert scan_journal(directory).torn_tail is None


def test_recover_alone_heals_the_torn_tail(tmp_path, fleet,
                                              durability):
    """`recover` (journal untouched otherwise) must leave the disk in
    the state it reports: torn bytes truncated, gone on a rescan."""
    directory = _crash_journaled_run(tmp_path, fleet, 9,
                                     durability=durability)
    tear_journal_tail(directory)
    outcome = RecoveryManager(directory).recover()
    assert outcome.torn_tail_recovered
    assert scan_journal(directory).torn_tail is None
    # A second recover finds nothing left to heal.
    assert RecoveryManager(directory).recover().torn_tail_recovered \
        is False


def test_torn_tail_in_final_segment_only_loses_one_record(tmp_path,
                                                          fleet):
    directory = _crash_journaled_run(tmp_path, fleet, 9,
                                     segment_records=3)
    before = scan_journal(directory).n_records
    tear_journal_tail(directory)
    after = scan_journal(directory)
    assert after.n_records == before - 1


# -- flipped bytes -------------------------------------------------------


def test_crc_flip_reports_the_exact_damaged_session(tmp_path, fleet,
                                                    uninterrupted,
                                                    durability):
    directory = _crash_journaled_run(tmp_path, fleet, 20,
                                     durability=durability)
    victim = flip_crc_byte(directory, index=4)
    outcome = RecoveryManager(directory).recover()
    assert set(outcome.damaged) == {victim}
    assert "crc mismatch" in outcome.damaged[victim]
    assert victim not in outcome.results
    # Every *other* completed session still finalizes bit-identically.
    for sid in outcome.results:
        assert sid != victim
        _assert_sessions_identical({sid: outcome.results[sid]},
                                   {sid: uninterrupted[sid]})


def test_payload_flip_reports_the_exact_damaged_session(tmp_path,
                                                        fleet):
    directory = _crash_journaled_run(tmp_path, fleet, 20)
    victim = flip_payload_byte(directory, index=2)
    outcome = RecoveryManager(directory).recover()
    assert set(outcome.damaged) == {victim}


def test_resume_quarantines_damaged_sessions_and_completes_the_rest(
        tmp_path, fleet, uninterrupted, durability):
    directory = _crash_journaled_run(tmp_path, fleet, 20,
                                     durability=durability)
    victim = flip_crc_byte(directory, index=4)
    outcome = RecoveryManager(directory).resume(fleet)
    assert set(outcome.damaged) == {victim}
    assert not outcome.open_sessions
    healthy = {sid: ref for sid, ref in uninterrupted.items()
               if sid != victim}
    _assert_sessions_identical(outcome.results, healthy)


def _recover_undamaged_copy(directory, copy):
    """Recover a copy of ``directory`` taken before any damage — the
    reference the damaged journal's healthy sessions must match."""
    shutil.copytree(directory, copy)
    return RecoveryManager(copy).recover()


def _last_entry_error(directory):
    return scan_segment(journal_segments(directory)[-1]).entries[-1].error


def test_undecodable_record_quarantines_its_session_alone(tmp_path,
                                                          fleet):
    """A CRC-valid record whose header declares more samples than its
    payload holds: the scan pins it to its session by the header and
    quarantines that session only."""
    directory = _crash_journaled_run(tmp_path, fleet, 20)
    want = _recover_undamaged_copy(directory, tmp_path / "undamaged")
    victim = sorted(want.results)[0]
    chunk = next(c for c in fleet if c.session_id == victim)
    append_undecodable_record(directory, chunk, "short_arrays")
    assert _last_entry_error(directory).startswith("undecodable record")
    scan = scan_journal(directory)
    assert set(scan.damaged) == {victim}
    assert scan.unattributed_damage == 0
    outcome = RecoveryManager(directory).recover()
    assert set(outcome.damaged) == {victim}
    assert outcome.damaged[victim].startswith("undecodable record")
    healthy = {sid: result for sid, result in want.results.items()
               if sid != victim}
    _assert_sessions_identical(outcome.results, healthy)


def test_unattributable_undecodable_record_spares_every_session(
        tmp_path, fleet):
    """Bytes after the header's JSON object: the record is undecodable
    and its header unreadable, so it counts as unattributed damage and
    every complete session still finalizes."""
    directory = _crash_journaled_run(tmp_path, fleet, 20)
    want = _recover_undamaged_copy(directory, tmp_path / "undamaged")
    chunk = next(c for c in fleet if c.session_id in want.results)
    append_undecodable_record(directory, chunk, "trailing_header_bytes")
    assert _last_entry_error(directory).startswith("undecodable record")
    scan = scan_journal(directory)
    assert not scan.damaged
    assert scan.unattributed_damage == 1
    outcome = RecoveryManager(directory).recover()
    assert not outcome.damaged
    _assert_sessions_identical(outcome.results, want.results)


def test_journal_refuses_appends_to_damaged_sessions(tmp_path, fleet):
    directory = _crash_journaled_run(tmp_path, fleet, 6)
    victim = flip_crc_byte(directory, index=0)
    with ChunkJournal(directory) as journal:
        chunk = next(c for c in fleet if c.session_id == victim)
        with pytest.raises(JournalError):
            journal.append(chunk)


def test_reopen_after_lost_framing_rolls_to_a_fresh_segment(tmp_path,
                                                            fleet):
    """Appending after unreadable bytes would hide the new records
    from every future scan; a reopening journal must roll to a new
    segment so everything it writes stays readable."""
    directory = _crash_journaled_run(tmp_path, fleet, 9)
    before = scan_journal(directory)
    n_segments = len(journal_segments(directory))
    flip_magic_byte(directory, index=scan_journal(directory).n_records
                    - 1)
    with ChunkJournal(directory) as journal:
        appended = sum(journal.append(c) for c in fleet)
        assert appended > 0
    assert len(journal_segments(directory)) == n_segments + 1
    after = scan_journal(directory)
    # Every record written after the damage is readable: the journal
    # now completes every session the damage did not quarantine.
    assert after.n_records > before.n_records
    expected = set(DeviceFleet(FLEET).session_ids) - set(after.damaged)
    assert set(after.complete) == expected


def test_truncated_middle_segment_never_crashes_the_scan(tmp_path,
                                                         fleet):
    """External truncation of a non-final segment is beyond crash
    semantics — the scan must still classify it, not raise."""
    directory = _crash_journaled_run(tmp_path, fleet, 20,
                                     segment_records=4)
    middle = journal_segments(directory)[1]
    with open(middle, "r+b") as fh:
        fh.truncate(middle.stat().st_size - 7)
    scan = scan_journal(directory)
    assert scan.unattributed_damage >= 1
    outcome = RecoveryManager(directory).recover()
    # Sessions with records lost to the truncation show sequence gaps
    # and are quarantined; the rest still finalize or stay open.
    assert set(outcome.results).isdisjoint(outcome.damaged)
