"""Storage-lifecycle fault injection: crashes inside the collector,
bit-flipped cold-tier archives, quarantine re-ingest, and workers
SIGKILLed mid-fan-out.

The contract extends the durable-ingest one: however the lifecycle
machinery is interrupted — any GC crash window, any interleaving of
gc/archive/rehydrate around a crashed run, any worker death — the
per-session results remain bit-identical to the uninterrupted run, and
damage is always reported, never invented and never silently eaten.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ArchiveError, JournalError
from repro.ingest import (
    ChunkJournal,
    DeviceFleet,
    FleetConfig,
    RecoveryManager,
    StreamingExecutor,
    journal_gc,
    scan_journal,
)
from repro.ingest.gc import collectible_sessions
from repro.io import (
    archive_sessions,
    load_archive,
    rehydrate_session,
    scan_segment,
)
from tests.ingest.faults import (
    KILL_SENTINEL,
    CrashAfterEvents,
    FaultySource,
    SimulatedCrash,
    flip_archive_byte,
    flip_crc_byte,
    journal_segments,
    kill_worker_job,
)

pytestmark = pytest.mark.faults

FLEET = FleetConfig(n_devices=3, duration_s=8.0, chunk_s=2.0, seed=13,
                    n_rounds=2, round_gap_s=2.0)

_CACHE = {}


def _fleet():
    if "fleet" not in _CACHE:
        _CACHE["fleet"] = DeviceFleet(FLEET)
        _CACHE["n_chunks"] = sum(1 for _ in _CACHE["fleet"])
    return _CACHE["fleet"]


def _uninterrupted():
    if "reference" not in _CACHE:
        _fleet()
        _CACHE["reference"] = StreamingExecutor(
            n_workers=1, preview=False).run(_fleet())
    return _CACHE["reference"]


def _journaled_run(directory, segment_records=None, crash_after=None):
    journal = ChunkJournal(directory, segment_records=segment_records)
    executor = StreamingExecutor(n_workers=1, preview=False,
                                 journal=journal)
    try:
        if crash_after is None:
            executor.run(_fleet())
        else:
            with pytest.raises(SimulatedCrash):
                executor.run(FaultySource(_fleet(), crash_after))
    finally:
        journal.close()
    return directory


def _assert_summary_identical(got, sid):
    reference = _uninterrupted()[sid]
    assert got.result.summary() == reference.result.summary()
    assert np.array_equal(got.result.icg, reference.result.icg)
    assert np.array_equal(got.result.pep_s, reference.result.pep_s)


# -- crashes inside the collector ----------------------------------------


def test_gc_crash_at_every_event_recovers_bit_identically(tmp_path):
    """Kill the collector after its 1st, 2nd, ... durable step.  At no
    interruption point may a rescan report damage, and a rerun must
    finish the collection with every live session intact."""
    budget = 1
    while True:
        directory = tmp_path / f"crash-{budget}"
        _journaled_run(directory, segment_records=3, crash_after=11)
        hook = CrashAfterEvents(budget)
        try:
            journal_gc(directory, crash_hook=hook)
        except SimulatedCrash:
            pass
        else:
            break                       # budget outlived the pass
        scan = scan_journal(directory)
        assert not scan.damaged and scan.unattributed_damage == 0

        rerun = journal_gc(directory)
        assert not rerun.skipped_segments
        final = scan_journal(directory)
        assert not final.damaged
        # Everything still journaled (the open sessions) resumes
        # bit-identically; everything collected was complete.
        outcome = RecoveryManager(directory).resume(_fleet())
        assert not outcome.damaged and not outcome.open_sessions
        for sid, result in outcome.results.items():
            _assert_summary_identical(result, sid)
        budget += 1
    assert budget > 3                   # the loop crashed in several
                                        # distinct windows


def test_gc_crash_between_mark_and_sweep_leaves_garbage_not_damage(
        tmp_path):
    directory = tmp_path / "j"
    _journaled_run(directory, segment_records=3)
    hook = CrashAfterEvents(1)          # die right after the first mark
    with pytest.raises(SimulatedCrash):
        journal_gc(directory, crash_hook=hook)
    assert hook.events[0][0] == "marked"
    scan = scan_journal(directory)
    assert not scan.damaged
    # The marked session's records are still on disk but now count as
    # reclaimable garbage, not as a phantom replay obligation.
    marked = hook.events[0][1]
    assert marked in scan.collected
    assert marked in collectible_sessions(scan)
    report = journal_gc(directory)
    assert not report.skipped_segments
    assert marked not in report.sessions_collected  # already marked


def test_gc_crash_with_sidecar_written_but_not_swapped(tmp_path):
    """The narrowest window: the compacted sidecar is on disk but the
    original segment was not replaced yet.  A rescan must see the
    original (no torn state), a rerun must finish the swap."""
    directory = tmp_path / "j"
    # Open session interleaved so compaction (not deletion) happens.
    source = list(_fleet())
    _journaled_run(directory, segment_records=4,
                   crash_after=len(source) - 3)

    events = []

    def hook(stage, detail):
        events.append((stage, detail))
        if stage == "compact-written":
            raise SimulatedCrash("between sidecar write and swap")

    try:
        journal_gc(directory, crash_hook=hook)
    except SimulatedCrash:
        assert list(directory.glob("*.gctmp"))
        scan = scan_journal(directory)
        assert not scan.damaged and scan.torn_tail is None
        rerun = journal_gc(directory)
        assert rerun.stale_tmp_removed >= 1
        assert not list(directory.glob("*.gctmp"))
    else:
        # This segmentation produced only whole-dead segments; the
        # mark-crash case above already covers that shape.
        assert all(stage != "compact-written" for stage, _ in events)
    outcome = RecoveryManager(directory).resume(_fleet())
    assert not outcome.damaged and not outcome.open_sessions
    for sid, result in outcome.results.items():
        _assert_summary_identical(result, sid)


# -- corrupt cold-tier archives ------------------------------------------


def test_bit_flipped_archive_refuses_loudly(tmp_path):
    directory = _journaled_run(tmp_path / "j")
    adir = tmp_path / "cold"
    report = archive_sessions(directory, adir)
    assert report.archived
    flip_archive_byte(adir)
    with pytest.raises(ArchiveError):
        load_archive(report.file)
    with pytest.raises(ArchiveError):
        rehydrate_session(adir, report.archived[0])
    # The journal was never touched: the hot tier still replays every
    # session bit-identically — damage to a copy loses no data.
    outcome = RecoveryManager(directory).recover()
    assert not outcome.damaged
    for sid, result in outcome.results.items():
        _assert_summary_identical(result, sid)


def test_truncated_archive_refuses_loudly(tmp_path):
    directory = _journaled_run(tmp_path / "j")
    report = archive_sessions(directory, tmp_path / "cold")
    data = report.file.read_bytes()
    report.file.write_bytes(data[:len(data) // 2])
    with pytest.raises(ArchiveError):
        load_archive(report.file)


# -- quarantine re-ingest ------------------------------------------------


def test_reingest_moves_damage_aside_and_accepts_the_session_again(
        tmp_path):
    directory = _journaled_run(tmp_path / "j", segment_records=4)
    victim = flip_crc_byte(directory, index=1)
    assert victim in scan_journal(directory).damaged

    report = RecoveryManager(directory).reingest(victim)
    assert report.session_id == victim
    assert report.records_moved > 0 and report.manifest_reset
    assert report.sidecar is not None and report.sidecar.exists()
    assert report.sidecar.parent.name == ".quarantine"

    scan = scan_journal(directory)
    assert victim not in scan.damaged
    assert victim not in scan.complete      # gone, not resurrected
    # Other sessions were untouched (byte-identical frames).
    outcome = RecoveryManager(directory).recover()
    assert not outcome.damaged
    for sid, result in outcome.results.items():
        _assert_summary_identical(result, sid)

    # The device re-sends: normal write-through from seq 0.
    with ChunkJournal(directory) as journal:
        executor = StreamingExecutor(n_workers=1, preview=False,
                                     journal=journal)
        results = executor.run(
            iter(c for c in _fleet() if c.session_id == victim))
    _assert_summary_identical(results[victim], victim)
    final = scan_journal(directory)
    assert victim in final.complete and not final.damaged


def test_reingest_requires_a_quarantined_session(tmp_path):
    directory = _journaled_run(tmp_path / "j")
    manager = RecoveryManager(directory)
    healthy = sorted(scan_journal(directory).complete)[0]
    with pytest.raises(JournalError):
        manager.reingest(healthy)
    with pytest.raises(JournalError):
        manager.reingest("no-such-session")


def test_reingest_sidecars_never_collide(tmp_path):
    """Re-damaging and re-ingesting the same session twice yields two
    sidecar files — evidence is append-only."""
    directory = _journaled_run(tmp_path / "j", segment_records=4)
    victim = flip_crc_byte(directory, index=1)
    RecoveryManager(directory).reingest(victim)
    with ChunkJournal(directory) as journal:
        executor = StreamingExecutor(n_workers=1, preview=False,
                                     journal=journal)
        executor.run(iter(c for c in _fleet()
                          if c.session_id == victim))
    # Find one of the re-sent records and damage it again.
    entries = [entry for path in journal_segments(directory)
               for entry in scan_segment(path).entries]
    index = next(i for i, entry in enumerate(entries)
                 if entry.session_id == victim)
    assert flip_crc_byte(directory, index=index) == victim
    RecoveryManager(directory).reingest(victim)
    sidecars = sorted((directory / ".quarantine").iterdir())
    assert len(sidecars) == 2


# -- killed workers ------------------------------------------------------


@pytest.fixture()
def _fresh_pool():
    from repro.core.executor import _discard_persistent_pool

    _discard_persistent_pool(wait=True)
    yield
    _discard_persistent_pool(wait=True)


@pytest.mark.parametrize("kill_at", [0, 3, 7])
def test_sigkilled_worker_yields_a_completed_fanout(_fresh_pool,
                                                    kill_at):
    """A worker SIGKILLed mid-fan-out never crashes the fan-out: every
    healthy job's result lands in its slot, the killer comes back as a
    structured PoisonJob, and the batch completes."""
    import warnings

    from repro.core.executor import PoisonJob, parallel_map

    items = [f"item-{i}" for i in range(8)]
    items[kill_at] = KILL_SENTINEL
    with warnings.catch_warnings():
        # Whether the serial-degrade warning fires depends on how many
        # batches were still in flight at the break — a timing detail.
        warnings.simplefilter("ignore", RuntimeWarning)
        results = parallel_map(kill_worker_job, items, n_jobs=2)
    assert len(results) == len(items)
    poison = results[kill_at]
    assert isinstance(poison, PoisonJob)
    assert poison.index == kill_at and poison.attempts == 2
    for index, result in enumerate(results):
        if index != kill_at:
            assert result == ("ok", items[index])


def test_poisoned_fanout_does_not_poison_the_next_one(_fresh_pool):
    import warnings

    from repro.core.executor import PoisonJob, parallel_map

    items = ["a", KILL_SENTINEL, "b", "c"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        first = parallel_map(kill_worker_job, items, n_jobs=2)
    assert any(isinstance(r, PoisonJob) for r in first)
    clean = parallel_map(kill_worker_job, ["x", "y", "z"], n_jobs=2)
    assert clean == [("ok", "x"), ("ok", "y"), ("ok", "z")]


def test_process_batch_survives_a_worker_killed_between_fanouts(
        _fresh_pool, cohort):
    """The acceptance shape at the process_batch level: kill a warm
    worker, then fan out — the batch completes with correct results
    (retried on a rebuilt pool), never a crashed process_batch."""
    from repro.core.executor import (persistent_pool_stats,
                                     process_batch)
    from repro.synth import SynthesisConfig, synthesize_recording

    recordings = [
        synthesize_recording(subject, "device", 1,
                             SynthesisConfig(duration_s=8.0))
        for subject in cohort[:2]]
    reference = process_batch(recordings, n_jobs=1)
    process_batch(recordings, n_jobs=2, backend="process")
    pids = persistent_pool_stats()["pids"]
    assert pids
    os.kill(pids[0], 9)
    results = process_batch(recordings, n_jobs=2, backend="process")
    assert len(results) == len(recordings)
    for got, want in zip(results, reference):
        assert got.summary() == want.summary()
        assert np.array_equal(got.icg, want.icg)


# -- the lifecycle property ----------------------------------------------


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_lifecycle_interleavings_preserve_every_session(data):
    """Property: crash a journaled fleet run at any chunk, apply any
    interleaving of gc / archive / (crashing gc) passes, then resume —
    the union of journal-resumed and archive-rehydrated sessions
    covers the whole fleet, every one bit-identical to the
    uninterrupted run."""
    reference = _uninterrupted()
    crash_after = data.draw(
        st.integers(min_value=0, max_value=_CACHE["n_chunks"] - 1),
        label="crash_after")
    segment_records = data.draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        label="segment_records")
    ops = data.draw(
        st.lists(st.sampled_from(["gc", "archive", "crashing-gc"]),
                 min_size=1, max_size=4),
        label="ops")
    directory = _CACHE["tmp_factory"](f"life-{crash_after}")
    adir = directory / "cold"
    _journaled_run(directory, segment_records=segment_records,
                   crash_after=crash_after)

    archived = set()
    for op in ops:
        if op == "gc":
            journal_gc(directory)
        elif op == "archive":
            archived |= set(archive_sessions(directory, adir).archived)
        else:
            budget = data.draw(st.integers(min_value=1, max_value=4),
                               label="gc_crash_budget")
            try:
                journal_gc(directory,
                           crash_hook=CrashAfterEvents(budget))
            except SimulatedCrash:
                pass
            assert not scan_journal(directory).damaged

    # The journal still resumes every session it has not handed to the
    # cold tier; anything GC reclaimed was archived or complete.
    outcome = RecoveryManager(directory).resume(_fleet())
    assert not outcome.damaged and not outcome.open_sessions
    for sid, result in outcome.results.items():
        _assert_summary_identical(result, sid)
    recovered = set(outcome.results)

    for sid in archived:
        chunks = rehydrate_session(adir, sid)
        replay = StreamingExecutor(n_workers=1, preview=False).run(
            iter(chunks))
        _assert_summary_identical(replay[sid], sid)
    assert recovered | archived >= set(reference)


@pytest.fixture(scope="module", autouse=True)
def _tmp_factory(tmp_path_factory):
    """Expose pytest's tmp dir factory to the hypothesis body (fixtures
    cannot be drawn inside @given examples)."""
    counter = [0]

    def make(tag):
        counter[0] += 1
        return tmp_path_factory.mktemp(f"life-{counter[0]}-{tag}")

    _CACHE["tmp_factory"] = make
    yield
    _CACHE.pop("tmp_factory", None)
