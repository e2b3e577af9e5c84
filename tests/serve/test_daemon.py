"""The serve daemon end to end: bit-identity with the batch streaming
path, crash-recovering boots, shedding/degradation, deadline
quarantines, finalize retries, and graceful drains."""

import threading
import time

import numpy as np
import pytest

from repro.core.executor import shutdown_persistent_pool
from repro.core.pipeline import BeatToBeatPipeline
from repro.errors import ConfigurationError, ReproError
from repro.io import Recording
from repro.ingest import (
    BoundedWorkQueue,
    ChunkJournal,
    DeviceFleet,
    FleetConfig,
    StreamingExecutor,
    chunk_recording,
)
from repro.ingest.stats import ingest_stats, reset_ingest_stats
from repro.serve import (
    ACCEPTING,
    DONE,
    QUARANTINED,
    DeadlinePolicy,
    RetryPolicy,
    ServeDaemon,
)

from tests.ingest.faults import SimulatedCrash, StalledSource

FLEET = FleetConfig(n_devices=4, duration_s=6.0, chunk_s=2.0, seed=7)


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


def _flat_chunks(session_id="flat-000", chunk_s=1.0):
    """A session whose finalize deterministically raises SignalError
    (all-zero ECG has no R peaks)."""
    n = 1000
    recording = Recording(250.0, {"ecg": np.zeros(n),
                                  "z": np.full(n, 25.0)})
    return list(chunk_recording(recording, session_id, chunk_s))


# -- the service path is the batch path ------------------------------------


@pytest.mark.parametrize("n_workers", [1, 2])
def test_results_bit_identical_to_streaming_executor(tmp_path, n_workers):
    """Both finalize shapes — inline and the warm process pool — give
    the streaming executor's bits."""
    reference = StreamingExecutor(n_workers=1,
                                  preview=False).run(DeviceFleet(FLEET))
    daemon = ServeDaemon(tmp_path, n_workers=n_workers, health=False)
    results = daemon.run_once(DeviceFleet(FLEET))
    _assert_sessions_identical(results, reference)
    assert daemon.supervisor.all_terminal
    assert daemon.supervisor.counts()[DONE] == FLEET.n_devices


def test_crash_and_restart_recover_bit_identically(tmp_path):
    """SIGKILL (SimulatedCrash from the crash hook) mid-serve, then a
    fresh daemon on the same journal + the re-sent stream: results are
    bit-identical to the uninterrupted run."""
    reference = StreamingExecutor(n_workers=1,
                                  preview=False).run(DeviceFleet(FLEET))
    events = []

    def crash_ninth(stage, detail):
        events.append((stage, detail))
        if len(events) == 9:
            raise SimulatedCrash(f"crashed at {stage}")

    daemon = ServeDaemon(tmp_path, n_workers=1, health=False,
                         crash_hook=crash_ninth)
    with pytest.raises(SimulatedCrash):
        daemon.run_once(DeviceFleet(FLEET))

    # Restart: boot replays the journal; the device fleet re-sends its
    # streams (journaled seqs dedup idempotently).
    restarted = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = restarted.run_once(DeviceFleet(FLEET))
    _assert_sessions_identical(results, reference)


def test_restart_without_resend_finalizes_whats_journaled(tmp_path):
    """Boot alone (no sources) finalizes every journal-complete
    session — boot *is* recovery."""
    reference = StreamingExecutor(n_workers=1,
                                  preview=False).run(DeviceFleet(FLEET))
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False,
                         crash_hook=lambda s, d: (_ for _ in ()).throw(
                             SimulatedCrash(s)) if s == "drained" else None)
    with pytest.raises(SimulatedCrash):
        daemon.run_once(DeviceFleet(FLEET))

    restarted = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = restarted.serve([])
    _assert_sessions_identical(results, reference)


# -- supervision of the live stream ----------------------------------------


def test_sequence_gap_quarantines_only_that_session(tmp_path):
    chunks = _flat_chunks(chunk_s=1.0)
    assert len(chunks) >= 3
    gapped = [chunks[0], chunks[2]]         # seq 1 lost in transport
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = daemon.serve([gapped])
    record = daemon.supervisor.get("flat-000")
    assert record.state == QUARANTINED
    assert "sequence gap" in record.reason
    assert results == {}


def test_stale_duplicate_chunks_are_idempotent(tmp_path):
    """Transport re-sends (seq below the watermark) are absorbed
    without disturbing the session."""
    fleet = FleetConfig(n_devices=1, duration_s=4.0, chunk_s=2.0, seed=5)
    reference = StreamingExecutor(n_workers=1,
                                  preview=False).run(DeviceFleet(fleet))
    chunks = list(DeviceFleet(fleet))
    noisy = [chunks[0], chunks[0], chunks[1], chunks[0]] + chunks[1:]
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = daemon.serve([noisy])
    _assert_sessions_identical(results, reference)


def test_stalled_source_quarantined_while_neighbour_completes(tmp_path):
    """A silent device trips the chunk deadline and is quarantined
    alone; its healthy neighbour still reaches DONE."""
    reset_ingest_stats()
    fleet = FleetConfig(n_devices=2, duration_s=4.0, chunk_s=2.0, seed=9)
    chunks = list(DeviceFleet(fleet))
    stalled_sid, healthy_sid = "device-000", "device-001"
    stalled = StalledSource(
        [c for c in chunks if c.session_id == stalled_sid],
        yield_chunks=1)
    healthy = [c for c in chunks if c.session_id == healthy_sid]
    daemon = ServeDaemon(
        tmp_path, n_workers=1, health=False,
        deadline=DeadlinePolicy(chunk_deadline_s=0.2))
    thread = threading.Thread(target=daemon.serve,
                              args=([stalled, healthy],), daemon=True)
    thread.start()
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        record = daemon.supervisor.get(stalled_sid)
        if record is not None and record.state == QUARANTINED:
            break
        time.sleep(0.02)
    stalled.release()
    daemon.stop()
    thread.join(timeout=20.0)
    assert not thread.is_alive()
    assert daemon.supervisor.get(stalled_sid).state == QUARANTINED
    assert "stalled source" in daemon.supervisor.get(stalled_sid).reason
    assert daemon.supervisor.get(healthy_sid).state == DONE
    assert healthy_sid in daemon.results
    assert ingest_stats().serve_deadline_hits >= 1


def test_finalize_failure_retries_then_quarantines(tmp_path):
    """A deterministically failing finalize (flat ECG -> SignalError)
    burns the retry budget and quarantines the session; the daemon
    survives."""
    reset_ingest_stats()
    daemon = ServeDaemon(
        tmp_path, n_workers=1, health=False,
        retry=RetryPolicy(max_attempts=2, base_s=0.001, cap_s=0.002))
    results = daemon.serve([_flat_chunks()])
    record = daemon.supervisor.get("flat-000")
    assert record.state == QUARANTINED
    assert "finalize failed after 2 attempts" in record.reason
    assert "SignalError" in record.reason or "peak" in record.reason.lower()
    assert results == {}
    assert ingest_stats().serve_retries >= 1


def test_source_exception_is_contained(tmp_path):
    """A source that raises takes down neither the service nor its
    neighbours."""
    fleet = FleetConfig(n_devices=2, duration_s=4.0, chunk_s=2.0, seed=13)
    chunks = list(DeviceFleet(fleet))
    healthy = [c for c in chunks if c.session_id == "device-001"]

    def dying():
        raise OSError("device link dropped")
        yield  # pragma: no cover

    daemon = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = daemon.serve([dying(), healthy])
    assert "device-001" in results
    assert len(daemon.source_errors) == 1
    assert isinstance(daemon.source_errors[0], OSError)


# -- degradation and shedding (white box) ----------------------------------


def _idle_daemon(tmp_path, **kwargs):
    """A daemon with its journal open but no serve loop — the unit
    surface for the consume path."""
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False, **kwargs)
    daemon.journal = ChunkJournal(tmp_path,
                                  durability=daemon.configured_durability)
    return daemon


def test_shed_new_rejects_only_unjournaled_sessions(tmp_path):
    reset_ingest_stats()
    daemon = _idle_daemon(tmp_path)
    known = _flat_chunks("known-000", chunk_s=0.5)
    fresh = _flat_chunks("fresh-000", chunk_s=0.5)
    daemon._consume(known[0], None, live=True)   # admitted at NORMAL
    daemon.ladder.force(1)                       # overload: SHED_NEW
    daemon._consume(fresh[0], None, live=True)
    assert "fresh-000" in daemon._shed
    assert "fresh-000" not in daemon.supervisor
    assert ingest_stats().serve_sheds == 1
    # Later chunks of a shed session stay shed (one counter hit).
    daemon._consume(fresh[1], None, live=True)
    assert ingest_stats().serve_sheds == 1
    # The journaled session keeps flowing through the same overload.
    daemon._consume(known[1], None, live=True)
    assert daemon.supervisor.get("known-000").n_chunks == 2
    # Replayed chunks are never shed (their durability promise holds).
    daemon.journal.close()


def test_shed_spares_sessions_journaled_by_a_previous_run(tmp_path):
    """A session with chunks on disk but not yet supervised (mid-boot
    arrival) is admitted even under SHED_NEW: anything journaled is a
    promise already made."""
    chunks = _flat_chunks("old-000", chunk_s=0.5)
    with ChunkJournal(tmp_path) as journal:
        journal.append(chunks[0])
    daemon = _idle_daemon(tmp_path)
    daemon.ladder.force(1)
    daemon._consume(chunks[1], None, live=True)
    assert "old-000" not in daemon._shed
    assert "old-000" in daemon.supervisor
    daemon.journal.close()


def test_overload_forces_strict_durability_then_restores(tmp_path):
    daemon = _idle_daemon(tmp_path, durability="group")
    assert daemon.journal.durability == "group"
    daemon._update_degradation(daemon.max_chunks)    # pressure 1.0
    assert daemon.ladder.level == 1                  # one rung per sample
    assert daemon.journal.durability == "group"
    daemon._update_degradation(daemon.max_chunks)
    assert daemon.ladder.level == 2
    assert daemon.journal.durability == "strict"
    daemon._update_degradation(0)                    # pressure cleared
    assert daemon.ladder.level == 1
    assert daemon.journal.durability == "group"
    daemon.journal.close()


# -- graceful drain --------------------------------------------------------


def test_graceful_stop_preserves_open_sessions_for_the_next_boot(tmp_path):
    """SIGTERM-style drain: the open session's journaled chunks stay
    on disk undamaged, and a later boot + re-send completes it
    bit-identically."""
    fleet = FleetConfig(n_devices=1, duration_s=6.0, chunk_s=2.0, seed=21)
    reference = StreamingExecutor(n_workers=1,
                                  preview=False).run(DeviceFleet(fleet))
    chunks = list(DeviceFleet(fleet))
    stalled = StalledSource(chunks, yield_chunks=1)
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False)
    thread = threading.Thread(target=daemon.serve,
                              args=([stalled],), daemon=True)
    thread.start()
    assert stalled.stalled.wait(timeout=10.0)
    deadline = time.monotonic() + 10.0
    while (daemon.supervisor.get("device-000") is None
           and time.monotonic() < deadline):
        time.sleep(0.01)
    daemon.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    record = daemon.supervisor.get("device-000")
    assert record.state == ACCEPTING        # still open, still journaled
    assert record.n_chunks == 1

    # Zero journal damage: a fresh scan sees one open, healthy session.
    with ChunkJournal(tmp_path) as journal:
        scan = journal.last_scan
        assert not scan.damaged
        assert journal.next_seq("device-000") == 1

    restarted = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = restarted.run_once(chunks)    # device re-sends everything
    _assert_sessions_identical(results, reference)


def test_closed_queue_waits_on_finalizes_instead_of_spinning(
        tmp_path, monkeypatch):
    """Once every source is exhausted the queue is closed and empty,
    so ``drain`` returns at once; while a slow finalize is pending the
    loop must block on it, one poll tick at a time, not spin on
    ``drain``."""
    chunks = list(DeviceFleet(FleetConfig(n_devices=1, duration_s=4.0,
                                          chunk_s=2.0, seed=5)))
    process = BeatToBeatPipeline.process_recording
    timings = tmp_path / "finalize_s.txt"

    def slow_process(pipeline, recording):
        # Runs in a pool worker: the duration comes home in a file.
        start = time.monotonic()
        time.sleep(0.5)
        try:
            return process(pipeline, recording)
        finally:
            with open(timings, "a") as out:
                out.write(f"{time.monotonic() - start}\n")

    drain = BoundedWorkQueue.drain
    drains = [0]

    def counting_drain(queue, timeout=None):
        drains[0] += 1
        return drain(queue, timeout)

    monkeypatch.setattr(BeatToBeatPipeline, "process_recording",
                        slow_process)
    monkeypatch.setattr(BoundedWorkQueue, "drain", counting_drain)
    # A fresh pool forks its workers from the patched process.
    shutdown_persistent_pool()
    try:
        daemon = ServeDaemon(tmp_path / "journal", n_workers=2,
                             health=False)
        results = daemon.run_once(chunks)
    finally:
        shutdown_persistent_pool()
    finalize_s = [float(line) for line in timings.read_text().split()]
    assert set(results) == {"device-000"}
    assert len(finalize_s) == 1
    assert drains[0] <= finalize_s[0] / daemon.poll_interval_s + 5


def test_finalize_timeout_needs_a_process_pool(tmp_path):
    """An inline finalize holds the drain loop, so its deadline could
    only be checked after it returned — quarantining sessions whose
    results were already computed.  The daemon refuses that shape."""
    deadline = DeadlinePolicy(finalize_timeout_s=0.1)
    with pytest.raises(ConfigurationError, match="n_workers >= 2"):
        ServeDaemon(tmp_path, n_workers=1, health=False,
                    deadline=deadline)
    daemon = ServeDaemon(tmp_path, n_workers=2, health=False,
                         deadline=deadline)
    assert daemon.deadline.finalize_timeout_s == 0.1


def test_serve_rejects_reentry_and_validates_config(tmp_path):
    with pytest.raises(ConfigurationError):
        ServeDaemon(tmp_path, durability="yolo")
    with pytest.raises(ConfigurationError):
        ServeDaemon(tmp_path, archive_interval_s=5.0)
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False)
    daemon._state = "serving"
    with pytest.raises(ReproError):
        daemon.serve([])
    daemon._state = "idle"


# -- supervised maintenance ------------------------------------------------


def test_gc_and_archive_ticks_keep_the_journal_usable(tmp_path):
    """Maintenance sweeps run against the live journal: GC closes,
    sweeps and reopens (same durability); archive flushes then copies;
    appends keep working afterwards."""
    archive_dir = tmp_path / "cold"
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False,
                         durability="group", archive_dir=archive_dir)
    results = daemon.run_once(DeviceFleet(
        FleetConfig(n_devices=1, duration_s=4.0, chunk_s=2.0, seed=2)))
    assert results

    daemon.journal = ChunkJournal(tmp_path, durability="group")
    daemon._archive_tick()
    assert any(archive_dir.iterdir())
    daemon._gc_tick()
    assert not daemon.journal.closed
    assert daemon.journal.durability == "group"
    extra = _flat_chunks("post-gc-000", chunk_s=0.5)
    assert daemon.journal.append(extra[0])
    daemon.journal.close()

    # Ticks against a closed journal are clean no-ops (the drained
    # daemon's timers may fire once more before they stop).
    daemon._gc_tick()
    daemon._archive_tick()
