"""Daemon soak: the acceptance-criterion fleet (8 devices x 3 rounds
with churn) under crash sweeps, SIGTERM-style drains, overload
degradation, and a poisoned finalize worker.

Marked ``soak``: CI runs these in the dedicated hard-timeout soak job
(the main matrix excludes them), but they are plain pytest and run in
the full local suite too.
"""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ingest import (
    ChunkJournal,
    DeviceFleet,
    FleetConfig,
    StreamingExecutor,
)
from repro.serve import QUARANTINED, DeadlinePolicy, ServeDaemon, read_status

from tests.ingest.faults import SimulatedCrash, StalledSource

pytestmark = pytest.mark.soak

#: The acceptance-criterion fleet, as in tests/ingest/test_recovery.py.
ACCEPTANCE = FleetConfig(n_devices=8, duration_s=8.0, chunk_s=2.0,
                         seed=42, n_rounds=3, round_gap_s=2.0,
                         dropout=0.25, rejoin=True)

_CACHE = {}


def _acceptance_fleet():
    if "fleet" not in _CACHE:
        _CACHE["fleet"] = DeviceFleet(ACCEPTANCE)
    return _CACHE["fleet"]


def _reference():
    if "reference" not in _CACHE:
        _CACHE["reference"] = StreamingExecutor(
            n_workers=1, preview=False).run(_acceptance_fleet())
    return _CACHE["reference"]


def _assert_sessions_identical(got, want):
    assert want                             # a vacuous pass hides bugs
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


@pytest.mark.parametrize("crash_after", [5, 31, 83])
def test_crash_point_sweep_recovers_bit_identically(tmp_path,
                                                    crash_after):
    """SIGKILL the daemon at an arbitrary durable event (early boot,
    mid-stream, deep into finalizes); a fresh daemon on the same
    journal plus the re-sent streams recovers bit-identically to the
    uninterrupted run."""
    reference = _reference()
    count = [0]

    def crash_hook(stage, detail):
        count[0] += 1
        if count[0] == crash_after:
            raise SimulatedCrash(f"killed at event {crash_after} "
                                 f"({stage} {detail})")

    daemon = ServeDaemon(tmp_path, n_workers=1, health=False,
                         crash_hook=crash_hook)
    with pytest.raises(SimulatedCrash):
        daemon.run_once(_acceptance_fleet())

    restarted = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = restarted.run_once(_acceptance_fleet())
    _assert_sessions_identical(results, reference)


def test_sigterm_drain_mid_fleet_is_zero_damage(tmp_path):
    """Stop the daemon while the fleet is mid-stream: the drain exits
    cleanly, the journal scans with zero damage, and a restart plus
    re-send completes bit-identically."""
    reference = _reference()
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False)
    served_enough = threading.Event()
    n_live = [0]

    def watch_hook(stage, detail):
        if stage == "journaled":
            n_live[0] += 1
            if n_live[0] >= 20:
                served_enough.set()

    daemon.crash_hook = watch_hook
    thread = threading.Thread(target=daemon.run_once,
                              args=(_acceptance_fleet(),), daemon=True)
    thread.start()
    assert served_enough.wait(timeout=60.0)
    daemon.stop()                           # what the CLI's SIGTERM does
    thread.join(timeout=60.0)
    assert not thread.is_alive()

    with ChunkJournal(tmp_path) as journal:
        assert not journal.last_scan.damaged

    restarted = ServeDaemon(tmp_path, n_workers=1, health=False)
    results = restarted.run_once(_acceptance_fleet())
    _assert_sessions_identical(results, reference)


def test_stalled_device_in_the_fleet_does_not_block_the_rest(tmp_path):
    """One device of the fleet goes silent mid-round; the deadline
    quarantines exactly its session while every other session reaches
    the reference result."""
    reference = _reference()
    chunks = list(_acceptance_fleet())
    stalled_sid = sorted({c.session_id for c in chunks})[0]
    stalled = StalledSource(
        [c for c in chunks if c.session_id == stalled_sid],
        yield_chunks=1)
    rest = [c for c in chunks if c.session_id != stalled_sid]
    daemon = ServeDaemon(tmp_path, n_workers=1, health=False,
                         deadline=DeadlinePolicy(chunk_deadline_s=0.5))
    thread = threading.Thread(target=daemon.serve,
                              args=([stalled, rest],), daemon=True)
    thread.start()
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        record = daemon.supervisor.get(stalled_sid)
        if (record is not None and record.state == QUARANTINED
                and set(daemon.results) >= set(reference) - {stalled_sid}):
            break
        time.sleep(0.05)
    stalled.release()
    daemon.stop()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert daemon.supervisor.get(stalled_sid).state == QUARANTINED
    assert "stalled source" in daemon.supervisor.get(stalled_sid).reason
    want = {sid: r for sid, r in reference.items() if sid != stalled_sid}
    _assert_sessions_identical(daemon.results, want)


def test_poisoned_finalize_worker_then_restart_is_bit_identical(tmp_path):
    """SIGKILL a warm finalize worker of the process pool.  The
    run either degrades in place (BrokenProcessPool -> parent rerun)
    or dies like any crash — either way a restart recovers the full
    reference results."""
    from repro.core.executor import (
        _discard_persistent_pool,
        persistent_pool_stats,
        persistent_process_pool,
    )
    from tests.ingest.faults import kill_worker_job

    reference = _reference()
    _discard_persistent_pool(wait=True)
    try:
        with persistent_process_pool(2) as pool:
            pool.submit(kill_worker_job, "warm").result()
        pids = persistent_pool_stats()["pids"]
        assert pids, "warm pool has no workers to kill"
        os.kill(pids[0], signal.SIGKILL)

        daemon = ServeDaemon(tmp_path, n_workers=2, health=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                results = daemon.run_once(_acceptance_fleet())
            except Exception:
                results = None              # the pool break killed the run
        if results is None or set(results) != set(reference):
            restarted = ServeDaemon(tmp_path, n_workers=1, health=False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results = restarted.run_once(_acceptance_fleet())
        _assert_sessions_identical(results, reference)
    finally:
        _discard_persistent_pool(wait=True)


def test_status_socket_reports_degradation_under_overload(tmp_path):
    """The acceptance smoke for the health endpoint: a degraded daemon
    answers ``ok: false`` with the ladder's level over its socket."""
    source = StalledSource(
        DeviceFleet(FleetConfig(n_devices=1, duration_s=4.0,
                                chunk_s=2.0, seed=6)),
        yield_chunks=1)
    daemon = ServeDaemon(tmp_path, n_workers=1)
    thread = threading.Thread(target=daemon.serve,
                              args=([source],), daemon=True)
    thread.start()
    assert source.stalled.wait(timeout=30.0)
    deadline = time.monotonic() + 30.0
    while daemon._state != "serving" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert read_status(daemon.socket_path)["ok"] is True

    daemon.ladder.force(1)                  # overload: shed new sessions
    doc = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            doc = read_status(daemon.socket_path)
            break
        except ReproError:
            time.sleep(0.05)
    assert doc is not None
    assert doc["ok"] is False
    assert doc["degradation"] == {"level": 1, "name": "shed-new"}

    source.release()
    daemon.stop()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
