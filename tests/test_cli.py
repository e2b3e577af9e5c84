"""Command-line interface."""

import pytest

from repro import cli


def test_measure_prints_payload(capsys):
    code = cli.main(["measure", "--subject", "3", "--duration", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Z0" in out and "LVET" in out and "PEP" in out and "HR" in out
    assert "Subject 3" in out


def test_measure_thoracic_setup(capsys):
    code = cli.main(["measure", "--setup", "thoracic", "--duration",
                     "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "thoracic" in out


def test_cohort_batch_prints_payload_rows(capsys):
    code = cli.main(["cohort", "--duration", "12", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    for column in ("Z0", "LVET", "PEP", "HR"):
        assert column in out
    for sid in range(1, 6):
        assert f"Subject {sid}" in out


def test_cohort_process_backend(capsys):
    code = cli.main(["cohort", "--duration", "12", "--jobs", "2",
                     "--backend", "process"])
    out = capsys.readouterr().out
    assert code == 0
    for sid in range(1, 6):
        assert f"Subject {sid}" in out


def test_cohort_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        cli.main(["cohort", "--backend", "greenlet"])


def test_cache_stats_reports_hit_rates(capsys):
    code = cli.main(["cache-stats", "--duration", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "designs" in out and "kernels" in out
    assert "hit rate" in out


def test_cache_stats_reports_the_ingest_plane(capsys):
    code = cli.main(["cache-stats", "--duration", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Ingest plane (3 devices" in out
    assert "journal: 9 records" in out
    assert "0 B copied on the hot path" in out
    assert "group commit" in out and "fsync" in out


def test_power_reports_106_hours(capsys):
    code = cli.main(["power"])
    out = capsys.readouterr().out
    assert code == 0
    assert "106" in out


def test_monitor_reports_alert_days(capsys):
    code = cli.main(["monitor", "--days", "40", "--onset", "20",
                     "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "alert" in out
    assert "onset day 20" in out


def test_study_quick_renders_tables(capsys):
    code = cli.main(["study", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "TABLE II" in out
    assert "Fig 6" in out
    assert "Overall correlation" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_invalid_subject_rejected():
    with pytest.raises(SystemExit):
        cli.main(["measure", "--subject", "9"])


def test_parser_help_lists_commands():
    parser = cli.build_parser()
    help_text = parser.format_help()
    for command in ("measure", "cohort", "study", "power", "monitor",
                    "cache-stats"):
        assert command in help_text


def test_ingest_streams_a_fleet(capsys):
    code = cli.main(["ingest", "--devices", "3", "--duration", "8",
                     "--chunk", "1", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    for device in ("device-000", "device-001", "device-002"):
        assert device in out
    assert "backpressure" in out
    assert "Queue:" in out


def test_ingest_journaled_multiround_and_recover(tmp_path, capsys):
    """The CLI acceptance path: a journaled churning multi-round
    ingest leaves open sessions on disk; `repro recover` finalizes the
    completed ones and reports the open ones."""
    journal = tmp_path / "journal"
    code = cli.main(["ingest", "--devices", "3", "--duration", "8",
                     "--chunk", "2", "--jobs", "1", "--rounds", "2",
                     "--dropout", "0.5", "--no-rejoin", "--seed", "4",
                     "--journal", str(journal)])
    out = capsys.readouterr().out
    assert code == 0
    assert "device-000-r0" in out
    assert "Open sessions (journaled, awaiting trailer):" in out
    assert f"repro recover {journal}" in out

    code = cli.main(["recover", str(journal)])
    recover_out = capsys.readouterr().out
    assert code == 0
    assert "Recovered" in recover_out
    assert "Still open (no trailer journaled):" in recover_out
    # Every payload row the ingest printed is reproduced bit-for-bit
    # by recovery (same formatting of the same numbers).
    for line in out.splitlines():
        if line.startswith("  device-") and "Z0" in line:
            assert line in recover_out


def test_recover_reports_damage_with_exit_code(tmp_path, capsys):
    journal = tmp_path / "journal"
    code = cli.main(["ingest", "--devices", "2", "--duration", "8",
                     "--chunk", "2", "--jobs", "1", "--journal",
                     str(journal)])
    assert code == 0
    capsys.readouterr()
    from tests.ingest.faults import flip_crc_byte

    victim = flip_crc_byte(journal, index=1)
    code = cli.main(["recover", str(journal)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"DAMAGED {victim}" in out


def test_recover_rejects_missing_journal(tmp_path, capsys):
    code = cli.main(["recover", str(tmp_path / "nowhere")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_ingest_process_finalize_backend(capsys):
    code = cli.main(["ingest", "--devices", "2", "--duration", "8",
                     "--chunk", "2", "--jobs", "2", "--backend",
                     "process"])
    out = capsys.readouterr().out
    assert code == 0
    assert "device-001" in out


def test_sharded_study_and_merge_roundtrip(tmp_path, capsys):
    for index in range(2):
        code = cli.main(["study", "--quick", "--shards", "2",
                         "--shard-index", str(index), "--out",
                         str(tmp_path / f"shard{index}.npz")])
        assert code == 0
    capsys.readouterr()
    code = cli.main(["merge", str(tmp_path / "shard0.npz"),
                     str(tmp_path / "shard1.npz")])
    out = capsys.readouterr().out
    assert code == 0
    assert "TABLE III" in out
    assert "Overall correlation" in out


def test_study_shards_require_out(capsys):
    code = cli.main(["study", "--quick", "--shards", "2",
                     "--shard-index", "0"])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_study_rejects_bad_shard_index(capsys):
    code = cli.main(["study", "--quick", "--shards", "2",
                     "--shard-index", "5", "--out", "x.npz"])
    assert code == 2


def test_merge_rejects_incomplete_shard_set(tmp_path, capsys):
    code = cli.main(["study", "--quick", "--shards", "2",
                     "--shard-index", "0", "--out",
                     str(tmp_path / "only.npz")])
    assert code == 0
    capsys.readouterr()
    code = cli.main(["merge", str(tmp_path / "only.npz")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cache_stats_process_backend_reports_workers(capsys):
    code = cli.main(["cache-stats", "--duration", "8", "--backend",
                     "process", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Per-worker process-local caches" in out
    assert "worker pid" in out


def _journaled_ingest(journal):
    code = cli.main(["ingest", "--devices", "2", "--duration", "8",
                     "--chunk", "2", "--jobs", "1", "--journal",
                     str(journal)])
    assert code == 0


def test_recover_json_reports_verdicts_and_taxonomy(tmp_path, capsys):
    import json

    journal = tmp_path / "journal"
    _journaled_ingest(journal)
    capsys.readouterr()
    code = cli.main(["recover", "--json", str(journal)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["exit_code"] == 0
    assert payload["journal"] == str(journal)
    assert payload["n_records"] > 0
    assert payload["bytes_scanned"] > 0
    verdicts = {s["verdict"] for s in payload["sessions"].values()}
    assert verdicts == {"recovered"}
    for session in payload["sessions"].values():
        assert session["n_chunks"] > 0
        assert {"z0_ohm", "lvet_s", "pep_s", "hr_bpm"} \
            <= set(session["payload"])
    assert payload["damage"]["crc_mismatch"] == 0
    assert payload["damage"]["unattributed_records"] == 0


def test_recover_json_damage_counts_and_exit_code(tmp_path, capsys):
    import json

    journal = tmp_path / "journal"
    _journaled_ingest(journal)
    capsys.readouterr()
    from tests.ingest.faults import flip_crc_byte

    victim = flip_crc_byte(journal, index=1)
    code = cli.main(["recover", "--json", str(journal)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["exit_code"] == 1
    assert payload["sessions"][victim]["verdict"] == "damaged"
    assert "crc mismatch" in payload["sessions"][victim]["reason"]
    assert payload["damage"]["crc_mismatch"] == 1


def test_recover_reports_rejected_session_with_exit_code(tmp_path,
                                                         capsys):
    """A complete session the pipeline rejects is named, with its
    reason, in both report forms, and the exit code is 1; the other
    sessions still recover."""
    import json

    import numpy as np

    from repro.ingest import ChunkJournal, chunk_recording
    from repro.io import Recording

    journal = tmp_path / "journal"
    _journaled_ingest(journal)
    capsys.readouterr()
    flat = Recording(fs=250.0, signals={"ecg": np.zeros(2000),
                                        "z": np.full(2000, 25.0)})
    with ChunkJournal(journal) as writer:
        for chunk in chunk_recording(flat, "flatline"):
            writer.append(chunk)

    code = cli.main(["recover", str(journal)])
    out = capsys.readouterr().out
    assert code == 1
    assert "Recovered 2 session(s)" in out
    assert "REJECTED flatline: fewer than two R peaks" in out

    code = cli.main(["recover", "--json", str(journal)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["exit_code"] == 1
    assert payload["sessions"]["flatline"]["verdict"] == "rejected"
    assert "fewer than two R peaks" in \
        payload["sessions"]["flatline"]["reason"]
    verdicts = [s["verdict"] for s in payload["sessions"].values()]
    assert verdicts.count("recovered") == 2


def test_recover_json_sessions_match_across_backends(tmp_path, capsys):
    """The default cohort backend reports exactly what the thread
    backend does: same sessions, verdicts, chunk counts and payloads."""
    import json

    journal = tmp_path / "journal"
    code = cli.main(["ingest", "--devices", "3", "--duration", "8",
                     "--chunk", "2", "--jobs", "1", "--rounds", "2",
                     "--dropout", "0.5", "--no-rejoin", "--seed", "4",
                     "--journal", str(journal)])
    assert code == 0
    capsys.readouterr()
    sessions = {}
    for backend in ("cohort", "thread"):
        code = cli.main(["recover", "--json", "--backend", backend,
                         str(journal)])
        assert code == 0
        sessions[backend] = json.loads(capsys.readouterr().out)["sessions"]
    verdicts = {s["verdict"] for s in sessions["cohort"].values()}
    assert verdicts == {"recovered", "open"}
    assert sessions["cohort"] == sessions["thread"]


def test_journal_gc_reclaims_and_reports(tmp_path, capsys):
    journal = tmp_path / "journal"
    _journaled_ingest(journal)
    capsys.readouterr()
    code = cli.main(["journal-gc", "--dry-run", str(journal)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Would reclaim" in out

    code = cli.main(["journal-gc", str(journal)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Reclaimed" in out and "-> 0 bytes" in out
    assert "Sessions collected:" in out

    code = cli.main(["journal-gc", str(journal)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Nothing to collect" in out


def test_journal_gc_json_payload(tmp_path, capsys):
    import json

    journal = tmp_path / "journal"
    _journaled_ingest(journal)
    capsys.readouterr()
    code = cli.main(["journal-gc", "--json", str(journal)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["bytes_before"] > payload["bytes_after"] == 0
    assert payload["sessions_collected"]
    assert payload["dry_run"] is False


def test_archive_and_rehydrate_roundtrip(tmp_path, capsys):
    journal = tmp_path / "journal"
    cold = tmp_path / "cold"
    _journaled_ingest(journal)
    ingest_out = capsys.readouterr().out
    code = cli.main(["archive", str(journal), str(cold)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Archived 2 session(s)" in out
    assert f"repro journal-gc {journal}" in out

    code = cli.main(["rehydrate", "--list", str(cold)])
    out = capsys.readouterr().out
    assert code == 0
    assert "device-000" in out and "device-001" in out

    code = cli.main(["journal-gc", str(journal)])
    capsys.readouterr()
    code = cli.main(["rehydrate", str(cold), "device-001"])
    out = capsys.readouterr().out
    assert code == 0
    # The archived session replays to the exact rows the live ingest
    # printed (bit-identical rehydration, same formatting).
    for line in ingest_out.splitlines():
        if line.startswith("  device-001") and "Z0" in line:
            assert line in out


def test_archive_skips_are_reported_with_exit_code(tmp_path, capsys):
    journal = tmp_path / "journal"
    _journaled_ingest(journal)
    capsys.readouterr()
    code = cli.main(["archive", str(journal), str(tmp_path / "cold"),
                     "--sessions", "device-000", "ghost"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SKIPPED ghost: unknown to the journal" in out
    assert "device-000" in out


def test_rehydrate_requires_a_session_or_list(tmp_path, capsys):
    code = cli.main(["rehydrate", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "session id" in captured.err


def test_rehydrate_unknown_session_is_an_error(tmp_path, capsys):
    (tmp_path / "index.json").write_text("{}")
    code = cli.main(["rehydrate", str(tmp_path), "ghost"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_parser_help_lists_lifecycle_commands():
    parser = cli.build_parser()
    help_text = parser.format_help()
    for command in ("recover", "journal-gc", "archive", "rehydrate",
                    "serve"):
        assert command in help_text


def test_cache_stats_process_backend_reports_pool_reuse(capsys):
    """The command runs two fan-outs, so the warm pool must report at
    least one reuse (unless the kill switch disabled it)."""
    code = cli.main(["cache-stats", "--duration", "8", "--backend",
                     "process", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Warm process pool" in out
    import re
    match = re.search(r"(\d+) built / (\d+) reused", out)
    assert match is not None
    assert int(match.group(2)) >= 1


def test_serve_runs_a_fleet_to_done(tmp_path, capsys):
    code = cli.main(["serve", "--journal", str(tmp_path),
                     "--devices", "2", "--duration", "4",
                     "--jobs", "1", "--no-health"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Serving 2 device(s)" in out
    assert "Sessions: 2 done, 0 still open (journaled), 0 quarantined" in out
    assert "Policies:" in out


def test_serve_status_round_trip(tmp_path, capsys):
    """`repro serve --status` reads the live daemon's socket and exits
    0 while the service is healthy."""
    import json
    import threading
    import time

    from repro.ingest import DeviceFleet, FleetConfig
    from repro.serve import ServeDaemon
    from tests.ingest.faults import StalledSource

    source = StalledSource(
        DeviceFleet(FleetConfig(n_devices=1, duration_s=4.0,
                                chunk_s=2.0, seed=8)),
        yield_chunks=1)
    daemon = ServeDaemon(tmp_path, n_workers=1)
    thread = threading.Thread(target=daemon.serve,
                              args=([source],), daemon=True)
    thread.start()
    try:
        assert source.stalled.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        code = 1
        while time.monotonic() < deadline:
            if daemon._state == "serving":
                code = cli.main(["serve", "--journal", str(tmp_path),
                                 "--status"])
                break
            time.sleep(0.02)
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and doc["state"] == "serving"
    finally:
        source.release()
        daemon.stop()
        thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_serve_status_without_a_daemon_is_an_error(tmp_path, capsys):
    code = cli.main(["serve", "--journal", str(tmp_path), "--status"])
    captured = capsys.readouterr()
    assert code == 1
    assert "no serve daemon answering" in captured.err


def test_serve_resumes_a_previous_journal(tmp_path, capsys):
    """Two `repro serve` runs over one journal: the second boots from
    the first's journal and re-finalizes nothing incorrectly."""
    for _ in range(2):
        code = cli.main(["serve", "--journal", str(tmp_path),
                         "--devices", "1", "--duration", "4",
                         "--jobs", "1", "--no-health"])
        assert code == 0
    out = capsys.readouterr().out
    assert "Sessions: 1 done" in out


def test_cache_stats_reports_serve_counters(capsys):
    code = cli.main(["cache-stats", "--duration", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Serve daemon" in out
    assert "accepted" in out and "quarantined" in out
