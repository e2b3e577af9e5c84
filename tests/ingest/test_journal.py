"""Chunk journal: codec bit-exactness, framing, segmentation,
manifests, idempotent append, reopen semantics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, JournalError
from repro.ingest import (
    ChunkJournal,
    DeviceFleet,
    FleetConfig,
    SessionAssembler,
    chunk_recording,
    scan_journal,
)
from repro.ingest.journal import read_manifests
from repro.io.journal_records import (
    decode_chunk,
    encode_chunk,
    frame_record,
    scan_segment,
)
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording

FLEET = FleetConfig(n_devices=3, duration_s=8.0, chunk_s=2.0, seed=21)
MIXED_FS_FLEET = FleetConfig(n_devices=3, duration_s=8.0, chunk_s=2.0,
                             fs_choices=(250.0, 500.0), seed=21)


@pytest.fixture(scope="module")
def fleet():
    return DeviceFleet(FLEET)


@pytest.fixture(scope="module")
def chunks(fleet):
    return list(fleet)


def _journal_all(directory, chunks, **kwargs):
    with ChunkJournal(directory, **kwargs) as journal:
        for chunk in chunks:
            journal.append(chunk)
    return journal


# -- the record codec ----------------------------------------------------


def _scan_decoded(directory, chunks):
    """Chunks decoded through the scan path: framed into one segment
    file, read back with :func:`scan_segment`."""
    path = directory / "segment-00000.log"
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(frame_record(encode_chunk(chunk)))
    scan = scan_segment(path)
    assert scan.clean
    return [entry.chunk for entry in scan.entries]


def test_codec_roundtrips_every_chunk_bit_for_bit(tmp_path):
    """Both decode entry points rebuild every chunk exactly, each
    array a private, writeable little-endian float64 copy that
    overlaps no other decoded array."""
    chunks = list(DeviceFleet(MIXED_FS_FLEET))
    assert {chunk.fs for chunk in chunks} == {250.0, 500.0}
    assert any(chunk.annotations and chunk.meta for chunk in chunks)
    decoded_by = {
        "decode_chunk": [decode_chunk(encode_chunk(c)) for c in chunks],
        "scan_segment": _scan_decoded(tmp_path, chunks),
    }
    for decoded in decoded_by.values():
        assert len(decoded) == len(chunks)
        for back, chunk in zip(decoded, chunks):
            assert back.session_id == chunk.session_id
            assert back.seq == chunk.seq
            assert back.fs == chunk.fs
            assert back.start_sample == chunk.start_sample
            assert back.is_last == chunk.is_last
            assert back.arrival_s == chunk.arrival_s
            assert set(back.signals) == set(chunk.signals)
            for name in chunk.signals:
                assert np.array_equal(back.signals[name],
                                      chunk.signals[name])
            assert set(back.annotations) == set(chunk.annotations)
            for name in chunk.annotations:
                assert np.array_equal(back.annotations[name],
                                      chunk.annotations[name])
            assert back.meta == chunk.meta
        arrays = [array for back in decoded
                  for store in (back.signals, back.annotations)
                  for array in store.values()]
        for i, array in enumerate(arrays):
            assert array.dtype == np.dtype("<f8")
            assert array.flags.writeable
            for other in arrays[i + 1:]:
                assert not np.shares_memory(array, other)


def test_codec_roundtrips_trailer_annotations_and_meta():
    recording = synthesize_recording(
        default_cohort()[0], "device", 2, SynthesisConfig(duration_s=8.0))
    trailer = list(chunk_recording(recording, "s", 2.0))[-1]
    back = decode_chunk(encode_chunk(trailer))
    assert set(back.annotations) == set(recording.annotations)
    for name in recording.annotations:
        assert np.array_equal(back.annotations[name],
                              trailer.annotations[name])
    assert back.meta == dict(recording.meta)


def test_scan_segment_reads_back_framed_records(tmp_path, chunks):
    path = tmp_path / "segment-00000.log"
    with open(path, "wb") as fh:
        for chunk in chunks[:5]:
            fh.write(frame_record(encode_chunk(chunk)))
    scan = scan_segment(path)
    assert scan.clean
    assert len(scan.entries) == 5
    for entry, chunk in zip(scan.entries, chunks[:5]):
        assert entry.chunk.session_id == chunk.session_id
        assert entry.chunk.seq == chunk.seq


# -- the journal ---------------------------------------------------------


def test_journal_roundtrips_a_whole_fleet(tmp_path, fleet, chunks):
    _journal_all(tmp_path / "j", chunks)
    scan = scan_journal(tmp_path / "j")
    assert scan.n_records == len(chunks)
    assert not scan.damaged and scan.torn_tail is None
    assert set(scan.complete) == set(fleet.session_ids)
    assembler = SessionAssembler()
    for sid, journaled in scan.complete.items():
        rebuilt = None
        for chunk in journaled:
            rebuilt = assembler.add(chunk)
        want = fleet.session_recording(sid)
        assert np.array_equal(rebuilt.channel("z"), want.channel("z"))
        assert np.array_equal(rebuilt.channel("ecg"),
                              want.channel("ecg"))
        assert rebuilt.meta == want.meta


def test_append_is_idempotent_and_rejects_gaps(tmp_path, chunks):
    with ChunkJournal(tmp_path / "j") as journal:
        first = [c for c in chunks if c.session_id == chunks[0].session_id]
        assert journal.append(first[0]) is True
        assert journal.append(first[0]) is False      # replay: no-op
        with pytest.raises(JournalError):
            journal.append(first[2])                  # seq gap
        assert journal.append(first[1]) is True
        assert journal.next_seq(first[0].session_id) == 2
    assert scan_journal(tmp_path / "j").n_records == 2


def test_segment_rolling(tmp_path, chunks):
    journal = _journal_all(tmp_path / "j", chunks, segment_records=4)
    n_segments = (len(chunks) + 3) // 4
    assert len(journal.segments) == n_segments
    for path in journal.segments[:-1]:
        assert len(scan_segment(path).entries) == 4
    scan = scan_journal(tmp_path / "j")
    assert scan.n_records == len(chunks)
    assert set(scan.complete) == {c.session_id for c in chunks}


def test_manifests_written_on_trailer(tmp_path, fleet, chunks):
    _journal_all(tmp_path / "j", chunks)
    manifests = read_manifests(tmp_path / "j")
    assert set(manifests) == set(fleet.session_ids)
    for sid, manifest in manifests.items():
        recording = fleet.session_recording(sid)
        assert manifest["completed"] is True
        assert manifest["n_samples"] == recording.n_samples
        assert manifest["fs"] == recording.fs


def test_reopen_continues_the_log(tmp_path, chunks):
    cut = len(chunks) // 2
    _journal_all(tmp_path / "j", chunks[:cut], segment_records=4)
    with ChunkJournal(tmp_path / "j", segment_records=4) as journal:
        # Replaying the prefix is a no-op; the remainder appends.
        written = sum(journal.append(c) for c in chunks)
    assert written == len(chunks) - cut
    scan = scan_journal(tmp_path / "j")
    assert scan.n_records == len(chunks)
    assert set(scan.complete) == {c.session_id for c in chunks}


def test_open_sessions_tracked_until_trailer(tmp_path, chunks):
    sid = chunks[0].session_id
    session = [c for c in chunks if c.session_id == sid]
    with ChunkJournal(tmp_path / "j") as journal:
        for chunk in session[:-1]:
            journal.append(chunk)
        assert journal.open_sessions == (sid,)
        assert journal.completed_sessions == ()
        journal.append(session[-1])
        assert journal.open_sessions == ()
        assert journal.completed_sessions == (sid,)


def test_closed_journal_refuses_appends(tmp_path, chunks):
    journal = ChunkJournal(tmp_path / "j")
    journal.close()
    with pytest.raises(JournalError):
        journal.append(chunks[0])


def test_journal_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        ChunkJournal(tmp_path / "j", segment_records=0)
    with pytest.raises(JournalError):
        scan_journal(tmp_path / "nowhere")
