"""The zero-copy ingest plane: the iovec journal codec, group-commit
write-through — and the hypothesis parity sweep pinning every worker
count, durability mode and codec bit-identical to an unjournaled
single-worker run over the churning acceptance fleet."""

import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, JournalError
from repro.ingest import (
    BoundedWorkQueue,
    ChunkJournal,
    DeviceFleet,
    DURABILITY_MODES,
    FleetConfig,
    JOURNAL_CODECS,
    RecordingChunk,
    StreamingExecutor,
    chunk_recording,
    ingest_stats,
    reset_ingest_stats,
    scan_journal,
)
from repro.ingest.journal import read_manifests
from repro.io.journal_records import (
    decode_chunk,
    encode_chunk,
    encode_chunk_iov,
    frame_nbytes,
    frame_record,
    frame_record_iov,
    payload_crc,
)
from repro.synth import SynthesisConfig, default_cohort, synthesize_recording

#: The acceptance-criterion fleet: 8 devices x 3 rounds, with churn.
ACCEPTANCE = FleetConfig(n_devices=8, duration_s=8.0, chunk_s=2.0,
                         seed=42, n_rounds=3, round_gap_s=2.0,
                         dropout=0.25, rejoin=True)

_CACHE = {}


@pytest.fixture(scope="module")
def recording():
    return synthesize_recording(default_cohort()[0], "device", 1,
                                SynthesisConfig(duration_s=12.0))


@pytest.fixture(scope="module")
def chunks(recording):
    return list(chunk_recording(recording, "s", 2.0))


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_ingest_stats()
    yield
    reset_ingest_stats()


def _iov_bytes(parts):
    return b"".join(bytes(memoryview(p)) for p in parts)


# -- the iovec codec ------------------------------------------------------


def test_iov_codec_is_bit_identical_to_bytes_codec(chunks):
    for chunk in chunks:
        payload = encode_chunk(chunk)
        parts = encode_chunk_iov(chunk)
        assert _iov_bytes(parts) == payload
        assert frame_nbytes(parts) == len(frame_record(payload))
        assert _iov_bytes(frame_record_iov(parts)) == \
            frame_record(payload)


def test_iov_codec_shares_the_chunk_memory(chunks):
    """The raw-sample parts alias the chunk's arrays — nothing is
    materialised, and the copy counter stays at zero."""
    chunk = chunks[0]
    reset_ingest_stats()
    parts = encode_chunk_iov(chunk)
    assert ingest_stats().bytes_copied == 0
    sample_parts = [np.frombuffer(memoryview(p), dtype="<f8")
                    for p in parts[1:]]
    arrays = list(chunk.signals.values()) + \
        list(chunk.annotations.values())
    for part, array in zip(sample_parts, arrays):
        assert np.shares_memory(part, array)


def test_payload_crc_chains_like_a_single_crc(chunks):
    parts = encode_chunk_iov(chunks[0])
    assert payload_crc(parts) == \
        zlib.crc32(_iov_bytes(parts)) & 0xFFFFFFFF


def test_codec_roundtrips_noncontiguous_and_readonly_views():
    """Strided device buffers and read-only views must encode
    through both codecs and decode bit-identically; the iov path folds
    the contiguity cast into its accounted copies."""
    rng = np.random.default_rng(5)
    raw = rng.normal(size=400)
    strided = raw[::2]                    # non-contiguous
    frozen = np.ascontiguousarray(raw[:200])
    frozen.setflags(write=False)          # read-only (a shared view)
    assert not strided.flags["C_CONTIGUOUS"]
    chunk = RecordingChunk("views", 0, 250.0,
                           {"z": strided, "ecg": frozen}, 0,
                           is_last=True)
    for payload in (encode_chunk(chunk),
                    _iov_bytes(encode_chunk_iov(chunk))):
        back = decode_chunk(payload)
        assert np.array_equal(back.signals["z"], strided)
        assert np.array_equal(back.signals["ecg"], frozen)
    # The strided signal forced one accounted cast copy; the read-only
    # contiguous one rode through untouched.
    reset_ingest_stats()
    encode_chunk_iov(chunk)
    assert ingest_stats().bytes_copied == strided.nbytes


def test_frame_record_accepts_bytes_or_iovec(chunks):
    """The satellite fix: framing an iovec no longer materialises the
    payload twice — both spellings produce the same frame."""
    chunk = chunks[0]
    assert frame_record(encode_chunk_iov(chunk)) == \
        frame_record(encode_chunk(chunk))
    view = memoryview(encode_chunk(chunk))
    assert frame_record(view) == frame_record(bytes(view))


def test_scan_credits_exactly_the_decoded_bytes(tmp_path):
    """A journal scan's ``bytes_copied`` is the decoded arrays' bytes:
    signals and trailer annotations, over every segment."""
    fleet = DeviceFleet(FleetConfig(n_devices=2, duration_s=8.0,
                                    chunk_s=2.0, seed=7))
    with ChunkJournal(tmp_path / "j", segment_records=3) as journal:
        for chunk in fleet:
            journal.append(chunk)
    reset_ingest_stats()
    scan = scan_journal(tmp_path / "j")
    assert len(scan.segments) > 1
    decoded = [chunk for chunks in (*scan.complete.values(),
                                    *scan.open.values())
               for chunk in chunks]
    assert len(decoded) == scan.n_records
    assert any(chunk.annotations for chunk in decoded)
    assert ingest_stats().bytes_copied == sum(
        array.nbytes for chunk in decoded
        for store in (chunk.signals, chunk.annotations)
        for array in store.values())


# -- group-commit write-through -------------------------------------------


def _journal_all(directory, chunks, **kwargs):
    with ChunkJournal(directory, **kwargs) as journal:
        for chunk in chunks:
            journal.append(chunk)
    return journal


def _segment_bytes(journal):
    return b"".join(path.read_bytes() for path in journal.segments)


@pytest.mark.parametrize("durability", DURABILITY_MODES)
@pytest.mark.parametrize("codec", JOURNAL_CODECS)
def test_every_mode_writes_the_same_bytes(tmp_path, chunks, durability,
                                          codec):
    """Group commit and the iovec codec change *when* bytes reach the
    disk, never *which* bytes: every durability x codec combination
    produces the byte-identical journal."""
    reference = _journal_all(tmp_path / "ref", chunks)
    journal = _journal_all(tmp_path / "j", chunks,
                           durability=durability, codec=codec)
    assert _segment_bytes(journal) == _segment_bytes(reference)
    assert read_manifests(tmp_path / "j") == \
        read_manifests(tmp_path / "ref")


def test_finalize_barriers_the_group_buffer(tmp_path, chunks):
    """``flush`` is the group-mode finalize barrier: once it returns,
    every buffered record *and* the queued completion manifest are on
    disk (appends themselves never serialize on the writer — the
    manifest marker rides the write queue behind its trailer)."""
    with ChunkJournal(tmp_path / "j", durability="group") as journal:
        for chunk in chunks:
            journal.append(chunk)
            if chunk.is_last:
                journal.flush()
                scan = scan_journal(tmp_path / "j")
                assert scan.n_records == len(chunks)
                assert "s" in read_manifests(tmp_path / "j")


def test_group_reopen_is_idempotent(tmp_path, chunks):
    cut = len(chunks) // 2
    _journal_all(tmp_path / "j", chunks[:cut], durability="group")
    with ChunkJournal(tmp_path / "j", durability="group") as journal:
        written = sum(journal.append(c) for c in chunks)
    assert written == len(chunks) - cut
    assert scan_journal(tmp_path / "j").n_records == len(chunks)


def test_group_backpressure_never_drops_records(tmp_path, chunks):
    """A pending-byte budget far below one record still admits every
    append (the bound caps buffering, not record size) — the producer
    just runs lockstep with the writer."""
    _journal_all(tmp_path / "j", chunks, durability="group",
                 max_pending_bytes=1024)
    assert scan_journal(tmp_path / "j").n_records == len(chunks)


def test_fsync_batches_per_window_not_per_record(tmp_path, chunks):
    _journal_all(tmp_path / "s", chunks, durability="strict",
                 fsync=True)
    strict = ingest_stats().strict_fsyncs
    reset_ingest_stats()
    _journal_all(tmp_path / "g", chunks, durability="group",
                 fsync=True)
    stats = ingest_stats()
    assert strict == len(chunks)
    assert 1 <= stats.group_fsyncs <= stats.group_flushes
    assert stats.group_flushes <= len(chunks)


def test_group_writer_error_surfaces_as_journal_error(tmp_path,
                                                      chunks):
    journal = ChunkJournal(tmp_path / "j", durability="group")
    try:
        def explode(batch):
            raise OSError("disk on fire")

        journal._write_batch = explode
        with pytest.raises(JournalError, match="journal writer"):
            for chunk in chunks:
                journal.append(chunk)
                journal.flush()
    finally:
        with pytest.raises(JournalError):
            journal.close()


def test_journal_mode_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        ChunkJournal(tmp_path / "j", durability="eventually")
    with pytest.raises(ConfigurationError):
        ChunkJournal(tmp_path / "j", codec="pickle")
    with pytest.raises(ConfigurationError):
        ChunkJournal(tmp_path / "j", max_pending_bytes=0)


# -- work-queue sizing (the `_size_of` satellite) -------------------------


class _ShapedItem:
    shape = (1000,)
    dtype = "float64"


def test_size_of_falls_back_to_shape_and_dtype():
    queue = BoundedWorkQueue(max_items=None, max_bytes=10_000)
    queue.put(_ShapedItem())
    assert queue.stats.peak_bytes == 8000


def test_unsized_items_warn_once_per_queue():
    queue = BoundedWorkQueue(max_items=None, max_bytes=100)
    with pytest.warns(RuntimeWarning, match="byte"):
        queue.put(object())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        queue.put(object())               # second put: already warned
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert queue.stats.peak_bytes == 0
    assert len(queue) == 2


def test_unsized_items_stay_silent_without_a_byte_bound():
    queue = BoundedWorkQueue(max_items=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        queue.put(object())
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)]


# -- the executor hot path and the parity sweep ---------------------------


def _acceptance_fleet():
    if "fleet" not in _CACHE:
        _CACHE["fleet"] = DeviceFleet(ACCEPTANCE)
    return _CACHE["fleet"]


def _oracle_results():
    if "oracle" not in _CACHE:
        _CACHE["oracle"] = StreamingExecutor(
            n_workers=1, preview=False).run(_acceptance_fleet())
    return _CACHE["oracle"]


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


def test_streaming_hot_path_copies_nothing(tmp_path):
    """A journaled run ships the device's own arrays through queue,
    assembler and iovec codec and copies zero bytes on the way."""
    fleet = DeviceFleet(FleetConfig(n_devices=3, duration_s=6.0,
                                    chunk_s=2.0, seed=9))
    n_chunks = sum(1 for _ in fleet)
    reset_ingest_stats()
    with ChunkJournal(tmp_path / "j", durability="group",
                      codec="iov") as journal:
        StreamingExecutor(n_workers=1, preview=False,
                          journal=journal).run(fleet)
    stats = ingest_stats()
    assert stats.bytes_copied == 0
    assert stats.journal_records == n_chunks


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_streaming_is_bit_identical_across_workers_and_journals(data):
    """Property: over the churning acceptance fleet, any worker count,
    journaling choice, durability mode and codec produces per-session
    results bit-identical to an unjournaled single-worker run."""
    oracle = _oracle_results()
    fleet = _acceptance_fleet()
    n_workers = data.draw(st.integers(min_value=1, max_value=3),
                          label="n_workers")
    journaled = data.draw(st.booleans(), label="journaled")
    durability = data.draw(st.sampled_from(DURABILITY_MODES),
                           label="durability")
    codec = data.draw(st.sampled_from(JOURNAL_CODECS), label="codec")
    directory = _CACHE["tmp_factory"](f"w{n_workers}-{durability}")
    journal = (ChunkJournal(directory, durability=durability,
                            codec=codec) if journaled else None)
    try:
        results = StreamingExecutor(
            n_workers=n_workers, preview=False,
            journal=journal).run(fleet)
    finally:
        if journal is not None:
            journal.close()
    _assert_sessions_identical(results, oracle)


@pytest.fixture(scope="module", autouse=True)
def _tmp_factory(tmp_path_factory):
    """Expose pytest's tmp dir factory to the hypothesis body (fixtures
    cannot be drawn inside @given examples)."""
    counter = [0]

    def make(tag):
        counter[0] += 1
        return tmp_path_factory.mktemp(f"zcopy-{counter[0]}-{tag}")

    _CACHE["tmp_factory"] = make
    yield
    _CACHE.pop("tmp_factory", None)
