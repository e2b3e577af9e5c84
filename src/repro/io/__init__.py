"""Recording containers, shard artifacts, journal records, cold-tier
session archives and persistence."""

from repro.io.archive import (
    ArchiveReport,
    archive_sessions,
    load_archive,
    read_archive_index,
    rehydrate_session,
    save_archive,
)
from repro.io.records import Recording
from repro.io.shards import load_shard, save_shard
from repro.io.journal_records import (
    RecordEntry,
    SegmentScan,
    decode_chunk,
    encode_chunk,
    encode_chunk_iov,
    frame_nbytes,
    frame_record,
    frame_record_iov,
    payload_crc,
    scan_segment,
)

__all__ = ["Recording", "save_shard", "load_shard",
           "encode_chunk", "encode_chunk_iov", "decode_chunk",
           "frame_record", "frame_record_iov", "payload_crc",
           "frame_nbytes",
           "RecordEntry", "SegmentScan", "scan_segment",
           "ArchiveReport", "archive_sessions", "save_archive",
           "load_archive", "rehydrate_session", "read_archive_index"]
