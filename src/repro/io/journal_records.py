"""CRC-framed on-disk records for the durable-ingest chunk journal.

One journal segment is a flat append-only file of framed records, each
holding exactly one :class:`~repro.ingest.chunks.RecordingChunk`:

```
record  := MAGIC(4) | payload_len u32 | crc32(payload) u32 | payload
payload := header_len u32 | header JSON (utf-8) | float64 arrays
```

The JSON header carries the chunk coordinates (session id, seq, fs,
start_sample, is_last, arrival_s), the name and length of every signal
and annotation array, and the scalar metadata; the arrays follow
back-to-back as raw little-endian float64 — so a decode reproduces the
encoded chunk bit-for-bit (float64 bytes round-trip exactly, and JSON
round-trips Python scalars exactly).

The framing is what makes crash recovery tractable:

* a **torn tail** (the process died mid-``write``) shows up as a frame
  or payload shorter than its declared length — recoverable by
  truncating to the last good record;
* a **flipped byte** anywhere in the payload or the stored CRC shows
  up as a CRC mismatch, but the frame length stays trustworthy, so the
  scan steps over the damaged record and keeps reading the segment;
* only a corrupted *frame header* (bad magic) ends a scan early — at
  that point the byte stream has lost its framing entirely.

:func:`scan_segment` implements exactly that taxonomy and never
raises on damaged input; callers decide what a damaged record means
(the recovery layer quarantines the affected session).

Two codec paths share the byte format:

* :func:`encode_chunk` materializes the payload as one ``bytes`` — the
  reference path, paying an ``arr.tobytes()`` copy per array plus a
  join per payload and another per frame;
* :func:`encode_chunk_iov` returns the *same payload* as an iovec of
  buffers (header bytes + raw little-endian float64 views over the
  chunk's arrays) and :func:`frame_record_iov` frames it with the CRC
  chained incrementally over the views (``zlib.crc32`` carries state),
  so a journal append materializes **zero** intermediate bytes — the
  frame goes to disk through one ``os.writev``.  The concatenation of
  the iovec is bit-identical to the reference frame, pinned by test.

On the read side one decoder serves both :func:`scan_segment` and
:func:`decode_chunk`.  The scan checks each record's CRC before it
decodes it.  A record's arrays lie back-to-back on disk, so one
``frombuffer().copy()`` lifts them all into a private block and each
name gets a disjoint slice of it: one private copy per record, never
a view into the segment buffer.  Encoders and decoder alike credit
:mod:`repro.ingest.stats` so "zero copies" is an asserted number, not
a comment; the scan credits its decoded bytes once per segment,
:func:`decode_chunk` once per call.
"""

from __future__ import annotations

import functools
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.errors import JournalError

# RecordingChunk is imported lazily, by _chunk_type: the io package
# sits below repro.ingest in the import graph (chunks are built from
# repro.io.records), so a module-level import here would be circular —
# the same convention repro.io.shards uses for the experiment types.

__all__ = ["MAGIC", "encode_chunk", "encode_chunk_iov", "decode_chunk",
           "frame_record", "frame_record_iov",
           "payload_crc", "frame_nbytes", "RecordEntry", "SegmentScan",
           "scan_segment"]

#: Frame marker; a scan that does not find it where a record should
#: start has lost the framing and must stop.
MAGIC = b"ICGJ"

#: Frame header: magic | payload_len u32 | crc32 u32.
_FRAME_HEAD = struct.Struct("<4sII")
_FRAME = _FRAME_HEAD.size

#: The wire dtype.  Arrays already in it (device chunks are) skip the
#: ``ascontiguousarray`` round-trip on the encode hot path.
_LE_F8 = np.dtype("<f8")

_U32 = struct.Struct("<I")

_JSON = json.JSONDecoder()


def _credit(**deltas) -> None:
    """Credit the ingest counters (lazy import: repro.io sits below
    repro.ingest in the import graph, same convention as the chunk
    types themselves)."""
    from repro.ingest.stats import ingest_stats
    ingest_stats().add(**deltas)


def _as_buffer(part):
    """A byte-granular buffer over one iovec part (no copy)."""
    if isinstance(part, (bytes, bytearray)):
        return part
    view = part if isinstance(part, memoryview) else memoryview(part)
    return view if view.format == "B" else view.cast("B")


def _part_nbytes(part) -> int:
    """Byte length of one iovec part."""
    if isinstance(part, (bytes, bytearray)):
        return len(part)
    if isinstance(part, (np.ndarray, memoryview)):
        return part.nbytes
    return memoryview(part).nbytes


def _meta_scalar(value):
    """A JSON-safe view of one Recording meta scalar (numpy scalars
    become the equivalent Python number; equality is preserved)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _payload_parts(chunk):
    """The payload of one chunk as ``(parts, payload_len, cast_bytes)``.

    ``parts`` is the header blob (``bytes``) followed by the chunk's
    arrays as contiguous little-endian float64 ``ndarray``s — still
    zero-copy views whenever the chunk's arrays already are;
    ``cast_bytes`` counts the bytes a dtype/contiguity
    conversion had to materialize.  Both encoders join/iterate these
    same parts, which is what makes them bit-identical by
    construction.
    """
    cast_bytes = 0
    arrays = []
    sized = {"signals": [], "annotations": []}
    for key, store in (("signals", chunk.signals),
                       ("annotations", chunk.annotations)):
        for name, data in store.items():
            if (isinstance(data, np.ndarray) and data.dtype == _LE_F8
                    and data.flags.c_contiguous):
                arr = data
            else:
                src = np.asarray(data)
                arr = np.ascontiguousarray(src, dtype="<f8")
                if arr is not src:
                    cast_bytes += arr.nbytes
            sized[key].append([name, int(arr.size)])
            arrays.append(arr)
    header = {
        "session_id": chunk.session_id,
        "seq": int(chunk.seq),
        "fs": float(chunk.fs),
        "start_sample": int(chunk.start_sample),
        "is_last": bool(chunk.is_last),
        "arrival_s": float(chunk.arrival_s),
        "signals": sized["signals"],
        "annotations": sized["annotations"],
        "meta": {key: _meta_scalar(value)
                 for key, value in chunk.meta.items()},
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [_U32.pack(len(head)) + head]
    parts.extend(arrays)
    payload_len = len(parts[0]) + sum(arr.nbytes for arr in arrays)
    return parts, payload_len, cast_bytes


def encode_chunk(chunk) -> bytes:
    """Serialise one chunk to a record *payload* (no frame).

    The reference (object-mode) codec: every array is materialized via
    ``tobytes`` and the parts joined — copies the iovec path avoids
    and the ``bytes_copied`` counter makes visible.
    """
    parts, payload_len, cast_bytes = _payload_parts(chunk)
    payload = b"".join(p if isinstance(p, bytes) else p.tobytes()
                       for p in parts)
    # casts + per-array tobytes + the join itself
    _credit(bytes_copied=cast_bytes
            + (payload_len - len(parts[0])) + payload_len)
    return payload


def encode_chunk_iov(chunk) -> list:
    """Serialise one chunk to a payload *iovec* (no frame, no copies).

    Returns a list of buffers — header ``bytes`` followed by raw
    float64 views over the chunk's arrays — whose concatenation equals
    :func:`encode_chunk`'s payload bit-for-bit.  Nothing is
    materialized unless an array needed a dtype/contiguity cast (the
    only case that credits ``bytes_copied``).
    """
    parts, _, cast_bytes = _payload_parts(chunk)
    if cast_bytes:
        _credit(bytes_copied=cast_bytes)
    return parts


def decode_chunk(payload):
    """Rebuild the :class:`~repro.ingest.chunks.RecordingChunk` a
    payload encodes (raises on malformed input — callers gate on the
    CRC first).  The arrays are disjoint slices of one private copy,
    never views into ``payload``."""
    chunk, copied = _decode(payload)
    _credit(bytes_copied=copied)
    return chunk


@functools.cache
def _chunk_type():
    """:class:`~repro.ingest.chunks.RecordingChunk`, imported once on
    first use (an import statement per record costs about 1 µs)."""
    from repro.ingest.chunks import RecordingChunk
    return RecordingChunk


def _decode(payload):
    """``(chunk, bytes_copied)`` of one record payload — the single
    decoder behind :func:`decode_chunk` and :func:`scan_segment`.

    The float64 arrays sit back-to-back after the header, so one
    ``frombuffer().copy()`` lifts all of them into a private block and
    each name gets a disjoint slice of it: one copy per record, never
    a view into the caller's buffer.
    """
    header, offset = _decode_header(payload)
    layout = header["signals"] + header["annotations"]
    total = 0
    for _, size in layout:
        if size < 0:
            raise JournalError("record declares a negative array size")
        total += size
    if len(payload) - offset < total * 8:
        raise JournalError("record payload shorter than its "
                           "declared arrays")
    block = np.frombuffer(payload, dtype=_LE_F8, count=total,
                          offset=offset).copy()
    signals, annotations = {}, {}
    position = 0
    for store, names in ((signals, header["signals"]),
                         (annotations, header["annotations"])):
        for name, size in names:
            store[name] = block[position:position + size]
            position += size
    chunk = _chunk_type()(
        session_id=header["session_id"],
        seq=int(header["seq"]),
        fs=float(header["fs"]),
        signals=signals,
        start_sample=int(header["start_sample"]),
        is_last=bool(header["is_last"]),
        arrival_s=float(header["arrival_s"]),
        annotations=annotations,
        meta=header["meta"],
    )
    return chunk, block.nbytes


def _decode_header(payload):
    """``(header dict, offset of the first array)`` of one payload.

    Strict: the JSON object must fill its declared length exactly —
    the encoder never writes padding, so trailing bytes are damage.
    """
    if len(payload) < 4:
        raise JournalError("record payload too short for a header")
    (head_len,) = _U32.unpack_from(payload)
    end = 4 + head_len
    if len(payload) < end:
        raise JournalError("record payload shorter than its header")
    text = str(payload[4:end], "utf-8")
    header, stop = _JSON.raw_decode(text)
    if stop != len(text):
        raise JournalError("record header has bytes after its JSON "
                           "object")
    return header, end


def payload_crc(parts) -> int:
    """CRC32 of a payload iovec, chained incrementally over the parts
    (``zlib.crc32`` carries state) — equal to the CRC of the joined
    payload without ever joining it."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF


def frame_nbytes(parts) -> int:
    """On-disk frame size of a payload iovec (accounting for bounded
    write buffers — nothing is materialized)."""
    return _FRAME + sum(_part_nbytes(p) for p in parts)


def frame_record_iov(parts) -> list:
    """Frame a payload iovec without materializing it.

    Returns a list of buffers — the 12-byte frame header followed by
    the payload parts — whose concatenation is bit-identical to
    :func:`frame_record` of the joined payload; the journal hands it
    straight to ``os.writev``.
    """
    payload_len = sum(_part_nbytes(p) for p in parts)
    header = (MAGIC + _U32.pack(payload_len)
              + _U32.pack(payload_crc(parts)))
    return [header, *parts]


def frame_record(payload) -> bytes:
    """Wrap a payload in the on-disk frame (magic, length, CRC).

    Accepts the joined payload ``bytes`` or a payload iovec (what
    :func:`encode_chunk_iov` returns); either way the frame is built
    with a *single* join and an incrementally chained CRC — the strict
    append path stopped paying the historical payload-then-frame
    double materialization.
    """
    parts = ([payload]
             if isinstance(payload, (bytes, bytearray, memoryview))
             else list(payload))
    frame = b"".join(_as_buffer(p) for p in frame_record_iov(parts))
    _credit(bytes_copied=len(frame))
    return frame


@dataclass(frozen=True)
class RecordEntry:
    """One scanned record: its location plus either the decoded chunk
    or, for a damaged record, the best-effort identity and reason."""

    offset: int                       #: frame start within the segment
    length: int                       #: whole frame length, bytes
    chunk: Optional[RecordingChunk]   #: ``None`` when damaged
    error: Optional[str] = None       #: damage reason when damaged
    #: Best-effort identity of a damaged record (its header usually
    #: survives a payload/CRC byte flip); ``None`` when unreadable.
    session_id: Optional[str] = None
    seq: Optional[int] = None


@dataclass(frozen=True)
class SegmentScan:
    """Everything one segment file yielded.

    ``torn_offset`` is set when the file ends inside a record — the
    signature of a crash mid-append; bytes from that offset on are not
    a record.  ``lost_framing_offset`` is set when a frame header was
    unreadable (bad magic): nothing after it could be interpreted.
    """

    path: Path
    entries: tuple
    torn_offset: Optional[int] = None
    lost_framing_offset: Optional[int] = None

    @property
    def clean(self) -> bool:
        """No torn tail, no lost framing, no damaged records."""
        return (self.torn_offset is None
                and self.lost_framing_offset is None
                and all(e.error is None for e in self.entries))


def scan_segment(path) -> SegmentScan:
    """Read every interpretable record of one segment file.

    Never raises on damaged content — damage is classified per the
    module taxonomy and reported in the returned :class:`SegmentScan`.
    Each record's CRC is checked before it is decoded, and the bytes
    the decodes copied are credited once for the whole segment.
    """
    path = Path(path)
    data = path.read_bytes()
    view = memoryview(data)
    size = len(data)
    entries = []
    copied = 0
    offset = 0
    torn = None
    lost = None
    while offset < size:
        if size - offset < _FRAME:
            torn = offset
            break
        magic, payload_len, crc_stored = _FRAME_HEAD.unpack_from(
            data, offset)
        if magic != MAGIC:
            lost = offset
            break
        start = offset + _FRAME
        length = _FRAME + payload_len
        if size - start < payload_len:
            torn = offset
            break
        payload = view[start:start + payload_len]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_stored:
            sid, seq = _best_effort_identity(payload)
            entries.append(RecordEntry(
                offset=offset, length=length, chunk=None,
                error="crc mismatch", session_id=sid, seq=seq))
        else:
            try:
                chunk, nbytes = _decode(payload)
            except Exception as exc:     # malformed despite good CRC
                sid, seq = _best_effort_identity(payload)
                entries.append(RecordEntry(
                    offset=offset, length=length, chunk=None,
                    error=f"undecodable record: {exc}",
                    session_id=sid, seq=seq))
            else:
                copied += nbytes
                entries.append(RecordEntry(
                    offset=offset, length=length, chunk=chunk,
                    session_id=chunk.session_id, seq=chunk.seq))
        offset += length
    if copied:
        _credit(bytes_copied=copied)
    return SegmentScan(path=path, entries=tuple(entries),
                       torn_offset=torn, lost_framing_offset=lost)


def _best_effort_identity(payload):
    """(session_id, seq) of a damaged record when its JSON header
    still parses — a CRC-field or array-byte flip leaves it intact —
    else ``(None, None)``."""
    try:
        header, _ = _decode_header(payload)
        return str(header["session_id"]), int(header["seq"])
    except Exception:
        return None, None
