"""The ingest wire protocol: length-prefixed frames, compressed batches.

One frame is a fixed 10-byte header followed by a payload::

    version  u8   — :data:`PROTOCOL_VERSION`; anything else is rejected
    type     u8   — one of the ``T_*`` codes below
    seq      u32  — sender's frame sequence number (acks echo it)
    length   u32  — payload byte count
    payload  ...  — ``length`` bytes

All integers are big-endian. The sequence number lives in the *header*
so a receiver can nack a frame it refuses to read the payload of (an
oversized batch is drained and nacked without ever being buffered).

Frame types:

- ``T_HELLO`` — opens a session; payload is a JSON object with
  ``session`` (required) and ``application``.
- ``T_BATCH`` — one batch of LiLa text records; payload is a ``u32``
  record count followed by the gzip-compressed UTF-8 lines joined by
  ``"\\n"``. Batches are acked (accepted, durable once flushed) or
  nacked (redeliver later — the 429 of this protocol).
- ``T_END`` — closes the session; acked only after the session's spool
  is fully flushed, so a client that saw the ack knows nothing it sent
  can be lost.
- ``T_ACK`` — empty payload; ``seq`` echoes the frame being acked.
- ``T_NACK`` — ``u32`` retry-after hint in milliseconds plus a UTF-8
  reason; ``seq`` echoes the refused frame.
- ``T_ERROR`` — UTF-8 reason; the connection is dead after this.

Damage — a short read mid-frame, a bad version byte, an undecodable
batch — raises :class:`ProtocolError`; a clean EOF between frames is
``None`` from :func:`read_frame`, not an error.
"""

from __future__ import annotations

import gzip
import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import LagAlyzerError

#: Wire protocol version; bumped on any incompatible frame change.
PROTOCOL_VERSION = 1

#: Minor revision within version 1: optional trace-context fields in
#: HELLO (a ``"trace"`` JSON key) and BATCH (a flagged count word, see
#: :func:`encode_batch`). Frames without them are byte-identical to
#: minor 0, and decoders ignore what they don't carry — the version
#: byte does not change.
PROTOCOL_MINOR = 1

#: Frame type codes.
T_HELLO = 1
T_BATCH = 2
T_END = 3
T_ACK = 4
T_NACK = 5
T_ERROR = 6

_FRAME_NAMES = {
    T_HELLO: "HELLO",
    T_BATCH: "BATCH",
    T_END: "END",
    T_ACK: "ACK",
    T_NACK: "NACK",
    T_ERROR: "ERROR",
}

_HEADER = struct.Struct("!BBII")
_U32 = struct.Struct("!I")

#: Hard per-frame payload ceiling a reader enforces even when the
#: caller's limit is higher (memory-bomb guard).
ABSOLUTE_MAX_PAYLOAD = 64 * 1024 * 1024

#: Default per-batch payload ceiling (servers reject above this).
DEFAULT_MAX_PAYLOAD = 4 * 1024 * 1024


class ProtocolError(LagAlyzerError):
    """A frame violated the wire protocol (truncation, bad version...)."""


class FrameTooLarge(ProtocolError):
    """A frame's declared payload exceeded the receiver's limit.

    The payload has been drained from the stream when this is raised,
    so the connection stays usable — the receiver can nack ``seq`` and
    keep reading.
    """

    def __init__(self, frame_type: int, seq: int, length: int, limit: int) -> None:
        super().__init__(
            f"{frame_name(frame_type)} frame payload of {length} bytes "
            f"exceeds the {limit}-byte limit"
        )
        self.frame_type = frame_type
        self.seq = seq
        self.length = length
        self.limit = limit


@dataclass(frozen=True)
class Frame:
    """One decoded frame."""

    type: int
    seq: int
    payload: bytes

    @property
    def name(self) -> str:
        return frame_name(self.type)


def frame_name(frame_type: int) -> str:
    """Human-readable name of a frame type code."""
    return _FRAME_NAMES.get(frame_type, f"type-{frame_type}")


def write_frame(
    writer: BinaryIO, frame_type: int, seq: int, payload: bytes = b""
) -> None:
    """Write one frame and flush the writer."""
    writer.write(
        _HEADER.pack(PROTOCOL_VERSION, frame_type, seq, len(payload))
    )
    if payload:
        writer.write(payload)
    writer.flush()


def _read_exactly(reader: BinaryIO, count: int, what: str) -> bytes:
    data = reader.read(count)
    if len(data) != count:
        raise ProtocolError(
            f"truncated frame: wanted {count} {what} bytes, "
            f"got {len(data)}"
        )
    return data


def read_frame(
    reader: BinaryIO, max_payload: Optional[int] = None
) -> Optional[Frame]:
    """Read one frame; ``None`` on a clean EOF between frames.

    Raises:
        ProtocolError: a short read mid-frame, or a version byte this
            implementation doesn't speak.
        FrameTooLarge: declared payload above ``max_payload`` (or the
            absolute ceiling); the payload is drained first, so the
            caller can nack and continue reading.
    """
    header = reader.read(_HEADER.size)
    if not header:
        return None
    if len(header) != _HEADER.size:
        raise ProtocolError(
            f"truncated frame header: wanted {_HEADER.size} bytes, "
            f"got {len(header)}"
        )
    version, frame_type, seq, length = _HEADER.unpack(header)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this end speaks {PROTOCOL_VERSION})"
        )
    limit = ABSOLUTE_MAX_PAYLOAD if max_payload is None else max_payload
    if length > limit:
        remaining = length
        while remaining > 0:
            chunk = reader.read(min(remaining, 65536))
            if not chunk:
                raise ProtocolError(
                    "truncated frame: oversized payload ended early"
                )
            remaining -= len(chunk)
        raise FrameTooLarge(frame_type, seq, length, limit)
    payload = _read_exactly(reader, length, "payload") if length else b""
    return Frame(frame_type, seq, payload)


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------


def encode_hello(
    session: str,
    application: str = "",
    context: Optional[Mapping[str, Any]] = None,
    family: str = "gui",
) -> bytes:
    """HELLO payload for ``session`` (sorted keys — byte-stable).

    ``context`` (a :meth:`TraceContext.to_dict` mapping) rides in the
    JSON attribute space under the ``"trace"`` key, and a non-gui
    workload ``family`` under ``"family"``; receivers that predate
    either ignore unknown keys, so the frame stays version-1. Gui
    sessions omit the key and encode byte-identically to before
    families existed.
    """
    raw: Dict[str, Any] = {"application": application, "session": session}
    if context is not None:
        raw["trace"] = dict(context)
    if family != "gui":
        raw["family"] = family
    return json.dumps(raw, sort_keys=True).encode("utf-8")


def decode_hello(
    payload: bytes,
) -> Tuple[str, str, Optional[Dict[str, Any]], str]:
    """``(session, application, trace context or None, family)`` from a
    HELLO payload; the family is ``"gui"`` where none is announced."""
    try:
        raw = json.loads(payload.decode("utf-8"))
        session = raw["session"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed HELLO payload: {error}") from None
    if not isinstance(session, str) or not session:
        raise ProtocolError("HELLO 'session' must be a non-empty string")
    application = raw.get("application", "")
    if not isinstance(application, str):
        raise ProtocolError("HELLO 'application' must be a string")
    context = raw.get("trace")
    if not isinstance(context, dict):
        context = None  # telemetry is best-effort, never fatal
    family = raw.get("family", "gui")
    if not isinstance(family, str) or not family:
        raise ProtocolError("HELLO 'family' must be a non-empty string")
    return session, application, context, family


#: High bit of the BATCH count word: a trace-context block follows.
_CTX_FLAG = 0x80000000
_U16 = struct.Struct("!H")


def encode_batch(
    lines: Sequence[str],
    context: Optional[Mapping[str, Any]] = None,
) -> bytes:
    """BATCH payload: record count + gzip-compressed joined lines.

    ``mtime=0`` keeps the gzip member byte-stable for identical input
    (no wall-clock timestamp in the stream). With ``context`` (the
    protocol-minor-1 optional field) the count word sets its high bit
    and a ``u16`` length plus that many bytes of context JSON precede
    the gzip member; without it the payload is byte-identical to
    minor 0.
    """
    body = gzip.compress("\n".join(lines).encode("utf-8"), mtime=0)
    if context is None:
        return _U32.pack(len(lines)) + body
    blob = json.dumps(dict(context), sort_keys=True).encode("utf-8")
    return (
        _U32.pack(len(lines) | _CTX_FLAG)
        + _U16.pack(len(blob))
        + blob
        + body
    )


def decode_batch_context(
    payload: bytes,
) -> Tuple[List[str], Optional[Dict[str, Any]]]:
    """``(record lines, trace context or None)`` from a BATCH payload."""
    if len(payload) < _U32.size:
        raise ProtocolError("batch payload shorter than its record count")
    (count,) = _U32.unpack(payload[: _U32.size])
    offset = _U32.size
    context: Optional[Dict[str, Any]] = None
    if count & _CTX_FLAG:
        count &= ~_CTX_FLAG
        if len(payload) < offset + _U16.size:
            raise ProtocolError("batch context block truncated")
        (blob_len,) = _U16.unpack(payload[offset:offset + _U16.size])
        offset += _U16.size
        blob = payload[offset:offset + blob_len]
        if len(blob) != blob_len:
            raise ProtocolError("batch context block truncated")
        offset += blob_len
        try:
            decoded = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            decoded = None  # damaged telemetry never fails the batch
        if isinstance(decoded, dict):
            context = decoded
    try:
        body = gzip.decompress(payload[offset:]).decode("utf-8")
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as error:
        raise ProtocolError(
            f"batch payload is not valid gzip text: {error}"
        ) from None
    lines = body.split("\n") if body else []
    if len(lines) != count:
        raise ProtocolError(
            f"batch declared {count} records but carries {len(lines)}"
        )
    return lines, context


def decode_batch(payload: bytes) -> List[str]:
    """The record lines of a BATCH payload (context, if any, dropped)."""
    return decode_batch_context(payload)[0]


def encode_nack(retry_after_ms: int, reason: str) -> bytes:
    """NACK payload: retry-after hint (ms) + reason."""
    return _U32.pack(max(0, int(retry_after_ms))) + reason.encode("utf-8")


def decode_nack(payload: bytes) -> Tuple[int, str]:
    """``(retry_after_ms, reason)`` from a NACK payload."""
    if len(payload) < _U32.size:
        raise ProtocolError("truncated NACK payload")
    (retry_after_ms,) = _U32.unpack(payload[: _U32.size])
    return retry_after_ms, payload[_U32.size:].decode("utf-8", "replace")
