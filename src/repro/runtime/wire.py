"""Compact, versioned wire format for the deployed transport.

The runtime protocols move :class:`TransportEnvelope` objects (defined
here, beside their frame layout) across cell boundaries hop by hop; until
this module existed they travelled as live Python objects on a shared
heap, which is exactly what blocks cross-process and networked simulation
backends (and hence intra-run parallelism in ``repro.sweep``).  This module defines the packet
format those backends need: a struct-packed fixed header plus a tagged
encoding of the inner application payloads.

Frame layout (all integers big-endian / network order)::

    offset  size  field
    0       2     magic  b"RW"
    2       1     version (WIRE_VERSION)
    3       1     flags   (bit 0: HAS_UID, bit 1: IS_ACK; others reserved)
    4       4     crc32 of the whole frame with this field zeroed
    8       2     src cell x   (uint16)
    10      2     src cell y   (uint16)
    12      2     dst cell x   (uint16)
    14      2     dst cell y   (uint16)
    16      2     hops         (uint16)
    18      8     size_units   (IEEE-754 float64)
    26      12    uid: origin (uint32) + seq (uint64)   — iff HAS_UID
    ..      1     payload tag  (see the table below)  — omitted on acks
    ..      4     payload length (uint32)
    ..      N     payload bytes

Acknowledgement frames (``IS_ACK``) always carry a uid and stop after the
header + uid block: cells, hops, and size are zero and there is no payload.

A relay never needs the inner payload, only the header: with
``decode_envelope(frame, payload=False)`` the frame is validated in full
but the payload is left encoded (:class:`EncodedPayload`), and
:func:`encode_envelope` forwards such an envelope by re-packing only the
``hops`` field and the CRC.  The node that delivers the envelope decodes
the payload, once.

Inner payloads are encoded under one of three **payload tags**:

    ====== ============================================================
    tag    codec
    ====== ============================================================
    0x01   structured value: None/bool/int/float/str/bytes and
           tuples/lists/dicts/sets/frozensets thereof (sets are encoded
           sorted by element bytes so encoding is order-stable)
    0x02   :class:`repro.core.program.Message`
    0x7F   pickle — the documented fallback for every other payload
           type.  Round-trips any picklable object, but its bytes are
           only guaranteed stable within one Python build, so pickled
           payloads are excluded from the golden conformance vectors
           and MUST NOT be relied on across interpreter versions.
    ====== ============================================================

Compatibility policy: any observable change to the byte layout — header
fields, value codec, payload tags — is a **conscious version
bump** of :data:`WIRE_VERSION`, gated by the golden vectors under
``tests/data/wire_vectors.json``.  A decoder never guesses: an unknown
version, unknown flag bit, unknown payload tag, bad CRC, or trailing
garbage raises :class:`WireDecodeError` rather than mis-decoding.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.coords import GridCoord
from ..core.program import Message

#: Version byte of the frame layout.  Bump consciously: the golden
#: vectors in ``tests/data/wire_vectors.json`` pin the current encoding.
WIRE_VERSION = 1

#: First two bytes of every frame.
MAGIC = b"RW"

_FLAG_HAS_UID = 0x01
_FLAG_IS_ACK = 0x02
_KNOWN_FLAGS = _FLAG_HAS_UID | _FLAG_IS_ACK

#: magic(2) version(1) flags(1) crc(4) sx sy dx dy hops (5 x uint16) size (f64)
_HEADER = struct.Struct("!2sBBIHHHHHd")
_UID = struct.Struct("!IQ")
_PAYLOAD_PREFIX = struct.Struct("!BI")
_F64 = struct.Struct("!d")
_CRC = struct.Struct("!I")
_CRC_OFFSET = 4
_HOPS = struct.Struct("!H")
_HOPS_OFFSET = 16

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


class WireError(ValueError):
    """Base class of both codec error directions."""


class WireEncodeError(WireError):
    """The object cannot be represented in the wire format."""


class WireDecodeError(WireError):
    """The buffer is not a well-formed frame of this version."""


@dataclass(slots=True)
class TransportEnvelope:
    """A cell-addressed message in flight.

    ``hops`` counts physical transmissions so far (diagnostics); ``inner``
    is the application payload delivered to the destination cell's bound
    process.  ``uid`` identifies the envelope end to end in reliable mode
    (origin node id, origin-local sequence number).  In wire mode a
    relay's envelope carries its inner still encoded, as an
    :class:`EncodedPayload`.
    """

    src_cell: GridCoord
    dst_cell: GridCoord
    inner: Any
    size_units: float = 1.0
    hops: int = 0
    uid: Optional[Tuple[int, int]] = None


class EncodedPayload:
    """An envelope's inner payload left in the validated frame it came in.

    ``decode_envelope(frame, payload=False)`` puts it where the decoded
    inner would go.  :func:`encode_envelope` sends such an envelope as a
    copy of ``frame`` with only ``hops`` and the CRC re-packed, so a relay
    never runs the payload codec; the other fields of the envelope must
    be left as decoded.
    """

    __slots__ = ("frame",)

    def __init__(self, frame: bytes):
        self.frame = frame

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedPayload({len(self.frame)} bytes)"


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------


def _write_uvarint(out: bytearray, n: int) -> None:
    """Unsigned LEB128 (arbitrary precision)."""
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(buf: memoryview, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise WireDecodeError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(n: int) -> int:
    # arbitrary-precision zigzag: non-negatives to even, negatives to odd
    return n * 2 if n >= 0 else -n * 2 - 1


def _unzigzag(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


# ---------------------------------------------------------------------------
# structured value codec (payload tag 0x01, also nested inside Message)
# ---------------------------------------------------------------------------

_V_NONE = 0x00
_V_TRUE = 0x01
_V_FALSE = 0x02
_V_INT = 0x03
_V_FLOAT = 0x04
_V_STR = 0x05
_V_BYTES = 0x06
_V_TUPLE = 0x07
_V_LIST = 0x08
_V_DICT = 0x09
_V_SET = 0x0A
_V_FROZENSET = 0x0B


def encode_value(value: Any) -> bytes:
    """Encode a structured value; :class:`WireEncodeError` if unsupported."""
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def _write_value(out: bytearray, value: Any) -> None:
    # bool before int: bool is an int subclass
    if value is None:
        out.append(_V_NONE)
    elif value is True:
        out.append(_V_TRUE)
    elif value is False:
        out.append(_V_FALSE)
    elif type(value) is int:
        out.append(_V_INT)
        _write_uvarint(out, _zigzag(value))
    elif type(value) is float:
        out.append(_V_FLOAT)
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_V_STR)
        _write_uvarint(out, len(raw))
        out += raw
    elif type(value) is bytes:
        out.append(_V_BYTES)
        _write_uvarint(out, len(value))
        out += value
    elif type(value) is tuple:
        out.append(_V_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif type(value) is list:
        out.append(_V_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif type(value) is dict:
        out.append(_V_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            _write_value(out, key)
            _write_value(out, item)
    elif type(value) in (set, frozenset):
        # order-stable: elements sorted by their encoded bytes
        out.append(_V_SET if type(value) is set else _V_FROZENSET)
        _write_uvarint(out, len(value))
        for raw in sorted(encode_value(item) for item in value):
            out += raw
    else:
        raise WireEncodeError(
            f"value of type {type(value).__name__} is not wire-encodable"
        )


def decode_value(buf: bytes) -> Any:
    """Inverse of :func:`encode_value` (whole-buffer: trailing bytes raise)."""
    view = memoryview(buf)
    value, pos = _read_value(view, 0)
    if pos != len(view):
        raise WireDecodeError(f"{len(view) - pos} trailing bytes after value")
    return value


def _read_value(buf: memoryview, pos: int) -> Tuple[Any, int]:
    if pos >= len(buf):
        raise WireDecodeError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _V_NONE:
        return None, pos
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_INT:
        n, pos = _read_uvarint(buf, pos)
        return _unzigzag(n), pos
    if tag == _V_FLOAT:
        if pos + 8 > len(buf):
            raise WireDecodeError("truncated float")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag in (_V_STR, _V_BYTES):
        length, pos = _read_uvarint(buf, pos)
        if pos + length > len(buf):
            raise WireDecodeError("truncated string/bytes body")
        raw = bytes(buf[pos : pos + length])
        pos += length
        if tag == _V_STR:
            try:
                return raw.decode("utf-8"), pos
            except UnicodeDecodeError as exc:
                raise WireDecodeError(f"invalid utf-8 in string: {exc}") from None
        return raw, pos
    if tag in (_V_TUPLE, _V_LIST):
        count, pos = _read_uvarint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _V_TUPLE else items), pos
    if tag == _V_DICT:
        count, pos = _read_uvarint(buf, pos)
        out: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _read_value(buf, pos)
            value, pos = _read_value(buf, pos)
            out[key] = value
        return out, pos
    if tag in (_V_SET, _V_FROZENSET):
        count, pos = _read_uvarint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(buf, pos)
            items.append(item)
        return (set(items) if tag == _V_SET else frozenset(items)), pos
    raise WireDecodeError(f"unknown value tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# payload tags
# ---------------------------------------------------------------------------

PAYLOAD_VALUE = 0x01
PAYLOAD_MESSAGE = 0x02
PAYLOAD_PICKLE = 0x7F
_PAYLOAD_TAGS = frozenset((PAYLOAD_VALUE, PAYLOAD_MESSAGE, PAYLOAD_PICKLE))


def _encode_message(message: Any) -> bytes:
    out = bytearray()
    _write_value(out, message.kind)
    _write_value(out, tuple(message.sender))
    _write_value(out, message.payload)
    _write_uvarint(out, _zigzag(message.level))
    out += _F64.pack(message.size_units)
    return bytes(out)


def _decode_message(raw: bytes) -> Any:
    view = memoryview(raw)
    kind, pos = _read_value(view, 0)
    sender, pos = _read_value(view, pos)
    payload, pos = _read_value(view, pos)
    zz, pos = _read_uvarint(view, pos)
    if pos + 8 != len(view):
        raise WireDecodeError("malformed Message payload body")
    size_units = _F64.unpack_from(view, pos)[0]
    if not isinstance(kind, str) or not isinstance(sender, tuple):
        raise WireDecodeError("malformed Message header fields")
    return Message(
        kind=kind,
        sender=sender,
        payload=payload,
        level=_unzigzag(zz),
        size_units=size_units,
    )


def encode_payload(inner: Any) -> Tuple[int, bytes]:
    """Encode an inner payload; returns ``(tag, bytes)``.

    Resolution order: :class:`~repro.core.program.Message`, then the
    structured value codec, and finally — the documented fallback for
    every other type — pickle under :data:`PAYLOAD_PICKLE`.
    """
    if type(inner) is Message:
        try:
            return PAYLOAD_MESSAGE, _encode_message(inner)
        except WireEncodeError:
            pass  # non-value payload inside the Message: whole-object fallback
    else:
        try:
            return PAYLOAD_VALUE, encode_value(inner)
        except WireEncodeError:
            pass
    try:
        return PAYLOAD_PICKLE, pickle.dumps(inner, protocol=4)
    except Exception as exc:
        raise WireEncodeError(
            f"payload of type {type(inner).__name__} is neither "
            f"value-encodable nor picklable: {exc}"
        ) from exc


def decode_payload(tag: int, raw: bytes) -> Any:
    """Inverse of :func:`encode_payload`."""
    if tag == PAYLOAD_VALUE:
        return decode_value(raw)
    if tag == PAYLOAD_MESSAGE:
        return _decode_message(raw)
    if tag == PAYLOAD_PICKLE:
        try:
            return pickle.loads(raw)
        except Exception as exc:
            raise WireDecodeError(f"undecodable pickle payload: {exc}") from exc
    raise WireDecodeError(f"unknown payload tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------


def _check_u16(name: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= _U16_MAX:
        raise WireEncodeError(f"{name} must be an int in [0, {_U16_MAX}], got {value!r}")
    return value


def _pack_uid(uid: Tuple[int, int]) -> bytes:
    origin, seq = uid
    if not isinstance(origin, int) or not 0 <= origin <= _U32_MAX:
        raise WireEncodeError(f"uid origin must be a uint32, got {origin!r}")
    if not isinstance(seq, int) or not 0 <= seq <= _U64_MAX:
        raise WireEncodeError(f"uid seq must be a uint64, got {seq!r}")
    return _UID.pack(origin, seq)


def _seal(frame: bytearray) -> bytes:
    """Write the CRC of ``frame`` (taken with the CRC field zeroed)."""
    _CRC.pack_into(frame, _CRC_OFFSET, 0)
    _CRC.pack_into(frame, _CRC_OFFSET, zlib.crc32(frame))
    return bytes(frame)


def encode_envelope(envelope: TransportEnvelope) -> bytes:
    """Serialize one :class:`TransportEnvelope` into a wire frame.

    An envelope whose inner is an :class:`EncodedPayload` is forwarded: the
    frame it came in is copied with the envelope's ``hops`` and a new CRC,
    and the payload codec does not run.
    """
    inner = envelope.inner
    if type(inner) is EncodedPayload:
        frame = bytearray(inner.frame)
        _HOPS.pack_into(frame, _HOPS_OFFSET, _check_u16("hops", envelope.hops))
        return _seal(frame)
    tag, raw = encode_payload(inner)
    src_cell, dst_cell = envelope.src_cell, envelope.dst_cell
    sx = _check_u16("src cell x", src_cell[0])
    sy = _check_u16("src cell y", src_cell[1])
    dx = _check_u16("dst cell x", dst_cell[0])
    dy = _check_u16("dst cell y", dst_cell[1])
    hops = _check_u16("hops", envelope.hops)
    try:
        size = float(envelope.size_units)
    except (TypeError, ValueError):
        raise WireEncodeError(
            f"size_units must be a float, got {envelope.size_units!r}"
        ) from None
    flags = 0
    uid_block = b""
    if envelope.uid is not None:
        flags = _FLAG_HAS_UID
        uid_block = _pack_uid(envelope.uid)
    if len(raw) > _U32_MAX:
        raise WireEncodeError(f"payload of {len(raw)} bytes exceeds uint32 length")
    frame = bytearray(_HEADER.pack(MAGIC, WIRE_VERSION, flags, 0, sx, sy, dx, dy, hops, size))
    frame += uid_block
    frame += _PAYLOAD_PREFIX.pack(tag, len(raw))
    frame += raw
    return _seal(frame)


#: Every acknowledgement has this header (zero cells, hops and size; CRC
#: field zeroed); only the uid block after it and the CRC vary.
_ACK_HEADER = _HEADER.pack(
    MAGIC, WIRE_VERSION, _FLAG_IS_ACK | _FLAG_HAS_UID, 0, 0, 0, 0, 0, 0, 0.0
)
_ACK_HEADER_CRC = zlib.crc32(_ACK_HEADER)
_ACK_LEAD = _ACK_HEADER[:_CRC_OFFSET]
_ACK_REST = _ACK_HEADER[_CRC_OFFSET + _CRC.size :]


def encode_ack(uid: Tuple[int, int]) -> bytes:
    """Serialize a hop-by-hop acknowledgement of ``uid``."""
    block = _pack_uid(uid)
    crc = _CRC.pack(zlib.crc32(block, _ACK_HEADER_CRC))
    return b"".join((_ACK_LEAD, crc, _ACK_REST, block))


def _unpack_frame(
    buf: bytes,
) -> Tuple[bytes, int, Tuple[Any, ...], Optional[Tuple[int, int]], int]:
    """Shared validation: returns (frame, flags, header fields, uid,
    payload offset)."""
    if not isinstance(buf, (bytes, bytearray, memoryview)):
        raise WireDecodeError(f"frame must be bytes, got {type(buf).__name__}")
    buf = bytes(buf)
    if len(buf) < _HEADER.size:
        raise WireDecodeError(
            f"frame of {len(buf)} bytes shorter than the {_HEADER.size}-byte header"
        )
    magic, version, flags, crc, sx, sy, dx, dy, hops, size = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise WireDecodeError(f"bad magic {magic!r} (want {MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireDecodeError(
            f"unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )
    if flags & ~_KNOWN_FLAGS:
        raise WireDecodeError(f"unknown flag bits 0x{flags & ~_KNOWN_FLAGS:02x}")
    zeroed = bytearray(buf)
    _CRC.pack_into(zeroed, _CRC_OFFSET, 0)
    if zlib.crc32(zeroed) != crc:
        raise WireDecodeError("CRC mismatch: frame corrupted or truncated")
    pos = _HEADER.size
    uid: Optional[Tuple[int, int]] = None
    if flags & _FLAG_HAS_UID:
        if pos + _UID.size > len(buf):
            raise WireDecodeError("truncated uid block")
        uid = _UID.unpack_from(buf, pos)
        pos += _UID.size
    if flags & _FLAG_IS_ACK:
        if uid is None:
            raise WireDecodeError("ack frame without a uid")
        if pos != len(buf):
            raise WireDecodeError(f"{len(buf) - pos} trailing bytes after ack frame")
        return buf, flags, (sx, sy, dx, dy, hops, size), uid, pos
    if pos + _PAYLOAD_PREFIX.size > len(buf):
        raise WireDecodeError("truncated payload prefix")
    tag, length = _PAYLOAD_PREFIX.unpack_from(buf, pos)
    pos += _PAYLOAD_PREFIX.size
    if pos + length != len(buf):
        raise WireDecodeError(
            f"payload length {length} does not match the {len(buf) - pos} "
            f"bytes present"
        )
    return buf, flags, (sx, sy, dx, dy, hops, size, tag), uid, pos


def decode_envelope(buf: bytes, *, payload: bool = True) -> TransportEnvelope:
    """Inverse of :func:`encode_envelope`; raises :class:`WireDecodeError`
    on anything that is not a well-formed envelope frame of this version.

    ``payload=False`` validates the frame exactly as the default does —
    magic, version, flags, CRC, lengths and a known payload tag — but
    leaves the inner payload encoded: the envelope's ``inner`` is then an
    :class:`EncodedPayload` of ``buf``, ready to be forwarded.
    """
    frame, flags, fields, uid, pos = _unpack_frame(buf)
    if flags & _FLAG_IS_ACK:
        raise WireDecodeError("frame is an acknowledgement, not an envelope")
    sx, sy, dx, dy, hops, size, tag = fields
    if payload:
        inner = decode_payload(tag, frame[pos:])
    elif tag in _PAYLOAD_TAGS:
        inner = EncodedPayload(frame)
    else:
        raise WireDecodeError(f"unknown payload tag 0x{tag:02x}")
    return TransportEnvelope(
        src_cell=(sx, sy),
        dst_cell=(dx, dy),
        inner=inner,
        size_units=size,
        hops=hops,
        uid=uid,
    )


def decode_ack(buf: bytes) -> Tuple[int, int]:
    """Inverse of :func:`encode_ack`: the acknowledged ``(origin, seq)``."""
    _frame, flags, _fields, uid, _pos = _unpack_frame(buf)
    if not flags & _FLAG_IS_ACK:
        raise WireDecodeError("frame is an envelope, not an acknowledgement")
    assert uid is not None  # _unpack_frame enforces HAS_UID on acks
    return uid
