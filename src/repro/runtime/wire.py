"""Compact, versioned wire format for the deployed transport.

The runtime protocols move :class:`~repro.runtime.routing.TransportEnvelope`
objects across cell boundaries hop by hop; until this module existed they
travelled as live Python objects on a shared heap, which is exactly what
blocks cross-process and networked simulation backends (and hence
intra-run parallelism in ``repro.sweep``).  This module defines the packet
format those backends need: a struct-packed fixed header plus a tagged,
registry-driven encoding of the inner application payloads.

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
    ..      1     payload tag  (see the registry below)  — omitted on acks
    ..      4     payload length (uint32)
    ..      N     payload bytes

Acknowledgement frames (``IS_ACK``) always carry a uid and stop after the
header + uid block: cells, hops, and size are zero and there is no payload.

Inner payloads are encoded through a **tag registry**:

    ====== ============================================================
    tag    codec
    ====== ============================================================
    0x01   structured value: None/bool/int/float/str/bytes and
           tuples/lists/dicts/sets/frozensets thereof (sets are encoded
           sorted by element bytes so encoding is order-stable)
    0x02   :class:`repro.core.program.Message`
    0x10+  user codecs added via :func:`register_payload_codec`
    0x7F   pickle — the documented fallback for unregistered payload
           types.  Round-trips any picklable object, but its bytes are
           only guaranteed stable within one Python build, so pickled
           payloads are excluded from the golden conformance vectors
           and MUST NOT be relied on across interpreter versions.
    ====== ============================================================

Compatibility policy: any observable change to the byte layout — header
fields, value codec, built-in payload tags — is a **conscious version
bump** of :data:`WIRE_VERSION`, gated by the golden vectors under
``tests/data/wire_vectors.json``.  A decoder never guesses: an unknown
version, unknown flag bit, unknown payload tag, bad CRC, or trailing
garbage raises :class:`WireDecodeError` rather than mis-decoding.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Callable, Dict, Optional, Tuple, Type

from ..core.program import Message
from ..simulator.network import Packet
from .routing import TransportEnvelope

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

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


class WireError(ValueError):
    """Base class of both codec error directions."""


class WireEncodeError(WireError):
    """The object cannot be represented in the wire format."""


class WireDecodeError(WireError):
    """The buffer is not a well-formed frame of this version."""


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
# payload registry
# ---------------------------------------------------------------------------

PAYLOAD_VALUE = 0x01
PAYLOAD_MESSAGE = 0x02
PAYLOAD_PICKLE = 0x7F

#: First / last tag available to :func:`register_payload_codec` users.
USER_TAG_FIRST = 0x10
USER_TAG_LAST = 0x7E

_EncodeFn = Callable[[Any], bytes]
_DecodeFn = Callable[[bytes], Any]

_CODECS_BY_TAG: Dict[int, Tuple[Optional[Type], _EncodeFn, _DecodeFn]] = {}
_CODECS_BY_TYPE: Dict[Type, int] = {}


def register_payload_codec(
    tag: int, cls: Type, encode: _EncodeFn, decode: _DecodeFn
) -> None:
    """Register a payload codec for ``cls`` under ``tag``.

    ``tag`` must lie in ``[USER_TAG_FIRST, USER_TAG_LAST]`` and be unused;
    re-registering a tag or a class raises :class:`ValueError` so two
    subsystems can never silently fight over the wire namespace.
    """
    if not USER_TAG_FIRST <= tag <= USER_TAG_LAST:
        raise ValueError(
            f"user payload tags must be in [0x{USER_TAG_FIRST:02x}, "
            f"0x{USER_TAG_LAST:02x}], got 0x{tag:02x}"
        )
    if tag in _CODECS_BY_TAG:
        raise ValueError(f"payload tag 0x{tag:02x} already registered")
    if cls in _CODECS_BY_TYPE:
        raise ValueError(f"payload class {cls.__name__} already registered")
    _CODECS_BY_TAG[tag] = (cls, encode, decode)
    _CODECS_BY_TYPE[cls] = tag


def unregister_payload_codec(tag: int) -> None:
    """Remove a user codec (primarily for tests)."""
    entry = _CODECS_BY_TAG.pop(tag, None)
    if entry is not None and entry[0] is not None:
        _CODECS_BY_TYPE.pop(entry[0], None)


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

    Resolution order: an explicitly registered codec for the payload's
    class, then :class:`~repro.core.program.Message`, then the structured
    value codec, and finally — the documented fallback for unregistered
    types — pickle under :data:`PAYLOAD_PICKLE`.
    """
    tag = _CODECS_BY_TYPE.get(type(inner))
    if tag is not None:
        return tag, _CODECS_BY_TAG[tag][1](inner)
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
            f"payload of type {type(inner).__name__} is neither registered, "
            f"value-encodable, nor picklable: {exc}"
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
    entry = _CODECS_BY_TAG.get(tag)
    if entry is not None:
        return entry[2](raw)
    raise WireDecodeError(f"unknown payload tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------


def _check_u16(name: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= _U16_MAX:
        raise WireEncodeError(f"{name} must be an int in [0, {_U16_MAX}], got {value!r}")
    return value


def _pack_frame(
    flags: int,
    src_cell: Tuple[int, int],
    dst_cell: Tuple[int, int],
    hops: int,
    size_units: float,
    uid: Optional[Tuple[int, int]],
    payload: Optional[Tuple[int, bytes]],
) -> bytes:
    sx = _check_u16("src cell x", src_cell[0])
    sy = _check_u16("src cell y", src_cell[1])
    dx = _check_u16("dst cell x", dst_cell[0])
    dy = _check_u16("dst cell y", dst_cell[1])
    hops = _check_u16("hops", hops)
    try:
        size = float(size_units)
    except (TypeError, ValueError):
        raise WireEncodeError(f"size_units must be a float, got {size_units!r}") from None
    tail = bytearray()
    if uid is not None:
        flags |= _FLAG_HAS_UID
        origin, seq = uid
        if not isinstance(origin, int) or not 0 <= origin <= _U32_MAX:
            raise WireEncodeError(f"uid origin must be a uint32, got {origin!r}")
        if not isinstance(seq, int) or not 0 <= seq <= _U64_MAX:
            raise WireEncodeError(f"uid seq must be a uint64, got {seq!r}")
        tail += _UID.pack(origin, seq)
    if payload is not None:
        tag, raw = payload
        if len(raw) > _U32_MAX:
            raise WireEncodeError(f"payload of {len(raw)} bytes exceeds uint32 length")
        tail += _PAYLOAD_PREFIX.pack(tag, len(raw))
        tail += raw
    head = _HEADER.pack(MAGIC, WIRE_VERSION, flags, 0, sx, sy, dx, dy, hops, size)
    frame = bytearray(head + bytes(tail))
    crc = zlib.crc32(frame)
    struct.pack_into("!I", frame, 4, crc)
    return bytes(frame)


def encode_envelope(envelope: TransportEnvelope) -> bytes:
    """Serialize one :class:`TransportEnvelope` into a wire frame."""
    return _pack_frame(
        flags=0,
        src_cell=envelope.src_cell,
        dst_cell=envelope.dst_cell,
        hops=envelope.hops,
        size_units=envelope.size_units,
        uid=envelope.uid,
        payload=encode_payload(envelope.inner),
    )


def encode_ack(uid: Tuple[int, int]) -> bytes:
    """Serialize a hop-by-hop acknowledgement of ``uid``."""
    return _pack_frame(
        flags=_FLAG_IS_ACK,
        src_cell=(0, 0),
        dst_cell=(0, 0),
        hops=0,
        size_units=0.0,
        uid=uid,
        payload=None,
    )


def _unpack_frame(buf: bytes) -> Tuple[int, Tuple[Any, ...], Optional[Tuple[int, int]], bytes]:
    """Shared validation: returns (flags, header fields, uid, payload bytes)."""
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
    struct.pack_into("!I", zeroed, 4, 0)
    if zlib.crc32(zeroed) != crc:
        raise WireDecodeError("CRC mismatch: frame corrupted or truncated")
    pos = _HEADER.size
    uid: Optional[Tuple[int, int]] = None
    if flags & _FLAG_HAS_UID:
        if pos + _UID.size > len(buf):
            raise WireDecodeError("truncated uid block")
        origin, seq = _UID.unpack_from(buf, pos)
        uid = (origin, seq)
        pos += _UID.size
    if flags & _FLAG_IS_ACK:
        if uid is None:
            raise WireDecodeError("ack frame without a uid")
        if pos != len(buf):
            raise WireDecodeError(f"{len(buf) - pos} trailing bytes after ack frame")
        return flags, (sx, sy, dx, dy, hops, size), uid, b""
    if pos + _PAYLOAD_PREFIX.size > len(buf):
        raise WireDecodeError("truncated payload prefix")
    tag, length = _PAYLOAD_PREFIX.unpack_from(buf, pos)
    pos += _PAYLOAD_PREFIX.size
    if pos + length != len(buf):
        raise WireDecodeError(
            f"payload length {length} does not match the {len(buf) - pos} "
            f"bytes present"
        )
    return flags, (sx, sy, dx, dy, hops, size, tag), uid, buf[pos:]


def decode_envelope(buf: bytes) -> TransportEnvelope:
    """Inverse of :func:`encode_envelope`; raises :class:`WireDecodeError`
    on anything that is not a well-formed envelope frame of this version."""
    flags, fields, uid, raw = _unpack_frame(buf)
    if flags & _FLAG_IS_ACK:
        raise WireDecodeError("frame is an acknowledgement, not an envelope")
    sx, sy, dx, dy, hops, size, tag = fields
    return TransportEnvelope(
        src_cell=(sx, sy),
        dst_cell=(dx, dy),
        inner=decode_payload(tag, raw),
        size_units=size,
        hops=hops,
        uid=uid,
    )


def decode_ack(buf: bytes) -> Tuple[int, int]:
    """Inverse of :func:`encode_ack`: the acknowledged ``(origin, seq)``."""
    flags, _fields, uid, _raw = _unpack_frame(buf)
    if not flags & _FLAG_IS_ACK:
        raise WireDecodeError("frame is an envelope, not an acknowledgement")
    assert uid is not None  # _unpack_frame enforces HAS_UID on acks
    return uid


# ---------------------------------------------------------------------------
# partition boundary packets (repro.partition, wire=True)
# ---------------------------------------------------------------------------

#: First two bytes of a boundary-packet mini-frame ("Repro Packet").
PACKET_MAGIC = b"RP"


def encode_packet(packet: Any) -> bytes:
    """Encode a radio :class:`~repro.simulator.network.Packet` for the
    shard pipes.

    The space-partitioned runner ships boundary-crossing packets between
    worker processes; under ``wire_format=True`` they travel as this
    mini-frame instead of a pickle, so cross-shard traffic is byte-framed
    end to end.  Layout: magic(2) version(1), uvarint src, uvarint
    dst + 1 (0 encodes the broadcast ``None``), uvarint-length UTF-8
    kind, f64 size_units, payload tag byte + uvarint length + payload
    bytes (via :func:`encode_payload`, so wire-mode transport frames —
    already ``bytes`` — nest without re-encoding).
    """
    out = bytearray()
    out += PACKET_MAGIC
    out.append(WIRE_VERSION)
    _write_uvarint(out, packet.src)
    _write_uvarint(out, 0 if packet.dst is None else packet.dst + 1)
    kind_raw = packet.kind.encode("utf-8")
    _write_uvarint(out, len(kind_raw))
    out += kind_raw
    out += _F64.pack(packet.size_units)
    tag, raw = encode_payload(packet.payload)
    out.append(tag)
    _write_uvarint(out, len(raw))
    out += raw
    return bytes(out)


def decode_packet(buf: bytes) -> Any:
    """Inverse of :func:`encode_packet`; raises :class:`WireDecodeError`
    on anything that is not a well-formed packet frame of this version."""
    view = memoryview(buf)
    if len(view) < 3:
        raise WireDecodeError("packet frame shorter than its header")
    if bytes(view[:2]) != PACKET_MAGIC:
        raise WireDecodeError(f"bad packet magic {bytes(view[:2])!r}")
    if view[2] != WIRE_VERSION:
        raise WireDecodeError(
            f"unsupported wire version {view[2]} (this build speaks {WIRE_VERSION})"
        )
    src, pos = _read_uvarint(view, 3)
    dst_plus1, pos = _read_uvarint(view, pos)
    kind_len, pos = _read_uvarint(view, pos)
    if pos + kind_len > len(view):
        raise WireDecodeError("truncated packet kind")
    kind = bytes(view[pos:pos + kind_len]).decode("utf-8")
    pos += kind_len
    if pos + 8 > len(view):
        raise WireDecodeError("truncated packet size_units")
    size_units = _F64.unpack_from(view, pos)[0]
    pos += 8
    if pos >= len(view):
        raise WireDecodeError("truncated payload tag")
    tag = view[pos]
    pos += 1
    length, pos = _read_uvarint(view, pos)
    if pos + length != len(view):
        raise WireDecodeError(
            f"payload length {length} does not match the {len(view) - pos} "
            f"bytes present"
        )
    payload = decode_payload(tag, bytes(view[pos:]))
    return Packet(
        src=src,
        kind=kind,
        payload=payload,
        size_units=size_units,
        dst=None if dst_plus1 == 0 else dst_plus1 - 1,
    )
