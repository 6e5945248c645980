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
the payload of that validated frame (:meth:`EncodedPayload.decode`), once.

Each frame is validated once, with as little work as keeps every check:
the CRC is seeded with the fixed 8-byte lead (magic, version, flags and a
zeroed CRC field, one seed per known flags byte) and run over the rest of
the frame, so no copy is zeroed; an envelope that carries a uid and an
acknowledgement are each checked by one ``struct`` unpack and one CRC.  A
frame those checks do not accept goes to the shared validation, which
raises the error that names its fault.

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
_FIELDS = struct.Struct("!HHHHHd")  # the header after its CRC field
_UID = struct.Struct("!IQ")
_PAYLOAD_PREFIX = struct.Struct("!BI")
_F64 = struct.Struct("!d")
_CRC = struct.Struct("!I")
_CRC_END = 8  # the CRC runs over the frame from here on
_HOPS = struct.Struct("!H")
_HOPS_AT = 16

#: The 4-byte lead (magic, version, flags) of each known flags byte, and
#: the CRC of that lead followed by a zeroed CRC field: the seed from which
#: a frame's CRC runs over the rest of the frame, so no copy is zeroed.
_LEADS = tuple(MAGIC + bytes((WIRE_VERSION, flags)) for flags in range(_KNOWN_FLAGS + 1))
_CRC_SEEDS = tuple(zlib.crc32(lead + bytes(_CRC.size)) for lead in _LEADS)

#: An envelope with a uid (every reliable-mode envelope) up to its payload
#: bytes, whole and after its CRC field: the fast paths pack and unpack it
#: in one call.
_UID_ENVELOPE = struct.Struct("!4sIHHHHHdIQBI")
_UID_REST = struct.Struct("!HHHHHdIQBI")
_UID_PAYLOAD_AT = _UID_ENVELOPE.size
_UID_LEAD = _LEADS[_FLAG_HAS_UID]
_UID_SEED = _CRC_SEEDS[_FLAG_HAS_UID]

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

    ``frame`` is only ever a frame that :func:`decode_envelope` validated
    (magic, version, flags, CRC, lengths, a known payload tag) or that
    :func:`encode_envelope` produced.  So :meth:`decode` decodes the
    payload body alone: the header needs no second check.
    """

    __slots__ = ("frame",)

    def __init__(self, frame: bytes):
        self.frame = frame

    def decode(self) -> Any:
        """The inner payload; :class:`WireDecodeError` if its body does not
        decode (the header checks cannot see a malformed body)."""
        frame = self.frame
        pos = _HEADER.size + (_UID.size if frame[3] & _FLAG_HAS_UID else 0)
        return decode_payload(frame[pos], frame[pos + _PAYLOAD_PREFIX.size :])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EncodedPayload({len(self.frame)} bytes)"


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------
#
# Ints are zigzag-mapped (non-negatives to even, negatives to odd) and then
# written as unsigned LEB128, at arbitrary precision: ``n << 1`` for
# ``n >= 0`` and ``~(n << 1)`` below, inverted by ``(z >> 1) ^ -(z & 1)``.
# Every varint below 0x80 (an int in [-64, 64), a length under 128) is one
# byte.  Every read, and the writes of ints, strings, tuples and lists,
# handle that byte inline; the rest go through these two helpers.


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


def _read_uvarint(buf: bytes, pos: int) -> Tuple[int, int]:
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

#: Decoded value of each tag that carries no body.
_BARE = (None, True, False)


def encode_value(value: Any) -> bytes:
    """Encode a structured value; :class:`WireEncodeError` if unsupported."""
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def _write_value(out: bytearray, value: Any) -> None:
    # exact types throughout: bool is an int subclass, and its own tags
    kind = type(value)
    if kind is int:
        out.append(_V_INT)
        z = value << 1 if value >= 0 else ~(value << 1)
        if z < 0x80:
            out.append(z)
        else:
            _write_uvarint(out, z)
    elif kind is tuple or kind is list:
        out.append(_V_TUPLE if kind is tuple else _V_LIST)
        n = len(value)
        if n < 0x80:
            out.append(n)
        else:
            _write_uvarint(out, n)
        for item in value:
            if type(item) is int and -64 <= item < 64:
                # one-byte int (a coordinate, a small count) written inline
                out.append(_V_INT)
                out.append(item << 1 if item >= 0 else ~(item << 1))
            else:
                _write_value(out, item)
    elif kind is str or kind is bytes:
        raw = value.encode("utf-8") if kind is str else value
        out.append(_V_STR if kind is str else _V_BYTES)
        n = len(raw)
        if n < 0x80:
            out.append(n)
        else:
            _write_uvarint(out, n)
        out += raw
    elif value is None:
        out.append(_V_NONE)
    elif value is True:
        out.append(_V_TRUE)
    elif value is False:
        out.append(_V_FALSE)
    elif kind is float:
        out.append(_V_FLOAT)
        out += _F64.pack(value)
    elif kind is dict:
        out.append(_V_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            _write_value(out, key)
            _write_value(out, item)
    elif kind is set or kind is frozenset:
        # order-stable: elements sorted by their encoded bytes
        out.append(_V_SET if kind is set else _V_FROZENSET)
        _write_uvarint(out, len(value))
        for raw in sorted(encode_value(item) for item in value):
            out += raw
    else:
        raise WireEncodeError(
            f"value of type {kind.__name__} is not wire-encodable"
        )


def decode_value(buf: bytes) -> Any:
    """Inverse of :func:`encode_value` (whole-buffer: trailing bytes raise)."""
    if type(buf) is not bytes:
        buf = bytes(memoryview(buf))
    try:
        value, pos = _read_value(buf, 0)
    except RecursionError:
        raise WireDecodeError("value nested too deeply") from None
    if pos != len(buf):
        raise WireDecodeError(f"{len(buf) - pos} trailing bytes after value")
    return value


def _read_value(buf: bytes, pos: int) -> Tuple[Any, int]:
    try:
        tag = buf[pos]
    except IndexError:
        raise WireDecodeError("truncated value") from None
    pos += 1
    if tag <= _V_FALSE:
        return _BARE[tag], pos
    if tag == _V_FLOAT:
        if pos + 8 > len(buf):
            raise WireDecodeError("truncated float")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag > _V_FROZENSET:
        raise WireDecodeError(f"unknown value tag 0x{tag:02x}")
    # every other tag is followed by one varint: the zigzagged int itself,
    # or the length of a string, bytes or container
    try:
        n = buf[pos]
    except IndexError:
        raise WireDecodeError("truncated varint") from None
    if n < 0x80:
        pos += 1
    else:
        n, pos = _read_uvarint(buf, pos)
    if tag == _V_INT:
        return (n >> 1) ^ -(n & 1), pos
    if tag == _V_STR or tag == _V_BYTES:
        end = pos + n
        if end > len(buf):
            raise WireDecodeError("truncated string/bytes body")
        raw = buf[pos:end]
        if tag == _V_STR:
            try:
                return raw.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise WireDecodeError(f"invalid utf-8 in string: {exc}") from None
        return raw, end
    if tag == _V_DICT:
        out: Dict[Any, Any] = {}
        for _ in range(n):
            key, pos = _read_value(buf, pos)
            value, pos = _read_value(buf, pos)
            try:
                out[key] = value
            except TypeError:
                raise WireDecodeError(
                    f"unhashable dict key of type {type(key).__name__}"
                ) from None
        return out, pos
    items = []
    for _ in range(n):
        try:
            if buf[pos] == _V_INT and (z := buf[pos + 1]) < 0x80:
                # one-byte int (a coordinate, a small count) read inline
                items.append((z >> 1) ^ -(z & 1))
                pos += 2
                continue
        except IndexError:
            pass  # _read_value names the truncation
        item, pos = _read_value(buf, pos)
        items.append(item)
    if tag == _V_TUPLE:
        return tuple(items), pos
    if tag == _V_LIST:
        return items, pos
    try:
        return (set(items) if tag == _V_SET else frozenset(items)), pos
    except TypeError:
        raise WireDecodeError("unhashable set element") from None


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
    level = message.level
    z = level << 1 if level >= 0 else ~(level << 1)
    if z < 0x80:
        out.append(z)
    else:
        _write_uvarint(out, z)
    out += _F64.pack(message.size_units)
    return bytes(out)


def _decode_message(raw: bytes) -> Any:
    try:
        kind, pos = _read_value(raw, 0)
        sender, pos = _read_value(raw, pos)
        payload, pos = _read_value(raw, pos)
    except RecursionError:
        raise WireDecodeError("value nested too deeply") from None
    try:
        z = raw[pos]
    except IndexError:
        raise WireDecodeError("truncated varint") from None
    if z < 0x80:
        pos += 1
    else:
        z, pos = _read_uvarint(raw, pos)
    if pos + 8 != len(raw):
        raise WireDecodeError("malformed Message payload body")
    if type(kind) is not str or type(sender) is not tuple:
        raise WireDecodeError("malformed Message header fields")
    return Message(kind, sender, payload, (z >> 1) ^ -(z & 1), _F64.unpack_from(raw, pos)[0])


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
    if tag == PAYLOAD_MESSAGE:
        if type(raw) is not bytes:
            raw = bytes(memoryview(raw))
        return _decode_message(raw)
    if tag == PAYLOAD_VALUE:
        return decode_value(raw)
    if tag == PAYLOAD_PICKLE:
        try:
            return pickle.loads(raw)
        except Exception as exc:
            raise WireDecodeError(f"undecodable pickle payload: {exc}") from exc
    raise WireDecodeError(f"unknown payload tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------
#
# Each direction has a fast path and the shared, field-by-field one.  The
# fast path handles the common case in a few C calls and hands anything it
# does not accept to the shared path, which either accepts it too (an int
# subclass for a cell, say) or raises the error that names the fault.


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


def _forward(frame: bytes, hops: Any) -> bytes:
    """``frame`` with ``hops`` and the CRC re-packed (a relay's send)."""
    if type(hops) is not int or not 0 <= hops <= _U16_MAX:
        hops = _check_u16("hops", hops)
    body = frame[_CRC_END:_HOPS_AT] + _HOPS.pack(hops) + frame[_HOPS_AT + _HOPS.size :]
    return frame[:4] + _CRC.pack(zlib.crc32(body, _CRC_SEEDS[frame[3]])) + body


def encode_envelope(envelope: TransportEnvelope) -> bytes:
    """Serialize one :class:`TransportEnvelope` into a wire frame.

    An envelope whose inner is an :class:`EncodedPayload` is forwarded: the
    frame it came in is copied with the envelope's ``hops`` and a new CRC,
    and the payload codec does not run.
    """
    inner = envelope.inner
    if type(inner) is EncodedPayload:
        return _forward(inner.frame, envelope.hops)
    tag, raw = encode_payload(inner)
    uid = envelope.uid
    if type(uid) is tuple and len(uid) == 2:
        # the fast path: a uid, and header fields of exact types, whose
        # ranges the one pack checks
        src_cell, dst_cell = envelope.src_cell, envelope.dst_cell
        sx, sy, dx, dy = src_cell[0], src_cell[1], dst_cell[0], dst_cell[1]
        hops, size = envelope.hops, envelope.size_units
        origin, seq = uid
        if (
            type(sx) is type(sy) is type(dx) is type(dy) is type(hops) is int
            and type(origin) is type(seq) is int
            and type(size) is float
        ):
            try:
                body = _UID_REST.pack(sx, sy, dx, dy, hops, size, origin, seq, tag, len(raw))
            except struct.error:
                pass  # out of range: the shared path names the field
            else:
                body += raw
                return _UID_LEAD + _CRC.pack(zlib.crc32(body, _UID_SEED)) + body
    return _pack_envelope(envelope, tag, raw)


def _pack_envelope(envelope: TransportEnvelope, tag: int, raw: bytes) -> bytes:
    """The shared encode path: each header field is checked in frame order,
    and :class:`WireEncodeError` names the first that cannot be packed."""
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
    body = b"".join((
        _FIELDS.pack(sx, sy, dx, dy, hops, size),
        uid_block,
        _PAYLOAD_PREFIX.pack(tag, len(raw)),
        raw,
    ))
    return _LEADS[flags] + _CRC.pack(zlib.crc32(body, _CRC_SEEDS[flags])) + body


#: A whole acknowledgement: lead, CRC, zero cells, hops and size, uid.
#: Only the uid and the CRC vary, and the CRC of the rest of the header,
#: with the CRC field zeroed, seeds the CRC of the uid block.
_ACK = struct.Struct("!4sI18sIQ")
_ACK_LEAD = _LEADS[_FLAG_IS_ACK | _FLAG_HAS_UID]
_ACK_ZEROS = bytes(_FIELDS.size)
_ACK_HEADER_CRC = zlib.crc32(_ACK_ZEROS, _CRC_SEEDS[_FLAG_IS_ACK | _FLAG_HAS_UID])


def encode_ack(uid: Tuple[int, int]) -> bytes:
    """Serialize a hop-by-hop acknowledgement of ``uid``."""
    origin, seq = uid
    if type(origin) is not int or type(seq) is not int:
        _pack_uid(uid)  # the shared check accepts an int subclass, or names the field
    try:
        crc = zlib.crc32(_UID.pack(origin, seq), _ACK_HEADER_CRC)
    except struct.error:
        _pack_uid(uid)  # out of range: the shared check names the field
        raise
    return _ACK.pack(_ACK_LEAD, crc, _ACK_ZEROS, origin, seq)


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
    if zlib.crc32(buf[_CRC_END:], _CRC_SEEDS[flags]) != crc:
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
    try:
        lead, crc, sx, sy, dx, dy, hops, size, origin, seq, tag, length = (
            _UID_ENVELOPE.unpack_from(buf)
        )
    except (struct.error, TypeError):
        lead = None
    if (
        lead == _UID_LEAD
        and type(buf) is bytes
        and length == len(buf) - _UID_PAYLOAD_AT
        and tag in _PAYLOAD_TAGS
        and zlib.crc32(buf[_CRC_END:], _UID_SEED) == crc
    ):
        uid: Optional[Tuple[int, int]] = (origin, seq)
        pos = _UID_PAYLOAD_AT
    else:
        buf, flags, fields, uid, pos = _unpack_frame(buf)
        if flags & _FLAG_IS_ACK:
            raise WireDecodeError("frame is an acknowledgement, not an envelope")
        sx, sy, dx, dy, hops, size, tag = fields
    if payload:
        inner = decode_payload(tag, buf[pos:])
    elif tag in _PAYLOAD_TAGS:
        inner = EncodedPayload(buf)
    else:
        raise WireDecodeError(f"unknown payload tag 0x{tag:02x}")
    return TransportEnvelope((sx, sy), (dx, dy), inner, size, hops, uid)


def decode_ack(buf: bytes) -> Tuple[int, int]:
    """Inverse of :func:`encode_ack`: the acknowledged ``(origin, seq)``."""
    try:
        lead, crc, zeros, origin, seq = _ACK.unpack(buf)
    except (struct.error, TypeError):
        lead = None
    if (
        lead == _ACK_LEAD
        and zeros == _ACK_ZEROS
        and type(buf) is bytes
        and zlib.crc32(buf[_HEADER.size :], _ACK_HEADER_CRC) == crc
    ):
        return origin, seq
    _frame, flags, _fields, uid, _pos = _unpack_frame(buf)
    if not flags & _FLAG_IS_ACK:
        raise WireDecodeError("frame is an envelope, not an acknowledgement")
    assert uid is not None  # _unpack_frame enforces HAS_UID on acks
    return uid
