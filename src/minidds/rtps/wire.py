"""Bit-exact wire format: 20-byte message header plus framed submessages.

Layout (all integers little-endian):

    header   : magic "MDDS" (4) | version 0x03 0x00 (2) | reserved (2)
             | sender guid prefix (12)
    submsg   : kind (1) | flags (1) | body length (2) | body

Unknown submessage kinds are skipped over by length so newer peers stay
readable; a datagram of another version is refused. Version 3.0 carries
an announced endpoint's advertised QoS as one fixed 27-byte record.
Decoding never reads past the datagram; malformed input raises
``WireError`` with the offending offset. See docs/wire.md for body layouts.
"""

from __future__ import annotations

import struct
from enum import EnumMeta
from operator import attrgetter
from typing import NamedTuple, Optional, Union, get_type_hints

from minidds.dcps.guid import Guid, PREFIX_LEN
from minidds.dcps.matching import EndpointDescriptor, EndpointType
from minidds.qos import RxoQos

MAGIC = b"MDDS"
VERSION = b"\x03\x00"
RESERVED = b"\x00\x00"
_HEADER_START = MAGIC + VERSION + RESERVED
HEADER_LEN = 20
SUBMSG_HEADER_LEN = 4
MAX_DATAGRAM = 65507

KIND_ANNOUNCE = 0x01
KIND_DATA = 0x02
KIND_HEARTBEAT = 0x03
KIND_ACKNACK = 0x04
KIND_GAP = 0x05
KIND_DIRECT = 0x06

ACKNACK_MAX_BITS = 256

# Fixed byte layouts, compiled once and shared by encoder and decoder.
_HEADER = struct.Struct("<4s2s2x12s")  # magic, version, reserved, sender prefix
_SUBMSG_HEADER = struct.Struct("<BBH")  # kind, flags, body length
_DATA_HEAD = struct.Struct("<IIQqQI")  # writer, reader, seq, stamp, handle, length
# A message of one DATA, the common datagram, up to its payload: message
# header, submessage header and DATA head, so one pack writes all three.
_DATA_MESSAGE = struct.Struct(
    _HEADER.format + _SUBMSG_HEADER.format[1:] + _DATA_HEAD.format[1:])
# Its size, where the payload starts; its format, for a packer that
# writes the payload's first fields in the same call (a type's codec,
# ``idl._Codec.message``); and the largest payload that fits after it.
_DATA_MESSAGE_LEN = DATA_PAYLOAD_START = _DATA_MESSAGE.size
DATA_MESSAGE_FORMAT = _DATA_MESSAGE.format
MAX_PAYLOAD = MAX_DATAGRAM - DATA_PAYLOAD_START
_HEARTBEAT = struct.Struct("<IQQI")
_ACKNACK_HEAD = struct.Struct("<I16sQI")  # reader, writer guid, base, bit count
_GAP = struct.Struct("<IQQ")
_DIRECT_HEAD = struct.Struct("<I")  # reader; the inner submessage follows
_ANNOUNCE_HEAD = struct.Struct("<IQH")  # domain, roster version, endpoint count
# An endpoint's guid (prefix and entity id), kind and topic name length.
_ENDPOINT_HEAD = struct.Struct("<12sIBH")
_U16 = struct.Struct("<H")  # string byte count, partition count

_RXO_TYPES = get_type_hints(RxoQos)
# Wire value -> member, per enum an announce carries; a lookup here costs
# far less than calling the enum class.
_MEMBERS = {kind: {member.value: member for member in kind}
            for kind in (EndpointType, *_RXO_TYPES.values()) if isinstance(kind, EnumMeta)}

# The advertised-qos record: every RxoQos field but the partitions, in
# field order, one struct code each, packed back to back (27 bytes).
_RXO_FIELDS = tuple(name for name in _RXO_TYPES if name != "partitions")
_RXO = struct.Struct("<BBBBiBBBqq")
_rxo_fields = attrgetter(*_RXO_FIELDS)  # RxoQos -> field values
# (index in the record, byte offset in it, byte -> value, enum name) for
# each enum or flag field: the enum's member, None for a byte that names
# none; a flag is true when non-zero.
_FLAG = {raw: raw != 0 for raw in range(256)}
_RXO_CONVERT = tuple(
    (i, struct.calcsize(_RXO.format[:i + 1]),
     _FLAG if _RXO_TYPES[name] is bool else _MEMBERS[_RXO_TYPES[name]],
     _RXO_TYPES[name].__name__)
    for i, name in enumerate(_RXO_FIELDS) if _RXO_TYPES[name] is not int)


class WireError(Exception):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class Announce(NamedTuple):
    domain_id: int
    version: int  # the sender's roster version; bumped at every endpoint change
    endpoints: tuple[EndpointDescriptor, ...]


class Data(NamedTuple):
    writer_entity_id: int
    reader_entity_id: int  # 0 addresses all matched readers
    sequence: int
    source_timestamp_ns: int
    instance_handle: int
    payload: bytes


class Heartbeat(NamedTuple):
    writer_entity_id: int
    first_seq: int
    last_seq: int
    count: int


class AckNack(NamedTuple):
    reader_entity_id: int
    writer_guid: Guid
    base_seq: int  # everything below this is acknowledged
    missing: tuple[int, ...] = ()  # sorted, within [base_seq, base_seq + 255]


class Gap(NamedTuple):
    writer_entity_id: int
    gap_start: int
    gap_end: int  # inclusive; the range is irrecoverable


class Direct(NamedTuple):
    """Addressed wrapper: the inner submessage applies to one reader only.

    HEARTBEAT and GAP bodies have no reader field, but writer sessions
    track per-reader state, so those two can travel wrapped. Decoders
    that predate this kind skip it by length like any unknown kind.
    """

    reader_entity_id: int
    inner: Union[Heartbeat, Gap]


Submessage = Union[Announce, Data, Heartbeat, AckNack, Gap, Direct]


class WireMessage(NamedTuple):
    sender_prefix: bytes
    submessages: tuple[Submessage, ...]


# ---------------------------------------------------------------------------
# Encoding helpers

def _text(text: str) -> bytes:
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError("string too long for wire")
    return encoded


def _pack_str(text: str) -> bytes:
    encoded = _text(text)
    return _U16.pack(len(encoded)) + encoded


def _encode_rxo(rxo: RxoQos) -> bytes:
    """The negotiated-qos block: the partitions, then the record."""
    partitions = rxo.partitions
    return b"".join([_U16.pack(len(partitions)), *map(_pack_str, partitions),
                     _RXO.pack(*_rxo_fields(rxo))])


def _encode_announce(sub: Announce) -> bytes:
    parts = [_ANNOUNCE_HEAD.pack(sub.domain_id, sub.version, len(sub.endpoints))]
    for ep in sub.endpoints:
        topic = _text(ep.topic_name)
        parts += (_ENDPOINT_HEAD.pack(*ep.guid, ep.kind, len(topic)), topic,
                  _pack_str(ep.type_name), _encode_rxo(ep.rxo))
    return b"".join(parts)


def _encode_submessage(sub: Submessage) -> bytes:
    if isinstance(sub, Data):
        kind = KIND_DATA
        body = _DATA_HEAD.pack(*sub[:5], len(sub.payload)) + sub.payload
    elif isinstance(sub, Announce):
        kind, body = KIND_ANNOUNCE, _encode_announce(sub)
    elif isinstance(sub, Heartbeat):
        kind = KIND_HEARTBEAT
        body = _HEARTBEAT.pack(sub.writer_entity_id, sub.first_seq,
                               sub.last_seq, sub.count)
    elif isinstance(sub, AckNack):
        kind = KIND_ACKNACK
        if sub.missing:
            if min(sub.missing) != sub.base_seq:
                raise ValueError("acknack base_seq must be the lowest missing sequence")
            bit_count = max(sub.missing) - sub.base_seq + 1
            if bit_count > ACKNACK_MAX_BITS:
                raise ValueError("acknack window exceeds 256 sequences")
        else:
            bit_count = 0
        bits = bytearray((bit_count + 7) // 8)
        for seq in sub.missing:
            i = seq - sub.base_seq
            bits[i // 8] |= 1 << (i % 8)
        body = _ACKNACK_HEAD.pack(sub.reader_entity_id, sub.writer_guid.to_bytes(),
                                  sub.base_seq, bit_count) + bytes(bits)
    elif isinstance(sub, Gap):
        kind = KIND_GAP
        if sub.gap_start > sub.gap_end:
            raise ValueError("gap range is empty")
        body = _GAP.pack(sub.writer_entity_id, sub.gap_start, sub.gap_end)
    elif isinstance(sub, Direct):
        kind = KIND_DIRECT
        if not isinstance(sub.inner, (Heartbeat, Gap)):
            raise TypeError("only HEARTBEAT and GAP can be addressed")
        body = _DIRECT_HEAD.pack(sub.reader_entity_id) + _encode_submessage(sub.inner)
    else:
        raise TypeError(f"not a submessage: {sub!r}")
    if len(body) > 0xFFFF:
        raise ValueError("submessage body too large")
    return _SUBMSG_HEADER.pack(kind, 0, len(body)) + body


def _oversized(size: int) -> ValueError:
    return ValueError(f"datagram of {size} bytes exceeds UDP limit")


def pack_data_message(prefix: bytes, writer_eid: int, reader_eid: int, seq: int,
                      ts: int, handle: int, payload: bytes) -> bytes:
    """A message of one DATA, the common datagram, from the DATA's fields
    in ``Data`` order: its head (message header, submessage header and
    DATA head) packed by one struct call, then the payload. The inverse
    of ``read_data_message``; a ``Data`` record packs as ``*data``.

    ``prefix`` must be the 12-byte sender prefix. It is not checked here,
    and struct pads or cuts one of another length, so a caller with an
    unchecked prefix goes through ``encode_message``, which refuses it."""
    length = _DATA_HEAD.size + len(payload)
    if length > 0xFFFF:
        raise ValueError("submessage body too large")
    out = _DATA_MESSAGE.pack(MAGIC, VERSION, prefix, KIND_DATA, 0, length,
                             writer_eid, reader_eid, seq, ts, handle,
                             len(payload)) + payload
    if len(out) > MAX_DATAGRAM:
        raise _oversized(len(out))
    return out


def encode_message(message: WireMessage) -> bytes:
    prefix, submessages = message
    if len(prefix) != PREFIX_LEN:
        raise ValueError("sender prefix must be 12 bytes")
    if len(submessages) == 1 and type(submessages[0]) is Data:
        return pack_data_message(prefix, *submessages[0])
    if not submessages:
        raise ValueError("a message carries at least one submessage")
    out = b"".join([_HEADER_START, prefix, *map(_encode_submessage, submessages)])
    if len(out) > MAX_DATAGRAM:
        raise _oversized(len(out))
    return out


# ---------------------------------------------------------------------------
# Decoding

# Builds a record from a tuple of its fields without the Python-level
# ``__new__`` that NamedTuple generates; for the per-datagram records.
_tuple_new = tuple.__new__

# Each decoder below reads one body, ``data[start:end]``, in place and
# raises at the offset the field-by-field reading of docs/wire.md would
# stop at: the start of the first field that does not fit, or the first
# byte after a complete body. The ANNOUNCE parts return the position
# after what they read.

def _need(start: int, size: int, end: int) -> None:
    if start + size > end:
        raise WireError(start, "truncated body")


def _done(pos: int, end: int) -> None:
    if pos != end:
        raise WireError(pos, "trailing bytes in submessage body")


def _decode_text(data: bytes, pos: int, length: int, end: int) -> tuple[str, int]:
    """The ``length`` UTF-8 bytes at ``pos``, after their count."""
    _need(pos, length, end)
    try:
        return data[pos:pos + length].decode("utf-8"), pos + length
    except UnicodeDecodeError:
        raise WireError(pos, "text is not valid UTF-8") from None


def _decode_str(data: bytes, pos: int, end: int) -> tuple[str, int]:
    _need(pos, 2, end)
    (length,) = _U16.unpack_from(data, pos)
    return _decode_text(data, pos + 2, length, end)


def _decode_rxo(data: bytes, pos: int, end: int) -> tuple[RxoQos, int]:
    _need(pos, 2, end)
    (partition_count,) = _U16.unpack_from(data, pos)
    pos += 2
    partitions = []
    for _ in range(partition_count):
        name, pos = _decode_str(data, pos, end)
        partitions.append(name)
    _need(pos, _RXO.size, end)
    values = list(_RXO.unpack_from(data, pos))
    for i, offset, to_value, kind in _RXO_CONVERT:
        value = to_value.get(values[i])
        if value is None:
            raise WireError(pos + offset, f"invalid {kind} value {values[i]}")
        values[i] = value
    return RxoQos(*values, partitions=tuple(partitions) or ("",)), pos + _RXO.size


def _decode_announce(data: bytes, start: int, end: int) -> Announce:
    _need(start, _ANNOUNCE_HEAD.size, end)
    domain_id, version, endpoint_count = _ANNOUNCE_HEAD.unpack_from(data, start)
    pos = start + _ANNOUNCE_HEAD.size
    endpoints = []
    for _ in range(endpoint_count):
        _need(pos, 16, end)
        _need(pos + 16, 1, end)
        kind = _MEMBERS[EndpointType].get(data[pos + 16])
        if kind is None:
            raise WireError(pos + 16, f"invalid endpoint kind {data[pos + 16]}")
        _need(pos + 17, 2, end)
        prefix, entity_id, _, length = _ENDPOINT_HEAD.unpack_from(data, pos)
        # The struct read a 12-byte prefix and a u32: a valid Guid.
        guid = _tuple_new(Guid, (prefix, entity_id))
        topic_name, pos = _decode_text(data, pos + _ENDPOINT_HEAD.size, length, end)
        type_name, pos = _decode_str(data, pos, end)
        rxo, pos = _decode_rxo(data, pos, end)
        endpoints.append(EndpointDescriptor(guid, domain_id, topic_name, type_name, kind, rxo))
    _done(pos, end)
    return Announce(domain_id, version, tuple(endpoints))


def _decode_data(data: bytes, start: int, end: int) -> Data:
    # The checks of _need and _done, inlined on the hottest kind.
    payload_start = start + _DATA_HEAD.size
    if payload_start > end:
        raise WireError(start, "truncated body")
    writer_eid, reader_eid, seq, ts, handle, payload_len = _DATA_HEAD.unpack_from(data, start)
    payload_end = payload_start + payload_len
    if payload_end > end:
        raise WireError(payload_start, "truncated body")
    if payload_end != end:
        raise WireError(payload_end, "trailing bytes in submessage body")
    return _tuple_new(Data, (writer_eid, reader_eid, seq, ts, handle,
                             data[payload_start:payload_end]))


def _decode_heartbeat(data: bytes, start: int, end: int) -> Heartbeat:
    _need(start, _HEARTBEAT.size, end)
    writer_eid, first, last, count = _HEARTBEAT.unpack_from(data, start)
    if first > last + 1:
        raise WireError(start, "heartbeat first_seq beyond last_seq + 1")
    _done(start + _HEARTBEAT.size, end)
    return Heartbeat(writer_eid, first, last, count)


def _decode_acknack(data: bytes, start: int, end: int) -> AckNack:
    # The head's fields, in order: reader id (4), writer guid (16), base
    # sequence and bit count (12).
    _need(start, 4, end)
    _need(start + 4, 16, end)
    _need(start + 20, 12, end)
    reader_eid, guid_raw, base_seq, bit_count = _ACKNACK_HEAD.unpack_from(data, start)
    bits_start = start + _ACKNACK_HEAD.size
    if bit_count > ACKNACK_MAX_BITS:
        raise WireError(bits_start - 4, f"acknack bitmap of {bit_count} bits")
    bits_end = bits_start + (bit_count + 7) // 8
    _need(bits_start, bits_end - bits_start, end)
    bits = data[bits_start:bits_end]
    missing = tuple(
        base_seq + i
        for i in range(bit_count)
        if bits[i // 8] >> (i % 8) & 1
    )
    if missing and missing[0] != base_seq:
        raise WireError(start, "acknack base bit clear")
    _done(bits_end, end)
    return AckNack(reader_eid, Guid.from_bytes(guid_raw), base_seq, missing)


def _decode_gap(data: bytes, start: int, end: int) -> Gap:
    _need(start, _GAP.size, end)
    writer_eid, gap_start, gap_end = _GAP.unpack_from(data, start)
    if gap_start > gap_end:
        raise WireError(start, "gap range is empty")
    _done(start + _GAP.size, end)
    return Gap(writer_eid, gap_start, gap_end)


def _decode_direct(data: bytes, start: int, end: int) -> Optional[Direct]:
    _need(start, _DIRECT_HEAD.size, end)
    (reader_eid,) = _DIRECT_HEAD.unpack_from(data, start)
    header_start = start + _DIRECT_HEAD.size
    _need(header_start, _SUBMSG_HEADER.size, end)
    inner_kind, _flags, inner_len = _SUBMSG_HEADER.unpack_from(data, header_start)
    inner_start = header_start + _SUBMSG_HEADER.size
    inner_end = inner_start + inner_len
    _need(inner_start, inner_len, end)
    decode_inner = _ADDRESSABLE.get(inner_kind)
    # An unrecognized inner kind skips the wrapper whole.
    sub = (None if decode_inner is None
           else Direct(reader_eid, decode_inner(data, inner_start, inner_end)))
    _done(inner_end, end)
    return sub


_ADDRESSABLE = {KIND_HEARTBEAT: _decode_heartbeat, KIND_GAP: _decode_gap}
_DECODERS = {
    KIND_ANNOUNCE: _decode_announce,
    KIND_DATA: _decode_data,
    KIND_HEARTBEAT: _decode_heartbeat,
    KIND_ACKNACK: _decode_acknack,
    KIND_GAP: _decode_gap,
    KIND_DIRECT: _decode_direct,
}


# The offset of a message's first submessage body, and the one call that
# reads the head of a message of one DATA.
_BODY_START = HEADER_LEN + SUBMSG_HEADER_LEN
_unpack_data_message = _DATA_MESSAGE.unpack_from


def read_data_message(data: bytes) -> Optional[tuple]:
    """The head of a well-formed message of one DATA, the common datagram,
    read by one struct call: (sender prefix, writer entity id, reader
    entity id, sequence, source timestamp, instance handle); the payload
    is ``data[DATA_PAYLOAD_START:]``. None for any other datagram,
    malformed input included, which ``decode_message`` reads or refuses."""
    size = len(data)
    if size >= _DATA_MESSAGE_LEN:
        (magic, version, prefix, kind, _flags, length, writer_eid, reader_eid,
         seq, ts, handle, payload_len) = _unpack_data_message(data)
        if (kind == KIND_DATA and payload_len == size - _DATA_MESSAGE_LEN
                and length == size - _BODY_START
                and magic == MAGIC and version == VERSION):
            return prefix, writer_eid, reader_eid, seq, ts, handle
    return None


# A message of one ANNOUNCE up to its roster version: message header,
# submessage header, domain id and version, so one unpack reads them.
_LONE_ANNOUNCE = struct.Struct(_HEADER.format + _SUBMSG_HEADER.format[1:] + "IQ")


def lone_announce(data: bytes) -> Optional[tuple[bytes, int]]:
    """(sender prefix, roster version) of an undecoded datagram whose only
    submessage is an ANNOUNCE, read by one struct call; None for any
    other datagram. Nothing after the version is read or checked, so a
    receiver can look at an announce before it decodes it."""
    if len(data) >= _LONE_ANNOUNCE.size and data[HEADER_LEN] == KIND_ANNOUNCE:
        (magic, version, prefix, _kind, _flags, length, _domain,
         roster) = _LONE_ANNOUNCE.unpack_from(data)
        if length == len(data) - _BODY_START and magic == MAGIC and version == VERSION:
            return prefix, roster
    return None


def decode_message(data: bytes) -> WireMessage:
    size = len(data)
    if size < HEADER_LEN:
        raise WireError(0, "datagram shorter than header")
    magic, version, prefix = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(0, "bad magic")
    if version != VERSION:
        raise WireError(4, f"unsupported version {data[4]}.{data[5]}")
    pos = HEADER_LEN
    submessages = []
    while pos < size:
        if pos + SUBMSG_HEADER_LEN > size:
            raise WireError(pos, "truncated submessage header")
        kind, _flags, length = _SUBMSG_HEADER.unpack_from(data, pos)
        body_start = pos + SUBMSG_HEADER_LEN
        body_end = body_start + length
        if body_end > size:
            raise WireError(pos, f"submessage length {length} overruns datagram")
        decode = _DECODERS.get(kind)
        if decode is not None:  # unknown kinds are skipped via the length field
            decoded = decode(data, body_start, body_end)
            if decoded is not None:
                submessages.append(decoded)
        pos = body_end
    if not submessages:
        raise WireError(HEADER_LEN, "no recognizable submessages")
    return _tuple_new(WireMessage, (prefix, tuple(submessages)))
