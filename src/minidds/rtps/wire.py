"""Bit-exact wire format: 20-byte message header plus framed submessages.

Layout (all integers little-endian):

    header   : magic "MDDS" (4) | version 0x01 0x00 (2) | reserved (2)
             | sender guid prefix (12)
    submsg   : kind (1) | flags (1) | body length (2) | body

Unknown submessage kinds are skipped over by length so newer peers stay
readable. Decoding never reads past the datagram; malformed input raises
``WireError`` with the offending offset. See docs/wire.md for body layouts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Union, get_type_hints

from minidds import qos
from minidds.dcps.guid import Guid, PREFIX_LEN
from minidds.dcps.matching import EndpointDescriptor, EndpointType
from minidds.qos import RxoQos

MAGIC = b"MDDS"
VERSION = b"\x01\x00"
RESERVED = b"\x00\x00"
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
_SUBMSG_HEADER = struct.Struct("<BBH")  # kind, flags, body length
_DATA_HEAD = struct.Struct("<IIQqQI")  # writer, reader, seq, stamp, handle, length
_HEARTBEAT = struct.Struct("<IQQI")
_ACKNACK_HEAD = struct.Struct("<I16sQI")  # reader, writer guid, base, bit count
_GAP = struct.Struct("<IQQ")
_DIRECT_HEAD = struct.Struct("<I")  # reader; the inner submessage follows

# Byte layout of each advertised policy's value: one struct format character
# per field of its ``qos.ADVERTISED_QOS`` row. Policy ids on the wire reuse
# the QosPolicyId numbering.
_QP = qos.QosPolicyId
_RXO_LAYOUTS = {pid: struct.Struct("<" + codes) for pid, codes in (
    (_QP.RELIABILITY, "B"),
    (_QP.DURABILITY, "B"),
    (_QP.DESTINATION_ORDER, "B"),
    (_QP.OWNERSHIP, "B"),
    (_QP.OWNERSHIP_STRENGTH, "i"),
    (_QP.DEADLINE, "q"),
    (_QP.LATENCY_BUDGET, "q"),
    (_QP.PRESENTATION, "BBB"),
)}
# (wire id, row, layout) per advertised policy, in announce order.
_RXO_ENTRIES = [(row.id.value, row, _RXO_LAYOUTS[row.id]) for row in qos.ADVERTISED_QOS]
_RXO_BY_ID = {entry[0]: entry for entry in _RXO_ENTRIES}
_RXO_TYPES = get_type_hints(RxoQos)


class WireError(Exception):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


@dataclass(frozen=True)
class Announce:
    domain_id: int
    endpoints: tuple[EndpointDescriptor, ...]


@dataclass(frozen=True)
class Data:
    writer_entity_id: int
    reader_entity_id: int  # 0 addresses all matched readers
    sequence: int
    source_timestamp_ns: int
    instance_handle: int
    payload: bytes


@dataclass(frozen=True)
class Heartbeat:
    writer_entity_id: int
    first_seq: int
    last_seq: int
    count: int


@dataclass(frozen=True)
class AckNack:
    reader_entity_id: int
    writer_guid: Guid
    base_seq: int  # everything below this is acknowledged
    missing: tuple[int, ...] = ()  # sorted, within [base_seq, base_seq + 255]


@dataclass(frozen=True)
class Gap:
    writer_entity_id: int
    gap_start: int
    gap_end: int  # inclusive; the range is irrecoverable


@dataclass(frozen=True)
class Direct:
    """Addressed wrapper: the inner submessage applies to one reader only.

    HEARTBEAT and GAP bodies have no reader field, but writer sessions
    track per-reader state, so those two can travel wrapped. Decoders
    that predate this kind skip it by length like any unknown kind.
    """

    reader_entity_id: int
    inner: Union[Heartbeat, Gap]


Submessage = Union[Announce, Data, Heartbeat, AckNack, Gap, Direct]


@dataclass(frozen=True)
class WireMessage:
    sender_prefix: bytes
    submessages: tuple[Submessage, ...]


# ---------------------------------------------------------------------------
# Encoding helpers

def _pack_str(text: str) -> bytes:
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError("string too long for wire")
    return struct.pack("<H", len(encoded)) + encoded


def _encode_rxo(rxo: RxoQos) -> bytes:
    out = bytearray()
    out.extend(struct.pack("<H", len(rxo.partitions)))
    for name in rxo.partitions:
        out.extend(_pack_str(name))
    out.append(len(_RXO_ENTRIES))
    for pid, row, layout in _RXO_ENTRIES:
        out.append(pid)
        out.extend(layout.pack(*row.values(rxo)))
    return bytes(out)


def _encode_announce(sub: Announce) -> bytes:
    out = bytearray(struct.pack("<IH", sub.domain_id, len(sub.endpoints)))
    for ep in sub.endpoints:
        out.extend(ep.guid.to_bytes())
        out.append(ep.kind)
        out.extend(_pack_str(ep.topic_name))
        out.extend(_pack_str(ep.type_name))
        out.extend(_encode_rxo(ep.rxo))
    return bytes(out)


def _encode_submessage(sub: Submessage) -> bytes:
    if isinstance(sub, Announce):
        kind, body = KIND_ANNOUNCE, _encode_announce(sub)
    elif isinstance(sub, Data):
        kind = KIND_DATA
        body = _DATA_HEAD.pack(sub.writer_entity_id, sub.reader_entity_id,
                               sub.sequence, sub.source_timestamp_ns,
                               sub.instance_handle, len(sub.payload)) + sub.payload
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


def encode_message(message: WireMessage) -> bytes:
    if len(message.sender_prefix) != PREFIX_LEN:
        raise ValueError("sender prefix must be 12 bytes")
    if not message.submessages:
        raise ValueError("a message carries at least one submessage")
    out = bytearray()
    out.extend(MAGIC)
    out.extend(VERSION)
    out.extend(RESERVED)
    out.extend(message.sender_prefix)
    for sub in message.submessages:
        out.extend(_encode_submessage(sub))
    if len(out) > MAX_DATAGRAM:
        raise ValueError(f"datagram of {len(out)} bytes exceeds UDP limit")
    return bytes(out)


# ---------------------------------------------------------------------------
# Decoding

class _Cursor:
    """Bounds-checked reader over one body slice."""

    def __init__(self, data: bytes, base_offset: int):
        self.data = data
        self.pos = 0
        self.base = base_offset

    def _need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise WireError(self.base + self.pos, "truncated body")

    def take(self, count: int) -> bytes:
        self._need(count)
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        self._need(size)
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def take_str(self) -> str:
        (length,) = self.unpack("<H")
        raw = self.take(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise WireError(self.base + self.pos - length, "text is not valid UTF-8") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireError(self.base + self.pos, "trailing bytes in submessage body")


def _decode_rxo(cur: _Cursor) -> RxoQos:
    (partition_count,) = cur.unpack("<H")
    partitions = tuple(cur.take_str() for _ in range(partition_count))
    values: dict = {"partitions": partitions or ("",)}
    (entry_count,) = cur.unpack("<B")
    for _ in range(entry_count):
        (pid_raw,) = cur.unpack("<B")
        entry = _RXO_BY_ID.get(pid_raw)
        if entry is None:
            try:
                reason = f"policy {_QP(pid_raw).name} not valid on the wire"
            except ValueError:
                reason = f"unknown policy id {pid_raw}"
            raise WireError(cur.base + cur.pos - 1, reason)
        _, row, layout = entry
        start = cur.base + cur.pos
        for i, (name, raw) in enumerate(zip(row.fields, cur.unpack(layout.format))):
            kind = _RXO_TYPES[name]
            if kind is bool:
                raw = bool(raw)
            elif kind is not int:
                try:
                    raw = kind(raw)
                except ValueError:
                    # Every field is one format character after the "<".
                    raise WireError(start + struct.calcsize(layout.format[:i + 1]),
                                    f"invalid {kind.__name__} value {raw}") from None
            values[name] = raw
    return RxoQos(**values)


def _decode_announce(cur: _Cursor) -> Announce:
    domain_id, endpoint_count = cur.unpack("<IH")
    endpoints = []
    for _ in range(endpoint_count):
        guid = Guid.from_bytes(cur.take(16))
        (kind_raw,) = cur.unpack("<B")
        try:
            kind = EndpointType(kind_raw)
        except ValueError:
            raise WireError(cur.base + cur.pos - 1, f"invalid endpoint kind {kind_raw}") from None
        topic_name = cur.take_str()
        type_name = cur.take_str()
        rxo = _decode_rxo(cur)
        endpoints.append(EndpointDescriptor(guid, domain_id, topic_name, type_name, kind, rxo))
    return Announce(domain_id, tuple(endpoints))


# Each decoder below reads one body, ``data[start:end]``, in place and
# raises at the offset the field-by-field reading of docs/wire.md would
# stop at: the start of the first field that does not fit, or the first
# byte after a complete body.

def _need(start: int, size: int, end: int) -> None:
    if start + size > end:
        raise WireError(start, "truncated body")


def _done(pos: int, end: int) -> None:
    if pos != end:
        raise WireError(pos, "trailing bytes in submessage body")


def _decode_announce_body(data: bytes, start: int, end: int) -> Announce:
    cur = _Cursor(data[start:end], start)
    sub = _decode_announce(cur)
    cur.done()
    return sub


def _decode_data(data: bytes, start: int, end: int) -> Data:
    _need(start, _DATA_HEAD.size, end)
    writer_eid, reader_eid, seq, ts, handle, payload_len = _DATA_HEAD.unpack_from(data, start)
    payload_start = start + _DATA_HEAD.size
    payload_end = payload_start + payload_len
    _need(payload_start, payload_len, end)
    _done(payload_end, end)
    return Data(writer_eid, reader_eid, seq, ts, handle, data[payload_start:payload_end])


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
    KIND_ANNOUNCE: _decode_announce_body,
    KIND_DATA: _decode_data,
    KIND_HEARTBEAT: _decode_heartbeat,
    KIND_ACKNACK: _decode_acknack,
    KIND_GAP: _decode_gap,
    KIND_DIRECT: _decode_direct,
}


def decode_message(data: bytes) -> WireMessage:
    size = len(data)
    if size < HEADER_LEN:
        raise WireError(0, "datagram shorter than header")
    if data[0:4] != MAGIC:
        raise WireError(0, "bad magic")
    if data[4:6] != VERSION:
        raise WireError(4, f"unsupported version {data[4]}.{data[5]}")
    prefix = data[8:HEADER_LEN]
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
    return WireMessage(prefix, tuple(submessages))
