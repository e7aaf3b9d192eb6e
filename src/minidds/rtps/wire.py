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
        body = struct.pack("<IIQqQI", sub.writer_entity_id, sub.reader_entity_id,
                           sub.sequence, sub.source_timestamp_ns,
                           sub.instance_handle, len(sub.payload)) + sub.payload
    elif isinstance(sub, Heartbeat):
        kind = KIND_HEARTBEAT
        body = struct.pack("<IQQI", sub.writer_entity_id, sub.first_seq,
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
        body = (struct.pack("<I", sub.reader_entity_id) + sub.writer_guid.to_bytes()
                + struct.pack("<QI", sub.base_seq, bit_count) + bytes(bits))
    elif isinstance(sub, Gap):
        kind = KIND_GAP
        if sub.gap_start > sub.gap_end:
            raise ValueError("gap range is empty")
        body = struct.pack("<IQQ", sub.writer_entity_id, sub.gap_start, sub.gap_end)
    elif isinstance(sub, Direct):
        kind = KIND_DIRECT
        if not isinstance(sub.inner, (Heartbeat, Gap)):
            raise TypeError("only HEARTBEAT and GAP can be addressed")
        body = struct.pack("<I", sub.reader_entity_id) + _encode_submessage(sub.inner)
    else:
        raise TypeError(f"not a submessage: {sub!r}")
    if len(body) > 0xFFFF:
        raise ValueError("submessage body too large")
    return struct.pack("<BBH", kind, 0, len(body)) + body


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


def _decode_submessage(kind: int, cur: _Cursor) -> Optional[Submessage]:
    if kind == KIND_ANNOUNCE:
        sub: Optional[Submessage] = _decode_announce(cur)
    elif kind == KIND_DATA:
        writer_eid, reader_eid, seq, ts, handle, payload_len = cur.unpack("<IIQqQI")
        payload = cur.take(payload_len)
        sub = Data(writer_eid, reader_eid, seq, ts, handle, payload)
    elif kind == KIND_HEARTBEAT:
        writer_eid, first, last, count = cur.unpack("<IQQI")
        if first > last + 1:
            raise WireError(cur.base, "heartbeat first_seq beyond last_seq + 1")
        sub = Heartbeat(writer_eid, first, last, count)
    elif kind == KIND_ACKNACK:
        (reader_eid,) = cur.unpack("<I")
        writer_guid = Guid.from_bytes(cur.take(16))
        base_seq, bit_count = cur.unpack("<QI")
        if bit_count > ACKNACK_MAX_BITS:
            raise WireError(cur.base + cur.pos - 4, f"acknack bitmap of {bit_count} bits")
        bits = cur.take((bit_count + 7) // 8)
        missing = tuple(
            base_seq + i
            for i in range(bit_count)
            if bits[i // 8] >> (i % 8) & 1
        )
        if missing and missing[0] != base_seq:
            raise WireError(cur.base, "acknack base bit clear")
        sub = AckNack(reader_eid, writer_guid, base_seq, missing)
    elif kind == KIND_GAP:
        writer_eid, start, end = cur.unpack("<IQQ")
        if start > end:
            raise WireError(cur.base, "gap range is empty")
        sub = Gap(writer_eid, start, end)
    elif kind == KIND_DIRECT:
        (reader_eid,) = cur.unpack("<I")
        inner_kind, _flags, inner_len = cur.unpack("<BBH")
        inner_body = cur.take(inner_len)
        if inner_kind in (KIND_HEARTBEAT, KIND_GAP):
            inner = _decode_submessage(
                inner_kind, _Cursor(inner_body, cur.base + cur.pos - inner_len))
            sub = Direct(reader_eid, inner)  # type: ignore[arg-type]
        else:
            sub = None  # unrecognized inner kind; skip the wrapper whole
    else:
        raise AssertionError("unknown kinds are skipped by the caller")
    cur.done()
    return sub


def decode_message(data: bytes) -> WireMessage:
    if len(data) < HEADER_LEN:
        raise WireError(0, "datagram shorter than header")
    if data[0:4] != MAGIC:
        raise WireError(0, "bad magic")
    if data[4:6] != VERSION:
        raise WireError(4, f"unsupported version {data[4]}.{data[5]}")
    prefix = data[8:HEADER_LEN]
    pos = HEADER_LEN
    submessages = []
    while pos < len(data):
        if pos + SUBMSG_HEADER_LEN > len(data):
            raise WireError(pos, "truncated submessage header")
        kind, _flags, length = struct.unpack_from("<BBH", data, pos)
        body_start = pos + SUBMSG_HEADER_LEN
        body_end = body_start + length
        if body_end > len(data):
            raise WireError(pos, f"submessage length {length} overruns datagram")
        if kind in (KIND_ANNOUNCE, KIND_DATA, KIND_HEARTBEAT, KIND_ACKNACK,
                    KIND_GAP, KIND_DIRECT):
            cur = _Cursor(data[body_start:body_end], body_start)
            decoded = _decode_submessage(kind, cur)
            if decoded is not None:
                submessages.append(decoded)
        # Unknown kinds are skipped via the length field.
        pos = body_end
    if not submessages:
        raise WireError(HEADER_LEN, "no recognizable submessages")
    return WireMessage(prefix, tuple(submessages))
