"""ANNOUNCE decoding against the cursor-based reference it replaced.

``_ReferenceCursor`` and the two functions after it are the ANNOUNCE
decoder as it was before it read the datagram in place: a copy of the
body, a cursor over it, and ``struct`` formats looked up per field.
Every truncation of a set of valid announces, and seeded mutations of
them (byte flips, rewritten counts and string lengths, bad enum and
policy id bytes), must decode to the same announce from both or fail
with the same ``(offset, reason)``.
"""

import random
import struct

import pytest

from minidds import qos
from minidds.dcps.guid import Guid
from minidds.dcps.matching import EndpointDescriptor, EndpointType, RxoQos
from minidds.rtps import wire


class _ReferenceCursor:
    """Bounds-checked reader over one body slice."""

    def __init__(self, data: bytes, base_offset: int):
        self.data = data
        self.pos = 0
        self.base = base_offset

    def _need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise wire.WireError(self.base + self.pos, "truncated body")

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
            raise wire.WireError(self.base + self.pos - length,
                                 "text is not valid UTF-8") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise wire.WireError(self.base + self.pos, "trailing bytes in submessage body")


def _reference_rxo(cur: _ReferenceCursor) -> RxoQos:
    (partition_count,) = cur.unpack("<H")
    partitions = tuple(cur.take_str() for _ in range(partition_count))
    values: dict = {"partitions": partitions or ("",)}
    (entry_count,) = cur.unpack("<B")
    for _ in range(entry_count):
        (pid_raw,) = cur.unpack("<B")
        entry = wire._RXO_BY_ID.get(pid_raw)
        if entry is None:
            try:
                reason = f"policy {qos.QosPolicyId(pid_raw).name} not valid on the wire"
            except ValueError:
                reason = f"unknown policy id {pid_raw}"
            raise wire.WireError(cur.base + cur.pos - 1, reason)
        _, row, layout = entry
        start = cur.base + cur.pos
        for i, (name, raw) in enumerate(zip(row.fields, cur.unpack(layout.format))):
            kind = wire._RXO_TYPES[name]
            if kind is bool:
                raw = bool(raw)
            elif kind is not int:
                try:
                    raw = kind(raw)
                except ValueError:
                    raise wire.WireError(start + struct.calcsize(layout.format[:i + 1]),
                                         f"invalid {kind.__name__} value {raw}") from None
            values[name] = raw
    return RxoQos(**values)


def _reference_announce(data: bytes, start: int, end: int) -> wire.Announce:
    cur = _ReferenceCursor(data[start:end], start)
    domain_id, endpoint_count = cur.unpack("<IH")
    endpoints = []
    for _ in range(endpoint_count):
        guid = Guid.from_bytes(cur.take(16))
        (kind_raw,) = cur.unpack("<B")
        try:
            kind = EndpointType(kind_raw)
        except ValueError:
            raise wire.WireError(cur.base + cur.pos - 1,
                                 f"invalid endpoint kind {kind_raw}") from None
        topic_name = cur.take_str()
        type_name = cur.take_str()
        rxo = _reference_rxo(cur)
        endpoints.append(EndpointDescriptor(guid, domain_id, topic_name, type_name, kind, rxo))
    cur.done()
    return wire.Announce(domain_id, tuple(endpoints))


# ---------------------------------------------------------------------------

PREFIX = bytes(range(12))
# The body sits between foreign bytes, so offsets are absolute and a read
# past ``end`` would find something to read.
LEAD, TAIL = b"\xee" * 24, b"\x01\x00\xff"


def _announces() -> list[wire.Announce]:
    plain = RxoQos()
    tuned = RxoQos(reliability=qos.ReliabilityKind.RELIABLE,
                   durability=qos.DurabilityKind.TRANSIENT_LOCAL,
                   destination_order=qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP,
                   ownership=qos.OwnershipKind.EXCLUSIVE, ownership_strength=-7,
                   presentation_scope=qos.AccessScope.TOPIC,
                   presentation_coherent=True, presentation_ordered=True,
                   deadline_period_ns=250_000_000, latency_budget_ns=3,
                   partitions=("left", "rïght", ""))
    eps = [EndpointDescriptor(Guid(PREFIX, 1), 5, "t", "T", EndpointType.WRITER, plain),
           EndpointDescriptor(Guid(PREFIX, 2), 5, "vehicle/pose", "Pose",
                              EndpointType.READER, tuned),
           EndpointDescriptor(Guid(b"\xab" * 12, 2**32 - 1), 5, "", "Ünïcode",
                              EndpointType.READER, RxoQos(partitions=("a",)))]
    return [wire.Announce(5, ()), wire.Announce(5, tuple(eps[:1])), wire.Announce(5, tuple(eps))]


def _body(announce: wire.Announce) -> bytes:
    return wire._encode_submessage(announce)[wire.SUBMSG_HEADER_LEN:]


def _fields(body: bytes) -> tuple[list[int], list[int]]:
    """Offsets in a valid body of its u16 counts and string lengths, and
    of its u8 fields: endpoint kinds, entry counts, policy ids and the
    bytes of single-byte policy values (the enum and flag bytes)."""
    u16, u8 = [4], []
    pos = 6
    for _ in range(struct.unpack_from("<H", body, 4)[0]):
        u8.append(pos + 16)
        pos += 17
        for _ in range(2):
            u16.append(pos)
            pos += 2 + struct.unpack_from("<H", body, pos)[0]
        u16.append(pos)
        partitions = struct.unpack_from("<H", body, pos)[0]
        pos += 2
        for _ in range(partitions):
            u16.append(pos)
            pos += 2 + struct.unpack_from("<H", body, pos)[0]
        u8.append(pos)
        entries = body[pos]
        pos += 1
        for _ in range(entries):
            u8.append(pos)
            layout = wire._RXO_BY_ID[body[pos]][2]
            pos += 1
            if set(layout.format[1:]) == {"B"}:
                u8.extend(range(pos, pos + layout.size))
            pos += layout.size
    assert pos == len(body)
    return u16, u8


def _outcome(decode, body: bytes):
    data = LEAD + body + TAIL
    try:
        return decode(data, len(LEAD), len(LEAD) + len(body))
    except wire.WireError as exc:
        return (exc.offset, exc.reason)


def _agree(body: bytes):
    expected = _outcome(_reference_announce, body)
    assert _outcome(wire._decode_announce, body) == expected, body.hex()
    return expected


def _mutate(rng: random.Random, body: bytes, u16: list[int], u8: list[int]) -> bytes:
    raw = bytearray(body)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0:
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        elif op == 1:
            pos = rng.choice(u16)
            old = struct.unpack_from("<H", body, pos)[0]
            new = rng.choice([0, 1, old - 1, old + 1, old + 2, rng.randrange(0x10000)])
            struct.pack_into("<H", raw, pos, new % 0x10000)
        elif u8:
            raw[rng.choice(u8)] = rng.choice([2, 3, 4, 7, 13, 200, 255, rng.randrange(256)])
    if rng.random() < 0.25:
        del raw[rng.randrange(len(raw)):]
    return bytes(raw)


@pytest.mark.parametrize("announce", _announces(), ids=["empty", "one", "three"])
def test_valid_and_every_truncation_agree(announce):
    body = _body(announce)
    assert _agree(body) == announce
    truncated = [_agree(body[:length]) for length in range(len(body))]
    assert all(isinstance(result, tuple) for result in truncated)
    assert isinstance(_agree(body + b"\x00"), tuple)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_mutations_agree(seed):
    rng = random.Random(seed)
    bodies = [_body(announce) for announce in _announces()]
    layouts = [_fields(body) for body in bodies]
    decoded, reasons = 0, set()
    for _ in range(4000):
        i = rng.randrange(len(bodies))
        result = _agree(_mutate(rng, bodies[i], *layouts[i]))
        if isinstance(result, wire.Announce):
            decoded += 1
        else:
            reasons.add(result[1].split(" ")[0])
    assert decoded > 0
    # The mutations reach every kind of error the decoder raises.
    assert reasons >= {"truncated", "trailing", "text", "invalid", "unknown", "policy"}
