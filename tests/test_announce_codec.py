"""ANNOUNCE decoding against a field-by-field reference.

``_ReferenceCursor`` and the two functions after it decode an ANNOUNCE
as docs/wire.md spells it: a copy of the body, a cursor over it, and
each field of the negotiated-qos record read on its own, at its
documented offset and size. Every truncation of a set of valid
announces, and seeded mutations of them (byte flips, rewritten counts
and string lengths, bad kind bytes), must decode to the same announce
from both or fail with the same ``(offset, reason)``. The second half
checks the record, which the encoder writes and the decoder reads in one
struct call, against the same layout.
"""

import dataclasses
import random
import struct
import typing

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


# docs/wire.md's negotiated-qos record: (offset, size, RxoQos field).
_DOC_RECORD = (
    (0, 1, "reliability"),
    (1, 1, "durability"),
    (2, 1, "destination_order"),
    (3, 1, "ownership"),
    (4, 4, "ownership_strength"),
    (8, 1, "presentation_scope"),
    (9, 1, "presentation_coherent"),
    (10, 1, "presentation_ordered"),
    (11, 8, "deadline_period_ns"),
    (19, 8, "latency_budget_ns"),
)
_DOC_RECORD_SIZE = 27
_HINTS = typing.get_type_hints(RxoQos)


def _reference_rxo(cur: _ReferenceCursor) -> RxoQos:
    (partition_count,) = cur.unpack("<H")
    partitions = tuple(cur.take_str() for _ in range(partition_count))
    start = cur.base + cur.pos
    record = cur.take(_DOC_RECORD_SIZE)
    values = {}
    for at, size, name in _DOC_RECORD:
        # A kind or flag is one unsigned byte; the integers are signed.
        raw = int.from_bytes(record[at:at + size], "little", signed=size > 1)
        kind = _HINTS[name]
        if kind is bool:
            raw = raw != 0
        elif kind is not int:
            try:
                raw = kind(raw)
            except ValueError:
                raise wire.WireError(start + at,
                                     f"invalid {kind.__name__} value {raw}") from None
        values[name] = raw
    return RxoQos(partitions=partitions or ("",), **values)


def _reference_announce(data: bytes, start: int, end: int) -> wire.Announce:
    cur = _ReferenceCursor(data[start:end], start)
    domain_id, version, endpoint_count = cur.unpack("<IQH")
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
    return wire.Announce(domain_id, version, tuple(endpoints))


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
    return [wire.Announce(5, 1, ()), wire.Announce(5, 2, tuple(eps[:1])),
            wire.Announce(5, 2**64 - 1, tuple(eps))]


def _body(announce: wire.Announce) -> bytes:
    return wire._encode_submessage(announce)[wire.SUBMSG_HEADER_LEN:]


def _fields(body: bytes) -> tuple[list[int], list[int]]:
    """Offsets in a valid body of its u16 counts and string lengths, and
    of its u8 fields: endpoint kinds and the kind and flag bytes of each
    negotiated-qos record."""
    u16, u8 = [12], []
    pos = 14
    for _ in range(struct.unpack_from("<H", body, 12)[0]):
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
        u8.extend(pos + at for at, size, _ in _DOC_RECORD if size == 1)
        pos += _DOC_RECORD_SIZE
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
    assert reasons >= {"truncated", "trailing", "text", "invalid"}


# ---------------------------------------------------------------------------
# The record against the field-by-field layout of docs/wire.md
#
# The encoder writes the record with one struct call, and the decoder
# reads it with one. Here the bytes come from the layout as docs/wire.md
# spells it, field by field, and any block the decoder refuses must be
# refused by the reference decoder above at the same offset, for the
# same reason.

_FIELD_VALUES = {
    "reliability": list(qos.ReliabilityKind),
    "durability": list(qos.DurabilityKind),
    "destination_order": list(qos.DestinationOrderKind),
    "ownership": list(qos.OwnershipKind),
    "ownership_strength": [-2**31, -7, -1, 0, 1, 300, 2**31 - 1],
    "deadline_period_ns": [0, 1, 5_000_000, 2**62, qos.INFINITE_NS],
    "latency_budget_ns": [0, 1, 250, 2**40, qos.INFINITE_NS],
    "presentation_scope": list(qos.AccessScope),
    "presentation_coherent": [False, True],
    "presentation_ordered": [False, True],
}

_PARTITIONS = [(), ("",), ("a",), ("left", "rïght", ""), ("x" * 300, "y", "z", "")]


def _doc_block(rxo: RxoQos) -> bytes:
    """The negotiated-qos block by docs/wire.md: partitions, then the
    record, one field at a time."""
    out = struct.pack("<H", len(rxo.partitions))
    for name in rxo.partitions:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded
    return out + b"".join(int(getattr(rxo, name)).to_bytes(size, "little", signed=size > 1)
                          for _, size, name in _DOC_RECORD)


def _decoded(rxo: RxoQos) -> RxoQos:
    # An empty partition list stands for the default partition.
    return dataclasses.replace(rxo, partitions=rxo.partitions or ("",))


def _one_field_records():
    for name, values in _FIELD_VALUES.items():
        for value in values:
            yield RxoQos(**{name: value})


def _seeded_records(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield RxoQos(partitions=rng.choice(_PARTITIONS),
                     **{name: rng.choice(values) for name, values in _FIELD_VALUES.items()})


def _block_outcome(decode, block: bytes):
    data = LEAD + block + TAIL
    start, end = len(LEAD), len(LEAD) + len(block)
    try:
        if decode is _reference_rxo:
            cur = _ReferenceCursor(data[start:end], start)
            return decode(cur), start + cur.pos
        return decode(data, start, end)
    except wire.WireError as exc:
        return (exc.offset, exc.reason)


def _check_round_trip(rxo: RxoQos) -> None:
    block = _doc_block(rxo)
    assert wire._encode_rxo(rxo) == block, rxo
    expected = (_decoded(rxo), len(LEAD) + len(block))
    assert _block_outcome(wire._decode_rxo, block) == expected, rxo
    assert _block_outcome(_reference_rxo, block) == expected, rxo


def test_the_record_is_the_documented_layout():
    assert [name for _, _, name in _DOC_RECORD] == list(wire._RXO_FIELDS)
    assert [f.name for f in dataclasses.fields(RxoQos)] == [
        *wire._RXO_FIELDS, "partitions"]
    assert [at for at, _, _ in _DOC_RECORD] == [
        sum(size for _, size, _ in _DOC_RECORD[:i]) for i in range(len(_DOC_RECORD))]
    assert wire._RXO.size == _DOC_RECORD_SIZE == sum(size for _, size, _ in _DOC_RECORD)


def test_every_value_of_each_field_round_trips():
    for rxo in _one_field_records():
        _check_round_trip(rxo)


def test_seeded_full_records_round_trip():
    records = list(_seeded_records(32, 400))
    assert {len(r.partitions) for r in records} == {len(p) for p in _PARTITIONS}
    for rxo in records:
        _check_round_trip(rxo)


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_and_truncated_blocks_agree(seed):
    rng = random.Random(seed)
    reasons, flags = set(), 0
    for rxo in list(_seeded_records(seed, 60)) + list(_one_field_records())[::5]:
        block = _doc_block(rxo)
        start = len(block) - _DOC_RECORD_SIZE
        # Every kind and flag byte set to a few values, defined or not.
        for at, size, name in _DOC_RECORD:
            if size != 1:
                continue
            for byte in (0, 1, 2, 3, 4, 9, 128, 255, rng.randrange(256)):
                mutated = bytearray(block)
                mutated[start + at] = byte
                expected = _block_outcome(_reference_rxo, bytes(mutated))
                assert _block_outcome(wire._decode_rxo, bytes(mutated)) == expected
                if isinstance(expected[0], int):
                    reasons.add(expected[1].split(" ")[0])
                elif _HINTS[name] is bool and byte > 1:
                    flags += getattr(expected[0], name)
        # Random bytes anywhere in the block, then every truncation.
        for _ in range(20):
            mutated = bytearray(block)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            expected = _block_outcome(_reference_rxo, bytes(mutated))
            assert _block_outcome(wire._decode_rxo, bytes(mutated)) == expected
        for length in range(len(block)):
            expected = _block_outcome(_reference_rxo, block[:length])
            assert _block_outcome(wire._decode_rxo, block[:length]) == expected
            assert isinstance(expected[0], int)
            if length >= start:
                # A record that does not fit fails at its first byte.
                assert expected == (len(LEAD) + start, "truncated body")
    assert reasons == {"invalid"}
    assert flags > 0  # a non-zero flag byte other than 1 reads as true
