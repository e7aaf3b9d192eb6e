"""ANNOUNCE decoding against the cursor-based reference it replaced.

``_ReferenceCursor`` and the two functions after it are the ANNOUNCE
decoder as it was before it read the datagram in place: a copy of the
body, a cursor over it, and ``struct`` formats looked up per field.
Every truncation of a set of valid announces, and seeded mutations of
them (byte flips, rewritten counts and string lengths, bad enum and
policy id bytes), must decode to the same announce from both or fail
with the same ``(offset, reason)``. The second half checks the canonical
negotiated-qos block, which the encoder writes and the decoder reads in
one struct call, against the layout docs/wire.md gives.
"""

import dataclasses
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
    of its u8 fields: endpoint kinds, entry counts, policy ids and the
    bytes of single-byte policy values (the enum and flag bytes)."""
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


# ---------------------------------------------------------------------------
# The canonical block against the field-by-field layout of docs/wire.md
#
# The encoder writes every advertised entry in table order, and the
# decoder reads such a block with one struct call. Here the bytes come
# from the layout as docs/wire.md spells it, entry by entry; any other
# block goes through the entry loop, which must agree with the reference
# decoder above.

# (policy id, RxoQos fields, struct codes), in docs/wire.md's table order.
_DOC_ENTRIES = (
    (6, ("reliability",), "B"),
    (1, ("durability",), "B"),
    (8, ("destination_order",), "B"),
    (9, ("ownership",), "B"),
    (10, ("ownership_strength",), "i"),
    (11, ("deadline_period_ns",), "q"),
    (12, ("latency_budget_ns",), "q"),
    (5, ("presentation_scope", "presentation_coherent", "presentation_ordered"), "BBB"),
)

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


def _doc_entry(pid: int, rxo: RxoQos) -> bytes:
    _, names, codes = next(e for e in _DOC_ENTRIES if e[0] == pid)
    return bytes([pid]) + struct.pack("<" + codes, *(getattr(rxo, n) for n in names))


def _doc_block(rxo: RxoQos, order=None) -> bytes:
    """The negotiated-qos block with the entries ``order`` names, by
    docs/wire.md: partitions, entry count, then id and value per entry."""
    order = [e[0] for e in _DOC_ENTRIES] if order is None else order
    out = struct.pack("<H", len(rxo.partitions))
    for name in rxo.partitions:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded)) + encoded
    return out + bytes([len(order)]) + b"".join(_doc_entry(pid, rxo) for pid in order)


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


def _check_canonical(rxo: RxoQos) -> None:
    block = _doc_block(rxo)
    assert wire._encode_rxo(rxo) == block, rxo
    data = LEAD + block + TAIL
    assert wire._decode_rxo(data, len(LEAD), len(LEAD) + len(block)) == (
        _decoded(rxo), len(LEAD) + len(block)), rxo
    # The entry loop reads the canonical block to the same value.
    partitions_end = len(LEAD) + len(block) - wire._RXO_BLOCK.size
    assert wire._decode_rxo_entries(data, partitions_end, len(LEAD) + len(block),
                                    _decoded(rxo).partitions) == (
        _decoded(rxo), len(LEAD) + len(block)), rxo


def test_the_canonical_block_is_every_entry_in_table_order():
    assert [pid for pid, _, _ in _DOC_ENTRIES] == [row.id.value for row in qos.ADVERTISED_QOS]
    assert wire._RXO_HEAD == (8, *(pid for pid, _, _ in _DOC_ENTRIES))
    assert wire._RXO_BLOCK.size == 1 + sum(1 + struct.calcsize("<" + codes)
                                           for _, _, codes in _DOC_ENTRIES)


def test_every_value_of_each_field_takes_the_canonical_path():
    for rxo in _one_field_records():
        _check_canonical(rxo)


def test_seeded_full_records_take_the_canonical_path():
    records = list(_seeded_records(32, 400))
    assert {len(r.partitions) for r in records} == {len(p) for p in _PARTITIONS}
    for rxo in records:
        _check_canonical(rxo)


def _other_orders(rng: random.Random):
    ids = [pid for pid, _, _ in _DOC_ENTRIES]
    yield ids[::-1]                                   # reordered
    yield ids[1:] + ids[:1]
    yield ids[:-1]                                    # one missing
    yield []                                          # none
    yield ids + [ids[0]]                              # one repeated
    yield ids[:3] + [ids[4]] + ids[3:4] + ids[5:]     # two swapped
    for _ in range(6):
        yield rng.sample(ids, rng.randint(0, len(ids)))


@pytest.mark.parametrize("seed", [1, 2])
def test_other_blocks_decode_as_the_entry_loop_does(seed):
    rng = random.Random(seed)
    reasons = set()
    for rxo in list(_seeded_records(seed, 60)) + list(_one_field_records())[::5]:
        for order in _other_orders(rng):
            block = _doc_block(rxo, order)
            expected = _block_outcome(_reference_rxo, block)
            assert _block_outcome(wire._decode_rxo, block) == expected, (rxo, order)
            if not isinstance(expected[0], int):
                # What a block with fewer entries leaves out is the default.
                left_out = {n for pid, names, _ in _DOC_ENTRIES if pid not in order
                            for n in names}
                assert expected[0] == dataclasses.replace(
                    _decoded(rxo), **{n: getattr(RxoQos(), n) for n in left_out})
        canonical = _doc_block(rxo)
        # Unknown or non-advertised ids, bad enum bytes, odd counts, and
        # every truncation of the canonical block.
        start = len(canonical) - wire._RXO_BLOCK.size
        for at, byte in ((start, 9), (start, 7), (start, 0), (start + 1, 13),
                         (start + 1, 2), (start + 3, 4), (start + 2, 2),
                         (start + 3, 99), (start + 32, 2), (start + 33, 255),
                         (start + 34, 7), (start + 11, 200)):
            mutated = bytearray(canonical)
            mutated[at] = byte
            expected = _block_outcome(_reference_rxo, bytes(mutated))
            assert _block_outcome(wire._decode_rxo, bytes(mutated)) == expected
            if isinstance(expected[0], int):
                reasons.add(expected[1].split(" ")[0])
        for length in range(start, len(canonical)):
            expected = _block_outcome(_reference_rxo, canonical[:length])
            assert _block_outcome(wire._decode_rxo, canonical[:length]) == expected
    assert reasons >= {"truncated", "invalid", "unknown", "policy"}
