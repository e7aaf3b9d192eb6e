"""Datagram codec: golden byte vectors, round-trips, malformed input."""

import random
import struct

import pytest

from minidds import qos
from minidds.dcps.guid import Guid
from minidds.dcps.matching import EndpointDescriptor, EndpointType, RxoQos
from minidds.rtps import wire

PREFIX = bytes(range(12))
OTHER_PREFIX = b"\xaa" * 12


def _message(*subs, prefix=PREFIX):
    return wire.WireMessage(prefix, tuple(subs))


def _encode(*subs, prefix=PREFIX):
    return wire.encode_message(_message(*subs, prefix=prefix))


class TestGoldenVectors:
    def test_minimal_data_message_is_60_bytes(self):
        data = wire.Data(writer_entity_id=1, reader_entity_id=0, sequence=1,
                         source_timestamp_ns=0, instance_handle=0, payload=b"")
        encoded = _encode(data)
        expected = (
            b"MDDS"                      # magic
            + b"\x02\x00"                # version 2.0
            + b"\x00\x00"                # reserved
            + PREFIX                     # sender guid prefix
            + bytes([0x02, 0x00])        # DATA, flags
            + struct.pack("<H", 36)      # body length
            + struct.pack("<IIQqQI", 1, 0, 1, 0, 0, 0)
        )
        assert encoded == expected
        assert len(encoded) == 60
        decoded = wire.decode_message(encoded)
        assert decoded == _message(data)

    def test_data_with_payload(self):
        data = wire.Data(3, 9, 0x1122334455667788, -40, 0xFFEE, b"\x01\x02\x03")
        encoded = _encode(data)
        body = struct.pack("<IIQqQI", 3, 9, 0x1122334455667788, -40, 0xFFEE, 3)
        assert encoded[20:] == bytes([0x02, 0]) + struct.pack("<H", 39) + body + b"\x01\x02\x03"
        assert wire.decode_message(encoded).submessages == (data,)

    def test_heartbeat_bytes(self):
        hb = wire.Heartbeat(writer_entity_id=2, first_seq=5, last_seq=9, count=4)
        encoded = _encode(hb)
        assert encoded[20:] == (bytes([0x03, 0]) + struct.pack("<H", 24)
                                + struct.pack("<IQQI", 2, 5, 9, 4))

    def test_gap_bytes(self):
        gap = wire.Gap(writer_entity_id=2, gap_start=10, gap_end=12)
        encoded = _encode(gap)
        assert encoded[20:] == (bytes([0x05, 0]) + struct.pack("<H", 20)
                                + struct.pack("<IQQ", 2, 10, 12))

    def test_acknack_bitmap_bytes(self):
        ack = wire.AckNack(reader_entity_id=6, writer_guid=Guid(OTHER_PREFIX, 2),
                           base_seq=5, missing=(5, 7, 9))
        encoded = _encode(ack)
        body = (struct.pack("<I", 6) + OTHER_PREFIX + struct.pack("<I", 2)
                + struct.pack("<QI", 5, 5) + bytes([0b10101]))
        assert encoded[20:] == bytes([0x04, 0]) + struct.pack("<H", len(body)) + body

    def test_announce_bytes_default_qos(self):
        ep = EndpointDescriptor(Guid(OTHER_PREFIX, 7), 3, "t", "T",
                                EndpointType.WRITER, RxoQos())
        encoded = _encode(wire.Announce(3, 0x0102030405060708, (ep,)))
        body = (
            struct.pack("<IQH", 3, 0x0102030405060708, 1)
            + OTHER_PREFIX + struct.pack("<I", 7)      # guid
            + bytes([0])                               # writer
            + struct.pack("<H", 1) + b"t"
            + struct.pack("<H", 1) + b"T"
            + struct.pack("<H", 1) + struct.pack("<H", 0)  # one empty partition
            + bytes([8])                               # policy entry count
            + bytes([6, 0])                            # reliability BEST_EFFORT
            + bytes([1, 0])                            # durability VOLATILE
            + bytes([8, 0])                            # dest order BY_RECEPTION
            + bytes([9, 0])                            # ownership SHARED
            + bytes([10]) + struct.pack("<i", 0)       # strength
            + bytes([11]) + struct.pack("<q", qos.INFINITE_NS)  # deadline
            + bytes([12]) + struct.pack("<q", 0)       # latency budget
            + bytes([5, 0, 0, 0])                      # presentation
        )
        assert encoded[20:] == bytes([0x01, 0]) + struct.pack("<H", len(body)) + body

    def test_announce_bytes_full_qos(self):
        # Recorded from the encoder that spelled out each policy entry by
        # hand; every advertised value differs from its default.
        ep = EndpointDescriptor(Guid(OTHER_PREFIX, 7), 3, "t", "T",
                                EndpointType.WRITER, TestRoundTrips.RXO)
        encoded = _encode(wire.Announce(3, 0x0102030405060708, (ep,)))
        expected = bytes.fromhex(
            "01 00 59 00"                              # ANNOUNCE, body 89 bytes
            "03 00 00 00"                              # domain 3
            "08 07 06 05 04 03 02 01"                  # roster version
            "01 00"                                    # one endpoint
            "aa aa aa aa aa aa aa aa aa aa aa aa 07 00 00 00"  # guid
            "00"                                       # writer
            "01 00 74 01 00 54"                        # "t", "T"
            "02 00 05 00 61 6c 70 68 61 05 00 62 c3 a9 74 61"  # alpha, béta
            "08"                                       # policy entry count
            "06 01"                                    # reliability RELIABLE
            "01 01"                                    # durability TRANSIENT_LOCAL
            "08 01"                                    # dest order BY_SOURCE
            "09 01"                                    # ownership EXCLUSIVE
            "0a fd ff ff ff"                           # strength -3
            "0b 40 4b 4c 00 00 00 00 00"               # deadline 5 ms
            "0c fa 00 00 00 00 00 00 00"               # latency budget 250 ns
            "05 01 01 01"                              # presentation TOPIC, coherent, ordered
        )
        assert encoded[20:] == expected
        assert wire.decode_message(encoded).submessages == (
            wire.Announce(3, 0x0102030405060708, (ep,)),)


class TestRoundTrips:
    RXO = RxoQos(reliability=qos.ReliabilityKind.RELIABLE,
                 durability=qos.DurabilityKind.TRANSIENT_LOCAL,
                 destination_order=qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP,
                 ownership=qos.OwnershipKind.EXCLUSIVE,
                 ownership_strength=-3,
                 presentation_scope=qos.AccessScope.TOPIC,
                 presentation_coherent=True,
                 presentation_ordered=True,
                 deadline_period_ns=5_000_000,
                 latency_budget_ns=250,
                 partitions=("alpha", "béta"))

    @pytest.mark.parametrize("sub", [
        wire.Data(1, 2, 3, 4, 5, b"payload"),
        wire.Heartbeat(1, 1, 100, 7),
        wire.AckNack(4, Guid(PREFIX, 1), 10, ()),
        wire.AckNack(4, Guid(PREFIX, 1), 10, (10, 11, 265)),
        wire.Gap(1, 5, 5),
        wire.Direct(9, wire.Heartbeat(1, 2, 3, 4)),
        wire.Direct(9, wire.Gap(1, 2, 3)),
    ])
    def test_submessage(self, sub):
        assert wire.decode_message(_encode(sub)).submessages == (sub,)

    def test_announce_with_full_qos(self):
        ep_w = EndpointDescriptor(Guid(PREFIX, 1), 0, "topic/a", "TypeA",
                                  EndpointType.WRITER, self.RXO)
        ep_r = EndpointDescriptor(Guid(PREFIX, 2), 0, "topic/a", "TypeA",
                                  EndpointType.READER, RxoQos())
        announce = wire.Announce(0, 2**64 - 1, (ep_w, ep_r))
        assert wire.decode_message(_encode(announce)).submessages == (announce,)

    def test_several_submessages_one_datagram(self):
        subs = (wire.Data(1, 0, 1, 0, 0, b"x"),
                wire.Heartbeat(1, 1, 1, 1),
                wire.Gap(1, 2, 3))
        decoded = wire.decode_message(_encode(*subs))
        assert decoded.submessages == subs
        assert decoded.sender_prefix == PREFIX


class TestForwardCompatibility:
    def test_unknown_kind_skipped_by_length(self):
        data = wire.Data(1, 0, 1, 0, 0, b"")
        raw = bytearray(_encode(data))
        unknown = bytes([0x7F, 0]) + struct.pack("<H", 5) + b"junk!"
        raw[20:20] = unknown  # splice before the DATA submessage
        decoded = wire.decode_message(bytes(raw))
        assert decoded.submessages == (data,)

    def test_only_unknown_kinds_is_an_error(self):
        raw = (b"MDDS\x02\x00\x00\x00" + PREFIX
               + bytes([0x7F, 0]) + struct.pack("<H", 2) + b"ab")
        with pytest.raises(wire.WireError):
            wire.decode_message(raw)

    def test_direct_with_unknown_inner_kind_is_skipped(self):
        inner = bytes([0x30, 0]) + struct.pack("<H", 3) + b"abc"
        body = struct.pack("<I", 5) + inner
        raw = bytearray(b"MDDS\x02\x00\x00\x00" + PREFIX)
        raw += bytes([0x06, 0]) + struct.pack("<H", len(body)) + body
        raw += _encode(wire.Heartbeat(1, 1, 1, 1))[20:]
        decoded = wire.decode_message(bytes(raw))
        assert decoded.submessages == (wire.Heartbeat(1, 1, 1, 1),)


class TestEncodeErrors:
    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            wire.encode_message(wire.WireMessage(b"short", (wire.Gap(1, 1, 1),)))

    def test_empty_message(self):
        with pytest.raises(ValueError):
            wire.encode_message(wire.WireMessage(PREFIX, ()))

    def test_datagram_size_cap(self):
        big = wire.Data(1, 0, 1, 0, 0, b"x" * 65448)
        with pytest.raises(ValueError):
            _encode(big)
        _encode(wire.Data(1, 0, 1, 0, 0, b"x" * 65447))  # exactly at the cap

    def test_acknack_base_must_be_lowest_missing(self):
        with pytest.raises(ValueError):
            _encode(wire.AckNack(1, Guid(PREFIX, 1), 5, (6, 7)))

    def test_acknack_window_limit(self):
        with pytest.raises(ValueError):
            _encode(wire.AckNack(1, Guid(PREFIX, 1), 5, (5, 5 + 256)))
        _encode(wire.AckNack(1, Guid(PREFIX, 1), 5, (5, 5 + 255)))

    def test_empty_gap_range(self):
        with pytest.raises(ValueError):
            _encode(wire.Gap(1, 5, 4))

    def test_direct_only_wraps_heartbeat_and_gap(self):
        with pytest.raises(TypeError):
            _encode(wire.Direct(1, wire.Data(1, 0, 1, 0, 0, b"")))


class TestDecodeErrors:
    def _raw(self, *subs):
        return _encode(*subs)

    @pytest.mark.parametrize("mangle,offset", [
        (lambda raw: raw[:10], 0),                       # shorter than header
        (lambda raw: b"XDDS" + raw[4:], 0),              # bad magic
        (lambda raw: raw[:4] + b"\x01\x00" + raw[6:], 4),  # the old version
        (lambda raw: raw[:4] + b"\x02\x01" + raw[6:], 4),  # another minor version
    ])
    def test_header_errors(self, mangle, offset):
        raw = mangle(self._raw(wire.Gap(1, 1, 1)))
        with pytest.raises(wire.WireError) as exc:
            wire.decode_message(raw)
        assert exc.value.offset == offset

    def test_truncated_submessage_header(self):
        raw = self._raw(wire.Gap(1, 1, 1))[:22]
        with pytest.raises(wire.WireError) as exc:
            wire.decode_message(raw)
        assert exc.value.offset == 20

    def test_length_overruns_datagram(self):
        raw = bytearray(self._raw(wire.Gap(1, 1, 1)))
        struct.pack_into("<H", raw, 22, 999)
        with pytest.raises(wire.WireError):
            wire.decode_message(bytes(raw))

    def test_trailing_bytes_in_body(self):
        raw = bytearray(b"MDDS\x02\x00\x00\x00" + PREFIX)
        body = struct.pack("<IQQ", 1, 1, 1) + b"\x00"
        raw += bytes([0x05, 0]) + struct.pack("<H", len(body)) + body
        with pytest.raises(wire.WireError):
            wire.decode_message(bytes(raw))

    def test_heartbeat_range_validated(self):
        raw = bytearray(b"MDDS\x02\x00\x00\x00" + PREFIX)
        body = struct.pack("<IQQI", 1, 9, 3, 1)
        raw += bytes([0x03, 0]) + struct.pack("<H", len(body)) + body
        with pytest.raises(wire.WireError):
            wire.decode_message(bytes(raw))

    def test_gap_range_validated(self):
        raw = bytearray(b"MDDS\x02\x00\x00\x00" + PREFIX)
        body = struct.pack("<IQQ", 1, 7, 3)
        raw += bytes([0x05, 0]) + struct.pack("<H", len(body)) + body
        with pytest.raises(wire.WireError):
            wire.decode_message(bytes(raw))

    def test_acknack_oversized_bitmap(self):
        raw = bytearray(b"MDDS\x02\x00\x00\x00" + PREFIX)
        body = (struct.pack("<I", 1) + Guid(PREFIX, 1).to_bytes()
                + struct.pack("<QI", 1, 300) + bytes(38))
        raw += bytes([0x04, 0]) + struct.pack("<H", len(body)) + body
        with pytest.raises(wire.WireError):
            wire.decode_message(bytes(raw))

    def test_announce_bad_text(self):
        ep = EndpointDescriptor(Guid(PREFIX, 1), 0, "topic", "T",
                                EndpointType.WRITER, RxoQos())
        raw = bytearray(self._raw(wire.Announce(0, 1, (ep,))))
        index = raw.index(b"topic")
        raw[index] = 0xFF
        with pytest.raises(wire.WireError):
            wire.decode_message(bytes(raw))

    def test_announce_invalid_enum_value(self):
        ep = EndpointDescriptor(Guid(PREFIX, 1), 0, "t", "T",
                                EndpointType.WRITER, RxoQos())
        raw = bytearray(self._raw(wire.Announce(0, 1, (ep,))))
        # The reliability policy entry is id 6 followed by its kind byte.
        index = raw.index(bytes([8, 6, 0]), 20) + 2
        raw[index] = 9
        with pytest.raises(wire.WireError):
            wire.decode_message(bytes(raw))


    # Offsets in the default-QoS announce of one endpoint with topic "t"
    # and type "T": the entries start at byte 66.
    @pytest.mark.parametrize("offset,policy_id,reason", [
        (67, 6, "invalid ReliabilityKind value 9"),
        (69, 1, "invalid DurabilityKind value 9"),
        (71, 8, "invalid DestinationOrderKind value 9"),
        (73, 9, "invalid OwnershipKind value 9"),
        (98, 5, "invalid AccessScope value 9"),
    ])
    def test_announce_invalid_enum_reported_at_its_byte(self, offset, policy_id, reason):
        ep = EndpointDescriptor(Guid(PREFIX, 1), 0, "t", "T",
                                EndpointType.WRITER, RxoQos())
        raw = bytearray(self._raw(wire.Announce(0, 1, (ep,))))
        assert (raw[offset - 1], raw[offset]) == (policy_id, 0)
        raw[offset] = 9
        with pytest.raises(wire.WireError) as exc:
            wire.decode_message(bytes(raw))
        assert (exc.value.offset, exc.value.reason) == (offset, reason)
        assert str(exc.value) == f"offset {offset}: {reason}"

    # Body layouts from docs/wire.md with the body starting at byte 24;
    # each error names the first field that does not fit, or the first
    # byte past a complete body.
    @pytest.mark.parametrize("kind,body,offset,reason", [
        (0x02, struct.pack("<IIQqQI", 1, 0, 1, 0, 0, 4)[:30], 24, "truncated body"),
        (0x02, struct.pack("<IIQqQI", 1, 0, 1, 0, 0, 10) + b"abcd", 60, "truncated body"),
        (0x02, struct.pack("<IIQqQI", 1, 0, 1, 0, 0, 4) + b"abcdXYZ", 64,
         "trailing bytes in submessage body"),
        (0x02, struct.pack("<IIQqQI", 1, 0, 1, 0, 0, 0) + b"X", 60,
         "trailing bytes in submessage body"),
        (0x03, struct.pack("<IQQI", 1, 1, 3, 1)[:23], 24, "truncated body"),
        (0x03, struct.pack("<IQQI", 1, 1, 3, 1) + b"X", 48,
         "trailing bytes in submessage body"),
        (0x05, struct.pack("<IQQ", 1, 1, 3)[:19], 24, "truncated body"),
        (0x05, struct.pack("<IQQ", 1, 1, 3) + b"X", 44, "trailing bytes in submessage body"),
        (0x04, struct.pack("<I", 1)[:3], 24, "truncated body"),
        (0x04, struct.pack("<I", 1) + bytes(15), 28, "truncated body"),
        (0x04, struct.pack("<I", 1) + bytes(16) + bytes(11), 44, "truncated body"),
        (0x04, struct.pack("<I", 1) + bytes(16) + struct.pack("<QI", 1, 9) + b"\x01",
         56, "truncated body"),
        (0x04, struct.pack("<I", 1) + bytes(16) + struct.pack("<QI", 1, 300), 52,
         "acknack bitmap of 300 bits"),
        (0x04, struct.pack("<I", 1) + bytes(16) + struct.pack("<QI", 1, 2) + b"\x02", 24,
         "acknack base bit clear"),
        (0x04, struct.pack("<I", 1) + bytes(16) + struct.pack("<QI", 1, 1) + b"\x01X", 57,
         "trailing bytes in submessage body"),
        (0x06, struct.pack("<I", 1)[:2], 24, "truncated body"),
        (0x06, struct.pack("<I", 1) + b"\x03\x00", 28, "truncated body"),
        (0x06, struct.pack("<IBBH", 1, 3, 0, 28) + bytes(20), 32, "truncated body"),
        (0x06, struct.pack("<IBBH", 1, 5, 0, 21) + struct.pack("<IQQ", 1, 1, 3) + b"X", 52,
         "trailing bytes in submessage body"),
        (0x06, struct.pack("<IBBH", 1, 5, 0, 20) + struct.pack("<IQQ", 1, 1, 3) + b"X", 52,
         "trailing bytes in submessage body"),
        (0x06, struct.pack("<IBBH", 1, 9, 0, 2) + b"ab" + b"X", 34,
         "trailing bytes in submessage body"),
    ])
    def test_body_errors_are_reported_at_their_byte(self, kind, body, offset, reason):
        raw = (b"MDDS\x02\x00\x00\x00" + PREFIX + bytes([kind, 0])
               + struct.pack("<H", len(body)) + body)
        with pytest.raises(wire.WireError) as exc:
            wire.decode_message(raw)
        assert (exc.value.offset, exc.value.reason) == (offset, reason)

    def test_data_payload_is_sliced_from_the_datagram(self):
        raw = _encode(wire.Data(1, 2, 3, 4, 5, b"payload"), wire.Gap(1, 1, 2))
        data, gap = wire.decode_message(raw).submessages
        assert data == wire.Data(1, 2, 3, 4, 5, b"payload")
        assert type(data.payload) is bytes and gap == wire.Gap(1, 1, 2)


def _data_by_layout(prefix, writer, reader, sequence, stamp, handle, payload):
    """A one-DATA message built field by field from docs/wire.md."""
    le = "little"
    body = (writer.to_bytes(4, le) + reader.to_bytes(4, le) + sequence.to_bytes(8, le)
            + stamp.to_bytes(8, le, signed=True) + handle.to_bytes(8, le)
            + len(payload).to_bytes(4, le) + payload)
    return (b"MDDS" + bytes([2, 0]) + bytes(2) + prefix
            + bytes([0x02, 0]) + len(body).to_bytes(2, le) + body)


class TestOneDataMessage:
    """A message of one DATA is packed by one struct; it must give the
    bytes of the documented layout, as any other message does."""

    LARGEST_PAYLOAD = wire.MAX_DATAGRAM - 60

    def test_matches_the_documented_layout(self):
        rng = random.Random(2112)
        for _ in range(3000):
            size = rng.choice((0, rng.randint(1, 64), rng.randint(65, 4096),
                               self.LARGEST_PAYLOAD))
            fields = (rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(64),
                      rng.randint(-2**63, 2**63 - 1), rng.getrandbits(64),
                      rng.randbytes(size))
            prefix = rng.randbytes(12)
            encoded = _encode(wire.Data(*fields), prefix=prefix)
            assert encoded == _data_by_layout(prefix, *fields)
            assert wire.decode_message(encoded) == _message(wire.Data(*fields), prefix=prefix)

    @pytest.mark.parametrize("size,reason", [
        (LARGEST_PAYLOAD + 1, "exceeds UDP limit"),
        (0xFFFF - 35, "submessage body too large"),
    ])
    def test_size_limits(self, size, reason):
        with pytest.raises(ValueError, match=reason):
            _encode(wire.Data(1, 0, 1, 0, 0, bytes(size)))


def _outcome(raw):
    """What decode_message makes of ``raw``: the message and the type of
    each record in it, or the offset and reason it is refused at."""
    try:
        message = wire.decode_message(raw)
    except wire.WireError as exc:
        return exc.offset, exc.reason
    return message, [type(r) for r in (message, *message.submessages)]


class TestOneDataBranch:
    """The receive path reads a well-formed message of one DATA with one
    struct call (``read_data_message``), and hands every other datagram
    to ``decode_message``'s submessage loop. On any input the two must
    agree: a head exactly when the loop yields one DATA that fills the
    datagram, and then the head's fields and the bytes from
    ``DATA_PAYLOAD_START`` on are that DATA."""

    LARGEST_FRAMED = 0xFFFF - 36  # the largest payload a body length can frame
    EXTREMES = (0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**63 - 1, 2**63, 2**64 - 1)

    def _random_message(self, rng, size):
        """A one-DATA message with nonzero flags and reserved bytes, each
        field drawn from its extremes or at random."""
        def pick(bits):
            return rng.choice([v for v in self.EXTREMES if v < 2**bits]
                              + [rng.getrandbits(bits)])
        stamp = rng.choice((-2**63, -1, 0, 2**63 - 1, rng.randint(-2**63, 2**63 - 1)))
        raw = bytearray(_data_by_layout(rng.randbytes(12), pick(32), pick(32), pick(64),
                                        stamp, pick(64), rng.randbytes(size)))
        raw[6:8] = rng.randbytes(2)  # reserved
        raw[21] = rng.randrange(1, 256)  # flags
        return bytes(raw)

    def _variants(self, raw, rng, values):
        """``raw``; each of ``values(pos)`` written over each of its first
        60 bytes; cut or extended by 1-4 bytes; followed by a second
        submessage."""
        yield raw
        for pos in range(60):
            for value in values(pos):
                if value != raw[pos]:
                    yield raw[:pos] + bytes([value]) + raw[pos + 1:]
        for n in range(1, 5):
            yield raw[:-n]
            yield raw + rng.randbytes(n)
        for second in (wire.Gap(1, 2, 3), wire.Heartbeat(1, 1, 4, 2),
                       wire.Data(7, 0, 9, -1, 3, b"tail")):
            yield raw + _encode(second)[wire.HEADER_LEN:]
        yield raw + bytes([0x7F, 0, 2, 0]) + b"??"  # an unknown kind

    def _agrees(self, inputs):
        """Checks each input; returns how many the loop decoded and how
        many ``read_data_message`` read."""
        decoded = heads = 0
        for raw in inputs:
            head = wire.read_data_message(raw)
            message = _outcome(raw)[0]
            decoded += type(message) is wire.WireMessage
            lone = (type(message) is wire.WireMessage and len(message.submessages) == 1
                    and type(message.submessages[0]) is wire.Data
                    and len(raw) == wire.DATA_PAYLOAD_START
                    + len(message.submessages[0].payload))
            assert (head is not None) == lone, raw[:64]
            if head is not None:
                heads += 1
                record = wire.Data(*head[1:], raw[wire.DATA_PAYLOAD_START:])
                assert (head[0], record) == (message.sender_prefix, message.submessages[0])
        return decoded, heads

    def test_agrees_with_the_submessage_loop(self):
        rng = random.Random(1313)
        every_value = range(256)
        decoded = heads = checked = 0
        for size in (0, 1, 59, 60, 61, 300):  # every single-byte change
            raw = self._random_message(rng, size)
            counts = self._agrees(self._variants(raw, rng, lambda _: every_value))
            decoded, heads, checked = decoded + counts[0], heads + counts[1], checked + 1
        sizes = [TestOneDataMessage.LARGEST_PAYLOAD, self.LARGEST_FRAMED] + [
            rng.choice((0, rng.randint(1, 64), rng.randint(65, 2048))) for _ in range(100)]
        for size in sizes:  # a few changes per byte
            raw = self._random_message(rng, size)
            counts = self._agrees(self._variants(raw, rng, lambda pos: (
                raw[pos] ^ 0x01, raw[pos] ^ 0x80, rng.randrange(256))))
            decoded, heads, checked = decoded + counts[0], heads + counts[1], checked + 1
        # Each message decodes, and so do some of its variants; each is
        # read by its head, and so are some of its variants.
        assert decoded > 2 * checked
        assert heads > 2 * checked

    def test_serves_every_well_formed_one_data_message(self):
        """Every well-formed message of one DATA is read by its head, as
        the loop reads it, with a payload of bytes."""
        rng = random.Random(1314)
        messages = [self._random_message(rng, size) for size in (0, 1, 64, self.LARGEST_FRAMED)]
        assert self._agrees(messages) == (len(messages), len(messages))
        assert all(type(wire.decode_message(raw).submessages[0].payload) is bytes
                   for raw in messages)


class TestFuzz:
    def test_mutated_datagrams_never_crash(self):
        ep = EndpointDescriptor(Guid(PREFIX, 1), 0, "fuzz/topic", "FuzzType",
                                EndpointType.WRITER, TestRoundTrips.RXO)
        seeds = [
            _encode(wire.Announce(0, 7, (ep,))),
            _encode(wire.Data(1, 2, 3, 4, 5, b"0123456789abcdef"),
                    wire.Heartbeat(1, 1, 3, 2)),
            _encode(wire.AckNack(4, Guid(PREFIX, 1), 10, (10, 13)),
                    wire.Gap(1, 5, 9)),
            _encode(wire.Direct(9, wire.Heartbeat(1, 2, 3, 4))),
        ]
        rng = random.Random(61444)
        decoded = errors = 0
        for _ in range(3000):
            raw = bytearray(rng.choice(seeds))
            for _ in range(rng.randint(1, 6)):
                op = rng.randrange(3)
                if op == 0 and raw:
                    raw[rng.randrange(len(raw))] = rng.randrange(256)
                elif op == 1 and raw:
                    del raw[rng.randrange(len(raw)):]
                else:
                    raw.extend(rng.randbytes(rng.randint(1, 8)))
            try:
                wire.decode_message(bytes(raw))
                decoded += 1
            except wire.WireError:
                errors += 1
        assert decoded + errors == 3000
        assert errors > 0
