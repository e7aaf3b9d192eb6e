"""A write goes out in one pass.

The writer's cache is asked once (``WriterHistory.insert``); a sample it
refuses uses no sequence and sends nothing. The write's DATA is checked
and packed once, by its type codec's ``message``, into the datagram
``wire.pack_data_message`` would pack: the inverse of
``wire.read_data_message``, which ``encode_message`` also uses for a
message of one DATA. A closed participant's writer publishes nothing.
"""

import struct

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.errors import SampleTooLargeError
from minidds.dcps.history import ResourceLimitsError
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.writer import MAX_PAYLOAD
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

MS = 1_000_000
COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
KEYED = idl.parse_idl("struct KV { long id; //@key\n long v; };")[0]
RELIABLE = qos.Reliability(qos.ReliabilityKind.RELIABLE)
PREFIX = bytes(range(1, 13))
U32, U64 = 2**32 - 1, 2**64 - 1
I64_MIN, I64_MAX = -2**63, 2**63 - 1


# ---------------------------------------------------------------------------
# The packer against docs/wire.md, field by field

def _golden(prefix: bytes, data: wire.Data) -> bytes:
    """A message of one DATA as docs/wire.md lays it out, one field at a time."""
    payload = data.payload
    return b"".join([
        b"MDDS", b"\x03\x00", b"\x00\x00", prefix,
        struct.pack("<B", wire.KIND_DATA), b"\x00", struct.pack("<H", 36 + len(payload)),
        struct.pack("<I", data.writer_entity_id), struct.pack("<I", data.reader_entity_id),
        struct.pack("<Q", data.sequence), struct.pack("<q", data.source_timestamp_ns),
        struct.pack("<Q", data.instance_handle), struct.pack("<I", len(payload)),
        payload,
    ])


BOUNDARY = [
    pytest.param(wire.Data(1, 0, 1, 0, 0, b""), id="empty-payload"),
    pytest.param(wire.Data(0, 0, 0, I64_MIN, 0, b"x"), id="zero-fields-min-stamp"),
    pytest.param(wire.Data(U32, U32, U64, I64_MAX, U64, b"\xff" * 7), id="max-fields"),
    pytest.param(wire.Data(U32, 7, U64, I64_MAX, U64, bytes(range(256)) * 255
                           + bytes(MAX_PAYLOAD - 256 * 255)), id="largest-datagram"),
]


@pytest.mark.parametrize("data", BOUNDARY)
def test_the_packer_writes_the_documented_layout(data):
    packed = wire.pack_data_message(PREFIX, *data)
    assert packed == _golden(PREFIX, data)
    assert packed == wire.encode_message(wire.WireMessage(PREFIX, (data,)))
    assert len(packed) == wire.DATA_PAYLOAD_START + len(data.payload)


@pytest.mark.parametrize("data", BOUNDARY)
def test_read_data_message_reads_every_packed_field_back(data):
    packed = wire.pack_data_message(PREFIX, *data)
    assert wire.read_data_message(packed) == (PREFIX, *data[:5])
    assert packed[wire.DATA_PAYLOAD_START:] == data.payload
    assert wire.decode_message(packed) == wire.WireMessage(PREFIX, (data,))


def test_the_largest_payload_fills_the_largest_datagram():
    packed = wire.pack_data_message(PREFIX, 1, 0, 1, 0, 0, bytes(MAX_PAYLOAD))
    assert len(packed) == wire.MAX_DATAGRAM == 65_507


@pytest.mark.parametrize("size, message", [
    (MAX_PAYLOAD + 1, "datagram of 65508 bytes exceeds UDP limit"),
    (0xFFFF - 36, "datagram of 65559 bytes exceeds UDP limit"),
    (0xFFFF - 36 + 1, "submessage body too large"),
])
def test_the_packer_and_the_encoder_refuse_alike(size, message):
    data = wire.Data(1, 0, 1, 0, 0, bytes(size))
    with pytest.raises(ValueError) as packed:
        wire.pack_data_message(PREFIX, *data)
    with pytest.raises(ValueError) as encoded:
        wire.encode_message(wire.WireMessage(PREFIX, (data,)))
    assert str(packed.value) == str(encoded.value) == message


# ---------------------------------------------------------------------------
# Each stage of a write runs once

def record_a_write(monkeypatch, writer):
    """Wrap what packs a DATA (``writer``'s codec's ``message``,
    ``wire.pack_data_message`` and ``wire.encode_message``) and where
    ``writer``'s participant hands a datagram on (``transport.send``, and
    ``_receive`` for its own readers). Returns the two lists they fill:
    (packer name, what it returned) per call, and each datagram handed on."""
    packed, handed = [], []
    for owner, name in ((writer.type._codec, "message"), (wire, "pack_data_message"),
                        (wire, "encode_message")):
        def packing(*args, _original=getattr(owner, name), _name=name):
            result = _original(*args)
            packed.append((_name, result))
            return result
        monkeypatch.setattr(owner, name, packing)
    participant = writer.participant
    send, receive = participant.transport.send, participant._receive

    def sending(data, dest):
        handed.append(data)
        send(data, dest)

    def receiving(batch, *args):
        handed.extend(data for data, _ in batch)
        return receive(batch, *args)

    monkeypatch.setattr(participant.transport, "send", sending)
    monkeypatch.setattr(participant, "_receive", receiving)
    return packed, handed


def assert_one_pass(writer, sequence, packed, handed, destinations):
    """The write of ``sequence`` was packed once, by the codec's
    ``message``, and that one datagram object went to ``destinations``
    places (addresses and this participant's readers) and into the
    writer's cache, when it caches."""
    (packer, message), = packed
    assert packer == "message"
    assert wire.read_data_message(message)[3] == sequence
    assert len(handed) == destinations
    assert all(data is message for data in handed)
    cached = writer.history.by_seq.get(sequence)
    assert cached is None or cached[2] is message


@pytest.mark.parametrize("reliability, cached", [
    (qos.ReliabilityKind.RELIABLE, 1), (qos.ReliabilityKind.BEST_EFFORT, 0)])
def test_a_write_runs_each_stage_once(monkeypatch, reliability, cached):
    """A write checks and packs its DATA once, in the codec's
    ``message``, and takes one sequence; the cache is asked once
    (``insert``, which checks ``has_room`` itself) when the writer
    caches, and not at all when it does not. The first write of an
    instance also checks the sample (``serialize``) before it hashes its
    key, once; a later write of it does neither. Every stage is looked
    up at call time, so a wrapper installed after set-up sees it."""
    from minidds.dcps.history import WriterHistory
    from minidds.rtps.reliability import WriterSession

    endpoint_qos = [qos.Reliability(reliability)]
    pair = _Pair(ManualClock(1_000 * MS), KEYED, endpoint_qos, endpoint_qos)
    calls = []
    for owner, name in ((idl, "serialize"), (idl, "key_hash"), (WriterSession, "on_write"),
                        (pair.writer.type._codec, "message"), (wire, "pack_data_message"),
                        (WriterHistory, "insert"), (WriterHistory, "has_room")):
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    try:
        each_write = ["message", "on_write"] + ["insert", "has_room"] * cached
        assert pair.writer.write({"id": 1, "v": 1}) == 1
        assert sorted(calls) == sorted(["serialize", "key_hash"] + each_write)
        calls.clear()
        assert pair.writer.write({"id": 1, "v": 2}) == 2
        assert sorted(calls) == sorted(each_write)
        assert len(pair.sent) == 2
    finally:
        pair.close()


def test_a_write_hands_one_datagram_to_the_cache_and_the_network(monkeypatch):
    pair = _Pair(ManualClock(1_000 * MS), KEYED, [RELIABLE], [RELIABLE])
    try:
        pair.writer.write({"id": 1, "v": 1})
        packed, handed = record_a_write(monkeypatch, pair.writer)
        sequence = pair.writer.write({"id": 1, "v": 2})
        assert_one_pass(pair.writer, sequence, packed, handed, 1)
        assert pair.writer.history.by_seq[sequence][2] is pair.sent[-1]
    finally:
        pair.close()


@pytest.mark.parametrize("type_, samples, hashes", [
    (KEYED, [{"id": 1, "v": 1}, {"id": 1, "v": 2}, {"id": 2, "v": 3}, {"id": 1, "v": 4}], 2),
    (COUNTER, [{"n": 1}, {"n": 2}], 0)])
def test_a_writer_hashes_each_instance_once(monkeypatch, type_, samples, hashes):
    """A later write of an instance calls no ``idl.key_hash``: the writer
    keeps its handle. A writer of an unkeyed type calls it not at all,
    and each of its DATA carries handle 0."""
    pair = _Pair(ManualClock(1_000 * MS), type_, [RELIABLE], [RELIABLE])
    calls = []
    key_hash = idl.key_hash

    def counting(*args, **kwargs):
        calls.append(args)
        return key_hash(*args, **kwargs)

    monkeypatch.setattr(idl, "key_hash", counting)
    try:
        for sample in samples:
            pair.writer.write(sample)
        assert len(calls) == hashes
        assert [wire.read_data_message(d)[5] for d in pair.sent] == [
            key_hash(type_, idl.make_sample(type_, s)) for s in samples]
    finally:
        pair.close()


# ---------------------------------------------------------------------------
# A refused write uses no sequence and sends nothing

class _TickingClock(ManualClock):
    """Moves on by 1 ms each time monotonic time is read."""

    def monotonic_ns(self) -> int:
        return self.advance(MS)


class _Pair:
    """Participant A's writer matched with a reader on B; B is never spun
    after matching, so it acknowledges nothing. Every DATA A sends is
    recorded."""

    def __init__(self, clock, type_, writer_qos, reader_qos, **config):
        net = InProcNetwork()
        self.a, self.b = (DomainParticipant(0, transport=net.attach(name), clock=clock,
                                            static_peers=(peer,),
                                            announce_period_ns=60_000 * MS, **config)
                          for name, peer in (("A", "B"), ("B", "A")))
        self.writer = self.a.create_datawriter(self.a.create_topic("t", type_), writer_qos)
        self.reader = self.b.create_datareader(self.b.create_topic("t", type_), reader_qos)
        for _ in range(3):
            self.a.spin_once()
            self.b.spin_once()
        assert self.writer.matched_readers() == [self.reader.guid]
        self.sent = []
        send = self.a.transport.send

        def recording(data, dest):
            if wire.read_data_message(data) is not None:
                self.sent.append(data)
            send(data, dest)

        self.a.transport.send = recording

    def state(self):
        return (self.writer.session.last_sequence, self.writer.samples_written,
                len(self.writer.history), len(self.sent))

    def close(self):
        self.a.close()
        self.b.close()


def test_a_keep_all_write_blocked_past_max_blocking_time_uses_nothing():
    pair = _Pair(_TickingClock(1_000 * MS), COUNTER,
                 [RELIABLE, qos.History(qos.HistoryKind.KEEP_ALL),
                  qos.ResourceLimits(max_samples=1, max_samples_per_instance=1)],
                 [RELIABLE, qos.History(qos.HistoryKind.KEEP_ALL)],
                 max_blocking_time_ns=5 * MS)
    try:
        assert pair.writer.write({"n": 1}) == 1
        before = pair.state()
        assert before == (1, 1, 1, 1)
        with pytest.raises(ResourceLimitsError) as refused:
            pair.writer.write({"n": 2})
        assert str(refused.value) == ("write blocked on a full keep-all history "
                                      "past max_blocking_time")
        assert pair.state() == before
        for _ in range(4):  # B acknowledges sample 1, which makes room
            pair.b.spin_once()
            pair.a.spin_once()
        assert not pair.writer.unacknowledged()
        assert pair.writer.write({"n": 3}) == 2
    finally:
        pair.close()


def test_a_keep_last_write_of_a_new_instance_into_a_full_cache_uses_nothing():
    pair = _Pair(ManualClock(1_000 * MS), KEYED,
                 [RELIABLE, qos.History(qos.HistoryKind.KEEP_LAST, 1),
                  qos.ResourceLimits(max_samples=2)],
                 [RELIABLE])
    try:
        assert [pair.writer.write({"id": i, "v": i}) for i in (1, 2)] == [1, 2]
        before = pair.state()
        assert before == (2, 2, 2, 2)
        with pytest.raises(ResourceLimitsError) as refused:
            pair.writer.write({"id": 3, "v": 3})
        assert str(refused.value) == "writer history full (max_samples)"
        assert pair.state() == before
        assert pair.writer.write({"id": 1, "v": 4}) == 3  # replaces instance 1
        assert pair.state() == (3, 3, 2, 3)
    finally:
        pair.close()


# ---------------------------------------------------------------------------
# The largest payload, and a source timestamp that fits no DATA

TEXT = idl.parse_idl("struct Text { string t; };")[0]


def _text(size: int, char: str) -> dict:
    """A Text sample of a ``size`` byte payload: the length prefix, then
    ``char`` repeated and ASCII to fill."""
    width = len(char.encode())
    return {"t": char * ((size - 4) // width) + "x" * ((size - 4) % width)}


@pytest.mark.parametrize("char", ["x", "é"])
def test_the_largest_payload_goes_out_and_one_byte_more_uses_nothing(char):
    pair = _Pair(ManualClock(1_000 * MS), TEXT, [RELIABLE], [RELIABLE])
    try:
        assert pair.writer.write(_text(MAX_PAYLOAD, char)) == 1
        (sent,) = pair.sent
        assert len(sent) == wire.MAX_DATAGRAM
        assert pair.writer.history.by_seq[1][2] is sent
        before = pair.state()
        with pytest.raises(SampleTooLargeError) as refused:
            pair.writer.write(_text(MAX_PAYLOAD + 1, char))
        assert str(refused.value) == (f"{MAX_PAYLOAD + 1} byte payload exceeds "
                                      f"the {MAX_PAYLOAD} byte limit")
        assert pair.state() == before
        assert pair.writer.write({"t": char}) == 2
    finally:
        pair.close()


@pytest.mark.parametrize("stamp, error, message", [
    (I64_MAX + 1, ValueError,
     "source_timestamp_ns 9223372036854775808 is outside the i64 range"),
    (I64_MIN - 1, ValueError,
     "source_timestamp_ns -9223372036854775809 is outside the i64 range"),
    (1.5, TypeError, "source_timestamp_ns must be an int, got float"),
    ("x", TypeError, "source_timestamp_ns must be an int, got str"),
    (True, TypeError, "source_timestamp_ns must be an int, got bool"),
])
def test_a_source_timestamp_that_fits_no_data_uses_nothing(stamp, error, message):
    pair = _Pair(ManualClock(1_000 * MS), COUNTER, [RELIABLE], [RELIABLE])
    try:
        before = pair.state()
        with pytest.raises(error) as refused:
            pair.writer.write({"n": 1}, source_timestamp_ns=stamp)
        assert str(refused.value) == message
        assert pair.state() == before
        for sequence, bound in enumerate((I64_MIN, I64_MAX), 1):
            assert pair.writer.write({"n": 1}, source_timestamp_ns=bound) == sequence
            assert wire.read_data_message(pair.sent[-1])[4] == bound
    finally:
        pair.close()


# ---------------------------------------------------------------------------
# A closed participant publishes nothing

def test_a_closed_participants_writer_publishes_nothing():
    net, clock = InProcNetwork(), ManualClock(1_000 * MS)
    a, b = (DomainParticipant(0, transport=net.attach(name), clock=clock,
                              static_peers=(peer,))
            for name, peer in (("A", "B"), ("B", "A")))
    try:
        writer = a.create_datawriter(a.create_topic("t", COUNTER))
        local = a.create_datareader(a.create_topic("t", COUNTER))
        remote = b.create_datareader(b.create_topic("t", COUNTER))
        for _ in range(3):
            a.spin_once()
            b.spin_once()
        assert writer.write({"n": 1}) == 1
        b.spin_once()
        assert [s.values for s, _ in remote.take()] == [(1,)]
        a.close()
        with pytest.raises(RuntimeError, match="writer is closed"):
            writer.write({"n": 2})
        assert writer.closed and local.closed
        b.spin_once()
        assert remote.take() == []
        assert [s.values for s, _ in local.take()] == [(1,)]
    finally:
        a.close()
        b.close()
