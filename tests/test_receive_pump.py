"""The participant's receive pump: matched readers are served in reader
creation order and no other reader is visited, a listener may add a
reader mid-dispatch, closed readers and departed writers get no further
delivery and leave no trace in the match table, an ACKNACK the encoder
refuses is dropped like any other submessage, one spin never holds
a received burst both as datagrams and as cached samples, each drained
datagram is decoded once (a malformed one is counted and delivers
nothing), and every datagram of one drained batch carries the arrival
stamp read at the drain."""

import logging
import tracemalloc

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.guid import Guid
from minidds.dcps.matching import EndpointDescriptor, EndpointType
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.reader import DataReader
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

MS = 1_000_000
COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]
BEST_EFFORT = [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT),
               qos.History(qos.HistoryKind.KEEP_ALL)]


def _payload(n):
    return idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": n}))


def _spin(*participants, rounds=1):
    for _ in range(rounds):
        for participant in participants:
            participant.spin_once()


@pytest.fixture
def pair():
    """Participants A (static peer B) and B, and a rogue address that can
    send B datagrams under any sender prefix."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    yield a, b, net.attach("rogue"), clock
    a.close()
    b.close()


def _send(rogue, prefix, *subs):
    rogue.send(wire.encode_message(wire.WireMessage(prefix, subs)), "B")


def _matched(a, b):
    """A reliable writer on A and a matched reliable reader on B."""
    writer = a.create_datawriter(a.create_topic("t", COUNTER), RELIABLE)
    reader = b.create_datareader(b.create_topic("t", COUNTER), RELIABLE)
    _spin(a, b, a)
    assert reader.matched_writers() == [writer.guid]
    return writer, reader


def _no_delivery_from(writer, reader, b, rogue):
    _send(rogue, writer.guid.prefix,
          wire.Data(writer.guid.entity_id, 0, 99, 0, 0, _payload(1)))
    _spin(b)
    return reader.take() == [] and reader.statistics().samples_received == 0


def test_a_closed_reader_gets_no_delivery(pair):
    a, b, rogue, _ = pair
    writer, reader = _matched(a, b)
    reader.close()
    assert _no_delivery_from(writer, reader, b, rogue)


def test_a_closed_reader_lists_no_match_and_keeps_its_counts(pair):
    a, b, _, _ = pair
    writer, reader = _matched(a, b)
    writer.write({"n": 1})
    _spin(b)
    reader.close()
    assert reader.matched_writers() == [] and reader.matches() == []
    assert reader._sessions == {}
    assert reader.statistics().sequences_seen == 1


def test_a_closed_writer_lists_no_match_and_keeps_no_cache(pair):
    a, b, _, _ = pair
    writer, _ = _matched(a, b)
    writer.write({"n": 1})  # unacknowledged, so cached
    writer.close()
    assert writer.matched_readers() == [] and writer.matches() == []
    assert not writer.unacknowledged() and len(writer.history) == 0


def test_a_writer_gone_from_announces_delivers_no_more(pair):
    a, b, rogue, clock = pair
    writer, reader = _matched(a, b)
    writer.close()
    for _ in range(4):
        clock.advance(1_000 * MS)
        _spin(a, b)
    assert reader.matched_writers() == []
    assert _no_delivery_from(writer, reader, b, rogue)


def test_a_silent_peer_delivers_no_more(pair):
    a, b, rogue, clock = pair
    writer, reader = _matched(a, b)
    _spin(b)
    clock.advance(3_100 * MS)
    _spin(b)  # A never spins in this window
    assert reader.matched_writers() == []
    assert _no_delivery_from(writer, reader, b, rogue)


def test_a_listener_may_create_a_reader_mid_dispatch(pair):
    """Dispatch walks an immutable entry of the match table, so a reader
    created by a listener neither breaks the walk nor sees the DATA that
    made it."""
    a, b, _, _ = pair
    writer, reader = _matched(a, b)
    topic = b.create_topic("t", COUNTER)
    created = []
    reader.listener = lambda _r: created.append(b.create_datareader(topic, RELIABLE))
    writer.write({"n": 7})
    _spin(b)
    assert [s.values for s, _ in reader.take()] == [(7,)]
    assert len(created) == 1 and created[0].take() == []


def test_matched_readers_are_served_in_creation_order(pair, monkeypatch):
    """The first reader asks for TRANSIENT_LOCAL, which the remote writer
    offers only in its second announce, so it matches after the second
    reader; both are still served in the order they were created."""
    _, b, rogue, _ = pair
    topic = b.create_topic("t", COUNTER)
    first = b.create_datareader(
        topic, RELIABLE + [qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)])
    second = b.create_datareader(topic, RELIABLE)
    prefix = b"\x09" * 12
    writer_guid = Guid(prefix, 1)
    for version, durability in enumerate(
            (qos.DurabilityKind.VOLATILE, qos.DurabilityKind.TRANSIENT_LOCAL), 1):
        rxo = qos.RxoQos(reliability=qos.ReliabilityKind.RELIABLE, durability=durability)
        descriptor = EndpointDescriptor(writer_guid, 0, "t", COUNTER.name,
                                        EndpointType.WRITER, rxo)
        _send(rogue, prefix, wire.Announce(0, version, (descriptor,)))
        _spin(b)
        if durability == qos.DurabilityKind.VOLATILE:
            assert [r.matched_writers() for r in (first, second)] == [[], [writer_guid]]

    notified = []
    for reader in (first, second):
        reader.listener = notified.append
    _send(rogue, prefix, wire.Data(1, 0, 1, 0, 0, _payload(3)))
    _spin(b)
    assert notified == [first, second]

    acked = []
    monkeypatch.setattr(b.transport, "send", lambda data, _dest: acked.extend(
        sub.reader_entity_id for sub in wire.decode_message(data).submessages
        if isinstance(sub, wire.AckNack)))
    _send(rogue, prefix, wire.Heartbeat(1, 1, 1, 1))
    _spin(b)
    assert acked == [first.guid.entity_id, second.guid.entity_id]


def test_one_spin_holds_a_burst_once(pair):
    """200 samples of 20 kB are written and wait in B's queue, and one
    spin caches them. From before the writes to the end of the spin the
    payloads are held once, in the messages that the writer's cache, B's
    queue and the reader's slots share, besides the decoded samples.
    Each character is two bytes of UTF-8 and one in the decoded ``str``,
    so the samples take half the burst, and any second copy of the
    payloads (in the cache, or sliced out on receipt) shows: the peak
    reads 2.0 bursts with one, 1.54 without."""
    a, b, _, _ = pair
    blob = idl.parse_idl("struct Blob { string s; };")[0]
    writer = a.create_datawriter(a.create_topic("blob", blob), RELIABLE)
    reader = b.create_datareader(b.create_topic("blob", blob), RELIABLE)
    _spin(a, b, a)
    assert reader.matched_writers() == [writer.guid]
    tracemalloc.start()
    try:
        for i in range(200):
            writer.write({"s": chr(0xC0 + i % 26) * 10_000})
        burst = sum(len(data) for data, _ in b.transport._queue)
        _spin(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert burst > 200 * 20_000
    assert len(reader.take()) == 200
    assert peak / burst < 1.75


def _acknacks_sent(participant, monkeypatch):
    """The reader entity ids of every ACKNACK the participant sends."""
    acked = []
    send = participant.transport.send

    def recording(data, dest):
        acked.extend(sub.reader_entity_id for sub in wire.decode_message(data).submessages
                     if isinstance(sub, wire.AckNack))
        send(data, dest)

    monkeypatch.setattr(participant.transport, "send", recording)
    return acked


def test_a_data_visits_only_its_matched_readers(pair, monkeypatch):
    a, b, _, _ = pair
    writer, reader = _matched(a, b)
    second = b.create_datareader(b.create_topic("t", COUNTER), RELIABLE)
    for i in range(256):
        b.create_datareader(b.create_topic(f"other{i}", COUNTER), RELIABLE)
    visited = []
    handle_data = DataReader._handle_data
    monkeypatch.setattr(DataReader, "_handle_data", lambda self, *args: (
        visited.append(self), handle_data(self, *args)))
    writer.write({"n": 1})
    _spin(b)
    assert visited == [reader, second]
    assert [len(r.take()) for r in (reader, second)] == [1, 1]


def test_a_best_effort_reader_ignores_heartbeat_gap_and_direct(pair, monkeypatch):
    a, b, rogue, _ = pair
    writer = a.create_datawriter(a.create_topic("t", COUNTER), RELIABLE)
    reader = b.create_datareader(b.create_topic("t", COUNTER), BEST_EFFORT)
    _spin(a, b, a)
    assert reader.matched_writers() == [writer.guid]
    acked = _acknacks_sent(b, monkeypatch)
    before = reader.statistics()
    eid, target = writer.guid.entity_id, reader.guid.entity_id
    _send(rogue, writer.guid.prefix,
          wire.Heartbeat(eid, 5, 9, 1), wire.Gap(eid, 1, 4),
          wire.Direct(target, wire.Heartbeat(eid, 5, 9, 2)),
          wire.Direct(target, wire.Gap(eid, 1, 9)))
    _spin(b)
    assert acked == []
    assert reader.statistics() == before


def test_an_addressed_submessage_for_an_unmatched_reader_is_dropped(pair, monkeypatch):
    a, b, rogue, _ = pair
    writer, reader = _matched(a, b)
    other = b.create_datareader(b.create_topic("u", COUNTER), RELIABLE)
    acked = _acknacks_sent(b, monkeypatch)
    eid = writer.guid.entity_id
    for target in (other.guid.entity_id, 999):
        _send(rogue, writer.guid.prefix,
              wire.Data(eid, target, 1, 0, 0, _payload(1)),
              wire.Direct(target, wire.Heartbeat(eid, 1, 1, target)))
    _spin(b)
    assert acked == []
    assert [r.statistics().samples_received for r in (reader, other)] == [0, 0]
    _send(rogue, writer.guid.prefix,
          wire.Data(eid, reader.guid.entity_id, 1, 0, 0, _payload(1)))
    _spin(b)
    assert [s.values for s, _ in reader.take()] == [(1,)]


def test_the_match_table_forgets_departed_endpoints(pair):
    a, b, _, clock = pair
    writer, reader = _matched(a, b)
    topic = b.create_topic("t", COUNTER)
    for _ in range(50):  # churn
        b.create_datareader(topic, RELIABLE).close()
    assert list(b._matched) == [writer.guid]
    assert [r for r, _ in b._matched[writer.guid]] == [reader]
    reader.close()
    assert b._matched == {}

    readers = [b.create_datareader(topic, RELIABLE) for _ in range(3)]
    assert [r for r, _ in b._matched[writer.guid]] == readers
    _spin(b)
    clock.advance(3_100 * MS)
    _spin(b)  # A never spins in this window, so it times out
    assert [r.matched_writers() for r in readers] == [[], [], []]
    assert b._matched == {}


def test_an_acknack_the_encoder_refuses_is_logged_and_dropped(pair, monkeypatch, caplog):
    a, b, rogue, _ = pair
    writer, reader = _matched(a, b)
    session = reader._sessions[writer.guid]
    refused = wire.AckNack(reader.guid.entity_id, writer.guid, 1, (1, 1 + wire.ACKNACK_MAX_BITS))
    monkeypatch.setattr(session, "on_heartbeat", lambda _hb: refused)
    eid = writer.guid.entity_id
    _send(rogue, writer.guid.prefix, wire.Heartbeat(eid, 1, 1, 1),
          wire.Data(eid, 0, 1, 0, 0, _payload(4)))
    with caplog.at_level(logging.WARNING, logger="minidds.dcps.participant"):
        b.spin_once()  # returns: the refused ACKNACK does not escape it
    assert "submessage not sent" in caplog.text
    assert [s.values for s, _ in reader.take()] == [(4,)]


def test_a_local_reliable_reader_exchanges_heartbeat_and_acknack_on_the_wire(
        pair, monkeypatch):
    """A RELIABLE reader on the writer's own participant is sent the
    HEARTBEAT, and answers the ACKNACK, through the encoder and the
    decoder, as a reader on another participant is."""
    _, b, _, clock = pair
    topic = b.create_topic("t", COUNTER)
    reader = b.create_datareader(topic, RELIABLE)
    writer = b.create_datawriter(topic, RELIABLE)
    writer.write({"n": 1})
    b.spin_once()  # the first HEARTBEAT and ACKNACK, and the announce
    assert _values(reader) == [(1,)] and not writer.unacknowledged()
    writer.write({"n": 2})
    encoded, decoded = [], []
    encode, decode = wire.encode_message, wire.decode_message

    def encoding(message):
        encoded.extend(message.submessages)
        return encode(message)

    def decoding(data):
        message = decode(data)
        decoded.extend(message.submessages)
        return message

    monkeypatch.setattr(wire, "encode_message", encoding)
    monkeypatch.setattr(wire, "decode_message", decoding)
    clock.advance(b.heartbeat_period_ns)
    b.spin_once()
    kinds = [type(sub) for sub in encoded]
    assert kinds == [wire.Direct, wire.AckNack]
    assert [type(sub) for sub in decoded] == kinds
    assert type(decoded[0].inner) is wire.Heartbeat
    assert decoded[0].reader_entity_id == reader.guid.entity_id
    assert decoded[1].writer_guid == writer.guid
    assert not writer.unacknowledged()
    assert _values(reader) == [(2,)]


def _reader(b, policies, topic=None):
    return b.create_datareader(topic or b.create_topic("t", COUNTER), RELIABLE + policies)


def _values(reader):
    return [sample.values for sample, _ in reader.take()]


def test_readers_of_one_participant_share_one_info_and_sample(pair):
    a, b, _, _ = pair
    writer, first = _matched(a, b)
    second = _reader(b, [])
    _spin(a, b, a)
    writer.write({"n": 5})
    _spin(b)
    (sample, info), = first.take()
    (other_sample, other_info), = second.take()
    assert sample.values == (5,) and info.sequence == 1
    assert other_sample is sample and other_info is info


def test_a_topic_asked_for_with_another_type_shares_the_decoded_sample(pair):
    """``create_topic`` hands back the registered topic, so a reader made on
    it is of that topic's type and shares the sample decoded once."""
    a, b, _, _ = pair
    writer, first = _matched(a, b)
    unsigned_type = idl.parse_idl("struct Counter { unsigned long n; };")[0]
    second = _reader(b, [], b.create_topic("t", unsigned_type))
    _spin(a, b, a)
    writer.write({"n": -1})
    _spin(b)
    (sample, info), = first.take()
    (other_sample, other_info), = second.take()
    assert sample.values == (-1,)
    assert other_sample is sample and other_info is info


def test_source_order_is_kept_per_reader(pair):
    """The early reader has seen a newer sample and drops the older one;
    the late reader, served after it, still takes it. The late reader,
    matched mid-stream, holds its first DATA until the writer's first
    HEARTBEAT to it, which goes out on the writer's next spin."""
    a, b, _, _ = pair
    by_source = [qos.DestinationOrder(qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)]
    writer = a.create_datawriter(a.create_topic("t", COUNTER), RELIABLE + by_source)
    early = _reader(b, by_source)
    _spin(a, b, a)
    writer.write({"n": 1}, source_timestamp_ns=200)
    _spin(b)
    late = _reader(b, by_source)
    _spin(a, b, a)
    writer.write({"n": 2}, source_timestamp_ns=100)
    _spin(b)
    assert late.take() == []
    _spin(a, b)
    assert _values(early) == [(1,)]
    assert _values(late) == [(2,)]
    assert (early.stats.destination_order_dropped, late.stats.destination_order_dropped) == (1, 0)


def test_the_time_filter_is_kept_per_reader(pair):
    a, b, _, clock = pair
    writer = a.create_datawriter(a.create_topic("t", COUNTER), RELIABLE)
    filtered = _reader(b, [qos.TimeBasedFilter(10 * MS)])
    plain = _reader(b, [])
    _spin(a, b, a)
    for n in (1, 2):
        writer.write({"n": n})
        _spin(b)
        clock.advance(MS)
    assert _values(filtered) == [(1,)]
    assert _values(plain) == [(1,), (2,)]
    assert (filtered.stats.time_filter_dropped, plain.stats.time_filter_dropped) == (1, 0)


def test_ownership_is_kept_per_reader(pair):
    """The first reader has seen the strong writer and drops the weak
    one's sample; the second, matched after, has not and takes it."""
    a, b, _, _ = pair
    exclusive = [qos.Ownership(qos.OwnershipKind.EXCLUSIVE)]
    topic = a.create_topic("t", COUNTER)
    strong = a.create_datawriter(topic, RELIABLE + exclusive + [qos.OwnershipStrength(10)])
    weak = a.create_datawriter(topic, RELIABLE + exclusive + [qos.OwnershipStrength(5)])
    first = _reader(b, exclusive)
    _spin(a, b, a)
    strong.write({"n": 1})
    _spin(b)
    second = _reader(b, exclusive)
    _spin(a, b, a)
    assert len(second.matched_writers()) == 2
    weak.write({"n": 2})
    _spin(b)
    assert _values(first) == [(1,)]
    assert _values(second) == [(2,)]
    assert (first.stats.ownership_filtered, second.stats.ownership_filtered) == (1, 0)


def _one_data(writer, n):
    return wire.encode_message(wire.WireMessage(writer.guid.prefix, (
        wire.Data(writer.guid.entity_id, 0, n, 0, 0, _payload(n)),)))


@pytest.mark.parametrize("mangle", [
    lambda raw: raw[:56] + (len(raw) - 59).to_bytes(4, "little") + raw[60:],  # payload length
    lambda raw: raw[:4] + b"\x01" + raw[5:],  # version
    lambda raw: b"X" + raw[1:],  # magic
], ids=["payload-length", "version", "magic"])
def test_a_malformed_one_data_datagram_is_counted_and_delivers_nothing(pair, mangle):
    a, b, rogue, _ = pair
    writer, reader = _matched(a, b)
    rogue.send(mangle(_one_data(writer, 1)), "B")
    _spin(b)
    assert b.malformed_datagrams == 1
    assert reader.take() == [] and reader.statistics().samples_received == 0
    rogue.send(_one_data(writer, 2), "B")
    _spin(b)  # 2 waits behind 1, which never arrived
    assert reader.take() == [] and reader.statistics().samples_received == 0
    rogue.send(_one_data(writer, 1), "B")
    _spin(b)
    assert b.malformed_datagrams == 1
    assert _values(reader) == [(1,), (2,)]


def test_each_drained_datagram_is_decoded_once(pair, monkeypatch):
    a, b, rogue, _ = pair
    writer, reader = _matched(a, b)
    local = b.create_datawriter(b.create_topic("t", COUNTER), RELIABLE)
    _spin(b)  # B's queue is empty
    # A message of one DATA is read by read_data_message and never reaches
    # decode_message; any other datagram is decoded by decode_message.
    calls = []
    read, decode = wire.read_data_message, wire.decode_message

    def reading(data):
        head = read(data)
        if head is not None:
            calls.append(data)
        return head

    monkeypatch.setattr(wire, "read_data_message", reading)
    monkeypatch.setattr(wire, "decode_message", lambda data: (
        calls.append(data), decode(data))[1])
    for n in range(5):
        writer.write({"n": n})
    rogue.send(b"MDDS", "B")  # malformed: decoded once, then counted
    # To a reader on B itself, received as a batch of one: its message is
    # read once, at the write, and never decoded.
    sequence = local.write({"n": 9})
    _, _, message, _, _ = local.history.by_seq[sequence]
    assert calls == [message]
    calls.clear()
    queued = [data for data, _ in b.transport._queue]
    assert b.spin_once() == 6
    assert calls[:6] == queued
    # Then the local writer's HEARTBEAT to the reader on B and its ACKNACK,
    # each decoded once, as a peer's are.
    assert [type(decode(data).submessages[0]) for data in calls[6:]] == [
        wire.Direct, wire.AckNack]
    assert len(reader.take()) == 6 and b.malformed_datagrams == 1


def test_a_drained_batch_carries_one_arrival_stamp(pair, monkeypatch):
    """The clock is read once per drain: a clock that moves while the
    batch is dispatched (here, at each payload decode) moves no sample's
    arrival stamp. The listener is called once, after the whole batch."""
    a, b, _, clock = pair
    writer, reader = _matched(a, b)
    _spin(b)  # B's queue is empty
    for n in range(3):
        writer.write({"n": n})
    deserialize = idl.deserialize
    monkeypatch.setattr(idl, "deserialize", lambda *args: (
        clock.advance(MS), deserialize(*args))[1])
    called_at = []
    reader.listener = lambda _r: called_at.append(clock.monotonic_ns())
    drained = clock.monotonic_ns()
    assert b.spin_once() == 3
    assert [info.arrival_timestamp_ns for _, info in reader.take()] == [drained] * 3
    assert called_at == [drained + 3 * MS]
