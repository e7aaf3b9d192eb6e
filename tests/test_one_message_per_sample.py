"""Each reliable sample's bytes are held once: the writer packs the
one-DATA message of a write once, caches it and sends that same object,
and a reader's payload slot holds the received message, decoded in place
at ``wire.DATA_PAYLOAD_START``. Over ``InProcNetwork`` the writer's
cache, the queue and a reader's held slot are one object.

Every slot is a one-DATA message: a send to this participant's own
readers hands over the write's message, and a DATA that did not come as
one (a late-joiner replay to a local reader, a datagram of several
submessages) is packed into one. Each is still decoded once per reader
type, and a malformed payload still counts on every reader.
"""

import tracemalloc

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant, Topic
from minidds.rtps import wire
from minidds.rtps.reliability import HEARTBEAT_PERIOD_NS
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
UNSIGNED = idl.parse_idl("struct Counter { unsigned long n; };")[0]
BLOB = idl.parse_idl("struct Blob { string s; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]
DURABLE = RELIABLE + [qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)]


def _spin(*participants):
    for participant in participants:
        participant.spin_once()


def _values(reader):
    return [sample.values for sample, _ in reader.take()]


@pytest.fixture
def net():
    return InProcNetwork()


@pytest.fixture
def pair(net):
    """Participants A (static peer B) and B on one ``ManualClock``."""
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    yield a, b, clock
    a.close()
    b.close()


@pytest.fixture
def decoded(monkeypatch):
    """Each ``idl.deserialize`` call: (descriptor, data, start)."""
    calls = []
    deserialize = idl.deserialize

    def recording(descriptor, data, start=0):
        calls.append((descriptor, data, start))
        return deserialize(descriptor, data, start)

    monkeypatch.setattr(idl, "deserialize", recording)
    return calls


def _blobs(a, b):
    writer = a.create_datawriter(a.create_topic("blob", BLOB), RELIABLE)
    reader = b.create_datareader(b.create_topic("blob", BLOB), RELIABLE)
    _spin(a, b, a, b)
    assert reader.matched_writers() == [writer.guid] and not b.transport._queue
    return writer, reader


def _write_burst(writer):
    for i in range(200):
        writer.write({"s": chr(65 + i % 26) * 20_000})


# ---------------------------------------------------------------------------
# Memory

def test_a_written_burst_is_held_once(pair):
    """200 reliable writes of 20 kB: the cache and B's queue share each
    message, so what the writes leave behind is about the queued bytes
    (twice them when the cache keeps a payload of its own)."""
    a, b, _ = pair
    writer, _ = _blobs(a, b)
    tracemalloc.start()
    try:
        _write_burst(writer)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    queue = b.transport._queue
    queued = sum(len(data) for data, _ in queue)
    assert queued > 200 * 20_000
    assert held < 1.2 * queued
    cached = writer.history.by_seq
    assert all(cached[seq].message is data for seq, (data, _) in zip(cached, queue))


def test_what_waits_behind_a_hole_adds_no_copy(pair):
    """The first DATA of the burst is lost: B holds the other 199 behind
    the hole, in the messages the writer caches, until the repair."""
    a, b, clock = pair
    writer, reader = _blobs(a, b)
    _write_burst(writer)
    queue = b.transport._queue
    queue.popleft()
    queued = sum(len(data) for data, _ in queue)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _spin(b)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    session = reader._sessions[writer.guid]
    assert len(session.held) == 199 and reader.take() == []
    assert after - before < 0.05 * queued
    cached = writer.history.by_seq
    assert all(slots[i] is cached[info.sequence].message
               for info, slots, i in session.held.values())
    clock.advance(HEARTBEAT_PERIOD_NS)
    _spin(a, b, a, b)  # HEARTBEAT, ACKNACK, the repair
    assert [s.values[0][0] for s, _ in reader.take()] == [
        chr(65 + i % 26) for i in range(200)]


# ---------------------------------------------------------------------------
# The packed paths

def test_a_same_participant_reader_decodes_the_writers_message(pair, decoded):
    a, _, _ = pair
    topic = a.create_topic("t", COUNTER)
    readers = [a.create_datareader(topic, RELIABLE),
               a.create_datareader(Topic("t", UNSIGNED, topic.qos), RELIABLE)]
    writer = a.create_datawriter(topic, RELIABLE)
    sequence = writer.write({"n": -1})
    message = writer.history.by_seq[sequence].message
    assert decoded == [(COUNTER, message, wire.DATA_PAYLOAD_START),
                       (UNSIGNED, message, wire.DATA_PAYLOAD_START)]
    assert [_values(r) for r in readers] == [[(-1,)], [(2**32 - 1,)]]


def test_a_best_effort_writer_sends_its_message_to_a_local_reader(pair, decoded):
    """A writer that caches nothing still hands its readers the one
    message it packed."""
    a, _, _ = pair
    topic = a.create_topic("t", COUNTER)
    reader = a.create_datareader(topic)
    writer = a.create_datawriter(topic)
    writer.write({"n": 5})
    assert not writer.session.keeps_history and len(writer.history) == 0
    ((descriptor, message, start),) = decoded
    assert (descriptor, start) == (COUNTER, wire.DATA_PAYLOAD_START)
    assert wire.decode_message(message).submessages[0].sequence == 1
    assert _values(reader) == [(5,)]


@pytest.mark.parametrize("where", ["local", "remote"])
def test_a_late_joiner_is_replayed_from_the_cached_messages(pair, decoded, where):
    a, b, _ = pair
    writer = a.create_datawriter(a.create_topic("t", COUNTER), DURABLE)
    for n in (10, 20, 30):
        writer.write({"n": n})
    joiner = a if where == "local" else b
    topic = joiner.create_topic("t", COUNTER)
    readers = [joiner.create_datareader(topic, DURABLE),
               joiner.create_datareader(Topic("t", UNSIGNED, topic.qos), DURABLE)]
    _spin(a, b, a, b)
    assert [_values(r) for r in readers] == [[(10,), (20,), (30,)]] * 2
    # Each reader is replayed the DATA addressed to it, and decodes each once.
    assert [d for d, _, _ in decoded] == [COUNTER] * 3 + [UNSIGNED] * 3
    cached = writer.history.by_seq
    for (_, data, start), seq in zip(decoded, (1, 2, 3) * 2):
        # A new message, with the cached one's payload.
        assert start == wire.DATA_PAYLOAD_START
        assert data[start:] == cached[seq].message[start:]
        assert wire.read_data_message(data)[2] != 0


def test_a_datagram_of_several_data_is_decoded_once_per_type(pair, net, decoded):
    a, b, _ = pair
    writer = a.create_datawriter(a.create_topic("t", COUNTER), RELIABLE)
    topic = b.create_topic("t", COUNTER)
    readers = [b.create_datareader(topic, RELIABLE), b.create_datareader(topic, RELIABLE),
               b.create_datareader(Topic("t", UNSIGNED, topic.qos), RELIABLE)]
    _spin(a, b, a)
    assert all(r.matched_writers() == [writer.guid] for r in readers)
    good = idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": 7}))
    eid = writer.guid.entity_id
    net.attach("rogue").send(wire.encode_message(wire.WireMessage(writer.guid.prefix, (
        wire.Data(eid, 0, 1, 0, 0, good), wire.Data(eid, 0, 2, 0, 0, b"\x01")))), "B")
    _spin(b)
    assert [d for d, _, _ in decoded] == [COUNTER, UNSIGNED, COUNTER, UNSIGNED]
    for _, data, start in decoded:
        assert start == wire.DATA_PAYLOAD_START and wire.read_data_message(data) is not None
    assert [_values(r) for r in readers] == [[(7,)], [(7,)], [(7,)]]
    assert [r.statistics().malformed_payloads for r in readers] == [1, 1, 1]
