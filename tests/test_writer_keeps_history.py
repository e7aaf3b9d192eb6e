"""Which writes go into the writer cache.

A written sample is cached only while it can be sent again: the writer
is TRANSIENT_LOCAL (a late joiner may ask for it) or a matched reader is
RELIABLE (it may NACK it). Otherwise the sample is never inserted at
all. The rule is tracked as readers match and unmatch.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.history import WriterHistory
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

MS = 1_000_000
COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = qos.Reliability(qos.ReliabilityKind.RELIABLE)
BEST_EFFORT = qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)
KEEP_ALL = qos.History(qos.HistoryKind.KEEP_ALL)
DURABLE = qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)


def _spin(*participants, rounds=1):
    for _ in range(rounds):
        for participant in participants:
            participant.spin_once()


def _values(reader):
    return [sample.values[0] for sample, _ in reader.take()]


@pytest.fixture
def parts():
    """Participants A (the writer's), B and C on one in-process network."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    made = [DomainParticipant(0, transport=net.attach(name), clock=clock,
                              static_peers=tuple(n for n in "ABC" if n != name))
            for name in "ABC"]
    yield net, clock, made
    for participant in made:
        participant.close()


@pytest.fixture
def inserts(monkeypatch):
    """Every sequence inserted into any writer cache."""
    seen = []
    original = WriterHistory.insert

    def recording(self, sample):
        seen.append(sample[0])  # its sequence
        return original(self, sample)

    monkeypatch.setattr(WriterHistory, "insert", recording)
    return seen


def _endpoint(participant, kind, policies):
    topic = participant.create_topic("t", COUNTER)
    if kind == "writer":
        return participant.create_datawriter(topic, policies)
    return participant.create_datareader(topic, policies)


@pytest.mark.parametrize("history", [qos.History(qos.HistoryKind.KEEP_LAST, 4), KEEP_ALL])
def test_a_best_effort_volatile_writer_caches_nothing(parts, inserts, history):
    _, _, (a, b, _) = parts
    writer = _endpoint(a, "writer", [BEST_EFFORT, history])
    reader = _endpoint(b, "reader", [BEST_EFFORT, KEEP_ALL])
    _spin(a, b, a)
    for n in range(1, 9):
        writer.write({"n": n})
        assert len(writer.history) == 0
    _spin(b)
    assert _values(reader) == list(range(1, 9))
    assert inserts == []


def test_a_reliable_reader_matched_mid_stream_turns_the_cache_on_and_off(parts, inserts):
    net, clock, (a, b, c) = parts
    writer = _endpoint(a, "writer", [RELIABLE, KEEP_ALL])
    _endpoint(b, "reader", [BEST_EFFORT, KEEP_ALL])
    _spin(a, b, a)
    for n in (1, 2, 3):
        writer.write({"n": n})
    assert inserts == [] and len(writer.history) == 0

    reliable = _endpoint(c, "reader", [RELIABLE, KEEP_ALL])
    _spin(c, a)
    assert len(writer.matched_readers()) == 2
    # A drop plan: the first copy of DATA 5 and 7 to C is lost.
    route = net.route
    dropped = set()

    def lossy(data, source, dest):
        if dest == "C":
            for sub in wire.decode_message(data).submessages:
                if (isinstance(sub, wire.Data) and sub.sequence in (5, 7)
                        and sub.sequence not in dropped):
                    dropped.add(sub.sequence)
                    return
        route(data, source, dest)

    net.route = lossy
    for n in range(4, 9):
        writer.write({"n": n})
    assert inserts == [4, 5, 6, 7, 8]
    assert len(writer.history) == 5 and writer.unacknowledged()
    for _ in range(4):  # heartbeat, NACK, repair, ack
        clock.advance(60 * MS)
        _spin(a, c)
    assert dropped == {5, 7}
    assert not writer.unacknowledged() and len(writer.history) == 0
    assert sorted(_values(reliable)) == [4, 5, 6, 7, 8]

    # Unacknowledged samples stay cached until the reliable reader's
    # unmatch releases them, and later writes are not cached.
    reliable.close()
    for n in (9, 10):
        writer.write({"n": n})
    assert len(writer.history) == 2
    for _ in range(3):  # gone from three of C's announces
        clock.advance(1_000 * MS)
        _spin(b, c, a)
    assert len(writer.matched_readers()) == 1
    assert len(writer.history) == 0
    del inserts[:]
    writer.write({"n": 11})
    assert inserts == [] and len(writer.history) == 0


def test_a_transient_local_writer_caches_and_replays_to_a_late_joiner(parts, inserts):
    _, _, (a, b, c) = parts
    writer = _endpoint(a, "writer", [RELIABLE, DURABLE, qos.History(qos.HistoryKind.KEEP_LAST, 3)])
    writer.write({"n": 1})  # no reader yet
    assert len(writer.history) == 1
    _endpoint(b, "reader", [BEST_EFFORT])
    _spin(a, b, a)
    for n in range(2, 6):
        writer.write({"n": n})
    assert inserts == [1, 2, 3, 4, 5]
    assert sorted(writer.history.by_seq) == [3, 4, 5]
    late = _endpoint(c, "reader", [RELIABLE, DURABLE, KEEP_ALL])
    _spin(c, a, c)
    assert _values(late) == [3, 4, 5]


@pytest.mark.parametrize("reliability", [BEST_EFFORT, RELIABLE])
def test_a_keep_all_writer_with_max_samples_and_best_effort_readers_never_blocks(
        parts, reliability):
    _, _, (a, b, _) = parts
    limits = qos.ResourceLimits(max_samples=2, max_samples_per_instance=2)
    writer = _endpoint(a, "writer", [reliability, KEEP_ALL, limits])
    reader = _endpoint(b, "reader", [BEST_EFFORT, KEEP_ALL])
    _spin(a, b, a)
    for n in range(1, 11):
        writer.write({"n": n})  # would raise or block if the cache filled
    assert len(writer.history) == 0
    _spin(b)
    assert _values(reader) == list(range(1, 11))


def test_an_acknack_past_the_last_write_leaves_later_writes_owed(parts):
    """A reader that acknowledges sequences not yet written acknowledges
    only those written: the next write stays cached and unacknowledged,
    so a heartbeat gets it repaired."""
    net, clock, (a, b, _) = parts
    writer = _endpoint(a, "writer", [RELIABLE, KEEP_ALL])
    reader = _endpoint(b, "reader", [RELIABLE, KEEP_ALL])
    _spin(a, b, a)
    for n in (1, 2):
        writer.write({"n": n})
    _spin(b)
    assert _values(reader) == [1, 2]
    ahead = wire.AckNack(reader.guid.entity_id, writer.guid, 100, ())
    net.attach("rogue").send(
        wire.encode_message(wire.WireMessage(reader.guid.prefix, (ahead,))), "A")
    _spin(a)
    assert len(writer.history) == 0
    writer.write({"n": 3})
    b.transport.drain()  # the DATA is lost on its way to B
    assert len(writer.history) == 1 and writer.unacknowledged()
    clock.advance(50 * MS)
    _spin(a, b, a, b)
    assert _values(reader) == [3]
    clock.advance(50 * MS)
    _spin(a, b, a)  # the next heartbeat draws the acknowledgement of 3
    assert not writer.unacknowledged() and len(writer.history) == 0
