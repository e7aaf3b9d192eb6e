"""Endpoints are paired only within a topic.

A participant hands a pair to ``match_endpoints`` only when both
endpoints name the same topic, or when they are matched now: a remote
endpoint re-announced on another topic must still be unmatched from the
readers of its old one. Every case runs on ``InProcNetwork`` and a
``ManualClock``, and counts calls instead of timing them.
"""

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps import participant as participant_module
from minidds.dcps.guid import Guid
from minidds.dcps.matching import EndpointDescriptor, EndpointType, RxoQos
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.reader import DataReader
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
BEST_EFFORT = [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)]


def _spin(participants, rounds):
    for _ in range(rounds):
        for participant in participants:
            participant.spin_once()


def test_discovery_considers_a_pair_only_within_a_topic(monkeypatch):
    """4 participants of 50 writers and 50 readers each, every topic
    distinct to one writer and one reader on the next participant: 200
    matches. Pairing every endpoint with every endpoint of the other kind
    would call ``match_endpoints`` 80 000 times; pairing within a topic
    calls it about twice per match, once on each side."""
    calls = []
    match = participant_module.match_endpoints

    def counting(a, b):
        calls.append(None)
        return match(a, b)

    monkeypatch.setattr(participant_module, "match_endpoints", counting)
    names, per = ("A", "B", "C", "D"), 50
    net, clock = InProcNetwork(), ManualClock(1_000_000_000)
    parts = [DomainParticipant(0, transport=net.attach(name), clock=clock,
                               static_peers=tuple(n for n in names if n != name))
             for name in names]
    try:
        writers, readers = [], []
        for i, participant in enumerate(parts):
            for j in range(per):
                topic = participant.create_topic(f"{names[i]}.{j}", COUNTER)
                writers.append(participant.create_datawriter(topic, BEST_EFFORT))
            source = names[i - 1]  # read the previous participant's topics
            for j in range(per):
                topic = participant.create_topic(f"{source}.{j}", COUNTER)
                readers.append(participant.create_datareader(topic, BEST_EFFORT))
        _spin(parts, rounds=3)

        assert [len(w.matched_readers()) for w in writers] == [1] * 200
        assert [len(r.matched_writers()) for r in readers] == [1] * 200
        assert len(calls) <= 4 * 200, len(calls)
    finally:
        for participant in parts:
            participant.close()


def test_a_writer_re_announced_on_another_topic_moves_its_match():
    """A remote writer announced on topic "a", then under the same GUID
    on topic "b": it is unmatched from the reader of "a", whose topic it
    no longer names, and matched with the reader of "b"."""
    net, clock = InProcNetwork(), ManualClock(1_000_000_000)
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    rogue = net.attach("rogue")
    prefix = bytes(range(1, 13))
    writer_guid = Guid(prefix, 7)
    try:
        reader_a = b.create_datareader(b.create_topic("a", COUNTER), BEST_EFFORT)
        reader_b = b.create_datareader(b.create_topic("b", COUNTER), BEST_EFFORT)

        def announce(topic):
            descriptor = EndpointDescriptor(writer_guid, 0, topic, COUNTER.name,
                                            EndpointType.WRITER, RxoQos())
            rogue.send(wire.encode_message(wire.WireMessage(
                prefix, (wire.Announce(0, (descriptor,)),))), "B")
            b.spin_once()

        announce("a")
        assert reader_a.matched_writers() == [writer_guid]
        assert reader_b.matched_writers() == []
        assert [r for r, _ in b._matched[writer_guid]] == [reader_a]

        announce("b")
        assert reader_a.matched_writers() == []
        assert reader_b.matched_writers() == [writer_guid]
        assert [r for r, _ in b._matched[writer_guid]] == [reader_b]

        payload = idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": 5}))
        rogue.send(wire.encode_message(wire.WireMessage(
            prefix, (wire.Data(writer_guid.entity_id, 0, 1, 0, 0, payload),))), "B")
        b.spin_once()
        assert reader_a.take() == []
        assert [s.values for s, _ in reader_b.take()] == [(5,)]
    finally:
        b.close()
        rogue.close()


def test_pairing_looks_at_no_endpoint_on_another_topic():
    """200 local readers on other topics: neither a remote writer's
    announce nor a local writer's creation on topic "t" reads any of
    them, and closing them empties the topic table."""
    net, clock = InProcNetwork(), ManualClock(1_000_000_000)
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    rogue = net.attach("rogue")
    looked = []

    class Watched(DataReader):
        def __getattribute__(self, name):
            looked.append(name)
            return super().__getattribute__(name)

    try:
        others = [b.create_datareader(b.create_topic(f"other{i}", COUNTER), BEST_EFFORT)
                  for i in range(200)]
        reader = b.create_datareader(b.create_topic("t", COUNTER), BEST_EFFORT)
        b.spin_once()  # encodes B's announce, which reads every descriptor
        for other in others:
            other.__class__ = Watched
        prefix = bytes(range(1, 13))
        descriptor = EndpointDescriptor(Guid(prefix, 7), 0, "t", COUNTER.name,
                                        EndpointType.WRITER, RxoQos())
        rogue.send(wire.encode_message(wire.WireMessage(
            prefix, (wire.Announce(0, (descriptor,)),))), "B")
        b.spin_once()
        local = b.create_datawriter(b.create_topic("t", COUNTER), BEST_EFFORT)
        assert looked == []
        assert reader.matched_writers() == [descriptor.guid, local.guid]
        for other in others:
            other.__class__ = DataReader
            other.close()
        assert sorted(b._on_topic) == [("t", EndpointType.WRITER), ("t", EndpointType.READER)]
    finally:
        b.close()
        rogue.close()


def test_a_reader_re_announced_on_another_topic_moves_its_match():
    """A remote reader announced on topic "a", then under the same GUID
    on topic "b": the writer of "a" unmatches it and the writer of "b"
    matches it."""
    net, clock = InProcNetwork(), ManualClock(1_000_000_000)
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    rogue = net.attach("rogue")
    prefix = bytes(range(1, 13))
    reader_guid = Guid(prefix, 7)
    try:
        writer_a = b.create_datawriter(b.create_topic("a", COUNTER), BEST_EFFORT)
        writer_b = b.create_datawriter(b.create_topic("b", COUNTER), BEST_EFFORT)
        for topic, matched in (("a", [[reader_guid], []]), ("b", [[], [reader_guid]])):
            descriptor = EndpointDescriptor(reader_guid, 0, topic, COUNTER.name,
                                            EndpointType.READER, RxoQos())
            rogue.send(wire.encode_message(wire.WireMessage(
                prefix, (wire.Announce(0, (descriptor,)),))), "B")
            b.spin_once()
            assert [w.matched_readers() for w in (writer_a, writer_b)] == matched
    finally:
        b.close()
        rogue.close()
