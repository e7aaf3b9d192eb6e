"""Endpoints are paired only within a topic.

A participant hands a pair to ``match_endpoints`` only when both
endpoints name the same topic, or when they are matched now: a remote
endpoint re-announced on another topic must still be unmatched from the
readers of its old one. Every case runs on ``InProcNetwork`` and a
``ManualClock``, and counts calls instead of timing them.
"""

from collections import Counter

import pytest

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

        def announce(topic, version):
            descriptor = EndpointDescriptor(writer_guid, 0, topic, COUNTER.name,
                                            EndpointType.WRITER, RxoQos())
            rogue.send(wire.encode_message(wire.WireMessage(
                prefix, (wire.Announce(0, version, (descriptor,)),))), "B")
            b.spin_once()

        announce("a", 1)
        assert reader_a.matched_writers() == [writer_guid]
        assert reader_b.matched_writers() == []
        assert [r for r, _ in b._matched[writer_guid]] == [reader_a]

        announce("b", 2)
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
            prefix, (wire.Announce(0, 1, (descriptor,)),))), "B")
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
        for version, (topic, matched) in enumerate(
                (("a", [[reader_guid], []]), ("b", [[], [reader_guid]])), 1):
            descriptor = EndpointDescriptor(reader_guid, 0, topic, COUNTER.name,
                                            EndpointType.READER, RxoQos())
            rogue.send(wire.encode_message(wire.WireMessage(
                prefix, (wire.Announce(0, version, (descriptor,)),))), "B")
            b.spin_once()
            assert [w.matched_readers() for w in (writer_a, writer_b)] == matched
    finally:
        b.close()
        rogue.close()


def test_a_new_endpoint_looks_at_no_remote_endpoint_on_another_topic():
    """Two peers announce 1 000 writers on other topics and one on "t":
    creating a reader on "t" reads none of the 1 000 and matches the
    one."""
    net, clock = InProcNetwork(), ManualClock(1_000_000_000)
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    rogue = net.attach("rogue")
    looked = []

    class Watched(EndpointDescriptor):
        def __getattribute__(self, name):
            looked.append(name)
            return super().__getattribute__(name)

    try:
        target = EndpointDescriptor(Guid(bytes(12), 1), 0, "t", COUNTER.name,
                                    EndpointType.WRITER, RxoQos())
        for peer in (1, 2):
            prefix = bytes([peer]) * 12
            descriptors = tuple(
                EndpointDescriptor(Guid(prefix, i), 0, f"other{peer}.{i}", COUNTER.name,
                                   EndpointType.WRITER, RxoQos())
                for i in range(1, 501))
            if peer == 1:
                target = EndpointDescriptor(Guid(prefix, 501), 0, "t", COUNTER.name,
                                            EndpointType.WRITER, RxoQos())
                descriptors += (target,)
            rogue.send(wire.encode_message(wire.WireMessage(
                prefix, (wire.Announce(0, 1, descriptors),))), "B")
        b.spin_once()
        others = [d for peer in b.discovery._peers.values()
                  for d in peer.endpoints.values() if d.topic_name != "t"]
        assert len(others) == 1_000
        for descriptor in others:
            object.__setattr__(descriptor, "__class__", Watched)
        reader = b.create_datareader(b.create_topic("t", COUNTER), BEST_EFFORT)
        assert looked == []
        assert reader.matched_writers() == [target.guid]
    finally:
        b.close()
        rogue.close()


def test_discovery_indexes_remote_endpoints_by_topic_and_kind():
    """The index follows every announce: an endpoint added, moved to
    another topic, gone at the first announce without it, and gone with
    a silent peer. A GUID two peers list stays while one of them lists it."""
    from minidds.rtps.discovery import Discovery

    disc = Discovery(bytes(12), 0, announce_period_ns=1_000)
    writer, reader = EndpointType.WRITER, EndpointType.READER

    def ep(prefix, entity_id, topic, kind=writer):
        return EndpointDescriptor(Guid(prefix, entity_id), 0, topic, COUNTER.name, kind,
                                  RxoQos())

    versions = Counter()

    def announce(prefix, *endpoints, now=0):
        versions[prefix] += 1  # each a newer roster
        disc.process_announce(wire.Announce(0, versions[prefix], endpoints),
                              prefix, prefix, now)

    p, q = b"p" * 12, b"q" * 12
    w1, w2, r1 = ep(p, 1, "a"), ep(p, 2, "a"), ep(p, 3, "a", reader)
    announce(p, w1, w2, r1)
    assert disc.remote_on("a", writer) == [w1, w2]
    assert disc.remote_on("a", reader) == [r1]
    moved = ep(p, 2, "b")
    announce(p, w1, moved, r1)
    assert disc.remote_on("a", writer) == [w1]
    assert disc.remote_on("b", writer) == [moved]
    announce(p, moved, r1)
    assert disc.remote_on("a", writer) == []
    assert sorted(disc._on_topic) == [("a", reader), ("b", writer)]
    shared = ep(q, 9, "c")
    announce(p, moved, r1, ep(q, 9, "c"))  # each peer's copy, as decoded
    announce(q, shared, now=1)
    announce(p, moved, r1)
    assert disc.remote_on("c", writer) == [shared]  # q still lists it
    assert sorted(disc.check_timeouts(3_000)) == sorted([moved.guid, r1.guid])
    assert disc.remote_on("b", writer) == [] and disc.remote_on("a", reader) == []
    assert disc.check_timeouts(4_000) == [shared.guid]
    assert disc._on_topic == {}


@pytest.mark.parametrize("q_first", [False, True])
def test_a_guid_two_peers_list_stays_while_either_lists_it(q_first):
    """Peers p and q both list GUID G; p stops. q's copy stays in the
    index, and a reader created later pairs with it, whichever peer
    announced G first."""

    net, clock = InProcNetwork(), ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("a"), clock=clock)
    try:
        topic = a.create_topic("c", COUNTER)
        p, q = b"p" * 12, b"q" * 12
        copies = {prefix: EndpointDescriptor(Guid(q, 9), 0, "c", COUNTER.name,
                                             EndpointType.WRITER, RxoQos())
                  for prefix in (p, q)}

        versions = Counter()

        def announce(prefix, *endpoints):
            versions[prefix] += 1  # each a newer roster
            a.discovery.process_announce(wire.Announce(0, versions[prefix], endpoints),
                                         prefix, prefix, 0)

        for prefix in ((q, p) if q_first else (p, q)):
            announce(prefix, copies[prefix])
        both = [copies[q], copies[p]] if q_first else [copies[p], copies[q]]
        assert a.discovery.remote_on("c", EndpointType.WRITER) == both
        announce(p)
        assert a.discovery.remote_on("c", EndpointType.WRITER) == [copies[q]]
        reader = a.create_datareader(topic)
        assert reader.matched_writers() == [Guid(q, 9)]
    finally:
        a.close()
