"""Rules that only show once something departs or arrives out of place.

Each test pins one statement that a deleted copy of it would not break
anywhere else in the suite:

- exclusive-ownership arbitration skips a writer that is no longer
  matched, so a departed stronger writer does not keep the instance;
- a departed writer's ``beyond_window`` count stays in the reader's
  statistics, as its ``samples_lost`` and ``sequences_seen`` do;
- an ANNOUNCE under our own prefix is ignored also when it arrives
  among other submessages, where ``wire.lone_announce`` does not see it;
- ``close()`` joins the pump thread, even one that sleeps 0.5 s per poll.
"""

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]
EXCLUSIVE = [qos.Ownership(qos.OwnershipKind.EXCLUSIVE)]


def _participant(net, name, **config):
    return DomainParticipant(0, transport=net.attach(name),
                             clock=ManualClock(1_000_000_000), **config)


def _values(reader):
    return [sample.values for sample, _ in reader.take()]


def test_a_departed_stronger_writer_does_not_keep_ownership():
    """Writer A (strength 10, the lower GUID) owns the instance; once A
    closes, writer B (strength 0) is the only one left, and its next
    sample is accepted. Were A still a candidate, with its strength gone
    it would tie B at 0 and win on its lower GUID, for ever under an
    infinite deadline."""
    with _participant(InProcNetwork(), "p") as p:
        topic = p.create_topic("t", COUNTER)
        strong = p.create_datawriter(topic, RELIABLE + EXCLUSIVE + [qos.OwnershipStrength(10)])
        weak = p.create_datawriter(topic, RELIABLE + EXCLUSIVE + [qos.OwnershipStrength(0)])
        reader = p.create_datareader(topic, RELIABLE + EXCLUSIVE)
        assert strong.guid < weak.guid
        assert reader.qos.value(qos.QosPolicyId.DEADLINE).period_ns == qos.INFINITE_NS
        strong.write({"n": 1})
        weak.write({"n": 2})
        assert _values(reader) == [(1,)]
        assert reader.statistics().ownership_filtered == 1
        strong.close()
        assert reader.matched_writers() == [weak.guid]
        weak.write({"n": 3})
        assert _values(reader) == [(3,)]
        assert reader.statistics().ownership_filtered == 1


def test_a_departed_writers_beyond_window_stays_in_the_statistics():
    """A DATA far above a reliable reader's settled floor is refused and
    counted in ``beyond_window``; the count outlives the writer's match."""
    with _participant(InProcNetwork(), "p") as p:
        topic = p.create_topic("t", COUNTER)
        writer = p.create_datawriter(topic, RELIABLE)
        reader = p.create_datareader(topic, RELIABLE)
        writer.write({"n": 1})
        assert _values(reader) == [(1,)]
        payload = idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": 2}))
        far = 1 + 65536 + 1  # more than the hold span above the floor, 1
        p._receive([(wire.pack_data_message(p.guid.prefix, writer.guid.entity_id, 0, far,
                                            0, idl.UNKEYED_HANDLE, payload), None)],
                   p.clock.monotonic_ns(), p.clock.wall_ns())
        assert reader.statistics().beyond_window == 1
        writer.close()
        assert reader.matched_writers() == []
        assert reader.statistics().beyond_window == 1
        assert reader.take() == []


def test_our_own_announce_among_other_submessages_is_ignored():
    """A datagram under our own prefix that carries an ANNOUNCE of our
    own endpoints and a GAP from a writer we do not know: not a lone
    announce, so it is decoded and dispatched, and discovery must still
    refuse it. Taken as a peer, we would list ourselves, answer with an
    announce and pair our endpoints with copies of themselves."""
    net = InProcNetwork()
    rogue = net.attach("rogue")
    with _participant(net, "p") as p:
        topic = p.create_topic("t", COUNTER)
        writer = p.create_datawriter(topic, RELIABLE)
        reader = p.create_datareader(topic, RELIABLE)
        p.spin_once()  # the first announce, to no one
        raw = wire.encode_message(wire.WireMessage(p.guid.prefix, (
            wire.Announce(0, 99, (writer.descriptor, reader.descriptor)),
            wire.Gap(0x7777, 1, 1))))
        assert wire.lone_announce(raw) is None
        rogue.send(raw, "p")
        assert p.spin_once() == 1
        assert p.discovery.peer_count() == 0
        assert p.discovery.destinations() == []
        assert rogue.drain() == []  # no announce sent back
        assert writer.matched_readers() == [reader.guid]
        assert reader.matched_writers() == [writer.guid]
        writer.write({"n": 1})
        assert _values(reader) == [(1,)]


def test_close_joins_a_slow_polling_pump_thread():
    """A pump thread asleep in a 0.5 s poll is woken by nothing; close()
    waits for it to see the stop, so it is gone when close() returns."""
    p = _participant(InProcNetwork(), "p")
    p.start(poll_interval_s=0.5)
    thread = p._thread
    assert thread.is_alive()
    p.close()
    assert not thread.is_alive()
    assert p._thread is None
