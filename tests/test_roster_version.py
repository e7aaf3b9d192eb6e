"""A departed endpoint is forgotten at the next announce.

Every announce carries its sender's roster version. A peer diffs only a
roster newer than the last it diffed and drops at once what that roster
no longer lists; an older roster changes nothing, not even the peer's
last-seen time. Every case runs on ``InProcNetwork`` and a
``ManualClock``.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.guid import Guid
from minidds.dcps.matching import EndpointDescriptor, EndpointType, RxoQos
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.discovery import ANNOUNCE_PERIOD_NS, SILENCE_PERIODS
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
MS = 1_000_000
RELIABLE = qos.Reliability(qos.ReliabilityKind.RELIABLE)
BEST_EFFORT = qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)
KEEP_ALL = qos.History(qos.HistoryKind.KEEP_ALL)


class _Pair:
    """Participants A and B on one network and one manual clock, each
    announcing to the other."""

    def __init__(self):
        self.net = InProcNetwork()
        self.clock = ManualClock(1_000_000_000)
        self.a = DomainParticipant(0, transport=self.net.attach("A"), clock=self.clock,
                                   static_peers=("B",))
        self.b = DomainParticipant(0, transport=self.net.attach("B"), clock=self.clock,
                                   static_peers=("A",))

    def spin(self, rounds=1):
        for _ in range(rounds):
            self.a.spin_once()
            self.b.spin_once()

    def close(self):
        self.a.close()
        self.b.close()


@pytest.fixture
def pair():
    fixture = _Pair()
    yield fixture
    fixture.close()


def _matched(pair, writer_qos, reader_qos):
    writer = pair.a.create_datawriter(pair.a.create_topic("t", COUNTER), writer_qos)
    reader = pair.b.create_datareader(pair.b.create_topic("t", COUNTER), reader_qos)
    pair.spin(rounds=2)
    assert writer.matched_readers() == [reader.guid]
    return writer, reader


def test_a_closed_reader_stops_pinning_a_full_keep_all_cache(pair):
    """A RELIABLE KEEP_ALL writer of ``max_samples=4`` fills its cache
    with samples its remote reader never acknowledges; the reader
    closes. One spin of each participant unmatches it and empties the
    cache, and the writer then takes 200 writes, one per 10 ms, none
    refused."""
    writer, reader = _matched(pair, [RELIABLE, KEEP_ALL, qos.ResourceLimits(max_samples=4)],
                              [RELIABLE, KEEP_ALL])
    for n in range(4):
        writer.write({"n": n})
    assert len(writer.history) == 4 and writer.unacknowledged()
    reader.close()
    pair.b.spin_once()
    pair.a.spin_once()
    assert writer.matched_readers() == []
    assert len(writer.history) == 0 and not writer.unacknowledged()
    for n in range(200):
        pair.clock.advance(10 * MS)
        writer.write({"n": n})
        pair.spin()
    assert writer.samples_written == 204
    assert len(writer.history) == 0


def test_a_departed_reader_gets_no_more_data(pair, monkeypatch):
    """After one spin of each participant, a best-effort writer's
    participant sends the departed reader's participant no DATA, for
    300 writes over 3 s, while both keep announcing."""
    writer, reader = _matched(pair, [BEST_EFFORT], [BEST_EFFORT])
    sent = []
    send = pair.a.transport.send
    monkeypatch.setattr(pair.a.transport, "send",
                        lambda data, dest: (sent.append((data, dest)), send(data, dest)))
    reader.close()
    pair.b.spin_once()
    pair.a.spin_once()
    assert writer.matched_readers() == []
    for n in range(300):
        pair.clock.advance(10 * MS)
        writer.write({"n": n})
        pair.spin()
    assert writer.samples_written == 300
    assert [dest for data, dest in sent if wire.read_data_message(data) is not None] == []
    # A kept announcing to B: three periods, three announces.
    assert [wire.lone_announce(data) is not None for data, _ in sent] == [True] * 3


def _announce(sender, prefix, version, *endpoints):
    sender.send(wire.encode_message(wire.WireMessage(
        prefix, (wire.Announce(0, version, endpoints),))), "B")


def _remote_writer(prefix, entity_id):
    return EndpointDescriptor(Guid(prefix, entity_id), 0, "t", COUNTER.name,
                              EndpointType.WRITER, RxoQos())


def test_an_older_roster_does_not_bring_a_removed_endpoint_back(pair):
    """Roster 1 lists writers E and F, roster 2 lists F alone. Roster 2
    removes E at once; roster 1 arriving after it (reordered in one
    drain, or sent again later from the peer's address or another)
    does not bring E back, nor move the peer."""
    rogue, elsewhere = pair.net.attach("rogue"), pair.net.attach("elsewhere")
    prefix = bytes(range(1, 13))
    e, f = _remote_writer(prefix, 1), _remote_writer(prefix, 2)
    reader = pair.b.create_datareader(pair.b.create_topic("t", COUNTER), [BEST_EFFORT])
    _announce(rogue, prefix, 1, e, f)
    pair.b.spin_once()
    assert reader.matched_writers() == [e.guid, f.guid]
    _announce(rogue, prefix, 2, f)
    _announce(rogue, prefix, 1, e, f)  # reordered behind roster 2
    pair.b.spin_once()
    assert reader.matched_writers() == [f.guid]
    epoch = pair.b.discovery.epoch
    for sender in (rogue, elsewhere):
        _announce(sender, prefix, 1, e, f)
        pair.b.spin_once()
        assert reader.matched_writers() == [f.guid]
    assert pair.b.discovery.address_of(prefix) == "rogue"
    assert pair.b.discovery.epoch == epoch
    assert [d.guid for d in pair.b.discovery.remote_on("t", EndpointType.WRITER)] == [f.guid]


def test_a_peer_heard_only_through_older_rosters_times_out(pair):
    """After roster 5, the peer sends only roster 4, each period, from
    its address and from another: none refreshes it, so it goes after
    SILENCE_PERIODS periods with its endpoints. The next roster 4 is
    then a new peer's, diffed in full."""
    rogue, elsewhere = pair.net.attach("rogue"), pair.net.attach("elsewhere")
    prefix = bytes(range(1, 13))
    e = _remote_writer(prefix, 1)
    reader = pair.b.create_datareader(pair.b.create_topic("t", COUNTER), [BEST_EFFORT])
    _announce(rogue, prefix, 5, e)
    pair.b.spin_once()
    assert reader.matched_writers() == [e.guid]
    for period in range(1, SILENCE_PERIODS + 1):
        pair.clock.advance(ANNOUNCE_PERIOD_NS)
        _announce(rogue if period % 2 else elsewhere, prefix, 4, e)
        pair.b.spin_once()
        gone = period == SILENCE_PERIODS
        assert (pair.b.discovery.address_of(prefix) is None) == gone, period
        assert reader.matched_writers() == ([] if gone else [e.guid]), period
    _announce(rogue, prefix, 4, e)
    pair.b.spin_once()
    assert reader.matched_writers() == [e.guid]
