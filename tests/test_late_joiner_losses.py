"""What a reliable reader matched mid-stream counts as lost: only the
sequences its writer sent to it and then gave up, never the writes made
before the match or the ones a durable writer's cache had already
evicted when the reader joined."""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = qos.Reliability(qos.ReliabilityKind.RELIABLE)
KEEP_ALL = qos.History(qos.HistoryKind.KEEP_ALL)
DURABLE = qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)


def _spin(*participants, rounds=1):
    for _ in range(rounds):
        for participant in participants:
            participant.spin_once()


@pytest.fixture
def pair():
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock, static_peers=("A",))
    yield a, b
    a.close()
    b.close()


def _late_joiner(a, b, writer_qos, reader_qos, writes):
    writer = a.create_datawriter(a.create_topic("t", COUNTER), writer_qos)
    for n in range(1, writes + 1):
        writer.write({"n": n})
    reader = b.create_datareader(b.create_topic("t", COUNTER), reader_qos)
    _spin(a, b, a)
    assert writer.matched_readers() == [reader.guid]
    return writer, reader


def test_a_volatile_late_joiner_loses_nothing_written_before_it_matched(pair):
    a, b = pair
    writer, reader = _late_joiner(a, b, [RELIABLE, KEEP_ALL], [RELIABLE, KEEP_ALL], 5)
    writer.write({"n": 6})
    _spin(b, a, b, a, b)  # DATA, then HEARTBEAT and its ACKNACK
    assert [s.values for s, _ in reader.take()] == [(6,)]
    stats = reader.statistics()
    assert (stats.samples_lost, stats.sequences_seen) == (0, 1)
    assert not writer.unacknowledged()


def test_a_durable_late_joiner_loses_nothing_the_writer_evicted_before_it_joined(pair):
    a, b = pair
    keep_two = qos.History(qos.HistoryKind.KEEP_LAST, 2)
    writer, reader = _late_joiner(a, b, [RELIABLE, DURABLE, keep_two],
                                  [RELIABLE, DURABLE, KEEP_ALL], 5)
    _spin(b, a, b, a, b)  # replay of 4 and 5, then HEARTBEAT and ACKNACK
    assert [s.values for s, _ in reader.take()] == [(4,), (5,)]
    stats = reader.statistics()
    assert (stats.samples_lost, stats.sequences_seen) == (0, 2)
    assert not writer.unacknowledged()
