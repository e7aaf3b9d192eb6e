"""A reader's cache keeps each instance in arrival order, through a
participant.

DESTINATION_ORDER BY_RECEPTION_TIMESTAMP, the default, asks that the
newest arrival wins: a KEEP_LAST reader of an instance that two writers
update holds the last samples it received, whichever writer sent them,
and never compares one writer's sequence numbers with another's. A
writer that matches again replays its cache from the start; the replay
is appended behind what the reader already holds.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps.discovery import ANNOUNCE_PERIOD_NS, SILENCE_PERIODS
from minidds.rtps.transport import InProcNetwork, LossyConfig

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = qos.Reliability(qos.ReliabilityKind.RELIABLE)
DURABLE = qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)
KEEP_ALL = qos.History(qos.HistoryKind.KEEP_ALL)


def _keep_last(depth):
    return qos.History(qos.HistoryKind.KEEP_LAST, depth)


@pytest.mark.parametrize("depth, writes, kept, evicted", [
    # w1 writes 0..4 (sequences 1-5), then w2 writes 99 (sequence 1).
    (1, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 99)], [(1, 99)], 5),
    # Interleaved: w1's sequences run ahead of w2's, yet w2's last
    # sample is the newest arrival.
    (2, [(0, 1), (0, 2), (0, 3), (1, 10), (0, 4), (1, 11)], [(0, 4), (1, 11)], 4),
])
def test_keep_last_keeps_the_newest_arrivals_of_two_writers(depth, writes, kept, evicted):
    net = InProcNetwork()
    with DomainParticipant(0, transport=net.attach("solo"),
                           clock=ManualClock(1_000_000_000)) as solo:
        topic = solo.create_topic("vehicle", COUNTER)
        reader = solo.create_datareader(topic, [RELIABLE, _keep_last(depth)])
        writers = [solo.create_datawriter(topic, [RELIABLE, _keep_last(1)])
                   for _ in range(2)]
        for w, n in writes:
            writers[w].write({"n": n})
        solo.spin_once()
        index = {writer.guid: i for i, writer in enumerate(writers)}
        assert [(index[info.writer_guid], sample.values[0])
                for sample, info in reader.read()] == kept
        stats = reader.statistics()
        assert (stats.samples_accepted, stats.evicted_by_history) == (len(writes), evicted)


def _spin(*participants):
    for participant in participants:
        participant.spin_once()


def test_a_replay_after_a_match_again_is_appended():
    """A TRANSIENT_LOCAL writer and its reader's participant stop hearing
    each other past the silence timeout, so both sides unmatch; the
    writer's fourth write is lost meanwhile. Once they hear each other
    again, the writer's new session replays its cache (sequences 2-4)
    from the start. A KEEP_ALL reader holds the replay behind the
    samples it already had, in arrival order, and a KEEP_LAST(1) reader
    ends up with the writer's newest sample."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock, static_peers=("A",))
    try:
        writer = a.create_datawriter(a.create_topic("t", COUNTER),
                                     [RELIABLE, DURABLE, _keep_last(3)])
        topic = b.create_topic("t", COUNTER)
        every = b.create_datareader(topic, [RELIABLE, DURABLE, KEEP_ALL])
        newest = b.create_datareader(topic, [RELIABLE, DURABLE, _keep_last(1)])
        _spin(a, b, a)
        assert writer.matched_readers() == sorted([every.guid, newest.guid])
        for n in (1, 2, 3):
            writer.write({"n": n})
        _spin(b, a, b, a, b)
        assert [info.sequence for _, info in every.read()] == [1, 2, 3]

        net.config = LossyConfig(drop_probability=1.0)
        writer.write({"n": 4})
        for _ in range(SILENCE_PERIODS + 1):
            clock.advance(ANNOUNCE_PERIOD_NS)
            _spin(a, b)
        assert writer.matched_readers() == []
        assert every.matched_writers() == newest.matched_writers() == []

        net.config = LossyConfig()
        clock.advance(ANNOUNCE_PERIOD_NS)
        _spin(a, b, a, b, a, b)
        assert writer.matched_readers() == sorted([every.guid, newest.guid])
        assert [sample.values[0] for sample, _ in every.read()] == [1, 2, 3, 2, 3, 4]
        assert [sample.values[0] for sample, _ in newest.read()] == [4]
    finally:
        a.close()
        b.close()
