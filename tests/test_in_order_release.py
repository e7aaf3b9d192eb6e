"""A reliable reader hands each writer's samples on in sequence order, and
answers the HEARTBEATs of a drained batch once the whole batch is in.

A DATA above a hole is held, not handed on: it waits until the hole is
repaired, or given up by a GAP or a HEARTBEAT's ``first_seq``, and the
whole run is then handed on in order. A HEARTBEAT that a batch carries
ahead of the repairs it follows is answered after them, so its ACKNACK
asks for nothing that arrived in that batch. A DATA too far above the
floor to hold is refused and counted, and comes again on request; the
held DATA of a writer that unmatches are dropped and count as lost.

A writer announces no sample it evicts or expires: a write sends its
DATA and nothing else, and a DATA held above a lost one that has left
the writer's cache waits for the next HEARTBEAT, whose ``first_seq``
gives the hole up. A resent DATA is the cached datagram, addressed to
its reader.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.reliability import HEARTBEAT_PERIOD_NS
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]
KEEP_LAST_1 = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
               qos.History(qos.HistoryKind.KEEP_LAST, 1)]
SPAN = 65536  # how far above its floor a reliable reader holds anything
MS = 1_000_000


@pytest.fixture
def pair(request):
    """A reliable writer on A (KEEP_ALL, or the QoS a test passes by
    indirect parametrization) matched with a reliable reader on B, and a
    rogue address that can send B datagrams under A's prefix."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    writer = a.create_datawriter(a.create_topic("t", COUNTER),
                                 getattr(request, "param", RELIABLE))
    reader = b.create_datareader(b.create_topic("t", COUNTER), RELIABLE)
    for participant in (a, b, a):
        participant.spin_once()
    assert reader.matched_writers() == [writer.guid]
    yield a, b, writer, reader, net.attach("rogue"), clock
    a.close()
    b.close()


def _data(writer, n):
    payload = idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": n}))
    return wire.Data(writer.guid.entity_id, 0, n, 0, 0, payload)


def _send(rogue, writer, *subs):
    for sub in subs:
        rogue.send(wire.encode_message(wire.WireMessage(writer.guid.prefix, (sub,))), "B")


def _queued(participant):
    """The submessages waiting in a participant's queue, in order."""
    return [sub for data, _ in participant.transport._queue
            for sub in wire.decode_message(data).submessages]


def _drop_data(participant, sequences):
    queue = participant.transport._queue
    kept = [(data, source) for data, source in queue
            if not any(isinstance(sub, wire.Data) and sub.sequence in sequences
                       for sub in wire.decode_message(data).submessages)]
    queue.clear()
    queue.extend(kept)


def _values(reader):
    return [sample.values[0] for sample, _ in reader.take()]


def test_a_heartbeat_ahead_of_its_repairs_is_answered_after_them(pair):
    a, b, writer, reader, _, clock = pair
    for n in range(1, 6):
        writer.write({"n": n})
    _drop_data(b, {2, 3})
    b.spin_once()
    a.spin_once()  # HEARTBEAT 1-5
    b.spin_once()  # ACKNACK for 2 and 3
    a.spin_once()  # resends them
    assert [sub.sequence for sub in _queued(b)] == [2, 3]
    clock.advance(HEARTBEAT_PERIOD_NS)
    a.spin_once()  # the next HEARTBEAT, which the batch carries first
    queue = b.transport._queue
    queue.rotate(1)
    assert [type(sub.inner) if isinstance(sub, wire.Direct) else type(sub)
            for sub in _queued(b)] == [wire.Heartbeat, wire.Data, wire.Data]
    b.spin_once()
    ack, = _queued(a)
    assert (ack.base_seq, ack.missing) == (6, ())
    a.spin_once()
    assert _queued(b) == []  # nothing is resent twice
    assert _values(reader) == [1, 2, 3, 4, 5]
    assert reader.statistics().duplicates_discarded == 0
    assert not writer.unacknowledged()


def test_nothing_past_a_hole_is_handed_on_until_it_is_repaired(pair):
    a, b, writer, reader, _, _ = pair
    heard = []
    reader.listener = lambda r: heard.extend(_values(r))
    for n in range(1, 6):
        writer.write({"n": n})
    _drop_data(b, {2})
    b.spin_once()
    assert heard == [1] and reader.take() == []
    a.spin_once()  # HEARTBEAT
    b.spin_once()  # ACKNACK for 2
    assert heard == [1]
    a.spin_once()  # resends 2
    b.spin_once()
    assert heard == [1, 2, 3, 4, 5]  # the repaired run, at one listener call, in order
    stats = reader.statistics()
    assert (stats.samples_accepted, stats.samples_lost, stats.sequences_seen) == (5, 0, 5)


@pytest.mark.parametrize("give_up", ["gap", "heartbeat"])
def test_a_given_up_hole_releases_what_was_held_above_it(pair, give_up):
    """1, 3, 4 and 6 arrive; 2 and 5 never do. 2 is given up: 3 and 4
    are handed on, 6 still waits for 5."""
    _, b, writer, reader, rogue, _ = pair
    _send(rogue, writer, *(_data(writer, n) for n in (1, 3, 4, 6)))
    b.spin_once()
    assert _values(reader) == [1]
    eid = writer.guid.entity_id
    _send(rogue, writer, wire.Gap(eid, 2, 2) if give_up == "gap"
          else wire.Heartbeat(eid, 3, 6, 1))
    b.spin_once()
    assert _values(reader) == [3, 4]
    assert reader.statistics().samples_lost == 1
    _send(rogue, writer, wire.Gap(eid, 5, 5))
    b.spin_once()
    assert _values(reader) == [6]
    stats = reader.statistics()
    assert (stats.samples_lost, stats.sequences_seen, stats.samples_accepted) == (2, 4, 4)


def test_a_data_too_far_ahead_is_refused_counted_and_asked_for_again(pair):
    a, b, writer, reader, rogue, _ = pair
    eid = writer.guid.entity_id
    far = 2 + SPAN
    _send(rogue, writer, _data(writer, 1), _data(writer, far))
    b.spin_once()
    stats = reader.statistics()
    assert (stats.beyond_window, stats.sequences_seen) == (1, 1)
    assert _values(reader) == [1]
    _send(rogue, writer, wire.Gap(eid, 2, far - 1), wire.Heartbeat(eid, 1, far, 1))
    b.spin_once()
    ack, = _queued(a)
    assert (ack.base_seq, ack.missing) == (far, (far,))  # not marked received
    assert reader.take() == []
    _send(rogue, writer, _data(writer, far))
    b.spin_once()
    assert _values(reader) == [far]
    stats = reader.statistics()
    assert (stats.beyond_window, stats.sequences_seen, stats.duplicates_discarded) == (1, 2, 0)


def test_the_held_data_of_a_departed_writer_count_as_lost(pair):
    _, b, writer, reader, rogue, _ = pair
    _send(rogue, writer, *(_data(writer, n) for n in (1, 3, 4)))
    b.spin_once()
    assert reader.statistics().samples_lost == 0
    b._unmatch(writer.guid)
    assert reader.matched_writers() == []
    assert _values(reader) == [1]
    stats = reader.statistics()
    assert (stats.samples_lost, stats.sequences_seen, stats.samples_accepted) == (2, 3, 1)


@pytest.mark.parametrize("pair", [KEEP_LAST_1], indirect=True)
def test_a_keep_last_write_sends_its_data_and_nothing_else(pair):
    """Each write evicts the one before it, unacknowledged, unannounced."""
    _, b, writer, reader, _, _ = pair
    b.spin_once()  # A's last announce
    assert _queued(b) == []
    for n in range(1, 6):
        writer.write({"n": n})
    assert len(b.transport._queue) == 5  # one datagram per write
    assert [type(sub) for sub in _queued(b)] == [wire.Data] * 5
    b.spin_once()
    assert _values(reader) == [1, 2, 3, 4, 5]


def _acknowledged(a, b, writer):
    """Write 1 and let its HEARTBEAT and ACKNACK go round, so the writer's
    next HEARTBEAT is due one period from now."""
    writer.write({"n": 1})
    a.spin_once()  # HEARTBEAT 1-1
    b.spin_once()  # takes 1, ACKNACK base 2
    a.spin_once()
    assert not writer.unacknowledged()


def _held_until_the_next_heartbeat(a, b, reader, clock, waited):
    """3 waits above the lost 2, unreleased and nothing counted lost, until
    the spin one heartbeat period after the last HEARTBEAT (``waited`` ns
    of which have already passed); that HEARTBEAT's ``first_seq`` gives 2
    up."""
    for step in (0, HEARTBEAT_PERIOD_NS - waited - 1):
        clock.advance(step)
        a.spin_once()
        b.spin_once()
        assert reader.take() == []
        assert reader.statistics().samples_lost == 0
    clock.advance(1)
    a.spin_once()
    hb, = _queued(b)
    assert (hb.inner.first_seq, hb.inner.last_seq) == (3, 3)
    b.spin_once()
    assert _values(reader) == [3]
    assert reader.statistics().samples_lost == 1


@pytest.mark.parametrize("pair", [KEEP_LAST_1], indirect=True)
def test_a_data_above_an_evicted_loss_waits_for_the_next_heartbeat(pair):
    a, b, writer, reader, _, clock = pair
    _acknowledged(a, b, writer)
    assert _values(reader) == [1]
    writer.write({"n": 2})
    writer.write({"n": 3})  # evicts 2 before B acknowledged it
    assert sorted(writer.history.by_seq) == [3]
    _drop_data(b, {2})
    _held_until_the_next_heartbeat(a, b, reader, clock, 0)


@pytest.mark.parametrize("pair", [RELIABLE + [qos.Lifespan(40 * MS)]], indirect=True)
def test_a_data_above_an_expired_loss_waits_for_the_next_heartbeat(pair):
    a, b, writer, reader, _, clock = pair
    _acknowledged(a, b, writer)
    assert _values(reader) == [1]
    writer.write({"n": 2})
    clock.advance(30 * MS)
    writer.write({"n": 3})
    _drop_data(b, {2})
    clock.advance(11 * MS)
    a.spin_once()  # 2 expires before B acknowledged it
    assert sorted(writer.history.by_seq) == [3]
    _held_until_the_next_heartbeat(a, b, reader, clock, 41 * MS)


def test_a_resent_data_is_the_cached_datagram_for_its_reader(pair):
    a, b, writer, reader, _, _ = pair
    for n in range(1, 4):
        writer.write({"n": n})
    _drop_data(b, {2})
    b.spin_once()
    a.spin_once()  # HEARTBEAT
    b.spin_once()  # ACKNACK for 2
    a.spin_once()  # resends 2
    (resent, _), = b.transport._queue
    _, _, cached, _, _ = writer.history.by_seq[2]  # its message
    head = list(wire.read_data_message(cached))
    head[2] = reader.guid.entity_id  # the reader entity id, 0 in the write
    assert wire.read_data_message(resent) == tuple(head)
    assert resent[wire.DATA_PAYLOAD_START:] == cached[wire.DATA_PAYLOAD_START:]
    b.spin_once()
    assert _values(reader) == [1, 2, 3]
