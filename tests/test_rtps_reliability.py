"""Delivery state machines, driven directly with scripted inputs."""

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.guid import Guid
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.history import WriterHistory
from minidds.rtps import wire
from minidds.rtps.reliability import (BestEffortReaderSession, Directed,
                                      ReliableReaderSession, WriterSession)
from minidds.rtps.transport import InProcNetwork

READER_A = Guid(b"\x01" * 12, 21)
READER_B = Guid(b"\x02" * 12, 22)

MS = 1_000_000

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]


def _writer(transient_local=False, history_kind=qos.HistoryKind.KEEP_ALL, depth=1):
    history = WriterHistory(qos.History(history_kind, depth), qos.ResourceLimits())
    session = WriterSession(history, writer_entity_id=11,
                            transient_local=transient_local)
    return history, session


def _write(history, session, sequence, handle=0):
    """A DataWriter's write of ``sequence``: cached while the session keeps
    history, then handed to the session; returns the sequence it assigns."""
    assert sequence == session.last_sequence + 1
    payload, stamp = b"p%d" % sequence, sequence * 10
    if session.keeps_history:
        message = wire.pack_data_message(b"\x00" * 12, session.writer_entity_id, 0,
                                         sequence, stamp, handle, payload)
        history.insert((sequence, handle, message, stamp, qos.INFINITE_NS))
    return session.on_write()


class TestWriterSession:
    def test_write_assigns_the_next_sequence(self):
        history, session = _writer()
        session.add_reader(READER_A, wants_history=False, now_ns=0)
        assert [_write(history, session, seq) for seq in (1, 2, 3)] == [1, 2, 3]
        assert session.last_sequence == 3

    def test_heartbeat_cadence_and_stop_on_ack(self):
        history, session = _writer()
        session.add_reader(READER_A, wants_history=False,
                           now_ns=100 * MS)
        _write(history, session, 1)
        first = session.step(now_ns=100 * MS)
        assert [type(d.submessage) for d in first] == [wire.Heartbeat]
        assert first[0].dest == READER_A
        hb = first[0].submessage
        assert (hb.first_seq, hb.last_seq) == (1, 1)
        # Within the period nothing more goes out.
        assert session.step(now_ns=120 * MS) == []
        assert session.step(now_ns=150 * MS) != []
        # Once the reader acks everything the timer goes quiet.
        session.on_acknack(READER_A, wire.AckNack(21, Guid(b"\x00" * 12, 11), 2, ()),
                           now_ns=151 * MS)
        assert session.all_acked()
        assert session.step(now_ns=300 * MS) == []

    def test_best_effort_reader_never_gets_heartbeats(self):
        """The session keeps no proxy for a best-effort reader: a RELIABLE
        TRANSIENT_LOCAL writer replays nothing to a best-effort
        TRANSIENT_LOCAL late joiner, caches nothing for it alone, and
        never heartbeats it."""
        clock = ManualClock(0)
        net = InProcNetwork()
        with DomainParticipant(0, clock=clock, transport=net.attach("p")) as p:
            topic = p.create_topic("t", COUNTER)
            writer = p.create_datawriter(topic, [
                qos.Reliability(qos.ReliabilityKind.RELIABLE),
                qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)])
            writer.write({"n": 1})
            reader = p.create_datareader(topic, [
                qos.Reliability(qos.ReliabilityKind.BEST_EFFORT),
                qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)])
            assert writer.matched_readers() == [reader.guid]
            assert reader.take() == []  # no replay
            writer.write({"n": 2})
            assert [s.values for s, _ in reader.take()] == [(2,)]
            assert writer.session._proxies == {}
            assert writer.session.step(now_ns=10_000 * MS) == []
            assert writer.session.all_acked()

    def test_retransmit_with_damping(self):
        history, session = _writer()
        session.add_reader(READER_A, wants_history=False, now_ns=0)
        for seq in (1, 2, 3):
            _write(history, session, seq)
        nack = wire.AckNack(21, Guid(b"\x00" * 12, 11), 2, (2,))
        out = session.on_acknack(READER_A, nack, now_ns=10 * MS)
        assert [d.submessage.sequence for d in out] == [2]
        assert out[0].dest == READER_A
        assert out[0].submessage.reader_entity_id == 21
        # The resent payload is a view of the cached message, not a copy.
        assert out[0].submessage.payload.obj is history.by_seq[2][2]  # its message
        assert out[0].submessage.payload == b"p2"
        # Asking again inside the response delay is suppressed.
        assert session.on_acknack(READER_A, nack, now_ns=12 * MS) == []
        again = session.on_acknack(READER_A, nack, now_ns=16 * MS)
        assert [d.submessage.sequence for d in again] == [2]

    def test_gone_sequences_answered_with_gap(self):
        history, session = _writer(history_kind=qos.HistoryKind.KEEP_LAST, depth=1)
        session.add_reader(READER_A, wants_history=False, now_ns=0)
        _write(history, session, 1)
        _write(history, session, 2)  # evicts 1 from keep-last(1), unannounced
        assert sorted(history.by_seq) == [2]
        # A request for the evicted sequence gets a GAP to that reader alone.
        nack = wire.AckNack(21, Guid(b"\x00" * 12, 11), 1, (1,))
        out = session.on_acknack(READER_A, nack, now_ns=MS)
        assert [type(d.submessage) for d in out] == [wire.Gap]
        assert out[0].dest == READER_A
        assert (out[0].submessage.gap_start, out[0].submessage.gap_end) == (1, 1)

    def test_acked_samples_release_from_volatile_history(self):
        history, session = _writer()
        session.add_reader(READER_A, wants_history=False, now_ns=0)
        session.add_reader(READER_B, wants_history=False, now_ns=0)
        for seq in (1, 2, 3):
            _write(history, session, seq)
        session.on_acknack(READER_A, wire.AckNack(21, Guid(b"\x00" * 12, 11), 4, ()), 0)
        assert len(history) == 3  # B still lags
        session.on_acknack(READER_B, wire.AckNack(22, Guid(b"\x00" * 12, 11), 3, ()), 0)
        assert sorted(history.by_seq) == [3]

    def test_transient_local_keeps_history_and_replays(self):
        history, session = _writer(transient_local=True)
        session.add_reader(READER_A, wants_history=False, now_ns=0)
        for seq in (1, 2):
            _write(history, session, seq)
        session.on_acknack(READER_A, wire.AckNack(21, Guid(b"\x00" * 12, 11), 3, ()), 0)
        assert len(history) == 2  # nothing released
        replay = session.add_reader(READER_B, wants_history=True,
                                    now_ns=0)
        assert [d.submessage.sequence for d in replay] == [1, 2]
        assert all(d.dest == READER_B for d in replay)
        assert all(d.submessage.reader_entity_id == 22 for d in replay)

    def test_late_joiner_without_history_request_gets_no_replay(self):
        history, session = _writer(transient_local=True)
        _write(history, session, 1)
        assert session.add_reader(READER_A, wants_history=False,
                                  now_ns=0) == []

    def test_remove_reader_releases_its_backlog(self):
        history, session = _writer()
        session.add_reader(READER_A, wants_history=False, now_ns=0)
        _write(history, session, 1)
        assert len(history) == 1
        session.remove_reader(READER_A)
        assert len(history) == 0
        assert session.all_acked() and not session.keeps_history


class TestReliableReaderSession:
    def _session(self):
        return ReliableReaderSession(Guid(b"\x07" * 12, 11), reader_entity_id=21)

    def test_fresh_and_duplicate_sequences(self):
        s = self._session()
        assert s.on_data(1) is True
        assert s.on_data(2) is True
        assert s.on_data(2) is False
        assert s.on_data(1) is False
        assert s.floor == 2
        assert s.unique_received == 2
        assert s.samples_lost == 0

    def test_out_of_order_arrivals_compact(self):
        s = self._session()
        assert s.on_data(3) is True
        assert (s.floor, list(s.held)) == (0, [3])
        assert s.on_data(1) is True
        assert (s.floor, list(s.held)) == (1, [3])
        assert s.on_data(2) is True
        assert s.floor == 3
        assert s.held == {}

    def test_heartbeat_produces_acknack_for_missing(self):
        s = self._session()
        s.on_data(1)
        s.on_data(3)
        ack = s.on_heartbeat(wire.Heartbeat(11, 1, 4, count=1))
        assert ack is not None
        assert ack.base_seq == 2
        assert ack.missing == (2, 4)
        assert ack.reader_entity_id == 21

    def test_stale_heartbeat_ignored(self):
        s = self._session()
        assert s.on_heartbeat(wire.Heartbeat(11, 1, 1, count=5)) is not None
        assert s.on_heartbeat(wire.Heartbeat(11, 1, 1, count=5)) is None
        assert s.on_heartbeat(wire.Heartbeat(11, 1, 1, count=4)) is None

    def test_caught_up_reader_acks_beyond_last(self):
        s = self._session()
        s.on_data(1)
        s.on_data(2)
        ack = s.on_heartbeat(wire.Heartbeat(11, 1, 2, count=1))
        assert ack.base_seq == 3
        assert ack.missing == ()

    def test_heartbeat_first_seq_gives_up_unoffered_range(self):
        s = self._session()
        s.on_data(1)
        ack = s.on_heartbeat(wire.Heartbeat(11, first_seq=5, last_seq=6, count=1))
        assert s.samples_lost == 3  # 2, 3, 4 are gone
        assert s.floor == 4
        assert ack.base_seq == 5
        assert ack.missing == (5, 6)

    def test_first_heartbeat_settles_what_was_never_sent(self):
        """A reader matched mid-stream is owed nothing below the lower of
        the first heartbeat's first_seq and its first arrival; later
        heartbeats, and any after a GAP, give up skipped ranges as before."""
        s = self._session()
        s.on_data(6)
        ack = s.on_heartbeat(wire.Heartbeat(11, 6, 6, count=1))
        assert (s.floor, s.samples_lost, ack.base_seq) == (6, 0, 7)
        s.on_heartbeat(wire.Heartbeat(11, 9, 9, count=2))
        assert (s.floor, s.samples_lost) == (8, 2)  # 7 and 8 were sent, then given up
        below = self._session()
        below.on_data(2)
        below.on_heartbeat(wire.Heartbeat(11, 4, 4, count=1))
        assert (below.floor, below.samples_lost) == (3, 1)  # 3 came after 2: owed
        gapped = self._session()
        gapped.on_gap(wire.Gap(11, 1, 2))
        gapped.on_heartbeat(wire.Heartbeat(11, 5, 5, count=1))
        assert (gapped.floor, gapped.samples_lost) == (4, 4)

    def test_given_up_range_settles_what_arrived_above_it(self):
        """A reader matched mid-stream first sees 4, 6 and 8: the first
        heartbeat settles 1-3 and must also settle 4, so the ACKNACK
        starts at the lowest missing sequence, as the encoder requires."""
        s = self._session()
        for seq in (4, 6, 8):
            s.on_data(seq)
        ack = s.on_heartbeat(wire.Heartbeat(11, 4, 8, count=1))
        assert s.floor == 4
        assert (ack.base_seq, ack.missing) == (5, (5, 7))
        wire.encode_message(wire.WireMessage(b"\x00" * 12, (ack,)))
        gap = self._session()
        gap.on_data(3)
        gap.on_gap(wire.Gap(11, 1, 2))
        assert gap.floor == 3

    def test_gap_counts_only_unreceived(self):
        s = self._session()
        s.on_data(1)
        s.on_data(3)
        s.on_gap(wire.Gap(11, 2, 5))
        assert s.samples_lost == 3  # 2, 4, 5
        assert s.floor == 5
        assert s.on_data(4) is False  # arrived after being written off

    def test_acknack_window_capped_at_256(self):
        s = self._session()
        ack = s.on_heartbeat(wire.Heartbeat(11, 1, 10_000, count=1))
        assert ack.base_seq == 1
        assert len(ack.missing) == wire.ACKNACK_MAX_BITS
        assert ack.missing[-1] == 256
        wire.encode_message(wire.WireMessage(b"\x00" * 12, (ack,)))


class TestBestEffortReaderSession:
    def _session(self):
        return BestEffortReaderSession(Guid(b"\x07" * 12, 11))

    def test_in_order_stream(self):
        s = self._session()
        for seq in (1, 2, 3):
            assert s.on_data(seq) is True
        assert (s.unique_received, s.samples_lost) == (3, 0)

    def test_skip_counts_losses(self):
        s = self._session()
        s.on_data(1)
        s.on_data(5)
        assert s.samples_lost == 3
        assert s.unique_received == 2

    def test_straggler_counts_as_received_once(self):
        s = self._session()
        s.on_data(1)
        s.on_data(4)
        assert s.samples_lost == 2
        assert s.on_data(2) is False  # late: arrived but stays undelivered
        assert s.samples_lost == 1
        assert s.unique_received == 3
        assert s.on_data(2) is False  # duplicate of the straggler
        assert (s.samples_lost, s.unique_received) == (1, 3)

    def test_delivered_duplicate_not_recounted(self):
        s = self._session()
        s.on_data(1)
        assert s.on_data(1) is False
        assert (s.unique_received, s.samples_lost) == (1, 0)

    def test_sequences_older_than_window_ignored(self):
        s = self._session()
        s.on_data(1)
        s.on_data(BestEffortReaderSession.WINDOW + 100)
        lost_before = s.samples_lost
        assert s.on_data(2) is False
        assert s.samples_lost == lost_before  # too old to classify; unchanged
        assert s.unique_received == 2

    def test_recent_window_is_bounded(self):
        s = self._session()
        for seq in range(1, 3000):
            s.on_data(seq)
        # The ring holds one seen flag per window slot: at most WINDOW + 1
        # sequences are ever remembered, however long the stream.
        assert len(s._seen) <= BestEffortReaderSession.WINDOW + 1
        assert sum(s._seen) <= BestEffortReaderSession.WINDOW + 1


class TestDirectedRouting:
    def test_directed_dataclass_carries_destination(self):
        d = Directed(READER_A, wire.Gap(1, 1, 1))
        assert d.dest == READER_A
        assert d.submessage == wire.Gap(1, 1, 1)
