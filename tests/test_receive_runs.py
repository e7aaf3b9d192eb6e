"""Receive in runs: the consecutive one-DATA datagrams of a drained batch
that share a sender, a writer and an addressed reader form a run, and
each matched reader takes the whole run in one pass of its arrival
pipeline, one reader after another in creation order. Any other datagram
ends the run, which is delivered before it. Every case runs on
``InProcNetwork`` and a ``ManualClock``."""

import tracemalloc

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.reader import DataReader
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]


def _payload(n):
    return idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": n}))


def _spin(*participants):
    for participant in participants:
        participant.spin_once()


def _values(reader):
    return [sample.values for sample, _ in reader.take()]


@pytest.fixture
def pair():
    """Participants A (static peer B) and B, and a rogue address that can
    send B datagrams under any sender prefix."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    yield a, b, net.attach("rogue")
    a.close()
    b.close()


def _matched(a, b, readers=2, writers=1):
    """Reliable writers on A and as many matched reliable readers on B."""
    topic = a.create_topic("t", COUNTER)
    made = [a.create_datawriter(topic, RELIABLE) for _ in range(writers)]
    on_b = [b.create_datareader(b.create_topic("t", COUNTER), RELIABLE)
            for _ in range(readers)]
    _spin(a, b, a, b)  # B's queue is empty
    assert all(len(r.matched_writers()) == writers for r in on_b)
    return made, on_b


def _send_data(rogue, writer, seq, payload=None, reader_eid=0):
    """One datagram of one DATA from ``writer``, sent to B."""
    rogue.send(wire.encode_message(wire.WireMessage(writer.guid.prefix, (wire.Data(
        writer.guid.entity_id, reader_eid, seq, 0, 0,
        _payload(seq) if payload is None else payload),))), "B")


def _runs(monkeypatch):
    """(reader, writer entity id, sequences) per call of the pipeline."""
    runs = []
    handle_data = DataReader._handle_data

    def recording(self, session, infos, slots, now_wall_ns):
        runs.append((self, infos[0].writer_guid.entity_id, [i.sequence for i in infos]))
        return handle_data(self, session, infos, slots, now_wall_ns)

    monkeypatch.setattr(DataReader, "_handle_data", recording)
    return runs


def test_a_heartbeat_after_a_run_is_answered_with_the_run_counted(pair, monkeypatch):
    a, b, rogue = pair
    (writer,), (reader,) = _matched(a, b, readers=1)
    acks = []
    send = b.transport.send

    def recording(data, dest):
        acks.extend(s for s in wire.decode_message(data).submessages
                    if isinstance(s, wire.AckNack))
        send(data, dest)

    monkeypatch.setattr(b.transport, "send", recording)
    for seq in (1, 2, 3):
        _send_data(rogue, writer, seq)
    rogue.send(wire.encode_message(wire.WireMessage(writer.guid.prefix, (
        wire.Heartbeat(writer.guid.entity_id, 1, 3, 1),))), "B")
    assert b.spin_once() == 4
    assert [(ack.base_seq, ack.missing) for ack in acks] == [(4, ())]
    assert _values(reader) == [(1,), (2,), (3,)]


def test_a_reader_closed_by_a_listener_keeps_the_run_and_gets_no_later_one(pair):
    """Listeners run after the whole run went to every reader: one that
    closes another reader leaves it the run, and takes it out of the next."""
    a, b, _ = pair
    (writer,), (first, second) = _matched(a, b)
    first.listener = lambda _r: second.close()
    for n in range(3):
        writer.write({"n": n})
    _spin(b)
    assert _values(first) == [(0,), (1,), (2,)]
    assert _values(second) == [(0,), (1,), (2,)]
    assert second.statistics().samples_received == 3
    assert second.matched_writers() == []
    writer.write({"n": 3})
    _spin(b)
    assert _values(first) == [(3,)]
    assert second.take() == [] and second.statistics().samples_received == 3


def test_a_listener_that_closes_its_own_reader_does_so_after_the_run(pair):
    a, b, _ = pair
    (writer,), (first, second) = _matched(a, b)
    first.listener = lambda r: r.close()
    for n in range(3):
        writer.write({"n": n})
    _spin(b)
    assert first.closed and first.statistics().samples_accepted == 3
    assert _values(second) == [(0,), (1,), (2,)]
    writer.write({"n": 3})
    _spin(b)
    assert first.statistics().samples_accepted == 3
    assert _values(second) == [(3,)]


def test_a_malformed_payload_mid_run_is_counted_per_reader(pair, monkeypatch):
    """Three readers of one topic: the malformed middle DATA is counted on
    each, its neighbours are delivered to each, and every DATA is
    deserialized once per participant."""
    a, b, rogue = pair
    (writer,), (first, second, third) = _matched(a, b, readers=3)
    decoded = []
    deserialize = idl.deserialize
    monkeypatch.setattr(idl, "deserialize", lambda descriptor, *data: (
        decoded.append(descriptor), deserialize(descriptor, *data))[1])
    _send_data(rogue, writer, 1)
    _send_data(rogue, writer, 2, payload=b"\x01")
    _send_data(rogue, writer, 3)
    _spin(b)
    for reader in (first, second, third):
        assert _values(reader) == [(1,), (3,)]
        assert reader.statistics().malformed_payloads == 1
        assert reader.statistics().samples_received == 3
    assert decoded == [COUNTER] * 3


def test_alternating_writers_form_separate_runs_in_order(pair, monkeypatch):
    a, b, rogue = pair
    (w1, w2), (first, second) = _matched(a, b, writers=2)
    runs = _runs(monkeypatch)
    for writer, seq in ((w1, 1), (w1, 2), (w2, 1), (w1, 3), (w2, 2), (w2, 3)):
        _send_data(rogue, writer, seq)
    _spin(b)
    e1, e2 = w1.guid.entity_id, w2.guid.entity_id
    expected = []
    for writer_eid, seqs in ((e1, [1, 2]), (e2, [1]), (e1, [3]), (e2, [2, 3])):
        expected += [(first, writer_eid, seqs), (second, writer_eid, seqs)]
    assert runs == expected
    for reader in (first, second):
        assert reader.statistics().samples_accepted == 6


def test_a_run_of_addressed_data_reaches_only_its_reader(pair, monkeypatch):
    a, b, rogue = pair
    (writer,), (first, second) = _matched(a, b)
    runs = _runs(monkeypatch)
    for seq in (1, 2, 3):  # retransmissions to the second reader
        _send_data(rogue, writer, seq, reader_eid=second.guid.entity_id)
    _spin(b)
    assert runs == [(second, writer.guid.entity_id, [1, 2, 3])]
    assert first.take() == [] and first.statistics().samples_received == 0
    assert _values(second) == [(1,), (2,), (3,)]


def test_one_spin_holds_a_burst_once_for_two_readers(pair):
    """200 samples of 20 kB are written and wait in B's queue for two
    readers of one type, and one spin caches them. From before the
    writes to the end of the spin the payloads are held once, in the
    shared messages, besides the decoded samples, which both readers
    share. The text is two bytes of UTF-8 per character and one in the
    decoded ``str``, so any second copy of the payloads shows: the peak
    reads 2.0 bursts with one, 1.54 without."""
    a, b, _ = pair
    blob = idl.parse_idl("struct Blob { string s; };")[0]
    writer = a.create_datawriter(a.create_topic("blob", blob), RELIABLE)
    readers = [b.create_datareader(b.create_topic("blob", blob), RELIABLE)
               for _ in range(2)]
    _spin(a, b, a)
    assert [r.matched_writers() for r in readers] == [[writer.guid]] * 2
    tracemalloc.start()
    try:
        for i in range(200):
            writer.write({"s": chr(0xC0 + i % 26) * 10_000})
        burst = sum(len(data) for data, _ in b.transport._queue)
        _spin(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert burst > 200 * 20_000
    assert [len(r.take()) for r in readers] == [200, 200]
    assert peak / burst < 1.75
