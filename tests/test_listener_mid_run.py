"""A listener and the datagrams of one drain: the reader's counters as
it reads them at each call, and what closing the reader or unmatching
the writer from it does to the DATA still to come.

B drains eight one-DATA datagrams sent under A's writer: sequence 1
twice, 2, a malformed 3, then 4 to 7, all of one instance. A KEEP_ALL
reader takes them as one run, and its listener is called once, at the
end of the spin: it reads ``statistics()`` as of the whole run and finds
every good sample cached. A KEEP_LAST reader could lose a sample to the
next one of its instance, so it holds back each DATA of an instance its
cache accepted since the listener last returned, with every entry after
it, and its listener is called, with the lock released, after 1, 2 and
4 (a duplicate or malformed DATA makes no call). The duplicate comes
before the first DATA held back, so it counts at the first call; every
sequence has arrived, held back or not, so ``sequences_seen`` reads 7
at each call. At its last call the listener closes its reader (or has B
unmatch the writer, as discovery does when the writer leaves): the DATA
still held back, 5 to 7, count as lost and are not cached, and a later
one is neither counted nor cached; none calls the listener.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.reader import ReaderStats
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
KINDS = {"reliable": qos.Reliability(qos.ReliabilityKind.RELIABLE),
         "best-effort": qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)}
HISTORIES = {"keep-all": qos.History(qos.HistoryKind.KEEP_ALL),
             "keep-last": qos.History(qos.HistoryKind.KEEP_LAST, 8)}
RUN = (1, 1, 2, 3, 4, 5, 6, 7)
MALFORMED = 3


def _stats(received, duplicates, accepted, seen=7, lost=0):
    return ReaderStats(samples_received=received, duplicates_discarded=duplicates,
                       malformed_payloads=int(received >= 3), samples_accepted=accepted,
                       sequences_seen=seen, samples_lost=lost)


# Per history: what the listener reads at each call, the last of which
# ends the delivery, what the reader reads once it has, and what the
# reader caches.
EXPECTED = {
    "keep-all": ([_stats(7, 1, 6)], _stats(7, 1, 6), [(1,), (2,), (4,), (5,), (6,), (7,)]),
    "keep-last": ([_stats(1, 1, 1), _stats(2, 1, 2), _stats(4, 1, 3)], _stats(4, 1, 3, lost=3),
                  [(1,), (2,), (4,)]),
}


@pytest.fixture(params=[(k, h) for k in sorted(KINDS) for h in sorted(HISTORIES)],
                ids="-".join)
def run_setup(request):
    """A's writer matched with one reader on B, and a rogue address that
    sends B datagrams under A's prefix."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    kind, history = request.param
    policies = [KINDS[kind], HISTORIES[history]]
    writer = a.create_datawriter(a.create_topic("t", COUNTER), policies)
    reader = b.create_datareader(b.create_topic("t", COUNTER), policies)
    for participant in (a, b, a, b):
        participant.spin_once()
    assert reader.matched_writers() == [writer.guid]
    rogue = net.attach("rogue")

    def send(seq):
        payload = (b"\x01" if seq == MALFORMED
                   else idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": seq})))
        rogue.send(wire.encode_message(wire.WireMessage(writer.guid.prefix, (
            wire.Data(writer.guid.entity_id, 0, seq, 0, 0, payload),))), "B")

    for seq in RUN:
        send(seq)
    yield b, writer, reader, send, EXPECTED[history]
    a.close()
    b.close()


def _check(b, reader, send, expected, end_delivery):
    at_calls, at_end, cached = expected
    read = []

    def listener(r):
        read.append(r.statistics())
        if len(read) == len(at_calls):
            end_delivery()

    reader.listener = listener
    assert b.spin_once() == len(RUN)
    assert read == at_calls
    assert reader.statistics() == at_end
    send(len(RUN))  # sequence 8
    assert b.spin_once() == 1
    assert read == at_calls
    assert reader.statistics() == at_end
    assert [s.values for s, _ in reader.take()] == cached


def test_closing_the_reader_from_its_listener(run_setup):
    b, _, reader, send, expected = run_setup
    _check(b, reader, send, expected, reader.close)


def test_unmatching_the_writer_from_its_listener(run_setup):
    b, writer, reader, send, expected = run_setup
    _check(b, reader, send, expected, lambda: b._unmatch(writer.guid))
    assert reader.matched_writers() == []
