"""A listener inside a run: the reader's counters as it reads them at
each call, and after it ends the run by closing the reader or by
unmatching the writer.

B drains one run of eight one-DATA datagrams sent under A's writer:
sequence 1 twice, 2, a malformed 3, then 4 to 7. The listener fires for 1, 2
and 4, reads ``statistics()`` every time, and on its third call closes
its reader (or has B unmatch the writer, as discovery does when the
writer leaves). Every counter reads as if the run were taken one DATA
at a time, except ``sequences_seen``: the session takes the whole run
before the first sample is handed on, so 5 to 7, which did arrive
before the close, count as seen from the first call on.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.reader import ReaderStats
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
KINDS = {"reliable": [qos.Reliability(qos.ReliabilityKind.RELIABLE),
                      qos.History(qos.HistoryKind.KEEP_ALL)],
         "best-effort": [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT),
                         qos.History(qos.HistoryKind.KEEP_ALL)]}
RUN = (1, 1, 2, 3, 4, 5, 6, 7)
MALFORMED = 3


def _stats(received, duplicates, accepted, seen):
    return ReaderStats(samples_received=received, duplicates_discarded=duplicates,
                       malformed_payloads=int(received >= 3), samples_accepted=accepted,
                       sequences_seen=seen)


# What the listener reads at each of its three calls, and what the
# reader reports after the run.
AT_CALLS = [_stats(1, 0, 1, 7), _stats(2, 1, 2, 7), _stats(4, 1, 3, 7)]
AFTER = _stats(4, 1, 3, 7)


@pytest.fixture(params=sorted(KINDS))
def run_setup(request):
    """A's writer matched with one reader on B, and a rogue address that
    sends B datagrams under A's prefix."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock, static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    policies = KINDS[request.param]
    writer = a.create_datawriter(a.create_topic("t", COUNTER), policies)
    reader = b.create_datareader(b.create_topic("t", COUNTER), policies)
    for participant in (a, b, a, b):
        participant.spin_once()
    assert reader.matched_writers() == [writer.guid]
    rogue = net.attach("rogue")
    for seq in RUN:
        payload = (b"\x01" if seq == MALFORMED
                   else idl.serialize(COUNTER, idl.make_sample(COUNTER, {"n": seq})))
        rogue.send(wire.encode_message(wire.WireMessage(writer.guid.prefix, (
            wire.Data(writer.guid.entity_id, 0, seq, 0, 0, payload),))), "B")
    yield b, writer, reader
    a.close()
    b.close()


def _listen(reader, end_run):
    read = []

    def listener(r):
        read.append(r.statistics())
        if len(read) == 3:
            end_run()

    reader.listener = listener
    return read


def test_closing_the_reader_at_the_third_sample(run_setup):
    b, _, reader = run_setup
    read = _listen(reader, reader.close)
    assert b.spin_once() == len(RUN)
    assert read == AT_CALLS
    assert reader.statistics() == AFTER
    assert [s.values for s, _ in reader.take()] == [(1,), (2,), (4,)]


def test_unmatching_the_writer_at_the_third_sample(run_setup):
    b, writer, reader = run_setup
    read = _listen(reader, lambda: b._unmatch(writer.guid))
    assert b.spin_once() == len(RUN)
    assert read == AT_CALLS
    assert reader.statistics() == AFTER
    assert reader.matched_writers() == []
    assert [s.values for s, _ in reader.take()] == [(1,), (2,), (4,)]
