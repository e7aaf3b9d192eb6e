"""A writer caches each sample as an exact tuple ``(sequence,
instance_handle, message, source_timestamp_ns, expiry_wall_ns)``;
``message`` is the one-DATA datagram the write sent. The record is one
object with no ``__dict__``, whether a test or ``DataWriter.write``
built it.

CPython's cyclic GC untracks an exact tuple whose items are all
untracked at the first collection that meets it, and ints and bytes
are never tracked, so a full writer cache adds nothing to the
collector's later passes. A named tuple, a subclass, would stay tracked.
"""

import gc

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.history import WriterHistory
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
KEYED = idl.parse_idl("struct KV { long id; //@key\n string v; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]
DURABLE = [qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)]


def test_a_cached_record_is_one_object():
    history = WriterHistory(qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits())
    record = (1, 0, b"payload", 5, qos.INFINITE_NS)
    history.insert(record)
    assert history.by_seq[1] is record
    assert not hasattr(record, "__dict__")


def test_a_written_record_is_an_exact_tuple():
    """A TRANSIENT_LOCAL writer caches every write, matched or not, as
    the message of its one DATA."""
    with DomainParticipant(0, transport=InProcNetwork().attach("solo"),
                           clock=ManualClock(1_000_000_000)) as participant:
        writer = participant.create_datawriter(
            participant.create_topic("counters", COUNTER), DURABLE)
        sequence = writer.write({"n": 42})
        record = writer.history.by_seq[sequence]
        assert type(record) is tuple
        payload = idl.serialize(COUNTER, idl.Sample("Counter", (42,)))
        message = wire.pack_data_message(participant.guid.prefix, writer.guid.entity_id,
                                         0, sequence, 1_000_000_000, idl.UNKEYED_HANDLE,
                                         payload)
        assert record == (sequence, idl.UNKEYED_HANDLE, message, 1_000_000_000,
                          qos.INFINITE_NS)
        assert record[2][wire.DATA_PAYLOAD_START:] == payload


@pytest.mark.parametrize("policies, matched", [
    (RELIABLE, True),
    (RELIABLE + [qos.Lifespan(60_000_000_000)], True),
    (DURABLE + [qos.History(qos.HistoryKind.KEEP_ALL)], False),
])
def test_a_collection_untracks_every_cached_record(policies, matched):
    """A RELIABLE writer whose reader acknowledges nothing, with and
    without a finite lifespan, and a TRANSIENT_LOCAL KEEP_ALL one with no
    reader, keep every keyed write; after one collection none of the records is
    tracked."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    with DomainParticipant(0, transport=net.attach("A"), clock=clock,
                           static_peers=("B",)) as a, \
            DomainParticipant(0, transport=net.attach("B"), clock=clock) as b:
        writer = a.create_datawriter(a.create_topic("t", KEYED), policies)
        if matched:
            reader = b.create_datareader(b.create_topic("t", KEYED), RELIABLE)
            for _ in range(3):
                a.spin_once()
                b.spin_once()
            assert writer.matched_readers() == [reader.guid]
        for n in range(200):
            writer.write({"id": n % 7, "v": "x" * n})
        records = list(writer.history.by_seq.values())
        assert len(records) == 200
        gc.collect()
        assert {type(record) for record in records} == {tuple}
        assert not any(gc.is_tracked(record) for record in records)
