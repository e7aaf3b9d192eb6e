"""``WriterSample`` is an immutable named record of ``(sequence,
instance_handle, message, source_timestamp_ns, expiry_wall_ns)``, the
last defaulting to ``qos.INFINITE_NS``; ``message`` is the one-DATA
datagram the write sent. Each cached record is one object
with no ``__dict__``, whether a test or ``DataWriter.write`` built it.

It stays tracked by the cyclic GC: CPython untracks only exact tuples
whose items are all untracked, and a named tuple is a subclass.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps import WriterSample
from minidds.dcps.history import WriterHistory
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]


def test_construction_by_position_and_by_keyword():
    by_position = WriterSample(3, 7, b"ab", 11, 99)
    by_keyword = WriterSample(sequence=3, instance_handle=7, message=b"ab",
                              source_timestamp_ns=11, expiry_wall_ns=99)
    assert by_position == by_keyword
    assert (by_position.sequence, by_position.instance_handle, by_position.message,
            by_position.source_timestamp_ns, by_position.expiry_wall_ns) == (3, 7, b"ab", 11, 99)
    assert WriterSample._fields == ("sequence", "instance_handle", "message",
                                    "source_timestamp_ns", "expiry_wall_ns")


def test_expiry_defaults_to_infinite():
    assert WriterSample(1, 0, b"", 0).expiry_wall_ns == qos.INFINITE_NS
    assert WriterSample._field_defaults == {"expiry_wall_ns": qos.INFINITE_NS}


def test_is_immutable():
    sample = WriterSample(1, 0, b"x", 5)
    with pytest.raises(AttributeError):
        sample.expiry_wall_ns = 10
    with pytest.raises(TypeError):
        sample[0] = 2
    assert sample._replace(expiry_wall_ns=10) == WriterSample(1, 0, b"x", 5, 10)
    assert sample.expiry_wall_ns == qos.INFINITE_NS


def test_equality_and_hash():
    sample = WriterSample(1, 2, b"x", 3, 4)
    assert sample == WriterSample(1, 2, b"x", 3, 4)
    assert sample == (1, 2, b"x", 3, 4)  # equals the plain tuple
    assert sample != WriterSample(1, 2, b"y", 3, 4)
    assert sample != WriterSample(1, 2, b"x", 3)
    assert hash(sample) == hash((1, 2, b"x", 3, 4))


def test_a_cached_record_is_one_object():
    history = WriterHistory(qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits())
    history.insert(WriterSample(1, 0, b"payload", 5))
    record = history.by_seq[1]
    assert not hasattr(record, "__dict__")


def test_a_written_record_is_a_writer_sample():
    """A TRANSIENT_LOCAL writer caches every write, matched or not, as
    the message of its one DATA."""
    with DomainParticipant(0, transport=InProcNetwork().attach("solo"),
                           clock=ManualClock(1_000_000_000)) as participant:
        writer = participant.create_datawriter(
            participant.create_topic("counters", COUNTER),
            [qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)])
        sequence = writer.write({"n": 42})
        record = writer.history.by_seq[sequence]
        assert type(record) is WriterSample
        assert not hasattr(record, "__dict__")
        payload = idl.serialize(COUNTER, idl.Sample("Counter", (42,)))
        assert record == (sequence, idl.UNKEYED_HANDLE, wire.pack_data_message(
            participant.guid.prefix, wire.Data(writer.guid.entity_id, 0, sequence,
                                               1_000_000_000, idl.UNKEYED_HANDLE, payload)),
                          1_000_000_000, qos.INFINITE_NS)
        assert record.message[wire.DATA_PAYLOAD_START:] == payload
