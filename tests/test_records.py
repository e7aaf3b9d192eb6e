"""The records built per sample, per datagram and per lookup: immutable,
hashable and compared by value, with ``Guid`` keeping its validation,
ordering, text form and byte form."""

import pytest

from minidds.dcps.guid import Guid
from minidds.dcps.history import InsertOutcome, SampleInfo
from minidds.dcps.matching import EndpointDescriptor, EndpointType
from minidds.rtps import wire
from minidds.rtps.reliability import Directed

PREFIX = bytes(range(12))
GUID = Guid(PREFIX, 7)


def _records():
    """Two equal, separately built copies of each record kind."""
    def build():
        heartbeat = wire.Heartbeat(3, 1, 9, 2)
        return [
            wire.Data(3, 0, 5, 1_000, 2**63, b"payload"),
            heartbeat,
            wire.AckNack(4, Guid(PREFIX, 3), 6, (6, 8)),
            wire.Gap(3, 2, 4),
            wire.Direct(4, heartbeat),
            wire.WireMessage(PREFIX, (heartbeat,)),
            wire.Announce(0, (EndpointDescriptor(Guid(PREFIX, 3), 0, "t", "T",
                                                 EndpointType.WRITER),)),
            Directed(Guid(PREFIX, 4), heartbeat),
            SampleInfo(Guid(PREFIX, 3), 5, 1_000, 2_000, 9),
            InsertOutcome(True, None, False, 2),
            Guid(PREFIX, 7),
        ]
    return list(zip(build(), build()))


@pytest.mark.parametrize("record, twin", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(record, twin):
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert {record: 1}[twin] == 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_of_other_values_differ():
    assert wire.Gap(3, 2, 4) != wire.Gap(3, 2, 5)
    assert SampleInfo(GUID, 5, 0, 0, 1) != SampleInfo(GUID, 6, 0, 0, 1)
    assert wire.AckNack(4, GUID, 6) == wire.AckNack(4, GUID, 6, ())
    assert InsertOutcome(False, "max_samples") != InsertOutcome(False, "max_instances")
    assert InsertOutcome(False, "max_samples") == InsertOutcome(
        accepted=False, reason="max_samples", evicted_arriving=False, evicted_count=0)


@pytest.mark.parametrize("prefix, entity_id, message", [
    (bytes(11), 1, "guid prefix must be 12 bytes"),
    (bytes(13), 1, "guid prefix must be 12 bytes"),
    (PREFIX, -1, "entity id must fit 32 bits"),
    (PREFIX, 2**32, "entity id must fit 32 bits"),
])
def test_guid_validation_errors(prefix, entity_id, message):
    with pytest.raises(ValueError) as info:
        Guid(prefix, entity_id)
    assert str(info.value) == message


def test_guid_replace_validates():
    assert GUID._replace(entity_id=8) == Guid(PREFIX, 8)
    with pytest.raises(ValueError):
        GUID._replace(entity_id=2**32)


def test_guid_from_bytes_checks_length():
    with pytest.raises(ValueError) as info:
        Guid.from_bytes(bytes(15))
    assert str(info.value) == "guid must be 16 bytes"


def test_guid_sorts_by_prefix_then_entity_id():
    low, high = b"\x01" * 12, b"\x02" * 12
    guids = [Guid(high, 1), Guid(low, 2**32 - 1), Guid(high, 0), Guid(low, 5)]
    assert sorted(guids) == [Guid(low, 5), Guid(low, 2**32 - 1), Guid(high, 0), Guid(high, 1)]
    assert Guid(low, 9) < Guid(high, 0) and Guid(low, 1) < Guid(low, 2)


def test_guid_text_and_bytes():
    assert str(GUID) == "000102030405060708090a0b.00000007"
    assert GUID.to_bytes() == PREFIX + b"\x07\x00\x00\x00"
    assert Guid.from_bytes(GUID.to_bytes()) == GUID
    assert (GUID.prefix, GUID.entity_id) == (PREFIX, 7)


def test_guid_hashes_as_its_fields():
    # Dict and set orders, and so seeded runs, depend on this hash.
    for entity_id in (0, 7, 2**32 - 1):
        assert hash(Guid(PREFIX, entity_id)) == hash((PREFIX, entity_id))
