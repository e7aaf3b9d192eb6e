"""``match_endpoints`` refuses a pair before QoS is looked at: another
domain, another topic, or one topic under two type names, each with its
own reason and no compatibility report; two endpoints of one kind are a
caller's error. End to end, two participants that declare one topic
under different type names discover each other and stay unmatched."""

import pytest

from minidds import idl
from minidds.clock import ManualClock
from minidds.dcps.guid import Guid
from minidds.dcps.matching import (EndpointDescriptor, EndpointType, MatchRecord, NoMatch,
                                   match_endpoints)
from minidds.dcps.participant import DomainParticipant
from minidds.rtps.transport import InProcNetwork


def _endpoint(kind, *, domain=0, topic="t", type_name="T", prefix=b"\x01"):
    return EndpointDescriptor(Guid(prefix * 12, 1), domain, topic, type_name, kind)


WRITER = _endpoint(EndpointType.WRITER)
READER = _endpoint(EndpointType.READER, prefix=b"\x02")


@pytest.mark.parametrize("reader, reason", [
    (_endpoint(EndpointType.READER, prefix=b"\x02", domain=1), "different domains"),
    (_endpoint(EndpointType.READER, prefix=b"\x02", topic="u"), "different topics"),
    (_endpoint(EndpointType.READER, prefix=b"\x02", type_name="U"),
     "topic 't' has conflicting types"),
], ids=["domain", "topic", "type"])
def test_a_pair_that_differs_before_qos_is_refused_with_its_reason(reader, reason):
    for a, b in ((WRITER, reader), (reader, WRITER)):
        assert match_endpoints(a, b) == NoMatch(reason)


def test_a_pair_that_agrees_matches_from_either_side():
    forward, backward = match_endpoints(WRITER, READER), match_endpoints(READER, WRITER)
    assert isinstance(forward, MatchRecord) and isinstance(backward, MatchRecord)
    assert (forward.local_guid, forward.remote) == (WRITER.guid, READER)
    assert (backward.local_guid, backward.remote) == (READER.guid, WRITER)


@pytest.mark.parametrize("kind", list(EndpointType), ids=lambda k: k.name)
def test_two_endpoints_of_one_kind_are_a_callers_error(kind):
    with pytest.raises(ValueError, match="one writer and one reader"):
        match_endpoints(_endpoint(kind), _endpoint(kind, prefix=b"\x02"))


def test_participants_that_type_one_topic_differently_stay_unmatched():
    first, = idl.parse_idl("struct Reading { long n; };")
    second, = idl.parse_idl("struct Sample { long n; };")
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    with DomainParticipant(0, transport=net.attach("A"), clock=clock,
                           static_peers=("B",)) as a, \
            DomainParticipant(0, transport=net.attach("B"), clock=clock) as b:
        writer = a.create_datawriter(a.create_topic("t", first))
        reader = b.create_datareader(b.create_topic("t", second))
        for _ in range(3):
            a.spin_once()
            b.spin_once()
        assert (a.discovery.peer_count(), b.discovery.peer_count()) == (1, 1)
        assert writer.matched_readers() == [] and reader.matched_writers() == []
        assert a.incompatible_qos == [] and b.incompatible_qos == []
        writer.write({"n": 1})
        b.spin_once()
        assert reader.take() == []
        assert reader.statistics().samples_received == 0
