"""Endpoint descriptors, the matching rule, and the endpoints' base class.

A writer/reader pair matches when domain, topic name and type name agree,
partition name lists intersect, and the reader's requested QoS is satisfiable
by the writer's offer. Incompatibility is reported as data, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from minidds import qos
from minidds.dcps.guid import Guid
from minidds.dcps.timing import DeadlineTracker
from minidds.qos import RxoQos


class EndpointType(IntEnum):
    WRITER = 0
    READER = 1


@dataclass(frozen=True)
class EndpointDescriptor:
    guid: Guid
    domain_id: int
    topic_name: str
    type_name: str
    kind: EndpointType
    rxo: RxoQos = field(default_factory=RxoQos)


@dataclass(frozen=True)
class MatchRecord:
    local_guid: Guid
    remote: EndpointDescriptor
    report: qos.CompatibilityReport


@dataclass(frozen=True)
class NoMatch:
    reason: str
    report: Optional[qos.CompatibilityReport] = None


def match_endpoints(a: EndpointDescriptor, b: EndpointDescriptor) -> MatchRecord | NoMatch:
    """Match one writer-side and one reader-side descriptor.

    Symmetric in its arguments; the returned record is oriented from ``a``.
    """
    if a.kind == b.kind:
        raise ValueError("matching needs one writer and one reader")
    writer, reader = (a, b) if a.kind == EndpointType.WRITER else (b, a)
    if writer.domain_id != reader.domain_id:
        return NoMatch("different domains")
    if writer.topic_name != reader.topic_name:
        return NoMatch("different topics")
    if writer.type_name != reader.type_name:
        return NoMatch(f"topic {writer.topic_name!r} has conflicting types")
    if not qos.partitions_intersect(writer.rxo.partitions, reader.rxo.partitions):
        return NoMatch("partitions do not intersect")
    report = qos.check_rxo(writer.rxo, reader.rxo)
    if not report.compatible:
        return NoMatch(f"requested QoS exceeds offer: {report.describe()}", report)
    return MatchRecord(a.guid, b, report)


class Endpoint:
    """What a writer and a reader share. Each kind makes and unmakes its
    own side of a match: ``_add_match(record, now_ns)`` records a new one,
    and ``_remove_match(guid)`` forgets one, if matched. A pair is matched
    once and unmatched once: a changed remote descriptor is unmatched and
    then matched afresh, and a remote endpoint has one owner, the peer
    whose prefix its GUID carries."""

    def __init__(self, participant, topic, profile: qos.QosProfile,
                 descriptor: EndpointDescriptor):
        self.participant = participant
        self.topic = topic
        self.qos = profile
        self.guid = descriptor.guid
        self.descriptor = descriptor
        self.type = topic.type
        self._reliable = (profile.value(qos.QosPolicyId.RELIABILITY).kind
                          == qos.ReliabilityKind.RELIABLE)
        self._deadlines = DeadlineTracker(
            profile.value(qos.QosPolicyId.DEADLINE).period_ns)
        self._match_records: dict[Guid, MatchRecord] = {}  # by remote GUID
        self.closed = False

    def matches(self) -> list[MatchRecord]:
        with self.participant._lock:
            return list(self._match_records.values())

    def _matched_guids(self) -> list[Guid]:
        with self.participant._lock:
            return list(self._match_records)

    def check_deadlines(self, now_ns: Optional[int] = None) -> list[tuple[int, int]]:
        with self.participant._lock:
            if now_ns is None:
                now_ns = self.participant.clock.monotonic_ns()
            return self._deadlines.missed(now_ns)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.participant._drop_endpoint(self)
