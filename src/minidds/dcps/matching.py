"""Discovery-visible endpoint descriptors and the matching rule.

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
