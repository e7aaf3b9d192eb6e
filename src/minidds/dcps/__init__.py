"""Publish/subscribe entities: participants, topics, writers, readers."""

from minidds.dcps.errors import (InconsistentTopicError, InvalidQosError,
                                 SampleTooLargeError, TransportUnavailableError)
from minidds.dcps.guid import Guid, fresh_prefix
from minidds.dcps.history import (InsertOutcome, ReaderHistory, ResourceLimitsError,
                                  SampleInfo, WriterHistory)
from minidds.dcps.matching import (EndpointDescriptor, EndpointType, MatchRecord,
                                   NoMatch, RxoQos, match_endpoints)
from minidds.dcps.participant import (DomainParticipant, Topic, create_participant)
from minidds.dcps.reader import DataReader, ReaderStats
from minidds.dcps.writer import DataWriter

__all__ = [
    "DataReader",
    "DataWriter",
    "DomainParticipant",
    "EndpointDescriptor",
    "EndpointType",
    "Guid",
    "InconsistentTopicError",
    "InsertOutcome",
    "InvalidQosError",
    "MatchRecord",
    "NoMatch",
    "ReaderHistory",
    "ReaderStats",
    "ResourceLimitsError",
    "RxoQos",
    "SampleInfo",
    "SampleTooLargeError",
    "Topic",
    "TransportUnavailableError",
    "WriterHistory",
    "create_participant",
    "fresh_prefix",
    "match_endpoints",
]
