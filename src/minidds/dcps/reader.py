"""The reading endpoint: arrival pipeline, sample cache, statistics.

Every arriving sample runs the same gauntlet, in this order: lifespan
expiry, exclusive-ownership arbitration, time-based filtering, source-
timestamp ordering, then history insertion and listener notification.
Drops at each stage are counted per reason and queryable via
``statistics()``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from minidds import idl, qos
from minidds.dcps.guid import Guid
from minidds.dcps.history import ReaderHistory, SampleInfo
from minidds.dcps.matching import EndpointDescriptor, MatchRecord
from minidds.dcps.timing import DeadlineTracker
from minidds.rtps import wire
from minidds.rtps.reliability import BestEffortReaderSession, ReliableReaderSession

log = logging.getLogger(__name__)

# A listener that holds the dispatch context longer than this draws a
# warning; callbacks are documented as non-blocking.
_LISTENER_BUDGET_S = 0.1


@dataclass
class ReaderStats:
    samples_received: int = 0  # fresh samples entering the pipeline
    duplicates_discarded: int = 0
    malformed_payloads: int = 0
    lifespan_expired: int = 0
    ownership_filtered: int = 0
    time_filter_dropped: int = 0
    destination_order_dropped: int = 0
    rejected_by_limits: int = 0
    evicted_by_history: int = 0
    samples_accepted: int = 0
    samples_lost: int = 0  # sequences given up as unrecoverable
    sequences_seen: int = 0  # distinct sequences that arrived, delivered or not

    def drops(self) -> dict[str, int]:
        return {
            "lifespan_expired": self.lifespan_expired,
            "ownership_filtered": self.ownership_filtered,
            "time_filter_dropped": self.time_filter_dropped,
            "destination_order_dropped": self.destination_order_dropped,
            "rejected_by_limits": self.rejected_by_limits,
        }


@dataclass(slots=True)
class _InstanceState:
    last_accepted_ns: Optional[int] = None
    newest_source: Optional[tuple[int, Guid]] = None
    activity: Optional[dict[Guid, int]] = None  # writer -> last arrival


class DataReader:
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
        self._exclusive = (profile.value(qos.QosPolicyId.OWNERSHIP).kind
                           == qos.OwnershipKind.EXCLUSIVE)
        self._by_source = (profile.value(qos.QosPolicyId.DESTINATION_ORDER).kind
                           == qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)
        self._min_separation_ns = profile.value(
            qos.QosPolicyId.TIME_BASED_FILTER).minimum_separation_ns
        self._deadline_period_ns = profile.value(qos.QosPolicyId.DEADLINE).period_ns
        # Lifespan is a topic/writer policy; the reader enforces the value
        # configured on its own topic.
        self._lifespan_ns = topic.qos.value(qos.QosPolicyId.LIFESPAN).duration_ns
        self.history = ReaderHistory(profile.value(qos.QosPolicyId.HISTORY),
                                     profile.value(qos.QosPolicyId.RESOURCE_LIMITS))
        self._deadlines = DeadlineTracker(self._deadline_period_ns)
        self._sessions: dict[Guid, ReliableReaderSession | BestEffortReaderSession] = {}
        self._match_records: dict[Guid, MatchRecord] = {}
        self._instances: dict[int, _InstanceState] = {}
        self.stats = ReaderStats()
        self.listener: Optional[Callable[["DataReader"], None]] = None
        self.closed = False

    # -- matching (driven by the participant) -------------------------

    def _add_match(self, record: MatchRecord) -> None:
        remote = record.remote
        self._match_records[remote.guid] = record
        if remote.guid not in self._sessions:
            if self._reliable:
                self._sessions[remote.guid] = ReliableReaderSession(
                    remote.guid, self.guid.entity_id)
            else:
                self._sessions[remote.guid] = BestEffortReaderSession(remote.guid)

    def _remove_match(self, guid: Guid) -> None:
        self._match_records.pop(guid, None)
        session = self._sessions.pop(guid, None)
        if session is not None:
            # Keep the counters from a departed writer's session.
            self.stats.samples_lost += session.samples_lost
            self.stats.sequences_seen += session.unique_received

    def matches(self) -> list[MatchRecord]:
        return list(self._match_records.values())

    def matched_writers(self) -> list[Guid]:
        return list(self._match_records)

    # -- arrival pipeline ---------------------------------------------

    def _handle_data(self, writer_guid: Guid, sub: wire.Data,
                     now_mono_ns: int, now_wall_ns: int, decoded: list) -> None:
        """Run one DATA through the arrival pipeline. ``decoded`` is the
        caller's memo for this DATA alone, shared by the readers it is
        handed to: (type descriptor, sample) pairs, the sample None for a
        malformed payload, so the payload is deserialized once per type
        however many readers accept it."""
        session = self._sessions.get(writer_guid)
        if session is None:
            return
        # The session's guid, not the one decoded from this datagram, so
        # per-instance state and sample infos share one Guid per writer.
        writer_guid = session.writer_guid
        if not session.on_data(sub.sequence):
            self.stats.duplicates_discarded += 1
            return
        self.stats.samples_received += 1
        # Matched by identity: hashing the frozen descriptor costs microseconds.
        for descriptor, sample in decoded:
            if descriptor is self.type:
                break
        else:
            try:
                sample = idl.deserialize(self.type, sub.payload)
            except idl.DecodeError:
                sample = None
            decoded.append((self.type, sample))
        if sample is None:
            self.stats.malformed_payloads += 1
            return

        if (self._lifespan_ns != qos.INFINITE_NS
                and now_wall_ns > sub.source_timestamp_ns + self._lifespan_ns):
            self.stats.lifespan_expired += 1
            return

        handle = sub.instance_handle
        inst = self._instances.get(handle)
        if inst is None:
            inst = self._instances[handle] = _InstanceState()

        if self._exclusive:
            owns = self._arbitrate(inst, writer_guid, now_mono_ns)
            if inst.activity is None:
                inst.activity = {}
            inst.activity[writer_guid] = now_mono_ns
            if not owns:
                self.stats.ownership_filtered += 1
                return

        if (self._min_separation_ns > 0 and inst.last_accepted_ns is not None
                and now_mono_ns < inst.last_accepted_ns + self._min_separation_ns):
            self.stats.time_filter_dropped += 1
            return

        if self._by_source and inst.newest_source is not None:
            newest_ts, newest_guid = inst.newest_source
            newer = (sub.source_timestamp_ns > newest_ts
                     or (sub.source_timestamp_ns == newest_ts
                         and writer_guid < newest_guid))
            if not newer:
                self.stats.destination_order_dropped += 1
                return

        inst.last_accepted_ns = now_mono_ns
        if self._by_source:
            inst.newest_source = (sub.source_timestamp_ns, writer_guid)
        self._deadlines.record(handle, now_mono_ns)

        info = SampleInfo(writer_guid, sub.sequence, sub.source_timestamp_ns,
                          now_mono_ns, handle)
        outcome = self.history.insert(info, sample)
        if not outcome.accepted:
            self.stats.rejected_by_limits += 1
            return
        self.stats.evicted_by_history += outcome.evicted_count
        self.stats.samples_accepted += 1
        self._notify()

    def _arbitrate(self, inst: _InstanceState, arriving: Guid, now_ns: int) -> bool:
        """Whether the arriving writer currently owns the instance."""
        period = self._deadline_period_ns
        candidates = {arriving}
        for writer, seen_ns in (inst.activity or {}).items():
            if writer not in self._match_records:
                continue
            if period != qos.INFINITE_NS and now_ns - seen_ns >= period:
                continue  # missed the deadline; not alive
            candidates.add(writer)
        owner = min(candidates,
                    key=lambda g: (-self._strength_of(g), g))
        return owner == arriving

    def _strength_of(self, writer: Guid) -> int:
        record = self._match_records.get(writer)
        return record.remote.rxo.ownership_strength if record else 0

    def _notify(self) -> None:
        if self.listener is None:
            return
        began = time.monotonic()
        try:
            self.listener(self)
        except Exception:
            log.exception("reader listener raised")
        if __debug__ and time.monotonic() - began > _LISTENER_BUDGET_S:
            log.warning("reader listener blocked the dispatch context for %.0f ms",
                        (time.monotonic() - began) * 1e3)

    # -- protocol plumbing --------------------------------------------

    def _handle_heartbeat(self, writer_guid: Guid,
                          sub: wire.Heartbeat) -> Optional[wire.AckNack]:
        session = self._sessions.get(writer_guid)
        if isinstance(session, ReliableReaderSession):
            return session.on_heartbeat(sub)
        return None

    def _handle_gap(self, writer_guid: Guid, sub: wire.Gap) -> None:
        session = self._sessions.get(writer_guid)
        if isinstance(session, ReliableReaderSession):
            session.on_gap(sub)

    # -- application surface ------------------------------------------

    def read(self, max_samples: int = 2**31) -> list[tuple[idl.Sample, SampleInfo]]:
        with self.participant._lock:
            return self.history.read(max_samples)

    def take(self, max_samples: int = 2**31) -> list[tuple[idl.Sample, SampleInfo]]:
        with self.participant._lock:
            return self.history.take(max_samples)

    def check_deadlines(self, now_ns: Optional[int] = None) -> list[tuple[int, int]]:
        if now_ns is None:
            now_ns = self.participant.clock.monotonic_ns()
        return self._deadlines.missed(now_ns)

    def statistics(self) -> ReaderStats:
        lost = sum(s.samples_lost for s in self._sessions.values())
        seen = sum(s.unique_received for s in self._sessions.values())
        return replace(
            self.stats,
            samples_lost=self.stats.samples_lost + lost,
            sequences_seen=self.stats.sequences_seen + seen,
        )

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.participant._drop_endpoint(self)
