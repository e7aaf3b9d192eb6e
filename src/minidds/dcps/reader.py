"""The reading endpoint: arrival pipeline, sample cache, statistics.

The participant hands a reader a run of DATA from one writer at a time,
and the run goes through the arrival pipeline in one call. The writer's
session is asked once which DATA of the run are new and what to hand
on; the others are counted as duplicates. A RELIABLE reader's session
hands each writer's DATA on in sequence order: what arrives above a
hole waits there, and goes through the pipeline, in order, with the
DATA that repairs the hole or the GAP or HEARTBEAT that gives it up, as
of that arrival. So each writer's samples reach the cache in sequence
order. Every new sample then runs the same gauntlet, in this order:
decoding, lifespan expiry, exclusive-ownership arbitration, time-based
filtering, source-timestamp ordering, then history insertion and
listener notification. Drops at each stage are counted per reason and
queryable via ``statistics()``. Samples received, duplicates, samples
accepted and history evictions are counted per run and added to the
statistics at its end and before each listener call, so a listener
reads them as of its own sample; what the session counts
(``samples_lost``, ``sequences_seen``, ``beyond_window``) covers the
whole run from the first call on. A DATA that waits when its writer
unmatches is never handed on, and counts in ``samples_lost``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Optional

from minidds import idl, qos
from minidds.dcps.guid import Guid
from minidds.dcps.history import ReaderHistory, SampleInfo
from minidds.dcps.matching import Endpoint, EndpointDescriptor, MatchRecord
from minidds.idl import Sample
from minidds.rtps import wire
from minidds.rtps.reliability import NOT_NEW, BestEffortReaderSession, ReliableReaderSession

log = logging.getLogger(__name__)

# A listener that holds the dispatch context longer than this draws a
# warning; callbacks are documented as non-blocking.
_LISTENER_BUDGET_S = 0.1

ReaderSession = ReliableReaderSession | BestEffortReaderSession


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
    samples_lost: int = 0  # sequences given up, and DATA held when their writer left
    sequences_seen: int = 0  # distinct sequences that arrived, delivered or not
    beyond_window: int = 0  # DATA too far ahead of a reliable floor to hold


class DataReader(Endpoint):
    def __init__(self, participant, topic, profile: qos.QosProfile,
                 descriptor: EndpointDescriptor):
        super().__init__(participant, topic, profile, descriptor)
        self._exclusive = (profile.value(qos.QosPolicyId.OWNERSHIP).kind
                           == qos.OwnershipKind.EXCLUSIVE)
        self._by_source = (profile.value(qos.QosPolicyId.DESTINATION_ORDER).kind
                           == qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)
        self._min_separation_ns = profile.value(
            qos.QosPolicyId.TIME_BASED_FILTER).minimum_separation_ns
        # Lifespan is a topic/writer policy; the reader enforces the value
        # configured on its own topic.
        self._lifespan_ns = topic.qos.value(qos.QosPolicyId.LIFESPAN).duration_ns
        self.history = ReaderHistory(profile.value(qos.QosPolicyId.HISTORY),
                                     profile.value(qos.QosPolicyId.RESOURCE_LIMITS))
        self._sessions: dict[Guid, ReaderSession] = {}
        # Per instance handle: the SampleInfo of the last arrival the cache
        # accepted (the newest, for by-source order, and the time of the
        # last accepted, for the time filter), and for an exclusive reader
        # each writer's last arrival.
        self._last_passed: dict[int, SampleInfo] = {}
        self._activity: dict[int, dict[Guid, int]] = {}
        self.stats = ReaderStats()
        self.listener: Optional[Callable[["DataReader"], None]] = None

    # -- matching (driven by the participant) -------------------------

    def _add_match(self, record: MatchRecord, now_ns: int) -> None:
        """Record a match; a newly matched writer gets a session, entered
        into the participant's dispatch table."""
        remote = record.remote
        self._match_records[remote.guid] = record
        if remote.guid not in self._sessions:
            session = self._sessions[remote.guid] = (
                ReliableReaderSession(remote.guid, self.guid.entity_id) if self._reliable
                else BestEffortReaderSession(remote.guid))
            self.participant._link(remote.guid, self, session)

    def _remove_match(self, guid: Guid) -> None:
        self._match_records.pop(guid, None)
        session = self._sessions.pop(guid, None)
        if session is not None:
            self.participant._unlink(guid, self)
            session.drop_held()
            # Keep the counters from a departed writer's session.
            self.stats.samples_lost += session.samples_lost
            self.stats.sequences_seen += session.unique_received
            self.stats.beyond_window += session.beyond_window

    matched_writers = Endpoint._matched_guids

    # -- arrival pipeline ---------------------------------------------

    def _handle_data(self, session: ReaderSession, infos: list[SampleInfo],
                     slots: list, now_wall_ns: int) -> None:
        """Take a run of DATA from the session's writer: every DATA arrives
        this way; one sent to this participant's own readers, or one among
        other submessages, is a run of one. The session is asked once
        which DATA of the run are new and what to hand on (``on_run``).
        ``infos`` holds each DATA's SampleInfo, shared with the other
        readers the run is handed to, and ``slots`` one slot per DATA,
        shared with the readers of this type: a slot holds the DATA's
        one-DATA message, whose payload starts at
        ``wire.DATA_PAYLOAD_START``, until the first of them to accept
        that DATA replaces it by the sample, or by None for a malformed
        payload, so each payload is deserialized once per type, in place,
        held or not."""
        if self._reliable:
            entries = session.on_run(infos, slots)
        else:
            fresh = session.on_run(infos)
            entries = None if fresh is None else [
                (info, slots, i) if new else NOT_NEW
                for i, (info, new) in enumerate(zip(infos, fresh))]
        if entries is None:
            entries = zip(infos, repeat(slots), range(len(infos)))
        # One per run: runs are read per drain.
        self._admit(session, entries, infos[0].arrival_timestamp_ns, now_wall_ns)

    def _handle_control(self, session: ReaderSession, sub, now: int,
                        now_wall_ns: int) -> Optional[wire.AckNack]:
        """Take a HEARTBEAT or GAP from the session's writer; what it
        releases goes through the pipeline at once. Returns the ACKNACK
        to send, if any."""
        ack = session.on_gap(sub) if type(sub) is wire.Gap else session.on_heartbeat(sub)
        released = session.released
        if released:
            session.released = []
            self._admit(session, released, now, now_wall_ns)
            if self._sessions.get(session.writer_guid) is not session:
                return None
        return ack

    def _admit(self, session: ReaderSession, entries, now: int,
               now_wall_ns: int) -> None:
        """The arrival pipeline: run what the session hands on through it,
        in order. Each entry is ``(info, slots, index)`` for a DATA, or
        ``NOT_NEW`` for a duplicate. Every DATA runs the same gauntlet: decoding,
        lifespan expiry, exclusive-ownership arbitration, time-based
        filtering, source-timestamp ordering, then history insertion and
        listener notification, all as of ``now``. The pipeline's state
        and bound methods are looked up once per call, and its four
        per-sample counters are kept in locals and added to ``stats`` at
        the end and before every listener call, so a listener reads them
        as of its sample. A listener that closes this reader, or
        unmatches the writer, ends the call for it."""
        stats = self.stats
        deserialize = idl.deserialize
        payload_start = wire.DATA_PAYLOAD_START
        insert = self.history.insert
        kind = self.type
        lifespan = self._lifespan_ns
        expires = lifespan != qos.INFINITE_NS
        exclusive = self._exclusive
        last_passed = self._last_passed
        separation = self._min_separation_ns
        by_source = self._by_source
        deadlines = self._deadlines if self._deadlines.active else None
        listener = self.listener
        writer = session.writer_guid
        # Not yet in stats.
        received = duplicates = accepted = evicted = 0
        for info, slots, i in entries:
            if info is None:
                duplicates += 1
                continue
            received += 1
            sample = slots[i]
            if type(sample) is not Sample:
                if sample is not None:
                    try:
                        sample = deserialize(kind, sample, payload_start)
                    except idl.DecodeError:
                        sample = None
                    slots[i] = sample
                if sample is None:
                    stats.malformed_payloads += 1
                    continue

            if expires and now_wall_ns > info.source_timestamp_ns + lifespan:
                stats.lifespan_expired += 1
                continue

            handle = info.instance_handle
            if exclusive:
                activity = self._activity.get(handle)
                if activity is None:
                    activity = self._activity[handle] = {}
                owns = self._arbitrate(activity, writer, now)
                activity[writer] = now
                if not owns:
                    stats.ownership_filtered += 1
                    continue

            last = last_passed.get(handle)
            if last is not None:
                if separation > 0 and now < last.arrival_timestamp_ns + separation:
                    stats.time_filter_dropped += 1
                    continue
                if by_source and not (
                        info.source_timestamp_ns > last.source_timestamp_ns
                        or (info.source_timestamp_ns == last.source_timestamp_ns
                            and writer < last.writer_guid)):
                    stats.destination_order_dropped += 1
                    continue
            outcome = insert(info, sample)
            if not outcome.accepted:
                stats.rejected_by_limits += 1
                continue
            last_passed[handle] = info
            if deadlines is not None:
                deadlines.record(handle, now)
            evicted += outcome.evicted_count
            accepted += 1
            if listener is not None:
                self._count(received, duplicates, accepted, evicted)
                received = duplicates = accepted = evicted = 0
                self._notify()
                if self._sessions.get(writer) is not session:
                    return
                listener = self.listener
        self._count(received, duplicates, accepted, evicted)

    def _count(self, received: int, duplicates: int, accepted: int, evicted: int) -> None:
        stats = self.stats
        stats.samples_received += received
        stats.duplicates_discarded += duplicates
        stats.samples_accepted += accepted
        stats.evicted_by_history += evicted

    def _arbitrate(self, activity: dict[Guid, int], arriving: Guid, now_ns: int) -> bool:
        """Whether the arriving writer currently owns the instance, given
        each writer's last arrival on it."""
        period = self._deadlines.period_ns
        candidates = {arriving}
        for writer, seen_ns in activity.items():
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
        began = time.monotonic()
        try:
            self.listener(self)
        except Exception:
            log.exception("reader listener raised")
        if __debug__ and time.monotonic() - began > _LISTENER_BUDGET_S:
            log.warning("reader listener blocked the dispatch context for %.0f ms",
                        (time.monotonic() - began) * 1e3)

    # -- application surface ------------------------------------------

    def read(self, max_samples: int = 2**31) -> list[tuple[idl.Sample, SampleInfo]]:
        with self.participant._lock:
            return self.history.read(max_samples)

    def take(self, max_samples: int = 2**31) -> list[tuple[idl.Sample, SampleInfo]]:
        with self.participant._lock:
            return self.history.take(max_samples)

    def statistics(self) -> ReaderStats:
        with self.participant._lock:
            sessions = self._sessions.values()
            stats = self.stats
            return replace(
                stats,
                samples_lost=stats.samples_lost + sum(s.samples_lost for s in sessions),
                sequences_seen=stats.sequences_seen + sum(s.unique_received for s in sessions),
                beyond_window=stats.beyond_window + sum(s.beyond_window for s in sessions),
            )
