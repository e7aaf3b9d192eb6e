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
filtering, source-timestamp ordering, then history insertion. Drops at
each stage are counted per reason and queryable via ``statistics()``.
Samples received, duplicates, samples accepted and history evictions
are counted per run and added to the statistics at its end. A DATA that
waits when its writer unmatches is never handed on, and counts in
``samples_lost``.

The pipeline calls no listener: it reports how many samples it
accepted, and the participant calls the listener once the call that
delivered them has released the lock. So a listener reads the
statistics and the cache as of all that call delivered. A KEEP_LAST
reader with a listener holds back what its listener has not seen: the
first DATA of an instance the cache accepted since the listener last
returned waits (``_waiting``), with everything after it, and goes
through the pipeline once the listener has returned, holding back
again at the next repeated instance. So the listener sees each sample
before the next of its instance can replace it. A DATA that waits has
arrived (``sequences_seen``), and counts in ``samples_lost`` if its
writer unmatches first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Optional

from minidds import idl, qos
from minidds.dcps.guid import Guid
from minidds.dcps.history import _ACCEPTED, _REPLACED, ReaderHistory, SampleInfo
from minidds.dcps.matching import Endpoint, EndpointDescriptor, MatchRecord
from minidds.rtps import wire
from minidds.rtps.reliability import BestEffortReaderSession, ReliableReaderSession

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
        self._keep_last = (profile.value(qos.QosPolicyId.HISTORY).kind
                           == qos.HistoryKind.KEEP_LAST)
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
        # None while the listener is not running; while it runs, whether a
        # delivery made the reader ready again, so it runs once more.
        self._rerun: Optional[bool] = None
        # For a KEEP_LAST reader with a listener: the instances whose sample
        # the cache accepted since the listener last returned, and the
        # (session, entries, now, now_wall) chunks held back, in arrival order.
        self._unseen: set[int] = set()
        self._waiting: list[tuple] = []

    # -- matching (driven by the participant) -------------------------

    def _add_match(self, record: MatchRecord, now_ns: int) -> None:
        """Record a new match; the writer gets a session, entered into
        the participant's dispatch table."""
        remote = record.remote
        self._match_records[remote.guid] = record
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
            # What waits for the listener is never handed on either.
            for chunk in self._waiting:
                if chunk[0] is session:
                    self.stats.samples_lost += sum(entry[0] is not None for entry in chunk[1])
            self._waiting = [chunk for chunk in self._waiting if chunk[0] is not session]
            # Keep the counters from a departed writer's session.
            self.stats.samples_lost += session.samples_lost
            self.stats.sequences_seen += session.unique_received
            self.stats.beyond_window += session.beyond_window

    matched_writers = Endpoint._matched_guids

    # -- arrival pipeline ---------------------------------------------

    def _handle_data(self, session: ReaderSession, infos: list[SampleInfo],
                     slots: list, now_wall_ns: int) -> int:
        """Take a run of DATA from the session's writer: every DATA arrives
        this way; one alone in its received batch (a send to this
        participant's own readers, say), or one among other submessages,
        is a run of one. The session is asked once
        which DATA of the run are new and what to hand on (``on_run``):
        None for the whole run as it is, else the entries to hand on.
        ``infos`` holds each DATA's SampleInfo and ``slots`` one slot per
        DATA, both shared with the other readers the run is handed to,
        which are all of this reader's topic and so of its type: a slot
        holds the DATA's one-DATA message, whose payload starts at
        ``wire.DATA_PAYLOAD_START``, until the first of them to accept
        that DATA replaces it by the pair ``(sample, info)``, or by None
        for a malformed payload, so each payload is deserialized once per
        participant, in place, held or not, and the readers of one
        participant cache and hand out the very same pair. Returns how
        many samples the cache accepted."""
        entries = session.on_run(infos, slots)
        if entries is None:
            entries = zip(infos, repeat(slots), range(len(infos)))
        # One per run: runs are read per drain.
        return self._admit(session, entries, infos[0].arrival_timestamp_ns, now_wall_ns)

    def _handle_control(self, session: ReaderSession, sub, now: int,
                        now_wall_ns: int) -> tuple[Optional[wire.AckNack], int]:
        """Take a HEARTBEAT or GAP from the session's writer; what it
        releases goes through the pipeline at once. Returns the ACKNACK
        to send, if any, and how many samples the cache accepted."""
        ack = session.on_gap(sub) if type(sub) is wire.Gap else session.on_heartbeat(sub)
        released = session.released
        if not released:
            return ack, 0
        session.released = []
        return ack, self._admit(session, released, now, now_wall_ns)

    def _admit(self, session: ReaderSession, entries, now: int,
               now_wall_ns: int) -> int:
        """The arrival pipeline: run what the session hands on through it,
        in order. Each entry is ``(info, slots, index)`` for a DATA, or
        ``NOT_NEW`` for a duplicate. Every DATA runs the same gauntlet: decoding,
        lifespan expiry, exclusive-ownership arbitration, time-based
        filtering, source-timestamp ordering, then history insertion, all
        as of ``now``. The first reader of the participant to admit a DATA
        decodes its slot into the pair ``(sample, info)``, and every
        reader inserts that pair as it is, held behind a hole meanwhile or
        not. The pipeline's state and bound methods are looked up once
        per call, and its four per-sample counters are kept in locals and
        added to ``stats`` at the end. A KEEP_LAST reader with a listener
        holds back the first DATA of an instance in ``_unseen``, and every
        entry after it, in this call and later ones, until ``_resume``.
        Returns how many samples the cache accepted, or 1 when something
        waits, so the reader is made ready for it."""
        waiting = self._waiting
        if waiting:
            waiting.append((session, entries, now, now_wall_ns))
            # A reader whose listener was removed holds nothing back.
            return 1 if self.listener is not None else self._resume()
        unseen = self._unseen if self._keep_last and self.listener is not None else None
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
        writer = session.writer_guid
        # Not yet in stats.
        received = duplicates = accepted = evicted = 0
        entries = iter(entries)
        for info, slots, i in entries:
            if info is None:
                duplicates += 1
                continue
            handle = info.instance_handle
            if unseen is not None and handle in unseen:
                # This entry, then the rest of the live iterator: nothing is copied.
                waiting.append((session, ((info, slots, i),), now, now_wall_ns))
                waiting.append((session, entries, now, now_wall_ns))
                break
            received += 1
            pair = slots[i]
            if type(pair) is not tuple:
                if pair is not None:
                    try:
                        pair = (deserialize(kind, pair, payload_start), info)
                    except idl.DecodeError:
                        pair = None
                    slots[i] = pair
                if pair is None:
                    stats.malformed_payloads += 1
                    continue

            if expires and now_wall_ns > info.source_timestamp_ns + lifespan:
                stats.lifespan_expired += 1
                continue

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
            outcome = insert(pair)
            # The two outcomes every plain and keep-last insert shares are
            # told apart by identity; only the others are read.
            if outcome is _REPLACED:
                evicted += 1
            elif outcome is not _ACCEPTED:
                if not outcome.accepted:
                    stats.rejected_by_limits += 1
                    continue
                evicted += outcome.evicted_count
            last_passed[handle] = info
            if deadlines is not None:
                deadlines.record(handle, now)
            if unseen is not None:
                unseen.add(handle)
            accepted += 1
        stats.samples_received += received
        stats.duplicates_discarded += duplicates
        stats.samples_accepted += accepted
        stats.evicted_by_history += evicted
        return accepted or (1 if waiting else 0)

    def _resume(self) -> int:
        """The listener has returned, or was removed: under the lock, forget
        what it has seen and put what waits through the pipeline again, in
        arrival order, until it holds back again. Returns a positive count
        when the cache accepted anything or something waits again."""
        self._unseen.clear()
        waiting, self._waiting = self._waiting, []
        return sum(self._admit(*chunk) for chunk in waiting)

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
