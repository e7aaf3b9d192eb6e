"""The writing endpoint: typed writes into a history cache plus delivery."""

from __future__ import annotations

import threading
from typing import Mapping, Optional, Union

from minidds import idl, qos
from minidds.dcps.errors import SampleTooLargeError
from minidds.dcps.guid import Guid
from minidds.dcps.history import ResourceLimitsError, WriterHistory
from minidds.dcps.matching import Endpoint, EndpointDescriptor, MatchRecord
from minidds.rtps import wire
from minidds.rtps.reliability import WriterSession

# Largest payload that still fits one datagram beside the fixed framing.
MAX_PAYLOAD = wire.MAX_DATAGRAM - wire.DATA_PAYLOAD_START

# Entries a writer's table from key bytes to instance handle holds before
# it is emptied; about 113 bytes each at 8-byte keys (tracemalloc,
# CPython 3.11), so about 1.8 MiB per writer when full. Writing threads
# that race past the check can each add one entry beyond it.
MAX_INSTANCE_HANDLES = 16_384


class DataWriter(Endpoint):
    def __init__(self, participant, topic, profile: qos.QosProfile,
                 descriptor: EndpointDescriptor):
        super().__init__(participant, topic, profile, descriptor)
        transient = (profile.value(qos.QosPolicyId.DURABILITY).kind
                     == qos.DurabilityKind.TRANSIENT_LOCAL)
        history_qos = profile.value(qos.QosPolicyId.HISTORY)
        self._keep_all = history_qos.kind == qos.HistoryKind.KEEP_ALL
        self._lifespan_ns = profile.value(qos.QosPolicyId.LIFESPAN).duration_ns
        self.history = WriterHistory(history_qos,
                                     profile.value(qos.QosPolicyId.RESOURCE_LIMITS))
        self.session = WriterSession(
            self.history, writer_entity_id=self.guid.entity_id,
            transient_local=transient,
            heartbeat_period_ns=participant.heartbeat_period_ns)
        # Where a write goes, derived from the matches; the participant
        # builds it and a match change resets it (see participant._plan).
        self._send_plan = None
        self.samples_written = 0
        # Key bytes -> instance handle, so a write hashes a key once; None
        # for an unkeyed type, whose samples all take UNKEYED_HANDLE.
        self._handles = {} if self.type.key_fields else None

    # -- matching (driven by the participant) -------------------------

    def _add_match(self, record: MatchRecord, now_ns: int) -> None:
        """Record a match; a newly matched RELIABLE reader gets any
        late-joiner replay."""
        remote = record.remote
        self._send_plan = None
        if remote.guid in self._match_records:
            self._match_records[remote.guid] = record
            return
        self._match_records[remote.guid] = record
        # The session tracks RELIABLE readers alone (WriterSession.add_reader).
        if remote.rxo.reliability == qos.ReliabilityKind.RELIABLE:
            wants_history = remote.rxo.durability == qos.DurabilityKind.TRANSIENT_LOCAL
            self.participant._route(self.session.add_reader(
                remote.guid, wants_history=wants_history, now_ns=now_ns))

    def _remove_match(self, guid: Guid) -> None:
        if self._match_records.pop(guid, None) is not None:
            self._send_plan = None
            self.session.remove_reader(guid)

    matched_readers = Endpoint._matched_guids

    # -- write path ---------------------------------------------------

    def write(self, sample: Union[idl.Sample, Mapping],
              source_timestamp_ns: Optional[int] = None) -> int:
        """Serialize, cache, and hand the sample to delivery.

        Returns the sequence number. Raises ``TypeMismatchError`` for a
        sample of the wrong shape, ``SampleTooLargeError`` past the
        datagram limit, and the cache's ``ResourceLimitsError`` when it
        refuses the sample; a RELIABLE KEEP_ALL writer first waits for
        acks to make room, for at most max_blocking_time (on the
        participant's clock). A refused sample uses no sequence.
        """
        if self.closed:
            raise RuntimeError("writer is closed")
        if isinstance(sample, idl.Sample):
            if sample.type_name != self.type.name:
                raise idl.TypeMismatchError(
                    f"sample is {sample.type_name!r}, topic carries {self.type.name!r}")
        else:
            sample = idl.make_sample(self.type, sample)
        payload = idl.serialize(self.type, sample)
        if len(payload) > MAX_PAYLOAD:
            raise SampleTooLargeError(
                f"{len(payload)} byte payload exceeds the {MAX_PAYLOAD} byte limit")
        handles = self._handles
        if handles is None:
            handle = idl.UNKEYED_HANDLE
        else:
            # Keyed by bytes, not values: -0.0 and 0.0 are two instances
            # on the wire, and each NaN write would add an entry.
            key = self.type._codec.key_bytes(sample.values)
            handle = handles.get(key)
            if handle is None:
                handle = idl.key_hash(self.type, sample, checked=True)
                if key is not None:
                    if len(handles) >= MAX_INSTANCE_HANDLES:
                        handles.clear()
                    handles[key] = handle
        clock = self.participant.clock
        block_deadline = None
        session = self.session
        while True:
            with self.participant._lock:
                source_ts = (source_timestamp_ns if source_timestamp_ns is not None
                             else clock.wall_ns())
                sequence = session.last_sequence + 1
                # The datagram of the write's one DATA, under the sequence
                # on_write assigns: the cache keeps it, every matched
                # participant is sent it, and a reader decodes the payload in it.
                message = wire.pack_data_message(
                    self.participant.guid.prefix, self.guid.entity_id, 0, sequence,
                    source_ts, handle, payload)
                try:
                    # A sample nobody can ask for again is not cached at all.
                    if session.keeps_history:
                        expiry = qos.INFINITE_NS
                        if self._lifespan_ns != qos.INFINITE_NS:
                            expiry = source_ts + self._lifespan_ns
                        # Cached first, so a cache that refuses it leaves no
                        # sequence used.
                        self.history.insert(
                            (sequence, handle, message, source_ts, expiry))
                except ResourceLimitsError:
                    if not (self._reliable and self._keep_all):
                        raise
                else:
                    session.on_write()
                    if self._deadlines.active:
                        self._deadlines.record(handle, clock.monotonic_ns())
                    self.samples_written += 1
                    self.participant._publish(self, message)
                    return sequence
                # Full keep-all cache: wait for acks to drain it.
                now = clock.monotonic_ns()
                if block_deadline is None:
                    block_deadline = now + self.participant.max_blocking_time_ns
                elif now >= block_deadline:
                    raise ResourceLimitsError(
                        "write blocked on a full keep-all history past max_blocking_time")
                pump = self.participant._thread
                if pump is not None and pump is not threading.current_thread():
                    # The wait releases the lock the pump thread needs.
                    self.participant._spun.wait((block_deadline - now) / 1e9)
                    continue
            # No pump thread: drive the protocol inline, outside the lock so
            # other application threads keep access between spins.
            self.participant.transport.wait(min(0.005, (block_deadline - now) / 1e9))
            if self.participant.spin_once() == 0 and clock.monotonic_ns() == now:
                raise ResourceLimitsError(
                    "write blocked on a full keep-all history with no drain in sight")

    # -- introspection ------------------------------------------------

    def unacknowledged(self) -> bool:
        with self.participant._lock:
            return not self.session.all_acked()
