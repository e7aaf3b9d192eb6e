"""Domain participant: entity factory, discovery driver, datagram pump.

One participant owns a transport, a discovery table, and all topics,
writers, and readers created through it. Protocol work happens in
``spin_once`` (drain datagrams, announce, check timers); call it from
your own loop, or ``start()`` a background thread that does both.

Application calls are serialized with the dispatch context by one
participant lock, so entities may be used from any thread.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Iterable, Mapping, Optional, Union

from minidds import idl, qos
from minidds.clock import SystemClock
from minidds.dcps.errors import (InconsistentTopicError, InvalidQosError,
                                 TransportUnavailableError)
from minidds.dcps.guid import Guid, fresh_prefix
from minidds.dcps.matching import (EndpointDescriptor, EndpointType, MatchRecord,
                                   NoMatch, RxoQos, match_endpoints)
from minidds.dcps.reader import DataReader
from minidds.dcps.writer import DataWriter
from minidds.rtps import wire
from minidds.rtps.discovery import ANNOUNCE_PERIOD_NS, Discovery
from minidds.rtps.reliability import (HEARTBEAT_PERIOD_NS, RESPONSE_DELAY_NS,
                                      Directed)
from minidds.rtps.transport import TransportError, UdpTransport

log = logging.getLogger(__name__)

MAX_BLOCKING_TIME_NS = 100_000_000

_WRITER_KINDS = frozenset({qos.EntityKind.DATA_WRITER, qos.EntityKind.PUBLISHER})
_READER_KINDS = frozenset({qos.EntityKind.DATA_READER, qos.EntityKind.SUBSCRIBER})

QosInput = Union[qos.QosProfile, Iterable, Mapping, None]


class Topic:
    def __init__(self, name: str, type_descriptor: idl.TypeDescriptor,
                 profile: qos.QosProfile):
        self.name = name
        self.type = type_descriptor
        self.qos = profile

    def __repr__(self):
        return f"Topic({self.name!r}, type={self.type.name!r})"


class DomainParticipant:
    def __init__(self, domain_id: int, *,
                 clock=None,
                 transport=None,
                 static_peers: Iterable = (),
                 announce_period_ns: int = ANNOUNCE_PERIOD_NS,
                 heartbeat_period_ns: int = HEARTBEAT_PERIOD_NS,
                 response_delay_ns: int = RESPONSE_DELAY_NS,
                 max_blocking_time_ns: int = MAX_BLOCKING_TIME_NS,
                 port: Optional[int] = None,
                 bind_host: str = "0.0.0.0",
                 multicast_group: Optional[str] = None,
                 rng=None):
        if domain_id < 0:
            raise ValueError("domain_id must be >= 0")
        self.domain_id = domain_id
        self.clock = clock if clock is not None else SystemClock()
        self.guid = Guid(fresh_prefix(rng), 0)
        if transport is None:
            try:
                transport = UdpTransport(domain_id, port=port, bind_host=bind_host,
                                         multicast_group=multicast_group)
            except TransportError as exc:
                raise TransportUnavailableError(str(exc)) from exc
        self.transport = transport
        self.discovery = Discovery(self.guid.prefix, domain_id,
                                   announce_period_ns=announce_period_ns,
                                   static_peers=tuple(static_peers))
        self.heartbeat_period_ns = heartbeat_period_ns
        self.response_delay_ns = response_delay_ns
        self.max_blocking_time_ns = max_blocking_time_ns
        self._topics: dict[str, Topic] = {}
        self._writers: dict[int, DataWriter] = {}
        self._readers: dict[int, DataReader] = {}
        self._entity_counter = 0
        self._lock = threading.RLock()
        # Notified at the end of every spin_once, for writers blocked on a
        # full keep-all history while a pump thread runs.
        self._spun = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self.closed = False
        self.malformed_datagrams = 0
        # Recent (writer_guid, reader_guid, report) triples that failed the
        # offered/requested contract; kept for diagnostics.
        self.incompatible_qos: list[tuple[Guid, Guid, qos.CompatibilityReport]] = []

    # ------------------------------------------------------------------
    # entity creation

    def _coerce_profile(self, entity_kind: qos.EntityKind,
                        given: QosInput) -> qos.QosProfile:
        if given is None:
            return qos.QosProfile(entity_kind)
        if isinstance(given, qos.QosProfile):
            if given.entity_kind != entity_kind:
                raise InvalidQosError(
                    [f"profile is for {given.entity_kind.name}, not {entity_kind.name}"])
            return given
        if isinstance(given, Mapping):
            return qos.QosProfile(entity_kind, dict(given))
        return qos.profile(entity_kind, given)

    def create_topic(self, name: str, type_descriptor: idl.TypeDescriptor,
                     topic_qos: QosInput = None) -> Topic:
        with self._lock:
            existing = self._topics.get(name)
            if existing is not None:
                if existing.type.name != type_descriptor.name:
                    raise InconsistentTopicError(
                        f"topic {name!r} already carries type {existing.type.name!r}")
                return existing
            profile = self._coerce_profile(qos.EntityKind.TOPIC, topic_qos)
            problems = qos.validate_profile(profile)
            if problems:
                raise InvalidQosError(problems)
            topic = Topic(name, type_descriptor, profile.enable())
            self._topics[name] = topic
            return topic

    def _effective_profile(self, topic: Topic, endpoint_qos: QosInput,
                           entity_kind: qos.EntityKind,
                           kinds: frozenset) -> qos.QosProfile:
        endpoint_profile = self._coerce_profile(entity_kind, endpoint_qos)
        problems = qos.validate_profile(endpoint_profile, kinds)
        if problems:
            raise InvalidQosError(problems)
        merged = qos.settings_for(topic.qos.policies, kinds)
        merged.update(endpoint_profile.policies)
        effective = qos.QosProfile(entity_kind, merged, enabled=True)
        problems = qos.validate_profile(effective, kinds)
        if problems:
            raise InvalidQosError(problems)
        return effective

    def _next_guid(self) -> Guid:
        self._entity_counter += 1
        return Guid(self.guid.prefix, self._entity_counter)

    def create_datawriter(self, topic: Topic, writer_qos: QosInput = None) -> DataWriter:
        with self._lock:
            profile = self._effective_profile(topic, writer_qos,
                                              qos.EntityKind.DATA_WRITER, _WRITER_KINDS)
            guid = self._next_guid()
            descriptor = EndpointDescriptor(guid, self.domain_id, topic.name,
                                            topic.type.name, EndpointType.WRITER,
                                            RxoQos.from_profile(profile))
            writer = DataWriter(self, topic, profile, descriptor)
            self._writers[guid.entity_id] = writer
            self._introduce(writer)
            return writer

    def create_datareader(self, topic: Topic, reader_qos: QosInput = None,
                          listener=None) -> DataReader:
        with self._lock:
            profile = self._effective_profile(topic, reader_qos,
                                              qos.EntityKind.DATA_READER, _READER_KINDS)
            guid = self._next_guid()
            descriptor = EndpointDescriptor(guid, self.domain_id, topic.name,
                                            topic.type.name, EndpointType.READER,
                                            RxoQos.from_profile(profile))
            reader = DataReader(self, topic, profile, descriptor)
            reader.listener = listener
            self._readers[guid.entity_id] = reader
            self._introduce(reader)
            return reader

    def _introduce(self, entity) -> None:
        """Match a fresh endpoint against local and known remote peers."""
        now = self.clock.monotonic_ns()
        locals_ = (self._readers.values() if isinstance(entity, DataWriter)
                   else self._writers.values())
        for other in list(locals_):
            # Local pairs record the match on both entities, reader side
            # first so a durable writer's replay finds a live session.
            reader, writer = ((other, entity) if isinstance(entity, DataWriter)
                              else (entity, other))
            self._consider_pair(reader, writer.descriptor, now)
            self._consider_pair(writer, reader.descriptor, now)
        for remote in self.discovery.remote_endpoints():
            if remote.kind != entity.descriptor.kind:
                self._consider_pair(entity, remote, now)
        self.discovery.reset_announce_timer()

    def _drop_endpoint(self, entity) -> None:
        with self._lock:
            if isinstance(entity, DataWriter):
                self._writers.pop(entity.guid.entity_id, None)
            else:
                self._readers.pop(entity.guid.entity_id, None)
            for reader in self._readers.values():
                reader._remove_match(entity.guid)
            for writer in self._writers.values():
                writer._remove_match(entity.guid)
            self.discovery.reset_announce_timer()

    # ------------------------------------------------------------------
    # matching

    def _consider_pair(self, local_entity, remote: EndpointDescriptor,
                       now_ns: int) -> None:
        result = match_endpoints(local_entity.descriptor, remote)
        if isinstance(result, MatchRecord):
            if isinstance(local_entity, DataWriter):
                replay = local_entity._add_match(result, now_ns)
                self._route(local_entity, replay)
            else:
                local_entity._add_match(result)
        else:
            assert isinstance(result, NoMatch)
            if result.report is not None:
                self._note_incompatible(local_entity.descriptor, remote, result.report)
            local_entity._remove_match(remote.guid)

    def _note_incompatible(self, local: EndpointDescriptor,
                           remote: EndpointDescriptor,
                           report: qos.CompatibilityReport) -> None:
        writer_guid, reader_guid = ((local.guid, remote.guid)
                                    if local.kind == EndpointType.WRITER
                                    else (remote.guid, local.guid))
        entry = (writer_guid, reader_guid, report)
        if entry not in self.incompatible_qos:
            self.incompatible_qos.append(entry)
            del self.incompatible_qos[:-64]

    def _match_remote(self, remote: EndpointDescriptor, now_ns: int) -> None:
        pool = (self._readers.values() if remote.kind == EndpointType.WRITER
                else self._writers.values())
        for entity in list(pool):
            self._consider_pair(entity, remote, now_ns)

    def _unmatch_remote(self, guid: Guid) -> None:
        for writer in self._writers.values():
            writer._remove_match(guid)
        for reader in self._readers.values():
            reader._remove_match(guid)

    # ------------------------------------------------------------------
    # datagram pump

    def spin_once(self) -> int:
        """One protocol iteration; returns the number of datagrams handled."""
        with self._lock:
            processed = 0
            for data, source in self.transport.drain():
                self._dispatch_datagram(data, source)
                processed += 1
            now = self.clock.monotonic_ns()
            if not self.closed and self.discovery.announce_due(now):
                self._send_announce(self._announce_destinations())
                self.discovery.mark_announced(now)
            for guid in self.discovery.check_timeouts(now):
                self._unmatch_remote(guid)
            now_wall = self.clock.wall_ns()
            for writer in list(self._writers.values()):
                directed = writer._expire(now_wall)
                directed.extend(writer._step(now))
                self._route(writer, directed)
            self._spun.notify_all()
            return processed

    def _announce_destinations(self) -> list:
        destinations = self.discovery.destinations()
        group = getattr(self.transport, "multicast_address", None)
        if group is not None and group not in destinations:
            destinations.append(group)
        return destinations

    def _local_descriptors(self) -> tuple[EndpointDescriptor, ...]:
        writers = [w.descriptor for w in self._writers.values()]
        readers = [r.descriptor for r in self._readers.values()]
        return tuple(writers + readers)

    def _send_announce(self, destinations: Iterable) -> None:
        announce = wire.Announce(self.domain_id, self._local_descriptors())
        try:
            data = wire.encode_message(wire.WireMessage(self.guid.prefix, (announce,)))
        except ValueError as exc:
            log.warning("announce not sent: %s", exc)
            return
        for destination in destinations:
            self.transport.send(data, destination)

    def _dispatch_datagram(self, data: bytes, source) -> None:
        try:
            message = wire.decode_message(data)
        except wire.WireError as exc:
            self.malformed_datagrams += 1
            log.debug("dropped malformed datagram from %s: %s", source, exc)
            return
        now = self.clock.monotonic_ns()
        now_wall = self.clock.wall_ns()
        for sub in message.submessages:
            self._dispatch_submessage(sub, message.sender_prefix, source,
                                      now, now_wall)

    def _dispatch_submessage(self, sub, sender_prefix: bytes, source,
                             now: int, now_wall: int) -> None:
        if isinstance(sub, wire.Announce):
            event = self.discovery.process_announce(sub, sender_prefix, source, now)
            if event is None:
                return
            for descriptor in event.added + event.changed:
                self._match_remote(descriptor, now)
            for guid in event.removed:
                self._unmatch_remote(guid)
            if event.new_peer and not self.closed:
                self._send_announce([source])
        elif isinstance(sub, wire.Data):
            writer_guid = Guid(sender_prefix, sub.writer_entity_id)
            if sub.reader_entity_id:
                readers = [self._readers.get(sub.reader_entity_id)]
            else:
                readers = list(self._readers.values())
            decoded: list = []
            for reader in readers:
                if reader is not None:
                    reader._handle_data(writer_guid, sub, now, now_wall, decoded)
        elif isinstance(sub, wire.Heartbeat):
            writer_guid = Guid(sender_prefix, sub.writer_entity_id)
            for reader in list(self._readers.values()):
                self._reply_acknack(reader, writer_guid, sub, sender_prefix, source)
        elif isinstance(sub, wire.Direct):
            reader = self._readers.get(sub.reader_entity_id)
            if reader is None:
                return
            inner = sub.inner
            writer_guid = Guid(sender_prefix, inner.writer_entity_id)
            if isinstance(inner, wire.Heartbeat):
                self._reply_acknack(reader, writer_guid, inner, sender_prefix, source)
            elif isinstance(inner, wire.Gap):
                reader._handle_gap(writer_guid, inner)
        elif isinstance(sub, wire.AckNack):
            if sub.writer_guid.prefix != self.guid.prefix:
                return
            writer = self._writers.get(sub.writer_guid.entity_id)
            if writer is not None:
                reader_guid = Guid(sender_prefix, sub.reader_entity_id)
                self._route(writer, writer._on_acknack(reader_guid, sub, now))
        elif isinstance(sub, wire.Gap):
            writer_guid = Guid(sender_prefix, sub.writer_entity_id)
            for reader in list(self._readers.values()):
                reader._handle_gap(writer_guid, sub)

    def _reply_acknack(self, reader: DataReader, writer_guid: Guid,
                       heartbeat: wire.Heartbeat, sender_prefix: bytes,
                       source) -> None:
        ack = reader._handle_heartbeat(writer_guid, heartbeat)
        if ack is None:
            return
        address = self.discovery.address_of(sender_prefix)
        if address is None:
            address = source
        message = wire.WireMessage(self.guid.prefix, (ack,))
        self.transport.send(wire.encode_message(message), address)

    # ------------------------------------------------------------------
    # outbound routing

    def _route(self, writer: DataWriter, directed: list[Directed]) -> None:
        for item in directed:
            sub = item.submessage
            if item.dest is None:
                targets = writer.matched_readers()
            else:
                targets = [item.dest]
            addresses: dict = {}  # ordered and without repeats
            decoded: list = []  # local readers share one deserialize
            for target in targets:
                if target.prefix == self.guid.prefix:
                    self._deliver_local(writer, target, sub, decoded)
                else:
                    address = self.discovery.address_of(target.prefix)
                    if address is not None:
                        addresses[address] = None
            if not addresses:
                continue
            if item.dest is not None and isinstance(sub, (wire.Heartbeat, wire.Gap)):
                sub = wire.Direct(item.dest.entity_id, sub)
            # One encoding serves every destination participant.
            data = None
            for address in addresses:
                try:
                    if data is None:
                        data = wire.encode_message(wire.WireMessage(self.guid.prefix, (sub,)))
                    self.transport.send(data, address)
                except ValueError as exc:
                    log.warning("submessage not sent: %s", exc)

    def _deliver_local(self, writer: DataWriter, target: Guid, sub,
                       decoded: list) -> None:
        reader = self._readers.get(target.entity_id)
        if reader is None:
            return
        now = self.clock.monotonic_ns()
        now_wall = self.clock.wall_ns()
        if isinstance(sub, wire.Data):
            reader._handle_data(writer.guid, sub, now, now_wall, decoded)
        elif isinstance(sub, wire.Heartbeat):
            ack = reader._handle_heartbeat(writer.guid, sub)
            if ack is not None:
                self._route(writer, writer._on_acknack(reader.guid, ack, now))
        elif isinstance(sub, wire.Gap):
            reader._handle_gap(writer.guid, sub)

    # ------------------------------------------------------------------
    # lifecycle

    def pump(self, duration_s: float) -> None:
        """Drive the protocol inline for a wall-clock interval."""
        end = time.monotonic() + duration_s
        while True:
            remaining = end - time.monotonic()
            if remaining <= 0:
                return
            self.transport.wait(min(0.005, remaining))
            self.spin_once()

    def start(self, poll_interval_s: float = 0.005) -> None:
        """Run the datagram pump on a daemon thread."""
        if self._thread is not None:
            return
        self._running = True
        self._thread = threading.Thread(target=self._run, args=(poll_interval_s,),
                                        name="minidds-pump", daemon=True)
        self._thread.start()

    def _run(self, poll_interval_s: float) -> None:
        while self._running:
            self.transport.wait(poll_interval_s)
            try:
                self.spin_once()
            except Exception:
                log.exception("participant pump failed")

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None
        self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------

    def topics(self) -> list[Topic]:
        return list(self._topics.values())

    def writers(self) -> list[DataWriter]:
        return list(self._writers.values())

    def readers(self) -> list[DataReader]:
        return list(self._readers.values())


def create_participant(domain_id: int, **config) -> DomainParticipant:
    return DomainParticipant(domain_id, **config)
