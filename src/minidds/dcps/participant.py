"""Domain participant: entity factory, discovery driver, datagram pump.

One participant owns a transport, a discovery table, and all topics,
writers, and readers created through it. Protocol work happens in
``spin_once`` (drain datagrams, announce, check timers); call it from
your own loop, or ``start()`` a background thread that does both.

Application calls are serialized with the dispatch context by one
lock, shared by every participant of the process, so entities may be
used from any thread and there is no lock order to get wrong. No
listener runs under that lock. The arrival pipeline only reports what
it accepted, and a reader with a listener that accepted a sample is
marked ready, in an ordered set of its participant (``_ready``). The
call that delivered (``spin_once``, a write to a reader on the writer's
own participant, or a ``create_datareader`` whose durable replay reached
the new reader) takes the set before it releases the lock, also when it
raises, then calls each ready reader's listener once, in the order the
readers became ready, on its own thread (``_call_listeners``); a reader
closed before its turn is skipped. So DATA_AVAILABLE is reported once
per delivering call, as DDS allows for a status (OMG DDS 1.4, 2.2.4).
A KEEP_LAST reader with a listener holds back a DATA that could replace
a sample its listener has not seen (``DataReader._admit``); once the
listener returns, the call that ran it puts what waits through the
reader's pipeline (``DataReader._resume``) and calls the listener again
if the cache accepted anything. A listener is never entered again while
it runs, on this thread or another: a delivery meanwhile makes the call
running it call it once more. It may call any entity of any
participant, and its blocked write waits as the same write from an
application thread does, or, on the thread that spins its participant,
drives the protocol inline.

A submessage for a reader on this participant is encoded as for any
other participant and received as a batch of one (``_receive``): DATA,
an addressed HEARTBEAT or GAP, and the reader's ACKNACK reply follow
exactly the rules a remote peer's do.

A write's DATA goes straight to its writer's send plan (``_plan``):
whether a matched reader is on this participant, and the addresses of
the other matched readers' participants, in order and without repeats.
The plan depends only on the writer's matches and on discovery's peer
addresses, so it is built at the first write after the writer gains or
loses a match, or after discovery adds, drops or re-addresses a peer
(``Discovery.epoch``), and reused for every write in between.
``_publish`` sends the DATA by the plan in one pass: this participant's
matched readers get it first, received as a batch of one like any
local send, and the other participants one datagram. Both take the message
the writer packed once for the write (``idl._Codec.message``) and
keeps as its cached sample, the same object. The writer's
other output (retransmissions, late-joiner replays, and the HEARTBEATs
and GAPs, each in a DIRECT) goes to one reader each, through ``_route``
and ``_send``, which look up that reader's address each time. A closed
participant closes its endpoints, so its writers refuse further writes.

``_receive`` takes a batch of datagrams: the one ``spin_once`` drained,
or a send to this participant's own readers. It reads a datagram of
one DATA, the common kind, with one struct call
(``wire.read_data_message``) into a *run*: consecutive such datagrams
of the batch with one sender prefix, writer entity id and reader entity
id. The run's key is kept in three locals, compared field by field with
each datagram's, so a DATA that continues the run builds no key. A run
looks up its writer's entry once and keeps one ``SampleInfo`` and one
payload slot per DATA, and a best-effort session decides a run that
continues its writer's stream in one step. Any other datagram is
decoded and handed to one dispatch loop, after the run read so far is
delivered, so protocol order is kept. The loop hands a DATA that came
among other submessages on as a run of one. A HEARTBEAT of the batch is
the exception: the batch's HEARTBEATs are answered in arrival order
once the whole batch has been delivered, so each ACKNACK reflects every
DATA of the drain, also the repairs that a faulty network carried
behind the HEARTBEAT (a heartbeat response delay of zero).

A writer's entry in the dispatch table is an immutable tuple of the
(reader, session) pairs matched with it, in reader creation order, so
readers not matched are not visited; an addressed DATA or DIRECT picks
its reader out of it. A run goes through each reader's arrival pipeline
in one call, one reader after another (``_deliver``), and that reader's
session takes the whole run in one call too (``on_run``). No listener
runs during the dispatch, so no reader is closed in it; an entry is
replaced only where a reader gains or loses a match with that writer,
and a run is delivered before any datagram that could change one is
dispatched. The readers of one DATA share one pair ``(sample, info)``,
its deserialized sample and its ``SampleInfo``, all immutable, and each
caches and hands out that very pair: an endpoint takes only a ``Topic``
of this participant's ``create_topic``, so the readers of one writer
share one type. Each keeps its own session, ownership, time-filter and
source-order state.

Each DATA's bytes are held once. A run's payload slot holds the
one-DATA datagram itself, and the first reader to accept the DATA
decodes the payload in place at ``wire.DATA_PAYLOAD_START`` and
replaces the datagram by the pair; a DATA a reliable session holds
behind a hole waits there as that datagram, undecoded, or as the pair
another reader made. So every slot starts as a one-DATA message: a
datagram of one DATA is its own slot (for a reader on this
participant, the write's own message), and a DATA among other
submessages is packed into one. The batch lets go of a drained
datagram once read, and its slot once a reader has decoded it, so the
receiver holds each DATA as its datagram or as its pair, not both;
over ``InProcNetwork`` the writer's cache, the queue and a held slot
are one object.

Arrival is stamped once per drained batch: ``spin_once`` reads the
clock right after the drain, when every datagram of the batch had
arrived, and each of them is dispatched with that one stamp (the
``arrival_timestamp_ns`` of its samples, the time of its ACKNACKs and
announces), even if the clock moves before the last one is dispatched.
A send to this participant's own readers reads the clock when it is
sent. Announces and the writers' timers then read the clock again,
after the batch; a peer's silence is judged as of the drain, when every
datagram it had sent was in the batch. So a listener that stalls is
not taken for a peer's silence: the next spin first drains the
announces that arrived meanwhile.

Pairing stays within a topic, through a table of local endpoints by
topic and kind, and discovery's table of remote ones
(``Discovery.remote_on``): a new endpoint meets those of the other kind
on its topic (``_introduce``), and so does a new remote one
(``_match_remote``). A pair is matched once and unmatched once. Each
remote endpoint has one owner, the peer whose prefix its GUID carries,
and a changed one is unmatched and paired afresh, as a departure and an
arrival, with a new session, a new proxy and any late-joiner replay.
``match_endpoints`` decides a pair and each endpoint makes or unmakes
its own side: a writer routes a new reader's late-joiner replay, and a
reader enters its session into the dispatch table or takes it out. A
local pair records the reader's side first, so a durable writer's
replay finds the session.

A datagram whose only submessage is an ANNOUNCE is first shown to
discovery by its sender and roster version (``wire.lone_announce``),
and discovery drops our own and a roster it has already diffed without
decoding them (``Discovery.repeats``). A newer roster is decoded and
diffed, and an endpoint it no longer lists is unmatched at once: a
closed remote reader stops pinning a writer's cache, and gets no more
DATA, from the first announce after it closed. This participant's own
announce is encoded once per change of its endpoint set, under a new
roster version, and kept for every send until the next change. A closed
participant sends one last announce, of no endpoints, so its peers
unmatch its endpoints at once rather than after its silence.
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
from minidds.dcps.history import SampleInfo
from minidds.dcps.matching import (EndpointDescriptor, EndpointType, NoMatch, RxoQos,
                                   match_endpoints)
from minidds.dcps.reader import DataReader
from minidds.dcps.writer import DataWriter
from minidds.rtps import wire
from minidds.rtps.discovery import ANNOUNCE_PERIOD_NS, Discovery
from minidds.rtps.reliability import HEARTBEAT_PERIOD_NS, Directed
from minidds.rtps.transport import TransportError, UdpTransport

log = logging.getLogger(__name__)

MAX_BLOCKING_TIME_NS = 100_000_000

# A listener that runs longer than this draws a warning. A listener runs
# with the lock released, so it stalls no other thread; but it runs on the
# thread that delivered, so a slow one delays that thread's next step: its
# next spin, or the return of the write that delivered to it.
_LISTENER_BUDGET_S = 0.1

_WRITER_KINDS = frozenset({qos.EntityKind.DATA_WRITER, qos.EntityKind.PUBLISHER})
_READER_KINDS = frozenset({qos.EntityKind.DATA_READER, qos.EntityKind.SUBSCRIBER})

QosInput = Union[qos.QosProfile, Iterable, Mapping, None]

# Builds a SampleInfo from a tuple of its fields without the Python-level
# ``__new__`` that NamedTuple generates; once per DATA arrival.
_tuple_new = tuple.__new__

# The one lock of every participant of the process, and the condition
# notified at the end of every spin_once, for writers blocked on a full
# keep-all history while a pump thread runs.
_LOCK = threading.RLock()
_SPUN = threading.Condition(_LOCK)


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
        self.max_blocking_time_ns = max_blocking_time_ns
        self._topics: dict[str, Topic] = {}
        self._writers: dict[int, DataWriter] = {}
        self._readers: dict[int, DataReader] = {}
        # (topic name, kind) -> that topic's local endpoints of that kind,
        # by entity id in creation order; only topics with endpoints.
        self._on_topic: dict[tuple[str, EndpointType], dict[int, object]] = {}
        self._matched: dict[Guid, tuple] = {}  # writer -> (reader, session) pairs
        # Readers with a listener that accepted a sample in the delivery
        # under way, in the order they became ready. Every call that
        # delivers takes them before it releases the lock, also when it
        # raises, so each calls exactly the listeners its own delivery made
        # ready, and the set is empty whenever the lock is free.
        self._ready: dict[DataReader, None] = {}
        self._entity_counter = 0
        self._lock = _LOCK
        self._spun = _SPUN
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
            topic = Topic(name, type_descriptor, profile)
            self._topics[name] = topic
            return topic

    def _effective_profile(self, topic: Topic, endpoint_qos: QosInput,
                           entity_kind: qos.EntityKind,
                           kinds: frozenset) -> qos.QosProfile:
        """The endpoint's values over its topic's applicable ones. Each
        value is checked once: the topic's at ``create_topic``, the
        endpoint's here; the merged profile needs only the rules between
        policies."""
        endpoint_profile = self._coerce_profile(entity_kind, endpoint_qos)
        problems = qos.validate_profile(endpoint_profile, kinds)
        if problems:
            raise InvalidQosError(problems)
        merged = qos.settings_for(topic.qos.policies, kinds)
        merged.update(endpoint_profile.policies)
        effective = qos.QosProfile(entity_kind, merged)
        problems = qos.cross_policy_errors(effective, kinds)
        if problems:
            raise InvalidQosError(problems)
        return effective

    def _next_guid(self) -> Guid:
        self._entity_counter += 1
        return Guid(self.guid.prefix, self._entity_counter)

    def _check_own(self, topic: Topic) -> None:
        if self._topics.get(topic.name) is not topic:  # hand-built, or another's
            raise ValueError(f"{topic!r} was not created by this participant")

    def create_datawriter(self, topic: Topic, writer_qos: QosInput = None) -> DataWriter:
        with self._lock:
            self._check_own(topic)
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
            self._check_own(topic)
            profile = self._effective_profile(topic, reader_qos,
                                              qos.EntityKind.DATA_READER, _READER_KINDS)
            guid = self._next_guid()
            descriptor = EndpointDescriptor(guid, self.domain_id, topic.name,
                                            topic.type.name, EndpointType.READER,
                                            RxoQos.from_profile(profile))
            reader = DataReader(self, topic, profile, descriptor)
            reader.listener = listener
            self._readers[guid.entity_id] = reader
            try:
                self._introduce(reader)
            finally:
                # A local durable writer's replay may have made it ready.
                ready, self._ready = self._ready, {}
        self._call_listeners(ready)
        return reader

    def _local_on(self, topic_name: str, kind: EndpointType) -> list:
        """This participant's endpoints of one kind on one topic, in
        creation order."""
        return list(self._on_topic.get((topic_name, kind), {}).values())

    def _introduce(self, entity) -> None:
        """Enter a fresh endpoint in its topic's table and match it against
        the local and known remote endpoints of the other kind there."""
        now = self.clock.monotonic_ns()
        new = entity.descriptor
        is_writer = new.kind == EndpointType.WRITER
        other_kind = EndpointType.READER if is_writer else EndpointType.WRITER
        self._on_topic.setdefault((new.topic_name, new.kind), {})[entity.guid.entity_id] = entity
        for other in self._local_on(new.topic_name, other_kind):
            # Reader side first: a durable writer's replay needs the session.
            reader, writer = (other, entity) if is_writer else (entity, other)
            self._consider_pair(reader, writer.descriptor, now)
            self._consider_pair(writer, reader.descriptor, now)
        for remote in self.discovery.remote_on(new.topic_name, other_kind):
            self._consider_pair(entity, remote, now)
        self.discovery.local_endpoints_changed()

    def _drop_endpoint(self, entity) -> None:
        with self._lock:
            # Entity ids are unique across writers and readers.
            self._writers.pop(entity.guid.entity_id, None)
            self._readers.pop(entity.guid.entity_id, None)
            key = (entity.descriptor.topic_name, entity.descriptor.kind)
            peers = self._on_topic[key]
            del peers[entity.guid.entity_id]
            if not peers:
                del self._on_topic[key]
            # A closed endpoint lists no match; a reader's statistics keep
            # what its sessions counted.
            for guid in list(entity._match_records):
                entity._remove_match(guid)
            self._unmatch(entity.guid)
            self.discovery.local_endpoints_changed()

    # ------------------------------------------------------------------
    # matching

    def _consider_pair(self, local_entity, remote: EndpointDescriptor,
                       now_ns: int) -> None:
        result = match_endpoints(local_entity.descriptor, remote)
        if isinstance(result, NoMatch):
            if result.report is not None:
                self._note_incompatible(local_entity.descriptor, remote, result.report)
        else:
            local_entity._add_match(result, now_ns)

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
        """Pair a new remote endpoint within its topic."""
        kind = (EndpointType.READER if remote.kind == EndpointType.WRITER
                else EndpointType.WRITER)
        for entity in self._local_on(remote.topic_name, kind):
            self._consider_pair(entity, remote, now_ns)

    def _unmatch(self, guid: Guid) -> None:
        for writer in self._writers.values():
            writer._remove_match(guid)
        # Popped whole: each reader's own unlink then finds no entry.
        for reader, _ in self._matched.pop(guid, ()):
            reader._remove_match(guid)

    def _link(self, writer_guid: Guid, reader: DataReader, session) -> None:
        # In reader creation order: a writer's first match visits the
        # readers in that order, and a later one is with a new reader.
        self._matched[writer_guid] = self._matched.get(writer_guid, ()) + ((reader, session),)

    def _unlink(self, writer_guid: Guid, reader: DataReader) -> None:
        pairs = tuple(p for p in self._matched.pop(writer_guid, ()) if p[0] is not reader)
        if pairs:
            self._matched[writer_guid] = pairs

    # ------------------------------------------------------------------
    # datagram pump

    def spin_once(self) -> int:
        """One protocol iteration: deliver the drained batch, then answer
        its HEARTBEATs, announce, check timeouts and run the writers'
        timers, and call the listeners of the readers it made ready, with
        the lock released. Returns the number of datagrams delivered."""
        with self._lock:
            try:
                batch = self.transport.drain()
                delivered = len(batch)
                # Every datagram of the batch had arrived by the drain: one stamp.
                arrived = self.clock.monotonic_ns()
                self._receive(batch, arrived, self.clock.wall_ns())
                self._protocol_work(arrived)
            finally:
                ready, self._ready = self._ready, {}
        self._call_listeners(ready)
        return delivered

    def _protocol_work(self, arrived: int) -> None:
        """The end of a spin, once its batch is delivered: announce, drop
        peers silent past the timeout as of the drain (``arrived``), when
        every datagram they had sent was in the batch, and run the
        writers' timers."""
        now = self.clock.monotonic_ns()
        if not self.closed and self.discovery.announce_due(now):
            self._send_announce(self._announce_destinations())
            self.discovery.mark_announced(now)
        for guid in self.discovery.check_timeouts(arrived):
            self._unmatch(guid)
        now_wall = self.clock.wall_ns()
        for writer in list(self._writers.values()):
            writer.history.expire(now_wall)
            self._route(writer.session.step(now))
        self._spun.notify_all()

    def _call_listeners(self, ready: Iterable[DataReader]) -> None:
        """With the lock released, call each ready reader's listener, in
        order, on this thread; a reader closed, or whose listener was
        removed, before its turn is skipped. A listener already running,
        further up this thread or on another thread, is not entered again:
        the call running it calls it once more when it returns, as it does
        every listener that a delivery made ready again while it ran, or
        whose held-back DATA the cache accepted once it returned."""
        if not ready:
            return
        with self._lock:
            claimed = []
            for reader in ready:
                if reader._rerun is None:
                    reader._rerun = False
                    claimed.append(reader)
                else:
                    reader._rerun = True
        try:
            while claimed:
                for reader in claimed:
                    listener = reader.listener
                    if listener is None or reader.closed:
                        continue
                    began = time.monotonic()
                    try:
                        listener(reader)
                    except Exception:
                        log.exception("reader listener raised")
                    if __debug__ and time.monotonic() - began > _LISTENER_BUDGET_S:
                        log.warning("reader listener ran for %.0f ms",
                                    (time.monotonic() - began) * 1e3)
                with self._lock:
                    for reader in claimed:
                        reader._rerun = False if reader._resume() or reader._rerun else None
                    claimed = [r for r in claimed if r._rerun is False]
        except BaseException:
            for reader in claimed:
                reader._rerun = None
            raise

    def _receive(self, batch: list, arrived: int, arrived_wall: int) -> None:
        """Hand a batch of ``(datagram, source)`` pairs to the endpoints
        they concern, as arrived at ``arrived`` (monotonic) and
        ``arrived_wall``, then answer the batch's HEARTBEATs."""
        read_data = wire.read_data_message
        # The run being read: its key (writer entity id, sender prefix and
        # reader entity id, the first None while no run is open), matched
        # pairs, SampleInfos and payload slots.
        run_writer = run_prefix = run_reader = pairs = writer_guid = None
        infos: list = []
        slots: list = []
        # The batch's HEARTBEATs, answered once it is all delivered.
        heartbeats: list = []
        for i, (data, source) in enumerate(batch):
            batch[i] = None  # the batch lets go of each datagram once read
            head = read_data(data)
            if head is not None:
                prefix, writer_eid, reader_eid, seq, stamp, handle = head
                if (writer_eid != run_writer or prefix != run_prefix
                        or reader_eid != run_reader):
                    if infos:
                        self._deliver(pairs, infos, slots, arrived_wall)
                        infos, slots = [], []
                    run_writer, run_prefix, run_reader = writer_eid, prefix, reader_eid
                    pairs = self._pairs_for(prefix, writer_eid, reader_eid)
                    if pairs:
                        writer_guid = pairs[0][1].writer_guid
                if pairs:
                    infos.append(_tuple_new(SampleInfo, (writer_guid, seq, stamp,
                                                         arrived, handle)))
                    slots.append(data)
                continue
            # Any other datagram ends the run: it is delivered first.
            if infos:
                self._deliver(pairs, infos, slots, arrived_wall)
                infos, slots = [], []
            run_writer = None
            roster = wire.lone_announce(data)
            if roster is not None and self.discovery.repeats(*roster, source, arrived):
                continue
            try:
                message = wire.decode_message(data)
            except wire.WireError as exc:
                self.malformed_datagrams += 1
                log.debug("dropped malformed datagram from %s: %s", source, exc)
                continue
            self._dispatch(message.submessages, message.sender_prefix, source,
                           arrived, arrived_wall, heartbeats)
        if infos:
            self._deliver(pairs, infos, slots, arrived_wall)
        for prefix, reader_eid, heartbeat in heartbeats:
            self._control(prefix, reader_eid, heartbeat, arrived, arrived_wall)

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
        """Send the announce, encoded once per endpoint set; one the encoder
        refuses is logged, not kept, and not sent."""
        data = self.discovery.local_announce
        if data is None:
            announce = wire.Announce(self.domain_id, self.discovery.local_version,
                                     self._local_descriptors())
            try:
                data = wire.encode_message(wire.WireMessage(self.guid.prefix, (announce,)))
            except ValueError as exc:
                log.warning("announce not sent: %s", exc)
                return
            self.discovery.local_announce = data
        for destination in destinations:
            self.transport.send(data, destination)

    def _dispatch(self, submessages, sender_prefix: bytes, source,
                  now: int, now_wall: int, heartbeats: list) -> None:
        """Hand the decoded submessages of one received datagram to the
        endpoints they concern, as arrived at ``now`` (monotonic) and
        ``now_wall``; DATA is tested first. A DATA here came among other
        submessages, as a message of one DATA is read into a run without
        decoding, and is packed into one, as a payload slot always holds
        a one-DATA message. A HEARTBEAT is appended to ``heartbeats``, to
        be answered after the batch."""
        for sub in submessages:
            if type(sub) is wire.Data:  # a run of one
                pairs = self._pairs_for(sender_prefix, sub.writer_entity_id,
                                        sub.reader_entity_id)
                if pairs:
                    info = _tuple_new(SampleInfo, (pairs[0][1].writer_guid, sub.sequence,
                                                   sub.source_timestamp_ns, now,
                                                   sub.instance_handle))
                    self._deliver(pairs, [info],
                                  [wire.pack_data_message(sender_prefix, *sub)], now_wall)
            elif isinstance(sub, wire.Announce):
                event = self.discovery.process_announce(sub, sender_prefix, source, now)
                if event is None:
                    continue
                for guid in event.removed:
                    self._unmatch(guid)
                for descriptor in event.added:
                    self._match_remote(descriptor, now)
                if event.new_peer and not self.closed:
                    self._send_announce([source])
            elif isinstance(sub, wire.AckNack):
                if sub.writer_guid.prefix != self.guid.prefix:
                    continue
                writer = self._writers.get(sub.writer_guid.entity_id)
                if writer is not None:
                    reader_guid = Guid(sender_prefix, sub.reader_entity_id)
                    self._route(writer.session.on_acknack(reader_guid, sub, now))
            else:  # HEARTBEAT, GAP or DIRECT
                reader_entity_id, sub = sub if isinstance(sub, wire.Direct) else (0, sub)
                if type(sub) is wire.Heartbeat:
                    heartbeats.append((sender_prefix, reader_entity_id, sub))
                else:
                    self._control(sender_prefix, reader_entity_id, sub, now, now_wall)

    def _control(self, prefix: bytes, reader_eid: int, sub, now: int,
                 now_wall: int) -> None:
        """Hand a HEARTBEAT or GAP to each reader it concerns, and send each
        ACKNACK it draws."""
        for reader, session in self._pairs_for(prefix, sub.writer_entity_id, reader_eid):
            ack, accepted = reader._handle_control(session, sub, now, now_wall)
            if accepted and reader.listener is not None:
                self._ready[reader] = None
            if ack is not None:
                self._send(ack, ack.writer_guid.prefix)

    def _pairs_for(self, prefix: bytes, writer_eid: int, reader_eid: int) -> tuple:
        """The (reader, session) pairs a submessage from this writer goes
        to: all matched with it, or the addressed one if matched."""
        # A plain tuple finds the entry keyed by the equal Guid.
        pairs = self._matched.get((prefix, writer_eid), ())
        if pairs and reader_eid:
            pairs = tuple(p for p in pairs if p[0].guid.entity_id == reader_eid)
        return pairs

    def _deliver(self, pairs, infos: list, slots: list, now_wall: int) -> None:
        """Hand a run of DATA from one writer to each reader in ``pairs``,
        one after another in creation order. The readers, all of one
        ``Topic`` and so of one type, share one slot per DATA, which holds
        the DATA's one-DATA message until the first of them replaces it by
        the pair ``(sample, info)`` they all cache. A reader with a listener
        that accepted a sample is marked ready."""
        for reader, session in pairs:
            if (reader._handle_data(session, infos, slots, now_wall)
                    and reader.listener is not None):
                self._ready[reader] = None

    # ------------------------------------------------------------------
    # outbound routing

    def _plan(self, writer: DataWriter) -> tuple:
        """Build and keep the writer's send plan: (discovery epoch, whether
        a matched reader is on this participant, the other matched
        readers' addresses, in order and without repeats). ``_publish``
        asks for it again after a match or peer change."""
        local = False
        addresses: dict = {}
        for reader in writer._match_records:
            if reader.prefix == self.guid.prefix:
                local = True
            else:
                address = self.discovery.address_of(reader.prefix)
                if address is not None:
                    addresses[address] = None
        plan = writer._send_plan = (self.discovery.epoch, local, tuple(addresses))
        return plan

    def _publish(self, writer: DataWriter, message: bytes) -> Iterable:
        """Send a write's ``message``, the one-DATA datagram the writer
        packed and cached for it, by the writer's send plan: to this
        participant's matched readers as a received batch of one, as
        ``_send`` does, then to every other matched reader's address.
        The plan is built again only when a match change reset it or the
        discovery epoch moved. Returns the readers the write made ready,
        taken from ``_ready``."""
        plan = writer._send_plan
        if plan is None or plan[0] != self.discovery.epoch:
            plan = self._plan(writer)
        _, local, addresses = plan
        if local:
            try:
                self._receive([(message, None)], self.clock.monotonic_ns(),
                              self.clock.wall_ns())
            finally:
                ready, self._ready = self._ready, {}
        if addresses:
            send = self.transport.send
            for address in addresses:
                send(message, address)
        return ready if local else ()

    def _route(self, directed: list[Directed]) -> None:
        """Send each of a writer's submessages to the one reader it names;
        a HEARTBEAT or GAP travels in a DIRECT addressed to that reader."""
        for dest, sub in directed:
            if isinstance(sub, (wire.Heartbeat, wire.Gap)):
                sub = wire.Direct(dest.entity_id, sub)
            self._send(sub, dest.prefix)

    def _send(self, sub, prefix: bytes) -> None:
        """Send a submessage, encoded once, to the participant ``prefix``
        names: to its address, or, when it is this one, as a received
        batch of one. A submessage the encoder refuses is logged and
        dropped, whichever participant it was for."""
        local = prefix == self.guid.prefix
        address = None if local else self.discovery.address_of(prefix)
        if not local and address is None:
            return
        try:
            data = wire.encode_message(wire.WireMessage(self.guid.prefix, (sub,)))
        except ValueError as exc:
            log.warning("submessage not sent: %s", exc)
            return
        if local:
            self._receive([(data, None)], self.clock.monotonic_ns(), self.clock.wall_ns())
        else:
            self.transport.send(data, address)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self, poll_interval_s: float = 0.005) -> None:
        """Run the datagram pump on a daemon thread."""
        if self.closed:
            raise RuntimeError("participant is closed")
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
        # Closed from its own pump thread (a listener), the pump is left to
        # exit at its next loop check.
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=1.0)
        self._thread = None
        # Its endpoints close with it: a writer refuses further writes. The
        # last announce lists none of them, so peers unmatch them at once.
        with self._lock:
            for entity in [*self._writers.values(), *self._readers.values()]:
                entity.close()
            self._send_announce(self._announce_destinations())
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
