"""Announce-flood discovery: peer tracking, absence counting, timeouts.

Every participant broadcasts its full endpoint set each period. This
module keeps the receive-side book: which peers exist, what they last
advertised, and when an endpoint or a whole peer should be considered
gone. Matching itself stays with the caller; ``process_announce``
reports only what appeared, changed, or vanished.

Rules:
- announces from another domain, or echoes of our own, are ignored;
- an endpoint absent from 3 consecutive announces of its peer is removed;
- a peer silent for 3 announce periods is dropped with all endpoints.

Discovery works once per change. The participant encodes its announce
at the first send after its endpoint set changes and keeps the bytes in
``local_announce`` for every send until the next change. Per peer,
discovery keeps the last datagram that carried one ANNOUNCE and nothing
else and left no endpoint of that peer pending absence (every endpoint
known for the peer was in it). A byte-identical datagram from the
peer's address then only refreshes the peer's last-seen time
(``repeats``): decoding and diffing it would find nothing added,
changed or missing. Anything else (other bytes, a new address, a
pending absence, another domain, a malformed datagram) is decoded and
processed in full, and an echo of our own current announce is dropped
undecoded. The memo is one bytes object per live peer and goes with the
peer.

The remote endpoints are also indexed by topic and kind
(``remote_on``), kept as announces add, change, move or drop them and
as silent peers go, so a new local endpoint looks only at its own
topic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from minidds.dcps.guid import Guid
from minidds.dcps.matching import EndpointDescriptor, EndpointType
from minidds.rtps import wire

ANNOUNCE_PERIOD_NS = 1_000_000_000
ABSENCE_LIMIT = 3
SILENCE_PERIODS = 3

Address = Hashable


@dataclass
class _Peer:
    address: Address
    last_seen_ns: int
    # The last datagram that needs no processing when repeated, or None.
    announce: Optional[bytes] = None
    endpoints: dict[Guid, EndpointDescriptor] = field(default_factory=dict)
    missed: dict[Guid, int] = field(default_factory=dict)


@dataclass(frozen=True)
class PeerEvent:
    added: tuple[EndpointDescriptor, ...]
    changed: tuple[tuple[EndpointDescriptor, EndpointDescriptor], ...]  # (before, now)
    removed: tuple[Guid, ...]
    new_peer: bool


class Discovery:
    def __init__(self, local_prefix: bytes, domain_id: int, *,
                 announce_period_ns: int = ANNOUNCE_PERIOD_NS,
                 static_peers: tuple[Address, ...] = ()):
        self.local_prefix = local_prefix
        self.domain_id = domain_id
        self.announce_period_ns = announce_period_ns
        self.static_peers = tuple(static_peers)
        self._peers: dict[bytes, _Peer] = {}
        # (topic name, kind) -> the remote endpoints known there, by
        # (peer prefix, GUID), so each peer's copy comes and goes on its
        # own; only pairs with endpoints.
        self._on_topic: dict[tuple[str, EndpointType],
                             dict[tuple[bytes, Guid], EndpointDescriptor]] = {}
        self._last_announce_ns: Optional[int] = None
        # This participant's encoded announce; None until it is encoded
        # for the current endpoint set.
        self.local_announce: Optional[bytes] = None
        # Bumped whenever a peer is added, dropped or changes address, so
        # whatever was derived from ``address_of`` knows to derive again.
        self.epoch = 0

    # -- transmit side ------------------------------------------------

    def announce_due(self, now_ns: int) -> bool:
        return (self._last_announce_ns is None
                or now_ns - self._last_announce_ns >= self.announce_period_ns)

    def mark_announced(self, now_ns: int) -> None:
        self._last_announce_ns = now_ns

    def local_endpoints_changed(self) -> None:
        """Forget the encoded announce and make the next one due now."""
        self.local_announce = None
        self._last_announce_ns = None

    def destinations(self) -> list[Address]:
        """Static peers plus everyone we have heard from."""
        out: list[Address] = list(self.static_peers)
        for peer in self._peers.values():
            if peer.address not in out:
                out.append(peer.address)
        return out

    # -- receive side -------------------------------------------------

    def repeats(self, datagram: bytes, sender_prefix: bytes, source: Address,
                now_ns: int) -> bool:
        """Whether a datagram whose first submessage is an ANNOUNCE
        (``wire.announce_sender``) needs no decoding: our own current
        announce, or a peer's remembered one from the peer's address,
        which then refreshes the peer."""
        if datagram == self.local_announce:
            return True
        peer = self._peers.get(sender_prefix)
        if peer is not None and peer.announce == datagram and peer.address == source:
            peer.last_seen_ns = now_ns
            return True
        return False

    def process_announce(self, announce: wire.Announce, sender_prefix: bytes,
                         source: Address, now_ns: int,
                         datagram: Optional[bytes] = None) -> Optional[PeerEvent]:
        """Diff an announce against what its peer last advertised.
        ``datagram`` is the datagram when the announce was its only
        submessage; it is remembered for ``repeats`` while no endpoint of
        the peer is pending absence."""
        if announce.domain_id != self.domain_id:
            return None
        if sender_prefix == self.local_prefix:
            return None
        peer = self._peers.get(sender_prefix)
        new_peer = peer is None
        if peer is None:
            peer = _Peer(address=source, last_seen_ns=now_ns)
            self._peers[sender_prefix] = peer
            self.epoch += 1
        elif peer.address != source:
            peer.address = source
            self.epoch += 1
        peer.last_seen_ns = now_ns

        present = {ep.guid: ep for ep in announce.endpoints}
        added = []
        changed = []
        for guid, descriptor in present.items():
            known = peer.endpoints.get(guid)
            if known != descriptor:
                if known is None:
                    added.append(descriptor)
                else:
                    changed.append((known, descriptor))
                    self._unindex(sender_prefix, known)
                peer.endpoints[guid] = descriptor
                self._on_topic.setdefault((descriptor.topic_name, descriptor.kind),
                                          {})[sender_prefix, guid] = descriptor
            peer.missed[guid] = 0

        removed = []
        for guid in [g for g in peer.endpoints if g not in present]:
            peer.missed[guid] = peer.missed.get(guid, 0) + 1
            if peer.missed[guid] >= ABSENCE_LIMIT:
                removed.append(guid)
                self._unindex(sender_prefix, peer.endpoints.pop(guid))
                del peer.missed[guid]
        peer.announce = datagram if len(peer.endpoints) == len(present) else None
        return PeerEvent(tuple(added), tuple(changed), tuple(removed), new_peer)

    def check_timeouts(self, now_ns: int) -> list[Guid]:
        """Drop peers silent for 3 periods; returns their endpoint guids."""
        removed: list[Guid] = []
        cutoff = SILENCE_PERIODS * self.announce_period_ns
        for prefix in [p for p, peer in self._peers.items()
                       if now_ns - peer.last_seen_ns >= cutoff]:
            endpoints = self._peers.pop(prefix).endpoints
            removed.extend(endpoints)
            for descriptor in endpoints.values():
                self._unindex(prefix, descriptor)
            self.epoch += 1
        return removed

    # -- lookups ------------------------------------------------------

    def address_of(self, prefix: bytes) -> Optional[Address]:
        peer = self._peers.get(prefix)
        return peer.address if peer is not None else None

    def remote_on(self, topic_name: str, kind: EndpointType) -> list[EndpointDescriptor]:
        """The known remote endpoints of one kind on one topic."""
        return list(self._on_topic.get((topic_name, kind), {}).values())

    def _unindex(self, prefix: bytes, descriptor: EndpointDescriptor) -> None:
        key = (descriptor.topic_name, descriptor.kind)
        entries = self._on_topic[key]
        del entries[prefix, descriptor.guid]
        if not entries:
            del self._on_topic[key]

    def peer_count(self) -> int:
        return len(self._peers)
