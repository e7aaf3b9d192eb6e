"""Announce-flood discovery: peer tracking, roster versions, timeouts.

Every participant broadcasts its full endpoint set, its roster, each
period. This module keeps the receive-side book: which peers exist, what
they last advertised, and when an endpoint or a whole peer should be
considered gone. Matching itself stays with the caller;
``process_announce`` reports only what appeared, changed, or vanished.

Each announce carries its sender's roster version, ``local_version``,
which starts at 1 and goes up by one at every change of the endpoint
set. A peer's rosters are handled by that version:

- an announce from another domain, or an echo of our own, is ignored;
- an older roster than the peer's last changes nothing, not even the
  peer's last-seen time;
- an equal one only refreshes the peer (and moves it, if it came from
  another address);
- a newer one is diffed, and every endpoint it does not list is removed
  at once;
- a peer silent for 3 announce periods is dropped with all endpoints.

So a version is a primitive order on rosters: a reordered or replayed
older roster cannot bring a removed endpoint back. It relies on the
sender prefix being unique, as DDSI-RTPS requires. A prefix reused while
peers still remember it (possible only with a reused seeded ``rng``)
starts its rosters again at version 1; while they are older than the
remembered one they refresh nothing, so the old entry times out after
``SILENCE_PERIODS`` and the participant is then discovered afresh.

Discovery works once per change. The participant encodes its announce
at the first send after its endpoint set changes and keeps the bytes in
``local_announce`` for every send until the next change. A datagram
whose only submessage is an ANNOUNCE is looked at undecoded
(``wire.lone_announce``): one of our own, or one from a peer's address
whose version is not newer than the peer's, is dropped there
(``repeats``), as decoding it would find nothing to diff. Anything else
(a newer version, a new address, an announce among other submessages,
a malformed datagram) is decoded and processed in full. Per peer,
discovery keeps one int, the version of the roster it last diffed.

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
SILENCE_PERIODS = 3

Address = Hashable


@dataclass
class _Peer:
    address: Address
    last_seen_ns: int
    version: int = -1  # of the roster last diffed; below any on the wire
    endpoints: dict[Guid, EndpointDescriptor] = field(default_factory=dict)


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
        # This participant's roster version, sent in every announce.
        self.local_version = 1
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
        """Bump the roster version, forget the encoded announce and make
        the next one due now."""
        self.local_version += 1
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

    def repeats(self, sender_prefix: bytes, version: int, source: Address,
                now_ns: int) -> bool:
        """Whether a datagram of one ANNOUNCE needs no decoding, from its
        sender and roster ``version`` (``wire.lone_announce``): our own,
        or a peer's from the peer's address with a version not newer than
        the one last diffed. An equal version refreshes the peer."""
        if sender_prefix == self.local_prefix:
            return True
        peer = self._peers.get(sender_prefix)
        if peer is None or peer.address != source or version > peer.version:
            return False
        if version == peer.version:
            peer.last_seen_ns = now_ns
        return True

    def process_announce(self, announce: wire.Announce, sender_prefix: bytes,
                         source: Address, now_ns: int) -> Optional[PeerEvent]:
        """Diff a roster newer than its peer's last against that one;
        None when there is nothing to diff. An older roster changes
        nothing; an equal one refreshes the peer and moves it to
        ``source``."""
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
        elif announce.version < peer.version:
            return None
        elif peer.address != source:
            peer.address = source
            self.epoch += 1
        peer.last_seen_ns = now_ns
        if announce.version == peer.version:
            return None
        peer.version = announce.version

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
        removed = [guid for guid in peer.endpoints if guid not in present]
        for guid in removed:
            self._unindex(sender_prefix, peer.endpoints.pop(guid))
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
