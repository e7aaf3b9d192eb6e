"""Discovery works once per change.

A participant encodes its announce once per change of its endpoint set,
under a new roster version, and a peer's announce of a version already
diffed, from the same address, only refreshes the peer: it is not
decoded. Every case counts ANNOUNCE
decodes (or encodes) instead of timing them.

The module needs nothing beyond the standard library, so each case also
runs as a plain function on an interpreter without pytest.
"""

import contextlib
import unittest
from collections import Counter

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.discovery import ANNOUNCE_PERIOD_NS
from minidds.rtps.transport import InProcNetwork

COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
BEST_EFFORT = [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)]


@contextlib.contextmanager
def _announce_decodes():
    """A list that gains one entry per ANNOUNCE submessage decoded."""
    decode = wire._DECODERS[wire.KIND_ANNOUNCE]
    decoded = []

    def counting(data, start, end):
        decoded.append(start)
        return decode(data, start, end)

    wire._DECODERS[wire.KIND_ANNOUNCE] = counting
    try:
        yield decoded
    finally:
        wire._DECODERS[wire.KIND_ANNOUNCE] = decode


@contextlib.contextmanager
def _announce_encodes():
    """A Counter of ANNOUNCE encodes per sending participant's prefix."""
    encode = wire._encode_announce
    encoded = Counter()

    def counting(sub):
        encoded[sub.endpoints[0].guid.prefix] += 1
        return encode(sub)

    wire._encode_announce = counting
    try:
        yield encoded
    finally:
        wire._encode_announce = encode


class _Federation:
    """Participants on one in-process network, each announcing to all
    the others, on one manual clock."""

    def __init__(self, *names):
        self.net = InProcNetwork()
        self.clock = ManualClock(1_000_000_000)
        self.parts = {
            name: DomainParticipant(0, transport=self.net.attach(name), clock=self.clock,
                                    static_peers=tuple(n for n in names if n != name))
            for name in names}

    def __getitem__(self, name):
        return self.parts[name]

    def endpoint(self, name, kind, topic):
        participant = self.parts[name]
        create = (participant.create_datawriter if kind == "writer"
                  else participant.create_datareader)
        return create(participant.create_topic(topic, COUNTER), BEST_EFFORT)

    def spin(self, *names, rounds=1) -> int:
        handled = 0
        for _ in range(rounds):
            for name in names or self.parts:
                handled += self.parts[name].spin_once()
        return handled

    def period(self, *names) -> int:
        """One announce period: everyone announces, then everything sent
        is handled."""
        self.clock.advance(ANNOUNCE_PERIOD_NS)
        return self.spin(*names, rounds=2)

    def matches(self):
        return {writer.guid: sorted(writer.matched_readers())
                for participant in self.parts.values() for writer in participant.writers()}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for participant in self.parts.values():
            participant.close()


def test_unchanged_announces_are_not_decoded():
    """8 participants of 200 endpoints each: once discovery has
    converged, 5 announce periods decode no announce, and every peer and
    match stays. Most endpoints are writers, as pairing every remote
    endpoint with every local one of the other kind would dominate the
    set-up at 100 readers each."""
    names = [f"p{i}" for i in range(8)]
    with _Federation(*names) as fed:
        for name in names:
            for k in range(196):
                fed.endpoint(name, "writer", f"t{k}")
            for k in range(4):
                fed.endpoint(name, "reader", f"t{k}")
        fed.spin(rounds=3)
        matches = fed.matches()
        assert sum(map(len, matches.values())) == 4 * 8 * 8
        with _announce_decodes() as decoded:
            handled = sum(fed.period() for _ in range(5))
        assert decoded == []
        assert handled == 5 * 8 * 7  # every announce arrived
        assert all(p.discovery.peer_count() == 7 for p in fed.parts.values())
        assert fed.matches() == matches


def test_a_closed_endpoint_goes_at_the_next_announce():
    """The close bumps the roster version and makes an announce due: the
    first announce after it is decoded and removes the endpoint at once,
    and its repeats are not decoded."""
    with _Federation("A", "B") as fed:
        reader = fed.endpoint("A", "reader", "t")
        closing = fed.endpoint("B", "writer", "t")
        fed.endpoint("B", "writer", "u")
        fed.spin(rounds=3)
        assert reader.matched_writers() == [closing.guid]
        version = fed["B"].discovery.local_version
        closing.close()
        assert fed["B"].discovery.local_version == version + 1
        with _announce_decodes() as decoded:
            fed.spin("B", "A")
            assert len(decoded) == 1
            assert reader.matched_writers() == []
            for _ in range(3):
                fed.period("B", "A")
            assert len(decoded) == 1


def test_identical_bytes_from_a_new_address_re_route_the_next_write():
    with _Federation("A", "B") as fed:
        writer = fed.endpoint("A", "writer", "t")
        reader = fed.endpoint("B", "reader", "t")
        fed.spin(rounds=3)
        moved = fed.net.attach("B2")
        epoch = fed["A"].discovery.epoch
        with _announce_decodes() as decoded:
            moved.send(fed["B"].discovery.local_announce, "A")
            fed.spin("A")
            assert len(decoded) == 1
            assert fed["A"].discovery.epoch == epoch + 1
            assert fed["A"].discovery.address_of(reader.guid.prefix) == "B2"
            writer.write({"n": 1})
            (data, _), = moved.drain()
            assert [type(sub) for sub in wire.decode_message(data).submessages] == [wire.Data]
            # Repeated from the new address, the same bytes only refresh the peer.
            moved.send(fed["B"].discovery.local_announce, "A")
            fed.spin("A")
            assert len(decoded) == 1
            assert fed["A"].discovery.epoch == epoch + 1


def test_a_local_endpoint_change_changes_the_announce():
    with _Federation("A", "B") as fed:
        writer = fed.endpoint("A", "writer", "t")
        fed.endpoint("B", "writer", "u")
        fed.spin(rounds=3)
        first = fed["B"].discovery.local_announce
        reader = fed.endpoint("B", "reader", "t")
        assert fed["B"].discovery.local_announce is None
        fed.spin("B", "A")
        second = fed["B"].discovery.local_announce
        assert second not in (None, first)
        assert writer.matched_readers() == [reader.guid]
        reader.close()
        fed.spin("B")
        # The endpoint set is back to the first, under a newer version.
        third = fed["B"].discovery.local_announce
        assert third not in (None, first, second)
        (listed,), (relisted,) = (wire.decode_message(data).submessages
                                  for data in (first, third))
        assert relisted.endpoints == listed.endpoints
        assert [wire.lone_announce(data)[1] for data in (first, second, third)] == [
            listed.version, listed.version + 1, listed.version + 2]
        fed.spin("A")
        assert writer.matched_readers() == []


def test_each_participant_encodes_once_per_endpoint_change():
    """However many peers and new-peer replies there are."""
    names = ("A", "B", "C", "D", "E")
    with _announce_encodes() as encoded, _Federation(*names) as fed:
        for name in names:
            fed.endpoint(name, "writer", "t")
            fed.endpoint(name, "reader", "t")
        fed.spin(rounds=3)
        for _ in range(3):
            fed.period()
        prefixes = {name: fed[name].guid.prefix for name in names}
        assert encoded == Counter({prefix: 1 for prefix in prefixes.values()})
        fed.endpoint("C", "reader", "u")
        for _ in range(2):
            fed.period()
        assert encoded[prefixes["C"]] == 2
        assert sum(encoded.values()) == len(names) + 1


def test_an_announce_the_encoder_refuses_is_not_kept():
    """Each period tries again, and logs again, as the endpoint set that
    overflows the datagram is still the same."""
    with _Federation("A", "B") as fed:
        for k in range(200):
            fed.endpoint("A", "writer", f"{k:03}" + "t" * 300)
        with unittest.TestCase().assertLogs("minidds.dcps.participant", "WARNING") as logs:
            for _ in range(2):
                fed.period("A")
        assert ["announce not sent" in line for line in logs.output] == [True, True]
        assert fed["A"].discovery.local_announce is None


def test_an_echo_of_our_own_announce_is_not_decoded():
    with _Federation("solo") as fed:
        fed.endpoint("solo", "writer", "t")
        solo = fed["solo"]
        solo.discovery.static_peers = ("solo",)  # as a multicast loopback would
        with _announce_decodes() as decoded:
            handled = sum(fed.period() for _ in range(3))
        assert handled == 3
        assert decoded == []
        assert solo.discovery.peer_count() == 0
        assert solo.malformed_datagrams == 0


def test_an_announce_that_came_with_another_submessage_is_decoded_each_time():
    """A repeat is skipped only when the datagram carried the announce
    alone; an announce from another domain is never remembered."""
    with _Federation("A", "B") as fed:
        reader = fed.endpoint("A", "reader", "t")
        writer = fed.endpoint("B", "writer", "t")
        fed.spin(rounds=3)
        sender = fed.net.attach("C")
        announce = wire.Announce(0, fed["B"].discovery.local_version, (writer.descriptor,))
        paired = wire.encode_message(wire.WireMessage(writer.guid.prefix,
                                                      (announce, announce)))
        foreign = wire.encode_message(wire.WireMessage(
            b"\x07" * 12, (wire.Announce(1, 1, (writer.descriptor,)),)))
        with _announce_decodes() as decoded:
            for _ in range(2):
                sender.send(paired, "A")
                sender.send(foreign, "A")
                fed.spin("A")
        assert len(decoded) == 2 * 3
        assert fed["A"].discovery.peer_count() == 1
        assert reader.matched_writers() == [writer.guid]


def test_lone_announce_reads_only_the_head():
    """The sender prefix and roster version of a datagram of one
    ANNOUNCE, whatever its later bytes; None for an announce with
    company, before or after it, for a datagram of another kind, of
    another wire version, or too short to say."""
    prefix = b"\x07" * 12
    announce = wire.Announce(0, 2**64 - 2, ())
    data = wire.Data(1, 0, 1, 0, 0, b"")
    alone = wire.encode_message(wire.WireMessage(prefix, (announce,)))
    assert wire.lone_announce(alone) == (prefix, 2**64 - 2)
    # Nothing past the version is read: a mangled endpoint count passes.
    assert wire.lone_announce(alone[:-2] + b"\xff\xff") == (prefix, 2**64 - 2)
    for company in ((announce, data), (data, announce), (announce, announce)):
        assert wire.lone_announce(wire.encode_message(
            wire.WireMessage(prefix, company))) is None
    assert wire.lone_announce(wire.encode_message(wire.WireMessage(prefix, (data,)))) is None
    assert wire.lone_announce(alone[:4] + b"\x01" + alone[5:]) is None
    assert wire.lone_announce(alone[:-1]) is None
    assert wire.lone_announce(alone[:36]) is None
    assert wire.lone_announce(b"") is None


if __name__ == "__main__":
    test_unchanged_announces_are_not_decoded()
    print("8 x 200 endpoints: 5 announce periods decoded no announce")
