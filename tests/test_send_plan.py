"""A writer's send plan: where a write goes is decided per match, not per
write, and is decided again whenever a match or a peer address changes.

Each case first writes once, so the plan exists, then changes what the
plan depends on and checks where the next write goes. A plan that were
never rebuilt would send that write where the first one went.
"""

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

from test_write_pass import assert_one_pass, record_a_write

MS = 1_000_000
COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
BEST_EFFORT = [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT),
               qos.History(qos.HistoryKind.KEEP_ALL)]


def _spin(*participants, rounds=1):
    for _ in range(rounds):
        for participant in participants:
            participant.spin_once()


class _Fixture:
    """Participants A (the writer's), B and C on one in-process network,
    with every DATA that A sends recorded as (destination, sequence)."""

    def __init__(self):
        self.net = InProcNetwork()
        self.clock = ManualClock(1_000_000_000)
        self.a, self.b, self.c = self.parts = [
            DomainParticipant(0, transport=self.net.attach(name), clock=self.clock,
                              static_peers=tuple(n for n in "ABC" if n != name))
            for name in "ABC"]
        self.sent: list[tuple[str, int]] = []
        send = self.a.transport.send

        def recording(data, dest):
            for sub in wire.decode_message(data).submessages:
                if isinstance(sub, wire.Data):
                    self.sent.append((dest, sub.sequence))
            send(data, dest)

        self.a.transport.send = recording
        self.writer = self.a.create_datawriter(self.a.create_topic("t", COUNTER),
                                               BEST_EFFORT)

    def reader(self, participant):
        return participant.create_datareader(participant.create_topic("t", COUNTER),
                                             BEST_EFFORT)

    def write(self, n: int) -> list[str]:
        """The destinations of this write's DATA, in send order."""
        self.sent.clear()
        sequence = self.writer.write({"n": n})
        assert all(seq == sequence for _, seq in self.sent)
        return [dest for dest, _ in self.sent]

    def close(self):
        for participant in self.parts:
            participant.close()


@pytest.fixture
def fx():
    fixture = _Fixture()
    yield fixture
    fixture.close()


def _values(reader):
    return [sample.values[0] for sample, _ in reader.take()]


def test_a_peer_that_moves_gets_the_next_write_at_its_new_address(fx):
    reader = fx.reader(fx.b)
    _spin(fx.a, fx.b, fx.a)
    assert fx.write(1) == ["B"]
    # B's announce, unchanged, now arrives from another address: the
    # match stays as it is and only the peer's address changes.
    moved = fx.net.attach("B2")
    announce = wire.Announce(0, fx.b.discovery.local_version, fx.b._local_descriptors())
    moved.send(wire.encode_message(wire.WireMessage(fx.b.guid.prefix, (announce,))), "A")
    _spin(fx.a)
    assert fx.writer.matched_readers() == [reader.guid]
    assert fx.write(2) == ["B2"]
    (data, source), = moved.drain()
    assert source == "A"
    assert [sub.sequence for sub in wire.decode_message(data).submessages] == [2]


def test_a_peer_that_times_out_gets_nothing(fx):
    fx.reader(fx.b)
    fx.reader(fx.c)
    _spin(*fx.parts, rounds=2)
    assert fx.write(1) == ["B", "C"]
    fx.clock.advance(3_100 * MS)
    _spin(fx.c, fx.a)  # B stays silent past three announce periods
    assert fx.a.discovery.peer_count() == 1
    assert fx.write(2) == ["C"]


def test_a_reader_matched_mid_stream_gets_the_next_write(fx):
    first = fx.reader(fx.b)
    _spin(fx.a, fx.b, fx.a)
    assert fx.write(1) == ["B"]
    late = fx.reader(fx.c)
    _spin(fx.c, fx.a)
    assert fx.write(2) == ["B", "C"]
    _spin(fx.b, fx.c)
    assert _values(first) == [1, 2]
    assert _values(late) == [2]


def test_a_reader_unmatched_mid_stream_gets_no_further_write(fx):
    fx.reader(fx.b)
    leaving = fx.reader(fx.c)
    _spin(*fx.parts, rounds=2)
    assert fx.write(1) == ["B", "C"]
    leaving.close()
    for _ in range(3):  # gone from three of C's announces
        fx.clock.advance(1_000 * MS)
        _spin(fx.b, fx.c, fx.a)
    assert len(fx.writer.matched_readers()) == 1
    assert fx.write(2) == ["B"]


def test_a_local_reader_matched_mid_stream_shares_the_remote_encode(fx, monkeypatch):
    remote = fx.reader(fx.b)
    _spin(fx.a, fx.b, fx.a)
    assert fx.write(1) == ["B"]
    local = fx.reader(fx.a)  # matches the writer as it is created
    packed, handed = record_a_write(monkeypatch, fx.writer)
    assert fx.write(2) == ["B"]
    assert_one_pass(fx.writer, 2, packed, handed, 2)
    assert _values(local) == [2]
    _spin(fx.b)
    assert _values(remote) == [1, 2]


def test_the_plan_is_reused_between_changes(fx, monkeypatch):
    """Writes with no match or peer change in between look up no address."""
    fx.reader(fx.b)
    fx.reader(fx.b)
    fx.reader(fx.c)
    _spin(*fx.parts, rounds=2)
    looked_up = []
    address_of = fx.a.discovery.address_of

    def counting(prefix):
        looked_up.append(prefix)
        return address_of(prefix)

    monkeypatch.setattr(fx.a.discovery, "address_of", counting)
    for n in range(5):
        assert fx.write(n) == ["B", "C"]
    assert len(looked_up) == 3  # one per matched reader, at the first write
