"""Transport waits, addresses and drains: the in-process ``wait`` blocks
until a delivery or its timeout, a UDP transport on port 0 reports the
port the system bound, a datagram sent to a joined multicast group
reaches another member, and a UDP drain under a flood reads at most one
receive buffer's worth."""

import random
import socket
import sys
import threading
import time

import pytest

from minidds.rtps import transport as transport_module
from minidds.rtps.transport import InProcNetwork, UdpTransport


def test_inproc_wait_on_an_empty_queue_honours_its_timeout():
    transport = InProcNetwork().attach("a")
    start = time.monotonic()
    assert transport.wait(0.05) is False
    assert time.monotonic() - start >= 0.05


def test_inproc_wait_returns_at_once_when_datagrams_are_queued():
    net = InProcNetwork()
    receiver = net.attach("a")
    net.attach("b").send(b"x", "a")
    start = time.monotonic()
    assert receiver.wait(5.0) is True
    assert time.monotonic() - start < 1.0
    assert receiver.drain() == [(b"x", "b")]


def test_inproc_reordered_delivery_overtakes_up_to_its_offset():
    receiver = InProcNetwork().attach("a")
    for data, offset in ((b"1", 0), (b"2", 0), (b"3", 1), (b"4", 9)):
        receiver._deliver(data, "b", offset)
    assert [d for d, _ in receiver.drain()] == [b"4", b"1", b"3", b"2"]
    receiver._deliver(b"5", "b", 3)
    assert receiver.drain() == [(b"5", "b")]
    assert receiver.drain() == []


def test_inproc_delivery_from_another_thread_wakes_the_waiter():
    net = InProcNetwork()
    receiver, sender = net.attach("a"), net.attach("b")
    timer = threading.Timer(0.05, sender.send, args=(b"x", "a"))
    start = time.monotonic()
    timer.start()
    try:
        assert receiver.wait(10.0) is True
    finally:
        timer.join()
    assert time.monotonic() - start < 5.0
    assert receiver.drain() == [(b"x", "b")]


def test_inproc_wait_loses_no_wakeup_under_contention():
    """Four sender threads, more than the cores, each in turn deliver one
    datagram at a random moment around the receiver's wait. A wake-up lost
    between the queue check and the sleep would hold that wait for its
    whole 10 s timeout."""
    net = InProcNetwork()
    receiver = net.attach("rx")
    senders = [net.attach(f"tx{i}") for i in range(4)]
    rounds = 200
    turns = [threading.Event() for _ in senders]
    rng = random.Random(3)
    delays = [rng.random() * 2e-4 for _ in range(rounds)]

    def send(i):
        for r in range(i, rounds, len(senders)):
            assert turns[i].wait(10.0)
            turns[i].clear()
            time.sleep(delays[r])
            senders[i].send(r.to_bytes(2, "little"), "rx")

    threads = [threading.Thread(target=send, args=(i,), daemon=True)
               for i in range(len(senders))]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        start = time.monotonic()
        for r in range(rounds):
            turns[r % len(senders)].set()
            assert receiver.wait(10.0)
            assert [int.from_bytes(d, "little") for d, _ in receiver.drain()] == [r]
        elapsed = time.monotonic() - start
    finally:
        sys.setswitchinterval(previous)
        for event in turns:
            event.set()
        for thread in threads:
            thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert elapsed < 5.0


def test_udp_port_zero_records_the_bound_port():
    transport = UdpTransport(port=0, bind_host="127.0.0.1")
    try:
        assert transport.port != 0
        assert transport.local_address == ("127.0.0.1", transport.port)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.sendto(b"x", transport.local_address)
        assert transport.wait(5.0)
        assert [data for data, _ in transport.drain()] == [b"x"]
    finally:
        transport.close()


def _multicast_exchange(bind_host: str) -> None:
    """Two transports join one group on one port, on the interface of
    their bind host; a datagram sent to the group is drained by the other
    member within a second."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("", 0))
        group_port = probe.getsockname()[1]
    members = []
    try:
        for _ in range(2):
            members.append(UdpTransport(0, port=0, bind_host=bind_host,
                                        multicast_group="239.255.0.1",
                                        multicast_port=group_port))
        sender, receiver = members
        if sender.multicast_address is None or receiver.multicast_address is None:
            pytest.skip("this host cannot join a multicast group")
        assert sender.multicast_address == ("239.255.0.1", group_port)
        # Group datagrams leave by the bind host's interface.
        interface = sender._sock.getsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_IF, 4)
        assert socket.inet_ntoa(interface) == bind_host
        sender.send(b"to the group", sender.multicast_address)
        received = []
        deadline = time.monotonic() + 1.0
        while not received and time.monotonic() < deadline:
            receiver.wait(max(0.0, deadline - time.monotonic()))
            received = [(data, source) for data, source in receiver.drain()
                        if data == b"to the group"]
        assert [source[1] for _, source in received] == [sender.port]
    finally:
        for member in members:
            member.close()


def test_udp_multicast_reaches_another_member_of_the_group():
    _multicast_exchange("0.0.0.0")


def test_udp_multicast_reaches_another_member_on_a_specific_bind_host():
    _multicast_exchange("127.0.0.1")


class _FloodedSocket:
    """A bound UDP socket whose sender never stops: ``recvfrom`` never runs
    dry. Past a guard it raises, so an unbounded drain fails, not hangs."""

    RCVBUF = 8192
    GUARD = 100_000
    payload = b""

    def __init__(self, *_args):
        self.reads = 0
        self.rcvbuf_queries = 0

    def setblocking(self, _flag):
        pass

    def bind(self, address):
        self.address = address

    def getsockname(self):
        return self.address

    def getsockopt(self, level, option):
        assert (level, option) == (socket.SOL_SOCKET, socket.SO_RCVBUF)
        self.rcvbuf_queries += 1
        return self.RCVBUF

    def recvfrom(self, _size):
        self.reads += 1
        if self.reads > self.GUARD:
            raise AssertionError("drain kept reading a flooded socket")
        return self.payload, ("127.0.0.1", 9)

    def close(self):
        pass


@pytest.mark.parametrize("size", [0, 1, 1_000, 65_507])
def test_udp_drain_under_a_flood_reads_at_most_one_buffer(monkeypatch, size):
    monkeypatch.setattr(_FloodedSocket, "payload", b"x" * size)
    monkeypatch.setattr(transport_module.socket, "socket", _FloodedSocket)
    transport = UdpTransport(port=7400, bind_host="127.0.0.1")
    sock = transport._sock
    for spins in range(1, 4):
        drained = transport.drain()
        assert drained and all(data == sock.payload for data, _ in drained)
        assert sum(len(data) for data, _ in drained) < _FloodedSocket.RCVBUF + size
        # However small the datagrams, the kernel charges each at least
        # 256 bytes of the buffer, so no more fit into it.
        assert len(drained) <= _FloodedSocket.RCVBUF // max(size, 256) + 1
        assert sock.reads == len(drained) * spins
    assert sock.rcvbuf_queries == 1  # once, at bind
