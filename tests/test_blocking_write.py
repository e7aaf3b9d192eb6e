"""A reliable keep-all write into a full history blocks until acks make room,
for at most max_blocking_time, whether the protocol is pumped inline by the
writing thread or by the participant's own pump thread."""

import socket
import time

import pytest

from minidds import idl, qos
from minidds.dcps.history import ResourceLimitsError
from minidds.dcps.participant import DomainParticipant
from minidds.rtps.transport import InProcNetwork

MS = 1_000_000
WRITER_QOS = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
              qos.History(qos.HistoryKind.KEEP_ALL),
              qos.ResourceLimits(max_samples=1, max_samples_per_instance=1)]
READER_QOS = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
              qos.History(qos.HistoryKind.KEEP_ALL)]


def _free_udp_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _until(condition, timeout_s=5.0):
    end = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < end, "timed out"
        time.sleep(0.001)


class TestBlockingWrite:
    def setup_method(self):
        self.parts = []

    def teardown_method(self):
        for part in self.parts:
            part.close()

    def _pair(self, max_blocking_time_ns):
        net = InProcNetwork()
        counter = idl.parse_idl("struct Counter { long n; };")[0]
        # A long announce period keeps the silent peer matched for the whole
        # test (it is dropped after three periods).
        a, b = (DomainParticipant(0, transport=net.attach(name), static_peers=(peer,),
                                  announce_period_ns=60_000 * MS,
                                  max_blocking_time_ns=max_blocking_time_ns)
                for name, peer in (("A", "B"), ("B", "A")))
        self.parts += [a, b]
        writer = a.create_datawriter(a.create_topic("t", counter), WRITER_QOS)
        b.create_datareader(b.create_topic("t", counter), READER_QOS)
        return a, b, writer

    def _match_inline(self, a, b, writer):
        for _ in range(10):
            a.spin_once()
            b.spin_once()
        assert writer.matched_readers()

    def _blocked_write_raises_after(self, writer, budget_s):
        writer.write({"n": 1})
        start = time.monotonic()
        with pytest.raises(ResourceLimitsError, match="past max_blocking_time"):
            writer.write({"n": 2})  # the peer never acks: no room appears
        assert time.monotonic() - start >= budget_s

    def test_inline_pump_waits_out_max_blocking_time(self):
        a, b, writer = self._pair(2_000 * MS)
        self._match_inline(a, b, writer)
        self._blocked_write_raises_after(writer, 2.0)

    def test_pump_thread_waits_out_max_blocking_time(self):
        a, b, writer = self._pair(500 * MS)
        self._match_inline(a, b, writer)
        a.start()
        self._blocked_write_raises_after(writer, 0.5)

    def test_pump_threads_drain_a_one_sample_history(self):
        # Over UDP loopback the pump threads sleep in select between
        # datagrams instead of spinning on an in-process queue.
        counter = idl.parse_idl("struct Counter { long n; };")[0]
        port_a, port_b = _free_udp_port(), _free_udp_port()
        a, b = (DomainParticipant(0, port=port, bind_host="127.0.0.1",
                                  static_peers=[("127.0.0.1", peer)],
                                  heartbeat_period_ns=1 * MS,
                                  max_blocking_time_ns=5_000 * MS)
                for port, peer in ((port_a, port_b), (port_b, port_a)))
        self.parts += [a, b]
        writer = a.create_datawriter(a.create_topic("t", counter), WRITER_QOS)
        reader = b.create_datareader(b.create_topic("t", counter), READER_QOS)
        a.start(poll_interval_s=0.001)
        b.start(poll_interval_s=0.001)
        _until(lambda: writer.matched_readers())
        for n in range(200):
            writer.write({"n": n})
        received = []
        _until(lambda: received.extend(s.values[0] for s, _ in reader.take())
               or len(received) >= 200)
        assert received == list(range(200))

    def test_inproc_pump_threads_drain_a_one_sample_history(self):
        """The same 200 writes in process: each pump thread sleeps in its
        transport's wait until a datagram arrives. A wait that returned at
        once made both pumps spin, and the writes took 8.6 s; they take
        about 0.3 s on a 2-core x86-64 host under CPython 3.11."""
        budget_s = 3.0
        counter = idl.parse_idl("struct Counter { long n; };")[0]
        net = InProcNetwork()
        a, b = (DomainParticipant(0, transport=net.attach(name), static_peers=(peer,),
                                  heartbeat_period_ns=1 * MS,
                                  max_blocking_time_ns=5_000 * MS)
                for name, peer in (("A", "B"), ("B", "A")))
        self.parts += [a, b]
        writer = a.create_datawriter(a.create_topic("t", counter), WRITER_QOS)
        reader = b.create_datareader(b.create_topic("t", counter), READER_QOS)
        a.start(poll_interval_s=0.001)
        b.start(poll_interval_s=0.001)
        _until(lambda: writer.matched_readers())
        start = time.monotonic()
        for n in range(200):
            writer.write({"n": n})
        received = []
        _until(lambda: received.extend(s.values[0] for s, _ in reader.take())
               or len(received) >= 200, timeout_s=30.0)
        elapsed = time.monotonic() - start
        assert received == list(range(200))
        assert elapsed < budget_s, f"200 writes took {elapsed:.2f} s"
