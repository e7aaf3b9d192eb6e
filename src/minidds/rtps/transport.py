"""Datagram transports: real UDP sockets and an in-process test network.

Both expose the same small surface: ``send`` a datagram to an address,
``drain`` whatever has arrived, ``wait`` for readability. Addresses are
``(host, port)`` tuples for UDP and plain strings for the in-process hub.

The in-process network injects faults (drop, duplicate, bounded reorder)
from a seeded generator, so a given seed and send sequence always yields
the same delivery schedule.
"""

from __future__ import annotations

import logging
import random
import select
import socket
import struct
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property

log = logging.getLogger(__name__)

BASE_PORT = 7400
PORT_RETRIES = 16
DEFAULT_MULTICAST_GROUP = "239.255.0.1"
# What a drain charges a datagram on top of its payload: below the
# kernel's own per-datagram bookkeeping, which SO_RCVBUF also counts.
DATAGRAM_OVERHEAD = 512


class TransportError(Exception):
    pass


def default_port(domain_id: int) -> int:
    return BASE_PORT + domain_id


class UdpTransport:
    """Non-blocking UDP socket bound to the domain's port range.

    If the preferred port (7400 + domain_id) is taken, the next 16 ports
    are tried so several participants can share one host. An optional
    second socket joins a multicast group for discovery; failures to set
    that up are logged and unicast continues alone. One ``drain`` reads
    at most one receive buffer (``SO_RCVBUF``) of datagrams per socket,
    each charged its payload plus ``DATAGRAM_OVERHEAD`` bytes, so a flood
    of any datagram size cannot hold a spin, and the participant lock,
    forever.
    """

    def __init__(self, domain_id: int = 0, *, port: int | None = None,
                 bind_host: str = "0.0.0.0",
                 multicast_group: str | None = None,
                 multicast_port: int | None = None):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setblocking(False)
        preferred = port if port is not None else default_port(domain_id)
        bound = None
        for candidate in range(preferred, preferred + PORT_RETRIES + 1):
            try:
                self._sock.bind((bind_host, candidate))
                bound = candidate
                break
            except OSError:
                continue
        if bound is None:
            self._sock.close()
            raise TransportError(
                f"no free port in [{preferred}, {preferred + PORT_RETRIES}]")
        # The bound port, which differs from the requested one for port 0.
        self.port = self._sock.getsockname()[1]
        self.local_address = (bind_host, self.port)
        # Each bound socket and its receive buffer size, its drain budget.
        self._socks = {self._sock: self._sock.getsockopt(socket.SOL_SOCKET,
                                                         socket.SO_RCVBUF)}
        self.multicast_address: tuple[str, int] | None = None
        if multicast_group is not None:
            self._join_multicast(multicast_group,
                                 multicast_port if multicast_port is not None else preferred)
        self._closed = False

    def _join_multicast(self, group: str, port: int) -> None:
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if hasattr(socket, "SO_REUSEPORT"):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.setblocking(False)
            sock.bind(("", port))
            member = struct.pack("4s4s", socket.inet_aton(group),
                                 socket.inet_aton("0.0.0.0"))
            sock.setsockopt(socket.IPPROTO_IP, socket.IP_ADD_MEMBERSHIP, member)
            self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_TTL, 1)
            self._sock.setsockopt(socket.IPPROTO_IP, socket.IP_MULTICAST_LOOP, 1)
            self._socks[sock] = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            self.multicast_address = (group, port)
        except OSError as exc:
            log.warning("multicast %s:%d unavailable (%s); using unicast only",
                        group, port, exc)

    def send(self, data: bytes, dest: tuple[str, int]) -> None:
        try:
            self._sock.sendto(data, dest)
        except OSError as exc:
            log.warning("send to %s failed: %s", dest, exc)

    def drain(self) -> list[tuple[bytes, tuple[str, int]]]:
        out: list[tuple[bytes, tuple[str, int]]] = []
        for sock, budget in self._socks.items():
            while budget > 0:
                try:
                    data, src = sock.recvfrom(65535)
                except OSError:  # BlockingIOError once the socket is dry
                    break
                out.append((data, src))
                budget -= len(data) + DATAGRAM_OVERHEAD
        return out

    def wait(self, timeout: float) -> bool:
        if self._closed:
            return False
        try:
            readable, _, _ = select.select(list(self._socks), [], [], timeout)
        except OSError:
            return False
        return bool(readable)

    def close(self) -> None:
        self._closed = True
        for sock in self._socks:
            sock.close()


@dataclass(frozen=True)
class LossyConfig:
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    max_reorder_depth: int = 0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability outside [0, 1]")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability outside [0, 1]")
        if self.max_reorder_depth < 0:
            raise ValueError("max_reorder_depth must be >= 0")

    @cached_property
    def faulty(self) -> bool:
        """Whether any fault is set: drop, duplicate or reorder."""
        return bool(self.drop_probability or self.duplicate_probability
                    or self.max_reorder_depth)


class InProcNetwork:
    """Hub connecting in-process transports, with seeded fault injection.

    Faults draw from one ``random.Random(seed)`` in a fixed order per
    send (drop, then duplicate, then a reorder offset per delivered
    copy), which is what makes replays bit-identical; the offset is drawn
    inline, so a replay does not rest on ``randrange``'s internals. A
    fault-free network delivers each datagram once, at the back of the
    queue, and draws nothing.
    """

    def __init__(self, config: LossyConfig | None = None):
        self.config = config or LossyConfig()
        self._rng = random.Random(self.config.seed)
        self._endpoints: dict[str, "InProcTransport"] = {}

    def attach(self, name: str) -> "InProcTransport":
        if name in self._endpoints:
            raise ValueError(f"address {name!r} already attached")
        transport = InProcTransport(self, name)
        self._endpoints[name] = transport
        return transport

    def detach(self, name: str) -> None:
        self._endpoints.pop(name, None)

    def route(self, data: bytes, source: str, dest: str) -> None:
        cfg = self.config
        if not cfg.faulty:
            target = self._endpoints.get(dest)
            if target is not None:
                target._deliver(data, source, 0)
            return
        if cfg.drop_probability and self._rng.random() < cfg.drop_probability:
            return
        copies = 1
        if cfg.duplicate_probability and self._rng.random() < cfg.duplicate_probability:
            copies = 2
        target = self._endpoints.get(dest)
        n = cfg.max_reorder_depth + 1
        for _ in range(copies):
            offset = 0
            if n > 1:
                # A uniform draw below n by rejection over getrandbits,
                # the draws randrange(n) makes, without its call layers.
                k = n.bit_length()
                offset = self._rng.getrandbits(k)
                while offset >= n:
                    offset = self._rng.getrandbits(k)
            if target is not None:
                target._deliver(data, source, offset)


class InProcTransport:
    def __init__(self, network: InProcNetwork, name: str):
        self.network = network
        self.local_address = name
        # Never replaced: each deque call is atomic, so a sender thread's
        # insert and the pump's drain cannot lose a datagram between them.
        self._queue: deque[tuple[bytes, str]] = deque()
        self._arrival = threading.Condition(threading.Lock())
        self._waiters = 0

    def _deliver(self, data: bytes, source: str, reorder_offset: int) -> None:
        # The new datagram may overtake up to `offset` queued ones. A drain
        # in between only shortens the queue; insert then appends.
        queue = self._queue
        if reorder_offset:
            queue.insert(max(0, len(queue) - reorder_offset), (data, source))
        else:
            queue.append((data, source))
        # A waiter counts itself before it checks the queue, so it either
        # sees this datagram or is counted here and woken.
        if self._waiters:
            with self._arrival:
                self._arrival.notify_all()

    def send(self, data: bytes, dest: str) -> None:
        self.network.route(data, self.local_address, dest)

    def drain(self) -> list[tuple[bytes, str]]:
        popleft = self._queue.popleft
        return [popleft() for _ in range(len(self._queue))]

    def wait(self, timeout: float) -> bool:
        """Whether datagrams are queued, blocking up to ``timeout`` seconds
        for one to arrive when none is."""
        if self._queue:
            return True
        with self._arrival:
            self._waiters += 1
            try:
                return bool(self._arrival.wait_for(lambda: self._queue, timeout))
            finally:
                self._waiters -= 1

    def close(self) -> None:
        self.network.detach(self.local_address)
