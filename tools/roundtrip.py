"""One-thread round trip over UDP loopback, against the stdlib floor.

    python3 tools/roundtrip.py [--smoke]

Two participants, A and B, live in this process on UDP loopback, each
the other's static peer, and one thread spins them in turn; neither
runs a pump thread. A writes a 100 B ``Ping`` (an unsigned long and 92
characters) on one topic, and B takes it and writes it back on another;
every endpoint is KEEP_LAST(1). A round trip ends when A has taken the
echo. It runs once with BEST_EFFORT endpoints and once with RELIABLE
ones, each on a fresh pair after a warm-up.

The floor is what the same bounce costs with the stdlib alone: two
non-blocking sockets in this process send a 160 B datagram, the size
of the Ping's DATA message, to each other and read it back.

Time is process CPU time (``time.process_time_ns``: user and system)
per round trip, over 7 windows of 2 000 round trips after 200 more. A
floor window runs before each middleware window, so the two see the
same machine. Prints one JSON object: per reliability the median window
of the round trip and of the floor in µs, their ratio, and every window.
``--smoke`` runs 2 windows of 50 round trips after 10. Exits 1 when a
round trip loses a sample (no echo within a second) or alters one.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minidds import idl, qos  # noqa: E402
from minidds.dcps import DomainParticipant  # noqa: E402
from minidds.rtps import wire  # noqa: E402

HOST = "127.0.0.1"
PING_IDL = "struct Ping { unsigned long seq; string body; };"
BODY = 92  # characters, for a 100 B payload
DATAGRAM = wire.DATA_PAYLOAD_START + 8 + BODY  # the Ping's DATA message, 160 B
TIMEOUT_S = 1.0  # for one leg of a round trip, and for matching 10 times that
# (windows, round trips per window, round trips of warm-up), full and smoke.
FULL, SMOKE = (7, 2000, 200), (2, 50, 10)


class Lost(Exception):
    """A round trip lost or altered its sample."""


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class _Pair:
    """Participants A and B, matched both ways: A writes ``ping`` and
    reads ``echo``, B the other way round."""

    def __init__(self, reliability: qos.ReliabilityKind):
        descriptor, = idl.parse_idl(PING_IDL)
        endpoint_qos = [qos.Reliability(reliability), qos.History(qos.HistoryKind.KEEP_LAST, 1)]
        ports = _free_port(), _free_port()
        self.a, self.b = (DomainParticipant(0, port=port, bind_host=HOST,
                                            static_peers=[(HOST, peer)])
                          for port, peer in (ports, ports[::-1]))
        self.ends = []  # (writer, reader) of A, then of B
        for participant, out, into in ((self.a, "ping", "echo"), (self.b, "echo", "ping")):
            self.ends.append((
                participant.create_datawriter(participant.create_topic(out, descriptor),
                                              endpoint_qos),
                participant.create_datareader(participant.create_topic(into, descriptor),
                                              endpoint_qos)))
        deadline = time.monotonic() + 10 * TIMEOUT_S
        while not all(w.matches() and r.matches() for w, r in self.ends):
            if time.monotonic() > deadline:
                self.close()
                raise Lost("the participants did not match")
            self.a.transport.wait(0.001)
            self.a.spin_once()
            self.b.spin_once()

    def _leg(self, sender, receiver, writer, reader, values: tuple) -> None:
        """``writer`` sends ``values``; both sides spin, the receiver
        first, until ``reader`` takes them."""
        writer.write(idl.Sample("Ping", values))
        deadline = None
        while True:
            receiver.spin_once()
            taken = reader.take()
            if taken:
                took = [sample.values for sample, _ in taken]
                if took != [values]:
                    raise Lost(f"sent {values!r}, took {took!r}")
                return
            sender.spin_once()
            if deadline is None:
                deadline = time.monotonic() + TIMEOUT_S
            elif time.monotonic() > deadline:
                raise Lost(f"{values[0]} was not taken within {TIMEOUT_S:g} s")

    def round_trips(self, first: int, count: int) -> None:
        (a_writer, a_reader), (b_writer, b_reader) = self.ends
        for seq in range(first, first + count):
            values = (seq, chr(ord("a") + seq % 26) * BODY)
            self._leg(self.a, self.b, a_writer, b_reader, values)
            self._leg(self.b, self.a, b_writer, a_reader, values)

    def close(self) -> None:
        self.a.close()
        self.b.close()


class _Floor:
    """Two non-blocking UDP sockets on loopback."""

    def __init__(self):
        self.socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(2)]
        for sock in self.socks:
            sock.bind((HOST, 0))
            sock.setblocking(False)
        self.addresses = [sock.getsockname() for sock in self.socks]

    def _leg(self, sender, receiver, address, data: bytes) -> None:
        sender.sendto(data, address)
        deadline = None
        while True:
            try:
                got, _ = receiver.recvfrom(65536)
            except BlockingIOError:
                if deadline is None:
                    deadline = time.monotonic() + TIMEOUT_S
                elif time.monotonic() > deadline:
                    raise Lost("the floor lost a datagram") from None
                continue
            if got != data:
                raise Lost("the floor altered a datagram")
            return

    def round_trips(self, first: int, count: int) -> None:
        (one, two), (at_one, at_two) = self.socks, self.addresses
        for seq in range(first, first + count):
            data = seq.to_bytes(8, "little") + bytes(DATAGRAM - 8)
            self._leg(one, two, at_two, data)
            self._leg(two, one, at_one, data)

    def close(self) -> None:
        for sock in self.socks:
            sock.close()


def _window_us(rig, first: int, trips: int) -> float:
    began = time.process_time_ns()
    rig.round_trips(first, trips)
    return (time.process_time_ns() - began) / trips / 1e3


def measure(reliability: qos.ReliabilityKind, windows: int, trips: int, warmup: int) -> dict:
    pair, floor = _Pair(reliability), _Floor()
    try:
        pair.round_trips(0, warmup)
        floor.round_trips(0, warmup)
        rows = {"round_trip": [], "floor": []}
        for n in range(windows):
            first = warmup + n * trips
            rows["floor"].append(_window_us(floor, first, trips))
            rows["round_trip"].append(_window_us(pair, first, trips))
    finally:
        pair.close()
        floor.close()
    round_trip, floor_us = (statistics.median(rows[k]) for k in ("round_trip", "floor"))
    return {"round_trip_us": round(round_trip, 2), "floor_us": round(floor_us, 2),
            "ratio": round(round_trip / floor_us, 2),
            "windows_us": {k: [round(v, 2) for v in values] for k, values in rows.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true", help="2 windows of 50 round trips")
    windows, trips, warmup = SMOKE if parser.parse_args(argv).smoke else FULL
    result = {"python": f"{platform.python_implementation()} {platform.python_version()}",
              "cpus": os.cpu_count(), "windows": windows, "trips": trips, "correct": True}
    status = 0
    for reliability in (qos.ReliabilityKind.BEST_EFFORT, qos.ReliabilityKind.RELIABLE):
        try:
            result[reliability.name.lower()] = measure(reliability, windows, trips, warmup)
        except Lost as exc:
            result[reliability.name.lower()] = {"error": str(exc)}
            result["correct"], status = False, 1
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
