"""The udp-pingpong workload: Table 1's round-trip/2 latency over loopback.

The ping side runs in the benchmark process and the echo side in a child
process (``echo.py``); each pumps its participant inline on one thread,
the echo sleeping in ``select`` on its UDP socket and the ping polling
its socket with a zero timeout. Pings go out on a fixed schedule (open
loop), and each latency is taken from when its ping was due, so a late
generator counts against the result; how late it ran is reported too.
"""

from __future__ import annotations

import random
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from minidds import idl, qos
from minidds.dcps import DomainParticipant

from common import Outcome, percentile, random_text, repeated_setup

PING_IDL = "struct Ping { unsigned long seq; string body; };"
PAYLOAD = 100  # serialized bytes: seq, string length, 92 characters
BODY_VARIANTS = 64
PING_TOPIC = "perfbench.ping"
ECHO_TOPIC = "perfbench.echo"
ENDPOINT_QOS = (qos.Reliability(qos.ReliabilityKind.RELIABLE),
                qos.History(qos.HistoryKind.KEEP_LAST, 1))
HOST = "127.0.0.1"
ECHO_SCRIPT = Path(__file__).resolve().parent / "echo.py"
MATCH_TIMEOUT_S = 20.0
PROBE_INTERVAL_S = 0.01
STOP_TIMEOUT_S = 10.0
RATE_HZ = 1000  # pings per second, as in Table 1


@dataclass(frozen=True)
class PingSettings:
    warmup: int = 200       # pings before the measured ones, not measured
    grace_s: float = 2.0    # how long after the last ping an echo may take
    setups: int = 9


PING_SMOKE = PingSettings(warmup=50, grace_s=1.0, setups=1)


def free_udp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def create_endpoints(participant, descriptor, role: str, listener):
    """The (writer, reader) of one side: ping writes PING_TOPIC and reads
    ECHO_TOPIC, echo the other way round."""
    ping = participant.create_topic(PING_TOPIC, descriptor)
    echo = participant.create_topic(ECHO_TOPIC, descriptor)
    out_topic, in_topic = (ping, echo) if role == "ping" else (echo, ping)
    writer = participant.create_datawriter(out_topic, list(ENDPOINT_QOS))
    reader = participant.create_datareader(in_topic, list(ENDPOINT_QOS),
                                           listener=listener)
    return writer, reader


class _PingRig:
    """Ping participant plus a spawned echo process, matched both ways:
    set-up ends when the first probe has come back."""

    def __init__(self, seed: int):
        self.arrivals: dict[int, tuple[int, tuple]] = {}
        self.duplicates = 0
        self.write_errors: list[str] = []
        self.echo: Optional[subprocess.Popen] = None
        self.descriptor, = idl.parse_idl(PING_IDL)
        self.participant = DomainParticipant(0, port=free_udp_port(), bind_host=HOST,
                                             rng=random.Random(seed))
        try:
            self.writer, self.reader = create_endpoints(
                self.participant, self.descriptor, "ping", self._on_echo)
            self.echo = subprocess.Popen(
                [sys.executable, str(ECHO_SCRIPT),
                 "--peer", f"{HOST}:{self.participant.transport.port}",
                 "--seed", str(seed)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            began = time.perf_counter_ns()
            deadline = time.monotonic() + MATCH_TIMEOUT_S
            while not (self.writer.matches() and self.reader.matches()):
                self._check_alive(deadline)
                self.pump(PROBE_INTERVAL_S)
            self.match_s = (time.perf_counter_ns() - began) / 1e9
            probe = 0
            while not self.arrivals:
                self._check_alive(deadline)
                probe += 1
                self.write(probe, (probe, ""))
                self.pump(PROBE_INTERVAL_S)
            self.next_seq = probe + 1
        except BaseException:
            self.close()
            raise

    def _check_alive(self, deadline: float) -> None:
        if self.echo.poll() is not None:
            raise RuntimeError(f"echo process exited with {self.echo.returncode}: "
                               f"{self.echo.stderr.read().strip()}")
        if time.monotonic() > deadline:
            raise RuntimeError("echo process did not answer within "
                               f"{MATCH_TIMEOUT_S:g} s")

    def _on_echo(self, reader) -> None:
        now = time.perf_counter_ns()
        for sample, _info in reader.take():
            seq = sample.values[0]
            if seq in self.arrivals:
                self.duplicates += 1
            else:
                self.arrivals[seq] = (now, sample.values)

    def write(self, seq: int, values: tuple) -> None:
        self.writer.write(idl.Sample("Ping", values))

    def pump(self, timeout_s: float) -> None:
        self.participant.transport.wait(timeout_s)
        self.participant.spin_once()

    def close(self) -> int:
        """Stop both sides; returns how many pings the echo reflected
        (-1 when it did not say)."""
        self.participant.close()
        if self.echo is None:
            return -1
        self.echo.terminate()
        try:
            stdout, _ = self.echo.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.echo.kill()
            stdout, _ = self.echo.communicate()
        words = stdout.split()
        return int(words[-1]) if words[:1] == ["echoed"] else -1


def run_udp_pingpong(seed: int, settings: PingSettings = PingSettings(), *,
                     seconds: float, tracer=None) -> Outcome:
    """Open loop: ``seconds * RATE_HZ`` pings at a fixed rate, each checked
    against its echo."""
    inputs = random.Random(f"udp-pingpong/{seed}")
    bodies = [random_text(inputs, PAYLOAD - 8) for _ in range(BODY_VARIANTS)]
    rig, setup_s, match_s = repeated_setup(lambda: _PingRig(seed), settings.setups)
    out = Outcome()
    count = max(1, round(seconds * RATE_HZ))
    period_ns = 10**9 // RATE_HZ
    first = rig.next_seq + settings.warmup
    warm = range(rig.next_seq, first)
    measured = range(first, first + count)
    values = {seq: (seq, bodies[inputs.randrange(BODY_VARIANTS)])
              for seq in range(rig.next_seq, first + count)}
    try:
        _paced(rig, warm, values, period_ns)
        if tracer is not None:
            tracer.install()
        try:
            due, late = _paced(rig, measured, values, period_ns)
            grace_end = time.perf_counter_ns() + int(settings.grace_s * 1e9)
            waiting = [seq for seq in measured if seq not in rig.arrivals]
            while waiting and time.perf_counter_ns() < grace_end:
                rig.pump(0.005)
                waiting = [seq for seq in waiting if seq not in rig.arrivals]
            last = max((rig.arrivals[s][0] for s in measured if s in rig.arrivals),
                       default=time.perf_counter_ns())
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        echoed = rig.close()
    out.attempted = count
    latencies = []
    for seq in measured:
        got = rig.arrivals.get(seq)
        if got is None:
            out.failed += 1
        elif got[1] != values[seq]:
            out.failed += 1
            out.problem(f"ping {seq}: echoed payload differs from the ping")
        else:
            latencies.append((got[0] - due[seq]) / 2e3)
    if out.failed:
        out.problem(f"{out.failed} of {count} pings failed (no echo within "
                    f"{settings.grace_s:g} s, or a wrong payload)")
    for seq in warm:
        if seq in rig.arrivals and rig.arrivals[seq][1] != values[seq]:
            out.problem(f"warm-up ping {seq}: echoed payload differs from the ping")
    for error in rig.write_errors:
        out.problem(error)
    if rig.duplicates:
        out.problem(f"{rig.duplicates} echoes arrived twice")
    # Set-up probes sent before the echo side matched are never reflected.
    if echoed < len(warm) + count:
        out.problem(f"echo process reflected {echoed} pings, fewer than the "
                    f"{len(warm) + count} sent after set-up")
    timed_s = (last - min(due.values())) / 1e9
    ok = len(latencies)
    out.writes = count
    out.payload_bytes = count * PAYLOAD
    out.deliveries = ok
    out.timed_s = timed_s
    jitter = [abs(b - a) for a, b in zip(latencies, latencies[1:])]
    # The offered rate sets throughput here, so only latency is reported.
    out.metrics = {
        "setup_s": setup_s,
        "latency_p50_us": percentile(latencies, 0.50) if latencies else 0.0,
        "latency_p90_us": percentile(latencies, 0.90) if latencies else 0.0,
    }
    out.diagnostics = {
        "latency_p99_us": percentile(latencies, 0.99) if latencies else 0.0,
        "jitter_mean_us": statistics.fmean(jitter) if jitter else 0.0,
        "generator_late_p50_us": percentile(late, 0.50) / 1e3,
        "discovery.match_s": match_s,
        "latency_samples": ok,
    }
    stats = rig.reader.statistics()
    out.counts = {"duplicates_discarded": stats.duplicates_discarded,
                  "evicted": stats.evicted_by_history}
    return out


def _paced(rig: _PingRig, seqs: list[int], values: dict, period_ns: int):
    """Send ``seqs`` one per period, pumping arrivals in between. Returns
    each ping's due time and how late each went out (ns).

    The ping side polls instead of sleeping in ``select``: on a 2-vCPU
    Firecracker VM a sleeping vCPU took 50-100 us to wake, which made both
    the send time and the median latency swing with the host's load."""
    due: dict[int, int] = {}
    late: list[int] = []
    transport, spin = rig.participant.transport, rig.participant.spin_once
    pc = time.perf_counter_ns
    start = pc() + period_ns
    for i, seq in enumerate(seqs):
        at = start + i * period_ns
        while (now := pc()) < at:
            if transport.wait(0):
                spin()
        due[seq] = at
        late.append(now - at)
        try:
            rig.write(seq, values[seq])
        except Exception as exc:  # the ping then fails for want of an echo
            rig.write_errors.append(f"ping {seq} raised {exc!r}")
    return due, late
