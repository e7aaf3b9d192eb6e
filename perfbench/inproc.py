"""The two in-process workloads: reliable-stream and keyed-fanout.

Both run on ``InProcNetwork`` with a ``ManualClock`` and pump every
participant inline (no background threads), so for a fixed seed and a
fixed number of rounds every protocol count repeats exactly. A round is
one unit of generated input: its samples are built before the round's
timer starts and checked after it stops.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from dataclasses import dataclass
from typing import Optional

from minidds import idl, qos
from minidds.bench.reference import TABLE2_SIZES
from minidds.clock import ManualClock
from minidds.dcps import DomainParticipant
from minidds.rtps.reliability import HEARTBEAT_PERIOD_NS
from minidds.rtps.transport import InProcNetwork, LossyConfig

from common import (Outcome, ReferenceTimer, keep_going, percentile, random_text,
                    repeated_setup)

# One announce at startup, then silence: the runs last well under an hour
# of virtual time, so discovery chatter never draws on the fault plan.
QUIET_ANNOUNCE_NS = 3_600_000_000_000
MATCH_SPIN_LIMIT = 100


def _spin_until(participants, matched, what: str) -> None:
    for _ in range(MATCH_SPIN_LIMIT):
        if matched():
            return
        for participant in participants:
            participant.spin_once()
    raise RuntimeError(f"{what}: endpoints did not match")


def _write(out: Outcome, writer, sample) -> None:
    """One write; one that raises counts as failed and the run goes on
    (the output checks then report what went missing)."""
    try:
        writer.write(sample)
    except Exception as exc:  # counted and reported, not hidden
        out.failed += 1
        out.problem(f"write of {sample.values[:3]} raised {exc!r}")


def _latency_stats(latencies_us: list[float]) -> dict[str, float]:
    jitter = [abs(b - a) for a, b in zip(latencies_us, latencies_us[1:])]
    return {
        "latency_p50_us": percentile(latencies_us, 0.50),
        "latency_p90_us": percentile(latencies_us, 0.90),
        "latency_p99_us": percentile(latencies_us, 0.99),
        "jitter_mean_us": statistics.fmean(jitter) if jitter else 0.0,
    }


class _RoundLog:
    """Per-round rates and latency statistics; a run reports their medians,
    so one round slowed by something outside the program moves nothing.
    Each round is timed at reference speed by a ``ReferenceTimer``; the
    raw rate and the slowness are kept as diagnostics."""

    def __init__(self):
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.mbits: list[float] = []
        self.slowness: list[float] = []
        self.latency: list[dict[str, float]] = []

    def __len__(self) -> int:
        return len(self.rates)

    def add(self, samples: int, payload_bytes: int, round_s: float, reference_s: float,
            latencies_us: list[float]) -> None:
        """``round_s`` is wall time, ``reference_s`` the same at reference speed."""
        scale = round_s / reference_s
        self.raw_rates.append(samples / round_s)
        self.rates.append(samples / reference_s)
        self.mbits.append(payload_bytes * 8 / reference_s / 1e6)
        self.slowness.append(scale)
        if latencies_us:
            self.latency.append(_latency_stats([v / scale for v in latencies_us]))

    def finish(self, out: Outcome, setup_s: float, match_s: float, spins: int,
               stats) -> None:
        """Fill ``out``'s metrics, diagnostics and counts; ``stats`` are
        the readers' ``ReaderStats``."""
        latency = {name: statistics.median(r[name] for r in self.latency)
                   for name in (self.latency[0] if self.latency else ())}
        out.metrics = {
            "setup_s": setup_s,
            "samples_per_s": statistics.median(self.rates),
            "payload_mbit_per_s": statistics.median(self.mbits),
        }
        # Write-to-take latency of a closed loop is set by its batching (a
        # burst, or a block between takes): about half a round, so it tracks
        # 1/samples_per_s and is recorded, not gated.
        out.diagnostics = {
            "latency_p50_us": latency.get("latency_p50_us", 0.0),
            "latency_p90_us": latency.get("latency_p90_us", 0.0),
            "latency_p99_us": latency.get("latency_p99_us", 0.0),
            "jitter_mean_us": latency.get("jitter_mean_us", 0.0),
            "generator_late_p50_us": 0.0,  # closed loop: nothing is ever due
            "discovery.match_s": match_s,
            "samples_per_s_raw": statistics.median(self.raw_rates),
            "slowness": statistics.median(self.slowness),
        }
        out.counts = {
            "spins": spins,
            "duplicates_discarded": sum(s.duplicates_discarded for s in stats),
            "samples_lost": sum(s.samples_lost for s in stats),
            "evicted": sum(s.evicted_by_history for s in stats),
        }


# ---------------------------------------------------------------------------
# reliable-stream

STREAM_IDL = "struct Chunk { unsigned long n; string body; };"
STREAM_HEADER = 8  # n plus the string length prefix
BODY_VARIANTS = 16
STREAM_FAULTS = dict(drop_probability=0.02, duplicate_probability=0.01,
                     max_reorder_depth=8)
REPAIR_ROUND_LIMIT = 10_000


@dataclass(frozen=True)
class StreamSettings:
    burst: int = 8192         # unacked samples written back to back
    traced_rounds: int = 4    # bursts in a fixed-work (traced) run
    setups: int = 20


STREAM_SMOKE = StreamSettings(burst=256, traced_rounds=2, setups=2)


class _StreamRig:
    """Two participants, one reliable keep-all writer and reader, matched
    over a lossless network that then switches to the seeded fault plan."""

    def __init__(self, seed: int):
        self.clock = ManualClock(1_000_000_000)
        identities = random.Random(seed)
        self.net = InProcNetwork(LossyConfig(seed=seed))
        shared = dict(clock=self.clock, announce_period_ns=QUIET_ANNOUNCE_NS,
                      rng=identities)
        self.pub = DomainParticipant(0, transport=self.net.attach("pub"),
                                     static_peers=("sub",), **shared)
        self.sub = DomainParticipant(0, transport=self.net.attach("sub"),
                                     static_peers=("pub",), **shared)
        self.descriptor, = idl.parse_idl(STREAM_IDL)
        policies = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
                    qos.History(qos.HistoryKind.KEEP_ALL)]
        self.writer = self.pub.create_datawriter(
            self.pub.create_topic("stream", self.descriptor), list(policies))
        self.reader = self.sub.create_datareader(
            self.sub.create_topic("stream", self.descriptor), list(policies))
        began = time.perf_counter_ns()
        _spin_until((self.pub, self.sub),
                    lambda: self.writer.matched_readers() and self.reader.matched_writers(),
                    "reliable-stream")
        self.match_s = (time.perf_counter_ns() - began) / 1e9
        self.net.config = LossyConfig(seed=seed, **STREAM_FAULTS)

    def close(self) -> None:
        self.pub.close()
        self.sub.close()


def run_reliable_stream(seed: int, settings: StreamSettings = StreamSettings(), *,
                        seconds: Optional[float] = None,
                        rounds: Optional[int] = None, tracer=None) -> Outcome:
    """Closed loop: write a burst, then pump and advance virtual time one
    heartbeat period per spin round until the burst is acked and taken."""
    inputs = random.Random(f"reliable-stream/{seed}")
    bodies = {size: [random_text(inputs, size - STREAM_HEADER) for _ in range(BODY_VARIANTS)]
              for size in TABLE2_SIZES}
    rig, setup_s, match_s = repeated_setup(lambda: _StreamRig(seed), settings.setups)
    out = Outcome()
    log = _RoundLog()
    spins = 0
    next_seq = 1
    burst = settings.burst
    clock, pub, sub, writer, reader = rig.clock, rig.pub, rig.sub, rig.writer, rig.reader
    if tracer is not None:
        tracer.install()
    try:
        began = time.perf_counter_ns()
        timer = ReferenceTimer()
        while keep_going(began, len(log), seconds, rounds):
            first = next_seq
            sizes = inputs.choices(TABLE2_SIZES, k=burst)
            samples = [idl.Sample("Chunk", (first + i, bodies[size][inputs.randrange(BODY_VARIANTS)]))
                       for i, size in enumerate(sizes)]
            stamps = [0] * burst
            takes = []
            taken = repair_rounds = 0
            out.attempted += burst
            timer.start()
            for i, sample in enumerate(samples):
                _write(out, writer, sample)
                stamps[i] = timer.now()
                timer.lap()
            while taken < burst or writer.unacknowledged():
                if repair_rounds == REPAIR_ROUND_LIMIT:
                    break
                clock.advance(HEARTBEAT_PERIOD_NS)
                pub.spin_once()
                sub.spin_once()
                got = reader.take()
                if got:
                    takes.append((timer.now(), got))
                    taken += len(got)
                repair_rounds += 1
                timer.lap()
            round_s, reference_s = timer.stop()
            out.timed_s += round_s
            next_seq += burst
            spins += 2 * repair_rounds
            if repair_rounds == REPAIR_ROUND_LIMIT:
                out.problem(f"burst at {first}: repair stalled after "
                            f"{REPAIR_ROUND_LIMIT} spin rounds")
            latencies = _check_stream(out, samples, stamps, takes, first)
            out.writes += burst
            out.payload_bytes += sum(sizes)
            log.add(burst, sum(sizes), round_s, reference_s, latencies)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = reader.statistics()
    if stats.samples_lost:
        out.problem(f"reader gave up {stats.samples_lost} sequences as lost")
    rig.close()
    out.deliveries = out.writes - out.failed
    log.finish(out, setup_s, match_s, spins, [stats])
    return out


def _check_stream(out: Outcome, samples, stamps, takes, first: int) -> list[float]:
    """Every sequence taken exactly once with the written field values,
    rising within each take. Order across takes is not required: the
    reader hands out reordered arrivals before the gap below them is
    repaired. Returns write-to-take latencies in microseconds."""
    burst = len(samples)
    seen = bytearray(burst)
    latencies = []
    for take_ns, got in takes:
        previous = 0
        for sample, info in got:
            seq = info.sequence
            if seq <= previous:
                out.problem(f"take not rising: {seq} after {previous}")
                out.failed += 1
            previous = seq
            i = seq - first
            if not 0 <= i < burst:
                out.problem(f"sequence {seq} outside the burst at {first}")
                out.failed += 1
            elif seen[i]:
                out.problem(f"sequence {seq} taken twice")
                out.failed += 1
            else:
                seen[i] = 1
                if sample.values != samples[i].values:
                    out.problem(f"sequence {seq}: taken values differ from written")
                    out.failed += 1
                latencies.append((take_ns - stamps[i]) / 1e3)
    missing = burst - sum(seen)
    if missing:
        out.problem(f"burst at {first}: {missing} sequences never taken")
        out.failed += missing
    return latencies


# ---------------------------------------------------------------------------
# keyed-fanout

FANOUT_IDL = """
struct Reading {
    long site; //@key
    unsigned long sensor; //@key
    unsigned long long stamp;
    double value;
    string label;
};
"""
LABEL_LENGTH = 36  # puts the serialized sample at 64 bytes
LABEL_VARIANTS = 32
SENSORS_PER_SITE = 64
SPIN_EVERY = 64  # writes between pumps
WRITE_STEP_NS = 1_000  # virtual time per write, so source stamps rise


@dataclass(frozen=True)
class FanoutSettings:
    instances: int = 4096
    block: int = 1024         # writes between takes, a multiple of SPIN_EVERY
    traced_rounds: int = 20   # blocks in a fixed-work (traced) run
    setups: int = 20


FANOUT_SMOKE = FanoutSettings(instances=256, block=256, traced_rounds=2, setups=2)


class _FanoutRig:
    """Three participants: one best-effort keep-last(1) by-source-timestamp
    writer, two matching readers on each of the two other participants."""

    def __init__(self, seed: int):
        self.clock = ManualClock(1_000_000_000)
        identities = random.Random(seed)
        self.net = InProcNetwork()
        names = ("pub", "a", "b")
        self.participants = [
            DomainParticipant(0, clock=self.clock, transport=self.net.attach(name),
                              static_peers=tuple(n for n in names if n != name),
                              announce_period_ns=QUIET_ANNOUNCE_NS, rng=identities)
            for name in names]
        self.descriptor, = idl.parse_idl(FANOUT_IDL)
        policies = [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT),
                    qos.History(qos.HistoryKind.KEEP_LAST, 1),
                    qos.DestinationOrder(qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)]
        pub = self.participants[0]
        self.writer = pub.create_datawriter(
            pub.create_topic("readings", self.descriptor), list(policies))
        self.readers = [
            p.create_datareader(p.create_topic("readings", self.descriptor), list(policies))
            for p in self.participants[1:] for _ in range(2)]
        began = time.perf_counter_ns()
        _spin_until(self.participants,
                    lambda: (len(self.writer.matched_readers()) == len(self.readers)
                             and all(r.matched_writers() for r in self.readers)),
                    "keyed-fanout")
        self.match_s = (time.perf_counter_ns() - began) / 1e9

    def close(self) -> None:
        for participant in self.participants:
            participant.close()


def run_keyed_fanout(seed: int, settings: FanoutSettings = FanoutSettings(), *,
                     seconds: Optional[float] = None,
                     rounds: Optional[int] = None, tracer=None) -> Outcome:
    """Closed loop: write a block of Zipf-distributed keys, pumping every
    ``SPIN_EVERY`` writes, then every reader takes."""
    inputs = random.Random(f"keyed-fanout/{seed}")
    # Two-field keys: sites centred on 0 (the field is signed), sparse sensor ids.
    keys = [(k // SENSORS_PER_SITE - settings.instances // (2 * SENSORS_PER_SITE),
             (k % SENSORS_PER_SITE) * 7919) for k in range(settings.instances)]
    ranked = inputs.sample(keys, len(keys))  # ranked[0] is the hottest key
    cum_weights = list(itertools.accumulate(1.0 / r for r in range(1, len(keys) + 1)))
    labels = [random_text(inputs, LABEL_LENGTH) for _ in range(LABEL_VARIANTS)]
    rig, setup_s, match_s = repeated_setup(lambda: _FanoutRig(seed), settings.setups)
    out = Outcome()
    log = _RoundLog()
    checker = _FanoutChecker(len(rig.readers))
    spins = 0
    next_seq = 1
    block = settings.block
    clock, writer, readers = rig.clock, rig.writer, rig.readers
    participants = rig.participants
    if tracer is not None:
        tracer.install()
    try:
        began = time.perf_counter_ns()
        timer = ReferenceTimer()
        while keep_going(began, len(log), seconds, rounds):
            first = next_seq
            drawn = inputs.choices(ranked, cum_weights=cum_weights, k=block)
            samples = [idl.Sample("Reading", (site, sensor, first + j, inputs.random(),
                                              labels[inputs.randrange(LABEL_VARIANTS)]))
                       for j, (site, sensor) in enumerate(drawn)]
            stamps = [0] * block
            out.attempted += block
            timer.start()
            for j, sample in enumerate(samples):
                clock.advance(WRITE_STEP_NS)
                _write(out, writer, sample)
                stamps[j] = timer.now()
                if (j + 1) % SPIN_EVERY == 0:
                    for participant in participants:
                        participant.spin_once()
                    timer.lap()
            takes = [(reader.take(), timer.now()) for reader in readers]
            round_s, reference_s = timer.stop()
            out.timed_s += round_s
            next_seq += block
            spins += len(participants) * (block // SPIN_EVERY)
            out.writes += block
            latencies = checker.check(out, samples, stamps, takes, first)
            payload = sum(idl.serialized_size(rig.descriptor, s) for s in samples)
            out.payload_bytes += payload
            log.add(block, payload, round_s, reference_s, latencies)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = [reader.statistics() for reader in readers]
    for r, reader_stats in enumerate(stats):
        if reader_stats.samples_accepted != out.writes:
            out.problem(f"reader {r} accepted {reader_stats.samples_accepted} "
                        f"of {out.writes} writes")
    rig.close()
    out.deliveries = (out.writes - out.failed) * (len(participants) - 1)
    log.finish(out, setup_s, match_s, spins, stats)
    return out


class _FanoutChecker:
    """Per block: each reader takes exactly one sample per key written in
    the block, equal to the last one written for that key; sequences
    rise per instance across blocks; a key keeps one instance handle."""

    def __init__(self, readers: int):
        self._last_seq = [dict() for _ in range(readers)]  # handle -> sequence
        self._handle_of: dict[tuple, int] = {}

    def check(self, out: Outcome, samples, stamps, takes, first: int) -> list[float]:
        last_written = {}
        for j, sample in enumerate(samples):
            last_written[sample.values[:2]] = j
        latencies = []
        for r, (got, take_ns) in enumerate(takes):
            last_seq = self._last_seq[r]
            keys_taken = set()
            for sample, info in got:
                key = sample.values[:2]
                handle = self._handle_of.setdefault(key, info.instance_handle)
                if handle != info.instance_handle:
                    out.problem(f"key {key} arrived under two instance handles")
                    out.failed += 1
                if info.sequence <= last_seq.get(handle, 0):
                    out.problem(f"reader {r}: sequence {info.sequence} does not rise "
                                f"on instance {handle:#x}")
                    out.failed += 1
                last_seq[handle] = info.sequence
                j = last_written.get(key)
                if key in keys_taken:
                    out.problem(f"reader {r}: key {key} taken twice in one block")
                    out.failed += 1
                elif j is None or info.sequence != first + j:
                    out.problem(f"reader {r}: key {key} took sequence {info.sequence}, "
                                "not the last one written")
                    out.failed += 1
                elif sample.values != samples[j].values:
                    out.problem(f"reader {r}: sequence {info.sequence} values differ")
                    out.failed += 1
                else:
                    latencies.append((take_ns - stamps[j]) / 1e3)
                keys_taken.add(key)
            missing = len(last_written.keys() - keys_taken)
            if missing:
                out.problem(f"reader {r}: {missing} written keys never taken")
                out.failed += missing
        return latencies
