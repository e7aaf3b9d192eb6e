"""Traced runs: spans around each layer's public entry points.

``Tracer.install`` wraps functions and methods of ``idl``, ``rtps.wire``,
``rtps.transport``, ``rtps.reliability``, ``dcps.history``, ``dcps.writer``,
``dcps.reader`` and ``dcps.participant`` from here, for the timed phase of
a traced run only; the program's files are not changed. Every call
records a span (name, start, end, parent) in flat in-memory arrays, and
counters are taken at the same boundaries. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

from minidds import idl
from minidds.dcps.history import ReaderHistory, WriterHistory
from minidds.dcps.participant import DomainParticipant
from minidds.dcps.reader import DataReader
from minidds.dcps.writer import DataWriter
from minidds.rtps import wire
from minidds.rtps.reliability import (BestEffortReaderSession,
                                      ReliableReaderSession, WriterSession)
from minidds.rtps.transport import InProcTransport, UdpTransport

from common import Outcome

# Per-layer metrics: (name, unit, better, which end-to-end metric it should
# move on which workload). BENCHMARK.json lists the same names and units.
PER_LAYER = (
    ("idl.serialize.calls", "count", "lower",
     "one per write on every workload"),
    ("idl.serialize.self_us", "us", "lower",
     "samples_per_s on keyed-fanout; barely reliable-stream"),
    ("idl.deserialize.calls", "count", "lower",
     "4 per write on keyed-fanout (one per reader), 1 on reliable-stream"),
    ("idl.deserialize.self_us", "us", "lower",
     "samples_per_s on keyed-fanout; barely reliable-stream"),
    ("idl.key_hash.self_us", "us", "lower",
     "samples_per_s on keyed-fanout (two-field key); reliable-stream is keyless"),
    ("wire.encode.calls", "count", "lower",
     "2 per write on keyed-fanout (re-encoded per destination); batching lowers it on reliable-stream"),
    ("wire.encode.self_us", "us", "lower",
     "samples_per_s in-process, latency_p50_us on udp-pingpong"),
    ("wire.decode.calls", "count", "lower",
     "one per datagram received"),
    ("wire.decode.self_us", "us", "lower",
     "samples_per_s in-process, latency_p50_us on udp-pingpong"),
    ("wire.datagrams_per_sample", "ratio", "lower",
     "batching lowers it on reliable-stream; udp-pingpong latency stays flat"),
    ("wire.bytes_per_payload_byte", "ratio", "lower",
     "header share; largest at the 10 B samples of reliable-stream"),
    ("transport.send.calls", "count", "lower",
     "datagrams sent; repeats exactly in-process for a seed"),
    ("transport.send.self_us", "us", "lower",
     "latency_p50_us on udp-pingpong; noise in-process"),
    ("transport.drain.calls", "count", "lower",
     "one per spin"),
    ("transport.drain.self_us", "us", "lower",
     "latency_p50_us on udp-pingpong; noise in-process"),
    ("transport.datagrams_per_drain", "ratio", "higher",
     "latency_p50_us on udp-pingpong"),
    ("reliability.writer.on_write.self_us", "us", "lower",
     "samples_per_s on reliable-stream"),
    ("reliability.writer.on_acknack.self_us", "us", "lower",
     "samples_per_s on reliable-stream; never called on keyed-fanout"),
    ("reliability.writer.step.self_us", "us", "lower",
     "samples_per_s on reliable-stream"),
    ("reliability.heartbeats", "count", "lower",
     "samples_per_s on reliable-stream; 0 on keyed-fanout"),
    ("reliability.acknacks", "count", "lower",
     "samples_per_s on reliable-stream; 0 on keyed-fanout"),
    ("reliability.retransmits", "count", "lower",
     "samples_per_s on reliable-stream; 0 on keyed-fanout"),
    ("reliability.gaps", "count", "lower",
     "samples_per_s on reliable-stream; one per ping on udp-pingpong (keep-last 1 eviction)"),
    ("reliability.duplicates_discarded", "count", "lower",
     "samples_per_s on reliable-stream (1 % duplicates plus repeated repairs)"),
    ("reliability.useful_fraction", "ratio", "higher",
     "samples_per_s on reliable-stream; 1 on keyed-fanout"),
    ("reliability.reader.on_data.self_us", "us", "lower",
     "samples_per_s on keyed-fanout (best-effort window rebuild per sample)"),
    ("history.writer.insert.self_us", "us", "lower",
     "samples_per_s on reliable-stream; flat on keyed-fanout (cache of at most 1)"),
    ("history.writer.release.self_us", "us", "lower",
     "samples_per_s on reliable-stream (scans the whole cache per write)"),
    ("history.writer.expire.self_us", "us", "lower",
     "samples_per_s on reliable-stream (scans the whole cache per spin)"),
    ("history.writer.peak_len", "count", "lower",
     "the burst on reliable-stream; 1 on keyed-fanout"),
    ("history.reader.insert.self_us", "us", "lower",
     "samples_per_s and peak_rss_mib on keyed-fanout"),
    ("history.reader.take.self_us", "us", "lower",
     "samples_per_s and peak_rss_mib on keyed-fanout"),
    ("history.reader.evicted", "count", "lower",
     "keep-last(1) evictions of hot keys on keyed-fanout; 0 on reliable-stream"),
    ("history.reader.peak_len", "count", "lower",
     "peak_rss_mib on keyed-fanout"),
    ("writer.write.self_us", "us", "lower",
     "samples_per_s on both in-process workloads (includes the participant's _route)"),
    ("reader.take.self_us", "us", "lower",
     "samples_per_s on both in-process workloads"),
    ("participant.spin_once.calls", "count", "lower",
     "repeats exactly in-process for a seed"),
    ("participant.spin_once.self_us", "us", "lower",
     "samples_per_s in-process (dispatch and the reader arrival pipeline), udp-pingpong latency"),
    ("participant.datagrams_per_spin", "ratio", "higher",
     "samples_per_s in-process"),
    ("participant.busy_fraction", "fraction", "lower",
     "samples_per_s in-process, udp-pingpong latency"),
    ("discovery.match_s", "s", "lower",
     "setup_s on every workload"),
    ("latency_p50_us", "us", "lower",
     "diagnostic, not gated: Table 1 latency on udp-pingpong; in-process it is the "
     "closed loop's batching and tracks 1/samples_per_s"),
    ("latency_p90_us", "us", "lower",
     "diagnostic, not gated: swings several-fold between runs on udp-pingpong"),
    ("latency_p99_us", "us", "lower",
     "diagnostic, not gated"),
    ("jitter_mean_us", "us", "lower",
     "diagnostic, not gated"),
    ("generator_late_p50_us", "us", "lower",
     "diagnostic, not gated; 0 for the closed-loop workloads"),
    ("tracing.overhead_fraction", "fraction", "lower",
     "diagnostic: traced over untraced samples_per_s (closed loop) or latency_p50_us (open loop)"),
)

_SELF_TIMED = [name[:-len(".self_us")] for name, *_ in PER_LAYER
               if name.endswith(".self_us")]
_CALL_COUNTED = [name[:-len(".calls")] for name, *_ in PER_LAYER
                 if name.endswith(".calls")]


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self.writer_peak = 0
        self.reader_peak = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace a module function or class method by its traced form."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original, after))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced entry point; ``uninstall`` restores them."""
        counts = self.counts

        def sent(_result, args):
            counts["datagrams"] += 1
            counts["bytes"] += len(args[1])

        def drained(result, _args):
            counts["drained"] += len(result)

        def encoded(_result, args):
            for sub in args[0].submessages:
                inner = sub.inner if isinstance(sub, wire.Direct) else sub
                counts[type(inner).__name__] += 1

        def acknack_answered(result, _args):
            counts["retransmits"] += sum(isinstance(d.submessage, wire.Data)
                                         for d in result)

        def writer_inserted(_result, args):
            self.writer_peak = max(self.writer_peak, len(args[0]))

        def reader_inserted(_result, args):
            self.reader_peak = max(self.reader_peak, args[0].total)

        def spun(result, _args):
            counts["spin_datagrams"] += result

        for owner, attr, name, after in (
                (idl, "serialize", "idl.serialize", None),
                (idl, "deserialize", "idl.deserialize", None),
                (idl, "key_hash", "idl.key_hash", None),
                (wire, "encode_message", "wire.encode", encoded),
                (wire, "decode_message", "wire.decode", None),
                (InProcTransport, "send", "transport.send", sent),
                (InProcTransport, "drain", "transport.drain", drained),
                (UdpTransport, "send", "transport.send", sent),
                (UdpTransport, "drain", "transport.drain", drained),
                (WriterSession, "on_write", "reliability.writer.on_write", None),
                (WriterSession, "on_acknack", "reliability.writer.on_acknack",
                 acknack_answered),
                (WriterSession, "step", "reliability.writer.step", None),
                (ReliableReaderSession, "on_data", "reliability.reader.on_data", None),
                (BestEffortReaderSession, "on_data", "reliability.reader.on_data", None),
                (WriterHistory, "insert", "history.writer.insert", writer_inserted),
                (WriterHistory, "release", "history.writer.release", None),
                (WriterHistory, "expire", "history.writer.expire", None),
                (ReaderHistory, "insert", "history.reader.insert", reader_inserted),
                (ReaderHistory, "take", "history.reader.take", None),
                (DataWriter, "write", "writer.write", None),
                (DataReader, "take", "reader.take", None),
                (DomainParticipant, "spin_once", "participant.spin_once", spun)):
            self._patch(owner, attr, name, after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------

    def aggregate(self):
        """Per span name: calls, summed self time and summed duration (ns)."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = end[i] - start[i]
            calls[name] += 1
            total_ns[name] += duration
            self_ns[name] += duration - child[i]
        return calls, self_ns, total_ns

    def write_spans(self, path: Path) -> None:
        """One line per span: name, start_ns, end_ns, parent row (-1 = none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{names[self.span_name[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\t{self.parent[i]}\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, traced: Outcome, untraced: Outcome,
                      open_loop: bool) -> dict[str, float]:
    """Every PER_LAYER metric from a traced run and an untraced run of the
    same inputs and amount of work."""
    calls, self_ns, total_ns = tracer.aggregate()
    c = tracer.counts
    m: dict[str, float] = {}
    for name in _CALL_COUNTED:
        m[f"{name}.calls"] = calls[name]
    for name in _SELF_TIMED:
        m[f"{name}.self_us"] = _ratio(self_ns[name], calls[name]) / 1e3
    m["wire.datagrams_per_sample"] = _ratio(c["datagrams"], traced.writes)
    m["wire.bytes_per_payload_byte"] = _ratio(c["bytes"], traced.payload_bytes)
    m["transport.datagrams_per_drain"] = _ratio(c["drained"], calls["transport.drain"])
    m["reliability.heartbeats"] = c["Heartbeat"]
    m["reliability.acknacks"] = c["AckNack"]
    m["reliability.retransmits"] = c["retransmits"]
    m["reliability.gaps"] = c["Gap"]
    m["reliability.duplicates_discarded"] = traced.counts["duplicates_discarded"]
    m["reliability.useful_fraction"] = _ratio(traced.deliveries, c["Data"])
    m["history.writer.peak_len"] = tracer.writer_peak
    m["history.reader.evicted"] = traced.counts["evicted"]
    m["history.reader.peak_len"] = tracer.reader_peak
    m["participant.datagrams_per_spin"] = _ratio(c["spin_datagrams"],
                                                 calls["participant.spin_once"])
    m["participant.busy_fraction"] = _ratio(total_ns["participant.spin_once"] / 1e9,
                                            traced.timed_s)
    m["discovery.match_s"] = untraced.diagnostics["discovery.match_s"]
    recorded = {**untraced.metrics, **untraced.diagnostics}
    for name in ("latency_p50_us", "latency_p90_us", "latency_p99_us",
                 "jitter_mean_us", "generator_late_p50_us"):
        m[name] = recorded[name]
    if open_loop:
        m["tracing.overhead_fraction"] = _ratio(traced.metrics["latency_p50_us"],
                                                untraced.metrics["latency_p50_us"]) - 1
    else:
        m["tracing.overhead_fraction"] = _ratio(untraced.metrics["samples_per_s"],
                                                traced.metrics["samples_per_s"]) - 1
    return {name: m[name] for name, *_ in PER_LAYER}


def protocol_counts(tracer: Tracer, outcome: Outcome) -> dict[str, int]:
    """The counts that must repeat exactly for a fixed seed and amount of
    in-process work."""
    return {
        "datagrams": tracer.counts["datagrams"],
        "bytes": tracer.counts["bytes"],
        "retransmits": tracer.counts["retransmits"],
        "gaps": tracer.counts["Gap"],
        "heartbeats": tracer.counts["Heartbeat"],
        "acknacks": tracer.counts["AckNack"],
        **outcome.counts,
    }
