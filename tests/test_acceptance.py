"""End-to-end checks of the package's headline guarantees, one test per
guarantee.

Every expected value is transcribed by hand or recomputed by an
independent in-test oracle, never read back from the module under test.
The lossy-transport and pipeline replays run on the virtual clock with a
seeded fault plan, so their outcomes are repeatable bit for bit; the
loopback smoke test is the only one that touches real sockets and a
second OS process.
"""

import itertools
import pathlib
import random
import socket
import struct
import subprocess
import sys
import time

from minidds import bench, fom, idl, qos
from minidds.clock import ManualClock
from minidds.dcps import DomainParticipant
from minidds.dcps.guid import Guid
from minidds.dcps.matching import EndpointDescriptor, EndpointType, RxoQos
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork, LossyConfig

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# 1. Policy applicability: the entity kinds of all 18 policies, transcribed
# by hand.

_POLICY_ROWS = [
    # name, applies to
    ("DURABILITY",         "T DR DW"),
    ("DURABILITY_SERVICE", "T DW"),
    ("LIFESPAN",           "T DW"),
    ("HISTORY",            "T DR DW"),
    ("PRESENTATION",       "P S"),
    ("RELIABILITY",        "T DR DW"),
    ("PARTITION",          "P S"),
    ("DESTINATION_ORDER",  "T DR DW"),
    ("OWNERSHIP",          "T DR DW"),
    ("OWNERSHIP_STRENGTH", "DW"),
    ("DEADLINE",           "T DR DW"),
    ("LATENCY_BUDGET",     "T DR DW"),
    ("TRANSPORT_PRIORITY", "T DW"),
    ("TIME_BASED_FILTER",  "DR"),
    ("RESOURCE_LIMITS",    "T DR DW"),
    ("USER_DATA",          "DP DR DW"),
    ("TOPIC_DATA",         "T"),
    ("GROUP_DATA",         "P S"),
]


def test_policy_table_cells():
    assert len(_POLICY_ROWS) == 18
    assert [row[0] for row in _POLICY_ROWS] == [p.name for p in qos.QosPolicyId]
    for name, applies in _POLICY_ROWS:
        wanted = frozenset(qos.EntityKind(token) for token in applies.split())
        assert qos.APPLICABILITY[qos.QosPolicyId[name]] == wanted, name


# ---------------------------------------------------------------------------
# 2. The offered/requested contract, exhaustively.

def test_offered_requested_contract():
    reliabilities = (qos.ReliabilityKind.BEST_EFFORT,
                     qos.ReliabilityKind.RELIABLE)
    durabilities = (qos.DurabilityKind.VOLATILE,
                    qos.DurabilityKind.TRANSIENT_LOCAL)
    orders = (qos.DestinationOrderKind.BY_RECEPTION_TIMESTAMP,
              qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)
    deadlines = (5_000_000, 10_000_000, qos.INFINITE_NS)

    def side(kind, rel, dur, order, deadline):
        return qos.profile(kind, [qos.Reliability(rel), qos.Durability(dur),
                                  qos.DestinationOrder(order),
                                  qos.Deadline(deadline)])

    combos = list(itertools.product(reliabilities, durabilities, orders,
                                    deadlines))
    checked = 0
    for offered in combos:
        for requested in combos:
            report = qos.check_compatibility(
                side(qos.EntityKind.DATA_WRITER, *offered),
                side(qos.EntityKind.DATA_READER, *requested))
            # Independent statement of the rules: kinds must be offered
            # at least as strong as requested, deadline periods at most.
            expected = (offered[0] >= requested[0]
                        and offered[1] >= requested[1]
                        and offered[2] >= requested[2]
                        and offered[3] <= requested[3])
            assert report.compatible == expected, (offered, requested)
            checked += 1
    assert checked == 576

    # The canonical refusal: a best-effort offer never satisfies a
    # reliable request, and the report names the policy.
    report = qos.check_compatibility(
        qos.profile(qos.EntityKind.DATA_WRITER,
                    [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)]),
        qos.profile(qos.EntityKind.DATA_READER,
                    [qos.Reliability(qos.ReliabilityKind.RELIABLE)]))
    assert not report.compatible
    assert [v.policy_id for v in report.violations] == [
        qos.QosPolicyId.RELIABILITY]


# ---------------------------------------------------------------------------
# 3. Type definitions: layout of the 8-field record, byte-exact
# serialization, and a 1000-case random round trip.

_MIXED_SOURCE = """
struct Everything {
    boolean b;
    octet o;
    short s;
    unsigned short us;
    long l; //@key
    unsigned long ul;
    long long ll;
    unsigned long long ull;
    float f;
    double d;
    string t;
};
"""


def _random_field_values(descriptor, rng):
    values = []
    for field in descriptor.fields:
        kind = field.kind
        if kind is idl.PrimitiveKind.BOOLEAN:
            values.append(rng.random() < 0.5)
        elif kind is idl.PrimitiveKind.STRING:
            values.append("".join(rng.choice("abcdef ")
                                  for _ in range(rng.randrange(0, 16))))
        elif kind is idl.PrimitiveKind.FLOAT:
            raw = rng.uniform(-1e6, 1e6)
            values.append(struct.unpack("<f", struct.pack("<f", raw))[0])
        elif kind is idl.PrimitiveKind.DOUBLE:
            values.append(rng.uniform(-1e12, 1e12))
        else:
            low, high = idl._INT_RANGES[kind]
            values.append(rng.randint(low, high))
    return tuple(values)


def test_idl_layout_and_round_trip():
    descriptor, = idl.parse_idl((DATA / "climat.idl").read_text())
    assert descriptor.name == "Climat"
    assert [(f.name, f.kind) for f in descriptor.fields] == [
        ("key", idl.PrimitiveKind.UNSIGNED_LONG),
        ("climatDistVisi", idl.PrimitiveKind.FLOAT),
        ("climatHeure", idl.PrimitiveKind.FLOAT),
        ("climatSport", idl.PrimitiveKind.LONG),
        ("climatHorizon", idl.PrimitiveKind.LONG),
        ("rainDensity", idl.PrimitiveKind.FLOAT),
        ("rainSize", idl.PrimitiveKind.FLOAT),
        ("wiperAngle", idl.PrimitiveKind.FLOAT),
    ]
    assert len(descriptor.fields) == 8

    # All fields are 4-byte primitives, so the layout is padding-free
    # and one sample is exactly 32 bytes.
    values = (7, 0.5, 12.25, -3, 2, 1.5, 0.25, 90.0)
    sample = idl.make_sample(descriptor, values)
    encoded = idl.serialize(descriptor, sample)
    assert len(encoded) == 32
    assert encoded == struct.pack("<Iffiifff", *values)

    mixed, = idl.parse_idl(_MIXED_SOURCE)
    rng = random.Random(0xC1A)
    for case in range(1000):
        which = descriptor if case % 2 else mixed
        original = idl.make_sample(which, _random_field_values(which, rng))
        assert idl.deserialize(which, idl.serialize(which, original)) == original


# ---------------------------------------------------------------------------
# 4. Delivery over a faulty link: the reliable session recovers every
# sample in order, the best-effort session never retransmits.

_COUNT_SOURCE = "struct Count { unsigned long n; };"
# One announce at startup, then silence: discovery chatter would draw
# from the same fault RNG and confuse the datagram accounting.
_QUIET_ANNOUNCE_NS = 3_600_000_000_000


def _lossy_pair(kind):
    clock = ManualClock(1_000_000_000)
    net = InProcNetwork()  # lossless while the pair discovers each other
    pub = DomainParticipant(0, clock=clock, transport=net.attach("pub"),
                            static_peers=("sub",),
                            announce_period_ns=_QUIET_ANNOUNCE_NS)
    sub = DomainParticipant(0, clock=clock, transport=net.attach("sub"),
                            static_peers=("pub",),
                            announce_period_ns=_QUIET_ANNOUNCE_NS)
    counter, = idl.parse_idl(_COUNT_SOURCE)
    policies = [qos.Reliability(kind), qos.History(qos.HistoryKind.KEEP_ALL)]
    writer = pub.create_datawriter(pub.create_topic("count", counter),
                                   list(policies))
    reader = sub.create_datareader(sub.create_topic("count", counter),
                                   list(policies))
    for _ in range(6):
        pub.spin_once()
        sub.spin_once()
    assert writer.matched_readers() and reader.matched_writers()
    net.config = LossyConfig(drop_probability=0.2, duplicate_probability=0.05,
                             max_reorder_depth=4, seed=24007)
    return clock, pub, sub, writer, reader


def test_lossy_transport_delivery():
    # Reliable keep-all: heartbeats and repair requests recover every
    # dropped datagram; the cache ends complete and sequence-ordered.
    clock, pub, sub, writer, reader = _lossy_pair(qos.ReliabilityKind.RELIABLE)
    try:
        sent = rounds = 0
        while reader.statistics().samples_accepted < 10000:
            assert rounds < 600, "repair stalled"
            if sent < 10000:
                for _ in range(250):
                    sent += 1
                    writer.write({"n": sent})
            clock.advance(50_000_000)
            for _ in range(2):
                pub.spin_once()
                sub.spin_once()
            rounds += 1
        taken = reader.take()
        assert len(taken) == 10000
        assert [info.sequence for _, info in taken] == list(range(1, 10001))
        assert [sample.values[0] for sample, _ in taken] == list(range(1, 10001))
        assert reader.statistics().samples_lost == 0
    finally:
        pub.close()
        sub.close()

    # Best effort under the identical fault plan: what arrives is a
    # Binomial(10000, 0.8) draw, asserted inside a nine-sigma envelope,
    # and the writer puts every sample on the wire exactly once.
    clock, pub, sub, writer, reader = _lossy_pair(
        qos.ReliabilityKind.BEST_EFFORT)
    try:
        data_submessages = 0
        original_send = pub.transport.send

        def counted_send(datagram, dest):
            nonlocal data_submessages
            message = wire.decode_message(datagram)
            data_submessages += sum(isinstance(part, wire.Data)
                                    for part in message.submessages)
            original_send(datagram, dest)

        pub.transport.send = counted_send
        sent = 0
        while sent < 10000:
            for _ in range(250):
                sent += 1
                writer.write({"n": sent})
            clock.advance(50_000_000)
            pub.spin_once()
            sub.spin_once()
        for _ in range(4):  # drain the reorder queue
            clock.advance(50_000_000)
            pub.spin_once()
            sub.spin_once()
        stats = reader.statistics()
        # sequences_seen counts distinct arrivals whether or not they
        # were delivered; stale out-of-order arrivals stay undelivered
        # but did arrive, so this is the binomial quantity.
        assert 7640 <= stats.sequences_seen <= 8360
        assert data_submessages == 10000  # no second copy of anything
    finally:
        pub.close()
        sub.close()


# ---------------------------------------------------------------------------
# 5. The reader arrival pipeline against a brute-force replay of its
# rules: exclusive arbitration, source ordering, keep-last eviction,
# deadline counting, and arrival order within an instance.

_READING_SOURCE = "struct Reading { long id; //@key\n long v; };"
_DEPTH = 3
_PERIOD_NS = 40_000_000


class _ReaderModel:
    """Straight-line restatement of the arrival rules for one exclusive,
    source-ordered, keep-last reader with a finite deadline."""

    def __init__(self, strengths):
        self.strengths = strengths           # writer guid -> strength
        self.activity = {}                   # instance -> {writer: seen ns}
        self.newest = {}                     # instance -> (ts, writer)
        self.entries = {}                    # instance -> accepted tuples
        self.last = {}                       # instance -> last accept ns
        self.folded = {}                     # instance -> misses so far
        self.filtered = self.stale = self.accepted = 0

    def write(self, instance, writer, sequence, value, ts, now):
        candidates = {writer}
        for other, seen in self.activity.get(instance, {}).items():
            if now - seen < _PERIOD_NS:  # still alive for this instance
                candidates.add(other)
        owner = min(candidates, key=lambda g: (-self.strengths[g], g))
        self.activity.setdefault(instance, {})[writer] = now
        if owner != writer:
            self.filtered += 1
            return
        newest = self.newest.get(instance)
        if newest is not None:
            newest_ts, newest_writer = newest
            if not (ts > newest_ts
                    or (ts == newest_ts and writer < newest_writer)):
                self.stale += 1
                return
        self.newest[instance] = (ts, writer)
        previous = self.last.get(instance)
        if previous is not None and now > previous:
            self.folded[instance] = (self.folded.get(instance, 0)
                                     + (now - previous) // _PERIOD_NS)
        self.last[instance] = now
        self.entries.setdefault(instance, []).append(
            (sequence, writer, value, ts))
        self.accepted += 1

    def cache(self, instance):
        # Keep-last retains the newest accepted entries, in arrival order.
        return self.entries.get(instance, [])[-_DEPTH:]

    def evictions(self):
        return sum(max(0, len(kept) - _DEPTH)
                   for kept in self.entries.values())

    def missed(self, now, handle_of):
        out = {}
        for instance, previous in self.last.items():
            total = self.folded.get(instance, 0)
            if now > previous:
                total += (now - previous) // _PERIOD_NS
            if total:
                out[handle_of[instance]] = total
        return out


def _by_instance(pairs):
    """A reader's cache as the model states it: per instance handle, the
    (sequence, writer, value, source stamp) of each sample, in order."""
    cached = {}
    for sample, info in pairs:
        cached.setdefault(info.instance_handle, []).append(
            (info.sequence, info.writer_guid, sample.values[1],
             info.source_timestamp_ns))
    return cached


def test_reader_pipeline_against_oracle():
    reading, = idl.parse_idl(_READING_SOURCE)
    handle_of = {
        i: idl.key_hash(reading, idl.make_sample(reading, {"id": i, "v": 0}))
        for i in (1, 2, 3)
    }
    exercised = dict(filtered=0, stale=0, evicted=0, missed=0, interleaved=0)
    for seed in (11, 23, 37, 52, 68):
        net = InProcNetwork()
        clock = ManualClock(1_000_000_000)
        solo = DomainParticipant(0, clock=clock, transport=net.attach("solo"))
        topic = solo.create_topic("readings", reading)
        shared = [qos.Ownership(qos.OwnershipKind.EXCLUSIVE),
                  qos.DestinationOrder(
                      qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP),
                  qos.Deadline(_PERIOD_NS)]
        strong = solo.create_datawriter(topic,
                                        shared + [qos.OwnershipStrength(10)])
        weak = solo.create_datawriter(topic,
                                      shared + [qos.OwnershipStrength(5)])
        reader = solo.create_datareader(
            topic, shared + [qos.History(qos.HistoryKind.KEEP_LAST, _DEPTH)])
        assert strong.guid < weak.guid  # strength ties break on the guid
        assert len(reader.matched_writers()) == 2
        model = _ReaderModel({strong.guid: 10, weak.guid: 5})
        # A keep-last reader with the default SHARED ownership and
        # BY_RECEPTION_TIMESTAMP order, fed every write through a default
        # twin of its writer: both twins' samples interleave in its
        # cache, with nothing filtered.
        twin = {w.guid: solo.create_datawriter(topic) for w in (strong, weak)}
        plain = solo.create_datareader(
            topic, [qos.History(qos.HistoryKind.KEEP_LAST, _DEPTH)])
        assert len(plain.matched_writers()) == 2
        arrived = {}                         # instance -> (seq, writer, v, ts)

        rng = random.Random(seed)
        value = 0
        for _ in range(200):
            clock.advance(rng.randrange(1, 16) * 1_000_000)
            if rng.random() < 0.25:
                continue  # silent stretch; deadlines keep running
            writer = strong if rng.random() < 0.5 else weak
            instance = rng.randrange(1, 4)
            value += 1
            # Source stamps sometimes lag far enough to be stale.
            ts = clock.wall_ns() - rng.choice((0, 0, 0, 20, 45, 90)) * 1_000_000
            sequence = writer.write({"id": instance, "v": value},
                                    source_timestamp_ns=ts)
            model.write(instance, writer.guid, sequence, value, ts,
                        clock.monotonic_ns())
            twin_writer = twin[writer.guid]
            sequence = twin_writer.write({"id": instance, "v": value},
                                         source_timestamp_ns=ts)
            arrived.setdefault(instance, []).append(
                (sequence, twin_writer.guid, value, ts))

        now = clock.monotonic_ns()
        cached = _by_instance(reader.read())
        for i in (1, 2, 3):
            assert cached.get(handle_of[i], []) == model.cache(i), (seed, i)
        cached = _by_instance(plain.read())
        for i in (1, 2, 3):
            kept = arrived.get(i, [])[-_DEPTH:]
            assert cached.get(handle_of[i], []) == kept, (seed, i)
            exercised["interleaved"] += kept != sorted(kept)
        assert plain.statistics().evicted_by_history == sum(
            max(0, len(entries) - _DEPTH) for entries in arrived.values()), seed
        stats = reader.statistics()
        assert stats.ownership_filtered == model.filtered, seed
        assert stats.destination_order_dropped == model.stale, seed
        assert stats.samples_accepted == model.accepted, seed
        assert stats.evicted_by_history == model.evictions(), seed
        missed = model.missed(now, handle_of)
        assert dict(reader.check_deadlines(now)) == missed, seed
        exercised["filtered"] += model.filtered
        exercised["stale"] += model.stale
        exercised["evicted"] += model.evictions()
        exercised["missed"] += sum(missed.values())
        solo.close()
    # The traces must actually have exercised every rule.
    assert all(count > 0 for count in exercised.values()), exercised


# ---------------------------------------------------------------------------
# 6. The datagram codec: golden bytes, then a hundred thousand mutations
# that may be rejected but never crash or over-read.

def test_wire_codec_golden_and_fuzz():
    prefix = bytes(range(12))
    minimal = wire.WireMessage(prefix, (wire.Data(1, 0, 1, 0, 0, b""),))
    encoded = wire.encode_message(minimal)
    assert encoded == (b"MDDS" + b"\x03\x00" + b"\x00\x00" + prefix
                       + bytes([0x02, 0x00]) + struct.pack("<H", 36)
                       + struct.pack("<IIQqQI", 1, 0, 1, 0, 0, 0))
    assert len(encoded) == 60
    assert wire.decode_message(encoded) == minimal

    heartbeat = wire.encode_message(
        wire.WireMessage(prefix, (wire.Heartbeat(2, 5, 9, 4),)))
    assert heartbeat[20:] == (bytes([0x03, 0x00]) + struct.pack("<H", 24)
                              + struct.pack("<IQQI", 2, 5, 9, 4))

    endpoint = EndpointDescriptor(
        Guid(b"\xaa" * 12, 7), 3, "topic", "Type", EndpointType.WRITER,
        RxoQos(reliability=qos.ReliabilityKind.RELIABLE,
               partitions=("alpha", "beta")))
    bases = [wire.encode_message(wire.WireMessage(prefix, subs)) for subs in (
        (wire.Data(1, 0, 1, 0, 0, b""),),
        (wire.Data(3, 9, 77, -40, 0xFFEE, b"\x01\x02\x03hello"),),
        (wire.Heartbeat(2, 5, 9, 4), wire.Data(2, 0, 9, 1, 2, b"xy")),
        (wire.AckNack(6, Guid(b"\xbb" * 12, 2), 5, (5, 7, 9)),),
        (wire.Gap(2, 10, 12),),
        (wire.Announce(3, 1, (endpoint,)),),
    )]
    rng = random.Random(0x60D)
    outcomes = {"decoded": 0, "rejected": 0}
    for _ in range(100_000):
        mutant = bytearray(rng.choice(bases))
        operation = rng.randrange(3)
        if operation == 0 and mutant:
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        elif operation == 1:
            del mutant[rng.randrange(len(mutant) + 1):]
        else:
            mutant.extend(rng.randbytes(rng.randrange(1, 9)))
        try:
            wire.decode_message(bytes(mutant))
            outcomes["decoded"] += 1
        except wire.WireError:
            outcomes["rejected"] += 1
        # Anything else propagates and fails the test.
    assert sum(outcomes.values()) == 100_000
    assert outcomes["decoded"] > 0 and outcomes["rejected"] > 0


# ---------------------------------------------------------------------------
# 7. Loopback smoke across two OS processes: discovery speed, a lossless
# latency run, and the throughput-per-size property.

def _free_udp_port():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_loopback_processes_smoke():
    echo_port = _free_udp_port()
    ping_port = _free_udp_port()
    best_effort = {qos.QosPolicyId.RELIABILITY:
                   qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)}
    echo = subprocess.Popen(
        [sys.executable, "-m", "minidds", "bench", "latency", "--role", "echo",
         "--port", str(echo_port), "--peers", f"127.0.0.1:{ping_port}",
         "--count", "1000", "--payload", "64", "--match-timeout", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # A fresh participant must see the echo process's endpoints
        # within two announce periods (the period is one second).
        shape = bench.shape_for(64)
        probe = DomainParticipant(0, port=ping_port, bind_host="127.0.0.1",
                                  static_peers=[("127.0.0.1", echo_port)])
        try:
            topic = probe.create_topic(bench.PING_TOPIC, shape.descriptor)
            writer = probe.create_datawriter(topic, dict(best_effort))
            probe.start()
            begun = time.monotonic()
            while not writer.matches():
                elapsed = time.monotonic() - begun
                assert elapsed < 2.0, "discovery took more than two periods"
                time.sleep(0.01)
        finally:
            probe.close()

        # 2 kHz sends the 1 000 pings in half a second; 20 runs in a row
        # lost none on a 2-core machine.
        trace, summary = bench.run_latency(
            "ping", payload_size=64, rate_hz=2000.0, count=1000,
            qos_settings=best_effort, port=ping_port,
            peers=[("127.0.0.1", echo_port)], match_timeout_s=30.0)
        assert summary.sample_count == 1000
        assert summary.loss_count == 0
        assert all(latency > 0.0 for latency in bench.latencies_us(trace))

        out, err = echo.communicate(timeout=30)
        assert echo.returncode == 0, err
        assert "echoed 1000" in out
    finally:
        if echo.poll() is None:
            echo.kill()
            echo.communicate()

    results = bench.run_throughput((10, 5000), duration_s=1.0)
    rate = {r.requested_size: r.mbits_per_s for r in results}
    assert rate[5000] > rate[10]


# ---------------------------------------------------------------------------
# 8. The federation-model bridge: the reference document becomes exactly
# two topics whose profiles validate.

def test_federation_model_topic_mapping():
    model = fom.parse_fom((DATA / "federation.xml").read_text())
    topics = fom.map_to_topics(model)
    assert len(topics) == 2
    profiles = dict(topics)
    attributes = profiles["Vehicule.VehiculeATT"]
    assert (attributes.value(qos.QosPolicyId.RELIABILITY).kind
            == qos.ReliabilityKind.RELIABLE)
    assert (attributes.value(qos.QosPolicyId.DESTINATION_ORDER).kind
            == qos.DestinationOrderKind.BY_RECEPTION_TIMESTAMP)
    interaction = profiles["Global_Interaction.Global"]
    assert (interaction.value(qos.QosPolicyId.RELIABILITY).kind
            == qos.ReliabilityKind.RELIABLE)
    assert (interaction.value(qos.QosPolicyId.DESTINATION_ORDER).kind
            == qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)
    assert qos.validate_profile(attributes) == []
    assert qos.validate_profile(interaction) == []


# ---------------------------------------------------------------------------
# 9. The printed reference tables carry the historical comparison values
# verbatim, column for column.

def test_reference_tables_verbatim():
    table1 = bench.render_table1().splitlines()
    assert "reference (hardware-dependent, not a target)" in table1[0]

    def columns(line):
        return [float(cell) for cell in line.split()[-2:]]

    rows = dict(zip(("latency mean", "latency median",
                     "jitter mean", "jitter median"),
                    (columns(line) for line in table1[2:6])))
    assert rows == {
        "latency mean": [154.87, 126.60],
        "latency median": [138.93, 106.00],
        "jitter mean": [14.13, 13.36],
        "jitter median": [9.07, 3.49],
    }

    table2 = bench.render_table2().splitlines()
    assert "reference (hardware-dependent, not a target)" in table2[0]
    assert [int(cell) for cell in table2[1].split()[1:]] == [10, 100, 1000,
                                                            5000]
    hla = next(line for line in table2 if line.startswith("HLA"))
    dds = next(line for line in table2 if line.startswith("DDS"))
    assert [int(cell) for cell in hla.split()[1:]] == [2, 30, 128, 350]
    assert [int(cell) for cell in dds.split()[1:]] == [6, 40, 112, 800]
