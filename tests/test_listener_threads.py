"""Threads and listeners: every participant of a process shares one lock,
and a reader's listener runs after the call that delivered to it has
released that lock. So a gateway whose listeners write on each other's
participants cannot deadlock, a listener's write takes the path the same
write from an application thread takes, a listener is not entered again
while it runs, and ``close()`` from a listener waits for another
participant's pump, which the lock no longer holds up, but not for its
own. A closed participant refuses ``start()``."""

import sys
import threading
import time

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.history import ResourceLimitsError
from minidds.dcps.participant import DomainParticipant
from minidds.rtps.transport import InProcNetwork

MS = 1_000_000
COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]
BEST_EFFORT = [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT),
               qos.History(qos.HistoryKind.KEEP_ALL)]


def _within(condition, timeout_s):
    """Whether ``condition()`` holds before ``timeout_s`` seconds pass."""
    end = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() >= end:
            return False
        time.sleep(0.001)
    return True


def _peers(net, domain_id, *names, **config):
    """One participant per name on ``net``, each the static peer of the
    others."""
    return [DomainParticipant(domain_id, transport=net.attach(name),
                              static_peers=[n for n in names if n != name], **config)
            for name in names]


def test_every_participant_shares_one_lock():
    net = InProcNetwork()
    a, b = _peers(net, 0, "A", "B")
    c, = _peers(net, 1, "C")
    try:
        assert a._lock is b._lock is c._lock
        assert a._spun is b._spun is c._spun
    finally:
        for part in (a, b, c):
            part.close()


def test_a_gateway_forwards_both_ways_from_overlapping_listeners():
    """Gateway A (domain 0) and gateway B (domain 1) forward each sample
    their reader gets to a writer on the other gateway. The barrier makes
    the two listeners overlap: with a lock per participant, held through
    its listeners, each pump would hold its own and wait for the other's,
    a deadlock. Listeners run with the one lock released, so both
    forwards go through."""
    net = InProcNetwork()
    # A long announce period: a pump stalled by the barrier must not see
    # its peer time out.
    source0, a = _peers(net, 0, "S0", "A", announce_period_ns=60_000 * MS)
    source1, b = _peers(net, 1, "S1", "B", announce_period_ns=60_000 * MS)
    parts = (source0, a, source1, b)
    writes = {}
    sinks = {}
    for source in (source0, source1):
        writes[source] = source.create_datawriter(
            source.create_topic("in", COUNTER), BEST_EFFORT)
        sinks[source] = source.create_datareader(
            source.create_topic("out", COUNTER), BEST_EFFORT)
    forward_to = {a: b.create_datawriter(b.create_topic("out", COUNTER), BEST_EFFORT),
                  b: a.create_datawriter(a.create_topic("out", COUNTER), BEST_EFFORT)}
    barrier = threading.Barrier(2, timeout=0.5)

    def forwarder(gateway):
        def listener(reader):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            for sample, _ in reader.take():
                forward_to[gateway].write({"n": sample.values[0]})
        return listener

    for gateway in (a, b):
        gateway.create_datareader(gateway.create_topic("in", COUNTER), BEST_EFFORT,
                                  listener=forwarder(gateway))
    for part in parts:
        part.start(poll_interval_s=0.001)
    assert _within(lambda: all(w.matched_readers() for w in writes.values())
                   and all(w.matched_readers() for w in forward_to.values()), 5.0)
    writes[source0].write({"n": 10})
    writes[source1].write({"n": 11})
    got = {source0: [], source1: []}

    def arrived():
        for source, sink in sinks.items():
            got[source] += [s.values[0] for s, _ in sink.take()]
        return all(got.values())

    # Closed only once the forwards arrived: a hung pump holds its lock,
    # and close() would wait for it.
    assert _within(arrived, 5.0), f"forwards seen: {got}"
    for part in parts:
        part.close()
    assert got == {source0: [11], source1: [10]}


def test_a_listener_write_to_a_full_keep_all_writer_behaves_as_an_application_write():
    """The writer's one slot holds a sample its silent peer never acks. A
    listener's write to it takes the path the same write from the
    application thread takes: with no pump thread it drives the protocol
    inline, and on a manual clock that does not move it raises after one
    spin that drained nothing, without waiting out max_blocking_time."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a, silent = _peers(net, 0, "A", "B", clock=clock, announce_period_ns=60_000 * MS,
                       max_blocking_time_ns=5_000 * MS)
    try:
        full = a.create_datawriter(
            a.create_topic("t", COUNTER),
            RELIABLE + [qos.ResourceLimits(max_samples=1, max_samples_per_instance=1)])
        silent.create_datareader(silent.create_topic("t", COUNTER), RELIABLE)
        for _ in range(3):
            a.spin_once()
            silent.spin_once()
        assert full.matched_readers()
        full.write({"n": 1})
        spins = []
        spin_once = a.spin_once

        def counting_spin_once():
            spins.append(None)
            return spin_once()

        def blocked_write():
            spins.clear()
            began = time.monotonic()
            with pytest.raises(ResourceLimitsError) as raised:
                full.write({"n": 2})
            assert time.monotonic() - began < 1.0  # not max_blocking_time
            return str(raised.value), len(spins)

        a.spin_once = counting_spin_once
        from_application = blocked_write()
        assert from_application == (
            "write blocked on a full keep-all history with no drain in sight", 1)
        trigger = a.create_datawriter(a.create_topic("go", COUNTER), BEST_EFFORT)
        from_listener = []
        a.create_datareader(a.create_topic("go", COUNTER), BEST_EFFORT,
                            listener=lambda r: (r.take(), from_listener.append(blocked_write())))
        trigger.write({"n": 0})  # delivered to the local reader in this call
        assert from_listener == [from_application]
    finally:
        a.close()
        silent.close()


def test_a_listener_write_on_its_own_pump_thread_spins_until_acked():
    """A's one-slot keep-all writer holds a sample B has not acked yet. A
    listener on A's pump thread writes to it again: with no lock held, the
    write spins A inline on that thread, as a write with no pump does,
    until B's ack frees the slot."""
    net = InProcNetwork()
    a, b = _peers(net, 0, "A", "B", heartbeat_period_ns=5 * MS,
                  max_blocking_time_ns=5_000 * MS)
    try:
        full = a.create_datawriter(
            a.create_topic("t", COUNTER),
            RELIABLE + [qos.ResourceLimits(max_samples=1, max_samples_per_instance=1)])
        sink = b.create_datareader(b.create_topic("t", COUNTER), RELIABLE)
        trigger = b.create_datawriter(b.create_topic("go", COUNTER), BEST_EFFORT)
        outcome = []

        def listener(reader):
            reader.take()
            outcome.append((full.write({"n": 2}), threading.current_thread()))

        a.create_datareader(a.create_topic("go", COUNTER), BEST_EFFORT, listener=listener)
        a.start(poll_interval_s=0.001)
        b.start(poll_interval_s=0.001)
        assert _within(lambda: full.matched_readers() and trigger.matched_readers(), 5.0)
        full.write({"n": 1})
        trigger.write({"n": 0})
        assert _within(lambda: outcome, 5.0)
        assert outcome == [(2, a._thread)]
        got = []

        def sunk():
            got.extend(s.values[0] for s, _ in sink.take())
            return got == [1, 2]

        assert _within(sunk, 5.0), got
    finally:
        a.close()
        b.close()


def test_a_listener_is_not_entered_again_while_it_runs():
    """B's listener forwards each sample it takes to a one-slot keep-all
    writer, whose blocked write spins B inline on B's pump thread while A's
    application thread keeps writing. The DATA that spin delivers does not
    call the running listener again; it runs once more when it returns,
    and every sample is forwarded once, in order."""
    count = 20
    net = InProcNetwork()
    a, b = _peers(net, 0, "A", "B", heartbeat_period_ns=5 * MS,
                  max_blocking_time_ns=5_000 * MS)
    try:
        source = a.create_datawriter(a.create_topic("in", COUNTER), RELIABLE)
        sink = a.create_datareader(a.create_topic("out", COUNTER), RELIABLE)
        forward = b.create_datawriter(
            b.create_topic("out", COUNTER),
            RELIABLE + [qos.ResourceLimits(max_samples=1, max_samples_per_instance=1)])
        depth, deepest = [0], [0]

        def listener(reader):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            for sample, _ in reader.take():
                forward.write(sample)
            depth[0] -= 1

        b.create_datareader(b.create_topic("in", COUNTER), RELIABLE, listener=listener)
        a.start(poll_interval_s=0.001)
        b.start(poll_interval_s=0.001)
        assert _within(lambda: source.matched_readers() and forward.matched_readers(), 5.0)
        for n in range(count):  # spaced, so some arrive while a write waits
            source.write({"n": n})
            time.sleep(0.002)
        got = []

        def forwarded():
            got.extend(s.values[0] for s, _ in sink.take())
            return len(got) >= count

        assert _within(forwarded, 10.0), got
    finally:
        a.close()
        b.close()
    assert got == list(range(count))
    assert deepest == [1]


def test_a_listener_closes_another_started_participant_at_once():
    """The listener holds no lock, so close() joins the other participant's
    pump, which exits at its next loop check."""
    net = InProcNetwork()
    a, other = _peers(net, 0, "A", "B")
    try:
        other.start(poll_interval_s=0.001)
        pump = other._thread
        trigger = a.create_datawriter(a.create_topic("go", COUNTER), BEST_EFFORT)
        took = []

        def listener(reader):
            reader.take()
            began = time.monotonic()
            other.close()
            took.append(time.monotonic() - began)

        a.create_datareader(a.create_topic("go", COUNTER), BEST_EFFORT, listener=listener)
        time.sleep(0.01)  # the pump is running
        trigger.write({"n": 0})
        assert len(took) == 1 and took[0] < 0.5
        assert other.closed
        pump.join(timeout=1.0)
        assert not pump.is_alive()
    finally:
        a.close()
        other.close()


def test_a_listener_closes_its_own_started_participant_fully():
    """Closed from its own pump thread, the participant closes its
    endpoints, sends its last announce and detaches its transport."""
    net = InProcNetwork()
    source, a = _peers(net, 0, "S", "A", announce_period_ns=60_000 * MS)
    try:
        writer = source.create_datawriter(source.create_topic("t", COUNTER), BEST_EFFORT)
        closer = a.create_datareader(a.create_topic("t", COUNTER), BEST_EFFORT,
                                     listener=lambda reader: a.close())
        own_writer = a.create_datawriter(a.create_topic("u", COUNTER), BEST_EFFORT)
        for _ in range(3):
            source.spin_once()
            a.spin_once()
        assert writer.matched_readers() == [closer.guid]
        a.start(poll_interval_s=0.001)
        pump = a._thread
        writer.write({"n": 1})
        pump.join(timeout=5.0)
        assert not pump.is_alive()
        assert a.closed and closer.closed and own_writer.closed
        assert a.readers() == [] and a.writers() == []
        net.attach("A").close()  # the name is free again: A detached
        source.spin_once()  # A's last announce lists no endpoints
        assert writer.matched_readers() == []
    finally:
        source.close()
        a.close()


def test_start_on_a_closed_participant_raises_and_starts_no_thread():
    net = InProcNetwork()
    part, = _peers(net, 0, "A")
    part.close()
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="participant is closed"):
        part.start()
    assert part._thread is None
    assert set(threading.enumerate()) <= before


def test_threads_writing_on_several_participants_lose_no_sample():
    """Four application threads, one per writing participant, and five
    pumps share the one lock under a short switch interval; the reader
    gets every sample once."""
    writers_n, per_thread = 4, 200
    net = InProcNetwork()
    names = [f"W{i}" for i in range(writers_n)]
    reader_part = DomainParticipant(0, transport=net.attach("R"), static_peers=names)
    parts = [DomainParticipant(0, transport=net.attach(name), static_peers=("R",))
             for name in names]
    received = []
    reader = reader_part.create_datareader(
        reader_part.create_topic("t", COUNTER), RELIABLE,
        listener=lambda r: received.extend(s.values[0] for s, _ in r.take()))
    writers = [p.create_datawriter(p.create_topic("t", COUNTER), RELIABLE) for p in parts]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for part in (reader_part, *parts):
            part.start(poll_interval_s=0.001)
        assert _within(lambda: len(reader.matched_writers()) == writers_n, 5.0)

        def write_all(index):
            for k in range(per_thread):
                writers[index].write({"n": index * per_thread + k})

        threads = [threading.Thread(target=write_all, args=(i,)) for i in range(writers_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert _within(lambda: len(received) >= writers_n * per_thread, 10.0)
    finally:
        sys.setswitchinterval(switch_interval)
        for part in (reader_part, *parts):
            part.close()
    assert sorted(received) == list(range(writers_n * per_thread))


def test_a_started_gateway_forwards_reliable_streams_both_ways_in_order():
    """The gateway shape, with every participant started and 200 RELIABLE
    KEEP_ALL samples sent each way from two application threads, under a
    short switch interval so the threads interleave finely: each sink gets
    every sample once, in order."""
    count = 200
    net = InProcNetwork()
    source0, a = _peers(net, 0, "S0", "A", announce_period_ns=60_000 * MS)
    source1, b = _peers(net, 1, "S1", "B", announce_period_ns=60_000 * MS)
    parts = (source0, a, source1, b)
    writes = {}
    sinks = {}
    for source in (source0, source1):
        writes[source] = source.create_datawriter(source.create_topic("in", COUNTER), RELIABLE)
        sinks[source] = source.create_datareader(source.create_topic("out", COUNTER), RELIABLE)
    forward_to = {a: b.create_datawriter(b.create_topic("out", COUNTER), RELIABLE),
                  b: a.create_datawriter(a.create_topic("out", COUNTER), RELIABLE)}

    def forwarder(gateway):
        def listener(reader):
            for sample, _ in reader.take():
                forward_to[gateway].write({"n": sample.values[0]})
        return listener

    for gateway in (a, b):
        gateway.create_datareader(gateway.create_topic("in", COUNTER), RELIABLE,
                                  listener=forwarder(gateway))
    got = {source0: [], source1: []}

    def arrived():
        for source, sink in sinks.items():
            got[source] += [s.values[0] for s, _ in sink.take()]
        return all(len(values) >= count for values in got.values())

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for part in parts:
            part.start(poll_interval_s=0.001)
        pumps = [part._thread for part in parts]
        assert _within(lambda: all(w.matched_readers() for w in writes.values())
                       and all(w.matched_readers() for w in forward_to.values()), 5.0)

        def write_all(writer, base):
            for k in range(count):
                writer.write({"n": base + k})

        threads = [threading.Thread(target=write_all, args=(writes[source], base))
                   for source, base in ((source0, 0), (source1, 1000))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
            assert not thread.is_alive()
        assert _within(arrived, 20.0), {s: len(v) for s, v in got.items()}
    finally:
        sys.setswitchinterval(switch_interval)
        for part in parts:
            part.close()
    for pump in pumps:
        pump.join(timeout=1.0)
        assert not pump.is_alive()
    arrived()  # nothing more came
    assert got == {source0: list(range(1000, 1000 + count)), source1: list(range(count))}
