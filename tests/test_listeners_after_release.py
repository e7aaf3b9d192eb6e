"""Reader listeners run after the lock is released. The arrival pipeline
only marks a reader ready; the call that delivered (``spin_once``, a
write to a reader on the writer's own participant, or a reader's
creation that a local durable writer replays to) calls each ready
reader's listener once, in the order the readers became ready, on its
own thread, once it has released the lock. A KEEP_LAST reader holds
back a DATA that could replace a sample its listener has not seen, and
takes it in once the listener has returned. A reader closed before its
turn is not called, and a failed spin calls no listener.

Every case runs on ``InProcNetwork`` and a ``ManualClock``."""

import threading

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

MS = 1_000_000
COUNTER = idl.parse_idl("struct Counter { long n; };")[0]
KEYED = idl.parse_idl("struct Keyed { long k; //@key\n long n; };")[0]
RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_ALL)]


def _keep_last(depth):
    return [qos.Reliability(qos.ReliabilityKind.RELIABLE),
            qos.History(qos.HistoryKind.KEEP_LAST, depth)]


@pytest.fixture
def pair():
    """Participants A and B, each the static peer of the other, on one
    manual clock, with a 10 ms announce period, and a rogue address that
    sends B datagrams under A's prefix."""
    net = InProcNetwork()
    clock = ManualClock(1_000_000_000)
    a, b = (DomainParticipant(0, transport=net.attach(name), clock=clock,
                              static_peers=(other,), announce_period_ns=10 * MS)
            for name, other in (("A", "B"), ("B", "A")))
    rogue = net.attach("rogue")
    yield a, b, clock, lambda *subs: rogue.send(
        wire.encode_message(wire.WireMessage(a.guid.prefix, subs)), "B")
    a.close()
    b.close()


def _data(writer, seq, values):
    """A DATA of ``writer`` with that sequence and those values."""
    sample = idl.make_sample(writer.type, values)
    return wire.Data(writer.guid.entity_id, 0, seq, 0, idl.key_hash(writer.type, sample),
                     idl.serialize(writer.type, sample))


def _matched(a, b, *topics):
    """A reliable writer on A and a matched reliable reader on B per topic."""
    writers = [a.create_datawriter(a.create_topic(t, COUNTER), RELIABLE) for t in topics]
    readers = [b.create_datareader(b.create_topic(t, COUNTER), RELIABLE) for t in topics]
    for participant in (a, b, a, b):
        participant.spin_once()
    for writer, reader in zip(writers, readers):
        assert reader.matched_writers() == [writer.guid]
    return writers, readers


def _lock_is_free(lock, timeout_s=1.0) -> bool:
    """Whether another thread acquires ``lock`` within ``timeout_s``."""
    acquired = []

    def probe():
        if lock.acquire(timeout=timeout_s):
            lock.release()
            acquired.append(True)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(timeout=timeout_s + 1.0)
    assert not thread.is_alive()
    return acquired == [True]


def test_a_listener_called_by_a_spin_holds_no_lock(pair):
    a, b, *_ = pair
    (writer,), (reader,) = _matched(a, b, "t")
    free = []
    reader.listener = lambda r: free.append(_lock_is_free(b._lock))
    writer.write({"n": 1})
    b.spin_once()
    assert free == [True]


def test_a_listener_called_by_a_local_write_holds_no_lock(pair):
    a, *_ = pair
    free = []
    writer = a.create_datawriter(a.create_topic("t", COUNTER), RELIABLE)
    a.create_datareader(a.create_topic("t", COUNTER), RELIABLE,
                        listener=lambda r: free.append(_lock_is_free(a._lock)))
    writer.write({"n": 1})
    assert free == [True]


def test_a_stalled_listener_does_not_drop_its_own_peer(pair):
    """B's listener stalls for four announce periods, on the clock. The
    spin that called it checked its peers' silence before it: A is kept,
    and after one announce from A the match and its session stay."""
    a, b, clock, _ = pair
    (writer,), (reader,) = _matched(a, b, "t")
    session = reader._sessions[writer.guid]
    reader.listener = lambda r: clock.advance(4 * 10 * MS)
    writer.write({"n": 1})
    b.spin_once()
    assert b.discovery.peer_count() == 1
    assert reader.matched_writers() == [writer.guid]
    a.spin_once()  # its announce is due
    b.spin_once()
    assert b.discovery.peer_count() == 1
    assert reader.matched_writers() == [writer.guid]
    assert reader._sessions[writer.guid] is session


def test_one_call_per_reader_per_delivering_call(pair):
    a, b, *_ = pair
    (writer,), (first,) = _matched(a, b, "t")
    second = b.create_datareader(b.create_topic("t", COUNTER), RELIABLE)
    for participant in (a, b, a, b):
        participant.spin_once()
    taken = {first: [], second: []}
    for reader in taken:
        reader.listener = lambda r: taken[r].append([s.values[0] for s, _ in r.take()])
    for n in range(5):
        writer.write({"n": n})
    b.spin_once()
    assert taken == {first: [[0, 1, 2, 3, 4]], second: [[0, 1, 2, 3, 4]]}
    # A write to a reader on its own participant is a delivering call too.
    local = b.create_datawriter(b.create_topic("t", COUNTER), RELIABLE)
    local.write({"n": 9})
    local.write({"n": 10})
    assert taken[first][1:] == [[9], [10]] and taken[second][1:] == [[9], [10]]


def test_calls_follow_the_order_the_readers_became_ready(pair):
    """Readers x, y and z, created in that order, get DATA in the order
    y, x, y, z within one spin: y is called first, once."""
    a, b, *_ = pair
    writers, readers = _matched(a, b, "x", "y", "z")
    calls = []
    for reader in readers:
        reader.listener = lambda r: calls.append(r.topic.name)
    by_topic = {w.topic.name: w for w in writers}
    for name in ("y", "x", "y", "z"):
        by_topic[name].write({"n": 0})
    b.spin_once()
    assert calls == ["y", "x", "z"]


def test_a_reader_closed_before_its_turn_is_not_called(pair):
    a, b, *_ = pair
    writers, (first, second) = _matched(a, b, "x", "y")
    calls = []

    def closing(reader):
        calls.append(reader.topic.name)
        second.close()

    first.listener = closing
    second.listener = lambda r: calls.append(r.topic.name)
    for writer in writers:
        writer.write({"n": 0})
    b.spin_once()
    assert calls == ["x"]
    assert second.closed and len(second.take()) == 1


def test_a_keep_last_reader_sees_each_sample_before_the_next_of_its_instance(pair):
    """A KEEP_LAST(1) reader with a listener holds back a DATA of an
    instance its cache accepted since the listener last returned: of four
    one-DATA datagrams, of instances 1, 2, 1 and 1, the listener takes
    the first two at one call, then each of the others, also when another
    datagram came between. Three DATA of one instance in one datagram
    reach it at three calls, and none is evicted."""
    a, b, _, send = pair
    keep_last = _keep_last(1)
    writer = a.create_datawriter(a.create_topic("t", KEYED), keep_last)
    taken = []
    reader = b.create_datareader(
        b.create_topic("t", KEYED), keep_last,
        listener=lambda r: taken.append([s.values[1] for s, _ in r.take()]))
    for participant in (a, b, a, b):
        participant.spin_once()
    assert reader.matched_writers() == [writer.guid]
    for n, k in enumerate((1, 2, 1, 1)):
        writer.write({"k": k, "n": n})
    assert b.spin_once() == 4
    assert taken == [[0, 1], [2], [3]]
    writer.write({"k": 1, "n": 4})
    send(wire.Gap(writer.guid.entity_id, 1, 1))  # settled already: no effect
    writer.write({"k": 1, "n": 5})
    assert b.spin_once() == 3
    assert taken[3:] == [[4], [5]]
    assert reader.statistics().evicted_by_history == 0
    send(*(_data(writer, seq, {"k": 1, "n": seq}) for seq in (7, 8, 9)))
    b.spin_once()
    assert taken[5:] == [[7], [8], [9]]
    assert reader.statistics().evicted_by_history == 0


def _keyed_reader(a, b, policies, listener):
    """A reliable KEEP_ALL writer of ``KEYED`` on A and a matched reader
    on B with those policies and that listener."""
    writer = a.create_datawriter(a.create_topic("t", KEYED), RELIABLE)
    reader = b.create_datareader(b.create_topic("t", KEYED), policies, listener=listener)
    for participant in (a, b, a, b):
        participant.spin_once()
    assert reader.matched_writers() == [writer.guid]
    return writer, reader


def _taking(taken):
    """A listener that appends the ``n`` of each sample it takes, per call."""
    return lambda r: taken.append([s.values[1] for s, _ in r.take()])


def test_a_repaired_run_reaches_a_keep_last_listener_one_sample_at_a_time(pair):
    """DATA 1 to 4 of one instance reach B without 1, so B's reliable
    session holds 2 to 4 behind the hole. The repair releases the four at
    once; the KEEP_LAST(1) reader's listener takes each at its own call,
    and none is evicted."""
    a, b, *_ = pair
    taken = []
    writer, reader = _keyed_reader(a, b, _keep_last(1), _taking(taken))
    for n in range(1, 5):
        writer.write({"k": 1, "n": n})
    queue = b.transport._queue
    assert [wire.read_data_message(data)[3] for data, _ in queue] == [1, 2, 3, 4]
    queue.popleft()  # DATA 1 is lost
    b.spin_once()
    assert taken == []
    a.spin_once()  # HEARTBEAT
    b.spin_once()  # ACKNACK for 1
    a.spin_once()  # resends 1
    b.spin_once()
    assert taken == [[1], [2], [3], [4]]
    assert reader.statistics().evicted_by_history == 0


def test_a_keep_all_reader_beside_a_keep_last_one_takes_a_run_at_one_call(pair):
    """A KEEP_ALL reader and a KEEP_LAST(1) reader on B share A's writer.
    Four writes of one instance reach the KEEP_ALL listener at one call;
    only the KEEP_LAST reader holds back, and takes them one at a time."""
    a, b, *_ = pair
    taken_last, taken_all = [], []
    writer, _ = _keyed_reader(a, b, _keep_last(1), _taking(taken_last))
    b.create_datareader(b.create_topic("t", KEYED), RELIABLE, listener=_taking(taken_all))
    for participant in (a, b, a, b):
        participant.spin_once()
    for n in range(4):
        writer.write({"k": 1, "n": n})
    assert b.spin_once() == 4
    assert taken_all == [[0, 1, 2, 3]]
    assert taken_last == [[0], [1], [2], [3]]


def test_a_reader_whose_listener_is_removed_takes_in_what_waits(pair):
    """A KEEP_LAST(4) reader's listener removes itself at its first call,
    without taking: the three DATA held back go into the cache once it
    returns, and no call follows."""
    a, b, *_ = pair
    calls = []

    def once(reader):
        calls.append(len(reader.read()))
        reader.listener = None

    writer, reader = _keyed_reader(a, b, _keep_last(4), once)
    for n in range(4):
        writer.write({"k": 1, "n": n})
    assert b.spin_once() == 4
    assert calls == [1]
    assert [s.values[1] for s, _ in reader.take()] == [0, 1, 2, 3]


@pytest.mark.parametrize("listening", [True, False], ids=["kept", "removed"])
def test_what_waits_after_a_failed_spin_comes_in_with_the_next_delivery(pair, listening):
    """A spin fails after a KEEP_LAST(8) reader held back two DATA of the
    instance it had just accepted. The next DATA for that reader brings
    them in, in order: at one call each while its listener is kept, or
    all at once into the cache once it was removed."""
    a, b, *_ = pair
    taken = []
    writer, reader = _keyed_reader(a, b, _keep_last(8), _taking(taken))
    for n in range(3):
        writer.write({"k": 1, "n": n})

    def fail(_arrived):
        raise RuntimeError("timer failed")

    b._protocol_work = fail
    with pytest.raises(RuntimeError, match="timer failed"):
        b.spin_once()
    del b._protocol_work
    assert taken == [] and [s.values[1] for s, _ in reader.read()] == [0]
    if not listening:
        reader.listener = None
    writer.write({"k": 1, "n": 3})
    assert b.spin_once() == 1
    if listening:
        assert taken == [[0], [1], [2], [3]]
    else:
        assert taken == [] and [s.values[1] for s, _ in reader.take()] == [0, 1, 2, 3]


def test_a_spin_that_raises_calls_no_listener_and_leaves_nothing_ready(pair):
    """A spin that fails after a DATA made a reader ready drops that
    reader with its batch: neither that spin nor a later call of another
    kind calls its listener, until a later DATA makes it ready again."""
    a, b, _, _ = pair
    (writer,), (reader,) = _matched(a, b, "t")
    calls = []
    reader.listener = lambda r: calls.append(len(r.take()))
    writer.write({"n": 1})

    def fail(_arrived):
        raise RuntimeError("timer failed")

    b._protocol_work = fail
    with pytest.raises(RuntimeError, match="timer failed"):
        b.spin_once()
    del b._protocol_work
    assert b._ready == {} and calls == []
    local = b.create_datawriter(b.create_topic("u", COUNTER), RELIABLE)
    local.write({"n": 2})  # delivers to no reader
    assert calls == []
    assert b.spin_once() == 0 and calls == []
    writer.write({"n": 3})  # the listener is called again, for both
    assert b.spin_once() == 1 and calls == [2]


def test_a_durable_replay_at_creation_calls_the_new_reader_once(pair):
    """A new reader on the participant of a TRANSIENT_LOCAL writer gets
    the writer's history while it is created: its listener is called once,
    with the lock released, before ``create_datareader`` returns. A new
    writer has no history to replay, so creating one makes no reader
    ready."""
    a, *_ = pair
    durable = RELIABLE + [qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)]
    writer = a.create_datawriter(a.create_topic("t", COUNTER), durable)
    for n in range(3):
        writer.write({"n": n})
    calls = []
    a.create_datareader(
        a.create_topic("t", COUNTER), durable,
        listener=lambda r: calls.append(([s.values[0] for s, _ in r.take()],
                                         _lock_is_free(a._lock))))
    assert calls == [([0, 1, 2], True)]
    a.create_datawriter(a.create_topic("t", COUNTER), durable)
    assert calls == [([0, 1, 2], True)] and a._ready == {}
