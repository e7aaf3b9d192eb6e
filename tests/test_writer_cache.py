"""The writer cache and the writer session against a brute-force reference.

``_ReferenceHistory`` and ``_ReferenceSession`` restate the writer-side
contract the simple way: every operation scans the whole cache. Seeded
random interleavings of writes, acknowledgements, releases, expiry,
reader matching and heartbeats must give the same outputs and the same
cache contents from both.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from minidds import qos
from minidds.dcps.guid import Guid
from minidds.dcps.history import CachedSample, ResourceLimitsError, WriterHistory
from minidds.rtps import wire
from minidds.rtps.reliability import (HEARTBEAT_PERIOD_NS, RESPONSE_DELAY_NS,
                                      Directed, WriterSession)

WRITER_ENTITY = 11
WRITER_GUID = Guid(b"\x00" * 12, WRITER_ENTITY)
READERS = [Guid(bytes([i]) * 12, 20 + i) for i in (1, 2, 3)]
HANDLES = range(6)
MS = 1_000_000


def _ranges(seqs):
    ranges = []
    for seq in sorted(seqs):
        if ranges and seq == ranges[-1][1] + 1:
            ranges[-1][1] = seq
        else:
            ranges.append([seq, seq])
    return ranges


class _ReferenceHistory:
    def __init__(self, history: qos.History, limits: qos.ResourceLimits):
        self.keep_last = history.kind == qos.HistoryKind.KEEP_LAST
        self.limits = limits
        self.cap = limits.max_samples_per_instance
        if self.keep_last:
            self.cap = history.depth if self.cap is None else min(history.depth, self.cap)
        self.by_seq: dict[int, CachedSample] = {}
        self.released: list[int] = []

    def per_instance(self) -> dict[int, list[int]]:
        buckets: dict[int, list[int]] = {}
        for seq in sorted(self.by_seq):
            buckets.setdefault(self.by_seq[seq][1], []).append(seq)
        return buckets

    def _bucket(self, handle):
        return self.per_instance().get(handle, [])

    def has_room(self, handle) -> bool:
        if (not self._bucket(handle) and self.limits.max_instances is not None
                and len(self.per_instance()) >= self.limits.max_instances):
            return False
        if self.keep_last:
            return True
        if self.cap is not None and len(self._bucket(handle)) >= self.cap:
            return False
        return (self.limits.max_samples is None
                or len(self.by_seq) < self.limits.max_samples)

    def insert(self, sample: CachedSample) -> None:
        sequence, handle, _, _, _ = sample
        if not self.has_room(handle):
            raise ResourceLimitsError("full")
        if self.keep_last:
            while self.cap is not None and len(self._bucket(handle)) >= self.cap:
                del self.by_seq[min(self._bucket(handle))]
            if (self.limits.max_samples is not None
                    and len(self.by_seq) >= self.limits.max_samples):
                if not self._bucket(handle):
                    raise ResourceLimitsError("full (max_samples)")
                del self.by_seq[min(self._bucket(handle))]
        self.by_seq[sequence] = sample

    def release(self, up_to_sequence) -> list[int]:
        released = sorted(s for s in self.by_seq if s <= up_to_sequence)
        for seq in released:
            del self.by_seq[seq]
        self.released.extend(released)
        return released

    def expire(self, now_wall_ns) -> None:
        for seq in [s for s, (_, _, _, _, expiry) in self.by_seq.items()
                    if expiry < now_wall_ns]:
            del self.by_seq[seq]


@dataclass
class _Proxy:
    reliable: bool
    acked_below: int
    last_heartbeat_ns: int
    last_resend_ns: dict = field(default_factory=dict)


class _ReferenceSession:
    def __init__(self, history: _ReferenceHistory, transient_local: bool):
        self.history = history
        self.transient_local = transient_local
        self.last_sequence = 0
        self.heartbeats = 0
        self.proxies: dict[Guid, _Proxy] = {}

    def _data(self, sample, reader_entity_id):
        sequence, handle, message, source_ts, _ = sample
        return wire.Data(WRITER_ENTITY, reader_entity_id, sequence, source_ts, handle,
                         wire.decode_message(message).submessages[0].payload)

    def _release(self):
        if self.transient_local:
            return
        floors = [p.acked_below for p in self.proxies.values() if p.reliable]
        self.history.release(min(floors, default=self.last_sequence + 1) - 1)

    def add_reader(self, guid, *, reliable, wants_history, now_ns):
        cached = sorted(self.history.by_seq)
        replay = reliable and wants_history and cached
        floor = cached[0] if replay else self.last_sequence + 1
        self.proxies[guid] = _Proxy(reliable, floor, now_ns - HEARTBEAT_PERIOD_NS)
        if not replay:
            return []
        return [Directed(guid, self._data(self.history.by_seq[s], guid.entity_id))
                for s in cached]

    def remove_reader(self, guid):
        self.proxies.pop(guid, None)
        self._release()

    def on_write(self, sample):
        self.last_sequence = max(self.last_sequence, sample[0])
        self._release()
        return self.last_sequence

    def on_acknack(self, guid, ack, now_ns):
        proxy = self.proxies.get(guid)
        if proxy is None or not proxy.reliable:
            return []
        base = min(ack.base_seq, self.last_sequence + 1)  # nothing unwritten is acked
        if base > proxy.acked_below:
            proxy.acked_below = base
            proxy.last_resend_ns = {s: t for s, t in proxy.last_resend_ns.items()
                                    if s >= base}
            self._release()
        out, gone = [], []
        for seq in ack.missing:
            sample = self.history.by_seq.get(seq)
            if sample is not None:
                last = proxy.last_resend_ns.get(seq)
                if last is None or now_ns - last >= RESPONSE_DELAY_NS:
                    proxy.last_resend_ns[seq] = now_ns
                    out.append(Directed(guid, self._data(sample, guid.entity_id)))
            elif seq <= self.last_sequence:
                gone.append(seq)
        out.extend(Directed(guid, wire.Gap(WRITER_ENTITY, lo, hi))
                   for lo, hi in _ranges(gone))
        return out

    def step(self, now_ns):
        out = []
        for guid, proxy in self.proxies.items():
            if not proxy.reliable or proxy.acked_below > self.last_sequence:
                continue
            if now_ns - proxy.last_heartbeat_ns < HEARTBEAT_PERIOD_NS:
                continue
            proxy.last_heartbeat_ns = now_ns
            pending = [s for s in self.history.by_seq if s >= proxy.acked_below]
            first = min(pending) if pending else self.last_sequence + 1
            self.heartbeats += 1
            out.append(Directed(guid, wire.Heartbeat(
                WRITER_ENTITY, first, self.last_sequence, self.heartbeats)))
        return out


class _RecordingHistory(WriterHistory):
    """The cache under test, keeping what every release returned."""

    def __init__(self, *args):
        super().__init__(*args)
        self.released: list[int] = []

    def release(self, up_to_sequence):
        released = super().release(up_to_sequence)
        self.released.extend(released)
        return released


def _random_qos(rng):
    kind = rng.choice([qos.HistoryKind.KEEP_LAST, qos.HistoryKind.KEEP_ALL])
    per_instance = rng.choice([None, rng.randint(1, 5)])
    max_samples = rng.choice([None, rng.randint(per_instance or 1, 12)])
    max_instances = rng.choice([None, rng.randint(1, 4)])
    return (qos.History(kind, rng.randint(1, 4)),
            qos.ResourceLimits(max_samples, max_instances, per_instance))


def _assert_same_cache(history, reference):
    assert list(history.by_seq.items()) == [
        (s, reference.by_seq[s]) for s in sorted(reference.by_seq)]
    assert {h: list(seqs) for h, seqs in history.per_instance.items()} == \
        reference.per_instance()
    assert len(history) == len(reference.by_seq)
    assert history.released == reference.released
    history.released.clear()
    reference.released.clear()
    assert [history.has_room(h) for h in HANDLES] == \
        [reference.has_room(h) for h in HANDLES]
    # Removed entries linger in the lazy indexes only until they outnumber
    # the cached samples.
    assert len(history._order) <= 2 * len(history) + 64


@pytest.mark.parametrize("seed", range(60))
def test_matches_the_brute_force_reference(seed):
    rng = random.Random(seed)
    history_qos, limits = _random_qos(rng)
    transient_local = rng.random() < 0.25
    history = _RecordingHistory(history_qos, limits)
    session = WriterSession(history, writer_entity_id=WRITER_ENTITY,
                            transient_local=transient_local)
    reference = _ReferenceHistory(history_qos, limits)
    ref_session = _ReferenceSession(reference, transient_local)
    now, wall = 0, 1000
    for _ in range(600):
        op = rng.random()
        if op < 0.4:
            # As DataWriter.write: cached only while the session keeps history.
            handle = rng.choice(HANDLES)
            assert history.has_room(handle) == reference.has_room(handle)
            caching = session.keeps_history
            if caching and not history.has_room(handle):
                continue
            expiry = qos.INFINITE_NS
            source_ts = wall + rng.randint(-100, 100)  # out of order
            if rng.random() < 0.7:
                lifespan = rng.choice([rng.randint(1, 300), 10**6])
                expiry = source_ts + lifespan
            payload = b"%d" % rng.randrange(1000)
            sequence = session.last_sequence + 1
            sample = (sequence, handle, wire.pack_data_message(
                WRITER_GUID.prefix, WRITER_ENTITY, 0, sequence, source_ts, handle,
                payload), source_ts, expiry)
            if caching:
                try:
                    reference.insert(sample)
                except ResourceLimitsError:
                    with pytest.raises(ResourceLimitsError):
                        history.insert(sample)
                    continue
                history.insert(sample)
            # The reference releases on every write too: it must find
            # nothing to release.
            assert session.on_write() == ref_session.on_write(sample)
        elif op < 0.6:
            guid = rng.choice(READERS)
            proxy = ref_session.proxies.get(guid)
            floor = proxy.acked_below if proxy else 1
            last = ref_session.last_sequence
            base = rng.randint(max(1, floor - 2), last + 2)
            span = range(base, last + 3)
            missing = tuple(sorted(rng.sample(span, min(len(span), rng.randint(0, 5)))))
            now += rng.randint(0, 8 * MS)
            ack = wire.AckNack(guid.entity_id, WRITER_GUID, base, missing)
            assert session.on_acknack(guid, ack, now) == \
                ref_session.on_acknack(guid, ack, now)
        elif op < 0.72:
            now += rng.randint(0, 40 * MS)
            assert session.step(now) == ref_session.step(now)
        elif op < 0.82:
            wall += rng.randint(0, 80)
            history.expire(wall)
            reference.expire(wall)
        elif op < 0.9:
            guid = rng.choice(READERS)
            reliable, wants_history = rng.random() < 0.8, rng.random() < 0.5
            if guid in ref_session.proxies:  # a writer rematches, never re-adds
                session.remove_reader(guid)
                ref_session.remove_reader(guid)
            # As DataWriter._add_match: the session is told of a RELIABLE
            # reader alone, while the reference keeps a best-effort one too
            # and must find that it changes nothing.
            replay = ref_session.add_reader(guid, reliable=reliable,
                                            wants_history=wants_history, now_ns=now)
            if reliable:
                assert session.add_reader(guid, wants_history=wants_history,
                                          now_ns=now) == replay
            else:
                assert replay == []
        elif op < 0.95:
            guid = rng.choice(READERS)
            session.remove_reader(guid)
            ref_session.remove_reader(guid)
        else:
            up_to = rng.randint(0, ref_session.last_sequence)
            assert history.release(up_to) == reference.release(up_to)
        _assert_same_cache(history, reference)
        assert session.all_acked() == all(
            not p.reliable or p.acked_below > ref_session.last_sequence
            for p in ref_session.proxies.values())


def test_release_and_heartbeats_stay_flat_as_the_cache_grows():
    """65 536 cached samples of one instance, acknowledged one sequence at
    a time, with a heartbeat every 64 acknowledgements. A release or a
    heartbeat that scans the whole cache needs about 2e9 steps for this
    and cannot finish inside the budget. The sequence-ordered cache takes
    about 0.9 s on a 2-core x86-64 host under CPython 3.11, so the budget
    leaves five times that for slower interpreters and runners, and still
    sits orders of magnitude under the quadratic scan. If it needs more
    headroom, raise it no further than a bound that scan cannot meet."""
    n, budget_s = 65536, 5.0
    history = WriterHistory(qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits())
    session = WriterSession(history, writer_entity_id=WRITER_ENTITY,
                            transient_local=False)
    reader = READERS[0]
    session.add_reader(reader, wants_history=False, now_ns=0)
    deadline = time.perf_counter() + budget_s

    def within_budget(what, i):
        if i % 1024 == 0 and time.perf_counter() > deadline:
            pytest.fail(f"over the {budget_s} s budget while {what} at {i} of {n}")

    for seq in range(1, n + 1):
        history.insert((seq, 0, b"", seq, qos.INFINITE_NS))
        session.on_write()
        within_budget("caching", seq)
    assert len(history) == n
    now = 0
    for seq in range(1, n + 1):
        session.on_acknack(reader, wire.AckNack(reader.entity_id, WRITER_GUID,
                                                seq + 1, ()), now)
        if seq % 64 == 0 and seq < n:
            now += HEARTBEAT_PERIOD_NS
            (heartbeat,) = session.step(now)
            assert (heartbeat.submessage.first_seq,
                    heartbeat.submessage.last_seq) == (seq + 1, n)
        within_budget("releasing", seq)
    assert len(history) == 0
    assert session.all_acked()
