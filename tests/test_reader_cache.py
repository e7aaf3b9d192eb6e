"""The reader cache against a brute-force reference.

``_ReferenceHistory`` restates the reader-side contract the simple way:
every insert appends and evicts the minimum by order key, every read and
take sorts the whole cache. Seeded random interleavings of arrivals in
order, reordered and from two writers, and of reads and takes of every
size, must give the same outcomes, totals and samples from both.
"""

import random
import time
from bisect import insort
from dataclasses import dataclass

import pytest

from minidds import idl, qos
from minidds.dcps.guid import Guid
from minidds.dcps.history import _REPLACED, InsertOutcome, ReaderHistory, SampleInfo

WRITERS = [Guid(bytes([i]) * 12, 7) for i in (2, 1)]  # listed out of guid order
HANDLES = [0, 3, 2**63 + 5, 11]


@dataclass(slots=True)
class CachedSample:
    info: SampleInfo
    sample: idl.Sample
    arrival_index: int

    def order_key(self):
        return (self.info.sequence, self.info.writer_guid, self.arrival_index)


class _ReferenceHistory:
    """The list-and-sort reader cache that the ordered one replaced, with
    one fix: a rejected arrival for an unknown instance no longer leaves an
    empty instance behind (it counted towards ``max_instances``)."""

    def __init__(self, history: qos.History, limits: qos.ResourceLimits):
        self.history = history
        self.limits = limits
        self._cap = limits.max_samples_per_instance
        if history.kind == qos.HistoryKind.KEEP_LAST:
            self._cap = history.depth if self._cap is None else min(history.depth, self._cap)
        self.instances: dict[int, list[CachedSample]] = {}
        self._arrival_counter = 0
        self.total = 0

    def insert(self, info: SampleInfo, sample: idl.Sample) -> InsertOutcome:
        handle = info.instance_handle
        samples = self.instances.get(handle)
        if samples is None:
            if (self.limits.max_instances is not None
                    and len(self.instances) >= self.limits.max_instances):
                return InsertOutcome(False, "max_instances")
            samples = []
        cap = self._cap
        if self.history.kind == qos.HistoryKind.KEEP_ALL:
            if cap is not None and len(samples) >= cap:
                return InsertOutcome(False, "max_samples_per_instance")
            if self.limits.max_samples is not None and self.total >= self.limits.max_samples:
                return InsertOutcome(False, "max_samples")
        self.instances[handle] = samples
        entry = CachedSample(info, sample, self._arrival_counter)
        self._arrival_counter += 1
        samples.append(entry)
        self.total += 1
        evicted_arriving = False
        evicted_count = 0
        if self.history.kind == qos.HistoryKind.KEEP_LAST:
            while cap is not None and len(samples) > cap:
                victim = min(samples, key=CachedSample.order_key)
                samples.remove(victim)
                self.total -= 1
                evicted_count += 1
                if victim is entry:
                    evicted_arriving = True
            while (self.limits.max_samples is not None
                   and self.total > self.limits.max_samples):
                victim = min(samples, key=CachedSample.order_key)
                samples.remove(victim)
                self.total -= 1
                evicted_count += 1
                if victim is entry:
                    evicted_arriving = True
        if not samples:
            del self.instances[handle]
        return InsertOutcome(True, evicted_arriving=evicted_arriving,
                             evicted_count=evicted_count)

    def _ordered(self) -> list[CachedSample]:
        entries = []
        for handle in sorted(self.instances):
            entries.extend(sorted(self.instances[handle], key=CachedSample.order_key))
        return entries

    def read(self, max_samples: int):
        return [(e.sample, e.info) for e in self._ordered()[:max_samples]]

    def take(self, max_samples: int):
        taken = self._ordered()[:max_samples]
        for entry in taken:
            samples = self.instances[entry.info.instance_handle]
            samples.remove(entry)
            if not samples:
                del self.instances[entry.info.instance_handle]
            self.total -= 1
        return [(e.sample, e.info) for e in taken]


CONFIGS = [
    *[(qos.History(qos.HistoryKind.KEEP_LAST, depth), qos.ResourceLimits())
      for depth in (1, 2, 3, 4)],
    (qos.History(qos.HistoryKind.KEEP_LAST, 3), qos.ResourceLimits(max_samples=5)),
    (qos.History(qos.HistoryKind.KEEP_LAST, 1), qos.ResourceLimits(max_samples=3)),
    (qos.History(qos.HistoryKind.KEEP_LAST, 2), qos.ResourceLimits(max_samples=7)),
    (qos.History(qos.HistoryKind.KEEP_LAST, 2),
     qos.ResourceLimits(max_instances=2, max_samples_per_instance=1)),
    (qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits()),
    (qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits(max_samples=6)),
    (qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits(max_instances=2)),
    (qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits(max_samples_per_instance=3)),
    (qos.History(qos.HistoryKind.KEEP_ALL),
     qos.ResourceLimits(max_samples=5, max_instances=3, max_samples_per_instance=2)),
]


class _Arrivals:
    """Arrivals the reader's sessions can produce: each writer's
    sequences mostly rising, some held back and delivered late, some
    equal to the other writer's, now and then one delivered again."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next_seq = {guid: 1 for guid in WRITERS}
        self.held: list[tuple[Guid, int]] = []
        self.sent: list[tuple[Guid, int]] = []
        self.count = 0

    def next(self) -> tuple[SampleInfo, idl.Sample]:
        rng = self.rng
        roll = rng.random()
        if self.held and roll < 0.25:
            guid, seq = self.held.pop(rng.randrange(len(self.held)))
        elif self.sent and roll < 0.3:
            guid, seq = rng.choice(self.sent)
        else:
            guid = rng.choice(WRITERS)
            if roll < 0.4:  # the other writer's latest sequence
                seq = max(self.next_seq[WRITERS[0]], self.next_seq[WRITERS[1]]) - 1
                self.next_seq[guid] = max(self.next_seq[guid], seq + 1)
            else:
                seq = self.next_seq[guid]
                self.next_seq[guid] += rng.randint(1, 3)
                for skipped in range(seq + 1, self.next_seq[guid]):
                    self.held.append((guid, skipped))
        self.sent.append((guid, seq))
        self.count += 1
        handle = rng.choice(HANDLES)
        info = SampleInfo(guid, seq, seq * 10, self.count, handle)
        return info, idl.Sample("Reading", (self.count,))


@pytest.mark.parametrize("config", range(len(CONFIGS)))
@pytest.mark.parametrize("seed", range(6))
def test_matches_the_brute_force_reference(config, seed):
    """Every outcome equals the reference's field by field. In each
    keep-last configuration, with and without ``max_samples``, some
    arrivals take the in-place path: sorting last in a full instance,
    they replace its front entry and share one outcome value."""
    history_policy, limits = CONFIGS[config]
    rng = random.Random(f"{config}/{seed}")
    ours = ReaderHistory(history_policy, limits)
    reference = _ReferenceHistory(history_policy, limits)
    arrivals = _Arrivals(rng)
    in_place = 0
    for step in range(600):
        roll = rng.random()
        if roll < 0.75:
            info, sample = arrivals.next()
            got, want = ours.insert(info, sample), reference.insert(info, sample)
            assert got._asdict() == want._asdict(), f"step {step}: insert of {info}"
            in_place += got is _REPLACED
        else:
            max_samples = rng.choice((1, 2, 3, 5, 100, 2**31))
            op = "read" if roll < 0.85 else "take"
            got = getattr(ours, op)(max_samples)
            want = getattr(reference, op)(max_samples)
            assert got == want, f"step {step}: {op}({max_samples})"
        assert ours.total == reference.total, f"step {step}"
    keep_last = history_policy.kind == qos.HistoryKind.KEEP_LAST
    assert (in_place > 0) == keep_last


def test_a_rejected_sample_leaves_no_empty_instance():
    """A keep-all arrival for a new instance refused by ``max_samples``
    must not hold an instance slot: once a take frees room, a further
    new instance is accepted up to ``max_instances``."""
    history = ReaderHistory(qos.History(qos.HistoryKind.KEEP_ALL),
                            qos.ResourceLimits(max_samples=2, max_instances=2))
    guid = WRITERS[0]
    sample = idl.Sample("Reading", (0,))
    for seq in (1, 2):
        assert history.insert(SampleInfo(guid, seq, 0, 0, 1), sample).accepted
    refused = history.insert(SampleInfo(guid, 3, 0, 0, 2), sample)
    assert (refused.accepted, refused.reason) == (False, "max_samples")
    assert len(history.take(1)) == 1
    assert history.insert(SampleInfo(guid, 4, 0, 0, 3), sample).accepted
    assert [info.instance_handle for _, info in history.read(10)] == [1, 3]


def test_keep_last_one_replaces_in_place():
    history = ReaderHistory(qos.History(qos.HistoryKind.KEEP_LAST, 1), qos.ResourceLimits())
    guid = WRITERS[0]
    for seq in range(1, 5):
        outcome = history.insert(SampleInfo(guid, seq, 0, 0, 9), idl.Sample("Reading", (seq,)))
        assert (outcome.accepted, outcome.evicted_count) == (True, int(seq > 1))
    late = history.insert(SampleInfo(guid, 2, 0, 0, 9), idl.Sample("Reading", (2,)))
    assert (late.evicted_arriving, late.evicted_count) == (True, 1)
    assert [info.sequence for _, info in history.take(5)] == [4]
    assert history.total == 0 and history.read(5) == []


def test_equal_sequence_and_writer_keep_arrival_order():
    """A re-matched writer's replay can deliver a (sequence, writer) pair
    the cache already holds; the copies come out in arrival order, both
    when the repeat sorts last and when it lands before a newer sample."""
    history = ReaderHistory(qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits())
    guid = WRITERS[0]
    for seq, value in ((3, "first"), (3, "second"), (5, "newer"), (3, "third")):
        assert history.insert(SampleInfo(guid, seq, 0, 0, 1),
                              idl.Sample("Reading", (value,))).accepted
    taken = history.take(10)
    assert [sample.values[0] for sample, _ in taken] == ["first", "second", "third", "newer"]


def test_a_late_arrival_costs_the_same_in_a_larger_instance(monkeypatch):
    """An arrival that sorts 3 entries before the end of its instance is
    placed with the same number of key comparisons among 1 024 entries
    as among 65 536: the search starts from the end of the instance."""
    from minidds.dcps import history as history_module

    compared = []
    order_key = history_module._order_key

    def counting(entry):
        compared.append(entry)
        return order_key(entry)

    monkeypatch.setattr(history_module, "_order_key", counting)
    counts = []
    for n in (1024, 65536):
        history = ReaderHistory(qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits())
        late = n - 3
        for seq in [*range(1, late), n - 2, n - 1, n, late]:
            compared.clear()
            assert history.insert(SampleInfo(WRITERS[0], seq, 0, 0, 4),
                                  idl.Sample("Reading", (seq,))).accepted
        counts.append(len(compared))
        assert [info.sequence for _, info in history.take(n)] == list(range(1, n + 1))
    assert counts[0] == counts[1] <= 6, counts


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.deadline = time.perf_counter() + seconds

    def check(self, what: str, i: int) -> None:
        """Fails once past the deadline; looks at the clock when 4096 divides i."""
        if i % 4096 == 0 and time.perf_counter() > self.deadline:
            pytest.fail(f"over the {self.seconds} s budget while {what} at {i}")


def _drain(history: ReaderHistory, n: int, budget: _Budget) -> list[SampleInfo]:
    taken = []
    for i in range(0, n, 64):
        budget.check("taking", i)
        got = history.take(64)
        assert len(got) == 64
        taken.extend(info for _, info in got)
    budget.check("taking", n)
    assert history.total == 0 and history.take(64) == []
    return taken


def test_take_stays_flat_over_one_large_instance():
    """65 536 keep-all samples of one instance, cached and then drained
    by take(64). The sort-per-take cache spends about 50 ms per take at
    this size and cannot finish inside the budget; the ordered one takes
    about 0.4 s on a 2-core x86-64 host under CPython 3.11."""
    n, budget = 65536, _Budget(5.0)
    history = ReaderHistory(qos.History(qos.HistoryKind.KEEP_ALL), qos.ResourceLimits())
    sample = idl.Sample("Reading", (0,))
    for seq in range(1, n + 1):
        budget.check("caching", seq)
        assert history.insert(SampleInfo(WRITERS[0], seq, 0, 0, 4), sample).accepted
    taken = _drain(history, n, budget)
    assert [info.sequence for info in taken] == list(range(1, n + 1))


def test_take_stays_flat_over_many_instances():
    """65 536 keep-last(1) instances with random 64-bit handles, each
    written twice, then drained by take(64): the newer sample of each, in
    ascending handle order. The sort-per-take cache cannot finish inside
    the budget; the ordered one takes about 1.5 s, most of it shifting
    the sorted handle list for each new instance."""
    n, budget = 65536, _Budget(5.0)
    history = ReaderHistory(qos.History(qos.HistoryKind.KEEP_LAST, 1), qos.ResourceLimits())
    rng = random.Random(5)
    handles = list({rng.getrandbits(64) for _ in range(n)})
    assert len(handles) == n
    sample = idl.Sample("Reading", (0,))
    for i, handle in enumerate(handles + handles):
        budget.check("caching", i)
        history.insert(SampleInfo(WRITERS[0], i + 1, 0, 0, handle), sample)
    taken = _drain(history, n, budget)
    assert [info.instance_handle for info in taken] == sorted(handles)
    assert all(info.sequence > n for info in taken)


def test_read_and_take_stay_flat_between_new_instances():
    """65 536 keep-last(1) instances with random 64-bit handles, then 4096
    rounds of one new instance and read(1), and 1024 rounds of one new
    instance and take(64): each hands out the lowest handles cached. A
    cache that sorts all its handles at every read or take after a new
    instance spends about 1 ms per round at this size and cannot finish
    inside the budget; bisecting the new handle in takes about 0.6 s."""
    n, reads, takes = 65536, 4096, 1024
    budget = _Budget(3.0)
    history = ReaderHistory(qos.History(qos.HistoryKind.KEEP_LAST, 1), qos.ResourceLimits())
    rng = random.Random(11)
    handles = list({rng.getrandbits(64) for _ in range(n + reads + takes)})
    assert len(handles) == n + reads + takes
    sample = idl.Sample("Reading", (0,))
    for i, handle in enumerate(handles[:n]):
        budget.check("caching", i)
        history.insert(SampleInfo(WRITERS[0], i + 1, 0, 0, handle), sample)
    lowest = min(handles[:n])
    for i, handle in enumerate(handles[n:n + reads]):
        budget.check("reading", i)
        history.insert(SampleInfo(WRITERS[0], n + i + 1, 0, 0, handle), sample)
        lowest = min(lowest, handle)
        [(_, info)] = history.read(1)
        assert info.instance_handle == lowest
    budget.check("reading", reads)
    expected = sorted(handles[:n + reads])
    for i, handle in enumerate(handles[n + reads:]):
        budget.check("taking", i * 64)
        history.insert(SampleInfo(WRITERS[0], n + reads + i + 1, 0, 0, handle), sample)
        insort(expected, handle)
        got = history.take(64)
        assert [info.instance_handle for _, info in got] == expected[:64]
        del expected[:64]
    budget.check("taking", takes * 64)
    assert history.total == len(expected) == reads + takes
