"""Per-instance sample caches for writers and readers.

Both sides key their cache by instance handle and bound it with the history
policy (keep-last depth or keep-all) and resource limits. The writer cache
additionally serves retransmission lookups by sequence number and tracks
expiry. The reader cache backs read/take; it only appends, so each
instance keeps its samples in arrival order and keep-last keeps the
newest arrivals, whichever writer sent them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import NamedTuple, Optional

from minidds import qos
from minidds.idl import Sample
from minidds.dcps.guid import Guid


class ResourceLimitsError(Exception):
    pass


class SampleInfo(NamedTuple):
    writer_guid: Guid
    sequence: int
    source_timestamp_ns: int
    arrival_timestamp_ns: int
    instance_handle: int


def _per_instance_cap(history: qos.History, limits: qos.ResourceLimits) -> Optional[int]:
    if history.kind == qos.HistoryKind.KEEP_LAST:
        cap = history.depth
        if limits.max_samples_per_instance is not None:
            cap = min(cap, limits.max_samples_per_instance)
        return cap
    return limits.max_samples_per_instance


# ---------------------------------------------------------------------------
# Writer side

# (sequence, instance_handle, message, source_timestamp_ns, expiry_wall_ns)
CachedSample = tuple[int, int, bytes, int, int]


class WriterHistory:
    """Outgoing sample store; samples leave on ack release, keep-last
    eviction, expiry, or (keep-all) not at all until limits push back.

    Each sample is cached as a ``CachedSample``, a plain tuple
    ``(sequence, instance_handle, message, source_timestamp_ns,
    expiry_wall_ns)``: ``message`` is the datagram the write sent, a
    message of this one DATA (the bytes ``wire.pack_data_message``
    packs, mostly packed by the type's codec, ``idl._Codec.message``),
    whose payload starts at ``wire.DATA_PAYLOAD_START``, and
    ``expiry_wall_ns`` is ``qos.INFINITE_NS`` for a sample that never
    expires. An exact tuple of ints and bytes costs one allocation, and
    the collector untracks it at its first pass, so a full cache adds
    nothing to later passes.

    Sequences must be inserted in increasing order, as the writer assigns
    them (``last_sequence + 1``). Every index keeps that order:

    - ``by_seq`` maps sequence to sample and, being a dict, iterates in
      sequence order;
    - ``per_instance`` holds each instance's cached sequences in an
      ascending deque, so keep-last eviction and release, which only
      ever drop an instance's oldest samples, pop from its left end;
    - ``_order[_head:]`` lists every cached sequence in ascending order,
      plus sequences already evicted or expired, which are skipped when
      met and dropped when they outnumber the cached ones.

    Costs, for n cached samples: ``has_room`` O(1); ``insert`` O(1)
    amortized: one ``has_room``, one lookup of the instance's bucket, and
    in a full keep-last instance one eviction from its front;
    ``release`` O(log n + released + skipped): one bisection of
    ``_order``, then two pops per released sample; ``expire`` O(1) while
    every sample inserted so far had an infinite lifespan, an O(n) scan
    once one had a finite one; ``next_cached`` O(1) when the asked
    sequence is cached, O(log n + skipped) otherwise.
    """

    def __init__(self, history: qos.History, limits: qos.ResourceLimits):
        self.history = history
        self.limits = limits
        self._cap = _per_instance_cap(history, limits)
        self._keep_last = history.kind == qos.HistoryKind.KEEP_LAST
        self._max_samples = limits.max_samples
        self._max_instances = limits.max_instances
        self.by_seq: dict[int, CachedSample] = {}
        self.per_instance: dict[int, deque[int]] = {}
        self._order: list[int] = []
        self._head = 0
        self._finite_lifespan = False

    def __len__(self) -> int:
        return len(self.by_seq)

    def has_room(self, handle: int) -> bool:
        """Whether an insert for this instance would be accepted without
        keep-all rejection (keep-last always makes room by evicting)."""
        per_instance = self.per_instance
        if (self._max_instances is not None and handle not in per_instance
                and len(per_instance) >= self._max_instances):
            return False
        if self._keep_last:
            return True
        if self._cap is not None and len(per_instance.get(handle, ())) >= self._cap:
            return False
        return self._max_samples is None or len(self.by_seq) < self._max_samples

    def insert(self, sample: CachedSample) -> None:
        """Store a sample, evicting as keep-last asks. Raises
        ``ResourceLimitsError`` when there is no room (callers decide whether
        that blocks or errors)."""
        sequence, handle, _, _, expiry = sample
        if not self.has_room(handle):
            raise ResourceLimitsError("writer history full")
        by_seq = self.by_seq
        bucket = self.per_instance.get(handle)
        if self._keep_last:
            full = self._max_samples is not None and len(by_seq) >= self._max_samples
            if bucket is None:
                if full:
                    raise ResourceLimitsError("writer history full (max_samples)")
            elif full or len(bucket) >= self._cap:
                # An instance never holds more than its cap, and one
                # eviction leaves the cache below max_samples: one is
                # enough for both. The bucket is refilled below.
                del by_seq[bucket.popleft()]
                self._compact()
        by_seq[sequence] = sample
        self._order.append(sequence)
        if bucket is None:
            self.per_instance[handle] = deque((sequence,))
        else:
            bucket.append(sequence)
        if expiry != qos.INFINITE_NS:
            self._finite_lifespan = True

    def _compact(self) -> None:
        """Drop passed and removed entries from ``_order`` once they
        outnumber the cached samples, so each removal costs O(1) amortized."""
        if len(self._order) > 2 * len(self.by_seq) + 64:
            self._order = [s for s in self._order[self._head:] if s in self.by_seq]
            self._head = 0

    def release(self, up_to_sequence: int) -> list[int]:
        """Drop fully acknowledged samples (volatile writers only); returns
        their sequences in ascending order."""
        order = self._order
        head = self._head
        end = bisect_right(order, up_to_sequence, head)
        pop = self.by_seq.pop
        per_instance = self.per_instance
        released: list[int] = []
        for sequence in order[head:end]:
            sample = pop(sequence, None)
            if sample is not None:
                # Every cached sequence below this one is gone, so it is
                # the oldest of its instance.
                handle = sample[1]  # instance_handle
                bucket = per_instance[handle]
                bucket.popleft()
                if not bucket:
                    del per_instance[handle]
                released.append(sequence)
        self._head = end
        if released:
            self._compact()
        return released

    def expire(self, now_wall_ns: int) -> None:
        """Drop samples whose expiry is before ``now_wall_ns``."""
        if not self._finite_lifespan:
            return
        expired = [(sequence, handle)
                   for sequence, handle, _, _, expiry in self.by_seq.values()
                   if expiry < now_wall_ns]
        for sequence, handle in expired:
            del self.by_seq[sequence]
            bucket = self.per_instance[handle]
            bucket.remove(sequence)
            if not bucket:
                del self.per_instance[handle]
        if expired:
            self._compact()

    def next_cached(self, sequence: int) -> Optional[int]:
        """The lowest cached sequence at or above ``sequence``, if any."""
        if sequence in self.by_seq:
            return sequence
        order = self._order
        for i in range(bisect_left(order, sequence, self._head), len(order)):
            if order[i] in self.by_seq:
                return order[i]
        return None


# ---------------------------------------------------------------------------
# Reader side

class InsertOutcome(NamedTuple):
    accepted: bool
    reason: Optional[str] = None  # set when rejected
    # Only a keep-last arrival of a new instance that max_samples turns
    # away evicts itself; every other eviction is of an older entry.
    evicted_arriving: bool = False
    evicted_count: int = 0


# Values, so every plain insert, and every keep-last insert that evicts
# one older entry, can share one.
_ACCEPTED = InsertOutcome(True)
_REPLACED = InsertOutcome(True, None, False, 1)


class ReaderHistory:
    """Received sample store backing read/take.

    ``read`` and ``take`` hand out ``(sample, info)`` pairs instance by
    instance, in the order the instances entered the cache, and, within
    an instance, in arrival order, as DESTINATION_ORDER
    BY_RECEPTION_TIMESTAMP asks. An instance enters with its first
    accepted sample, and again with the first after a take emptied it;
    a keep-last replacement keeps its place. OMG DDS 1.4 §2.2.3.6
    (PRESENTATION, access scope INSTANCE) orders samples only within an
    instance, so the order across instances is this cache's own. ``instances[h]``
    keeps instance ``h``'s pairs in arrival order: an insert appends,
    and keep-last eviction removes from the front, so the newest samples
    stay whichever writer sent them. Each writer's samples arrive in
    sequence order, as its session hands them on, except after the
    writer matches again, when its replay starts over. A reader ordered
    BY_SOURCE_TIMESTAMP admits only samples newer at the source, so for
    it arrival order is source order. The pairs are stored as they are
    handed out, so ``take`` returns slices of the cache. ``_order``
    lists the cached handles in entry order: an insert that makes an
    instance appends its handle, and a take, which hands out from the
    front and is the only way an instance empties, pops the handles it
    emptied from the left. ``instances`` is not walked in its own order:
    CPython walks a dict from its first slot, past those its deleted
    entries left, so each take would pass every instance taken before it.

    Costs, for n cached samples: ``insert`` O(1), and in a keep-last
    instance that must evict, one shift of the instance's entries;
    ``read`` and ``take`` O(returned + instances visited), plus, for a
    take that stops inside an instance, one shift of that instance's
    entries. A take that drains the cache hands it all out in one pass
    and resets it.
    """

    def __init__(self, history: qos.History, limits: qos.ResourceLimits):
        self.history = history
        self.limits = limits
        self._cap = _per_instance_cap(history, limits)
        self._max_samples = limits.max_samples
        self._max_instances = limits.max_instances
        self._keep_last = history.kind == qos.HistoryKind.KEEP_LAST
        self.instances: dict[int, list[tuple[Sample, SampleInfo]]] = {}
        self._order: deque[int] = deque()
        self.total = 0

    def insert(self, pair: tuple[Sample, SampleInfo]) -> InsertOutcome:
        """Cache a ``(sample, info)`` pair, the very object given, which
        ``read`` and ``take`` hand out: the readers of one participant
        pass the one pair they share per DATA."""
        handle = pair[1].instance_handle
        entries = self.instances.get(handle)
        max_samples = self._max_samples
        if entries is None:
            # A new instance: only the cache-wide limits can turn it away,
            # as every per-instance cap is at least 1.
            if (self._max_instances is not None
                    and len(self.instances) >= self._max_instances):
                return InsertOutcome(False, "max_instances")
            if max_samples is not None and self.total >= max_samples:
                if not self._keep_last:
                    return InsertOutcome(False, "max_samples")
                # Keep-last evicts the arriving instance's oldest entry:
                # the arrival itself.
                return InsertOutcome(True, None, True, 1)
            self.instances[handle] = [pair]
            self._order.append(handle)
            self.total += 1
            return _ACCEPTED
        if self._keep_last:
            if len(entries) == self._cap or (
                    max_samples is not None and self.total >= max_samples):
                # A full instance, or a full cache: the arrival replaces
                # the instance's oldest entry, and the total is unchanged.
                del entries[0]
                entries.append(pair)
                return _REPLACED
        else:
            cap = self._cap
            if cap is not None and len(entries) >= cap:
                return InsertOutcome(False, "max_samples_per_instance")
            if max_samples is not None and self.total >= max_samples:
                return InsertOutcome(False, "max_samples")
        entries.append(pair)
        self.total += 1
        return _ACCEPTED

    def read(self, max_samples: int) -> list[tuple[Sample, SampleInfo]]:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        out: list[tuple[Sample, SampleInfo]] = []
        for handle in self._order:
            out += self.instances[handle][:max_samples - len(out)]
            if len(out) == max_samples:
                break
        return out

    def take(self, max_samples: int) -> list[tuple[Sample, SampleInfo]]:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        instances = self.instances
        order = self._order
        out: list[tuple[Sample, SampleInfo]] = []
        if max_samples >= self.total:
            # One pass over the whole cache; the loop below would delete
            # a dict entry per instance.
            for handle in order:
                out += instances[handle]
            instances.clear()
            order.clear()
            self.total = 0
            return out
        # Fewer than are cached, so the loop stops before the handles run out.
        while len(out) < max_samples:
            entries = instances[order[0]]
            room = max_samples - len(out)
            if len(entries) > room:
                out += entries[:room]
                del entries[:room]
                break
            out += entries
            del instances[order.popleft()]
        self.total -= len(out)
        return out
