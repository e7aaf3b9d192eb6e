"""Per-instance sample caches for writers and readers.

Both sides key their cache by instance handle and bound it with the history
policy (keep-last depth or keep-all) and resource limits. The writer cache
additionally serves retransmission lookups by sequence number and tracks
expiry; the reader cache backs read/take ordering.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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

class WriterSample(NamedTuple):
    """One cached outgoing sample: one object, with no ``__dict__``.
    ``message`` is the datagram the write sent, a message of this one
    DATA (``wire.pack_data_message``); its payload starts at
    ``wire.DATA_PAYLOAD_START``."""

    sequence: int
    instance_handle: int
    message: bytes
    source_timestamp_ns: int
    expiry_wall_ns: int = qos.INFINITE_NS


class WriterHistory:
    """Outgoing sample store; samples leave on ack release, keep-last
    eviction, expiry, or (keep-all) not at all until limits push back.

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
        self.by_seq: dict[int, WriterSample] = {}
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

    def insert(self, sample: WriterSample) -> list[WriterSample]:
        """Store a sample, returning any keep-last evictions. Raises
        ``ResourceLimitsError`` when there is no room (callers decide whether
        that blocks or errors)."""
        sequence, handle, _, _, expiry = sample
        if not self.has_room(handle):
            raise ResourceLimitsError("writer history full")
        by_seq = self.by_seq
        bucket = self.per_instance.get(handle)
        evicted: list[WriterSample] = []
        if self._keep_last:
            full = self._max_samples is not None and len(by_seq) >= self._max_samples
            if bucket is None:
                if full:
                    raise ResourceLimitsError("writer history full (max_samples)")
            elif full or len(bucket) >= self._cap:
                # An instance never holds more than its cap, and one
                # eviction leaves the cache below max_samples: one is
                # enough for both. The bucket is refilled below.
                evicted.append(by_seq.pop(bucket.popleft()))
        by_seq[sequence] = sample
        self._order.append(sequence)
        if bucket is None:
            self.per_instance[handle] = deque((sequence,))
        else:
            bucket.append(sequence)
        if expiry != qos.INFINITE_NS:
            self._finite_lifespan = True
        if evicted:
            self._compact()
        return evicted

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
                handle = sample.instance_handle
                bucket = per_instance[handle]
                bucket.popleft()
                if not bucket:
                    del per_instance[handle]
                released.append(sequence)
        self._head = end
        if released:
            self._compact()
        return released

    def expire(self, now_wall_ns: int) -> list[WriterSample]:
        """Drop samples whose expiry is before ``now_wall_ns``; returns them
        in ascending sequence order."""
        if not self._finite_lifespan:
            return []
        expired = [s for s in self.by_seq.values() if s.expiry_wall_ns < now_wall_ns]
        for sample in expired:
            del self.by_seq[sample.sequence]
            bucket = self.per_instance[sample.instance_handle]
            bucket.remove(sample.sequence)
            if not bucket:
                del self.per_instance[sample.instance_handle]
        if expired:
            self._compact()
        return expired

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

def _order_key(entry: tuple[Sample, SampleInfo]) -> tuple[int, Guid]:
    info = entry[1]
    return info.sequence, info.writer_guid


class InsertOutcome(NamedTuple):
    accepted: bool
    reason: Optional[str] = None  # set when rejected
    evicted_arriving: bool = False
    evicted_count: int = 0


# Values, so every plain insert, and every in-place keep-last
# replacement, can share one.
_ACCEPTED = InsertOutcome(True)
_REPLACED = InsertOutcome(True, None, False, 1)

# How many entries back from the end of an instance ``ReaderHistory``
# scans, comparing sequences, for an arrival that does not sort last;
# one sorting further back falls back to a galloping search. With
# InProcNetwork reordering up to 8 places, about 9 in 10 such arrivals
# of the reliable-stream benchmark sort within 16 of the end.
_SCAN = 16

# New handles that ``ReaderHistory`` bisects into its sorted handle list
# one by one; more are merged by one sort, which costs about as much as
# 64 list shifts (measured on CPython 3.11 with 1 k to 64 k handles).
_INSORT_MAX = 64


class ReaderHistory:
    """Received sample store backing read/take.

    ``read`` and ``take`` hand out ``(sample, info)`` pairs in ascending
    instance handle order and, within an instance, in (sequence, writer
    guid) order, equal keys in arrival order. ``instances[h]`` keeps
    instance ``h``'s pairs in that order: an arrival that sorts last, the
    common case as each writer's sequences rise, is appended; any other is
    placed after every equal key, by a scan back over the last ``_SCAN``
    entries that compares sequence numbers, and the writer guid only on
    an equal sequence, or, past those, by a galloping search back from
    the scan's end and a bisection inside the bracket it finds. The pairs
    are stored as they are handed out, so ``take`` returns slices of the
    cache. ``_handles`` lists the cached handles in ascending order,
    except those of instances new since the last ``read`` or ``take``,
    which wait in ``_new_handles`` until the next one merges them in:
    bisected in one by one while there are at most ``_INSORT_MAX``, else
    by one sort. Keep-last eviction removes an instance's lowest entries,
    from the front, so a late retransmission older than the cached depth
    falls out again at once and the cache converges to the newest
    samples.

    Costs, for n cached samples: ``insert`` O(1) for a new instance or
    an arrival that sorts last in a cached instance (in a full keep-last
    instance it replaces the front entry in place, plus a shift of the
    instance's depth), and for an arrival that sorts d entries before
    the end a list shift plus O(d) sequence comparisons while d <=
    ``_SCAN``, else ``_SCAN`` of them and O(log d) key comparisons;
    ``read`` and ``take`` O(returned + instances visited) plus one list
    shift per take, plus, for k new instances, k shifts of the handle
    list or, past ``_INSORT_MAX``, one sort of it. A take that drains
    the cache hands it all out in one pass and resets it.
    """

    def __init__(self, history: qos.History, limits: qos.ResourceLimits):
        self.history = history
        self.limits = limits
        self._cap = _per_instance_cap(history, limits)
        self._keep_last = history.kind == qos.HistoryKind.KEEP_LAST
        # The length at which a keep-last instance is full; None for keep-all.
        self._full = self._cap if self._keep_last else None
        self.instances: dict[int, list[tuple[Sample, SampleInfo]]] = {}
        self._handles: list[int] = []
        self._new_handles: list[int] = []
        self.total = 0

    def insert(self, info: SampleInfo, sample: Sample) -> InsertOutcome:
        handle = info.instance_handle
        entries = self.instances.get(handle)
        limits = self.limits
        if entries is None:
            # A new instance: only the cache-wide limits can turn it away,
            # as every per-instance cap is at least 1.
            if (limits.max_instances is not None
                    and len(self.instances) >= limits.max_instances):
                return InsertOutcome(False, "max_instances")
            if limits.max_samples is not None and self.total >= limits.max_samples:
                if not self._keep_last:
                    return InsertOutcome(False, "max_samples")
                # Keep-last evicts the arriving instance's lowest entry:
                # the arrival itself.
                return InsertOutcome(True, None, True, 1)
            self.instances[handle] = [(sample, info)]
            self._new_handles.append(handle)
            self.total += 1
            return _ACCEPTED
        if len(entries) == self._full and info.sequence > entries[-1][1].sequence:
            # Sorts last in a full keep-last instance: it replaces the
            # front entry, and the total, hence max_samples, is unchanged.
            del entries[0]
            entries.append((sample, info))
            return _REPLACED
        cap = self._cap
        if not self._keep_last:
            if cap is not None and len(entries) >= cap:
                return InsertOutcome(False, "max_samples_per_instance")
            if limits.max_samples is not None and self.total >= limits.max_samples:
                return InsertOutcome(False, "max_samples")
        sequence = info.sequence
        if sequence > entries[-1][1].sequence:
            position = len(entries)
            entries.append((sample, info))
        else:
            # Scan back over the last _SCAN entries for the first that
            # sorts at or before the arrival, by sequence alone unless
            # equal: an equal key stays before it.
            position = len(entries)
            bound = max(position - _SCAN, 0)
            while position > bound:
                before = entries[position - 1][1]
                if before.sequence <= sequence and (
                        before.sequence < sequence
                        or before.writer_guid <= info.writer_guid):
                    break
                position -= 1
            else:
                if position:
                    # Further back: gallop back from the scan's end, then
                    # bisect inside the bracket found.
                    order = (sequence, info.writer_guid)
                    lo, hi, step = position - 1, position, 1
                    while lo > 0 and order < _order_key(entries[lo]):
                        hi = lo
                        lo = max(lo - step, 0)
                        step += step
                    position = bisect_right(entries, order, lo, hi, key=_order_key)
            entries.insert(position, (sample, info))
        self.total += 1
        evicted = 0
        if self._keep_last:
            # A cached instance never empties here: inserts keep
            # total <= max_samples, so at most one more victim.
            evicted = max(0, len(entries) - cap)
            if limits.max_samples is not None:
                evicted = max(evicted, self.total - limits.max_samples)
            if evicted:
                del entries[:evicted]
                self.total -= evicted
        if not evicted:
            return _ACCEPTED
        return InsertOutcome(True, None, position < evicted, evicted)

    def read(self, max_samples: int) -> list[tuple[Sample, SampleInfo]]:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        out: list[tuple[Sample, SampleInfo]] = []
        for handle in self._sorted_handles():
            out += self.instances[handle][:max_samples - len(out)]
            if len(out) == max_samples:
                break
        return out

    def take(self, max_samples: int) -> list[tuple[Sample, SampleInfo]]:
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        instances = self.instances
        handles = self._sorted_handles()
        if max_samples >= self.total:
            # One pass over the whole cache; the loop below would delete
            # a dict entry per instance.
            out = []
            for handle in handles:
                out += instances[handle]
            instances.clear()
            handles.clear()
            self.total = 0
            return out
        out = []
        emptied = 0
        for handle in handles:
            entries = instances[handle]
            room = max_samples - len(out)
            if len(entries) > room:
                out += entries[:room]
                del entries[:room]
                break
            out += entries
            del instances[handle]
            emptied += 1
            if len(out) == max_samples:
                break
        del handles[:emptied]
        self.total -= len(out)
        return out

    def _sorted_handles(self) -> list[int]:
        """``_handles`` with the new instances' handles merged in."""
        handles, new = self._handles, self._new_handles
        if new:
            if len(new) <= _INSORT_MAX:
                for handle in new:
                    insort(handles, handle)
            else:
                handles += new
                handles.sort()
            new.clear()
        return handles
