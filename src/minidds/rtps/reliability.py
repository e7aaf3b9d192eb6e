"""Reliable and best-effort delivery sessions.

Sessions are transport-free state machines: every input carries ``now``
(nanoseconds) and outputs are ``Directed`` submessages for the caller to
route. A ``dest`` of None means "every matched peer of this writer";
otherwise the datagram goes only to that reader's participant. A write
is the exception: ``on_write``, the one place that assigns a sequence,
returns the write's DATA record alone, which the participant sends to
every matched reader in one pass.

Writer side: ``keeps_history`` says whether a written sample can be sent
again, to a TRANSIENT_LOCAL writer's late joiner or on a RELIABLE
reader's request; it is updated as readers match and unmatch, and while
it is false the writer caches nothing. Per matched reader: acknowledged
floor, heartbeat timer, and per-sequence retransmit stamps. Heartbeats
flow every ``heartbeat_period`` (50 ms) while that reader has unacked
samples and stop once it is caught up. A requested sequence still in
the cache is retransmitted at most once per ``response_delay`` (5 ms);
a requested sequence no longer in the cache is answered with a GAP. An
ACKNACK acknowledges at most what was written: a base above
``last_sequence + 1`` counts as ``last_sequence + 1``. So no floor is
ever above the next write, and a write needs no release.

Reader side: a settled floor plus a sparse set of received sequences
above it. GAPs and a heartbeat ``first_seq`` above the floor both mark
the skipped range as unrecoverable, counted in ``samples_lost``. The
exception is a reader's first heartbeat while nothing has settled or
been given up: it sets the floor one below the lower of its
``first_seq`` and the lowest sequence already received, since a reader
matched mid-stream was never owed what the writer sent before that.
Both reader sessions answer HEARTBEAT and GAP; the best-effort one
ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from minidds.dcps.guid import Guid
from minidds.dcps.history import WriterHistory, WriterSample
from minidds.rtps import wire

HEARTBEAT_PERIOD_NS = 50_000_000
RESPONSE_DELAY_NS = 5_000_000

# Builds a record from a tuple of its fields without the Python-level
# ``__new__`` that NamedTuple generates; once per write.
_tuple_new = tuple.__new__

# A give-up span larger than this collapses the whole range below it
# instead of materializing per-sequence entries (defends against bogus
# GAP/HEARTBEAT input).
_MAX_GIVEUP_SPAN = 65536


class Directed(NamedTuple):
    dest: Optional[Guid]
    submessage: wire.Submessage


@dataclass
class _ReaderProxy:
    guid: Guid
    reliable: bool
    acked_below: int  # every sequence < this is settled for the reader
    last_heartbeat_ns: int
    last_resend_ns: dict[int, int] = field(default_factory=dict)


def _merge_ranges(seqs: list[int]) -> list[tuple[int, int]]:
    ranges: list[tuple[int, int]] = []
    for seq in sorted(seqs):
        if ranges and seq == ranges[-1][1] + 1:
            ranges[-1] = (ranges[-1][0], seq)
        else:
            ranges.append((seq, seq))
    return ranges


class WriterSession:
    """Delivery bookkeeping for one writer over its matched readers."""

    def __init__(self, history: WriterHistory, *, writer_entity_id: int,
                 transient_local: bool,
                 heartbeat_period_ns: int = HEARTBEAT_PERIOD_NS):
        self.history = history
        self.writer_entity_id = writer_entity_id
        self.transient_local = transient_local
        self.heartbeat_period_ns = heartbeat_period_ns
        self.last_sequence = 0
        self._heartbeat_count = 0
        self._proxies: dict[Guid, _ReaderProxy] = {}
        self.keeps_history = transient_local

    # -- membership ---------------------------------------------------

    def add_reader(self, guid: Guid, *, reliable: bool, wants_history: bool,
                   now_ns: int) -> list[Directed]:
        """Register a newly matched reader (not one already matched);
        returns any late-joiner replay."""
        cached = self.history.by_seq  # in sequence order
        replay = reliable and wants_history and bool(cached)
        floor = next(iter(cached)) if replay else self.last_sequence + 1
        self._proxies[guid] = _ReaderProxy(
            guid, reliable, acked_below=floor,
            last_heartbeat_ns=now_ns - self.heartbeat_period_ns)
        self._note_membership()
        if not replay:
            return []
        return [Directed(guid, self._data_for(sample, guid.entity_id))
                for sample in cached.values()]

    def remove_reader(self, guid: Guid) -> None:
        self._proxies.pop(guid, None)
        self._note_membership()
        self._maybe_release()

    def _note_membership(self) -> None:
        self.keeps_history = self.transient_local or any(
            p.reliable for p in self._proxies.values())

    def matched_readers(self) -> list[Guid]:
        return list(self._proxies)

    # -- write path ---------------------------------------------------

    def _data_for(self, sample: WriterSample, reader_entity_id: int) -> wire.Data:
        return wire.Data(self.writer_entity_id, reader_entity_id, sample.sequence,
                         sample.source_timestamp_ns, sample.instance_handle,
                         sample.payload)

    def on_write(self, instance_handle: int, payload: bytes,
                 source_timestamp_ns: int) -> wire.Data:
        """Assign the next sequence; returns the DATA for every matched
        reader. Caching the sample is the writer's part: it inserts it as
        ``last_sequence + 1`` first, while ``keeps_history`` holds, and
        calls this only once the cache took it. Nothing is released here:
        no floor is above ``last_sequence + 1``, so the cache already
        holds nothing acknowledged by every reader."""
        self.last_sequence = sequence = self.last_sequence + 1
        return _tuple_new(wire.Data, (self.writer_entity_id, 0, sequence,
                                      source_timestamp_ns, instance_handle, payload))

    def note_evicted(self, evicted: list[WriterSample]) -> list[Directed]:
        """Advertise history-evicted sequences so readers stop asking."""
        if not evicted:
            return []
        unsettled = [s.sequence for s in evicted if any(
            p.reliable and s.sequence >= p.acked_below for p in self._proxies.values())]
        return [Directed(None, wire.Gap(self.writer_entity_id, lo, hi))
                for lo, hi in _merge_ranges(unsettled)]

    # -- acknowledgements ---------------------------------------------

    def on_acknack(self, reader_guid: Guid, ack: wire.AckNack,
                   now_ns: int) -> list[Directed]:
        proxy = self._proxies.get(reader_guid)
        if proxy is None or not proxy.reliable:
            return []
        # An acknowledgement of sequences not yet written acknowledges only
        # what was written: those later writes are still owed to the reader.
        base = min(ack.base_seq, self.last_sequence + 1)
        if base > proxy.acked_below:
            proxy.acked_below = base
            for seq in [s for s in proxy.last_resend_ns if s < base]:
                del proxy.last_resend_ns[seq]
            self._maybe_release()
        out: list[Directed] = []
        gone: list[int] = []
        for seq in ack.missing:
            sample = self.history.by_seq.get(seq)
            if sample is not None:
                last = proxy.last_resend_ns.get(seq)
                if last is None or now_ns - last >= RESPONSE_DELAY_NS:
                    proxy.last_resend_ns[seq] = now_ns
                    out.append(Directed(reader_guid,
                                        self._data_for(sample, reader_guid.entity_id)))
            elif seq <= self.last_sequence:
                gone.append(seq)
        for lo, hi in _merge_ranges(gone):
            out.append(Directed(reader_guid, wire.Gap(self.writer_entity_id, lo, hi)))
        return out

    def _maybe_release(self) -> None:
        if self.transient_local:
            return  # the cache outlives acks for late joiners
        floors = [p.acked_below for p in self._proxies.values() if p.reliable]
        settled_below = min(floors) if floors else self.last_sequence + 1
        self.history.release(settled_below - 1)

    # -- timers -------------------------------------------------------

    def _unacked(self, proxy: _ReaderProxy) -> bool:
        return proxy.reliable and proxy.acked_below <= self.last_sequence

    def all_acked(self) -> bool:
        return not any(self._unacked(p) for p in self._proxies.values())

    def step(self, now_ns: int) -> list[Directed]:
        out: list[Directed] = []
        for proxy in self._proxies.values():
            if not self._unacked(proxy):
                continue
            if now_ns - proxy.last_heartbeat_ns < self.heartbeat_period_ns:
                continue
            proxy.last_heartbeat_ns = now_ns
            first = self.history.next_cached(proxy.acked_below)
            if first is None:
                first = self.last_sequence + 1
            self._heartbeat_count += 1
            out.append(Directed(proxy.guid, wire.Heartbeat(
                self.writer_entity_id, first, self.last_sequence,
                self._heartbeat_count)))
        return out


class ReliableReaderSession:
    """Reader-side tracking for one matched reliable writer."""

    def __init__(self, writer_guid: Guid, reader_entity_id: int):
        self.writer_guid = writer_guid
        self.reader_entity_id = reader_entity_id
        self.floor = 0  # every sequence <= floor is settled
        self.received: set[int] = set()
        self.samples_lost = 0
        self.unique_received = 0
        self._last_heartbeat_count = 0

    def _compact(self) -> None:
        while self.floor + 1 in self.received:
            self.floor += 1
            self.received.remove(self.floor)

    def _give_up(self, start: int, end: int) -> None:
        start = max(start, self.floor + 1)
        if start > end:
            return
        if start == self.floor + 1 or end - start + 1 > _MAX_GIVEUP_SPAN:
            got = sum(1 for s in self.received if s <= end)
            self.samples_lost += (end - self.floor) - got
            self.received = {s for s in self.received if s > end}
            self.floor = end
            self._compact()  # what arrived just above the range settles too
        else:
            for seq in range(start, end + 1):
                if seq not in self.received:
                    self.samples_lost += 1
                    self.received.add(seq)
            self._compact()

    def on_data(self, sequence: int) -> bool:
        """True when this sequence is new (deliver it); False = duplicate."""
        if sequence <= self.floor or sequence in self.received:
            return False
        self.unique_received += 1
        self.received.add(sequence)
        self._compact()
        return True

    def on_gap(self, gap: wire.Gap) -> None:
        self._give_up(gap.gap_start, gap.gap_end)

    def on_heartbeat(self, hb: wire.Heartbeat) -> Optional[wire.AckNack]:
        if hb.count <= self._last_heartbeat_count:
            return None  # stale or duplicated heartbeat
        if not (self._last_heartbeat_count or self.floor or self.samples_lost):
            # The first heartbeat: below it and every arrival, nothing was sent here.
            self.floor = max(0, min((hb.first_seq, *self.received)) - 1)
            self._compact()
        self._last_heartbeat_count = hb.count
        if hb.first_seq > self.floor + 1:
            # The writer no longer offers anything below first_seq.
            self._give_up(self.floor + 1, hb.first_seq - 1)
        base = self.floor + 1
        window_end = min(hb.last_seq, base + wire.ACKNACK_MAX_BITS - 1)
        missing = tuple(s for s in range(base, window_end + 1)
                        if s not in self.received)
        return wire.AckNack(self.reader_entity_id, self.writer_guid, base, missing)


class BestEffortReaderSession:
    """Stale-drop and loss counting for one best-effort writer.

    Samples older than the newest delivered one are never delivered, but
    a bounded window remembers recent sequences so an out-of-order
    straggler still counts as received (not lost) exactly once.

    The window is a ring of ``WINDOW`` seen flags: for every sequence s
    in ``(last_sequence - WINDOW, last_sequence]``, ``_seen[s % WINDOW]``
    is 1 exactly when s has arrived. Anything at or below the window is
    too old to tell and counts as a duplicate. An in-order sample clears
    the slots of the sequences it skips (all of them once it jumps a
    whole window) with one bounded slice assignment, so each call costs
    O(1) whatever the stream's length: nothing is rebuilt per sample.
    """

    WINDOW = 1024

    def __init__(self, writer_guid: Guid):
        self.writer_guid = writer_guid
        self.last_sequence = 0
        self.samples_lost = 0
        self.unique_received = 0
        self._seen = bytearray(self.WINDOW)

    def on_data(self, sequence: int) -> bool:
        window = self.WINDOW
        last = self.last_sequence
        if sequence > last:
            skipped = sequence - last - 1
            if skipped >= window - 1:
                self._seen = bytearray(window)
            elif skipped:
                start = (last + 1) % window
                stop = start + skipped
                if stop <= window:
                    self._seen[start:stop] = bytes(skipped)
                else:
                    self._seen[start:] = bytes(window - start)
                    self._seen[:stop - window] = bytes(stop - window)
            self._seen[sequence % window] = 1
            self.samples_lost += skipped
            self.unique_received += 1
            self.last_sequence = sequence
            return True
        slot = sequence % window
        if sequence <= last - window or self._seen[slot]:
            return False  # duplicate (or too old to tell)
        # A straggler that lost a race with newer samples: arrived, but
        # stays undelivered to preserve ordering.
        self.unique_received += 1
        self.samples_lost -= 1
        self._seen[slot] = 1
        return False

    def on_heartbeat(self, hb: wire.Heartbeat) -> None:
        return None  # a best-effort reader never acknowledges

    def on_gap(self, gap: wire.Gap) -> None:
        pass
