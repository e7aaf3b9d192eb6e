"""Reliable and best-effort delivery sessions.

Sessions are transport-free state machines: every input carries ``now``
(nanoseconds) and outputs are ``Directed`` submessages for the caller to
route, each to the one reader named by its ``dest``. A write is the
exception: ``on_write``, the one place that assigns a sequence, returns
that sequence alone; the writer frames the write's DATA, and the
participant sends it to every matched reader in one pass.

Writer side: ``keeps_history`` says whether a written sample can be sent
again, to a TRANSIENT_LOCAL writer's late joiner or on a RELIABLE
reader's request; it is updated as readers match and unmatch, and while
it is false the writer caches nothing. Per matched RELIABLE reader, the
only kind the session tracks: acknowledged floor, heartbeat timer, and
per-sequence retransmit stamps. Heartbeats flow every
``heartbeat_period`` (50 ms) while that reader has unacked samples and
stop once it is caught up. A requested sequence still in
the cache is retransmitted at most once per ``response_delay`` (5 ms);
a requested sequence no longer in the cache is answered with a GAP. A
sample that leaves the cache unacknowledged, by keep-last eviction or
by expiry, is not announced: a reader learns it is gone from the next
HEARTBEAT's ``first_seq``, or from the GAP that answers its ACKNACK. An
ACKNACK acknowledges at most what was written: a base above
``last_sequence + 1`` counts as ``last_sequence + 1``. So no floor is
ever above the next write, and a write needs no release.

Reader side: each reader session takes the DATA of a run from its
writer in one call (``on_run``), the one place that decides which are
new, and both answer alike: None when the whole run is handed on as it
is, else the entries to hand on, ``NOT_NEW`` in the place of a DATA
that is not. ``on_data`` is a run of one. The reliable session hands each
writer's DATA on in sequence order, as a RELIABLE reader must: it keeps
a settled floor, and holds each DATA above a hole until the hole fills
or is given up, then releases the whole in-order run above it. GAPs and
a heartbeat ``first_seq`` above the floor give the skipped range up:
the sequences in it that never arrived count in ``samples_lost``, and
the DATA held in it are released. The exception is a reader's first
heartbeat while nothing has settled or been given up: it sets the floor
one below the lower of its ``first_seq`` and the lowest sequence already
held, since a reader matched mid-stream was never owed what the writer
sent before that. So such a reader holds its first DATA until that
heartbeat. A DATA more than ``_MAX_GIVEUP_SPAN`` above the floor is
refused, counted, and asked for again later; until that first
heartbeat, the bound counts from one below the lowest sequence held
instead, so a reader matched with a writer already far past the bound
holds what it is sent. Both reader sessions answer HEARTBEAT and GAP;
the best-effort one ignores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from minidds.dcps.guid import Guid
from minidds.dcps.history import CachedSample, SampleInfo, WriterHistory
from minidds.rtps import wire

HEARTBEAT_PERIOD_NS = 50_000_000
RESPONSE_DELAY_NS = 5_000_000

# Builds a record from a tuple of its fields without the Python-level
# ``__new__`` that NamedTuple generates; once per ``on_data``.
_tuple_new = tuple.__new__

# How far above its floor a reliable reader session holds anything: a
# DATA further ahead is refused, to be sent again, and a GAP is recorded
# only up to here. Bounds ``held`` (defends against bogus sequences).
_MAX_GIVEUP_SPAN = 65536

# The entry a reader session hands on, or a reliable one holds behind a
# hole, for a DATA: its SampleInfo, and the run's slots with its index there.
Held = tuple[SampleInfo, list, int]

# A reliable reader session's lowest held sequence while it holds nothing:
# above every sequence the wire can carry.
_NOTHING_HELD = 2**64

# The entry a session hands on in the place of a DATA that is not new,
# shaped like a held one so the pipeline can unpack every entry alike.
NOT_NEW = (None, None, 0)


def _entries(infos: Sequence[SampleInfo], slots: list, n: int) -> list[Held]:
    """The entries of the first ``n`` DATA of a run."""
    return [(infos[i], slots, i) for i in range(n)]


def _on_data(session, sequence: int) -> bool:
    """The best-effort session's ``on_data``: True when this sequence is
    new (deliver it), False when it is not (a duplicate, or a straggler).
    A run of one."""
    return session.on_run((_tuple_new(SampleInfo, (session.writer_guid, sequence,
                                                   0, 0, 0)),), [None]) is None


class Directed(NamedTuple):
    dest: Guid
    submessage: wire.Submessage


@dataclass
class _ReaderProxy:
    guid: Guid
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

    def add_reader(self, guid: Guid, *, wants_history: bool,
                   now_ns: int) -> list[Directed]:
        """Register a newly matched RELIABLE reader (not one already
        matched); returns its late-joiner replay when it ``wants_history``
        (is TRANSIENT_LOCAL). A best-effort reader has no proxy here: it
        is never heartbeated, acknowledged, replayed or released against,
        so the writer sends it each write and nothing else."""
        cached = self.history.by_seq  # in sequence order
        replay = wants_history and bool(cached)
        floor = next(iter(cached)) if replay else self.last_sequence + 1
        self._proxies[guid] = _ReaderProxy(
            guid, acked_below=floor,
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
        self.keeps_history = self.transient_local or bool(self._proxies)

    # -- write path ---------------------------------------------------

    def _data_for(self, sample: CachedSample, reader_entity_id: int) -> wire.Data:
        """A cached sample, the cache's tuple ``(sequence, instance_handle,
        message, source_timestamp_ns, expiry_wall_ns)``, as a DATA for one
        reader: a retransmission or a late-joiner replay. Its payload is a
        view of the cached message, so packing the DATA copies the payload
        bytes once."""
        sequence, handle, message, source_ts, _ = sample
        return wire.Data(self.writer_entity_id, reader_entity_id, sequence,
                         source_ts, handle,
                         memoryview(message)[wire.DATA_PAYLOAD_START:])

    def on_write(self) -> int:
        """Assign and return the next sequence. Framing and caching the
        write's DATA is the writer's part: it inserts the sample as
        ``last_sequence + 1`` first, while ``keeps_history`` holds, and
        calls this only once the cache took it. Nothing is released here:
        no floor is above ``last_sequence + 1``, so the cache already
        holds nothing acknowledged by every reader."""
        self.last_sequence += 1
        return self.last_sequence

    # -- acknowledgements ---------------------------------------------

    def on_acknack(self, reader_guid: Guid, ack: wire.AckNack,
                   now_ns: int) -> list[Directed]:
        proxy = self._proxies.get(reader_guid)
        if proxy is None:
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
        self.history.release(min((p.acked_below for p in self._proxies.values()),
                                 default=self.last_sequence + 1) - 1)

    # -- timers -------------------------------------------------------

    def _unacked(self, proxy: _ReaderProxy) -> bool:
        return proxy.acked_below <= self.last_sequence

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
    """Reader-side tracking for one matched reliable writer.

    Every sequence up to ``floor`` is settled: handed on, or given up.
    ``held`` maps each sequence above ``floor + 1`` that arrived or was
    given up to what waits there: the entry ``(info, slots, index)`` of a
    DATA that arrived, or None for a sequence given up. So a DATA is new unless it is at or
    below the floor or held, and nothing above a hole is handed on until
    the hole fills or is given up; then the run above it is released in
    sequence order. ``held`` keeps only sequences at most
    ``_MAX_GIVEUP_SPAN`` above the floor: a DATA further ahead is refused
    (counted in ``beyond_window``) and not marked received, so the writer
    sends it again, and the part of a GAP above the bound is not
    recorded. Until the first heartbeat settles the floor, the bound
    counts from one below the lowest sequence held (``_lowest_held``).
    What a GAP or HEARTBEAT releases is appended, in order, to
    ``released``, for the reader to take.
    """

    def __init__(self, writer_guid: Guid, reader_entity_id: int):
        self.writer_guid = writer_guid
        self.reader_entity_id = reader_entity_id
        self.floor = 0  # every sequence <= floor is settled
        self.held: dict[int, Optional[Held]] = {}
        self.released: list[Held] = []
        self.samples_lost = 0
        self.unique_received = 0
        self.beyond_window = 0
        self._last_heartbeat_count = 0
        # The lowest sequence held while the floor is 0.
        self._lowest_held = _NOTHING_HELD

    def _first_heartbeat_pending(self) -> bool:
        """Whether the first heartbeat will still set the floor: nothing
        has settled or been given up, and no heartbeat has come."""
        return not (self._last_heartbeat_count or self.floor or self.samples_lost)

    def _release(self, floor: int, out: list) -> int:
        """Settle the sequences held just above ``floor``, appending each
        arrived DATA's entry to ``out``; returns the new floor."""
        held = self.held
        while floor + 1 in held:
            floor += 1
            entry = held.pop(floor)
            if entry is not None:
                out.append(entry)
        return floor

    def _give_up(self, start: int, end: int) -> None:
        floor = self.floor
        start = max(start, floor + 1)
        if start > end:
            return
        held = self.held
        if start > floor + 1:
            # Above a hole, which still waits: each sequence not yet
            # arrived settles as given up, up to the bound.
            for seq in range(start, min(end, floor + _MAX_GIVEUP_SPAN) + 1):
                if seq not in held:
                    held[seq] = None
                    self.samples_lost += 1
            return
        # The hole itself: everything up to ``end`` settles, and what
        # arrived is released in order; what waits above it follows.
        if end - floor > len(held):
            settled = sorted(seq for seq in held if seq <= end)
        else:
            settled = [seq for seq in range(start, end + 1) if seq in held]
        released = self.released
        for seq in settled:
            entry = held.pop(seq)
            if entry is not None:
                released.append(entry)
        self.samples_lost += end - floor - len(settled)
        self.floor = self._release(end, released)

    def on_run(self, infos: Sequence[SampleInfo], slots: list) -> Optional[list]:
        """Take a run of DATA in arrival order, ``slots[i]`` the payload
        slot of ``infos[i]``. Returns None when the run is handed on as it
        is: every DATA new and next in order. Else what to hand on, in
        order: the entry ``(info, slots, index)`` of each DATA released,
        and ``NOT_NEW`` in the place of each DATA of the run that is not
        new."""
        floor = self.floor
        held = self.held
        out = None
        unique = 0
        for i, info in enumerate(infos):
            sequence = info.sequence
            if sequence == floor + 1:
                floor = sequence
                unique += 1
                if out is not None:
                    out.append((info, slots, i))
                if floor + 1 in held:  # it filled the hole below them
                    if out is None:
                        out = _entries(infos, slots, i + 1)
                    floor = self._release(floor, out)
                continue
            if out is None:
                out = _entries(infos, slots, i)
            if sequence <= floor or sequence in held:
                out.append(NOT_NEW)
            elif sequence - floor > _MAX_GIVEUP_SPAN and (
                    floor or not self._first_heartbeat_pending()
                    or sequence - self._lowest_held >= _MAX_GIVEUP_SPAN):
                self.beyond_window += 1
            else:
                held[sequence] = (info, slots, i)
                unique += 1
                if not floor and sequence < self._lowest_held:
                    self._lowest_held = sequence
        self.floor = floor
        self.unique_received += unique
        return out

    def on_data(self, sequence: int) -> bool:
        """A run of one, without a payload: True when the sequence is new,
        whether it is released or held."""
        unique = self.unique_received
        self.on_run((_tuple_new(SampleInfo, (self.writer_guid, sequence, 0, 0, 0)),),
                    [None])
        return self.unique_received > unique

    def on_gap(self, gap: wire.Gap) -> None:
        self._give_up(gap.gap_start, gap.gap_end)

    def on_heartbeat(self, hb: wire.Heartbeat) -> Optional[wire.AckNack]:
        if hb.count <= self._last_heartbeat_count:
            return None  # stale or duplicated heartbeat
        if self._first_heartbeat_pending():
            # The first heartbeat: below it and every arrival, nothing was sent here.
            self.floor = self._release(max(0, min(hb.first_seq, self._lowest_held) - 1),
                                       self.released)
        self._last_heartbeat_count = hb.count
        if hb.first_seq > self.floor + 1:
            # The writer no longer offers anything below first_seq.
            self._give_up(self.floor + 1, hb.first_seq - 1)
        base = self.floor + 1
        window_end = min(hb.last_seq, base + wire.ACKNACK_MAX_BITS - 1)
        held = self.held
        missing = tuple(s for s in range(base, window_end + 1) if s not in held)
        return wire.AckNack(self.reader_entity_id, self.writer_guid, base, missing)

    def drop_held(self) -> None:
        """The writer is gone: what waits behind a hole is never handed
        on, and counts in ``samples_lost``."""
        self.samples_lost += sum(entry is not None for entry in self.held.values())
        self.held.clear()


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
    whole window) with one bounded slice assignment, so each DATA costs
    O(1) whatever the stream's length: nothing is rebuilt per sample.
    """

    WINDOW = 1024
    released = ()  # nothing is held, so nothing is released

    def __init__(self, writer_guid: Guid):
        self.writer_guid = writer_guid
        self.last_sequence = 0
        self.samples_lost = 0
        self.unique_received = 0
        self.beyond_window = 0  # never counted: nothing is held
        self._seen = bytearray(self.WINDOW)

    def on_run(self, infos: Sequence[SampleInfo], slots: list) -> Optional[list]:
        """Take a run of DATA in arrival order and answer as the reliable
        session does: None when every one is new (deliver them all), else
        an entry per DATA, ``NOT_NEW`` for one that is not new. A sequence
        is new only above every one received before it."""
        window = self.WINDOW
        seen = self._seen
        last = self.last_sequence
        out = None
        lost = unique = 0
        for i, info in enumerate(infos):
            sequence = info.sequence
            if sequence > last:
                skipped = sequence - last - 1
                if skipped >= window - 1:
                    seen = self._seen = bytearray(window)
                elif skipped:
                    start = (last + 1) % window
                    stop = start + skipped
                    if stop <= window:
                        seen[start:stop] = bytes(skipped)
                    else:
                        seen[start:] = bytes(window - start)
                        seen[:stop - window] = bytes(stop - window)
                seen[sequence % window] = 1
                lost += skipped
                unique += 1
                last = sequence
                if out is not None:
                    out.append((info, slots, i))
                continue
            slot = sequence % window
            if sequence > last - window and not seen[slot]:
                # A straggler that lost a race with newer samples: arrived,
                # but stays undelivered to preserve ordering.
                unique += 1
                lost -= 1
                seen[slot] = 1
            # else a duplicate (or too old to tell)
            if out is None:
                out = _entries(infos, slots, i)
            out.append(NOT_NEW)
        self.last_sequence = last
        self.samples_lost += lost
        self.unique_received += unique
        return out

    on_data = _on_data

    def on_heartbeat(self, hb: wire.Heartbeat) -> None:
        return None  # a best-effort reader never acknowledges

    def on_gap(self, gap: wire.Gap) -> None:
        pass

    def drop_held(self) -> None:
        pass  # nothing waits: a best-effort reader never holds a DATA
