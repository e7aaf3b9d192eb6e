"""Both reader sessions' ``on_run`` against a per-sample reference.

``_HoldReference`` and ``_BestEffortReference.on_data`` restate the
duplicate and loss rule one DATA at a time: the reliable one holds each
DATA above a hole and releases each in-order run once the hole fills or
is given up, the best-effort one keeps every sequence it has ever
received. Seeded random runs mix in-order sequences, duplicates inside a
run and of earlier runs, reorders inside and beyond ``WINDOW``, and
jumps of a whole window or more; some runs continue the stream (at
lengths around ``WINDOW``, or wrapping the best-effort ring), which the
best-effort session decides in one step, and some fall behind the newest
sequence (stragglers and duplicates inside the window). The reliable
session also gets GAPs and HEARTBEATs between runs. After every run the
best-effort session and its reference must agree on what the run hands
on, in order, with each DATA that is not new in its place; the reliable
session and its reference on what each run, GAP and HEARTBEAT hands on,
in order, with each duplicate in its place, and on every ACKNACK. Both
must agree on ``samples_lost``, ``unique_received`` and the floor (the
best-effort session's ``last_sequence``), the reliable ones also on what
is held and on ``beyond_window``, the best-effort ones on every slot of
the ring of seen flags.
"""

import copy
import random

import pytest

from minidds.dcps.guid import Guid
from minidds.dcps.history import SampleInfo
from minidds.rtps import wire
from minidds.rtps.reliability import BestEffortReaderSession, ReliableReaderSession

WRITER = Guid(b"\x07" * 12, 3)
WINDOW = BestEffortReaderSession.WINDOW
SPAN = 65536  # how far above its floor a reliable session holds anything
DUP = "duplicate"


def _infos(sequences):
    return [SampleInfo(WRITER, seq, 0, 0, 0) for seq in sequences]


# ---------------------------------------------------------------------------
# The references

class _HoldReference:
    """The reliable rule, one sequence at a time. ``arrived`` maps each
    DATA held above the floor to its payload, ``given_up`` holds each
    sequence above the floor written off; ``out`` collects what is handed
    on, with DUP in the place of a DATA that was not new."""

    def __init__(self):
        self.floor = 0
        self.arrived: dict[int, str] = {}
        self.given_up: set[int] = set()
        self.samples_lost = self.unique_received = self.beyond_window = 0
        self.count = 0
        self.out: list = []

    def _settle(self):
        while self.floor + 1 in self.arrived or self.floor + 1 in self.given_up:
            self.floor += 1
            if self.floor in self.arrived:
                self.out.append(self.arrived.pop(self.floor))
            else:
                self.given_up.remove(self.floor)

    def _first_heartbeat_pending(self) -> bool:
        return not (self.count or self.floor or self.samples_lost)

    def on_data(self, sequence: int, payload: str) -> None:
        # Until the first heartbeat, the bound counts from below the lowest held.
        base = (min((sequence, *self.arrived)) - 1 if self._first_heartbeat_pending()
                else self.floor)
        if (sequence <= self.floor or sequence in self.arrived
                or sequence in self.given_up):
            self.out.append(DUP)
        elif sequence > base + SPAN:
            self.beyond_window += 1
        else:
            self.unique_received += 1
            self.arrived[sequence] = payload
            self._settle()

    def on_gap(self, start: int, end: int) -> None:
        if start > self.floor + 1:
            for seq in range(start, min(end, self.floor + SPAN) + 1):
                if seq not in self.arrived and seq not in self.given_up:
                    self.given_up.add(seq)
                    self.samples_lost += 1
            return
        for seq in range(self.floor + 1, end + 1):
            if seq in self.arrived:
                self.out.append(self.arrived.pop(seq))
            elif seq in self.given_up:
                self.given_up.remove(seq)
            else:
                self.samples_lost += 1
        self.floor = max(self.floor, end)
        self._settle()

    def on_heartbeat(self, hb):
        if hb.count <= self.count:
            return None
        if self._first_heartbeat_pending():
            self.floor = max(0, min((hb.first_seq, *self.arrived)) - 1)
            self._settle()
        self.count = hb.count
        self.on_gap(self.floor + 1, hb.first_seq - 1)
        base = self.floor + 1
        missing = tuple(s for s in range(base, min(hb.last_seq, base + 255) + 1)
                        if s not in self.arrived and s not in self.given_up)
        return wire.AckNack(9, WRITER, base, missing)


class _BestEffortReference:
    def __init__(self):
        self.received: set[int] = set()
        self.last_sequence = 0
        self.samples_lost = 0
        self.unique_received = 0

    def on_data(self, sequence: int) -> bool:
        if sequence > self.last_sequence:
            self.samples_lost += sequence - self.last_sequence - 1
            self.last_sequence = sequence
            delivered = True
        elif sequence <= self.last_sequence - WINDOW or sequence in self.received:
            return False
        else:
            self.samples_lost -= 1
            delivered = False
        self.unique_received += 1
        self.received.add(sequence)
        return delivered


# ---------------------------------------------------------------------------
# Random runs

def _next_sequence(rng: random.Random, last: int, low: int, sent: list[int]) -> int:
    roll = rng.random()
    if roll < 0.40:
        return last + 1
    if roll < 0.45:  # just above the floor: the lowest holes
        return low + rng.randint(1, 8)
    if roll < 0.55:
        return last + rng.randint(2, 40)
    if roll < 0.60:  # a jump of about a window, or of several
        return last + rng.choice((WINDOW - 1, WINDOW, WINDOW + 1,
                                  rng.randint(WINDOW, 3 * WINDOW)))
    if roll < 0.80:  # reordered: inside the window, at its edge, beyond it
        return max(1, last - rng.choice((rng.randint(1, 64), rng.randint(1, WINDOW + 8),
                                         WINDOW - 1, WINDOW, WINDOW + 1)))
    if sent:  # a duplicate, of this run or an earlier one
        return rng.choice(sent[-64:])
    return last + 1


def _in_order(rng: random.Random, last: int) -> list[int]:
    """A run that continues the stream: consecutive sequences from
    ``last + 1``, at the lengths around ``WINDOW``, or long enough to wrap
    the best-effort ring past its end."""
    length = rng.choice((1, WINDOW - 1, WINDOW, WINDOW + 1, rng.randint(2, 64),
                         WINDOW - (last + 1) % WINDOW + rng.randint(1, 64)))
    return list(range(last + 1, last + 1 + length))


def _behind(rng: random.Random, last: int) -> list[int]:
    """A run inside the window below ``last``: stragglers where a jump
    left holes, and duplicates, each possibly twice."""
    return [max(1, last - rng.randint(0, WINDOW - 1)) for _ in range(rng.randint(1, 64))]


def _run(rng: random.Random, last: int, low: int, sent: list[int]) -> list[int]:
    """A run from ``last``, the highest sequence sent, above ``low``, the
    floor: every sequence at or below it is settled or too old to tell."""
    roll = rng.random()
    if roll < 0.25:
        run = _in_order(rng, last)
    elif roll < 0.35:
        run = _behind(rng, last)
    else:
        run = []
        for _ in range(rng.choice((1, 2, rng.randint(3, 40), rng.randint(100, 600)))):
            seq = _next_sequence(rng, last, low, sent)
            run.append(seq)
            sent.append(seq)
            last = max(last, seq)
        return run
    sent.extend(run)
    return run


def _handed_on(session, infos, slots) -> list:
    """What ``on_run`` hands on: payloads in order, DUP for a DATA that is
    not new."""
    entries = session.on_run(infos, slots)
    if entries is None:
        return list(slots)
    return [DUP if info is None else cell[i] for info, cell, i in entries]


def _ring(reference: _BestEffortReference) -> bytearray:
    """The seen flags the best-effort session's ring must hold: for each
    sequence s in ``(last_sequence - WINDOW, last_sequence]``, whether s
    arrived, at ``s % WINDOW``."""
    last = reference.last_sequence
    received = reference.received
    flags = bytearray(map(received.__contains__, range(last - WINDOW + 1, last + 1)))
    cut = WINDOW - (last + 1) % WINDOW  # the flag of the sequence at slot 0
    return flags[cut:] + flags[:cut]


def _agrees(session: BestEffortReaderSession, reference: _BestEffortReference) -> bool:
    return (session.last_sequence, session.samples_lost, session.unique_received,
            session._seen) == (reference.last_sequence, reference.samples_lost,
                               reference.unique_received, _ring(reference))


def _feed(session, reference, run, tag="") -> None:
    """Hand one run to the session and its reference; both must agree on
    what it hands on and on everything they count, every ring slot too."""
    slots = [f"{seq}{tag}.{i}" for i, seq in enumerate(run)]
    assert _handed_on(session, _infos(run), slots) == [
        payload if reference.on_data(seq) else DUP
        for seq, payload in zip(run, slots)], run
    assert _agrees(session, reference), run


@pytest.mark.parametrize("seed", range(60))
def test_best_effort_matches_the_reference(seed):
    rng = random.Random(seed)
    session = BestEffortReaderSession(WRITER)
    reference = _BestEffortReference()
    sent: list[int] = []
    for step in range(rng.choice((5, 40, 150))):
        last = reference.last_sequence
        _feed(session, reference, _run(rng, last, max(0, last - WINDOW), sent), f"@{step}")


@pytest.mark.parametrize("before, hole, length", [
    (0, 0, 1),
    (0, 0, WINDOW - 1),
    (0, 0, WINDOW),
    (0, 0, WINDOW + 1),
    (WINDOW - 10, 0, 15),  # wraps the ring's end
    (WINDOW - 11, 5, 15),  # wraps, above a hole
    (WINDOW - 1, 0, WINDOW),  # starts at slot 0, fills the ring
    (300, 40, WINDOW - 40),  # the longest that keeps the whole hole in the window
    (300, 40, WINDOW - 1),  # the hole is below the window: too old to tell
], ids=lambda v: str(v))
def test_an_in_order_run_leaves_every_slot_as_the_reference(before, hole, length):
    """An in-order run after ``before`` sequences and a jump over
    ``hole`` of them, decided in one step unless it is longer than
    ``WINDOW``. Then every sequence of the window
    arrives again, twice: each straggler from the hole counts as seen
    exactly once, and every other one is a duplicate. The ring is
    compared slot by slot after each run, so one slot that the in-order
    step writes wrong, or leaves as it was, fails the test."""
    session = BestEffortReaderSession(WRITER)
    reference = _BestEffortReference()
    if before:
        _feed(session, reference, list(range(1, before + 1)))
    start = before + hole + 1
    run = list(range(start, start + length))
    _feed(session, reference, run)
    last = run[-1]
    behind = list(range(max(1, last - WINDOW + 1), last + 1))
    unique = session.unique_received
    for seq in behind:
        _feed(session, reference, [seq])
    stragglers = [seq for seq in range(before + 1, start) if seq > last - WINDOW]
    assert session.unique_received == unique + len(stragglers)
    _feed(session, reference, behind)  # all again, as one run: all duplicates
    assert session.unique_received == unique + len(stragglers)
    assert session.samples_lost == hole - len(stragglers)


def test_one_wrong_slot_changes_what_arrives_next():
    """Why each slot is compared: after an in-order run that wraps the
    ring above a hole, any one slot flipped the wrong way turns the next
    arrival at it from a straggler into a duplicate, or from a duplicate
    into a straggler."""
    base = BestEffortReaderSession(WRITER)
    reference = _BestEffortReference()
    _feed(base, reference, list(range(1, WINDOW - 9)))
    _feed(base, reference, list(range(WINDOW + 40, WINDOW + 60)))
    for seq in range(60, WINDOW + 60):  # the window, one sequence per slot
        session = copy.copy(base)
        session._seen = bytearray(base._seen)
        session._seen[seq % WINDOW] ^= 1
        straggler = seq not in reference.received
        assert session.on_data(seq) is False
        assert session.unique_received - base.unique_received == (not straggler), seq


def _taken(session: ReliableReaderSession) -> list:
    released, session.released = session.released, []
    return [cell[i] for _, cell, i in released]


@pytest.mark.parametrize("seed", range(60))
def test_reliable_matches_the_reference(seed):
    rng = random.Random(seed)
    session = ReliableReaderSession(WRITER, 9)
    reference = _HoldReference()
    sent: list[int] = []
    count = top = 0  # the last heartbeat's count, the highest sequence sent
    for step in range(rng.choice((5, 40, 150))):
        roll = rng.random()
        reference.out = []
        if roll < 0.15:
            start = max(1, reference.floor + rng.randint(-4, 40))
            gap = wire.Gap(WRITER.entity_id, start, start + rng.choice(
                (0, rng.randint(1, 30), rng.randint(WINDOW, 3 * WINDOW))))
            session.on_gap(gap)
            reference.on_gap(gap.gap_start, gap.gap_end)
            assert _taken(session) == reference.out, (step, gap)
        elif roll < 0.30:
            count += rng.choice((1, 1, 1, 0))  # at times a repeated count
            hb = wire.Heartbeat(WRITER.entity_id,
                                max(1, reference.floor + rng.randint(-4, 60)),
                                top + rng.randint(0, 20), count)
            assert session.on_heartbeat(hb) == reference.on_heartbeat(hb), (step, hb)
            assert _taken(session) == reference.out, (step, hb)
        else:
            run = _run(rng, max(top, reference.floor), reference.floor, sent)
            top = max(top, *run)
            slots = [f"{seq}@{step}.{i}" for i, seq in enumerate(run)]
            for seq, payload in zip(run, slots):
                reference.on_data(seq, payload)
            assert _handed_on(session, _infos(run), slots) == reference.out, (step, run)
        assert (session.floor, sorted(k for k, v in session.held.items() if v is not None),
                sorted(k for k, v in session.held.items() if v is None),
                session.samples_lost, session.unique_received, session.beyond_window) == (
            reference.floor, sorted(reference.arrived), sorted(reference.given_up),
            reference.samples_lost, reference.unique_received,
            reference.beyond_window), step


def test_a_reader_matched_far_into_a_stream_holds_its_data_until_the_first_heartbeat():
    """A writer already past the hold bound: before its first heartbeat
    the bound counts from the lowest sequence held, not from floor 0."""
    session = ReliableReaderSession(WRITER, 9)
    run = list(range(70_001, 70_101))
    assert _handed_on(session, _infos(run), [f"s{seq}" for seq in run]) == []
    assert (session.beyond_window, len(session.held)) == (0, 100)
    ack = session.on_heartbeat(wire.Heartbeat(WRITER.entity_id, 70_001, 70_100, 1))
    assert ack == wire.AckNack(9, WRITER, 70_101, ())
    assert _taken(session) == [f"s{seq}" for seq in run]
    assert (session.floor, session.held, session.samples_lost) == (70_100, {}, 0)
    # Past the first heartbeat the bound counts from the floor again.
    assert _handed_on(session, _infos([70_102 + SPAN]), ["far"]) == []
    assert session.beyond_window == 1


def test_before_the_first_heartbeat_the_bound_counts_from_the_lowest_held():
    session = ReliableReaderSession(WRITER, 9)
    assert _handed_on(session, _infos([SPAN + 10, 2 * SPAN + 9, 2 * SPAN + 10]),
                      ["a", "b", "c"]) == []
    assert sorted(session.held) == [SPAN + 10, 2 * SPAN + 9]
    assert session.beyond_window == 1


def test_a_best_effort_run_is_handed_on_as_it_is_only_when_all_fresh():
    session = BestEffortReaderSession(WRITER)
    assert session.on_run(_infos(range(1, 8193)), [None] * 8192) is None
    assert _handed_on(session, _infos([8192, 8193, 8193, 8194]), ["a", "b", "c", "d"]) == [
        DUP, "b", DUP, "d"]
    assert session.on_data(8195) is True and session.on_data(8195) is False


def test_a_reliable_run_is_handed_on_as_it_is_only_when_all_fresh_and_in_order():
    session = ReliableReaderSession(WRITER, 9)
    assert session.on_run(_infos(range(1, 8193)), [None] * 8192) is None
    assert _handed_on(session, _infos([8192, 8193, 8193, 8194]), ["a", "b", "c", "d"]) == [
        DUP, "b", DUP, "d"]
    assert _handed_on(session, _infos([8196, 8197]), ["f", "g"]) == []  # behind 8195
    assert _handed_on(session, _infos([8195]), ["e"]) == ["e", "f", "g"]
    assert session.on_data(8198) is True and session.on_data(8198) is False
