"""Both reader sessions' ``on_run`` against a per-sample reference.

``_reliable_on_data`` and ``_BestEffortReference.on_data`` restate the
duplicate and loss rule one DATA at a time: the reliable one on a
settled floor and a set of received sequences, the best-effort one with
every sequence it has ever received. Seeded random runs mix in-order
sequences, duplicates inside a run and of earlier runs, reorders inside
and beyond ``WINDOW``, and jumps of a whole window or more; the reliable
session also gets GAPs and HEARTBEATs between runs. After every run the
session and the reference must agree on which positions are fresh, and
on ``samples_lost``, ``unique_received`` and the floor (the best-effort
session's ``last_sequence``).
"""

import random

import pytest

from minidds.dcps.guid import Guid
from minidds.dcps.history import SampleInfo
from minidds.rtps import wire
from minidds.rtps.reliability import BestEffortReaderSession, ReliableReaderSession

WRITER = Guid(b"\x07" * 12, 3)
WINDOW = BestEffortReaderSession.WINDOW


def _infos(sequences):
    return [SampleInfo(WRITER, seq, 0, 0, 0) for seq in sequences]


def _fresh(result, n):
    """The fresh positions ``on_run`` flags: all of them for None."""
    return list(range(n)) if result is None else [i for i in range(n) if result[i]]


# ---------------------------------------------------------------------------
# The references

def _reliable_on_data(session: ReliableReaderSession, sequence: int) -> bool:
    if sequence <= session.floor or sequence in session.received:
        return False
    session.unique_received += 1
    session.received.add(sequence)
    while session.floor + 1 in session.received:
        session.floor += 1
        session.received.remove(session.floor)
    return True


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


def _run(rng: random.Random, last: int, low: int, sent: list[int]) -> list[int]:
    """A run from ``last``, the highest sequence sent, above ``low``, the
    floor: every sequence at or below it is settled or too old to tell."""
    run = []
    for _ in range(rng.choice((1, 2, rng.randint(3, 40), rng.randint(100, 600)))):
        seq = _next_sequence(rng, last, low, sent)
        run.append(seq)
        sent.append(seq)
        last = max(last, seq)
    return run


@pytest.mark.parametrize("seed", range(60))
def test_best_effort_matches_the_reference(seed):
    rng = random.Random(seed)
    session = BestEffortReaderSession(WRITER)
    reference = _BestEffortReference()
    sent: list[int] = []
    for step in range(rng.choice((5, 40, 150))):
        last = reference.last_sequence
        run = _run(rng, last, max(0, last - WINDOW), sent)
        fresh = _fresh(session.on_run(_infos(run)), len(run))
        assert fresh == [i for i, seq in enumerate(run) if reference.on_data(seq)], (step, run)
        assert (session.last_sequence, session.samples_lost, session.unique_received) == (
            reference.last_sequence, reference.samples_lost, reference.unique_received), (
            step, run)


@pytest.mark.parametrize("seed", range(60))
def test_reliable_matches_the_reference(seed):
    """GAPs and HEARTBEATs go to both sessions through the real methods;
    only the DATA path differs."""
    rng = random.Random(seed)
    session = ReliableReaderSession(WRITER, 9)
    reference = ReliableReaderSession(WRITER, 9)
    sent: list[int] = []
    count = top = 0  # the last heartbeat's count, the highest sequence sent
    for step in range(rng.choice((5, 40, 150))):
        roll = rng.random()
        if roll < 0.15:
            start = max(1, reference.floor + rng.randint(-4, 40))
            gap = wire.Gap(WRITER.entity_id, start, start + rng.choice(
                (0, rng.randint(1, 30), rng.randint(WINDOW, 3 * WINDOW))))
            session.on_gap(gap)
            reference.on_gap(gap)
        elif roll < 0.30:
            count += rng.choice((1, 1, 1, 0))  # at times a repeated count
            hb = wire.Heartbeat(WRITER.entity_id,
                                max(1, reference.floor + rng.randint(-4, 60)),
                                top + rng.randint(0, 20), count)
            assert session.on_heartbeat(hb) == reference.on_heartbeat(hb), (step, hb)
        else:
            run = _run(rng, max(top, reference.floor), reference.floor, sent)
            top = max(top, *run)
            fresh = _fresh(session.on_run(_infos(run)), len(run))
            assert fresh == [i for i, seq in enumerate(run)
                             if _reliable_on_data(reference, seq)], (step, run)
        assert (session.floor, session.received, session.samples_lost,
                session.unique_received) == (
            reference.floor, reference.received, reference.samples_lost,
            reference.unique_received), step


@pytest.mark.parametrize("make", [lambda: BestEffortReaderSession(WRITER),
                                  lambda: ReliableReaderSession(WRITER, 9)],
                         ids=["best-effort", "reliable"])
def test_a_run_is_flagged_only_when_not_all_fresh(make):
    session = make()
    assert session.on_run(_infos(range(1, 8193))) is None
    assert session.on_run(_infos([8192, 8193, 8193, 8194])) == bytearray([0, 1, 0, 1])
    assert session.on_data(8195) is True and session.on_data(8195) is False
