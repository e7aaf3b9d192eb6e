"""The best-effort reader session against a brute-force reference.

``_ReferenceSession`` restates the best-effort contract the simple way:
it keeps every sequence it has ever received. Seeded random streams of
in-order steps, small and window-sized jumps, stragglers and duplicates
must give the same result and the same counters from both after every
call.
"""

import random
import time

import pytest

from minidds.dcps.guid import Guid
from minidds.rtps.reliability import BestEffortReaderSession

WRITER = Guid(b"\x07" * 12, 3)
WINDOW = BestEffortReaderSession.WINDOW


class _ReferenceSession:
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


def _next_sequence(rng: random.Random, reference: _ReferenceSession) -> int:
    last = reference.last_sequence
    roll = rng.random()
    if roll < 0.35:
        return last + 1
    if roll < 0.50:
        return last + rng.randint(2, 40)
    if roll < 0.58:
        return last + rng.choice((WINDOW - 1, WINDOW, WINDOW + 1,
                                  rng.randint(WINDOW // 2, 3 * WINDOW)))
    if roll < 0.85:  # straggler, at times across the window's lower edge
        return max(1, last - rng.choice((rng.randint(0, 64), rng.randint(0, WINDOW + 8),
                                         WINDOW - 1, WINDOW, WINDOW + 1)))
    if reference.received:  # a duplicate of something recent
        return rng.choice(sorted(reference.received)[-2 * WINDOW:])
    return last + 1


@pytest.mark.parametrize("seed", range(300))
def test_matches_the_reference(seed):
    rng = random.Random(seed)
    session = BestEffortReaderSession(WRITER)
    reference = _ReferenceSession()
    for step in range(rng.choice((50, 400, 2500))):
        sequence = _next_sequence(rng, reference)
        assert session.on_data(sequence) == reference.on_data(sequence), (step, sequence)
        assert (session.last_sequence, session.samples_lost, session.unique_received) == (
            reference.last_sequence, reference.samples_lost, reference.unique_received), (
            step, sequence)


def test_stays_flat_as_the_stream_grows():
    """300 000 in-order sequences, then 100 000 more sent out of order in
    pairs (each pair's later one first, so the earlier one arrives as a
    straggler). A session that rebuilds its window set on every in-order
    sample spends about 50 us per call once the window is full, about
    20 s here, and cannot finish inside the budget: the set-based session
    fails at 94 208 of the first 300 000. The ring window takes about
    0.4 s on a 2-core x86-64 host under CPython 3.11, so the budget leaves
    more than ten times that for slower interpreters and runners. If it
    needs more headroom, raise it no further than a bound the set rebuild
    cannot meet."""
    in_order, paired, budget_s = 300_000, 100_000, 5.0
    session = BestEffortReaderSession(WRITER)
    deadline = time.perf_counter() + budget_s

    def within_budget(what, i):
        if i % 4096 == 0 and time.perf_counter() > deadline:
            pytest.fail(f"over the {budget_s} s budget while {what} at {i}")

    for seq in range(1, in_order + 1):
        assert session.on_data(seq)
        within_budget("in order", seq)
    for seq in range(in_order + 1, in_order + paired, 2):
        assert session.on_data(seq + 1)
        assert not session.on_data(seq)  # straggler: seen, not delivered
        assert not session.on_data(seq)  # and then a duplicate
        within_budget("out of order", seq - in_order - 1)
    total = in_order + paired
    assert (session.last_sequence, session.unique_received, session.samples_lost) == (
        total, total, 0)
