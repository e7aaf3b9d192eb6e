"""Where ``ReaderHistory.insert`` places an arrival, against a plain
append.

``reference_place`` restates the order contract in one line: an
instance's entries are in arrival order, whatever their sequence numbers
and writers, and a keep-last instance drops its oldest arrival. The cache
must end every seeded arrival order with its entries, tagged by arrival,
in the reference's order, both keeping all and keeping the last
``DEPTH``. The orders are the ones a cache sorted by (sequence, writer
guid) would have placed away from the end:

- reorders of depth 0 to 8, made by ``InProcNetwork`` itself;
- arrivals held back by a few entries, up to a whole burst;
- two writers sending the same sequences;
- a (sequence, writer) pair arriving again, near the end and far back.
"""

import random
from bisect import bisect_right

import pytest

from minidds import idl, qos
from minidds.dcps.guid import Guid
from minidds.dcps.history import ReaderHistory, SampleInfo
from minidds.rtps.transport import InProcNetwork, LossyConfig

WRITERS = [Guid(bytes([i]) * 12, 7) for i in (2, 1)]  # listed out of guid order
HANDLE = 5
SEEDS = range(4)
DEPTH = 16


# ---------------------------------------------------------------------------
# The reference

def reference_place(entries: list, key: tuple, tag: int, depth: int | None = None) -> int:
    """Appends the arrival; returns how many entries keep-last evicts."""
    entries.append((key, tag))
    if depth is not None and len(entries) > depth:
        del entries[0]
        return 1
    return 0


def _check(arrivals: list[tuple[int, Guid]]) -> None:
    for policy, depth in ((qos.History(qos.HistoryKind.KEEP_ALL), None),
                          (qos.History(qos.HistoryKind.KEEP_LAST, DEPTH), DEPTH)):
        history = ReaderHistory(policy, qos.ResourceLimits())
        reference: list = []
        for tag, (sequence, writer) in enumerate(arrivals):
            outcome = history.insert((idl.Sample("Tagged", (tag,)),
                                      SampleInfo(writer, sequence, 0, 0, HANDLE)))
            evicted = reference_place(reference, (sequence, writer), tag, depth)
            assert outcome.accepted and not outcome.evicted_arriving
            assert outcome.evicted_count == evicted
        placed = [((info.sequence, info.writer_guid), sample.values[0])
                  for sample, info in history.instances[HANDLE]]
        assert placed == reference
        assert history.total == len(reference)


# ---------------------------------------------------------------------------
# Arrival orders

def _network_order(sequences: list, depth: int, seed: int) -> list:
    """``sequences`` sent in order through a reordering network of this
    depth, drained at random points as a reader's spin would."""
    net = InProcNetwork(LossyConfig(max_reorder_depth=depth, seed=seed))
    receiver = net.attach("r")
    sender = net.attach("s")
    rng = random.Random(seed)
    out = []
    for i, item in enumerate(sequences):
        sender.send(i.to_bytes(4, "little"), "r")
        if rng.random() < 1 / 32:
            out += receiver.drain()
    out += receiver.drain()
    return [sequences[int.from_bytes(data, "little")] for data, _ in out]


def _held_back(sequences: list, rng: random.Random, held: int) -> list:
    """``sequences`` in order but for ``held`` of them, each delivered at
    a random later point, up to after the last."""
    late = set(rng.sample(range(len(sequences)), held))
    out = [item for i, item in enumerate(sequences) if i not in late]
    for i in sorted(late):
        out.insert(rng.randint(min(i, len(out)), len(out)), sequences[i])
    return out


def _repeated(arrivals: list, rng: random.Random, count: int) -> list:
    """``arrivals`` with ``count`` of them arriving again, each at a random
    later point: some next to the end of the cache, some far back."""
    out = list(arrivals)
    for _ in range(count):
        i = rng.randrange(len(out))
        out.insert(rng.randint(i + 1, min(len(out), i + rng.choice((2, 8, 40, len(out))))),
                   out[i])
    return out


def _stream(n: int, writer: Guid = WRITERS[0]) -> list:
    return [(sequence, writer) for sequence in range(1, n + 1)]


def _two_writers(n: int, rng: random.Random) -> list:
    """Both writers send sequences 1..n, interleaved at random."""
    a, b = _stream(n, WRITERS[0]), _stream(n, WRITERS[1])
    out = []
    while a or b:
        out.append((a if a and (not b or rng.random() < 0.5) else b).pop(0))
    return out


# ---------------------------------------------------------------------------
# The differential

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("depth", range(9))
def test_network_reorders(depth, seed):
    _check(_network_order(_stream(600), depth, seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("burst, held", [(64, 3), (512, 20), (2048, 60)])
def test_arrivals_held_back_past_the_scan(burst, held, seed):
    rng = random.Random(seed)
    arrivals = _held_back(_stream(burst), rng, held)
    # The first sequence arriving last still goes last, a whole burst
    # behind the place its sequence would sort to.
    arrivals.remove((1, WRITERS[0]))
    arrivals.append((1, WRITERS[0]))
    _check(arrivals)


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_sequences_from_two_writers(seed):
    rng = random.Random(seed)
    _check(_network_order(_two_writers(400, rng), 8, seed))
    _check(_held_back(_two_writers(400, rng), rng, 25))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_repeated_sequence_and_writer(seed):
    rng = random.Random(seed)
    _check(_repeated(_network_order(_stream(400), 8, seed), rng, 40))
    _check(_repeated(_two_writers(300, rng), rng, 40))


def test_the_orders_meet_the_scan_the_fallback_and_ties():
    """Guards the generators, not the cache: at seed 0 they send arrivals
    that a cache sorted by (sequence, writer guid) would place last, a
    few entries back, more than 400 entries back, and next to an equal
    sequence or an equal key. Each must still be appended."""
    distances, equal_sequences, equal_keys = [], 0, 0
    rng = random.Random(0)
    for arrivals in (_network_order(_stream(600), 8, 0),
                     _held_back(_stream(512), rng, 20),
                     _repeated(_two_writers(300, rng), rng, 40)):
        ordered: list = []
        for key in arrivals:
            position = bisect_right(ordered, key)
            distances.append(len(ordered) - position)
            if position:
                before = ordered[position - 1]
                equal_sequences += before[0] == key[0] and before[1] != key[1]
                equal_keys += before == key
            ordered.insert(position, key)
    assert 0 in distances
    assert any(0 < d <= DEPTH for d in distances)
    assert any(d > DEPTH for d in distances) and max(distances) > 400
    assert equal_sequences and equal_keys
