"""A writer hashes each instance's key once.

``DataWriter.write`` keeps a table from a sample's packed key bytes to
its instance handle and calls ``idl.key_hash`` only for bytes it does
not hold. Seeded writes over every primitive kind as a key field, and
over multi-field and string keys, check that every DATA on the wire
carries the handle ``idl.key_hash`` gives for its sample, and that the
hash runs once per distinct key bytes. The values include what a table
keyed by the key values would get wrong (``-0.0`` beside ``0.0``, a
fresh NaN per write) and what takes the field-by-field fallback (an int
for a double, an ``int`` subclass). With the table's cap made small, the
table never holds more than the cap, and handles stay right across each
time it is emptied.
"""

import random
import sys
import threading

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps import writer as writer_module
from minidds.dcps.participant import DomainParticipant
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

K = idl.PrimitiveKind
BEST_EFFORT = [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)]
WRITES = 240


class Int(int):
    """An int subclass: the generated pack refuses it, the fallback takes it."""


TEXTS = ("", "a", "é", "日本", "🚗", "a\x00b", "Zürich-🚗")


def _pool(kind: K) -> list:
    """Key values for ``kind``: its edges, a few others, and what the
    fallback path takes. Each call makes fresh NaN objects."""
    if kind is K.BOOLEAN:
        return [False, True]
    if kind is K.STRING:
        return list(TEXTS)
    if kind in (K.FLOAT, K.DOUBLE):
        return [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.5, -2.25,
                3, Int(3), 0]
    lo, hi = idl._INT_RANGES[kind]
    return [lo, hi, 0, 1, (lo + hi) // 2, Int(1), Int(hi)]


def _types():
    for kind in K:
        yield pytest.param(
            idl.parse_idl(f"struct One {{ {kind.keyword} k; //@key\n long v; }};")[0],
            id=kind.keyword.replace(" ", "-"))
    yield pytest.param(idl.parse_idl(
        "struct Many { double x; //@key\n string name; //@key\n long v;\n"
        " octet o; //@key\n float f; //@key\n };")[0], id="multi-field")
    yield pytest.param(idl.parse_idl(
        "struct Texts { string a; //@key\n string b; //@key\n double v; };")[0],
        id="two-strings")


def _samples(descriptor: idl.TypeDescriptor, seed: int) -> list:
    rng = random.Random(f"writer-handles/{descriptor.name}/{seed}")
    samples = []
    for n in range(WRITES):
        values = []
        for f in descriptor.fields:
            if f.is_key:
                values.append(rng.choice(_pool(f.kind)))
            elif f.kind is K.STRING:
                values.append(rng.choice(TEXTS))
            else:
                values.append(n if f.kind is K.LONG else 0.5)
        samples.append(idl.Sample(descriptor.name, tuple(values)))
    return samples


class _Wire:
    """A writer on A matched with a best-effort reader on B, which is
    never spun again; each DATA A sends is recorded."""

    def __init__(self, descriptor):
        net, clock = InProcNetwork(), ManualClock(1_000_000_000)
        self.a, self.b = (DomainParticipant(0, transport=net.attach(name), clock=clock,
                                            static_peers=(peer,))
                          for name, peer in (("A", "B"), ("B", "A")))
        self.writer = self.a.create_datawriter(
            self.a.create_topic("t", descriptor), BEST_EFFORT)
        reader = self.b.create_datareader(self.b.create_topic("t", descriptor), BEST_EFFORT)
        for _ in range(3):
            self.a.spin_once()
            self.b.spin_once()
        assert self.writer.matched_readers() == [reader.guid]
        self.sent = []
        send = self.a.transport.send

        def recording(data, dest):
            if wire.read_data_message(data) is not None:
                self.sent.append(data)
            send(data, dest)

        self.a.transport.send = recording

    @property
    def handles(self) -> list:
        return [wire.read_data_message(data)[5] for data in self.sent]

    def close(self):
        self.a.close()
        self.b.close()


def _count_hashes(monkeypatch) -> list:
    """The samples ``idl.key_hash`` is called with from here on."""
    hashed = []
    key_hash = idl.key_hash

    def counting(descriptor, sample, **kwargs):
        hashed.append(sample)
        return key_hash(descriptor, sample, **kwargs)

    monkeypatch.setattr(idl, "key_hash", counting)
    return hashed


def _misses(keys, cap):
    """Hashes a table that is emptied when full, before the next insert,
    makes for ``keys`` in order."""
    table, misses = set(), 0
    for key in keys:
        if key not in table:
            misses += 1
            if len(table) >= cap:
                table.clear()
            table.add(key)
    return misses


@pytest.mark.parametrize("cap", [writer_module.MAX_INSTANCE_HANDLES, 4, 1])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("descriptor", _types())
def test_each_write_carries_the_key_hash_and_hashes_once_per_key(
        monkeypatch, descriptor, seed, cap):
    samples = _samples(descriptor, seed)
    expected = [idl.key_hash(descriptor, s) for s in samples]
    keys = [idl.key_bytes(descriptor, s) for s in samples]
    assert len(set(keys)) > 1  # a cap of 1 empties the table
    hashed = _count_hashes(monkeypatch)
    monkeypatch.setattr(writer_module, "MAX_INSTANCE_HANDLES", cap)
    pair = _Wire(descriptor)
    try:
        for sample in samples:
            pair.writer.write(sample)
            assert len(pair.writer._handles) <= cap
        assert pair.handles == expected
        assert len(hashed) == _misses(keys, cap)
        if cap >= len(set(keys)):
            assert len(hashed) == len(set(keys))
    finally:
        pair.close()


def test_signed_zeros_and_nans_are_told_apart_by_their_bytes(monkeypatch):
    """``-0.0 == 0.0`` and ``nan != nan``, but the wire goes by bytes:
    the two zeros are two instances, and every NaN of one bit pattern
    is one."""
    descriptor = idl.parse_idl("struct Z { double k; //@key\n long v; };")[0]
    values = [0.0, -0.0, 0.0, float("nan"), float("nan"), -0.0, float("nan")]
    zero, negative_zero, nan = (idl.key_hash(descriptor, idl.Sample("Z", (v, 0)))
                                for v in (0.0, -0.0, float("nan")))
    assert len({zero, negative_zero, nan}) == 3
    hashed = _count_hashes(monkeypatch)
    pair = _Wire(descriptor)
    try:
        for n, value in enumerate(values):
            pair.writer.write(idl.Sample("Z", (value, n)))
        assert pair.handles == [zero, negative_zero, zero, nan, nan, negative_zero, nan]
        assert len(hashed) == 3
        assert len(pair.writer._handles) == 3
    finally:
        pair.close()


def test_key_bytes_the_generated_code_cannot_pack_are_hashed_each_write(monkeypatch):
    """Where the generated ``key_bytes`` gives None, the write still
    carries the right handle from ``idl.key_hash`` and adds no entry."""
    descriptor = idl.parse_idl("struct N { long k; //@key\n long v; };")[0]
    pair = _Wire(descriptor)
    try:
        pair.writer.write(idl.Sample("N", (7, 0)))
        monkeypatch.setattr(descriptor._codec, "key_bytes", lambda values: None)
        pair.writer.write(idl.Sample("N", (8, 0)))
        pair.writer.write(idl.Sample("N", (7, 1)))
        assert pair.handles == [idl.key_hash(descriptor, idl.Sample("N", (k, 0)))
                                for k in (7, 8, 7)]
        assert len(pair.writer._handles) == 1
    finally:
        pair.close()


def test_threads_writing_at_once_never_get_a_wrong_handle(monkeypatch):
    """Four threads, more than the cores, write over 40 keys into one
    writer whose table holds 8. A thread switch between the fill check
    and the insert can add an entry past the cap, at most one per
    thread, and an emptying may drop another thread's entry; neither
    can put a wrong handle on the wire."""
    descriptor = idl.parse_idl("struct T { long k; //@key\n long v; };")[0]
    threads_n, writes, cap = 4, 300, 8
    monkeypatch.setattr(writer_module, "MAX_INSTANCE_HANDLES", cap)
    pair = _Wire(descriptor)
    sizes = []

    def write(t):
        rng = random.Random(t)
        for n in range(writes):
            pair.writer.write(idl.Sample("T", (rng.randrange(40), n)))
            sizes.append(len(pair.writer._handles))

    threads = [threading.Thread(target=write, args=(t,), daemon=True)
               for t in range(threads_n)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
    finally:
        sys.setswitchinterval(previous)
        pair.close()
    assert not any(thread.is_alive() for thread in threads)
    assert len(pair.sent) == threads_n * writes
    assert max(sizes) <= cap + threads_n - 1
    for data in pair.sent:
        handle = wire.read_data_message(data)[5]
        sample = idl.deserialize(descriptor, data[wire.DATA_PAYLOAD_START:])
        assert handle == idl.key_hash(descriptor, sample)
