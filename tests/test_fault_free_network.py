"""The in-process network's send path: without faults a datagram is
delivered once, in send order, and nothing is drawn from the seeded
generator; with faults, every draw happens in the documented order
(drop, duplicate, a reorder offset per copy), so a replay is
bit-identical to a per-send restatement of that rule kept here."""

import random
from collections import deque

import pytest

from minidds.rtps.transport import InProcNetwork, LossyConfig


@pytest.mark.parametrize("config", [None, LossyConfig(seed=5)], ids=["default", "seeded"])
def test_a_fault_free_network_keeps_send_order_and_draws_nothing(config):
    net = InProcNetwork(config)
    before = net._rng.getstate()
    receiver = net.attach("r")
    a, b = net.attach("a"), net.attach("b")
    sent = []
    for i in range(200):
        sender = (a, b)[i % 3 == 0]
        sender.send(bytes([i]), "r")
        sent.append((bytes([i]), sender.local_address))
        if i % 50 == 49:
            assert receiver.drain() == sent
            sent = []
    a.send(b"lost", "nobody")  # an unattached address: dropped, nothing drawn
    assert receiver.drain() == sent
    assert net._rng.getstate() == before


@pytest.mark.parametrize("faults", [
    {"drop_probability": 0.3},
    {"duplicate_probability": 0.4},
    {"max_reorder_depth": 3},
    {"drop_probability": 0.1, "duplicate_probability": 0.2, "max_reorder_depth": 5},
])
def test_faults_draw_in_the_documented_order(faults):
    config = LossyConfig(seed=11, **faults)
    assert config.faulty
    net = InProcNetwork(config)
    receiver = net.attach("r")
    sender = net.attach("s")
    rng = random.Random(11)
    expected: deque = deque()
    for i in range(300):
        data = i.to_bytes(2, "little")
        sender.send(data, "r")
        if config.drop_probability and rng.random() < config.drop_probability:
            continue
        copies = 2 if (config.duplicate_probability
                       and rng.random() < config.duplicate_probability) else 1
        for _ in range(copies):
            offset = rng.randint(0, config.max_reorder_depth) if config.max_reorder_depth else 0
            expected.insert(max(0, len(expected) - offset), (data, "s"))
    assert receiver.drain() == list(expected)
    assert net._rng.getstate() == rng.getstate()


def test_a_switch_to_faults_and_back_keeps_the_generator():
    net = InProcNetwork()
    receiver = net.attach("r")
    sender = net.attach("s")
    net.config = LossyConfig(drop_probability=0.5, seed=3)
    for i in range(20):
        sender.send(bytes([i]), "r")
    drawn = net._rng.getstate()
    net.config = LossyConfig(seed=3)
    assert not net.config.faulty
    receiver.drain()
    for i in range(20):
        sender.send(bytes([i]), "r")
    assert [d for d, _ in receiver.drain()] == [bytes([i]) for i in range(20)]
    assert net._rng.getstate() == drawn
