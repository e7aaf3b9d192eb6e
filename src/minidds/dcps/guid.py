"""Endpoint identity: a 12-byte participant prefix plus a 4-byte entity id."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

PREFIX_LEN = 12


@dataclass(frozen=True, order=True)
class Guid:
    """Globally unique endpoint id, totally ordered (prefix, then entity id)."""

    prefix: bytes
    entity_id: int

    def __post_init__(self):
        if len(self.prefix) != PREFIX_LEN:
            raise ValueError(f"guid prefix must be {PREFIX_LEN} bytes")
        if not 0 <= self.entity_id < 2**32:
            raise ValueError("entity id must fit 32 bits")

    def to_bytes(self) -> bytes:
        return self.prefix + self.entity_id.to_bytes(4, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Guid":
        if len(data) != PREFIX_LEN + 4:
            raise ValueError("guid must be 16 bytes")
        return cls(data[:PREFIX_LEN], int.from_bytes(data[PREFIX_LEN:], "little"))

    def __str__(self) -> str:
        return f"{self.prefix.hex()}.{self.entity_id:08x}"


def fresh_prefix(rng: Optional[random.Random] = None) -> bytes:
    """New participant prefix; pass a seeded rng for reproducible identities."""
    if rng is None:
        return os.urandom(PREFIX_LEN)
    return rng.randbytes(PREFIX_LEN)
