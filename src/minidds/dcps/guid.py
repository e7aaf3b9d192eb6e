"""Endpoint identity: a 12-byte participant prefix plus a 4-byte entity id."""

from __future__ import annotations

import os
import random
from typing import NamedTuple, Optional

PREFIX_LEN = 12


class _GuidFields(NamedTuple):
    prefix: bytes
    entity_id: int


class Guid(_GuidFields):
    """Globally unique endpoint id, totally ordered (prefix, then entity id).

    A tuple, so hashing, equality and ordering run in C on every session
    and proxy lookup; ``hash(Guid(p, e)) == hash((p, e))``.
    """

    __slots__ = ()

    def __new__(cls, prefix: bytes, entity_id: int) -> "Guid":
        if len(prefix) != PREFIX_LEN:
            raise ValueError(f"guid prefix must be {PREFIX_LEN} bytes")
        if not 0 <= entity_id < 2**32:
            raise ValueError("entity id must fit 32 bits")
        return tuple.__new__(cls, (prefix, entity_id))

    @classmethod
    def _make(cls, iterable) -> "Guid":  # so that _replace validates too
        return cls(*iterable)

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
