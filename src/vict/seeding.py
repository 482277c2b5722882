"""Deterministic seed derivation and counter-based random streams.

Every stochastic component derives its own Philox stream from a master
seed plus role tags, so draws are independent of call order.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fold(acc: int, part: int | str) -> int:
    if isinstance(part, str):
        # blake2b, not hash(): the latter is salted per process.
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
    else:
        value = int(part) & _MASK64
    return _splitmix64(acc ^ value)


def mix(*parts: int | str) -> int:
    """Collapse ints and strings into one well-mixed 64-bit seed."""
    acc = 0x243F6A8885A308D3
    for part in parts:
        acc = _fold(acc, part)
    return acc


def rng_for(*parts: int | str) -> np.random.Generator:
    """Philox generator keyed by the mixed parts.

    Counter-based, so streams with distinct keys never collide and the
    draw sequence does not depend on what other streams were consumed.
    """
    key = np.array([mix(*parts, 0), mix(*parts, 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
