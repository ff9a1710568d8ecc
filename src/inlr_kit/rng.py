"""Seed handling: one user seed, many independent reproducible streams."""

from __future__ import annotations

import numpy as np

_MOD = 1 << 64


def _counter(lane) -> int:
    counter = 0
    for v in lane:
        counter = (counter * 1_000_003 + int(v) + 1) % _MOD
    return counter


def derive_rng(seed: int, *lane) -> np.random.Generator:
    """A counter-based stream for (seed, lane).

    Philox is splittable by construction: every lane gets its own 2^128
    block of the counter space, so shots and suites never share draws and
    any lane can be regenerated independently.
    """
    bg = np.random.Philox(key=int(seed) % _MOD, counter=_counter(lane) << 128)
    return np.random.Generator(bg)


def reseat(rng: np.random.Generator, seed: int, *lane) -> None:
    """Move a `derive_rng` generator to the start of the (seed, lane) stream.

    It then draws exactly what derive_rng(seed, *lane) would, at a fraction
    of the cost of building a new generator.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        # 64-bit words, least significant first: counter = lane << 128
        "state": {"counter": (0, 0, _counter(lane), 0),
                  "key": (int(seed) % _MOD, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
