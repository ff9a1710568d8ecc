"""Seed handling: one user seed, many independent reproducible streams.

`derive_rng` gives one stream as a numpy Generator.  `draw_block` reads
the same streams for a whole range of lanes at once: Philox is counter
based (Salmon et al., *Parallel random numbers: as easy as 1, 2, 3*,
SC'11), so the k-th word of a stream is one function of the key and the
counter, and one vectorised Philox4x64-10 evaluates it for every lane.
"""

from __future__ import annotations

import numpy as np

_MOD = 1 << 64

# Philox4x64: the multipliers of counter words 0 and 2, as a column, and
# the Weyl increments of the two key words (Random123, numpy)
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


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


def _mulhi(x, m_lo, m_hi):
    """The high 64-bit words of m * x, uint64 arrays, from 32-bit halves
    (Warren, *Hacker's Delight*, mulhu): no partial sum overflows."""
    x_lo, x_hi = x & _LOW, x >> _HALF
    t = m_hi * x_lo + (m_lo * x_lo >> _HALF)
    w = (t & _LOW) + m_lo * x_hi
    return m_hi * x_hi + (t >> _HALF) + (w >> _HALF)


def _philox(even: np.ndarray, odd: np.ndarray, key) -> np.ndarray:
    """Philox4x64-10 under a key of two 64-bit ints, of counters held as
    two uint64 arrays of shape (2, n): counter words (0, 2) in `even` and
    (1, 3) in `odd`.  The output words (0, 1, 2, 3), shape (4, n).

    A round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)): one product of `even` and M.
    """
    # the constants at full shape: numpy is slower on a broadcast operand
    m, m_lo, m_hi = (np.repeat(a, even.shape[1], axis=1)
                     for a in (_M, _M & _LOW, _M >> _HALF))
    key = list(key)
    for r in range(_ROUNDS):
        if r:
            key = [(k + w) % _MOD for k, w in zip(key, _W)]
        odd, even = (even * m)[::-1], _mulhi(even, m_lo, m_hi)[::-1] ^ odd
        even[0] ^= np.uint64(key[0])
        even[1] ^= np.uint64(key[1])
    return np.stack((even[0], odd[0], even[1], odd[1]))


def draw_block(seed: int, lane: tuple, shots: range, block: int) -> np.ndarray:
    """Draws 4*block .. 4*block+3 of `derive_rng(seed, *lane, s).random()`
    for every s in shots (a range of step 1): an array of shape
    (4, len(shots)), draw 4*block+w of shot shots[i] at [w, i].

    numpy's Philox bumps the first counter word before each block of four
    words, and the lane's counter sits in the third word, so block b of
    lane (*lane, s) is Philox of (b + 1, 0, counter(*lane, s), 0).
    """
    first = _counter((*lane, shots.start))
    lanes = np.arange(len(shots), dtype=np.uint64) + np.uint64(first)
    even = np.stack((np.full_like(lanes, block + 1), lanes))
    words = _philox(even, np.zeros_like(even), (int(seed) % _MOD, 0))
    # numpy's double from a 64-bit word: its top 53 bits times 2**-53
    return (words >> np.uint64(11)) * (1.0 / (1 << 53))
