import numpy as np
import pytest

from inlr_kit.rng import _counter, derive_rng, draw_block

_MOD = 1 << 64

# a lane prefix whose shot counters wrap past 2^64 at shot 3: counter
# (*lane, s) is counter(lane) * 1_000_003 + s + 1, mod 2^64
_WRAP = (((_MOD - 4) * pow(1_000_003, -1, _MOD) - 1) % _MOD,)


@pytest.mark.parametrize("seed", [0, -3, _MOD - 1, 2 ** 70 + 3])
@pytest.mark.parametrize("lane,shots", [
    ((0x5407,), range(0, 40)),
    ((0x5407,), range(1000, 1013)),
    (_WRAP, range(0, 9)),
    ((1, 2), range(7, 12)),
], ids=["shots", "offset", "wrap", "two-prefix"])
def test_draw_block_draws_what_derive_rng_draws(seed, lane, shots):
    # draws 0-12 cross two block boundaries
    draws = np.concatenate([draw_block(seed, lane, shots, b)
                            for b in range(4)])[:13]
    assert draws.shape == (13, len(shots))
    for i, s in enumerate(shots):
        rng = derive_rng(seed, *lane, s)
        assert list(draws[:, i]) == [rng.random() for _ in range(13)], s


def test_the_wrap_lane_wraps():
    counters = [_counter((*_WRAP, s)) for s in range(9)]
    assert counters[:3] == [_MOD - 3, _MOD - 2, _MOD - 1]
    assert counters[3:] == list(range(6))
