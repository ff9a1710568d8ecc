from inlr_kit.rng import derive_rng, reseat


def test_reseat_draws_what_derive_rng_draws():
    rng = derive_rng(7, 0x5407, 0)
    for shot in range(200):
        rng.random()  # leave the old stream part way
        reseat(rng, 7, 0x5407, shot)
        fresh = derive_rng(7, 0x5407, shot)
        assert [rng.random() for _ in range(5)] \
            == [fresh.random() for _ in range(5)]
    for seed, lane in [(-3, (5,)), (2 ** 70 + 3, (1, 2)), (0, ())]:
        reseat(rng, seed, *lane)
        fresh = derive_rng(seed, *lane)
        assert rng.integers(1 << 62) == fresh.integers(1 << 62)
