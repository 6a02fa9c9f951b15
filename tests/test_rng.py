import numpy as np

from tunevar.rng import (
    SplitMix64,
    derive_stream,
    fisher_yates_permutation,
    rng_for,
    splitmix64,
)


def test_splitmix64_known_sequence():
    # reference outputs of the standard splitmix64 from seed 0
    state = 0
    outs = []
    for _ in range(3):
        state, out = splitmix64(state)
        outs.append(out)
    assert outs[0] == 0xE220A8397B1DCDAF
    assert outs[1] == 0x6E789E6AA1B965F4
    assert outs[2] == 0x06C45D188009454F


def test_derive_stream_deterministic_and_distinct():
    a = derive_stream(42, 0)
    b = derive_stream(42, 1)
    assert a == derive_stream(42, 0)
    assert a != b
    assert derive_stream(43, 0) != a


def test_next_below_uniform_bounds():
    gen = SplitMix64(9)
    draws = [gen.next_below(7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) < 7
    assert len(set(draws)) == 7


def test_fisher_yates_is_permutation_and_seeded():
    p1 = fisher_yates_permutation(50, seed=3)
    p2 = fisher_yates_permutation(50, seed=3)
    p3 = fisher_yates_permutation(50, seed=4)
    assert np.array_equal(np.sort(p1), np.arange(50))
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_rng_for_streams_independent():
    x = rng_for(7).standard_normal(5)
    y = rng_for(8).standard_normal(5)
    assert not np.allclose(x, y)
    assert np.allclose(x, rng_for(7).standard_normal(5))
