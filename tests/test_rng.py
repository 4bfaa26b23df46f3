import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letrack.rng import SplitMix64

from oracles import gauss_vec_reference

# Published splitmix64 reference outputs.
SEED0_WORDS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)
SEED1_WORDS = (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B)

# First uniforms of seed 1, frozen: (word >> 11) * 2**-53 of SEED1_WORDS.
SEED1_UNIFORMS = (
    0.5665615751722809,
    0.7457817572627011,
    0.9710027535867962,
    0.4443592170557721,
)


def test_reference_words_seed0():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(4)) == SEED0_WORDS


def test_reference_words_seed1():
    g = SplitMix64(1)
    assert tuple(g.next_u64() for _ in range(4)) == SEED1_WORDS


def test_uniform_frozen_values():
    g = SplitMix64(1)
    assert tuple(g.uniform() for _ in range(4)) == SEED1_UNIFORMS


def test_uniform_is_word_top_53_bits():
    for seed in (0, 1, 7, 123456789):
        words = SplitMix64(seed)
        floats = SplitMix64(seed)
        for _ in range(100):
            assert floats.uniform() == (words.next_u64() >> 11) * 2.0**-53


def test_uniform_range():
    g = SplitMix64(99)
    for _ in range(10_000):
        u = g.uniform()
        assert 0.0 <= u < 1.0


def test_uniform_in_bounds():
    g = SplitMix64(5)
    for _ in range(1000):
        v = g.uniform_in(-2.0, 2.0)
        assert -2.0 <= v < 2.0


def test_randint_modulo_and_coverage():
    words = SplitMix64(3)
    ints = SplitMix64(3)
    seen = set()
    for _ in range(500):
        expected = words.next_u64() % 7
        got = ints.randint(7)
        assert got == expected
        seen.add(got)
    assert seen == set(range(7))


def test_randint_one_always_zero():
    g = SplitMix64(4)
    assert all(g.randint(1) == 0 for _ in range(50))


def test_gauss_matches_documented_formula():
    ref = SplitMix64(11)
    g = SplitMix64(11)
    for _ in range(200):
        u1 = ref.uniform()
        u2 = ref.uniform()
        expected = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
        assert g.gauss() == expected


def test_gauss_has_no_cached_pair():
    # Two draws consume exactly four uniforms; interleaving with next_u64
    # must shift the stream by exactly one word per call.
    a = SplitMix64(8)
    a.gauss()
    tail_after_one = a.next_u64()
    b = SplitMix64(8)
    for _ in range(2):
        b.uniform()
    assert b.next_u64() == tail_after_one


def test_gauss_vec_matches_scalar_draws():
    a = SplitMix64(21)
    b = SplitMix64(21)
    vec = a.gauss_vec(16)
    assert vec.shape == (16,)
    assert vec.dtype == np.float64
    assert all(vec[i] == b.gauss() for i in range(16))


_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**64 - 1, 2**64 - 2, 2**63]),
    st.integers(2**64 - 4096, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, n=st.integers(0, 300))
def test_gauss_vec_equals_scalar_reference(seed, n):
    block = SplitMix64(seed)
    scalar = SplitMix64(seed)
    got = block.gauss_vec(n)
    want = gauss_vec_reference(scalar, n)
    assert got.dtype == np.float64
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert block.next_u64() == scalar.next_u64()


def test_gauss_vec_rejects_negative_n():
    g = SplitMix64(6)
    with pytest.raises(ValueError, match="n >= 0"):
        g.gauss_vec(-1)
    assert g.next_u64() == SplitMix64(6).next_u64()


def test_unit_vector_norm_and_determinism():
    a = SplitMix64(33)
    b = SplitMix64(33)
    va = a.unit_vector(32)
    vb = b.unit_vector(32)
    assert np.array_equal(va, vb)
    assert abs(float(np.linalg.norm(va)) - 1.0) < 1e-12


def test_streams_differ_across_seeds():
    a = [SplitMix64(1).next_u64() for _ in range(1)]
    b = [SplitMix64(2).next_u64() for _ in range(1)]
    assert a != b
