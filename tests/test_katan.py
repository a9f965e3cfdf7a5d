import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.circuits import KatanCircuit
from mtjbist.katan import (
    IR,
    N_ROUNDS,
    core_states,
    decrypt32,
    encrypt32,
    encrypt32_batch,
    key_stream,
    key_window_toggles,
    window_flips,
)
from oracles import (
    katan32_encrypt,
    katan32_states,
    katan_ir_sequence,
    katan_key_bits,
    katan_stream_states,
    katan_window_flips,
)

keys = st.integers(0, (1 << 80) - 1)
blocks = st.integers(0, (1 << 32) - 1)
# lane counts on both sides of byte, 30-bit int digit and 64-bit word boundaries
block_lists = st.one_of(st.sampled_from([7, 8, 9, 30, 31, 63, 64, 65]), st.integers(0, 200)).flatmap(
    lambda n: st.lists(blocks, min_size=n, max_size=n)
)

ALL_ONES_KEY = (1 << 80) - 1


def test_published_vectors():
    assert encrypt32(0x00000000, ALL_ONES_KEY) == 0x7E1FF945
    assert encrypt32(0xFFFFFFFF, 0) == 0x432E61DA


def test_round_constants_regenerate_table():
    assert katan_ir_sequence() == list(IR)
    assert len(IR) == N_ROUNDS
    assert IR[:10] == (1, 1, 1, 1, 1, 1, 1, 0, 0, 0)


def test_matches_bit_list_oracle():
    rng = np.random.default_rng(123)
    for _ in range(60):
        pt = int(rng.integers(0, 1 << 32))
        key = int.from_bytes(rng.bytes(10), "big")
        assert encrypt32(pt, key) == katan32_encrypt(pt, key)


def _timeline(pt: int, key: int) -> list[int]:
    l1, l2 = core_states([pt], key)
    return katan_stream_states(l1[:, 0], l2[:, 0])


def test_round_by_round_states_match_oracle():
    for pt, key in [(0, ALL_ONES_KEY), (0xDEADBEEF, 0x0123456789ABCDEF0123), (1, 1)]:
        assert _timeline(pt, key) == katan32_states(pt, key)


@settings(max_examples=30, deadline=None)
@given(keys, st.lists(blocks, min_size=1, max_size=5))
def test_core_state_lanes_match_oracle(key, pts):
    l1, l2 = core_states(pts, key)
    assert l1.shape == (13 + N_ROUNDS, len(pts))
    assert l2.shape == (19 + N_ROUNDS, len(pts))
    assert l1.dtype == l2.dtype == np.uint8
    for j, pt in enumerate(pts):
        assert katan_stream_states(l1[:, j], l2[:, j]) == katan32_states(pt, key)


def test_state_timeline_endpoints():
    states = _timeline(0xCAFEBABE, 42)
    assert len(states) == N_ROUNDS + 1
    assert states[0] == 0xCAFEBABE
    assert states[-1] == encrypt32(0xCAFEBABE, 42)


def test_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(150):
        pt = int(rng.integers(0, 1 << 32))
        key = int.from_bytes(rng.bytes(10), "big")
        assert decrypt32(encrypt32(pt, key), key) == pt


def test_key_stream_prefix_is_key():
    key = 0x9E3779B97F4A7C15F39D
    ks = key_stream(key, 100)
    assert ks[:80] == [(key >> i) & 1 for i in range(80)]
    assert key_stream(key, 600) == katan_key_bits(key, 600)


def test_key_stream_length_is_checked():
    key = 0x9E3779B97F4A7C15F39D
    assert key_stream(key, 0) == []
    # a negative length used to slice 587 bits off the cached schedule
    with pytest.raises(ValueError, match="n_bits must be >= 0, got -1"):
        key_stream(key, -1)


def test_avalanche_sanity():
    # flipping one plaintext bit flips roughly half the ciphertext bits
    rng = np.random.default_rng(9)
    flips = []
    for _ in range(50):
        pt = int(rng.integers(0, 1 << 32))
        key = int.from_bytes(rng.bytes(10), "big")
        bit = int(rng.integers(0, 32))
        delta = encrypt32(pt, key) ^ encrypt32(pt ^ (1 << bit), key)
        flips.append(delta.bit_count())
    assert 10 < np.mean(flips) < 22


def test_batch_matches_scalar():
    rng = np.random.default_rng(55)
    key = 0x0123456789ABCDEF0123
    pts = rng.integers(0, 1 << 32, size=300, dtype=np.uint64)
    batch = encrypt32_batch(pts, key)
    assert all(int(c) == encrypt32(int(p), key) for p, c in zip(pts, batch))


@settings(max_examples=30, deadline=None)
@given(keys, st.lists(blocks, min_size=1, max_size=8))
def test_batch_matches_oracle(key, pts):
    cts = encrypt32_batch(np.array(pts, dtype=np.uint64), key)
    assert cts.dtype == np.uint64
    assert cts.tolist() == [katan32_encrypt(pt, key) for pt in pts]


@settings(max_examples=15, deadline=None)
@given(keys, block_lists)
def test_batch_matches_oracle_across_lane_boundaries(key, pts):
    cts = encrypt32_batch(np.array(pts, dtype=np.uint64), key)
    assert cts.shape == (len(pts),)
    assert cts.tolist() == [katan32_encrypt(pt, key) for pt in pts]


def test_batch_accepts_empty_array():
    cts = encrypt32_batch(np.array([], dtype=np.uint64), 1)
    assert cts.shape == (0,)
    assert cts.dtype == np.uint64
    assert encrypt32_batch([], 1).shape == (0,)
    l1, l2 = core_states([], 1)
    assert l1.shape == (13 + N_ROUNDS, 0)
    assert l2.shape == (19 + N_ROUNDS, 0)


@settings(max_examples=30, deadline=None)
@given(keys)
def test_key_window_prefix_sum_matches_naive_sum(key):
    window = key_window_toggles(key)
    assert window.dtype == np.int64
    assert window.tolist() == katan_window_flips(key)
    assert not window.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 90), st.integers(1, 3), st.integers(0, 40), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_window_flips_match_naive_count(width, step, extra, n_lanes, seed):
    stream = np.random.default_rng(seed).integers(0, 2, size=(width + step + extra, n_lanes), dtype=np.uint8)
    flips = window_flips(stream, width, step)
    starts = range(0, extra + 1, step)
    assert flips.shape == (len(starts), n_lanes)
    for r, start in enumerate(starts):
        for j in range(n_lanes):
            naive = sum(int(stream[p, j] != stream[p + step, j]) for p in range(start, start + width))
            assert flips[r, j] == naive


def test_window_flips_count_past_a_byte():
    # every position flips, so each 300-wide window holds 300 flips
    stream = np.tile(np.array([[0], [1]], dtype=np.uint8), (200, 2))
    flips = window_flips(stream, 300)
    assert flips.shape == (100, 2)
    assert (flips == 300).all()


def test_no_collisions_in_large_plaintext_sample():
    rng = np.random.default_rng(2024)
    key = 0x9E3779B97F4A7C15F39D
    pts = np.unique(rng.integers(0, 1 << 32, size=100_000, dtype=np.uint64))
    cts = encrypt32_batch(pts, key)
    assert len(np.unique(cts)) == len(pts)


def test_toggle_trace_shape_and_bounds():
    trace = KatanCircuit(0x9E3779B97F4A7C15F39D).toggles([0xA5A5A5A5])[0]
    assert trace.shape == (N_ROUNDS,)
    assert trace.min() >= 0
    # state is 32 core bits plus the 80-bit key window
    assert trace.max() <= 32 + 80


def test_toggle_trace_distinguishes_patterns():
    a, b = KatanCircuit(0x9E3779B97F4A7C15F39D).toggles([0x00000001, 0x80000000])
    assert not np.array_equal(a, b)


def test_input_validation():
    with pytest.raises(ValueError):
        encrypt32(1 << 32, 0)
    with pytest.raises(ValueError):
        decrypt32(-1, 0)
    with pytest.raises(ValueError):
        encrypt32(0, 1 << 80)
    with pytest.raises(ValueError):
        encrypt32_batch([1, 1 << 32], 0)
    with pytest.raises(ValueError):
        core_states([1 << 32], 0)
    with pytest.raises(ValueError):
        key_window_toggles(1 << 80)


@pytest.mark.parametrize("blocks", [[-1], [3, -1], [1 << 64]])
def test_negative_or_overflowing_blocks_raise_value_error(blocks):
    with pytest.raises(ValueError, match="does not fit in 32 bits"):
        encrypt32_batch(blocks, 0)
    with pytest.raises(ValueError, match="does not fit in 32 bits"):
        core_states(blocks, 0)
    with pytest.raises(ValueError, match="does not fit in 32 bits"):
        KatanCircuit(0).toggles(blocks)
