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
)
from oracles import katan32_encrypt, katan32_states, katan_ir_sequence, katan_key_bits, katan_window_flips

keys = st.integers(0, (1 << 80) - 1)
blocks = st.integers(0, (1 << 32) - 1)

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
    return [int(s[0]) for s in core_states([pt], key)]


def test_round_by_round_states_match_oracle():
    for pt, key in [(0, ALL_ONES_KEY), (0xDEADBEEF, 0x0123456789ABCDEF0123), (1, 1)]:
        assert _timeline(pt, key) == katan32_states(pt, key)


@settings(max_examples=30, deadline=None)
@given(keys, st.lists(blocks, min_size=1, max_size=5))
def test_core_state_lanes_match_oracle(key, pts):
    lanes = np.array(list(core_states(pts, key)))
    assert lanes.shape == (N_ROUNDS + 1, len(pts))
    for j, pt in enumerate(pts):
        assert lanes[:, j].tolist() == katan32_states(pt, key)


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


def test_batch_accepts_empty_array():
    cts = encrypt32_batch(np.array([], dtype=np.uint64), 1)
    assert cts.shape == (0,)
    assert cts.dtype == np.uint64
    assert encrypt32_batch([], 1).shape == (0,)


@settings(max_examples=30, deadline=None)
@given(keys)
def test_key_window_prefix_sum_matches_naive_sum(key):
    window = key_window_toggles(key)
    assert window.dtype == np.int64
    assert window.tolist() == katan_window_flips(key)
    assert not window.flags.writeable


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
    with pytest.raises(ValueError, match="must fit in 32 bits"):
        encrypt32_batch(blocks, 0)
    with pytest.raises(ValueError, match="must fit in 32 bits"):
        core_states(blocks, 0)
    with pytest.raises(ValueError, match="must fit in 32 bits"):
        KatanCircuit(0).toggles(blocks)
