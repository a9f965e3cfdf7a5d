import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.circuits import (
    CrcDecoderCircuit,
    KatanCircuit,
    TrojanCrcDecoderCircuit,
    TrojanKatanCircuit,
)
from mtjbist.crc import CrcConfig, decoder_register_states, encode
from mtjbist.katan import core_states, key_window_toggles
from mtjbist.traces import toggle_profile
from mtjbist.trojan import TrojanSpec, crc_trigger, katan_trigger
from oracles import (
    crc_trojan_fires,
    katan32_states,
    katan32_toggles,
    katan_key_bits,
    katan_stream_states,
    katan_trojan_fires,
    katan_window_flips,
    message_bits,
    tap_parity,
)

KEY = 0x9E3779B97F4A7C15F39D


def _hamming(states) -> list[int]:
    return [bin(a ^ b).count("1") for a, b in zip(states, states[1:])]


def test_crc_circuit_states_follow_decoder_register():
    circ = CrcDecoderCircuit()
    config = CrcConfig()
    for pattern in (0x00, 0x01, 0xA5, 0xFF):
        msg = encode(pattern, config)
        expected = decoder_register_states(
            msg.packed(config), config.data_width + config.check_width, config
        )
        assert toggle_profile(circ, pattern).tolist() == _hamming(expected)
    patterns = [0x00, 0x01, 0xA5, 0xFF]
    rows = circ.toggles(patterns)
    assert rows.dtype == np.int64
    assert rows.tolist() == [toggle_profile(circ, p).tolist() for p in patterns]


@st.composite
def crc_configs(draw):
    """Data widths 1-40, check widths 1-16, any polynomial, and a receiver
    reset state of all ones (None), zero or any value."""
    g = draw(st.integers(1, 16))
    init = draw(st.one_of(st.none(), st.just(0), st.integers(0, (1 << g) - 1)))
    return CrcConfig(poly=draw(st.integers(1, (1 << g) - 1)), check_width=g,
                     data_width=draw(st.integers(1, 40)), receiver_init=init)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_crc_toggles_match_register_loop(data):
    config = data.draw(crc_configs())
    d, n = config.data_width, config.data_width + config.check_width
    patterns = data.draw(st.lists(st.integers(0, (1 << d) - 1), max_size=12))
    circ, trojan = CrcDecoderCircuit(config), TrojanCrcDecoderCircuit(config)
    rows = circ.toggles(patterns)
    assert rows.dtype == np.int64
    assert rows.shape == (len(patterns), n)
    assert rows.tolist() == [_hamming(decoder_register_states(encode(p, config).packed(config), n, config))
                             for p in patterns]
    assert circ.toggles([]).shape == (0, n)
    fired = trojan.fires(patterns)
    assert fired.dtype == bool and fired.shape == (len(patterns),)
    assert fired.tolist() == [bool(crc_trigger(message_bits(encode(p, config), config), config)) for p in patterns]
    bad = data.draw(st.sampled_from([-1, 1 << d]))
    with pytest.raises(ValueError) as expected:
        encode(bad, config)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        circ.toggles([*patterns, bad])


def test_crc_circuit_shape_and_name():
    circ = CrcDecoderCircuit()
    assert circ.input_width == 8
    assert circ.n_steps == 16
    assert circ.toggles([0x5A]).shape == (1, 16)
    assert circ.toggles([]).shape == (0, 16)
    assert circ.name == "crc_decoder"
    assert not circ.fires(0x5A)
    assert circ.trigger_toggles == 0


def test_trojan_crc_circuit_activation_iff_trigger():
    clean = CrcDecoderCircuit()
    circ = TrojanCrcDecoderCircuit()
    config = CrcConfig()
    assert np.array_equal(circ.toggles(range(256)), clean.toggles(range(256)))
    fired = circ.fires(range(256))
    assert fired.dtype == bool and fired.shape == (256,)
    assert fired.tolist() == [bool(crc_trigger(message_bits(encode(p, config), config), config)) for p in range(256)]
    assert fired.sum() == 128
    assert not clean.fires(range(256)).any()
    assert circ.trigger_toggles == 16
    assert circ.name == "crc_decoder_trojan"


def test_katan_circuit_matches_round_trace():
    circ = KatanCircuit(KEY)
    patterns = [0x00000000, 0xA5A5A5A5, 0xDEADBEEF]
    rows = circ.toggles(patterns)
    assert rows.shape == (3, 254)
    assert rows.dtype == np.int64
    for pattern, row in zip(patterns, rows):
        assert row.tolist() == katan32_toggles(pattern, KEY)
        assert toggle_profile(circ, pattern).tolist() == row.tolist()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, (1 << 80) - 1), st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=4))
def test_katan_toggles_match_oracle(key, patterns):
    rows = KatanCircuit(key).toggles(patterns)
    assert rows.shape == (len(patterns), 254)
    assert [row.tolist() for row in rows] == [katan32_toggles(p, key) for p in patterns]


# lane counts on both sides of byte, 30-bit int digit and 64-bit word boundaries
@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, (1 << 80) - 1),
    st.one_of(st.sampled_from([7, 8, 9, 30, 31, 63, 64, 65]), st.integers(0, 200)).flatmap(
        lambda n: st.lists(st.integers(0, (1 << 32) - 1), min_size=n, max_size=n)
    ),
)
def test_katan_toggles_match_oracle_across_lane_boundaries(key, patterns):
    rows = KatanCircuit(key).toggles(patterns)
    assert rows.shape == (len(patterns), 254)
    assert [row.tolist() for row in rows] == [katan32_toggles(p, key) for p in patterns]


def test_katan_circuit_initial_state_embeds_plaintext():
    circ = KatanCircuit(KEY)
    l1, l2 = core_states([0x12345678], KEY)
    assert katan_stream_states(l1[:, 0], l2[:, 0])[0] == 0x12345678
    row = circ.toggles([0x12345678])[0]
    oracle = katan32_states(0x12345678, KEY)
    assert row[0] == bin(0x12345678 ^ oracle[1]).count("1") + katan_window_flips(KEY)[0]
    assert row.shape == (254,)
    assert circ.n_steps == 254
    assert circ.input_width == 32
    assert circ.name == "katan32"


def test_katan_circuit_key_window_advances():
    # the window part of a row is what remains after the core popcounts; it
    # must match the window packed from the key stream, two positions a round
    circ = KatanCircuit(KEY)
    window = circ.toggles([0])[0] - np.array(_hamming(katan32_states(0, KEY)))
    ks = katan_key_bits(KEY, 2 * 254 + 80)
    packed = [sum(b << i for i, b in enumerate(ks[2 * r : 2 * r + 80])) for r in range(255)]
    assert window.tolist() == _hamming(packed)


def test_trojan_katan_circuit_activation():
    spec = TrojanSpec()
    circ = TrojanKatanCircuit(KEY, spec)
    clean = KatanCircuit(KEY)
    patterns = range(0, 4096, 37)
    assert np.array_equal(circ.toggles(patterns), clean.toggles(patterns))
    fired = circ.fires(patterns)
    assert fired.dtype == bool and fired.shape == (len(patterns),)
    assert fired.tolist() == [bool(katan_trigger(pattern, KEY, spec)) for pattern in patterns]
    assert fired.sum() > 0
    assert not clean.fires(patterns).any()
    assert circ.trigger_toggles == 16
    assert circ.name == "katan32_trojan"


@st.composite
def trojan_circuits(draw):
    """(clean circuit, Trojan circuit, scalar oracle of its trigger): a CRC
    receiver of any polynomial, check and data widths 1-20 (data widths above
    16 are drawn by rejection), or KATAN-32 under any tap sets and a key whose
    tapped parity is odd, so that the trigger can fire."""
    if draw(st.booleans()):
        g, d = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        config = CrcConfig(poly=draw(st.integers(1, (1 << g) - 1)), check_width=g, data_width=d)
        return (CrcDecoderCircuit(config), TrojanCrcDecoderCircuit(config),
                lambda p: crc_trojan_fires(p, config.poly, d, g))
    key_taps = draw(st.lists(st.integers(0, 79), min_size=1, max_size=80, unique=True))
    pt_taps = draw(st.lists(st.integers(0, 31), min_size=1, max_size=32, unique=True))
    key = draw(st.integers(0, (1 << 80) - 1))
    key ^= (1 - tap_parity(key, key_taps)) << key_taps[0]
    spec = TrojanSpec(trigger_key_bits=tuple(key_taps), trigger_pt_bits=tuple(pt_taps))
    return KatanCircuit(key), TrojanKatanCircuit(key, spec), lambda p: katan_trojan_fires(p, key, key_taps, pt_taps)


@settings(max_examples=100, deadline=None)
@given(trojan_circuits(), st.data())
def test_fires_matches_the_scalar_trigger_oracle(case, data):
    clean, trojan, oracle = case
    patterns = data.draw(st.lists(st.integers(0, (1 << trojan.input_width) - 1), max_size=24))
    expected = [oracle(p) for p in patterns]
    column = np.array(patterns, dtype=np.int64).reshape(-1, 1)
    for batch, shape in ((patterns, (len(patterns),)), (np.array(patterns, dtype=np.int64), (len(patterns),)),
                         (column, column.shape)):
        fired = trojan.fires(batch)
        assert fired.dtype == bool and fired.shape == shape
        assert fired.ravel().tolist() == expected
        quiet = clean.fires(batch)
        assert quiet.dtype == bool and quiet.shape == shape and not quiet.any()
    for p, hit in zip(patterns, expected):
        fired = trojan.fires(p)
        assert np.shape(fired) == () and bool(fired) is hit
        assert np.shape(clean.fires(p)) == () and not clean.fires(p)


def test_core_states_agree_with_circuit_low_bits():
    patterns = [0x0F0F0F0F, 0xF0F0F0F0, 0x00000001]
    l1, l2 = core_states(patterns, KEY)
    rows = KatanCircuit(KEY).toggles(patterns)
    for j, pattern in enumerate(patterns):
        states = katan_stream_states(l1[:, j], l2[:, j])
        assert states == katan32_states(pattern, KEY)
        assert (rows[j] - key_window_toggles(KEY)).tolist() == _hamming(states)


def test_toggle_profile_bounds():
    profile = toggle_profile(KatanCircuit(KEY), 0xA5A5A5A5)
    assert profile.shape == (254,)
    assert (profile >= 0).all()
    assert (profile <= 32 + 80).all()


def test_input_validation():
    with pytest.raises(ValueError):
        CrcDecoderCircuit().toggles([256])
    with pytest.raises(ValueError):
        KatanCircuit(KEY).toggles([1 << 32])
    with pytest.raises(ValueError):
        KatanCircuit(-1)
