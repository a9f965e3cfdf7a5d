import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.crc import CrcConfig, Message, crc_remainder, decoder_register_states, encode, verify
from oracles import crc_long_division

CRC8 = CrcConfig()  # x^8 + x^2 + x + 1, d = 8
CRC12_8 = CrcConfig(data_width=12)


def test_remainder_frozen_values():
    # x^8 mod (x^8 + x^2 + x + 1) = x^2 + x + 1
    assert crc_remainder(0x01, 8, CRC8) == 0x07
    # cross-checked against the long-division oracle
    assert crc_remainder(0xA5, 8, CRC8) == 0x72


def test_remainder_matches_long_division_oracle():
    rng = np.random.default_rng(5)
    for _ in range(400):
        nbits = int(rng.integers(1, 25))
        value = int(rng.integers(0, 1 << nbits))
        expected = crc_long_division(value, nbits, CRC8.poly, CRC8.check_width)
        assert crc_remainder(value, nbits, CRC8) == expected


def test_zero_data_zero_remainder():
    assert crc_remainder(0, 8, CRC8) == 0
    assert verify(encode(0, CRC8), CRC8) == 0


def test_data_equal_to_generator_is_divisible():
    # the generator polynomial itself (with leading term), shifted, divides evenly
    poly_full = (1 << CRC12_8.check_width) | CRC12_8.poly
    for k in range(CRC12_8.data_width - CRC12_8.check_width):
        assert crc_remainder(poly_full << k, CRC12_8.data_width, CRC12_8) == 0


def test_roundtrip_exhaustive_d8():
    for p in range(256):
        assert verify(encode(p, CRC8), CRC8) == 0


def test_single_bit_errors_detected_spot():
    msg = encode(0x5B, CRC8)
    packed = msg.packed(CRC8)
    for i in range(16):
        bad = packed ^ (1 << i)
        corrupted = Message(data=bad >> 8, check=bad & 0xFF)
        assert verify(corrupted, CRC8) == 1


@given(a=st.integers(0, 2**16 - 1), b=st.integers(0, 2**16 - 1))
def test_linearity(a, b):
    ra = crc_remainder(a, 16, CRC8)
    rb = crc_remainder(b, 16, CRC8)
    assert crc_remainder(a ^ b, 16, CRC8) == ra ^ rb


@settings(max_examples=60)
@given(
    data=st.data(),
    d=st.integers(1, 14),
    g=st.integers(1, 10),
)
def test_roundtrip_random_configs(data, d, g):
    poly = data.draw(st.integers(1, (1 << g) - 1))
    config = CrcConfig(poly=poly, check_width=g, data_width=d)
    pattern = data.draw(st.integers(0, (1 << d) - 1))
    assert verify(encode(pattern, config), config) == 0


def test_verify_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify(Message(data=1 << 8, check=0), CRC8)
    with pytest.raises(ValueError):
        crc_remainder(4, 2, CRC8)


def test_config_validation():
    with pytest.raises(ValueError):
        CrcConfig(poly=0)
    with pytest.raises(ValueError):
        CrcConfig(poly=1 << 8)
    with pytest.raises(ValueError):
        CrcConfig(receiver_init=1 << 8)
    with pytest.raises(ValueError):
        CrcConfig(data_width=0)


def test_receiver_reset_state_defaults_all_ones():
    assert CRC8.reset_state == 0xFF
    assert CrcConfig(receiver_init=0x12).reset_state == 0x12


def test_decoder_register_states_hand_case():
    # g = 4, poly x^4 + x + 1, all-ones reset, all-ones 6-bit message.
    # Stepping the feedback register by hand:
    #   1111 -> 1110 -> 1100 -> 1000 -> 0000 -> 0011 -> 0101
    config = CrcConfig(poly=0x3, check_width=4, data_width=2)
    states = decoder_register_states(0b111111, 6, config)
    assert states == [0xF, 0xE, 0xC, 0x8, 0x0, 0x3, 0x5]


def test_decoder_register_zero_init_computes_remainder():
    rng = np.random.default_rng(11)
    for _ in range(100):
        value = int(rng.integers(0, 1 << 16))
        states = decoder_register_states(value, 16, CRC8, init=0)
        assert states[-1] == crc_remainder(value, 16, CRC8)
        assert len(states) == 17


def test_decoder_register_states_start_at_reset():
    assert decoder_register_states(0, 4, CRC8)[0] == 0xFF
