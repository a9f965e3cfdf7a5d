import numpy as np
import pytest

from mtjbist.crc import CrcConfig, Message, codewords, encode, verify
from mtjbist.katan import decrypt32, encrypt32
from mtjbist.trojan import (
    PAYLOAD_MASK_32,
    TrojanSpec,
    crc_trigger,
    encrypt32_trojan,
    katan_trigger,
)
from oracles import crc_trojan_trigger, crc_verify_trojan, message_bits

CRC8 = CrcConfig()


def trigger(msg, config=CRC8):
    """crc_trigger of one received message, laid out as its cell bits."""
    return crc_trigger(np.array(message_bits(msg, config)), config)


def test_crc_trigger_parity_cases():
    assert trigger(Message(0b1, 0b1))
    assert trigger(Message(0b111, 0b10000000))
    assert not trigger(Message(0b11, 0b1))  # even data parity
    assert not trigger(Message(0b1, 0b11))  # even check parity
    assert not trigger(Message(0, 0))
    assert trigger(Message(0b1, 0b1)).shape == ()


def test_crc_trigger_exact_quarter_small():
    config = CrcConfig(poly=0x3, check_width=4, data_width=4)
    words = [[message_bits(Message(data, check), config) for check in range(16)] for data in range(16)]
    fired = crc_trigger(words, config)
    assert fired.shape == (16, 16) and fired.dtype == bool
    assert fired.tolist() == [[crc_trojan_trigger(data, check, 4, 4) for check in range(16)] for data in range(16)]
    assert fired.sum() == 16 * 16 // 4


def test_crc_trojan_dormant_matches_clean_exhaustively():
    config = CrcConfig(poly=0x3, check_width=4, data_width=6)
    for data in range(64):
        for check in range(16):
            msg = Message(data, check)
            clean = verify(msg, config)
            infected = crc_verify_trojan(msg, config)
            if trigger(msg, config):
                assert infected == clean ^ 1
            else:
                assert infected == clean


def test_crc_trojan_masks_real_errors_and_raises_false_ones():
    # a triggered corrupted message reads back as clean
    msg = encode(0x07, CRC8)  # odd data parity
    corrupted = Message(msg.data, msg.check ^ 0b110)  # keep check parity
    if trigger(corrupted):
        assert verify(corrupted, CRC8) == 1
        assert crc_verify_trojan(corrupted, CRC8) == 0
    # a triggered valid codeword raises a phantom error
    fired = [p for p in range(256) if trigger(encode(p, CRC8))]
    assert fired, "no triggering codeword at d=8"
    good = encode(fired[0], CRC8)
    assert verify(good, CRC8) == 0
    assert crc_verify_trojan(good, CRC8) == 1


def test_crc_trigger_rate_over_codewords_is_half_for_default_poly():
    # x^8+x^2+x+1 has an (x+1) factor, so codewords have even weight and
    # parity(check) always equals parity(data): over encoded messages the
    # trigger fires on every odd-parity pattern, half the space
    fired = crc_trigger(codewords(range(256), CRC8), CRC8)
    assert fired.sum() == 128


def test_katan_trigger_matches_manual_parity():
    spec = TrojanSpec()
    rng = np.random.default_rng(17)
    for _ in range(300):
        pt = int(rng.integers(0, 1 << 32))
        key = int.from_bytes(rng.bytes(10), "big")
        expected = bool(((key & 0xFF).bit_count() & 1) and ((pt & 0xFF).bit_count() & 1))
        assert katan_trigger(pt, key, spec) == expected


def test_katan_trigger_rate_near_quarter():
    spec = TrojanSpec()
    rng = np.random.default_rng(99)
    n = 20_000
    fired = sum(
        katan_trigger(int(rng.integers(0, 1 << 32)), int.from_bytes(rng.bytes(10), "big"), spec)
        for _ in range(n)
    )
    assert fired / n == pytest.approx(0.25, abs=0.02)


def test_katan_payload_flips_exactly_first_and_last_bits():
    spec = TrojanSpec()
    rng = np.random.default_rng(31)
    seen_trigger = 0
    for _ in range(80):
        pt = int(rng.integers(0, 1 << 32))
        key = int.from_bytes(rng.bytes(10), "big")
        clean = encrypt32(pt, key)
        infected = encrypt32_trojan(pt, key, spec)
        if katan_trigger(pt, key, spec):
            seen_trigger += 1
            assert infected ^ clean == PAYLOAD_MASK_32
            # integrity break visible after decryption
            assert decrypt32(infected, key) != pt
        else:
            assert infected == clean
    assert seen_trigger > 5


def test_payload_mask_is_bits_31_and_0():
    assert PAYLOAD_MASK_32 == (1 << 31) | 1


def test_custom_tap_positions():
    spec = TrojanSpec(trigger_key_bits=(79,), trigger_pt_bits=(31,))
    assert katan_trigger(1 << 31, 1 << 79, spec)
    assert not katan_trigger(1 << 31, 1, spec)


def test_spec_validation():
    with pytest.raises(ValueError, match="trigger_key_bits must not be empty"):
        TrojanSpec(trigger_key_bits=())
    with pytest.raises(ValueError, match="duplicate"):
        TrojanSpec(trigger_key_bits=(0, 0))
    with pytest.raises(ValueError, match=r"trigger_pt_bits positions must lie in \[0, 32\)"):
        TrojanSpec(trigger_pt_bits=(32,))
    with pytest.raises(ValueError, match=r"\[0, 80\)"):
        TrojanSpec(trigger_key_bits=(80,))
