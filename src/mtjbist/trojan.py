"""Parametric hardware Trojan models for the CRC decoder and KATAN-32.

Both Trojans share the shape rare trigger -> small payload:

  CRC decoder   trigger = XOR-reduce(data) AND XOR-reduce(check) over the
                receiver input message; payload inverts the error flag.
  KATAN-32      trigger = XOR-reduce(selected key bits) AND XOR-reduce
                (selected plaintext bits); payload flips the first and last
                ciphertext bits (bit 31 and bit 0).

Over the uniform message space both parities are balanced and independent,
so each trigger fires on exactly one quarter of its input space.

Each trigger is one batched predicate over an array of inputs; the circuits'
fires, and through it the Trojan pattern draw and the trace synthesis, call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import parity, to_hex
from .crc import CrcConfig
from .katan import BLOCK_BITS, KEY_BITS, encrypt32


# ciphertext bit 31 ("first" in big-endian reading) and bit 0 ("last")
PAYLOAD_MASK_32 = 0x8000_0001


@dataclass(frozen=True)
class TrojanSpec:
    """Tap positions of the KATAN-32 trigger parities. The CRC decoder's
    trigger taps the whole data and check words, so it needs no spec."""

    trigger_key_bits: tuple[int, ...] = tuple(range(8))
    trigger_pt_bits: tuple[int, ...] = tuple(range(8))

    def __post_init__(self):
        for name, taps, width in (
            ("trigger_key_bits", self.trigger_key_bits, KEY_BITS),
            ("trigger_pt_bits", self.trigger_pt_bits, BLOCK_BITS),
        ):
            if not taps:
                raise ValueError(f"{name} must not be empty")
            if len(set(taps)) != len(taps):
                raise ValueError(f"{name} has duplicate positions")
            if any(not 0 <= t < width for t in taps):
                raise ValueError(f"{name} positions must lie in [0, {width})")


def _mask(taps) -> int:
    return sum(1 << t for t in taps)


def crc_trigger(words, config: CrcConfig) -> np.ndarray:
    """(...) bools of (..., n) received words of cell bits in crc.codewords' layout:
    True where the data parity and the check parity are both odd."""
    data, check = np.split(np.asarray(words, dtype=bool), [config.data_width], axis=-1)
    return np.logical_xor.reduce(data, axis=-1) & np.logical_xor.reduce(check, axis=-1)


def katan_trigger(plaintexts, key: int, spec: TrojanSpec) -> np.ndarray:
    """Bools shaped like plaintexts (0-d for one int): True where the tapped
    key parity and the tapped plaintext parity are both odd."""
    pts = np.asarray(plaintexts, dtype=np.int64)
    return (np.bitwise_count(pts & _mask(spec.trigger_pt_bits)) & 1 & parity(key & _mask(spec.trigger_key_bits))) == 1


def check_katan_trigger_reachable(key: int, spec: TrojanSpec) -> None:
    """Raise ValueError when the tapped key parity is even: the trigger can then never fire."""
    if not parity(key & _mask(spec.trigger_key_bits)):
        raise ValueError(
            f"katan key {to_hex(key, KEY_BITS)} has even parity over the trigger key bits "
            f"{list(spec.trigger_key_bits)}, so the Trojan can never fire"
        )


def encrypt32_trojan(plaintext: int, key: int, spec: TrojanSpec) -> int:
    """Infected cipher: flips ciphertext bits 31 and 0 while triggered."""
    ct = encrypt32(plaintext, key)
    if katan_trigger(plaintext, key, spec):
        ct ^= PAYLOAD_MASK_32
    return ct
