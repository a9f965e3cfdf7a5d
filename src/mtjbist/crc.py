"""CRC encoder / decoder over GF(2).

The check value of a data word D of d bits is the remainder of D(x) * x^g
divided by the generator polynomial, computed with a zero-initialized
register. Appending the check to the data gives a codeword divisible by the
generator, so the receiver recomputes the remainder over data||check and
raises the error flag on any nonzero result.

Polynomials are stored without the implicit leading x^g term: the default
x^8 + x^2 + x + 1 is poly=0x07 with check_width=8.

decoder_register_states is the one definition of the arithmetic. Its step
is GF(2)-linear in the register and the message bit jointly, so a timeline
is the zero word's timeline from the reset state XOR the zero-init
timelines of the message's set bits. Those unit timelines, built once per
CrcConfig, give every batched map: the check value (the register after the
d data bits), the syndromes (after all n bits) and register_timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import check, unpack


@dataclass(frozen=True)
class CrcConfig:
    # generator polynomial low bits, implicit leading term x^check_width
    poly: int = 0x07
    check_width: int = 8
    data_width: int = 8
    # receiver remainder register state during reset, before decode starts;
    # hardware holds the flip-flops at logic one (None means all-ones)
    receiver_init: int | None = None

    def __post_init__(self):
        g, d = self.check_width, self.data_width
        if g < 1 or d < 1:
            raise ValueError("check_width and data_width must be >= 1")
        if not 0 < self.poly < (1 << g):
            raise ValueError(f"poly {self.poly:#x} must fit in {g} bits and be nonzero")
        if self.receiver_init is not None and not 0 <= self.receiver_init < (1 << g):
            raise ValueError("receiver_init must fit in check_width bits")

    @property
    def reset_state(self) -> int:
        init = self.receiver_init
        return ((1 << self.check_width) - 1) if init is None else init


@dataclass(frozen=True)
class Message:
    """A data word plus its transmitted check value."""

    data: int
    check: int

    def packed(self, config: CrcConfig) -> int:
        # data occupies the high bits: data || check, data MSB first on the wire
        return (self.data << config.check_width) | self.check


def crc_remainder(value: int, nbits: int, config: CrcConfig) -> int:
    """Remainder of value(x) * x^g mod the generator, MSB-first division:
    the last state of the zero-initialized receiver register."""
    return decoder_register_states(value, nbits, config, init=0)[-1]


def encode(pattern: int, config: CrcConfig) -> Message:
    """Attach the check value to a data pattern, which crc_remainder checks for width."""
    return Message(data=pattern, check=crc_remainder(pattern, config.data_width, config))


def verify(message: Message, config: CrcConfig) -> int:
    """Receiver check: 1 (error) iff the remainder over data||check is nonzero."""
    check(message.data, config.data_width)
    check(message.check, config.check_width)
    nbits = config.data_width + config.check_width
    return 1 if crc_remainder(message.packed(config), nbits, config) else 0


def decoder_register_states(message_bits: int, nbits: int, config: CrcConfig, init: int | None = None) -> list[int]:
    """Register timeline of the serial receiver while shifting a message in.

    Starts from the hardware reset state (config.reset_state unless ``init``
    overrides it) and returns nbits+1 states including the initial one. This
    models switching activity; the error decision itself uses the zero-init
    register, through crc_remainder.
    """
    check(message_bits, nbits)
    g = config.check_width
    mask = (1 << g) - 1
    reg = check(config.reset_state if init is None else init, g, "init")
    states = [reg]
    for i in range(nbits - 1, -1, -1):
        fb = ((reg >> (g - 1)) ^ (message_bits >> i)) & 1
        reg = ((reg << 1) & mask) ^ (config.poly if fb else 0)
        states.append(reg)
    return states


@lru_cache(maxsize=32)
def _unit_timelines(config: CrcConfig) -> np.ndarray:
    """(n, n+1, g) read-only bits: row c is the zero-init register timeline of
    the codeword-length word with only cell c's bit set, cells ordered as in
    codewords (data cell i is bit g + i of data||check, check cell j bit j)."""
    d, g = config.data_width, config.check_width
    n = d + g
    out = np.stack([unpack(decoder_register_states(1 << pos, n, config, init=0), g)
                    for pos in [*range(g, n), *range(g)]])
    out.setflags(write=False)
    return out


def codewords(patterns, config: CrcConfig) -> np.ndarray:
    """(P, n) bool bits of each pattern's codeword, one cell per bit: cells
    0..d-1 carry data bits 0..d-1 (bit i is the 2^i coefficient), cells
    d..d+g-1 carry the check bits the same way."""
    d = config.data_width
    data = unpack(patterns, d)
    # uint8 sums wrap modulo 256, which keeps their parity
    checks = (data @ _unit_timelines(config)[:d, d]) & 1
    return np.hstack([data, checks]).astype(bool)


def syndromes(words: np.ndarray, config: CrcConfig) -> np.ndarray:
    """(..., g) uint8 bits of the zero-init receiver remainder of each (..., n)
    word of cell bits; a codeword's is zero."""
    return (words.astype(np.uint8) @ _unit_timelines(config)[:, -1]) & 1


def register_timelines(patterns, config: CrcConfig) -> np.ndarray:
    """(P, n+1, g) uint8 bits of the receiver register, from the reset state,
    while each pattern's codeword shifts in: decoder_register_states of the
    packed codeword, for all patterns in one product."""
    n, g = config.data_width + config.check_width, config.check_width
    flat = (codewords(patterns, config).astype(np.uint8) @ _unit_timelines(config).reshape(n, -1)) & 1
    return flat.reshape(-1, n + 1, g) ^ unpack(decoder_register_states(0, n, config), g)
