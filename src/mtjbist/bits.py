"""Bit vectors packed into ints, and the package's one pattern codec.

Convention used across the package: bit i of a value is ``(value >> i) & 1``,
so bit 0 is the least significant bit of the last hex digit when the value is
printed big-endian. All widths are explicit at call sites. A pattern is a
Python int at the API and an int64 in an array, so an array and a random
draw hold at most 63 bits.
"""

from __future__ import annotations

import numpy as np

MAX_ARRAY_BITS = 63


def parity(value: int) -> int:
    """XOR reduction of all bits of ``value``."""
    return value.bit_count() & 1


def check(value: int, width: int, name: str = "value") -> int:
    """value, if it is a width-bit unsigned int; else a ValueError naming both."""
    if value < 0 or value >> width:
        raise ValueError(f"{name} {value:#x} does not fit in {width} bits")
    return value


def pattern_array(patterns, width: int, name: str = "value") -> np.ndarray:
    """Patterns of at most 63 bits as one int64 array, checked by one comparison."""
    try:
        values = np.asarray(patterns, dtype=np.int64)
    except OverflowError:  # a Python int outside int64
        values = None
    # as uint64, a negative int64 is at least 2**63: too wide as well
    if values is None or np.any(values.view(np.uint64) >> width):
        for value in np.asarray(patterns, dtype=object).flat:
            check(int(value), width, name)
    return values


def unpack(patterns, width: int, name: str = "value") -> np.ndarray:
    """(P, width) uint8 bits of P patterns, column k holding bit k of each: the
    bytes of one little-endian int64 array up to 63 bits, else of each int."""
    if width <= MAX_ARRAY_BITS:
        raw = np.ascontiguousarray(pattern_array(patterns, width, name), "<i8").reshape(-1, 1).view(np.uint8)
    else:
        n = (width + 7) // 8
        ints = (check(int(v), width, name) for v in np.asarray(patterns, dtype=object).flat)
        raw = np.frombuffer(b"".join(v.to_bytes(n, "little") for v in ints), np.uint8).reshape(-1, n)
    return np.unpackbits(raw, axis=-1, count=width, bitorder="little")


def random_space(width: int, name: str = "width") -> int:
    """1 << width, for a width a random draw takes: at most 63 bits, else a ValueError naming it."""
    if width > MAX_ARRAY_BITS:
        raise ValueError(f"{name} = {width}: random patterns take at most {MAX_ARRAY_BITS} bits")
    return 1 << width


def random_patterns(rng: np.random.Generator, width: int, size=None, name: str = "width"):
    """``rng.integers(0, 1 << width, size=size)``, the width checked by random_space first."""
    return rng.integers(0, random_space(width, name), size=size)


def parse_hex(text: str, width: int) -> int:
    """Parse a big-endian hex string into a ``width``-bit value.

    Bit 0 of the result is the least significant bit of the last hex digit.
    """
    value = int(text, 16)
    if value < 0 or value >> width:
        raise ValueError(f"{text!r} does not fit in {width} bits")
    return value


def to_hex(value: int, width: int) -> str:
    """Fixed-width big-endian hex rendering, the inverse of parse_hex."""
    return f"{check(value, width):0{(width + 3) // 4}x}"
