"""Small helpers for bit vectors packed into Python ints.

Convention used across the package: bit i of a value is ``(value >> i) & 1``,
so bit 0 is the least significant bit of the last hex digit when the value is
printed big-endian. All widths are explicit at call sites.
"""

from __future__ import annotations


def parity(value: int) -> int:
    """XOR reduction of all bits of ``value``."""
    return value.bit_count() & 1


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
    if value < 0 or value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    return f"{value:0{(width + 3) // 4}x}"
