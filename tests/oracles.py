"""Independent reference implementations used only by the tests.

These are written straight from the definitions with naive data structures
(bit lists, double loops) and deliberately share no code with the package:
the package favors packed integers and numpy, the oracles favor clarity.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# CRC: textbook long division over GF(2)

def crc_long_division(value: int, nbits: int, poly_low: int, g: int) -> int:
    """Remainder of value(x) * x^g divided by the degree-g generator."""
    # dividend coefficients, highest degree first, with g appended zeros
    dividend = [(value >> (nbits - 1 - i)) & 1 for i in range(nbits)] + [0] * g
    divisor = [1] + [(poly_low >> (g - 1 - i)) & 1 for i in range(g)]
    for i in range(nbits):
        if dividend[i]:
            for j, p in enumerate(divisor):
                dividend[i + j] ^= p
    remainder_bits = dividend[nbits:]
    out = 0
    for b in remainder_bits:
        out = (out << 1) | b
    return out


# ---------------------------------------------------------------------------
# KATAN-32: bit-list implementation from the round equations

def katan_ir_sequence(n_rounds: int = 254) -> list[int]:
    # 8-bit LFSR, all ones at reset, x^8 + x^7 + x^5 + x^3 + 1, output bit 6
    s = [1] * 8
    seq = []
    for _ in range(n_rounds):
        seq.append(s[6])
        s = [s[7] ^ s[6] ^ s[4] ^ s[2]] + s[:7]
    return seq


def katan_key_bits(key: int, n_bits: int) -> list[int]:
    k = [(key >> i) & 1 for i in range(80)]
    for i in range(80, n_bits):
        k.append(k[i - 80] ^ k[i - 61] ^ k[i - 50] ^ k[i - 13])
    return k


def katan32_states(plaintext: int, key: int, n_rounds: int = 254) -> list[int]:
    """32-bit register snapshots before each round and after the last."""
    ir = katan_ir_sequence(n_rounds)
    k = katan_key_bits(key, 2 * n_rounds)
    l2 = [(plaintext >> i) & 1 for i in range(19)]
    l1 = [(plaintext >> (19 + i)) & 1 for i in range(13)]

    def pack() -> int:
        out = 0
        for i, b in enumerate(l2):
            out |= b << i
        for i, b in enumerate(l1):
            out |= b << (19 + i)
        return out

    states = [pack()]
    for r in range(n_rounds):
        fa = l1[12] ^ l1[7] ^ (l1[8] & l1[5]) ^ (ir[r] & l1[3]) ^ k[2 * r]
        fb = l2[18] ^ l2[7] ^ (l2[12] & l2[10]) ^ (l2[8] & l2[3]) ^ k[2 * r + 1]
        l1 = [fb] + l1[:12]
        l2 = [fa] + l2[:18]
        states.append(pack())
    return states


def katan32_encrypt(plaintext: int, key: int) -> int:
    return katan32_states(plaintext, key)[-1]


def katan_window_flips(key: int, n_rounds: int = 254) -> list[int]:
    """Bit flips across the key LFSR's 80-bit window per round, summed term by term."""
    k = katan_key_bits(key, 2 * n_rounds + 80)
    return [sum(k[2 * r + i] ^ k[2 * r + 2 + i] for i in range(80)) for r in range(n_rounds)]


def katan32_toggles(plaintext: int, key: int) -> list[int]:
    """Per-round Hamming distance of the 32-bit state plus the key-window flips."""
    states = katan32_states(plaintext, key)
    window = katan_window_flips(key)
    return [bin(a ^ b).count("1") + w for a, b, w in zip(states, states[1:], window)]


# ---------------------------------------------------------------------------
# detector: naive double-loop cross correlation

def xcorr_double_loop(a, b) -> list[float]:
    n = len(a)
    out = []
    for k in range(2 * n - 1):
        acc = 0.0
        for i in range(n):
            j = i + (n - 1) - k
            if 0 <= j < n:
                acc += a[i] * b[j]
        out.append(acc)
    return out


def detector_double_loop(a, b) -> float:
    return max(abs(v) for v in xcorr_double_loop(a, b))


# ---------------------------------------------------------------------------
# BIST: one launch/sample round, cell by cell, from the timing definitions

def affine_switching_delay(tm: float, rising: bool, tm_range=(0.8, 1.3), window01=(0.0, 2.26),
                           window10=(0.0, 1.35)) -> float:
    """Window minimum at tm_min, maximum at tm_max, straight line between, clamped outside."""
    tm_min, tm_max = tm_range
    lo, hi = window01 if rising else window10
    tm = min(max(tm, tm_min), tm_max)
    frac = (tm - tm_min) / (tm_max - tm_min)
    return lo + (hi - lo) * frac


def bist_round(pattern: int, tm_actual, states, half_period: float, launch_offset_cycles: float = 1.25,
               sample_edge: int = 3, poly_low: int = 0x07, g: int = 8, d: int = 8):
    """(error flag, sensed bits, faulted cells) of one round on an 8+8 cell array.

    Cells 0..d-1 hold the data bits LSB first, cells d..d+g-1 the check bits.
    A cell written with its own state keeps it; a toggled cell reads its old
    state while the sample edge comes before its switch completes.
    """
    period = 2.0 * half_period
    launch = launch_offset_cycles * period
    sample = (sample_edge - 1) * period
    check = crc_long_division(pattern, d, poly_low, g)
    launched = [(pattern >> i) & 1 for i in range(d)] + [(check >> j) & 1 for j in range(g)]
    sensed = []
    for bit, old, tm in zip(launched, states, tm_actual):
        if bit == old:
            sensed.append(bit)
            continue
        done_at = launch + affine_switching_delay(tm, rising=bit == 1)
        sensed.append(bit if sample >= done_at else old)
    data = sum(b << i for i, b in enumerate(sensed[:d]))
    received_check = sum(b << j for j, b in enumerate(sensed[d:]))
    flag = int(crc_long_division((data << g) | received_check, d + g, poly_low, g) != 0)
    faulted = {i for i, (s, b) in enumerate(zip(sensed, launched)) if s != b}
    return flag, sensed, faulted
