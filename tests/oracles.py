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
