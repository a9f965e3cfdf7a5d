"""Independent reference implementations used only by the tests.

These are written straight from the definitions with naive data structures
(bit lists, double loops) and deliberately share no code with the package:
the package favors packed integers and numpy, the oracles favor clarity.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Bits of a pattern, one shift at a time

def pattern_bits(values, width: int) -> list[list[int]]:
    """Row i holds the width bits of values[i], bit k of it being (v >> k) & 1."""
    return [[(int(v) >> k) & 1 for k in range(width)] for v in values]


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
# Trojan triggers: parity-AND of tapped bits, one input at a time

def tap_parity(value: int, taps) -> int:
    """XOR of the listed bits of value."""
    out = 0
    for t in taps:
        out ^= (value >> t) & 1
    return out


def crc_trojan_trigger(data: int, check: int, d: int, g: int) -> bool:
    """The infected receiver's trigger on a received data word and check
    value: odd parity over all d data bits AND over all g check bits."""
    return bool(tap_parity(data, range(d)) and tap_parity(check, range(g)))


def crc_trojan_fires(pattern: int, poly_low: int, d: int, g: int) -> bool:
    """The trigger on the codeword of a d-bit data pattern."""
    return crc_trojan_trigger(pattern, crc_long_division(pattern, d, poly_low, g), d, g)


def crc_verify_trojan(msg, config) -> int:
    """Infected receiver: the error flag (nonzero remainder over data||check)
    is inverted while the trigger fires on the received message."""
    d, g = config.data_width, config.check_width
    flag = int(crc_long_division((msg.data << g) | msg.check, d + g, config.poly, g) != 0)
    return flag ^ crc_trojan_trigger(msg.data, msg.check, d, g)


def katan_trojan_fires(plaintext: int, key: int, key_taps, pt_taps) -> bool:
    """The KATAN-32 trigger: odd tapped key parity AND odd tapped plaintext parity."""
    return bool(tap_parity(key, key_taps) and tap_parity(plaintext, pt_taps))


def scan_draw(space: int, n_patterns: int, rng, accept) -> list[int]:
    """A draw from a small input space: the accepted patterns in ascending
    order, one accept(p) per candidate, then n_patterns picks of rng.choice,
    without replacement unless fewer patterns are accepted."""
    candidates = [p for p in range(space) if accept(p)]
    picks = rng.choice(len(candidates), size=n_patterns, replace=len(candidates) < n_patterns)
    return [candidates[int(i)] for i in picks]


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


def katan_stream_states(l1, l2) -> list[int]:
    """32-bit states of one block read from its L1 and L2 bit streams.

    State r is the 13 L1 positions from r followed by the 19 L2 positions
    from r, most significant bit first.
    """
    states = []
    for r in range(len(l1) - 12):
        bits = [int(b) for b in l1[r : r + 13]] + [int(b) for b in l2[r : r + 19]]
        states.append(int("".join(map(str, bits)), 2))
    return states


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
               sample_edge: int = 3, poly_low: int = 0x07, g: int = 8, d: int = 8, **windows):
    """(error flag, sensed bits, faulted cells) of one round on an 8+8 cell array.

    Cells 0..d-1 hold the data bits LSB first, cells d..d+g-1 the check bits.
    A cell written with its own state keeps it; a toggled cell reads its old
    state while the sample edge comes before its switch completes. windows
    are affine_switching_delay's tm_range, window01 and window10.
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
        done_at = launch + affine_switching_delay(tm, rising=bit == 1, **windows)
        sensed.append(bit if sample >= done_at else old)
    data = sum(b << i for i, b in enumerate(sensed[:d]))
    received_check = sum(b << j for j, b in enumerate(sensed[d:]))
    flag = int(crc_long_division((data << g) | received_check, d + g, poly_low, g) != 0)
    faulted = {i for i, (s, b) in enumerate(zip(sensed, launched)) if s != b}
    return flag, sensed, faulted


# ---------------------------------------------------------------------------
# trace synthesis: the noise of a dataset's row

def row_noise(seed: int, i: int, n: int, sigma: float):
    """The n noise samples of row i of a dataset drawn with seed: a fresh
    generator seeded with seed ^ i."""
    return np.random.default_rng(seed ^ i).normal(0.0, sigma, n)


def message_bits(msg, config) -> tuple[int, ...]:
    """Cell assignment of a CRC message: cells 0..d-1 carry data bits 0..d-1
    (bit i is the 2^i coefficient), cells d..d+g-1 carry check bits the same way."""
    d, g = config.data_width, config.check_width
    return tuple((msg.data >> i) & 1 for i in range(d)) + tuple((msg.check >> i) & 1 for i in range(g))


def write_bist_rows(path, rows, data_width: int) -> None:
    """The BIST results CSV: one line per (half period, pattern, error flag,
    faulted cells) row, the pattern in fixed-width hex, the cells sorted."""
    with open(path, "w") as fh:
        fh.write("half_period_ns,pattern_hex,error_flag,faulted_indices\n")
        for hp, pattern, flag, faulted in rows:
            cells = ";".join(str(i) for i in sorted(faulted))
            fh.write(f"{hp:.10g},{pattern:0{(data_width + 3) // 4}x},{flag},{cells}\n")


# ---------------------------------------------------------------------------
# trace CSV: the per-row writer and parse loop that define the file format

TRACE_HEADER = "time_ns,current_uA"
TRACE_MIN_SAMPLES = 100
TRACE_DT_RTOL = 1e-6


def write_trace_rows(path, dt: float, samples) -> None:
    """Row i is ``repr(i * dt),repr(sample)``, under the header line."""
    with open(path, "w") as fh:
        fh.write(f"{TRACE_HEADER}\n")
        for i, v in enumerate(samples):
            fh.write(f"{i * dt!r},{float(v)!r}\n")


def read_trace_rows(path, dt: float | None = None, n_samples: int | None = None) -> tuple[float, list[float]]:
    """(step, currents) of a trace CSV, every row checked in a Python loop;
    a ValueError names the file and the line."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"{path}:1: unexpected header {header!r}")
        lines = fh.read().splitlines()
    data_lines = [i + 2 for i, raw in enumerate(lines) if raw.strip()]

    def line(k: int) -> int:
        return data_lines[k] if k < len(data_lines) else len(lines) + 2

    times: list[float] = []
    values: list[float] = []
    try:
        for raw in lines:
            if not raw.strip():
                continue
            t, v = raw.split(",")
            times.append(float(t))
            values.append(float(v))
    except ValueError:
        raise ValueError(f"{path}:{line(len(values))}: expected 'time_ns,current_uA', got {raw.strip()!r}") from None
    n = len(values)
    if n < TRACE_MIN_SAMPLES:
        raise ValueError(f"{path}: {n} samples, a trace needs >= {TRACE_MIN_SAMPLES}")
    step = times[1] - times[0]
    if not 0 < step < float("inf"):
        raise ValueError(f"{path}:{line(1)}: time step {step!r} ns is not positive and finite")
    if dt is not None and not abs(step - dt) <= TRACE_DT_RTOL * dt:
        raise ValueError(f"{path}:{line(1)}: time step {step!r} ns, expected {dt!r} ns")
    if n_samples is not None and n != n_samples:
        raise ValueError(f"{path}:{line(min(n, n_samples))}: {n} samples, expected {n_samples}")
    for k in range(n):
        grid = k * step
        if not (abs(times[k] - grid) <= TRACE_DT_RTOL * grid and math.isfinite(values[k])):
            raise ValueError(f"{path}:{line(k)}: expected time {k} * {step!r} ns and a finite current, "
                             f"got {times[k]!r},{values[k]!r}")
    return step, values
