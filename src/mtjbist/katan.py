"""KATAN-32 block cipher, bit-accurate with per-round state exposure.

Register conventions (all indices are bit positions, LSB first):

  load     L2 = plaintext bits 0..18, L1 = plaintext bits 19..31
           (so L1 bit 12 holds the plaintext MSB)
  key      80-bit LFSR, two subkey bits per round:
           k[i] = k[i-80] ^ k[i-61] ^ k[i-50] ^ k[i-13], k[0..79] = key bits
  round r  fa = L1[12] ^ L1[7] ^ (L1[8] & L1[5]) ^ (IR[r] & L1[3]) ^ k[2r]
           fb = L2[18] ^ L2[7] ^ (L2[12] & L2[10]) ^ (L2[8] & L2[3]) ^ k[2r+1]
           then both registers shift toward higher indices and fb enters
           L1 bit 0 while fa enters L2 bit 0
  output   ciphertext = L1 bits as 19..31, L2 bits as 0..31, after 254 rounds

Hex I/O at the CLI treats values big-endian with bit 0 as the least
significant bit of the last hex digit.

One round function serves single blocks and batches: encrypt32 drives it
over Python ints, core_states and encrypt32_batch over uint64 numpy lanes.

The current-trace generator models switching activity as the Hamming
distance between consecutive full cipher states, a state being L1 || L2 plus
the 80-bit window of the key LFSR, so each per-round count is bounded by
32 + 80. The window does not depend on the plaintext: key_window_toggles
gives its part once per key, and circuits.KatanCircuit adds the popcounts of
consecutive core_states.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

N_ROUNDS = 254
KEY_BITS = 80
BLOCK_BITS = 32

_L1_BITS = 13
_L2_BITS = 19
_L1_MASK = (1 << _L1_BITS) - 1
_L2_MASK = (1 << _L2_BITS) - 1

# Published per-round constant sequence (1 bit per round); the tests
# regenerate it from its defining 8-bit LFSR.
IR = (
    1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1,
    0, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0,
    1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0,
    0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1,
    0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1,
    1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1,
    0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0,
    1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1,
    0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1,
    1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1,
    1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1,
    0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1,
    1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0,
    0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1,
    0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1,
    1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0,
)


@lru_cache(maxsize=32)
def _key_schedule(key: int, n_bits: int) -> tuple[int, ...]:
    k = [(key >> i) & 1 for i in range(KEY_BITS)]
    for i in range(KEY_BITS, n_bits):
        k.append(k[i - 80] ^ k[i - 61] ^ k[i - 50] ^ k[i - 13])
    return tuple(k[:n_bits])


def key_stream(key: int, n_bits: int = 2 * N_ROUNDS) -> list[int]:
    """First n_bits of the key LFSR output, k[0..79] being the key itself."""
    if key < 0 or key >> KEY_BITS:
        raise ValueError(f"key must fit in {KEY_BITS} bits")
    if n_bits <= 2 * N_ROUNDS + KEY_BITS:
        return list(_key_schedule(key, 2 * N_ROUNDS + KEY_BITS)[:n_bits])
    return list(_key_schedule(key, n_bits))


def _check_block(value: int, name: str) -> None:
    if value < 0 or value >> BLOCK_BITS:
        raise ValueError(f"{name} must fit in {BLOCK_BITS} bits")


def _load(block: int) -> tuple[int, int]:
    return (block >> _L2_BITS) & _L1_MASK, block & _L2_MASK


def _store(l1: int, l2: int) -> int:
    return (l1 << _L2_BITS) | l2


def _round(l1: int, l2: int, ir: int, ka: int, kb: int) -> tuple[int, int]:
    fa = ((l1 >> 12) ^ (l1 >> 7) ^ ((l1 >> 8) & (l1 >> 5)) ^ (ir & (l1 >> 3)) ^ ka) & 1
    fb = ((l2 >> 18) ^ (l2 >> 7) ^ ((l2 >> 12) & (l2 >> 10)) ^ ((l2 >> 8) & (l2 >> 3)) ^ kb) & 1
    return ((l1 << 1) | fb) & _L1_MASK, ((l2 << 1) | fa) & _L2_MASK


def _lanes(blocks, name: str) -> np.ndarray:
    try:
        lanes = np.asarray(blocks, dtype=np.uint64)
    except OverflowError:
        # a negative or too-wide Python int
        raise ValueError(f"{name} must fit in {BLOCK_BITS} bits") from None
    if lanes.size and int(lanes.max()) >> BLOCK_BITS:
        raise ValueError(f"{name} must fit in {BLOCK_BITS} bits")
    return lanes


def _rounds(block, ks):
    """(L1, L2) entering each round and after the last: 255 pairs, one at a time.

    block is one int or an array of uint64 lanes; _load, _round and _store
    use only shifts and bitwise operators, which act alike on both.
    """
    l1, l2 = _load(block)
    yield l1, l2
    for r in range(N_ROUNDS):
        l1, l2 = _round(l1, l2, IR[r], ks[2 * r], ks[2 * r + 1])
        yield l1, l2


def _encrypt(block, key: int):
    for l1, l2 in _rounds(block, key_stream(key)):
        pass
    return _store(l1, l2)


def core_states(plaintexts, key: int) -> Iterator[np.ndarray]:
    """The packed 32-bit state of every lane before each round and after the last.

    Yields 255 uint64 arrays shaped like ``plaintexts``: entry r is the state
    entering round r and entry 254 is the ciphertext. The states come one at
    a time, so a large batch never holds the whole timeline.
    """
    rounds = _rounds(_lanes(plaintexts, "plaintexts"), key_stream(key))
    return (_store(l1, l2) for l1, l2 in rounds)


def encrypt32(plaintext: int, key: int) -> int:
    _check_block(plaintext, "plaintext")
    return _encrypt(plaintext, key)


def encrypt32_batch(plaintexts, key: int) -> np.ndarray:
    """encrypt32 over an array of plaintexts under one key, one uint64 lane each."""
    return _encrypt(_lanes(plaintexts, "plaintexts"), key)


def decrypt32(ciphertext: int, key: int) -> int:
    _check_block(ciphertext, "ciphertext")
    ks = key_stream(key)
    l1, l2 = _load(ciphertext)
    for r in range(N_ROUNDS - 1, -1, -1):
        fa, fb = l2 & 1, l1 & 1
        l1 >>= 1
        l2 >>= 1
        # recover the bits the forward round shifted out of L1[12] / L2[18]
        b1 = (fa ^ (l1 >> 7) ^ ((l1 >> 8) & (l1 >> 5)) ^ (IR[r] & (l1 >> 3)) ^ ks[2 * r]) & 1
        b2 = (fb ^ (l2 >> 7) ^ ((l2 >> 12) & (l2 >> 10)) ^ ((l2 >> 8) & (l2 >> 3)) ^ ks[2 * r + 1]) & 1
        l1 |= b1 << 12
        l2 |= b2 << 18
    return _store(l1, l2)


@lru_cache(maxsize=32)
def key_window_toggles(key: int) -> np.ndarray:
    """Bit flips across the key LFSR's 80-bit window in each round, length 254.

    The window advances two positions per round, so entry r counts the j in
    [2r, 2r + 80) with k[j] != k[j + 2]: a difference of one prefix sum.
    The array is cached per key and read-only.
    """
    k = np.array(key_stream(key, 2 * N_ROUNDS + KEY_BITS), dtype=np.int64)
    flips = np.concatenate(([0], np.cumsum(k[:-2] ^ k[2:])))
    starts = 2 * np.arange(N_ROUNDS)
    window = flips[starts + KEY_BITS] - flips[starts]
    window.flags.writeable = False
    return window
