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

L1, L2 and the key LFSR are shift registers, so a block's whole run is two
bit streams: L1's has 13 + 254 positions and L2's 19 + 254. The state
entering round r is the window starting at position r; read from bit 31
down to bit 0 it is L1's 13 positions followed by L2's 19. Round r appends
fb to L1's stream and fa to L2's. core_states computes the streams of all
lanes at once, bit-sliced: each stream position is one Python int whose bit
j belongs to lane j, so a round costs the same dozen int operations whatever
the lane count. encrypt32 and encrypt32_batch read the ciphertext from the
last windows; decrypt32 runs the round backwards on one block.

The current-trace generator models switching activity as the Hamming
distance between consecutive full cipher states, a state being L1 || L2 plus
the 80-bit window of the key LFSR, so each per-round count is bounded by
32 + 80. A window's flips are counted by window_flips for all three streams.
The key window does not depend on the plaintext: key_window_toggles gives
its part once per key.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bits import check, unpack

N_ROUNDS = 254
KEY_BITS = 80
BLOCK_BITS = 32

L1_BITS = 13
L2_BITS = 19
_L1_MASK = (1 << L1_BITS) - 1
_L2_MASK = (1 << L2_BITS) - 1

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
    check(key, KEY_BITS, "key")
    if n_bits < 0:
        raise ValueError(f"n_bits must be >= 0, got {n_bits}")
    # every n_bits up to 2 * N_ROUNDS + KEY_BITS shares one cached schedule
    return list(_key_schedule(key, max(n_bits, 2 * N_ROUNDS + KEY_BITS))[:n_bits])


def _slice(rows: np.ndarray) -> list[int]:
    """One int per row of a (k, n) 0/1 array, its bit j taken from column j: bits.unpack inverts it."""
    return [int.from_bytes(row, "little") for row in np.packbits(rows, axis=1, bitorder="little")]


def core_states(plaintexts, key: int) -> tuple[np.ndarray, np.ndarray]:
    """The L1 and L2 bit streams of every lane, (13 + 254, ...) and (19 + 254, ...) uint8.

    The trailing axes are shaped like ``plaintexts``. The state entering
    round r, read from bit 31 down to bit 0, is rows r..r+12 of the L1
    stream followed by rows r..r+18 of the L2 stream; r = 254 gives the
    ciphertext.
    """
    shape = np.shape(plaintexts)
    lanes = unpack(plaintexts, BLOCK_BITS, "plaintext")
    ks = key_stream(key)
    # row i of the transposed lanes holds bit 31 - i of every lane
    words = _slice(lanes[:, ::-1].T)
    masks = (0, (1 << len(lanes)) - 1)
    l1, l2 = words[:L1_BITS], words[L1_BITS:]
    for r in range(N_ROUNDS):
        # L1[i] is l1[r + 12 - i] and L2[i] is l2[r + 18 - i]
        fa = l1[r] ^ l1[r + 5] ^ (l1[r + 4] & l1[r + 7]) ^ (masks[IR[r]] & l1[r + 9]) ^ masks[ks[2 * r]]
        fb = l2[r] ^ l2[r + 11] ^ (l2[r + 6] & l2[r + 8]) ^ (l2[r + 10] & l2[r + 15]) ^ masks[ks[2 * r + 1]]
        l1.append(fb)
        l2.append(fa)
    return tuple(unpack(s, len(lanes)).reshape((len(s),) + shape) for s in (l1, l2))


def window_flips(stream: np.ndarray, width: int, step: int = 1) -> np.ndarray:
    """Bit flips between successive windows of a 0/1 stream, one row per window.

    Window r holds the ``width`` positions from ``step * r`` along axis 0,
    and row r counts the p in it with stream[p] != stream[p + step]: a
    difference of one prefix sum. The sum never exceeds the stream's length,
    so it is kept in the smallest unsigned dtype that holds that length.
    """
    run = stream[step:] ^ stream[:-step]
    flips = np.zeros((len(run) + 1,) + run.shape[1:], dtype=np.min_scalar_type(len(run)))
    np.cumsum(run, axis=0, out=flips[1:])
    return flips[width::step] - flips[: len(run) - width + 1 : step]


def encrypt32(plaintext: int, key: int) -> int:
    return int(encrypt32_batch(plaintext, key))


def encrypt32_batch(plaintexts, key: int) -> np.ndarray:
    """encrypt32 over an array of plaintexts under one key: uint64 ciphertexts shaped like it."""
    l1, l2 = core_states(plaintexts, key)
    msb_first = np.concatenate((l1[-L1_BITS:], l2[-L2_BITS:])).reshape(BLOCK_BITS, l1[0].size)
    blocks = np.ascontiguousarray(np.packbits(msb_first, axis=0).T).view(">u4")
    return blocks.astype(np.uint64).reshape(l1.shape[1:])


def decrypt32(ciphertext: int, key: int) -> int:
    check(ciphertext, BLOCK_BITS, "ciphertext")
    ks = key_stream(key)
    l1, l2 = (ciphertext >> L2_BITS) & _L1_MASK, ciphertext & _L2_MASK
    for r in range(N_ROUNDS - 1, -1, -1):
        fa, fb = l2 & 1, l1 & 1
        l1 >>= 1
        l2 >>= 1
        # recover the bits the forward round shifted out of L1[12] / L2[18]
        b1 = (fa ^ (l1 >> 7) ^ ((l1 >> 8) & (l1 >> 5)) ^ (IR[r] & (l1 >> 3)) ^ ks[2 * r]) & 1
        b2 = (fb ^ (l2 >> 7) ^ ((l2 >> 12) & (l2 >> 10)) ^ ((l2 >> 8) & (l2 >> 3)) ^ ks[2 * r + 1]) & 1
        l1 |= b1 << 12
        l2 |= b2 << 18
    return (l1 << L2_BITS) | l2


@lru_cache(maxsize=32)
def key_window_toggles(key: int) -> np.ndarray:
    """Bit flips across the key LFSR's 80-bit window in each round, length 254.

    The window advances two positions per round. The int64 array is cached
    per key and read-only.
    """
    k = np.array(key_stream(key, 2 * N_ROUNDS + KEY_BITS), dtype=np.uint8)
    window = window_flips(k, KEY_BITS, 2).astype(np.int64)
    window.flags.writeable = False
    return window
