"""Bit-level circuit adapters consumed by the current-trace generator.

A circuit exposes:

  input_width        bits of one applied stimulus pattern
  n_steps            timesteps a run takes (same for every pattern)
  toggles(patterns)  (len(patterns), n_steps) int64 array, one row per
                     pattern: entry t is the Hamming distance between the
                     circuit's register state before and after step t
  fires(patterns)    bools shaped like patterns, True where embedded
                     malicious logic fires on the pattern (never for clean
                     circuits); it fires at the last step, n_steps - 1
  trigger_toggles    extra switching the trigger logic contributes when it
                     fires

toggles and fires take a whole dataset's patterns at once, so a circuit can
compute its rows and its trigger in one batched pass each.
"""

from __future__ import annotations

import numpy as np

from .bits import check
from .crc import CrcConfig, codewords, register_timelines
from .katan import BLOCK_BITS, KEY_BITS, L1_BITS, L2_BITS, N_ROUNDS, core_states, key_window_toggles, window_flips
from .trojan import TrojanSpec, crc_trigger, katan_trigger


class CrcDecoderCircuit:
    """Serial CRC receiver digesting the encoded message of a test pattern."""

    def __init__(self, config: CrcConfig | None = None):
        self.config = config or CrcConfig()
        self.name = "crc_decoder"

    @property
    def input_width(self) -> int:
        return self.config.data_width

    @property
    def n_steps(self) -> int:
        return self.config.data_width + self.config.check_width

    def toggles(self, patterns) -> np.ndarray:
        """Register popcounts of consecutive states, every pattern in one product."""
        states = register_timelines(patterns, self.config)
        return (states[:, 1:] != states[:, :-1]).sum(axis=-1, dtype=np.int64)

    def fires(self, patterns) -> np.ndarray:
        return np.zeros(np.shape(patterns), bool)

    trigger_toggles = 0


class TrojanCrcDecoderCircuit(CrcDecoderCircuit):
    """CRC receiver with the parity-AND trigger; fires at the decode step."""

    def __init__(self, config: CrcConfig | None = None):
        super().__init__(config)
        self.name = "crc_decoder_trojan"

    def fires(self, patterns) -> np.ndarray:
        return crc_trigger(codewords(patterns, self.config), self.config).reshape(np.shape(patterns))

    @property
    def trigger_toggles(self) -> int:
        # both parity trees re-evaluate when the trigger fires
        return self.config.data_width + self.config.check_width


class KatanCircuit:
    """KATAN-32 encryption under a fixed device key; the pattern is the plaintext.

    The switching state is L1 || L2 (32 bits) plus the key LFSR's 80-bit
    window, so per-step toggles stay bounded by 32 + 80.
    """

    input_width = BLOCK_BITS
    n_steps = N_ROUNDS

    def __init__(self, key: int):
        self.key = check(key, KEY_BITS, "key")
        self.name = "katan32"

    def toggles(self, patterns) -> np.ndarray:
        """Flips inside the L1, L2 and key windows of all patterns, from their bit streams."""
        l1, l2 = core_states(patterns, self.key)
        core = window_flips(l1, L1_BITS) + window_flips(l2, L2_BITS)
        out = np.empty((l1.shape[1], N_ROUNDS), dtype=np.int64)
        np.add(core.T, key_window_toggles(self.key), out=out)
        return out

    def fires(self, patterns) -> np.ndarray:
        return np.zeros(np.shape(patterns), bool)

    trigger_toggles = 0


class TrojanKatanCircuit(KatanCircuit):
    """KATAN-32 with the parity-AND trigger; fires at the final round."""

    def __init__(self, key: int, spec: TrojanSpec):
        super().__init__(key)
        self.spec = spec
        self.name = "katan32_trojan"

    def fires(self, patterns) -> np.ndarray:
        return katan_trigger(patterns, self.key, self.spec)

    @property
    def trigger_toggles(self) -> int:
        return len(self.spec.trigger_key_bits) + len(self.spec.trigger_pt_bits)
