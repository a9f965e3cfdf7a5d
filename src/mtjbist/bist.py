"""BIST harness: encode a pattern, push it through the MTJ array, decode.

Timeline per test run (times in ns, clock rising edges at 0, period,
2*period, ...):

  launch_time  = launch_offset_cycles * period     (default 7.5 at 3 ns
                                                    half period)
  sample_time  = (sample_edge - 1) * period        (default 12.0, the third
                                                    rising edge)

At launch every bit of the encoded message (data then check, one bit per
cell) is written into the array; at sample every cell is sensed and the
sensed message is fed to the CRC receiver. A healthy array finishes all
transitions before the sample edge, so the error flag stays at logic zero;
a slowed-down cell can still be mid-transition and return its stale state,
which the CRC decoder flags.

The round has a closed form. Writing a cell's current state leaves it
alone, so cell i faults (reads back its stale state) exactly when

  launched_i != state_i  and  sample_time < launch_time + delay_i

where delay_i = switching_delay(tm_actual_i, state_i -> 1 - state_i). The
sensed word is the launched word XOR the fault vector. The receiver's
zero-init remainder is GF(2)-linear and the launched word is a codeword, so
the error flag fires iff the fault vector's syndrome is nonzero. A pattern
enters only through its toggle mask and a clock only through its mask of
cells still switching at the sample edge, so all patterns x clocks x cells
are one broadcast of the two masks. frequency_sweep is that closed form:
crc.py encodes all patterns and takes the syndromes of the distinct fault
vectors, each in one GF(2) product. run_bist is its one-round view and
detection_coverage its one-clock view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bits import random_patterns
# perfbench's traced run hooks bist.run_bist, frequency_sweep, encode, verify,
# apply_bit and sense by module attribute, so they stay importable here until
# the next benchmark change re-hooks the kernel (ROADMAP 2)
from .crc import CrcConfig, codewords, encode, syndromes, verify  # noqa: F401
from .mtj import MtjCell, MtjDelayModel, apply_bit, is_malicious, sense, switching_delay  # noqa: F401
from .textio import positive_finite, reworded


@dataclass(frozen=True)
class ClockConfig:
    half_period: float = 3.0
    launch_offset_cycles: float = 1.25
    sample_edge: int = 3

    def __post_init__(self):
        positive_finite("half_period", self.half_period)
        positive_finite("launch_offset_cycles", self.launch_offset_cycles)
        if self.sample_edge < 1:
            raise ValueError("sample_edge must be >= 1")
        if not math.isfinite(self.sample_time):
            raise ValueError(f"half_period {self.half_period!r} overflows the clock: sample time "
                             f"(sample_edge - 1) * 2 * half_period = {self.sample_time!r}")
        if self.launch_time >= self.sample_time:
            raise ValueError("launch must precede the sample edge")

    @property
    def period(self) -> float:
        return 2.0 * self.half_period

    @property
    def launch_time(self) -> float:
        return self.launch_offset_cycles * self.period

    @property
    def sample_time(self) -> float:
        return (self.sample_edge - 1) * self.period


@dataclass(frozen=True)
class BistResult:
    """One round's error flag, its sensed bits (data then check) and the cells that read back stale."""

    error_flag: int
    sensed_bits: tuple[int, ...]
    faulted_positions: frozenset[int]


def check_multiplier_range(values) -> tuple[float, float]:
    """(lo, hi) of a random attack's multipliers: finite, 0 < lo <= hi, so every draw is positive."""
    if len(values) != 2:
        raise ValueError(f"multiplier range must be two values lo,hi, got {len(values)}")
    lo, hi = values
    if not 0 < lo <= hi < float("inf"):
        raise ValueError(f"multiplier range must be finite with 0 < lo <= hi, got {lo!r},{hi!r}")
    return lo, hi


@dataclass(frozen=True)
class AttackSpec:
    """Fabrication-time thickness tampering on selected cells."""

    target_indices: tuple[int, ...]
    thickness_multipliers: tuple[float, ...]

    def __post_init__(self):
        if len(self.target_indices) != len(self.thickness_multipliers):
            raise ValueError("one multiplier per target index")
        if len(set(self.target_indices)) != len(self.target_indices):
            raise ValueError("duplicate target index")
        for m in self.thickness_multipliers:
            positive_finite("multipliers", m)

    @classmethod
    def uniform(cls, target_indices, multiplier: float) -> "AttackSpec":
        targets = tuple(target_indices)
        return cls(targets, (float(multiplier),) * len(targets))

    @classmethod
    def random(cls, n_cells: int, n_targets: int, multiplier_range: tuple[float, float], rng_seed: int) -> "AttackSpec":
        """Randomized variant: seeded choice of targets and multipliers."""
        if not 0 < n_targets <= n_cells:
            raise ValueError(f"need 0 < n_targets <= n_cells, got {n_targets} targets in an array of {n_cells} cells")
        lo, hi = check_multiplier_range(multiplier_range)
        rng = np.random.default_rng(rng_seed)
        targets = tuple(int(i) for i in rng.choice(n_cells, size=n_targets, replace=False))
        mults = tuple(float(m) for m in rng.uniform(lo, hi, size=n_targets))
        return cls(targets, mults)


def inject_attack(array: list[MtjCell], spec: AttackSpec) -> list[MtjCell]:
    """A copy of the array with tampered free-layer thicknesses; a thickness
    MtjCell rejects, such as one that overflows to inf, raises ``cell <i>: ...``."""
    for idx in spec.target_indices:
        if not 0 <= idx < len(array):
            raise ValueError(f"target index {idx} outside array of {len(array)} cells")
    bump = dict(zip(spec.target_indices, spec.thickness_multipliers))
    return [reworded(f"cell {i}", replace, cell, tm_actual=cell.tm_actual * bump[i]) if i in bump else cell
            for i, cell in enumerate(array)]


# eq=False: the fields hold arrays, which do not compare to one bool
@dataclass(frozen=True, eq=False)
class SweepResult:
    """Round (h, p) ran patterns[p] at half_periods[h]."""

    half_periods: tuple[float, ...]
    patterns: tuple[int, ...]
    # (H, P) bool error flag of each round
    flags: np.ndarray
    # (H, P) int: the round's faulted cells are fault_sets[fault_index[h, p]]
    fault_index: np.ndarray
    # one set of faulted cells per distinct fault vector
    fault_sets: tuple[frozenset[int], ...]
    # per pattern, the largest half period at which the error flag fired
    # (None when the pattern never fired anywhere on the grid)
    largest_flagged_half_period: dict[int, float | None]


def frequency_sweep(
    array: list[MtjCell],
    patterns,
    half_periods,
    crc: CrcConfig,
    model: MtjDelayModel,
    clock: ClockConfig = ClockConfig(),
) -> SweepResult:
    """Every pattern at every clock setting, each on the same starting array,
    in closed form. Each clock is ``clock`` at one of the half periods. The
    array is not mutated; cells with writes still pending raise (the harness
    serializes rounds).
    """
    patterns = tuple(int(p) for p in patterns)
    half_periods = tuple(float(hp) for hp in half_periods)
    clocks = [replace(clock, half_period=hp) for hp in half_periods]
    n = crc.data_width + crc.check_width
    if len(array) != n:
        raise ValueError(f"array has {len(array)} cells, message needs {n}")
    for i, cell in enumerate(array):
        if cell.pending is not None:
            raise RuntimeError(
                f"cell {i} has a transition pending (completes at {cell.pending.completes_at} ns); "
                "rounds must not overlap"
            )
    state = np.array([c.state for c in array], dtype=bool)
    delay = np.array([switching_delay(model, c.tm_actual, (int(c.state), 1 - int(c.state))) for c in array])
    launch = np.array([c.launch_time for c in clocks]).reshape(-1, 1)
    sample = np.array([c.sample_time for c in clocks]).reshape(-1, 1)
    # (H, n): cells that, once toggled, are still switching at the sample edge
    slow = sample < launch + delay
    faults = ((codewords(patterns, crc) != state) & slow[:, None, :]).reshape(-1, n)
    # one syndrome per distinct fault vector, of which the error flag is a function
    packed = np.packbits(faults, axis=-1)
    keys = packed.view(np.dtype((np.void, packed.shape[-1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    vectors = faults[first]
    index = inverse.reshape(len(clocks), len(patterns))
    flags = syndromes(vectors, crc).any(axis=-1)[index]
    # one frozenset per distinct fault vector, shared by every round that has it
    fault_sets = tuple(frozenset(np.flatnonzero(v).tolist()) for v in vectors)
    # -inf marks a pattern that never fired: every half period is positive
    flagged_hp = np.where(flags, np.array(half_periods).reshape(-1, 1), -np.inf).max(axis=0, initial=-np.inf)
    worst = {p: (hp if hp > 0 else None) for p, hp in zip(patterns, flagged_hp.tolist())}
    return SweepResult(half_periods, patterns, flags, index, fault_sets, worst)


def run_bist(
    pattern: int,
    array: list[MtjCell],
    clock: ClockConfig,
    crc: CrcConfig,
    model: MtjDelayModel,
) -> BistResult:
    """One launch/sample round: round (0, 0) of frequency_sweep at clock."""
    sweep = frequency_sweep(array, [pattern], [clock.half_period], crc, model, clock)
    faults = sweep.fault_sets[sweep.fault_index[0, 0]]
    sensed = codewords([pattern], crc)[0].astype(np.int64)
    sensed[list(faults)] ^= 1
    return BistResult(int(sweep.flags[0, 0]), tuple(sensed.tolist()), faults)


@dataclass(frozen=True)
class CoverageReport:
    infected: frozenset[int]
    flagged_infected: frozenset[int]
    coverage: float
    n_patterns: int
    # no infected cell and no error flag over the whole run
    true_negative_run: bool


def detection_coverage(
    array: list[MtjCell],
    clock: ClockConfig,
    crc: CrcConfig,
    model: MtjDelayModel,
    rng_seed: int,
    n_patterns: int,
) -> CoverageReport:
    """Campaign of n_patterns random patterns, drawn from rng_seed, at one test clock.

    Coverage is |flagged infected cells| / |infected cells|, 1.0 with no cell
    infected; a cell is flagged when it faulted in a run whose error flag fired.
    """
    if n_patterns < 1:
        raise ValueError("n_patterns must be >= 1")
    patterns = random_patterns(np.random.default_rng(rng_seed), crc.data_width, n_patterns, "crc.data_width").tolist()
    infected = frozenset(i for i, c in enumerate(array) if is_malicious(c, model))
    sweep = frequency_sweep(array, patterns, [clock.half_period], crc, model, clock)
    flagged = frozenset().union(*(sweep.fault_sets[k] for k in set(sweep.fault_index[sweep.flags].tolist())))
    flagged_infected = flagged & infected
    coverage = len(flagged_infected) / len(infected) if infected else 1.0
    return CoverageReport(
        infected=infected,
        flagged_infected=flagged_infected,
        coverage=coverage,
        n_patterns=len(patterns),
        true_negative_run=(not infected and not sweep.flags.any()),
    )
