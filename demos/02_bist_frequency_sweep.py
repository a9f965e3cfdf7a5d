"""
Built-in self test: a frequency sweep exposes thickened cells
=============================================================

The self-test encodes a data pattern with a CRC, writes the codeword into
the MTJ array, senses it back one clock edge later and re-checks the CRC.
At the rated clock every cell settles in time, so a thickness attack stays
silent; overclocking shrinks the window until the slowed cells miss it.
"""

import numpy as np

from mtjbist import (
    AttackSpec,
    ClockConfig,
    CrcConfig,
    MtjDelayModel,
    detection_coverage,
    frequency_sweep,
    inject_attack,
    nominal_array,
    run_bist,
)

crc = CrcConfig()
model = MtjDelayModel()
rng = np.random.default_rng(7)

# a 16-cell array (8 data + 8 check) with two maliciously thickened cells
array = nominal_array(crc.data_width + crc.check_width)
attack = AttackSpec.uniform(target_indices=(2, 11), multiplier=1.3)
tampered = inject_attack(array, attack)
print(f"tampered cells: {sorted(attack.target_indices)} at multiplier 1.3")

# at the rated clock the self test passes every pattern
clock = ClockConfig()
flags = sum(run_bist(p, tampered, clock, crc, model).error_flag for p in range(256))
print(f"rated clock ({clock.half_period} ns half period): {flags}/256 patterns flagged")

# sweep the clock from rated to 2x overclocked for a few random patterns
patterns = [int(p) for p in rng.integers(0, 256, size=8)]
half_periods = [float(h) for h in np.linspace(3.0, 0.75, 10)]
sweep = frequency_sweep(tampered, patterns, half_periods, crc, model)

print("\nhalf period (ns) -> patterns flagged")
for hp, flags in zip(half_periods, sweep.flags):
    n = int(flags.sum())
    bar = "#" * n
    print(f"{hp:6.2f}  {n:2d}/8 {bar}")

for p in patterns[:3]:
    worst = sweep.largest_flagged_half_period[p]
    where = f"slowest failing half period {worst:.2f} ns" if worst else "never flagged"
    print(f"pattern {p:#04x}: {where}")

# random-pattern coverage at one fast clock: which infected cells got caught
fast = ClockConfig(half_period=1.4)
report = detection_coverage(tampered, fast, crc, model, n_patterns=64, rng_seed=7)
print(f"\nat {fast.half_period} ns: flagged {sorted(report.flagged_infected)}"
      f" of infected {sorted(report.infected)},"
      f" coverage {report.coverage:.3f} over {report.n_patterns} patterns")

# the same campaign on the untampered array raises no flag at all
clean_report = detection_coverage(array, fast, crc, model, n_patterns=64, rng_seed=7)
print(f"untampered array at the same clock: true negative run = {clean_report.true_negative_run}")
