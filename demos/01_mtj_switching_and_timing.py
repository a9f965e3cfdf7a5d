"""
MTJ switching delays and the launch/sample timing window
=========================================================

A write pulse does not flip a magnetic tunnel junction instantly: the free
layer precesses for a thickness-dependent time before the new state is
stable. This walk-through prints the delay curves, then replays a single
write/sense round to show when a slowed cell reads back stale data.
"""

import numpy as np

from mtjbist import ClockConfig, MtjCell, MtjDelayModel, apply_bit, sense, switching_delay

model = MtjDelayModel()
clock = ClockConfig()

# delay as a function of free-layer thickness, both transition directions
print("thickness multiplier -> switching delay (ns)")
print(f"{'tm':>6} {'0->1':>8} {'1->0':>8}")
for tm in np.linspace(model.tm_min, model.tm_max, 6):
    d01 = switching_delay(model, float(tm), (0, 1))
    d10 = switching_delay(model, float(tm), (1, 0))
    print(f"{tm:6.2f} {d01:8.3f} {d10:8.3f}")

# the BIST clock: launch on the second rising edge plus a quarter period,
# sample on the third rising edge
print(f"\nhalf period {clock.half_period} ns"
      f" -> launch at {clock.launch_time} ns, sample at {clock.sample_time} ns")
window = clock.sample_time - clock.launch_time
print(f"a write must settle within {window:.2f} ns to be sensed correctly")

# a healthy cell and a thickened (tampered) one, same write
for label, tm in (("healthy", 1.0), ("tampered", 1.3)):
    cell = MtjCell(tm_actual=tm)
    written = apply_bit(cell, 1, clock.launch_time, model)
    done = written.pending.completes_at
    level, _ = sense(written, clock.sample_time)
    print(f"\n{label} cell (tm={tm}): write 1 at {clock.launch_time} ns,"
          f" settles at {done:.2f} ns")
    print(f"  sensed {level} at {clock.sample_time} ns"
          f" -> {'correct' if level == 1 else 'STALE READ'}")

# the same tampered cell at a faster clock no longer makes the deadline
fast = ClockConfig(half_period=1.4)
cell = MtjCell(tm_actual=1.3)
written = apply_bit(cell, 1, fast.launch_time, model)
level, _ = sense(written, fast.sample_time)
print(f"\nsame tampered cell at half period {fast.half_period} ns:"
      f" settles at {written.pending.completes_at:.2f} ns,"
      f" sampled at {fast.sample_time:.2f} ns, sensed {level}")
print("the extra delay is invisible at the rated clock and exposed at a faster one")
