"""
Transient current traces from switching activity
=================================================

Every register bit that toggles in a clock step draws a unit of switching
current, so the supply current over time mirrors the circuit's toggle
profile. This script synthesizes traces for the serial CRC receiver under
several operating conditions and shows what an active Trojan does to them.
"""

import numpy as np

from mtjbist import (
    NORMAL,
    TROJAN,
    Condition,
    ConditionKind,
    CrcConfig,
    CrcDecoderCircuit,
    TraceParams,
    TrojanCrcDecoderCircuit,
    build_dataset,
    simulate_trace,
    toggle_profile,
)

crc = CrcConfig()
circuit = CrcDecoderCircuit(crc)
params = TraceParams()
noiseless = TraceParams(noise_sigma=0.0)

# the toggle profile is the per-step Hamming distance of the register
pattern = 0xA5
profile = toggle_profile(circuit, pattern)
print(f"toggle profile of pattern {pattern:#04x}: {profile.tolist()}")
print(f"(16 shift steps, register toggles per step)\n")

# one noiseless trace: baseline current plus one unit per toggle
trace = simulate_trace(circuit, pattern, NORMAL, params=noiseless)
active = trace.samples[: len(profile)]
print(f"noiseless trace: baseline {params.baseline} uA,"
      f" peak {active.max():.1f} uA at step {int(active.argmax())}")

# operating conditions rescale only the switching term
pv = Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=0.2)
hot = Condition(ConditionKind.TEMPERATURE, temperature_c=120.0)
for cond, label in ((pv, "process variation +20% length"), (hot, "die at 120 C")):
    t = simulate_trace(circuit, pattern, cond, params=noiseless)
    ratio = (t.samples[0] - params.baseline) / (trace.samples[0] - params.baseline)
    print(f"{label}: switching term x{ratio:.3f}")

# an active Trojan adds its trigger logic plus a payload spike
infected = TrojanCrcDecoderCircuit()
triggering = next(p for p in range(256) if infected.fires(p))
dormant = next(p for p in range(256) if not infected.fires(p))

clean_t = simulate_trace(circuit, triggering, NORMAL, params=noiseless)
trojan_t = simulate_trace(infected, triggering, TROJAN, params=noiseless)
step = int(np.argmax(trojan_t.samples - clean_t.samples))
print(f"\ntriggering pattern {triggering:#04x}: extra"
      f" {trojan_t.samples[step] - clean_t.samples[step]:.0f} uA at step {step}")

clean_d = simulate_trace(circuit, dormant, NORMAL, params=noiseless)
trojan_d = simulate_trace(infected, dormant, TROJAN, params=noiseless)
print(f"dormant pattern {dormant:#04x}: traces identical ="
      f" {np.array_equal(clean_d.samples, trojan_d.samples)}")

# measurement noise rides on top; a dataset bundles traces of one condition
dataset = build_dataset(circuit, NORMAL, n_patterns=10, seed=42)
spread = np.std(dataset.samples, axis=0).max()
print(f"\ndataset of {len(dataset)} noisy traces (sigma {params.noise_sigma} uA),"
      f" max per-sample std {spread:.2f} uA across patterns")
