"""
Relational detection: one reference trace separates infected devices
====================================================================

A verified clean device contributes a single golden current trace. Every
device under test is then scored by the peak of the absolute cross
correlation between its traces and that reference. Process and temperature
variation move the score by a few percent; an active Trojan's payload spike
moves it by orders of magnitude.
"""

import numpy as np

from mtjbist import (
    NORMAL,
    TROJAN,
    Condition,
    ConditionKind,
    CrcDecoderCircuit,
    DetectorConfig,
    TrojanCrcDecoderCircuit,
    build_dataset,
    classify,
    cross_correlation,
    evaluation_signal,
    score,
    simulate_trace,
    threshold_from_reference,
)
from mtjbist.crc import CrcConfig

# the detector statistic on a toy pair first
print(f"cross_correlation([1, 2], [3, 4]) = {cross_correlation([1, 2], [3, 4]).tolist()}")
print("the detector value is the max of the absolute cross correlation\n")

crc = CrcConfig()
clean = CrcDecoderCircuit(crc)
infected = TrojanCrcDecoderCircuit(crc)

# golden reference from the clean device, threshold from a held-out clean set
reference = simulate_trace(clean, 0xA5, NORMAL, seed=1)
heldout = build_dataset(clean, NORMAL, n_patterns=20, seed=2)
threshold = threshold_from_reference(evaluation_signal(reference, heldout))
print(f"acceptance threshold (mean over 20 held-out clean traces): {threshold:.1f}")

# devices under test: clean, process corner, hot die, and an infected one
conditions = {
    "normal": (clean, NORMAL),
    "process variation": (clean, Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=0.15)),
    "temperature 100C": (clean, Condition(ConditionKind.TEMPERATURE, temperature_c=100.0)),
    "active trojan": (infected, TROJAN),
}
config = DetectorConfig(threshold=threshold, sensitivity=0.10)
print(f"accept while |value - threshold| <= {config.sensitivity:.0%} of the threshold\n")
print(f"{'device':>18} {'mean value':>12} {'vs threshold':>12} {'rejected':>9}")
for label, (circuit, condition) in conditions.items():
    ds = build_dataset(circuit, condition, n_patterns=20, seed=3)
    signal = evaluation_signal(reference, ds)
    decisions = classify(signal, config)
    counts = score(decisions, condition)
    mean = float(np.mean(signal.values))
    print(f"{label:>18} {mean:12.1f} {mean / threshold:11.2f}x"
          f" {counts.fp + counts.tp:6d}/20")

print("\nenvironmental shifts stay inside the band; the payload spike cannot")
