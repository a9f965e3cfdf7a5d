"""Relational current-signature detector.

One golden reference trace is compared against every trace of a dataset
through the full linear cross correlation; the detector value is the maximum
of its absolute value. The acceptance threshold is the mean detector value
over a held-out dataset from a known-clean device, and a trace is accepted
when its value stays within a relative sensitivity band around that
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import Condition, CurrentTrace, Dataset

DEFAULT_SENSITIVITY = 0.10
SENSITIVITY_LEVELS = (0.05, 0.10, 0.20)


@dataclass(frozen=True)
class DetectorConfig:
    threshold: float
    sensitivity: float = DEFAULT_SENSITIVITY

    def __post_init__(self):
        # the chained comparisons are False for nan
        if not 0 < self.threshold < float("inf"):
            raise ValueError(f"threshold must be positive and finite, got {self.threshold!r}")
        if not 0 < self.sensitivity < float("inf"):
            raise ValueError(f"sensitivity must be positive and finite, got {self.sensitivity!r}")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


def cross_correlation(a, b) -> np.ndarray:
    """Full linear cross correlation of two equal-length sample arrays.

    For inputs of length N the output has length 2N - 1 with
    out[k] = sum_n a[n] * b[n + (N - 1) - k]; out[N - 1] is the zero-lag dot
    product. Matches np.correlate(a, b, mode="full").
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or len(a) != len(b):
        raise ValueError("inputs must be equal-length one-dimensional signals")
    if len(a) == 0:
        raise ValueError("inputs must not be empty")
    return np.correlate(a, b, mode="full")


def relational_detector(reference, test, normalized: bool = False) -> float:
    """Maximum of |cross correlation| of two sample arrays; >= 0, symmetric in its arguments.

    normalized=True divides by the product of the signal 2-norms (energy
    normalization), making the value scale-invariant.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(test, dtype=float)
    # one call for both argument orders, which some OpenBLAS ddot kernels round differently
    value = float(np.max(np.abs(cross_correlation(*sorted((a, b), key=np.ndarray.tobytes)))))
    if normalized:
        denom = float(np.linalg.norm(a) * np.linalg.norm(b))
        if denom == 0.0:
            return 0.0
        value /= denom
    return value


@dataclass(frozen=True, eq=False)
class EvaluationSignal:
    """Detector values of one dataset against one reference, in trace order."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("evaluation signal must be a nonempty vector")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("detector values must be finite and >= 0")

    def __len__(self) -> int:
        return len(self.values)


def evaluation_signal(reference: CurrentTrace, dataset: Dataset, normalized: bool = False) -> EvaluationSignal:
    """Detector value of every dataset row, one np.correlate per row (a
    batched FFT correlation would change the last bits of the values)."""
    values = [relational_detector(reference.samples, row, normalized) for row in dataset.samples]
    return EvaluationSignal(np.array(values))


def threshold_from_reference(signal: EvaluationSignal) -> float:
    """Acceptance threshold: the mean of a clean device's evaluation signal."""
    return float(np.mean(signal.values))


def classify(signal: EvaluationSignal, config: DetectorConfig) -> np.ndarray:
    """Bool per value, True where it is rejected: outside
    |value - threshold| <= sensitivity * threshold (band edges accept)."""
    return ~(np.abs(signal.values - config.threshold) <= config.sensitivity * config.threshold)


def score(rejected, condition: Condition) -> ConfusionCounts:
    """Confusion counts of one dataset of known provenance, from classify's array.

    Positive = Trojan present. A rejection of a Trojan dataset's trace is a
    true positive; a rejection of any original-device trace (Normal, process
    variation, temperature) is a false positive.
    """
    n_reject = int(np.count_nonzero(rejected))
    n_accept = len(rejected) - n_reject
    if condition.original:
        return ConfusionCounts(tp=0, fp=n_reject, tn=n_accept, fn=0)
    return ConfusionCounts(tp=n_reject, fp=0, tn=0, fn=n_accept)
