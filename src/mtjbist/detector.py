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
from numpy.lib.stride_tricks import sliding_window_view

from .textio import positive_finite
from .traces import DT_RTOL, Condition, CurrentTrace, Dataset

DEFAULT_SENSITIVITY = 0.10
SENSITIVITY_LEVELS = (0.05, 0.10, 0.20)


@dataclass(frozen=True)
class DetectorConfig:
    threshold: float
    sensitivity: float = DEFAULT_SENSITIVITY

    def __post_init__(self):
        positive_finite("threshold", self.threshold)
        positive_finite("sensitivity", self.sensitivity)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


def _signals(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or len(a) != len(b):
        raise ValueError("inputs must be equal-length one-dimensional signals")
    if len(a) == 0:
        raise ValueError("inputs must not be empty")
    return a, b


def cross_correlation(a, b) -> np.ndarray:
    """Full linear cross correlation of two equal-length sample arrays.

    For inputs of length N the output has length 2N - 1 with
    out[k] = sum_n a[n] * b[n + (N - 1) - k]; out[N - 1] is the zero-lag dot
    product. Matches np.correlate(a, b, mode="full").
    """
    return np.correlate(*_signals(a, b), mode="full")


# bytes of one block of lags of the Toeplitz matrix: 64 lags at N = 256
_BLOCK_BYTES = 128 * 1024


def _peak_correlation(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """max |cross_correlation(row, reference)| of each row of a (k, N) matrix.

    Lag k of every row is one column of rows @ W.T, W the (2N - 1, N)
    Toeplitz matrix of the zero-padded reference: W[k, n] =
    reference[n + (N - 1) - k]. The lags are taken in blocks of W of at most
    _BLOCK_BYTES, and the peak is kept as a running maximum.
    """
    n = len(reference)
    padded = np.concatenate((np.zeros(n - 1), reference, np.zeros(n - 1)))
    # window j starts at padded[j], so W[k] is window 2N - 2 - k
    toeplitz = sliding_window_view(padded, n)[::-1]
    lags = max(1, _BLOCK_BYTES // (n * padded.itemsize))
    peak = np.zeros(len(rows))
    for k in range(0, 2 * n - 1, lags):
        block = np.ascontiguousarray(toeplitz[k:k + lags])
        np.maximum(peak, np.abs(rows @ block.T).max(axis=1), out=peak)
    return peak


def relational_detector(reference, test) -> float:
    """Maximum of |cross correlation| of two sample arrays; >= 0, symmetric in
    its arguments. evaluation_signal holds the energy-normalized variant."""
    # the same product for both argument orders, which some BLAS kernels round differently
    first, second = sorted(_signals(reference, test), key=np.ndarray.tobytes)
    return float(_peak_correlation(first[None, :], second)[0])


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
    """Detector value of every dataset row, from one blocked Toeplitz product.

    The reference must step by the dataset's dt, to DT_RTOL, and hold as
    many samples as a row. normalized=True divides each value by the product
    of the two 2-norms; a row of norm 0 gets 0.
    """
    ref, rows = reference.samples, dataset.samples
    if not abs(reference.dt - dataset.dt) <= DT_RTOL * dataset.dt:
        raise ValueError(f"reference dt {reference.dt!r} ns, the dataset's is {dataset.dt!r} ns")
    if len(ref) != rows.shape[1]:
        raise ValueError(f"reference holds {len(ref)} samples, a dataset row {rows.shape[1]}")
    values = _peak_correlation(rows, ref)
    if normalized:
        denom = np.linalg.norm(ref) * np.linalg.norm(rows, axis=1)
        values = np.divide(values, denom, out=np.zeros_like(values), where=denom != 0)
    return EvaluationSignal(values)


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
