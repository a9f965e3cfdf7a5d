import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.detector import (
    ConfusionCounts,
    DetectorConfig,
    EvaluationSignal,
    _peak_correlation,
    classify,
    cross_correlation,
    evaluation_signal,
    relational_detector,
    score,
    threshold_from_reference,
)
from mtjbist.traces import NORMAL, TROJAN, CurrentTrace, Dataset

from oracles import detector_double_loop, xcorr_double_loop

floats = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)


def test_cross_correlation_worked_example():
    assert cross_correlation([1, 2], [3, 4]).tolist() == [4, 11, 6]


def test_cross_correlation_impulse_reverses():
    out = cross_correlation([1, 0, 0], [2, 5, 7])
    assert out.tolist() == [7, 5, 2, 0, 0]


def test_zero_lag_is_dot_product():
    a = np.array([1.0, -2.0, 3.0, 0.5])
    out = cross_correlation(a, a)
    assert out[len(a) - 1] == pytest.approx(np.dot(a, a))


def test_matches_oracle_on_integers_exactly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        a = rng.integers(-100, 100, n)
        b = rng.integers(-100, 100, n)
        assert cross_correlation(a, b).tolist() == xcorr_double_loop(a.tolist(), b.tolist())


def test_matches_oracle_on_floats():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 24))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        expect = xcorr_double_loop(a.tolist(), b.tolist())
        assert np.allclose(cross_correlation(a, b), expect, rtol=1e-12, atol=1e-12)


def test_detector_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 32))
        a = rng.integers(-9, 9, n).astype(float)
        b = rng.integers(-9, 9, n).astype(float)
        assert relational_detector(a, b) == detector_double_loop(a.tolist(), b.tolist())


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        cross_correlation([1, 2, 3], [1, 2])
    with pytest.raises(ValueError):
        cross_correlation([], [])
    with pytest.raises(ValueError):
        cross_correlation(np.zeros((2, 2)), np.zeros((2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(floats, min_size=1, max_size=24))
def test_detector_symmetric_and_nonnegative(xs):
    a = np.array(xs)
    b = a[::-1] + 1.0
    va = relational_detector(a, b)
    assert va >= 0
    assert va == relational_detector(b, a)


@settings(max_examples=60, deadline=None)
@given(st.lists(floats, min_size=2, max_size=16), st.floats(min_value=0.25, max_value=8))
def test_detector_homogeneous_in_each_argument(xs, c):
    a = np.array(xs)
    b = a + 0.5
    assert relational_detector(c * a, b) == pytest.approx(c * relational_detector(a, b), rel=1e-9)


def test_normalized_detector_bounded_by_one():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(100, 140))
        a = CurrentTrace(dt=0.1, samples=rng.normal(size=n))
        b = rng.normal(size=(1, n))
        v = evaluation_signal(a, dataset_of(b), normalized=True).values[0]
        assert 0.0 <= v <= 1.0 + 1e-12
    silent = CurrentTrace(dt=0.1, samples=np.zeros(128))
    assert evaluation_signal(silent, dataset_of(np.ones((1, 128))), normalized=True).values.tolist() == [0.0]


def test_normalized_detector_scale_invariant():
    rng = np.random.default_rng(78)
    a = rng.normal(size=128)
    b = rng.normal(size=(1, 128))
    v = evaluation_signal(CurrentTrace(dt=0.1, samples=a), dataset_of(b), normalized=True).values[0]
    scaled = evaluation_signal(CurrentTrace(dt=0.1, samples=8 * a), dataset_of(0.125 * b), normalized=True)
    assert scaled.values[0] == pytest.approx(v)


def test_classify_band_edges_accept():
    config = DetectorConfig(threshold=100.0, sensitivity=0.10)
    signal = EvaluationSignal(np.array([110.0, 90.0, 100.0, 110.0001, 89.9999]))
    rejected = classify(signal, config)
    assert rejected.dtype == bool
    assert rejected.tolist() == [False, False, False, True, True]


def test_wider_sensitivity_never_rejects_more():
    rng = np.random.default_rng(4)
    values = EvaluationSignal(rng.uniform(50, 150, 200))
    rejects = []
    for s in (0.05, 0.10, 0.20):
        decisions = classify(values, DetectorConfig(threshold=100.0, sensitivity=s))
        rejects.append(np.count_nonzero(decisions))
    assert rejects[0] >= rejects[1] >= rejects[2]


def test_joint_power_of_two_scaling_preserves_decisions():
    # scaling signal and threshold together is exact in binary floats
    values = np.array([88.0, 91.0, 109.0, 113.0, 100.0])
    base = classify(EvaluationSignal(values), DetectorConfig(100.0, 0.10))
    scaled = classify(EvaluationSignal(values * 4), DetectorConfig(400.0, 0.10))
    assert np.array_equal(base, scaled)


def test_threshold_is_mean():
    sig = EvaluationSignal(np.array([1.0, 2.0, 3.0, 6.0]))
    assert threshold_from_reference(sig) == 3.0


def dataset_of(rows, dt=0.1) -> Dataset:
    return Dataset(condition=NORMAL, seed=0, circuit="stub", pattern_bits=8, dt=dt,
                   patterns=list(range(len(rows))), samples=rows)


# the product sums in another order than np.correlate, and which order
# depends on the BLAS kernel, so the values agree to a stated tolerance
def test_evaluation_signal_over_dataset():
    ref = CurrentTrace(dt=0.1, samples=np.linspace(0, 1, 128))
    rows = np.array([np.linspace(0, 1, 128) + i for i in range(3)])
    sig = evaluation_signal(ref, dataset_of(rows))
    assert len(sig) == 3
    expect = [detector_double_loop(ref.samples.tolist(), row.tolist()) for row in rows]
    assert sig.values.tolist() == pytest.approx(expect, rel=1e-12, abs=0)


# at N = 129, 130, 200 and 256 the lags of one call fall into 3, 3, 5 and 8 blocks
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.sampled_from([1, 2, 5, 31, 64, 129, 130, 200, 256]),
       st.floats(-4, 4), st.integers(0, 2**32 - 1))
def test_peak_correlation_matches_the_double_loop_row_by_row(n_rows, n, offset, seed):
    rng = np.random.default_rng(seed)
    rows = offset + rng.normal(size=(n_rows, n))
    ref = offset + rng.normal(size=n)
    values = _peak_correlation(rows, ref)
    assert values.shape == (n_rows,)
    for row, value in zip(rows, values):
        assert value == pytest.approx(detector_double_loop(row.tolist(), ref.tolist()), rel=1e-12, abs=0)
        assert value == pytest.approx(_peak_correlation(row[None, :], ref)[0], rel=1e-12, abs=0)


def test_peak_correlation_memory_is_bounded_by_its_lag_blocks():
    # an unblocked Toeplitz matrix of 20 000 samples would take 6.4 GB
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2, 20_000))
    ref = rng.normal(size=20_000)
    tracemalloc.start()
    try:
        values = _peak_correlation(rows, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    expect = [np.abs(np.correlate(row, ref, "full")).max() for row in rows]
    assert values.tolist() == pytest.approx(expect, rel=1e-12, abs=0)


def test_evaluation_signal_rejects_a_reference_of_another_dt():
    rows = np.ones((2, 128))
    with pytest.raises(ValueError, match=r"reference dt 0\.2 ns, the dataset's is 0\.1 ns"):
        evaluation_signal(CurrentTrace(dt=0.2, samples=np.ones(128)), dataset_of(rows, dt=0.1))
    # within DT_RTOL, as the trace reader allows
    evaluation_signal(CurrentTrace(dt=0.1 * (1 + 1e-7), samples=np.ones(128)), dataset_of(rows, dt=0.1))


def test_evaluation_signal_rejects_a_reference_of_another_length():
    with pytest.raises(ValueError, match="reference holds 129 samples, a dataset row 128"):
        evaluation_signal(CurrentTrace(dt=0.1, samples=np.ones(129)), dataset_of(np.ones((2, 128))))


def test_normalized_evaluation_gives_a_zero_row_zero():
    rows = np.array([np.zeros(128), np.arange(128.0)])
    ref = CurrentTrace(dt=0.1, samples=np.linspace(1, 2, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = evaluation_signal(ref, dataset_of(rows), normalized=True)
    assert sig.values[0] == 0.0
    energy = np.linalg.norm(ref.samples) * np.linalg.norm(rows[1])
    expect = detector_double_loop(ref.samples.tolist(), rows[1].tolist()) / energy
    assert sig.values[1] == pytest.approx(expect, rel=1e-12)


def test_score_maps_rejections_by_provenance():
    rejected = np.array([False, True, True])
    clean = score(rejected, NORMAL)
    assert (clean.tp, clean.fp, clean.tn, clean.fn) == (0, 2, 1, 0)
    infected = score(rejected, TROJAN)
    assert (infected.tp, infected.fp, infected.tn, infected.fn) == (2, 0, 0, 1)


def test_validation():
    with pytest.raises(ValueError):
        DetectorConfig(threshold=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(threshold=1.0, sensitivity=0.0)
    # a nan threshold rejected every trace, an infinite sensitivity accepted every one
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            DetectorConfig(threshold=bad)
        with pytest.raises(ValueError, match="sensitivity must be positive and finite"):
            DetectorConfig(threshold=1.0, sensitivity=bad)
    with pytest.raises(ValueError):
        EvaluationSignal(np.array([]))
    with pytest.raises(ValueError):
        EvaluationSignal(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        EvaluationSignal(np.array([np.inf]))
    empty = ConfusionCounts()
    assert empty.tp + empty.fp + empty.tn + empty.fn == 0
