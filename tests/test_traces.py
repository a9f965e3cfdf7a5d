import numpy as np
import pytest

from mtjbist.circuits import CrcDecoderCircuit, KatanCircuit, TrojanCrcDecoderCircuit
from mtjbist.crc import CrcConfig, encode

CRC8 = CrcConfig()
from mtjbist.traces import (
    NORMAL,
    TROJAN,
    Condition,
    ConditionKind,
    CurrentTrace,
    Dataset,
    TraceParams,
    build_dataset,
    draw_patterns,
    read_dataset,
    read_trace_csv,
    simulate_trace,
    toggle_profile,
    write_dataset,
    write_trace_csv,
)
from mtjbist.trojan import crc_trigger, crc_trojan_spec


class StubCircuit:
    """Three-step toy with a fixed toggle profile of [1, 2, 1]."""

    input_width = 4
    n_steps = 3
    name = "stub"
    trigger_toggles = 0

    def toggles(self, patterns):
        return np.tile(np.array([1, 2, 1], dtype=np.int64), (len(patterns), 1))

    def activation_steps(self, pattern):
        return ()


class ActiveStub(StubCircuit):
    trigger_toggles = 5

    def activation_steps(self, pattern):
        return (2,)


def test_toggle_profile_counts_flipped_bits():
    assert toggle_profile(StubCircuit(), 0).tolist() == [1, 2, 1]


def test_toggle_profile_rejects_wide_pattern():
    with pytest.raises(ValueError):
        toggle_profile(StubCircuit(), 16)


def test_simulate_trace_noiseless_formula():
    params = TraceParams(n_samples=100, noise_sigma=0.0)
    trace = simulate_trace(StubCircuit(), 0, NORMAL, params=params)
    expected = np.full(100, 4.0)
    expected[:3] += [1.0, 2.0, 1.0]
    assert np.array_equal(trace.samples, expected)
    assert trace.dt == params.dt
    assert len(trace.samples) == 100


def test_condition_scales():
    params = TraceParams()
    pv = Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=0.1)
    temp = Condition(ConditionKind.TEMPERATURE, temperature_c=120.0)
    assert pv.scale(params) == pytest.approx(1.05)
    assert temp.scale(params) == pytest.approx(1.2)
    assert NORMAL.scale(params) == 1.0
    assert TROJAN.scale(params) == 1.0


def test_scale_multiplies_switching_term_only():
    params = TraceParams(n_samples=100, noise_sigma=0.0)
    temp = Condition(ConditionKind.TEMPERATURE, temperature_c=120.0)
    trace = simulate_trace(StubCircuit(), 0, temp, params=params)
    expected = np.full(100, 4.0)
    expected[:3] += 1.2 * np.array([1.0, 2.0, 1.0])
    assert np.allclose(trace.samples, expected, rtol=0, atol=1e-12)
    assert trace.samples[50] == 4.0  # baseline untouched


def test_activation_adds_trigger_toggles_and_spike():
    params = TraceParams(n_samples=100, noise_sigma=0.0)
    quiet = simulate_trace(StubCircuit(), 0, TROJAN, params=params)
    loud = simulate_trace(ActiveStub(), 0, TROJAN, params=params)
    delta = loud.samples - quiet.samples
    assert delta[2] == pytest.approx(params.i_unit * 5 + params.spike_gain * params.i_unit)
    assert np.count_nonzero(delta) == 1


def test_activation_spike_dwarfs_nominal_activity():
    params = TraceParams(n_samples=100, noise_sigma=0.0)
    loud = simulate_trace(ActiveStub(), 0, TROJAN, params=params)
    assert loud.samples[2] > 1e3 * params.baseline


def test_dormant_trojan_trace_is_bit_identical():
    clean = CrcDecoderCircuit()
    infected = TrojanCrcDecoderCircuit(crc_trojan_spec())
    dormant = next(p for p in range(256) if not crc_trigger(encode(p, CRC8)))
    a = simulate_trace(clean, dormant, NORMAL, noise_sigma=0.0)
    b = simulate_trace(infected, dormant, TROJAN, noise_sigma=0.0)
    assert np.array_equal(a.samples, b.samples)


def test_noise_is_seeded_gaussian():
    params = TraceParams(n_samples=100)
    noiseless = simulate_trace(StubCircuit(), 0, NORMAL, noise_sigma=0.0, params=params)
    noisy = simulate_trace(StubCircuit(), 0, NORMAL, seed=42, params=params)
    expected = noiseless.samples + np.random.default_rng(42).normal(0.0, 0.05, 100)
    assert np.array_equal(noisy.samples, expected)


def test_trace_longer_than_buffer_rejected():
    with pytest.raises(ValueError):
        simulate_trace(KatanCircuit(1), 0, NORMAL, params=TraceParams(n_samples=100))


def test_condition_validation():
    with pytest.raises(ValueError):
        Condition(ConditionKind.NORMAL, pv_length_fraction=0.1)
    with pytest.raises(ValueError):
        Condition(ConditionKind.PROCESS_VARIATION)
    with pytest.raises(ValueError):
        Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=0.5)
    with pytest.raises(ValueError):
        Condition(ConditionKind.TEMPERATURE, temperature_c=150.0)
    with pytest.raises(ValueError):
        Condition(ConditionKind.TEMPERATURE, temperature_c=120.0, pv_length_fraction=0.0)
    assert not TROJAN.original
    assert NORMAL.original


def test_trace_validation():
    with pytest.raises(ValueError):
        CurrentTrace(dt=0.1, samples=np.zeros(10))
    with pytest.raises(ValueError):
        CurrentTrace(dt=0.0, samples=np.zeros(128))
    with pytest.raises(ValueError):
        CurrentTrace(dt=0.1, samples=np.full(128, np.nan))
    with pytest.raises(ValueError):
        TraceParams(n_samples=64)


def test_dataset_validation():
    t = CurrentTrace(dt=0.1, samples=np.zeros(128))
    short = CurrentTrace(dt=0.1, samples=np.zeros(100))
    with pytest.raises(ValueError):
        Dataset(condition=NORMAL, traces=(), seed=0)
    with pytest.raises(ValueError):
        Dataset(condition=NORMAL, traces=(t, short), seed=0)


def test_draw_patterns_distinct_and_filtered():
    rng = np.random.default_rng(3)
    picks = draw_patterns(CrcDecoderCircuit(), 20, rng, pattern_filter=lambda p: p % 2 == 1)
    assert len(picks) == 20
    assert len(set(picks)) == 20
    assert all(p % 2 == 1 for p in picks)


def test_draw_patterns_small_space_falls_back_to_replacement():
    class Tiny(StubCircuit):
        input_width = 2

    picks = draw_patterns(Tiny(), 10, np.random.default_rng(0))
    assert len(picks) == 10
    assert set(picks) <= {0, 1, 2, 3}


def test_draw_patterns_empty_filter_raises():
    with pytest.raises(ValueError):
        draw_patterns(CrcDecoderCircuit(), 5, np.random.default_rng(0), pattern_filter=lambda p: False)


def test_build_dataset_reproducible():
    circ = CrcDecoderCircuit()
    a = build_dataset(circ, NORMAL, n_patterns=6, seed=11)
    b = build_dataset(circ, NORMAL, n_patterns=6, seed=11)
    assert len(a) == 6
    for ta, tb in zip(a.traces, b.traces):
        assert ta.pattern_id == tb.pattern_id
        assert np.array_equal(ta.samples, tb.samples)


def test_build_dataset_per_trace_noise_seeds():
    circ = CrcDecoderCircuit()
    ds = build_dataset(circ, NORMAL, n_patterns=4, seed=9)
    for i, trace in enumerate(ds.traces):
        again = simulate_trace(circ, trace.pattern_id, NORMAL, seed=9 ^ i)
        assert np.array_equal(trace.samples, again.samples)


def test_build_dataset_computes_toggles_in_one_call():
    calls = []

    class CountingStub(StubCircuit):
        def toggles(self, patterns):
            calls.append(list(patterns))
            return super().toggles(patterns)

    ds = build_dataset(CountingStub(), NORMAL, n_patterns=5, seed=3)
    assert [len(c) for c in calls] == [5]
    assert calls[0] == [t.pattern_id for t in ds.traces]


def test_toggle_rows_of_wrong_shape_rejected():
    class ShortStub(StubCircuit):
        def toggles(self, patterns):
            return np.ones((len(patterns), 2), dtype=np.int64)

    with pytest.raises(ValueError, match="shape"):
        toggle_profile(ShortStub(), 0)
    with pytest.raises(ValueError, match="shape"):
        build_dataset(ShortStub(), NORMAL, n_patterns=2)


def test_build_dataset_honours_pattern_filter():
    circ = TrojanCrcDecoderCircuit(crc_trojan_spec())
    trig = lambda p: crc_trigger(encode(p, CRC8))
    ds = build_dataset(circ, TROJAN, n_patterns=10, seed=5, pattern_filter=trig)
    assert all(trig(t.pattern_id) for t in ds.traces)


def test_trace_csv_round_trip_is_exact(tmp_path):
    trace = simulate_trace(StubCircuit(), 3, NORMAL, seed=7, params=TraceParams(n_samples=100))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path, pattern_id=3)
    assert back.dt == trace.dt
    assert back.pattern_id == 3
    assert np.array_equal(back.samples, trace.samples)


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("volts,amps\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_dataset_directory_round_trip(tmp_path):
    circ = CrcDecoderCircuit()
    pv = Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=-0.125)
    ds = build_dataset(circ, pv, n_patterns=5, seed=21)
    write_dataset(ds, tmp_path / "pv", circuit_name=circ.name, pattern_bits=circ.input_width)
    back = read_dataset(tmp_path / "pv")
    assert back.condition == ds.condition
    assert back.seed == ds.seed
    assert len(back) == len(ds)
    for ta, tb in zip(ds.traces, back.traces):
        assert ta.pattern_id == tb.pattern_id
        assert np.array_equal(ta.samples, tb.samples)


def test_read_dataset_missing_key_names_it(tmp_path):
    ds = build_dataset(CrcDecoderCircuit(), NORMAL, n_patterns=2, seed=4)
    write_dataset(ds, tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest"
    lines = manifest.read_text().splitlines(keepends=True)
    for key in ("n_traces", "trace.1.pattern"):
        manifest.write_text("".join(l for l in lines if not l.startswith(f"{key} ")))
        with pytest.raises(ValueError, match=f"manifest: missing key '{key}'"):
            read_dataset(tmp_path / "ds")
