import os
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtjbist.circuits import CrcDecoderCircuit, KatanCircuit, TrojanCrcDecoderCircuit, TrojanKatanCircuit
from mtjbist.crc import CrcConfig
from mtjbist.traces import (
    NORMAL,
    TROJAN,
    Condition,
    ConditionKind,
    CurrentTrace,
    Dataset,
    DEFAULT_PARAMS,
    MIN_TRACE_SAMPLES,
    PV_FRACTION_RANGE,
    TEMPERATURE_RANGE_C,
    TraceParams,
    build_dataset,
    draw_patterns,
    read_dataset,
    read_trace_csv,
    simulate_trace,
    toggle_profile,
    trace_text,
    write_datasets,
)
from mtjbist.textio import MIN_FILES_PER_THREAD, write_files, write_text
from mtjbist.trojan import TrojanSpec
from oracles import (crc_trojan_fires, katan32_toggles, katan_trojan_fires, read_trace_rows, row_noise, scan_draw,
                     write_trace_rows)


def write_trace(trace: CurrentTrace, path) -> None:
    """One trace file, written by the writer behind every command."""
    write_text(path, trace_text(trace.dt, trace.samples))


KATAN_KEY = 0x9E3779B97F4A7C15F39D
CRC_TROJAN = TrojanCrcDecoderCircuit()
KATAN_TROJAN = TrojanKatanCircuit(KATAN_KEY, TrojanSpec())


class StubCircuit:
    """Three-step toy with a fixed toggle profile of [1, 2, 1]."""

    input_width = 4
    n_steps = 3
    name = "stub"
    trigger_toggles = 0

    def toggles(self, patterns):
        return np.tile(np.array([1, 2, 1], dtype=np.int64), (len(patterns), 1))

    def fires(self, patterns):
        return np.zeros(np.shape(patterns), bool)


class ActiveStub(StubCircuit):
    trigger_toggles = 5

    def fires(self, patterns):
        return np.ones(np.shape(patterns), bool)


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
    infected = TrojanCrcDecoderCircuit()
    dormant = next(p for p in range(256) if not infected.fires(p))
    noiseless = TraceParams(noise_sigma=0.0)
    a = simulate_trace(clean, dormant, NORMAL, params=noiseless)
    b = simulate_trace(infected, dormant, TROJAN, params=noiseless)
    assert np.array_equal(a.samples, b.samples)


def test_noise_is_seeded_gaussian():
    params = TraceParams(n_samples=100)
    noiseless = simulate_trace(StubCircuit(), 0, NORMAL, params=TraceParams(n_samples=100, noise_sigma=0.0))
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
    # nan used to pass every check: a nan noise_sigma silently dropped the noise
    for name in ("dt", "i_unit", "baseline", "noise_sigma", "spike_gain", "k_pv", "k_temp"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                TraceParams(**{name: bad})


def dataset(samples, patterns=None, dt=0.1, pattern_bits=4):
    if patterns is None:
        patterns = list(range(len(samples)))
    return Dataset(condition=NORMAL, seed=0, circuit="stub", pattern_bits=pattern_bits, dt=dt,
                   patterns=patterns, samples=samples)


def test_dataset_validation():
    assert len(dataset(np.zeros((2, 128)))) == 2
    with pytest.raises(ValueError):
        dataset(np.zeros((0, 128)))
    # a matrix cannot be ragged: rows of another length do not make one
    with pytest.raises(ValueError):
        dataset([np.zeros(128), np.zeros(100)])
    with pytest.raises(ValueError, match="matrix"):
        dataset(np.zeros(128), patterns=[0])
    with pytest.raises(ValueError, match="100 samples"):
        dataset(np.zeros((2, 64)))
    with pytest.raises(ValueError, match="finite"):
        dataset(np.full((2, 128), np.inf))
    for dt in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            dataset(np.zeros((2, 128)), dt=dt)
    with pytest.raises(ValueError, match="one pattern of at most 4 bits per trace row"):
        dataset(np.zeros((2, 128)), patterns=[0, 1, 2])
    for bad, text in (([0, 16], "0x10"), ([-1, 0], "-0x1")):
        with pytest.raises(ValueError, match=f"^pattern {text} does not fit in 4 bits$"):
            dataset(np.zeros((2, 128)), patterns=bad)
    for bits in (0, 64):
        with pytest.raises(ValueError, match="pattern_bits"):
            dataset(np.zeros((2, 128)), pattern_bits=bits)


def test_draw_patterns_distinct_and_filtered():
    rng = np.random.default_rng(3)
    picks = draw_patterns(CrcDecoderCircuit(), 20, rng, pattern_filter=lambda p: p % 2 == 1)
    assert len(picks) == 20
    assert len(set(picks)) == 20
    assert all(p % 2 == 1 for p in picks)
    # a filter that answers one bool for the whole batch holds for every candidate
    everything = draw_patterns(CrcDecoderCircuit(), 20, np.random.default_rng(3), pattern_filter=lambda p: True)
    assert everything == draw_patterns(CrcDecoderCircuit(), 20, np.random.default_rng(3))
    assert len(set(everything)) == 20


def test_draw_patterns_small_space_falls_back_to_replacement():
    class Tiny(StubCircuit):
        input_width = 2

    picks = draw_patterns(Tiny(), 10, np.random.default_rng(0))
    assert len(picks) == 10
    assert set(picks) <= {0, 1, 2, 3}


def test_draw_patterns_empty_filter_raises():
    with pytest.raises(ValueError):
        draw_patterns(CrcDecoderCircuit(), 5, np.random.default_rng(0), pattern_filter=lambda p: False)


# used to raise numpy's "high is out of bounds for int64", naming no width
def test_draw_patterns_from_a_64_bit_input_names_the_width():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^input_width = 64: random patterns take at most 63 bits$"):
        draw_patterns(CrcDecoderCircuit(CrcConfig(data_width=64)), 3, rng)
    assert rng.bit_generator.state == state


def _draw_both(circuit, n, seed, oracle):
    """(draw_patterns with the circuit's fires, the per-candidate scan with
    the scalar oracle) from one seed, or None for each that accepts nothing."""
    space = 1 << circuit.input_width
    if not any(oracle(p) for p in range(space)):
        with pytest.raises(ValueError, match="rejects the whole input space"):
            draw_patterns(circuit, n, np.random.default_rng(seed), circuit.fires)
        return None, None
    return (draw_patterns(circuit, n, np.random.default_rng(seed), circuit.fires),
            scan_draw(space, n, np.random.default_rng(seed), oracle))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 16), st.data(), st.integers(1, 40), st.integers(0, 2**63 - 1))
def test_draw_patterns_equals_the_per_candidate_scan(d, g, data, n, seed):
    config = CrcConfig(poly=data.draw(st.integers(1, (1 << g) - 1)), check_width=g, data_width=d)
    drawn, scanned = _draw_both(TrojanCrcDecoderCircuit(config), n, seed,
                                lambda p: crc_trojan_fires(p, config.poly, d, g))
    assert drawn == scanned
    assert draw_patterns(CrcDecoderCircuit(config), n, np.random.default_rng(seed)) == scan_draw(
        1 << d, n, np.random.default_rng(seed), lambda p: True)


def test_draw_patterns_scans_a_16_bit_space_as_the_per_candidate_scan():
    config = CrcConfig(poly=0x1021, check_width=16, data_width=16)
    drawn, scanned = _draw_both(TrojanCrcDecoderCircuit(config), 20, 1,
                                lambda p: crc_trojan_fires(p, 0x1021, 16, 16))
    assert drawn == scanned and len(set(drawn)) == 20


@settings(max_examples=15, deadline=None)
@given(st.integers(17, 20), st.integers(1, 16), st.data(), st.integers(1, 12), st.integers(0, 2**63 - 1))
def test_draw_patterns_by_rejection_keeps_firing_patterns(d, g, data, n, seed):
    config = CrcConfig(poly=data.draw(st.integers(1, (1 << g) - 1)), check_width=g, data_width=d)
    oracle = lambda p: crc_trojan_fires(p, config.poly, d, g)  # noqa: E731
    # the check parity is linear in the data bits, so the trigger fires on
    # some pattern iff it fires on a single set bit
    assume(any(oracle(1 << i) for i in range(d)))
    circuit = TrojanCrcDecoderCircuit(config)
    drawn = draw_patterns(circuit, n, np.random.default_rng(seed), circuit.fires)
    assert len(drawn) == n == len(set(drawn))
    assert all(type(p) is int and oracle(p) for p in drawn)


def test_build_dataset_reproducible():
    circ = CrcDecoderCircuit()
    a = build_dataset(circ, NORMAL, n_patterns=6, seed=11)
    b = build_dataset(circ, NORMAL, n_patterns=6, seed=11)
    assert len(a) == 6
    assert a.samples.shape == (6, DEFAULT_PARAMS.n_samples)
    assert np.array_equal(a.patterns, b.patterns)
    assert np.array_equal(a.samples, b.samples)


def test_build_dataset_per_trace_noise_seeds():
    # every path of the synthesis: switching term, condition scale, trigger
    # toggles and payload spike of a firing Trojan, for CRC and KATAN rows
    cases = [
        (CrcDecoderCircuit(), NORMAL),
        (CrcDecoderCircuit(), Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=-0.15)),
        (CrcDecoderCircuit(), Condition(ConditionKind.TEMPERATURE, temperature_c=87.5)),
        (CRC_TROJAN, TROJAN),
        (KatanCircuit(KATAN_KEY), Condition(ConditionKind.TEMPERATURE, temperature_c=33.0)),
        (KATAN_TROJAN, TROJAN),
    ]
    for circ, condition in cases:
        ds = build_dataset(circ, condition, n_patterns=4, seed=9)
        assert ds.circuit == circ.name
        assert ds.pattern_bits == circ.input_width
        assert ds.dt == DEFAULT_PARAMS.dt
        for i, (pattern, row) in enumerate(zip(ds.patterns, ds.samples)):
            again = simulate_trace(circ, int(pattern), condition, seed=9 ^ i)
            assert np.array_equal(row, again.samples)
            if not condition.original:
                assert circ.fires(int(pattern))
                assert row[circ.n_steps - 1] > DEFAULT_PARAMS.spike_gain


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 6), infected=st.booleans(),
       kind=st.sampled_from(ConditionKind), pv=st.floats(*PV_FRACTION_RANGE), temperature=st.floats(*TEMPERATURE_RANGE_C))
def test_katan_dataset_rows_are_the_recipe_sum(seed, n, infected, kind, pv, temperature):
    # a clean circuit has no Trojan dataset: no pattern fires its trigger
    assume(infected or kind is not ConditionKind.TROJAN)
    spec, p = TrojanSpec(), DEFAULT_PARAMS
    circuit = TrojanKatanCircuit(KATAN_KEY, spec) if infected else KatanCircuit(KATAN_KEY)
    condition = Condition(kind, pv_length_fraction=pv if kind is ConditionKind.PROCESS_VARIATION else None,
                          temperature_c=temperature if kind is ConditionKind.TEMPERATURE else None)
    scale = {ConditionKind.PROCESS_VARIATION: 1.0 + p.k_pv * pv,
             ConditionKind.TEMPERATURE: 1.0 + p.k_temp * (temperature - 20.0)}.get(kind, 1.0)
    ds = build_dataset(circuit, condition, n_patterns=n, seed=seed)
    for i, (pattern, row) in enumerate(zip(ds.patterns.tolist(), ds.samples.tolist())):
        toggles = katan32_toggles(pattern, KATAN_KEY)
        fires = infected and katan_trojan_fires(pattern, KATAN_KEY, spec.trigger_key_bits, spec.trigger_pt_bits)
        noise = row_noise(seed, i, p.n_samples, p.noise_sigma).tolist()
        expected = []
        for t in range(p.n_samples):
            v = p.baseline
            if t < len(toggles):
                v += (p.i_unit * scale) * toggles[t]
            if fires and t == 253:
                v += (p.i_unit * scale) * (len(spec.trigger_key_bits) + len(spec.trigger_pt_bits))
                v += p.spike_gain * p.i_unit
            expected.append(v + noise[t])
        assert row == expected, i


def test_build_dataset_computes_toggles_in_one_call():
    calls = []

    class CountingStub(StubCircuit):
        def toggles(self, patterns):
            calls.append(list(patterns))
            return super().toggles(patterns)

    ds = build_dataset(CountingStub(), NORMAL, n_patterns=5, seed=3)
    assert [len(c) for c in calls] == [5]
    assert calls[0] == ds.patterns.tolist()


def test_toggle_rows_of_wrong_shape_rejected():
    class ShortStub(StubCircuit):
        def toggles(self, patterns):
            return np.ones((len(patterns), 2), dtype=np.int64)

    with pytest.raises(ValueError, match="shape"):
        toggle_profile(ShortStub(), 0)
    with pytest.raises(ValueError, match="shape"):
        build_dataset(ShortStub(), NORMAL, n_patterns=2)


def test_a_trojan_dataset_draws_patterns_that_fire():
    circ = TrojanCrcDecoderCircuit()
    ds = build_dataset(circ, TROJAN, n_patterns=10, seed=5)
    assert all(circ.fires(int(p)) for p in ds.patterns)
    # an original condition draws from the whole space, fired or not
    assert not all(circ.fires(int(p)) for p in build_dataset(circ, NORMAL, n_patterns=10, seed=5).patterns)


def test_trace_csv_round_trip_is_exact(tmp_path):
    trace = simulate_trace(StubCircuit(), 3, NORMAL, seed=7, params=TraceParams(n_samples=100))
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    back = read_trace_csv(path)
    assert back.dt == trace.dt
    assert np.array_equal(back.samples, trace.samples)


def test_a_numpy_step_is_written_as_a_float_step(tmp_path):
    samples = np.full(MIN_TRACE_SAMPLES, 4.0)
    # the numpy step first: a float step of the same value must not reuse its text
    write_trace(CurrentTrace(np.float64(0.1), samples), tmp_path / "numpy.csv")
    write_trace(CurrentTrace(0.1, samples), tmp_path / "float.csv")
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()
    assert read_trace_csv(tmp_path / "numpy.csv").dt == 0.1


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("volts,amps\n0.0,1.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_dataset_directory_round_trip(tmp_path):
    circ = CrcDecoderCircuit()
    pv = Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=-0.125)
    ds = build_dataset(circ, pv, n_patterns=5, seed=21)
    write_datasets({tmp_path / "pv": ds})
    back = read_dataset(tmp_path / "pv")
    assert back.condition == ds.condition
    assert back.seed == ds.seed
    assert len(back) == len(ds)
    assert (back.circuit, back.pattern_bits, back.dt) == (circ.name, circ.input_width, ds.dt)
    assert np.array_equal(back.patterns, ds.patterns)
    assert np.array_equal(back.samples, ds.samples)


def test_read_dataset_missing_key_names_it(tmp_path):
    ds = build_dataset(CrcDecoderCircuit(), NORMAL, n_patterns=2, seed=4)
    write_datasets({tmp_path / "ds": ds})
    manifest = tmp_path / "ds" / "manifest"
    lines = manifest.read_text().splitlines(keepends=True)
    for key in ("n_traces", "dt_ns", "trace.1.pattern"):
        manifest.write_text("".join(l for l in lines if not l.startswith(f"{key} ")))
        with pytest.raises(ValueError, match=f"manifest: missing key '{key}'"):
            read_dataset(tmp_path / "ds")


def _manifest_2_traces(tmp_path):
    """A written 2-trace dataset whose manifest has the lines
    1 condition.kind, 2 seed, 3 n_traces, 4 dt_ns, 5 pattern_bits, 6 circuit,
    7/8 trace.0.file/pattern and 9/10 trace.1.file/pattern."""
    write_datasets({tmp_path / "ds": build_dataset(CrcDecoderCircuit(), NORMAL, n_patterns=2, seed=4)})
    return tmp_path / "ds" / "manifest"


# manifest line -> new text (line 11 is appended), the line the error names, its message
@pytest.mark.parametrize("edits, line, message", [
    ({3: "n_traces = abc"}, 3, "bad value for n_traces: invalid literal"),
    ({3: "n_traces = 0"}, 3, "bad value for n_traces: must be >= 1, got '0'"),
    ({3: "n_traces = -1"}, 3, "must be >= 1, got '-1'"),
    ({2: "seed = 1.5"}, 2, "bad value for seed"),
    ({10: "trace.1.pattern = zz"}, 10, "bad value for trace.1.pattern: invalid literal"),
    ({8: "trace.0.pattern = 1ff"}, 8, "bad value for trace.0.pattern: '1ff' does not fit in 8 bits"),
    ({8: "trace.0.pattern = -1"}, 8, "does not fit in 8 bits"),
    ({5: "pattern_bits = 64"}, 5, "bad value for pattern_bits: must lie in [1, 63]"),
    ({4: "dt_ns = nan"}, 4, "bad value for dt_ns: expected a finite number"),
    ({4: "dt_ns = 0"}, 4, "bad value for dt_ns: must be positive"),
    ({1: "condition.kind = hot"}, 1, "bad value for condition.kind"),
    ({11: "condition.temperature_c = 50"}, 1, "normal takes no parameters"),
    # a typo used to read every pattern as 32 bits and exit 0
    ({5: "pattern_bit = 8"}, 5, "unknown key 'pattern_bit'"),
    ({11: "seed = 5"}, 11, "duplicate key 'seed', first set on line 2"),
    ({11: "trace.2.file = trace_000.csv"}, 11, "unknown key 'trace.2.file', n_traces is 2"),
    ({11: "trace.00.file = trace_000.csv"}, 11, "unknown key 'trace.00.file'"),
    ({11: "trace.0.name = x"}, 11, "unknown key 'trace.0.name'"),
    ({6: "", 11: "circuit"}, 11, "expected 'key = value', got 'circuit'"),
    # each of these three used to be read: a trace file must be its own entry in the directory
    ({9: "trace.1.file = ../outside.csv"}, 9,
     "bad value for trace.1.file: '../outside.csv' is not a file name in the directory"),
    ({9: "trace.1.file = {ds}/trace_001.csv"}, 9, "trace_001.csv' is not a file name in the directory"),
    ({9: "trace.1.file = trace_000.csv"}, 9, "bad value for trace.1.file: 'trace_000.csv' is also trace.0.file"),
], ids=["n-abc", "n-zero", "n-negative", "seed-float", "pattern-zz", "pattern-too-wide", "pattern-negative",
        "bits-64", "dt-nan", "dt-zero", "kind", "condition-parameter", "unknown", "duplicate",
        "index-beyond-n", "index-not-canonical", "unknown-field", "no-equals",
        "file-outside", "file-absolute", "file-repeated"])
def test_read_dataset_bad_manifest_line_names_it(tmp_path, edits, line, message):
    manifest = _manifest_2_traces(tmp_path)
    # a readable trace just outside the dataset directory
    (tmp_path / "outside.csv").write_bytes((tmp_path / "ds" / "trace_001.csv").read_bytes())
    lines = manifest.read_text().splitlines()
    assert len(lines) == 10
    for ln, text in sorted(edits.items()):
        lines[ln - 1:ln] = [text.replace("{ds}", str(tmp_path / "ds"))]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}:{line}: .*{re.escape(message)}"):
        read_dataset(tmp_path / "ds")


def test_read_dataset_accepts_comments_and_optional_keys(tmp_path):
    manifest = _manifest_2_traces(tmp_path)
    ds = read_dataset(tmp_path / "ds")
    lines = manifest.read_text().splitlines()
    # no pattern_bits (32 by default) and no circuit; comments and blank lines anywhere
    manifest.write_text("# dataset\n\n" + "\n".join(f"{l}  # note" for l in lines[:4] + lines[6:]) + "\n")
    back = read_dataset(tmp_path / "ds")
    assert (back.pattern_bits, back.circuit) == (32, "")
    assert np.array_equal(back.patterns, ds.patterns)
    assert np.array_equal(back.samples, ds.samples)


def test_read_dataset_breaks_lines_at_newlines_only(tmp_path):
    manifest = _manifest_2_traces(tmp_path)
    ds = read_dataset(tmp_path / "ds")
    lines = manifest.read_text().splitlines()
    # a form feed is not a line break: the comment's tail stays in the comment
    manifest.write_text("# dataset\f more\n" + "\n".join(lines) + "\n")
    assert np.array_equal(read_dataset(tmp_path / "ds").samples, ds.samples)
    lines[2] = "n_traces = abc"
    manifest.write_text("# dataset\f more\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}:4: bad value for n_traces"):
        read_dataset(tmp_path / "ds")


_CONDITIONS = st.one_of(
    st.sampled_from([NORMAL, TROJAN]),
    st.integers(-200, 200).map(lambda k: Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=k / 1000)),
    st.integers(200, 1200).map(lambda k: Condition(ConditionKind.TEMPERATURE, temperature_c=k / 10)),
)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_dataset_directory_round_trip_property(data):
    bits = data.draw(st.integers(1, 63))
    n = data.draw(st.integers(1, 3))
    patterns = data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=n, max_size=n))
    samples = data.draw(st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=MIN_TRACE_SAMPLES, max_size=MIN_TRACE_SAMPLES),
        min_size=n, max_size=n,
    ))
    ds = Dataset(
        condition=data.draw(_CONDITIONS), seed=data.draw(st.integers(-2**40, 2**40)),
        circuit=data.draw(st.sampled_from(["", "crc_decoder", "katan32"])), pattern_bits=bits,
        dt=data.draw(st.integers(1, 1000)) / 100, patterns=patterns, samples=samples,
    )
    with tempfile.TemporaryDirectory() as tmp:
        write_datasets({Path(tmp) / "ds": ds})
        back = read_dataset(Path(tmp) / "ds")
    assert (back.condition, back.seed, back.circuit, back.pattern_bits, back.dt) == \
        (ds.condition, ds.seed, ds.circuit, ds.pattern_bits, ds.dt)
    assert np.array_equal(back.patterns, ds.patterns)
    assert np.array_equal(back.samples, ds.samples)


def write_rows(path, rows):
    path.write_text("time_ns,current_uA\n" + "".join(f"{r}\n" for r in rows))


def grid_rows(n=120, dt=0.1):
    return [f"{i * dt!r},4.0" for i in range(n)]


@pytest.mark.parametrize("edits, line, message", [
    ({5: "x,y,z"}, 7, "expected 'time_ns,current_uA', got 'x,y,z'"),
    ({5: "0.5"}, 7, "got '0.5'"),
    ({5: "0.5,abc"}, 7, "got '0.5,abc'"),
    # the time axis jumps after row 2: row 3 sits at 0.5 ns, not 0.3 ns
    ({3: "0.5,4.0"}, 5, "expected time 3 * 0.1 ns and a finite current, got 0.5,4.0"),
    ({0: "0.05,4.0"}, 2, "expected time 0 * 0.05 ns"),
    ({1: "0.0,4.0"}, 3, "time step 0.0 ns is not positive"),
    ({7: "0.7,nan"}, 9, "finite current, got 0.7,nan"),
    # a blank line still counts in the reported line number
    ({4: "", 6: "x"}, 8, "got 'x'"),
    ({4: "  ", 6: "0.6,4.0,1"}, 8, "got '0.6,4.0,1'"),
    # '#' starts no comment in a trace file
    ({5: "0.5,4.0 # note"}, 7, "got '0.5,4.0 # note'"),
    # two rows' worth of fields on one line is one bad row, not two rows
    ({5: "4,0,4,0"}, 7, "got '4,0,4,0'"),
    # a form feed ends a line, though float() would strip it from the current
    ({5: "0.5,\f4.0"}, 7, "got '0.5,'"),
], ids=["three-fields", "one-field", "not-a-number", "time-jump", "time-offset", "zero-step",
        "nan-current", "after-blank", "after-whitespace-line", "comment", "four-fields", "form-feed"])
def test_read_trace_csv_names_the_bad_line(tmp_path, edits, line, message):
    rows = grid_rows()
    for i, text in edits.items():
        rows[i] = text
    path = tmp_path / "t.csv"
    write_rows(path, rows)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: .*{re.escape(message)}"):
        read_trace_csv(path)


def test_read_trace_csv_accepts_rounded_foreign_times(tmp_path):
    # times written to 3 decimals are off i * dt in the last bits only
    path = tmp_path / "t.csv"
    write_rows(path, [f"{i * 0.1:.3f},1.5" for i in range(120)])
    trace = read_trace_csv(path)
    assert trace.dt == 0.1
    assert np.array_equal(trace.samples, np.full(120, 1.5))


def test_read_trace_csv_too_short_names_the_file(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, grid_rows(50))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 50 samples, a trace needs >= 100"):
        read_trace_csv(path)


def test_read_trace_csv_checks_expected_geometry(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, grid_rows(120))
    assert len(read_trace_csv(path, 0.1 * (1 + 1e-9), 120).samples) == 120
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: time step 0.1 ns, expected 0.2 ns"):
        read_trace_csv(path, 0.2, 120)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:102: 120 samples, expected 100"):
        read_trace_csv(path, 0.1, 100)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:122: 120 samples, expected 256"):
        read_trace_csv(path, 0.1, 256)


@pytest.mark.parametrize("row", ["0.0,4.0,1", "0.0"], ids=["three-fields", "one-field"])
def test_read_trace_csv_rejects_rows_of_one_wrong_width(tmp_path, row):
    # every row alike, all of one wrong width
    path = tmp_path / "t.csv"
    write_rows(path, [row] * 120)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected 'time_ns,current_uA', got '{row}'"):
        read_trace_csv(path)


def test_read_trace_csv_of_blank_lines_names_the_file_and_warns_nothing(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, [""] * 120)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 0 samples, a trace needs >= 100"):
            read_trace_csv(path)


def test_read_trace_csv_parses_what_float_parses(tmp_path):
    # float() reads '1_0' as 10 and an Arabic-Indic digit as a digit
    rows = grid_rows()
    rows[5] = "0.5,1_0"
    rows[6] = "0.6,\u0661"
    path = tmp_path / "t.csv"
    write_rows(path, rows)
    trace = read_trace_csv(path)
    assert list(trace.samples[5:7]) == [10.0, 1.0]
    assert (trace.dt, list(trace.samples)) == read_trace_rows(path)


_SAMPLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0),
    st.floats(3.9e4, 4.1e4),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


@settings(max_examples=40, deadline=None)
@given(
    dt=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    rows=st.integers(MIN_TRACE_SAMPLES, MIN_TRACE_SAMPLES + 3).flatmap(
        lambda n: st.lists(st.lists(_SAMPLES, min_size=n, max_size=n), min_size=1, max_size=2)),
)
def test_trace_files_are_written_as_the_row_loop_writes_them(dt, rows):
    ds = Dataset(NORMAL, 0, "", 4, dt, [0] * len(rows), rows)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_datasets({tmp / "ds": ds})
        write_trace(CurrentTrace(dt, rows[0]), tmp / "trace.csv")
        for i, row in enumerate(rows):
            write_trace_rows(tmp / "oracle.csv", dt, row)
            assert (tmp / "ds" / f"trace_{i:03d}.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
            if i == 0:
                assert (tmp / "trace.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()


# text of one field: a number of some form, or text near one
_FIELD = st.one_of(
    st.floats().map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["", " ", "nan", "-inf", "Infinity", "1e400", "1_0", "0x10", "1.5e", ".5", "5.", "+.5e-3",
                     "4.0 # note", "#", "1j", "\u0661", "\u3000 4.0", " 4.0\t", '"4.0"', "4,0", "1e-320"]),
    st.text(alphabet="0123456789.-+eE_ in#,\t", max_size=6),
)


@st.composite
def _near_valid_trace(draw):
    """Data lines of a grid trace, a few of them edited, and a geometry
    (dt, n_samples) to read them against."""
    n = MIN_TRACE_SAMPLES + draw(st.sampled_from([0, 1, 3, -1]))
    dt = draw(st.sampled_from([0.1, 0.25, 1e-3, 3.0]))
    times = [repr(i * dt) for i in range(n)]
    lines = [f"{t},{draw(st.floats(0.0, 50.0))!r}" for t in times]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        k = draw(st.integers(0, n - 1))
        lines[k] = draw(st.one_of(
            _FIELD.map(f"{times[k]},{{}}".format),
            st.builds("{},{}".format, _FIELD, _FIELD),
            _FIELD,
            st.text(max_size=12),
        ))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", "\t"])))
    geometry = draw(st.sampled_from([(None, None), (dt, None), (dt, n), (dt, MIN_TRACE_SAMPLES + 1), (0.1, None)]))
    return lines, geometry


def _assert_read_as_the_row_loop_reads(text, dt=None, n_samples=None):
    """read_trace_csv on text returns the oracle's step and currents bit for
    bit, or raises the oracle's error, path:line and message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8")
        try:
            step, currents = read_trace_rows(path, dt, n_samples)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_trace_csv(path, dt, n_samples)
            assert str(got.value) == str(exc)
        else:
            trace = read_trace_csv(path, dt, n_samples)
            assert type(trace.dt) is float and trace.dt == step
            assert trace.samples.tobytes() == np.array(currents).tobytes()


@settings(max_examples=300, deadline=None)
@given(header=st.sampled_from(["time_ns,current_uA"] * 4 + [" time_ns,current_uA\t", "time_ns;current_uA"]),
       case=_near_valid_trace())
def test_read_trace_csv_reads_near_valid_text_as_the_row_loop(header, case):
    lines, geometry = case
    _assert_read_as_the_row_loop_reads("\n".join([header, *lines]) + "\n", *geometry)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.text(max_size=20), max_size=120))
def test_read_trace_csv_reads_arbitrary_text_as_the_row_loop(lines):
    _assert_read_as_the_row_loop_reads("\n".join(["time_ns,current_uA", *lines]))


# str.splitlines() breaks a line at each of these, float() strips them
_LINE_BREAKS_BUT_NEWLINE = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def _written_trace_off_by_one_edit(draw):
    """Text of a trace as the trace writer writes it, taken off the writer's
    form by one edit, and a geometry (dt, n_samples) to read it against."""
    n = MIN_TRACE_SAMPLES + draw(st.sampled_from([0, 1, 27]))
    dt = draw(st.sampled_from([0.1, 0.25, 1e-3, 3.0, 0.123456789012]))
    samples = draw(st.lists(_SAMPLES, min_size=n, max_size=n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trace(CurrentTrace(dt, samples), path)
        text = path.read_text()
    header, *rows = text.splitlines()
    k = draw(st.integers(0, n - 2))
    t, v = rows[k].split(",")
    edit = draw(st.sampled_from(["time-digit", "no-newline", "crlf", "line-break", "swapped-separators",
                                 "merged-rows", "unterminated-row"]))
    if edit == "time-digit":
        rows[k] = f"{t[:-1]}{draw(st.sampled_from('0123456789').filter(lambda d: d != t[-1]))},{v}"
    elif edit == "no-newline":
        # row k runs into row k + 1, or the last row ends the file
        k = draw(st.sampled_from([k, n - 1]))
        rows[k:k + 2] = ["".join(rows[k:k + 2])]
    elif edit == "line-break":
        c = draw(st.sampled_from(_LINE_BREAKS_BUT_NEWLINE))
        rows[k] = draw(st.sampled_from([f"{t},{c}{v}", f"{t},{v}{c}"]))
    elif edit == "swapped-separators":
        # the next row's time closes this row and its current stands alone
        t_next, v_next = rows[k + 1].split(",")
        rows[k:k + 2] = [f"{rows[k]},{t_next}", v_next]
    elif edit == "merged-rows":
        # row k and row k + 1 on one line of four fields
        rows[k:k + 2] = [",".join(rows[k:k + 2])]
    eol = "\r\n" if edit == "crlf" else "\n"
    text = eol.join([header, *rows]) + (eol if edit != "no-newline" or k < n - 1 else "")
    if edit == "unterminated-row":
        # one more row, of one field or two, after the last newline
        text += draw(st.sampled_from(["4.0", f"{len(rows) * dt!r},4.0", "x"]))
    geometry = draw(st.sampled_from([(None, None), (dt, None), (dt, n), (0.1, None), (None, n + 1)]))
    return text, geometry


@settings(max_examples=200, deadline=None)
@given(case=_written_trace_off_by_one_edit())
def test_read_trace_csv_reads_a_written_trace_with_one_edit_as_the_row_loop(case):
    text, geometry = case
    _assert_read_as_the_row_loop_reads(text, *geometry)


def test_read_dataset_of_a_dt_whose_manifest_form_drops_digits(tmp_path):
    # the manifest keeps dt_ns = 0.123456789, the files step by 0.123456789012
    ds = build_dataset(CrcDecoderCircuit(), NORMAL, n_patterns=3, seed=2, params=TraceParams(dt=0.123456789012))
    write_datasets({tmp_path / "ds": ds})
    back = read_dataset(tmp_path / "ds")
    assert back.dt == 0.123456789
    assert back.samples.tobytes() == ds.samples.tobytes()
    for i in range(len(ds)):
        assert read_trace_rows(tmp_path / "ds" / f"trace_{i:03d}.csv", back.dt) == (ds.dt, ds.samples[i].tolist())


def test_written_traces_are_read_back_exactly(tmp_path):
    ds = build_dataset(KATAN_TROJAN, TROJAN, n_patterns=3, seed=5)
    write_datasets({tmp_path / "ds": ds})
    reference = simulate_trace(KatanCircuit(KATAN_KEY), 7, NORMAL, params=TraceParams(dt=0.3, n_samples=300))
    write_trace(reference, tmp_path / "reference.csv")
    back = read_dataset(tmp_path / "ds")
    assert (back.dt, back.samples.tobytes()) == (ds.dt, ds.samples.tobytes())
    trace = read_trace_csv(tmp_path / "reference.csv")
    assert (trace.dt, trace.samples.tobytes()) == (0.3, reference.samples.tobytes())


def _trace_item(path, samples):
    return str(path), lambda: trace_text(0.1, samples)


def _split_write_error(monkeypatch, tmp_path, cpus, bad, fail_last):
    """(class, str) of the error that write_files raises, or None, when it writes
    three shares' worth of trace files and then one more item, with a directory
    at each trace index in bad and, if fail_last, at the last item's path, on cpus."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    out = tmp_path / str(len(cpus))
    out.mkdir()
    items = [_trace_item(out / f"t{i:03d}.csv", np.full(MIN_TRACE_SAMPLES, 0.5))
             for i in range(3 * MIN_FILES_PER_THREAD - 1)]
    items.append((str(out) if fail_last else str(out / "last"), lambda: "last\n"))
    for i in bad:
        os.mkdir(items[i][0])
    threads = set(threading.enumerate())
    try:
        write_files(items)
    except OSError as exc:
        return type(exc), str(exc).replace(str(out), "<out>")
    finally:
        assert set(threading.enumerate()) <= threads  # every writer thread joined


@pytest.mark.parametrize("bad, fail_last, error", [
    # in the second and the third share
    ((88, 40, 70), False, "Is a directory: '<out>/t040.csv'"),
    # this process's share comes first
    ((88, 5), False, "Is a directory: '<out>/t005.csv'"),
    # an earlier item of the last share comes first
    ((70,), True, "Is a directory: '<out>/t070.csv'"),
    ((), True, "Is a directory: '<out>'"),
    ((), False, None),
], ids=["children", "parent-and-child", "child-and-rest", "rest", "none"])
def test_write_traces_raises_the_one_process_error(tmp_path, monkeypatch, bad, fail_last, error):
    one, split = (_split_write_error(monkeypatch, tmp_path, cpus, bad, fail_last) for cpus in ({0}, {0, 1, 2}))
    assert one == split == (error and (IsADirectoryError, f"[Errno 21] {error}"))


class WriterFault(Exception):
    pass


def test_write_traces_reraises_what_a_thread_raised(tmp_path, monkeypatch):
    # the third share's writer thread fails with an exception that is no OSError
    caller, raised = threading.current_thread(), []

    def render_or_fail():
        if threading.current_thread() is not caller:
            raised.append(WriterFault("t070.csv"))
            raise raised[0]
        return "never written\n"

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    items = [_trace_item(tmp_path / f"t{i:03d}.csv", np.full(MIN_TRACE_SAMPLES, 0.5))
             for i in range(3 * MIN_FILES_PER_THREAD)]
    items[70] = (str(tmp_path / "t070.csv"), render_or_fail)
    threads = set(threading.enumerate())
    with pytest.raises(WriterFault) as info:
        write_files(items)
    assert len(raised) == 1 and info.value is raised[0]
    assert set(threading.enumerate()) <= threads


def test_write_traces_forks_no_process(tmp_path, monkeypatch):
    # from Python 3.12 on, a fork of a process that runs threads, as numpy's
    # BLAS may, warns that the child may deadlock
    def fork():
        raise AssertionError("write_files forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    rows = np.random.default_rng(2).normal(size=(3 * MIN_FILES_PER_THREAD, MIN_TRACE_SAMPLES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_files([_trace_item(tmp_path / f"t{i:03d}.csv", row) for i, row in enumerate(rows)])
    for i, row in enumerate(rows):
        assert read_trace_csv(tmp_path / f"t{i:03d}.csv").samples.tobytes() == row.tobytes()
