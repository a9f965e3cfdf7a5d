import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.bist import (
    AttackSpec,
    ClockConfig,
    detection_coverage,
    frequency_sweep,
    inject_attack,
    run_bist,
)
from mtjbist.cli import _bist_csv
from mtjbist.crc import CrcConfig, codewords, encode
from mtjbist.mtj import MtjCell, MtjDelayModel, PendingTransition, nominal_array
from mtjbist.textio import write_text
from oracles import affine_switching_delay, bist_round, crc_long_division, message_bits, write_bist_rows

CRC8 = CrcConfig()
MODEL = MtjDelayModel()
N_CELLS = CRC8.data_width + CRC8.check_width


def infected_array(index: int, tm: float = 1.3) -> list[MtjCell]:
    cells = nominal_array(N_CELLS)
    cells[index] = MtjCell(tm_actual=tm)
    return cells


def sweep_rows(sweep):
    """(half period, pattern, error flag, faulted cells) of each round of a
    sweep, clock by clock and within a clock pattern by pattern."""
    return [
        (hp, p, int(sweep.flags[h, j]), sweep.fault_sets[sweep.fault_index[h, j]])
        for h, hp in enumerate(sweep.half_periods)
        for j, p in enumerate(sweep.patterns)
    ]


def test_default_clock_times():
    clock = ClockConfig()
    assert clock.period == 6.0
    assert clock.launch_time == pytest.approx(7.5)
    assert clock.sample_time == pytest.approx(12.0)


def test_clock_validation():
    with pytest.raises(ValueError):
        ClockConfig(half_period=0.0)
    with pytest.raises(ValueError):
        # sample edge at t=0 precedes the launch
        ClockConfig(sample_edge=1)


@pytest.mark.parametrize("field", ["half_period", "launch_offset_cycles"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_clock_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        ClockConfig(**{field: value})


def test_clean_run_no_error():
    res = run_bist(0xA5, nominal_array(N_CELLS), ClockConfig(), CRC8, MODEL)
    assert res.error_flag == 0
    assert res.faulted_positions == frozenset()
    assert res.sensed_bits == message_bits(encode(0xA5, CRC8), CRC8)


def test_slowest_cell_still_clean_at_default_clock():
    # even a maximally thick cell finishes 7.5 + 2.26 < 12 ns
    res = run_bist(0xFF, [MtjCell(tm_actual=1.3) for _ in range(N_CELLS)], ClockConfig(), CRC8, MODEL)
    assert res.error_flag == 0


def test_infected_cell_detected_at_fast_clock():
    # gap = sample - launch = 1.5 * half_period = 2.1 ns < 2.26 ns delay
    clock = ClockConfig(half_period=1.4)
    res = run_bist(0x01, infected_array(0), clock, CRC8, MODEL)
    assert res.error_flag == 1
    assert res.faulted_positions == frozenset({0})
    # the stale cell reads back its old zero state
    assert res.sensed_bits[0] == 0


def test_untoggled_infected_cell_stays_silent():
    # pattern leaves cell 0 at its current state, so no transition, no fault
    clock = ClockConfig(half_period=1.4)
    res = run_bist(0x02, infected_array(0), clock, CRC8, MODEL)
    assert 0 not in res.faulted_positions


def test_error_flag_implies_sensed_differs():
    rng = np.random.default_rng(42)
    for _ in range(200):
        cells = [
            MtjCell(tm_actual=float(rng.uniform(0.8, 1.5)), state=int(rng.integers(0, 2)))
            for _ in range(N_CELLS)
        ]
        clock = ClockConfig(half_period=float(rng.uniform(0.8, 3.0)))
        pattern = int(rng.integers(0, 256))
        res = run_bist(pattern, cells, clock, CRC8, MODEL)
        launched = message_bits(encode(pattern, CRC8), CRC8)
        if res.error_flag:
            assert res.sensed_bits != launched
        if res.sensed_bits == launched:
            assert res.error_flag == 0


def test_run_bist_does_not_mutate_array():
    cells = infected_array(3)
    before = list(cells)
    run_bist(0xFF, cells, ClockConfig(half_period=1.0), CRC8, MODEL)
    assert cells == before


def test_run_bist_rejects_wrong_array_size():
    with pytest.raises(ValueError):
        run_bist(0x00, nominal_array(4), ClockConfig(), CRC8, MODEL)


def test_inject_attack():
    cells = nominal_array(N_CELLS)
    spec = AttackSpec(target_indices=(2, 5), thickness_multipliers=(1.3, 1.4))
    tampered = inject_attack(cells, spec)
    assert tampered[2].tm_actual == pytest.approx(1.3)
    assert tampered[5].tm_actual == pytest.approx(1.4)
    assert all(tampered[i].tm_actual == 1.0 for i in range(N_CELLS) if i not in (2, 5))
    assert cells[2].tm_actual == 1.0


# it used to raise "tm_actual must be positive and finite, got inf", naming no cell
def test_inject_attack_overflow_names_the_cell():
    with pytest.raises(ValueError, match=r"^cell 0: tm_actual must be positive and finite, got inf$"):
        inject_attack([MtjCell(tm_actual=2.0)], AttackSpec.uniform([0], 1e308))


def test_inject_attack_bad_index():
    with pytest.raises(ValueError):
        inject_attack(nominal_array(4), AttackSpec.uniform([9], 1.3))


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec((0, 0), (1.2, 1.2))
    with pytest.raises(ValueError):
        AttackSpec((0,), (1.2, 1.3))
    with pytest.raises(ValueError):
        AttackSpec((0,), (-1.0,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            AttackSpec.uniform((0,), bad)
    for bad_range in ((float("nan"), 1.5), (1.2, float("inf")), (1.5, 1.2), (1.2,), (1.2, 1.3, 1.4)):
        with pytest.raises(ValueError, match="multiplier range"):
            AttackSpec.random(16, 3, bad_range, rng_seed=7)


def test_attack_spec_random_deterministic():
    a = AttackSpec.random(16, 3, (1.2, 1.5), rng_seed=7)
    b = AttackSpec.random(16, 3, (1.2, 1.5), rng_seed=7)
    assert a == b
    assert len(a.target_indices) == 3
    assert all(1.2 <= m <= 1.5 for m in a.thickness_multipliers)


def test_sweep_rows_and_worst_half_period():
    array = infected_array(0)
    half_periods = [3.0, 1.4, 1.0]
    sweep = frequency_sweep(array, [0x01, 0x02], half_periods, CRC8, MODEL)
    assert sweep.half_periods == (3.0, 1.4, 1.0)
    assert sweep.patterns == (0x01, 0x02)
    assert sweep.flags.shape == sweep.fault_index.shape == (3, 2)
    assert sweep_rows(sweep)[2:4] == [(1.4, 0x01, 1, frozenset({0})), (1.4, 0x02, 0, frozenset())]
    # pattern 0x01 toggles the infected cell: silent at 3.0, flagged below
    assert sweep.largest_flagged_half_period[0x01] == pytest.approx(1.4)
    # pattern 0x02 never toggles cell 0
    assert sweep.largest_flagged_half_period[0x02] is None


def test_fault_set_grows_as_clock_shrinks():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cells = [MtjCell(tm_actual=float(rng.uniform(0.8, 1.6))) for _ in range(N_CELLS)]
        pattern = int(rng.integers(0, 256))
        half_periods = np.linspace(3.0, 0.8, 12)
        previous: frozenset[int] = frozenset()
        for hp in half_periods:  # decreasing
            res = run_bist(pattern, cells, ClockConfig(half_period=float(hp)), CRC8, MODEL)
            assert res.faulted_positions >= previous
            previous = res.faulted_positions


def test_error_flag_monotone_single_infected_cell():
    array = infected_array(4)
    flags = []
    for hp in np.linspace(3.0, 0.8, 20):
        res = run_bist(0xFF, array, ClockConfig(half_period=float(hp)), CRC8, MODEL)
        flags.append(res.error_flag)
    # once the error appears on the shrinking grid it never goes away
    assert flags == sorted(flags)
    assert flags[0] == 0 and flags[-1] == 1


def test_coverage_healthy_array():
    report = detection_coverage(
        nominal_array(N_CELLS), ClockConfig(half_period=1.2), CRC8, MODEL, rng_seed=0, n_patterns=10
    )
    assert report.coverage == 1.0
    assert report.true_negative_run
    assert report.infected == frozenset()


def test_coverage_probability_matches_closed_form():
    # a random pattern toggles one given data cell with probability 1/2, so
    # an n-pattern campaign flags a single infected data cell with
    # probability 1 - 2^-n
    n_patterns, n_trials = 3, 1500
    hits = 0
    for seed in range(n_trials):
        report = detection_coverage(
            infected_array(3),
            ClockConfig(half_period=1.2),
            CRC8,
            MODEL,
            rng_seed=seed,
            n_patterns=n_patterns,
        )
        hits += report.coverage == 1.0
    expected = 1.0 - 2.0 ** -n_patterns
    assert hits / n_trials == pytest.approx(expected, abs=0.035)


# ---------------------------------------------------------------------------
# the closed-form kernel against the cell-by-cell oracle

DEFAULT_GRID = [float(h) for h in np.linspace(3.0, 0.75, 10)]


def random_array(rng) -> list[MtjCell]:
    """Healthy and tampered cells alike, thicknesses inside and outside the
    modelled range, random initial states."""
    return [
        MtjCell(tm_actual=float(rng.uniform(0.7, 1.5)), state=int(rng.integers(0, 2)))
        for _ in range(N_CELLS)
    ]


def oracle_round(pattern, cells, half_period, launch_offset_cycles=1.25, sample_edge=3):
    return bist_round(pattern, [c.tm_actual for c in cells], [c.state for c in cells], half_period,
                      launch_offset_cycles, sample_edge)


def test_rounds_match_oracle_on_every_pattern_and_clock():
    rng = np.random.default_rng(11)
    arrays = [random_array(rng) for _ in range(3)]
    # thicknesses at and beyond both ends of the delay window
    arrays.append([MtjCell(tm_actual=tm, state=i % 2) for i, tm in enumerate([0.8, 1.3, 0.5, 2.0] * 4)])
    # slow cells exactly on the codeword of pattern 0x01 (data cell 0, check
    # cells 8, 9, 10): at a fast clock its faults form a codeword themselves,
    # and the receiver cannot see them
    arrays.append([MtjCell(tm_actual=1.3 if i in (0, 8, 9, 10) else 1.0) for i in range(N_CELLS)])
    off_grid = [float(h) for h in rng.uniform(0.7, 3.2, size=5)]
    half_periods = DEFAULT_GRID + off_grid
    patterns = list(range(256))
    n_flagged = n_masked = 0
    for cells in arrays:
        sweep = frequency_sweep(cells, patterns, half_periods, CRC8, MODEL)
        assert sweep.flags.shape == (len(half_periods), len(patterns))
        worst = {}
        for hp, pattern, error_flag, faulted_positions in sweep_rows(sweep):
            flag, sensed, faulted = oracle_round(pattern, cells, hp)
            assert (error_flag, faulted_positions) == (flag, faulted)
            res = run_bist(pattern, cells, ClockConfig(half_period=hp), CRC8, MODEL)
            assert (res.error_flag, list(res.sensed_bits), res.faulted_positions) == (flag, sensed, faulted)
            if flag:
                worst[pattern] = max(worst.get(pattern, 0.0), hp)
            n_flagged += flag
            n_masked += bool(faulted) and not flag
        assert sweep.largest_flagged_half_period == {p: worst.get(p) for p in patterns}
    # the comparison covers flagged and silent rounds, and faults the CRC misses
    assert 0 < n_flagged < len(arrays) * len(half_periods) * len(patterns)
    assert n_masked > 0


@settings(max_examples=60, deadline=None)
@given(
    tms=st.lists(st.floats(0.5, 2.0), min_size=N_CELLS, max_size=N_CELLS),
    states=st.lists(st.integers(0, 1), min_size=N_CELLS, max_size=N_CELLS),
    patterns=st.lists(st.integers(0, 255), min_size=1, max_size=6),
    half_periods=st.lists(st.floats(0.3, 4.0), min_size=1, max_size=4),
    launch_offset_cycles=st.floats(0.1, 1.9),
    sample_edge=st.integers(3, 5),
)
def test_sweep_matches_oracle_property(tms, states, patterns, half_periods, launch_offset_cycles, sample_edge):
    cells = [MtjCell(tm_actual=tm, state=s) for tm, s in zip(tms, states)]
    clock = ClockConfig(launch_offset_cycles=launch_offset_cycles, sample_edge=sample_edge)
    sweep = frequency_sweep(cells, patterns, half_periods, CRC8, MODEL, clock)
    expected = [
        (hp, p) + oracle_round(p, cells, hp, launch_offset_cycles, sample_edge)[::2]
        for hp in half_periods
        for p in patterns
    ]
    assert sweep_rows(sweep) == expected


@settings(max_examples=60, deadline=None)
@given(
    tms=st.lists(st.floats(0.5, 2.0), min_size=N_CELLS, max_size=N_CELLS),
    states=st.lists(st.integers(0, 1), min_size=N_CELLS, max_size=N_CELLS),
    patterns=st.lists(st.integers(0, 255), min_size=1, max_size=6),
    repeats=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    half_periods=st.lists(st.floats(0.3, 4.0), min_size=1, max_size=4),
)
def test_sweep_csv_matches_oracle_writer(tms, states, patterns, repeats, half_periods):
    # repeated patterns, and a neighbouring float that prints like its half
    # period under .10g, each get their own row
    patterns = patterns + [patterns[i % len(patterns)] for i in repeats]
    half_periods = half_periods + [float(np.nextafter(half_periods[0], np.inf))]
    cells = [MtjCell(tm_actual=tm, state=s) for tm, s in zip(tms, states)]
    rows = [(hp, p) + oracle_round(p, cells, hp)[::2] for hp in half_periods for p in patterns]
    with tempfile.TemporaryDirectory() as tmp:
        expected, written = Path(tmp, "expected.csv"), Path(tmp, "written.csv")
        write_bist_rows(expected, rows, CRC8.data_width)
        write_text(written, _bist_csv(frequency_sweep(cells, patterns, half_periods, CRC8, MODEL), CRC8.data_width))
        assert written.read_bytes() == expected.read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_launched_words_match_scalar_encode(data):
    g = data.draw(st.integers(1, 16))
    crc = CrcConfig(poly=data.draw(st.integers(1, (1 << g) - 1)), check_width=g,
                    data_width=data.draw(st.integers(1, 130)))
    d, n = crc.data_width, crc.data_width + g
    patterns = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=6))
    launched = codewords(patterns, crc)
    assert launched.astype(int).tolist() == [list(message_bits(encode(p, crc), crc)) for p in patterns]
    # a pattern that does not fit fails as the scalar encoder does
    bad = data.draw(st.one_of(st.integers(1 << d, 1 << (d + 8)), st.integers(-(1 << 8), -1)))
    with pytest.raises(ValueError) as scalar:
        encode(bad, crc)
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        frequency_sweep(nominal_array(n), patterns + [bad], [3.0], crc, MODEL)


def test_coverage_matches_oracle_campaign():
    rng = np.random.default_rng(5)
    for trial in range(12):
        cells = random_array(rng)
        clock = ClockConfig(half_period=float(rng.uniform(0.8, 2.0)))
        report = detection_coverage(cells, clock, CRC8, MODEL, rng_seed=trial, n_patterns=6)
        patterns = [int(p) for p in np.random.default_rng(trial).integers(0, 256, size=6)]
        flagged, any_error = set(), False
        for p in patterns:
            flag, _, faulted = oracle_round(p, cells, clock.half_period)
            if flag:
                flagged |= faulted
                any_error = True
        infected = {i for i, c in enumerate(cells) if abs(c.tm_actual - 1.0) > 0.10}
        assert report.infected == infected
        assert report.flagged_infected == flagged & infected
        assert report.coverage == (len(flagged & infected) / len(infected) if infected else 1.0)
        assert report.n_patterns == len(patterns)
        assert report.true_negative_run == (not infected and not any_error)


def test_pending_cell_raises():
    cells = nominal_array(N_CELLS)
    cells[5] = MtjCell(state=0, pending=PendingTransition(target=1, completes_at=9.0))
    with pytest.raises(RuntimeError, match="pending"):
        run_bist(0x00, cells, ClockConfig(), CRC8, MODEL)
    with pytest.raises(RuntimeError, match="pending"):
        frequency_sweep(cells, [0x00], [3.0], CRC8, MODEL)
    with pytest.raises(RuntimeError, match="pending"):
        detection_coverage(cells, ClockConfig(), CRC8, MODEL, rng_seed=0, n_patterns=2)


# used to raise numpy's "high is out of bounds for int64", naming no width
def test_coverage_of_a_64_bit_data_word_names_the_width():
    wide = CrcConfig(data_width=64)
    with pytest.raises(ValueError, match="^crc.data_width = 64: random patterns take at most 63 bits$"):
        detection_coverage(nominal_array(72), ClockConfig(), wide, MODEL, 1, 4)


def test_sample_exactly_at_completion_reads_new_state():
    # window 0..2 ns and tm at tm_max give a 2.0 ns switch; launching at
    # 2 * half_period and sampling at 4 * half_period leaves exactly 2.0 ns
    # at half period 1.0, which the cell just makes
    model = MtjDelayModel(delay01_max=2.0, delay10_max=2.0)
    cells = [MtjCell(tm_actual=1.3)] + nominal_array(N_CELLS - 1)
    sweep = frequency_sweep(cells, [0x01], [1.0, 0.999], CRC8, model, ClockConfig(launch_offset_cycles=1.0))
    assert [faulted for _, _, _, faulted in sweep_rows(sweep)] == [frozenset(), frozenset({0})]


# ---------------------------------------------------------------------------
# the blind window: a toggled cell of delay d faults at half periods below its
# stall point d / (2 * (sample_edge - 1 - launch_offset_cycles)), and a round
# that faults every toggled cell reads back its start word unflagged when that
# word is a codeword, as the command line's all-zero start always is

def codeword_bits(pattern: int) -> list[int]:
    check = crc_long_division(pattern, 8, CRC8.poly, 8)
    return [(pattern >> i) & 1 for i in range(8)] + [(check >> j) & 1 for j in range(8)]


def is_codeword(cells) -> bool:
    """Whether the set of cells, as a message of data and check bits, is a codeword."""
    data = sum(1 << i for i in cells if i < 8)
    check = sum(1 << (i - 8) for i in cells if i >= 8)
    return crc_long_division((data << 8) | check, 16, CRC8.poly, 8) == 0


def windows(model: MtjDelayModel) -> dict:
    return {"tm_range": (model.tm_min, model.tm_max), "window01": (model.delay01_min, model.delay01_max),
            "window10": (model.delay10_min, model.delay10_max)}


def stall_point(model, clock, tm, state) -> float:
    delay = affine_switching_delay(tm, state == 0, **windows(model))
    return delay / (2 * (clock.sample_edge - 1 - clock.launch_offset_cycles))


@st.composite
def bist_setups(draw):
    """A delay model, a clock, an array of any thicknesses and start states, and a pattern."""
    tm_min = draw(st.floats(0.5, 1.2))
    model = MtjDelayModel(tm_min, tm_min + draw(st.floats(0.01, 1.0)),
                          *sorted(draw(st.lists(st.floats(0, 3), min_size=2, max_size=2))),
                          *sorted(draw(st.lists(st.floats(0, 3), min_size=2, max_size=2))))
    edge = draw(st.integers(2, 5))
    clock = ClockConfig(launch_offset_cycles=draw(st.floats(0.05, edge - 1.05)), sample_edge=edge)
    tms = draw(st.lists(st.floats(0.5, 2.0), min_size=N_CELLS, max_size=N_CELLS))
    states = draw(st.lists(st.integers(0, 1), min_size=N_CELLS, max_size=N_CELLS))
    return model, clock, tms, states, draw(st.integers(0, 255))


def setup_round(model, clock, tms, states, pattern, half_period):
    cells = [MtjCell(tm_actual=tm, state=s) for tm, s in zip(tms, states)]
    return run_bist(pattern, cells, replace(clock, half_period=half_period), CRC8, model)


@settings(max_examples=80, deadline=None)
@given(bist_setups(), st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4))
def test_flag_is_clear_exactly_when_the_fault_vector_is_a_codeword(setup, half_periods):
    model, clock, tms, states, pattern = setup
    cells = [MtjCell(tm_actual=tm, state=s) for tm, s in zip(tms, states)]
    sweep = frequency_sweep(cells, [pattern], half_periods, CRC8, model, clock)
    for hp, _, flag, faulted in sweep_rows(sweep):
        oracle = bist_round(pattern, tms, states, hp, clock.launch_offset_cycles, clock.sample_edge,
                            **windows(model))
        assert (flag, faulted) == oracle[::2]
        # the zero vector, no fault at all, is a codeword
        assert flag == (not is_codeword(faulted))


@settings(max_examples=80, deadline=None)
@given(bist_setups(), st.floats(0.01, 0.999))
def test_below_every_toggled_stall_point_a_round_reads_back_its_start_word(setup, fraction):
    model, clock, tms, states, pattern = setup
    launched = codeword_bits(pattern)
    for start in (states, [0] * N_CELLS):
        toggled = {i for i, (bit, s) in enumerate(zip(launched, start)) if bit != s}
        stall = min((stall_point(model, clock, tms[i], start[i]) for i in toggled), default=0.0)
        if stall < 1e-6:
            continue
        res = setup_round(model, clock, tms, start, pattern, stall * fraction)
        assert res.faulted_positions == toggled
        assert list(res.sensed_bits) == start
        assert res.error_flag == (not is_codeword({i for i, s in enumerate(start) if s}))
        if start is not states:
            assert res.error_flag == 0


# pairs (sample_edge, sample_edge - 1 - launch_offset_cycles) whose launch
# offset is positive; the window's span is a power of two, so every stall
# point below is an exact double and a half period can sit on one
DYADIC_CLOCKS = [(edge, k) for edge in range(2, 6) for k in (0.25, 0.5, 1.0, 2.0) if edge - 1 - k > 0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_tampered_cell_is_flagged_between_the_healthy_stall_point_and_its_own(data):
    edge, k = data.draw(st.sampled_from(DYADIC_CLOCKS))
    clock = ClockConfig(launch_offset_cycles=edge - 1 - k, sample_edge=edge)
    lo01, lo10 = (data.draw(st.integers(0, 64)) / 64 for _ in range(2))
    model = MtjDelayModel(0.5, 1.5, lo01, lo01 + data.draw(st.integers(1, 256)) / 64,
                          lo10, lo10 + data.draw(st.integers(1, 256)) / 64)
    # from the all-zero start of every command-line round: each toggled cell
    # switches 0 -> 1, whatever the 1 -> 0 window, and the healthy ones share
    # one stall point
    states = [0] * N_CELLS
    pattern = data.draw(st.integers(1, 255))
    toggled = [i for i, bit in enumerate(codeword_bits(pattern)) if bit]
    tampered = data.draw(st.sampled_from(toggled))
    tms = [1.0] * N_CELLS
    # up to 12/16 beyond the nominal thickness: beyond tm_max = 1.5 it clamps
    tms[tampered] = 1.0 + data.draw(st.integers(1, 12)) / 16
    healthy = stall_point(model, clock, 1.0, 0) if len(toggled) > 1 else 0.0
    own = stall_point(model, clock, tms[tampered], 0)
    assert healthy < own
    inside = [healthy + (own - healthy) * i / 256 for i in data.draw(st.lists(st.integers(0, 255), max_size=3))]
    above = [own * (1 + j / 64) for j in data.draw(st.lists(st.integers(0, 256), max_size=3))]
    for hp in [healthy, own] + inside + above:
        if hp > 0:
            res = setup_round(model, clock, tms, states, pattern, hp)
            assert res.error_flag == (hp < own), hp
            assert res.faulted_positions == ({tampered} if hp < own else set())
