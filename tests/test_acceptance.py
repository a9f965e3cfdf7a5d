"""End-to-end acceptance checks, one per headline capability.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a sign-off checklist.
"""

import itertools
import os
import time

import numpy as np
import pytest

from mtjbist.bist import ClockConfig, frequency_sweep, run_bist
from mtjbist.circuits import (
    CrcDecoderCircuit,
    KatanCircuit,
    TrojanKatanCircuit,
)
from mtjbist.config import ExperimentConfig
from mtjbist.crc import CrcConfig, Message, crc_remainder, encode, verify
from mtjbist.detector import relational_detector
from mtjbist.experiments import (
    run_crc_identification,
    run_katan_identification,
    write_experiment,
)
from mtjbist.katan import decrypt32, encrypt32
from mtjbist.mtj import MtjCell, MtjDelayModel, nominal_array, switching_delay
from mtjbist.traces import NORMAL, TROJAN, TraceParams, simulate_trace
from mtjbist.trojan import TrojanSpec, crc_trigger, katan_trigger

from oracles import detector_double_loop, katan32_encrypt

MODEL = MtjDelayModel()
CLOCK = ClockConfig()
CRC8 = CrcConfig()


def _check(name: str, ok: bool, detail: str, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status}  [{detail}; {elapsed:.2f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"


@pytest.fixture(scope="module")
def exp1_result():
    return run_crc_identification(ExperimentConfig(seed=1))


@pytest.fixture(scope="module")
def exp2_result():
    return run_katan_identification(ExperimentConfig(seed=1))


def test_criterion_01_switching_delay_windows():
    t0 = time.perf_counter()
    problems = []
    grid = np.linspace(MODEL.tm_min, MODEL.tm_max, 100)
    for tm in grid:
        frac = (tm - 0.8) / 0.5
        d01 = switching_delay(MODEL, float(tm), (0, 1))
        d10 = switching_delay(MODEL, float(tm), (1, 0))
        if abs(d01 - 2.26 * frac) > 1e-9 or abs(d10 - 1.35 * frac) > 1e-9:
            problems.append(f"delay off the affine line at tm={tm:.4f}")
        if not (0.0 <= d01 <= 2.26 + 1e-9 and 0.0 <= d10 <= 1.35 + 1e-9):
            problems.append(f"delay outside its window at tm={tm:.4f}")
        done01 = CLOCK.launch_time + d01
        done10 = CLOCK.launch_time + d10
        if not (7.5 - 1e-9 <= done01 <= 9.76 + 1e-9 and 7.5 - 1e-9 <= done10 <= 8.85 + 1e-9):
            problems.append(f"completion outside its window at tm={tm:.4f}")
        if done01 > CLOCK.sample_time or done10 > CLOCK.sample_time:
            problems.append(f"completion after the nominal sample at tm={tm:.4f}")
    if abs(switching_delay(MODEL, 0.8, (0, 1))) > 1e-9:
        problems.append("lower endpoint not zero")
    if abs(switching_delay(MODEL, 1.3, (0, 1)) - 2.26) > 1e-9:
        problems.append("upper endpoint not 2.26")
    if abs(switching_delay(MODEL, 1.3, (1, 0)) - 1.35) > 1e-9:
        problems.append("upper endpoint not 1.35")
    if switching_delay(MODEL, 5.0, (0, 1)) != switching_delay(MODEL, 1.3, (0, 1)):
        problems.append("no clamp above tm_max")
    _check(
        "criterion 01 (delay windows over the thickness grid)",
        not problems,
        problems[0] if problems else "100 grid points, both transitions, windows [0,2.26]/[0,1.35] ns",
        t0,
        budget_s=5,
    )


def test_criterion_02_healthy_arrays_never_flag():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    arrays = [
        nominal_array(16),
        [MtjCell(tm_actual=0.8) for _ in range(16)],
        [MtjCell(tm_actual=1.3) for _ in range(16)],
        [MtjCell(tm_actual=float(t)) for t in rng.uniform(0.8, 1.3, 16)],
        [MtjCell(tm_actual=float(t)) for t in rng.uniform(0.8, 1.3, 16)],
    ]
    flags = 0
    faults = 0
    for array, pattern in itertools.product(arrays, range(256)):
        res = run_bist(pattern, array, CLOCK, CRC8, MODEL)
        flags += res.error_flag
        faults += len(res.faulted_positions)
    _check(
        "criterion 02 (healthy cells invisible at the nominal clock)",
        flags == 0 and faults == 0,
        f"{5 * 256} runs over 5 arrays, {flags} false flags, {faults} stale reads",
        t0,
        budget_s=15,
    )


def test_criterion_03_slowed_cell_flagged_at_fast_clock():
    t0 = time.perf_counter()
    array = nominal_array(16)
    array[0] = MtjCell(tm_actual=1.3)
    fast = ClockConfig(half_period=1.4)
    problems = []
    hits = 0
    for pattern in range(256):
        res = run_bist(pattern, array, fast, CRC8, MODEL)
        toggles = pattern & 1  # cell 0 transitions only when data bit 0 is set
        if res.error_flag != toggles:
            problems.append(f"pattern {pattern:#04x}: flag {res.error_flag}, expected {toggles}")
        elif toggles:
            hits += 1
            if res.faulted_positions != frozenset({0}):
                problems.append(f"pattern {pattern:#04x}: faults {set(res.faulted_positions)}")
    half_periods = [float(h) for h in np.linspace(3.0, 0.8, 20)]
    sweep = frequency_sweep(array, [0x01], half_periods, CRC8, MODEL)
    flags = sweep.flags[:, 0].tolist()
    if flags != sorted(flags):
        problems.append("error flag not monotone along the frequency sweep")
    if flags[0] != 0 or flags[-1] != 1:
        problems.append("sweep should stay silent at 3.0 ns and flag at 0.8 ns")
    _check(
        "criterion 03 (thickened cell exposed by a faster clock)",
        not problems,
        problems[0] if problems else f"{hits}/128 toggling patterns flagged at 1.4 ns, sweep monotone",
        t0,
        budget_s=15,
    )


def test_criterion_04_crc_detects_single_and_burst_errors():
    t0 = time.perf_counter()
    problems = []
    # every single-bit corruption of every codeword, two message widths
    for d in (8, 12):
        config = CrcConfig(data_width=d)
        nbits = d + config.check_width
        for pattern in range(1 << d):
            word = encode(pattern, config).packed(config)
            for i in range(nbits):
                bad = word ^ (1 << i)
                if verify(Message(bad >> config.check_width, bad & 0xFF), config) != 1:
                    problems.append(f"missed single-bit flip {i} of pattern {pattern:#x} at d={d}")
    # every burst no longer than the check width, exhaustive at d=8
    n_bursts = 0
    bursts: list[int] = [1]
    for length in range(2, 9):
        ends = (1 << (length - 1)) | 1
        bursts.extend(ends | (inner << 1) for inner in range(1 << (length - 2)))
    for pattern in range(256):
        word = encode(pattern, CRC8).packed(CRC8)
        for burst in bursts:
            top = 16 - burst.bit_length()
            for offset in range(top + 1):
                bad = word ^ (burst << offset)
                n_bursts += 1
                if verify(Message(bad >> 8, bad & 0xFF), CRC8) != 1:
                    problems.append(
                        f"missed burst {burst:#x}<<{offset} of pattern {pattern:#04x}"
                    )
    # remainder is linear, checked on random pairs
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        a, b = (int(x) for x in rng.integers(0, 1 << 16, 2))
        if crc_remainder(a ^ b, 16, CRC8) != crc_remainder(a, 16, CRC8) ^ crc_remainder(b, 16, CRC8):
            problems.append(f"remainder not linear at {a:#x}, {b:#x}")
    _check(
        "criterion 04 (CRC catches all single-bit and short-burst errors)",
        not problems,
        problems[0] if problems else f"d=8 and d=12 single bits, {n_bursts} burst cases, linear",
        t0,
        budget_s=60,
    )


def test_criterion_05_detector_matches_independent_reimplementation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    problems = []
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        a = [int(x) for x in rng.integers(-100, 101, n)]
        b = [int(x) for x in rng.integers(-100, 101, n)]
        if relational_detector(np.array(a, float), np.array(b, float)) != detector_double_loop(a, b):
            problems.append(f"mismatch on integer pair of length {n}")
            break
    # noiseless traces have integer amplitudes, so equality stays exact
    circuit = CrcDecoderCircuit()
    noiseless = TraceParams(noise_sigma=0.0)
    for pattern in range(0, 60, 2):
        ta = simulate_trace(circuit, pattern, NORMAL, params=noiseless)
        tb = simulate_trace(circuit, pattern + 1, NORMAL, params=noiseless)
        mine = relational_detector(ta.samples, tb.samples)
        ref = detector_double_loop(
            [int(v) for v in ta.samples], [int(v) for v in tb.samples]
        )
        if mine != ref:
            problems.append(f"trace mismatch on patterns {pattern}, {pattern + 1}")
            break
    _check(
        "criterion 05 (detector equals a double-loop reimplementation)",
        not problems,
        problems[0] if problems else "1000 random pairs and 30 noiseless trace pairs, exact",
        t0,
        budget_s=30,
    )


def test_criterion_06_crc_receiver_identification(exp1_result):
    t0 = time.perf_counter()
    problems = []
    counts = {name: exp1_result.confusion[name][0.10] for name in exp1_result.confusion}
    if (counts["normal"].tn, counts["normal"].fp) != (20, 0):
        problems.append(f"normal: tn={counts['normal'].tn}, fp={counts['normal'].fp}")
    if (counts["trojan"].tp, counts["trojan"].fn) != (20, 0):
        problems.append(f"trojan: tp={counts['trojan'].tp}, fn={counts['trojan'].fn}")
    for name in ("process_variation", "temperature"):
        if counts[name].tn < 18:
            problems.append(f"{name}: only {counts[name].tn}/20 accepted")
    detail = ", ".join(
        f"{name} tn={c.tn} fp={c.fp} tp={c.tp} fn={c.fn}" for name, c in counts.items()
    )
    _check(
        "criterion 06 (CRC receiver: clean accepted, infected rejected)",
        not problems,
        problems[0] if problems else detail,
        t0,
        budget_s=90,
    )


def test_criterion_07_katan_identification_and_dormancy(exp2_result):
    t0 = time.perf_counter()
    problems = []
    if exp2_result.decisions["normal"].any():
        problems.append("a clean KATAN trace was rejected")
    if not exp2_result.decisions["trojan"].all():
        problems.append("an active KATAN Trojan trace was accepted")
    key = ExperimentConfig().katan_key
    spec = TrojanSpec()
    dormant = next(p for p in range(1 << 10) if not katan_trigger(p, key, spec))
    noiseless = TraceParams(noise_sigma=0.0)
    a = simulate_trace(KatanCircuit(key), dormant, NORMAL, params=noiseless)
    b = simulate_trace(TrojanKatanCircuit(key, spec), dormant, TROJAN, params=noiseless)
    if not np.array_equal(a.samples, b.samples):
        problems.append("dormant Trojan trace differs from the clean circuit")
    _check(
        "criterion 07 (KATAN: clean accepted, active rejected, dormant invisible)",
        not problems,
        problems[0] if problems else "20/20 accepted, 20/20 rejected, dormant bit-identical",
        t0,
        budget_s=90,
    )


def test_criterion_08_katan_reference_vectors_and_inversion():
    t0 = time.perf_counter()
    problems = []
    all_ones_key = (1 << 80) - 1
    if encrypt32(0x00000000, all_ones_key) != 0x7E1FF945:
        problems.append("all-ones-key vector failed")
    if encrypt32(0xFFFFFFFF, 0) != 0x432E61DA:
        problems.append("zero-key vector failed")
    if decrypt32(0x7E1FF945, all_ones_key) != 0:
        problems.append("decryption of the first vector failed")
    rng = np.random.default_rng(88)
    for _ in range(1000):
        pt = int(rng.integers(0, 1 << 32))
        key = int.from_bytes(rng.bytes(10), "big")
        if decrypt32(encrypt32(pt, key), key) != pt:
            problems.append(f"round trip failed for pt={pt:#010x}")
            break
    for _ in range(100):
        pt = int(rng.integers(0, 1 << 32))
        key = int.from_bytes(rng.bytes(10), "big")
        if encrypt32(pt, key) != katan32_encrypt(pt, key):
            problems.append(f"bit-level reimplementation disagrees at pt={pt:#010x}")
            break
    _check(
        "criterion 08 (KATAN-32 vectors, inversion, independent oracle)",
        not problems,
        problems[0] if problems else "2 published vectors, 1000 round trips, 100 oracle matches",
        t0,
        budget_s=30,
    )


def test_criterion_09_trigger_rates():
    t0 = time.perf_counter()
    problems = []
    # every (data, check) word of the 8-bit CRC, cell k holding bit k of data | check << 8
    words = (np.arange(1 << 16)[:, None] >> np.arange(16)) & 1
    fired = int(crc_trigger(words, CRC8).sum())
    if fired != 16384:
        problems.append(f"CRC trigger fired {fired}/65536, expected 16384")
    spec = TrojanSpec()
    rng = np.random.default_rng(9)
    n = 100_000
    hits = 0
    pts = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    keys = rng.integers(0, 1 << 62, n, dtype=np.uint64)  # low byte is what matters
    for pt, key in zip(pts, keys):
        hits += katan_trigger(int(pt), int(key), spec)
    rate = hits / n
    if abs(rate - 0.25) > 0.02:
        problems.append(f"KATAN trigger rate {rate:.4f} outside 0.25 +/- 0.02")
    _check(
        "criterion 09 (trigger rates: exactly 1/4 exhaustive, 1/4 sampled)",
        not problems,
        problems[0] if problems else f"CRC 16384/65536, KATAN {rate:.4f} over {n} draws",
        t0,
        budget_s=30,
    )


def _tree_bytes(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path, exp1_result, exp2_result):
    t0 = time.perf_counter()
    problems = []
    config = ExperimentConfig(seed=1)
    write_experiment(exp1_result, config, tmp_path / "a1")
    second1 = run_crc_identification(config)
    write_experiment(second1, config, tmp_path / "b1")
    write_experiment(exp2_result, config, tmp_path / "a2")
    second2 = run_katan_identification(config)
    write_experiment(second2, config, tmp_path / "b2")
    for first, second, label in (("a1", "b1", "exp1"), ("a2", "b2", "exp2")):
        ta = _tree_bytes(tmp_path / first)
        tb = _tree_bytes(tmp_path / second)
        if set(ta) != set(tb):
            problems.append(f"{label}: file lists differ")
        else:
            diff = [p for p in ta if ta[p] != tb[p]]
            if diff:
                problems.append(f"{label}: {diff[0]} differs between runs")
    n_files = len(_tree_bytes(tmp_path / "a1")) + len(_tree_bytes(tmp_path / "a2"))
    _check(
        "criterion 10 (fixed seed reproduces every output byte)",
        not problems,
        problems[0] if problems else f"{n_files} files compared across independent runs",
        t0,
        budget_s=150,
    )
