import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.mtj import (
    MtjCell,
    MtjDelayModel,
    PendingTransition,
    apply_bit,
    is_malicious,
    load_array,
    nominal_array,
    save_array,
    sense,
    switching_delay,
)

MODEL = MtjDelayModel()


def test_delay_window_endpoints_exact():
    assert switching_delay(MODEL, MODEL.tm_min, (0, 1)) == pytest.approx(0.0, abs=1e-9)
    assert switching_delay(MODEL, MODEL.tm_max, (0, 1)) == pytest.approx(2.26, abs=1e-9)
    assert switching_delay(MODEL, MODEL.tm_min, (1, 0)) == pytest.approx(0.0, abs=1e-9)
    assert switching_delay(MODEL, MODEL.tm_max, (1, 0)) == pytest.approx(1.35, abs=1e-9)


def test_delay_affine_midpoint():
    mid = 0.5 * (MODEL.tm_min + MODEL.tm_max)
    assert switching_delay(MODEL, mid, (0, 1)) == pytest.approx(1.13)
    assert switching_delay(MODEL, mid, (1, 0)) == pytest.approx(0.675)


def test_delay_clamps_outside_range():
    assert switching_delay(MODEL, 0.1, (0, 1)) == switching_delay(MODEL, MODEL.tm_min, (0, 1))
    assert switching_delay(MODEL, 9.9, (0, 1)) == switching_delay(MODEL, MODEL.tm_max, (0, 1))


def test_delay_monotone_in_thickness():
    grid = np.linspace(MODEL.tm_min, MODEL.tm_max, 100)
    for transition in ((0, 1), (1, 0)):
        delays = [switching_delay(MODEL, tm, transition) for tm in grid]
        assert all(b >= a for a, b in zip(delays, delays[1:]))


def test_delay_zero_for_non_transition():
    assert switching_delay(MODEL, 1.2, (0, 0)) == 0.0
    assert switching_delay(MODEL, 1.2, (1, 1)) == 0.0


def test_delay_rejects_bad_transition():
    with pytest.raises(ValueError):
        switching_delay(MODEL, 1.0, (0, 2))


def test_apply_bit_same_state_is_noop():
    cell = MtjCell(state=0)
    assert apply_bit(cell, 0, 5.0, MODEL) == cell


def test_apply_bit_schedules_transition():
    cell = MtjCell(tm_actual=1.3, state=0)
    written = apply_bit(cell, 1, 7.5, MODEL)
    assert written.pending == PendingTransition(target=1, completes_at=7.5 + 2.26)
    assert written.state == 0
    # the input cell is untouched
    assert cell.pending is None


def test_apply_bit_while_pending_raises():
    cell = apply_bit(MtjCell(tm_actual=1.3, state=0), 1, 7.5, MODEL)
    with pytest.raises(RuntimeError):
        apply_bit(cell, 0, 8.0, MODEL)


def test_sense_stale_then_committed():
    cell = apply_bit(MtjCell(tm_actual=1.3, state=0), 1, 7.5, MODEL)
    done_at = 7.5 + 2.26
    level, after = sense(cell, done_at - 1e-9)
    assert level == 0 and after.pending is not None
    # completion instant itself reads the target and commits it
    level, after = sense(cell, done_at)
    assert level == 1
    assert after.state == 1 and after.pending is None


def test_sense_idempotent():
    cell = apply_bit(MtjCell(tm_actual=1.1, state=0), 1, 7.5, MODEL)
    for t in (8.0, 20.0):
        level1, after1 = sense(cell, t)
        level2, after2 = sense(after1, t)
        assert level1 == level2
        assert after1 == after2


def test_sense_without_pending():
    cell = MtjCell(state=1)
    level, after = sense(cell, 0.0)
    assert level == 1 and after == cell


def test_instant_commit_at_tm_min():
    # delay 0 at tm_min: a sample at the write instant already sees the target
    cell = apply_bit(MtjCell(tm_actual=MODEL.tm_min, state=0), 1, 7.5, MODEL)
    level, _ = sense(cell, 7.5)
    assert level == 1


def test_is_malicious_boundary_inclusive_accept():
    # exactly representable tolerance so the boundary probe is not about
    # floating-point rounding
    model = MtjDelayModel(tm_tolerance=0.125)
    assert not is_malicious(MtjCell(tm_actual=1.125), model)
    assert not is_malicious(MtjCell(tm_actual=0.875), model)
    assert is_malicious(MtjCell(tm_actual=1.125 + 1e-9), model)
    assert is_malicious(MtjCell(tm_actual=0.875 - 1e-9), model)


def test_is_malicious_default_model():
    assert not is_malicious(MtjCell(tm_actual=1.05), MODEL)
    assert is_malicious(MtjCell(tm_actual=1.3), MODEL)
    assert is_malicious(MtjCell(tm_actual=0.85), MODEL)


def test_cell_validation():
    with pytest.raises(ValueError):
        MtjCell(tm_actual=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            MtjCell(tm_actual=bad)
    with pytest.raises(ValueError):
        MtjCell(state=2)


def test_model_validation():
    with pytest.raises(ValueError):
        MtjDelayModel(tm_min=1.3, tm_max=0.8)
    with pytest.raises(ValueError):
        MtjDelayModel(delay01_min=3.0, delay01_max=2.0)
    with pytest.raises(ValueError):
        MtjDelayModel(tm_tolerance=-0.1)
    # a nan delay01_max hid every tampered cell from the sweep
    for name in ("tm_min", "tm_max", "delay01_min", "delay01_max", "delay10_min", "delay10_max", "tm_tolerance"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                MtjDelayModel(**{name: bad})


def test_nominal_array():
    cells = nominal_array(16)
    assert len(cells) == 16
    assert all(c.tm_actual == 1.0 and c.state == 0 for c in cells)


def test_array_file_roundtrip(tmp_path):
    cells = nominal_array(5)
    cells[2] = MtjCell(tm_actual=1.31)
    path = tmp_path / "array.txt"
    save_array(path, cells)
    back = load_array(path)
    assert [c.tm_actual for c in back] == [c.tm_actual for c in cells]


def test_load_array_accepts_comments_and_commas(tmp_path):
    path = tmp_path / "array.txt"
    path.write_text("# header\n1, 1.2\n0 1.0\n")
    cells = load_array(path)
    assert [c.tm_actual for c in cells] == [1.0, 1.2]


@pytest.mark.parametrize(
    "text",
    ["0 1.0\n0 1.1\n", "1 1.0\n", "0 1.0 extra\n", ""],
)
def test_load_array_rejects_malformed(tmp_path, text):
    path = tmp_path / "array.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_array(path)


@pytest.mark.parametrize(
    "row",
    ["1 x", "x 1.0", "1 -1", "1 0", "1 nan", "1 inf"],
)
def test_load_array_bad_row_names_path_and_line(tmp_path, row):
    path = tmp_path / "array.txt"
    path.write_text(f"# index tm_actual\n0 1.0\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        load_array(path)


# thicknesses on a 10-significant-digit grid, which save_array writes exactly
_TM = st.integers(1, 10**9).map(lambda k: k / 10**7)


@settings(max_examples=30, deadline=None)
@given(st.lists(_TM, min_size=1, max_size=20))
def test_array_table_round_trip_property(tms):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "array.txt"
        save_array(path, [MtjCell(tm_actual=tm) for tm in tms])
        assert [c.tm_actual for c in load_array(path)] == tms


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_array_table_any_order_separator_and_comments(data):
    tms = data.draw(st.lists(_TM, min_size=1, max_size=12))
    order = data.draw(st.permutations(range(len(tms))))
    lines = []
    for i in order:
        lines += data.draw(st.sampled_from([[], [""], ["# cell"], ["   "]]))
        sep = data.draw(st.sampled_from([" ", ",", ", ", "\t", " ,  "]))
        comment = data.draw(st.sampled_from(["", " # note", "#"]))
        lines.append(f"{i}{sep}{tms[i]!r}{comment}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "array.txt"
        path.write_text("\n".join(lines) + "\n")
        assert [c.tm_actual for c in load_array(path)] == tms
