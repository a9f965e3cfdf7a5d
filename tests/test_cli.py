import re
import subprocess
import sys
import time

import pytest

from mtjbist import mtj
from mtjbist.cli import main

ALL_ONES_KEY = "ffffffffffffffffffff"


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1
    assert main(["bist"]) == 1
    assert main(["katan", "enc", "--key", "f" * 21, "--pt", "00"]) == 1  # key too wide


def test_katan_enc_known_vector(capsys):
    assert main(["katan", "enc", "--key", ALL_ONES_KEY, "--pt", "00000000"]) == 0
    assert capsys.readouterr().out.strip() == "7e1ff945"


def test_katan_dec_inverts(capsys):
    assert main(["katan", "dec", "--key", ALL_ONES_KEY, "--ct", "7e1ff945"]) == 0
    assert capsys.readouterr().out.strip() == "00000000"


def test_katan_enc_trojan_flips_edge_bits(capsys):
    key = "00000000000000000001"  # odd-parity low byte
    assert main(["katan", "enc", "--key", key, "--pt", "00000001"]) == 0
    clean = int(capsys.readouterr().out.strip(), 16)
    assert main(["katan", "enc", "--key", key, "--pt", "00000001", "--trojan"]) == 0
    infected = int(capsys.readouterr().out.strip(), 16)
    assert infected ^ clean == 0x80000001
    # dormant input: even pt parity
    assert main(["katan", "enc", "--key", key, "--pt", "00000003"]) == 0
    clean2 = capsys.readouterr().out.strip()
    assert main(["katan", "enc", "--key", key, "--pt", "00000003", "--trojan"]) == 0
    assert capsys.readouterr().out.strip() == clean2


def test_bist_run_clean_array(tmp_path, capsys):
    rc = main(["bist", "run", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean" in out
    csv = (tmp_path / "bist_results.csv").read_text().splitlines()
    assert csv[0] == "half_period_ns,pattern_hex,error_flag,faulted_indices"
    assert csv[1] == "3,a5,0,"


def test_attack_then_bist_detects_at_fast_clock(tmp_path, capsys):
    array = tmp_path / "cells.txt"
    tampered = tmp_path / "tampered.txt"
    mtj.save_array(array, mtj.nominal_array(16))
    rc = main(
        ["attack", "inject", "--array", str(array), "--out-array", str(tampered),
         "--targets", "0", "--multiplier", "1.3"]
    )
    assert rc == 0
    assert "now outside tolerance: [0]" in capsys.readouterr().out

    # nominal clock stays silent, the tampered cell hides
    rc = main(["bist", "run", "--array", str(tampered), "--pattern", "01",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()

    # faster clock exposes it
    rc = main(["bist", "run", "--array", str(tampered), "--pattern", "01",
               "--half-period", "1.4", "--out", str(tmp_path)])
    assert rc == 2
    assert "ERROR" in capsys.readouterr().out
    csv = (tmp_path / "bist_results.csv").read_text().splitlines()
    assert csv[1] == "1.4,01,1,0"


def test_bist_sweep_reports_largest_flagged_half_period(tmp_path, capsys):
    array = tmp_path / "cells.txt"
    cells = mtj.nominal_array(16)
    mtj.save_array(array, [c if i else mtj.MtjCell(tm_actual=1.3) for i, c in enumerate(cells)])
    rc = main(
        ["bist", "sweep", "--array", str(array), "--patterns", "01,02",
         "--half-periods", "3.0,1.4,0.9", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 2
    assert "pattern 01: flagged up to half period 1.4 ns" in out
    rows = (tmp_path / "bist_results.csv").read_text().splitlines()
    assert len(rows) == 1 + 6


def test_bist_sweep_rejects_non_finite_half_period(tmp_path, capsys):
    rc = main(["bist", "sweep", "--patterns", "01", "--half-periods", "3,nan", "--out", str(tmp_path)])
    assert rc == 1
    assert "half_period must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "bist_results.csv").exists()


@pytest.mark.parametrize("row", ["1 x", "1 -1", "1 nan"])
def test_bist_sweep_bad_array_row_exits_1_with_location(tmp_path, capsys, row):
    # a nan thickness used to pass: is_malicious calls it healthy, yet the
    # cell never completes a write, so even the rated clock raised the flag
    array = tmp_path / "cells.txt"
    lines = [f"{i} 1\n" for i in range(16)]
    lines[1] = row + "\n"
    array.write_text("".join(lines))
    rc = main(["bist", "sweep", "--array", str(array), "--patterns", "02", "--out", str(tmp_path)])
    assert rc == 1
    assert f"{array}:2: " in capsys.readouterr().err


def test_attack_inject_requires_target_choice(tmp_path, capsys):
    array = tmp_path / "cells.txt"
    mtj.save_array(array, mtj.nominal_array(16))
    rc = main(["attack", "inject", "--array", str(array), "--out-array",
               str(tmp_path / "x.txt")])
    assert rc == 1
    assert "need --targets or --random" in capsys.readouterr().err


def test_attack_inject_random(tmp_path, capsys):
    array = tmp_path / "cells.txt"
    out_array = tmp_path / "tampered.txt"
    mtj.save_array(array, mtj.nominal_array(16))
    rc = main(["attack", "inject", "--array", str(array), "--out-array", str(out_array),
               "--random", "3", "--multiplier-range", "1.2,1.5", "--seed", "4"])
    assert rc == 0
    cells = mtj.load_array(out_array)
    assert sum(1 for c in cells if c.tm_actual > 1.0) == 3


def test_trace_gen_dataset_layout(tmp_path, capsys):
    rc = main(["trace", "gen", "--circuit", "crc", "--n", "5", "--out", str(tmp_path),
               "--seed", "3"])
    assert rc == 0
    ds = tmp_path / "crc_decoder_normal"
    assert (ds / "manifest").is_file()
    assert len(list(ds.glob("trace_*.csv"))) == 5
    manifest = (ds / "manifest").read_text()
    assert "condition.kind = normal" in manifest
    assert "circuit = crc_decoder" in manifest


def test_trace_gen_condition_parameter_required(tmp_path, capsys):
    rc = main(["trace", "gen", "--condition", "process_variation", "--out", str(tmp_path)])
    assert rc == 1
    assert "--pv-fraction required" in capsys.readouterr().err


def test_detect_eval_and_score_round(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["trace", "gen", "--circuit", "crc", "--condition", "normal",
                 "--n", "8", "--seed", "3", "--out", out, "--name", "clean"]) == 0
    assert main(["trace", "gen", "--circuit", "crc", "--condition", "trojan",
                 "--n", "8", "--seed", "5", "--out", out, "--name", "bad"]) == 0
    capsys.readouterr()
    reference = str(tmp_path / "clean" / "trace_000.csv")

    # a clean dataset against its own mean threshold is accepted throughout
    rc = main(["detect", "eval", str(tmp_path / "clean"), reference, "--out", out])
    eval_out = capsys.readouterr().out
    assert rc == 0
    assert "0 rejected" in eval_out
    threshold = re.search(r"threshold ([\d.e+-]+)", eval_out).group(1)

    # the Trojan dataset against the clean threshold is rejected throughout
    rc = main(["detect", "eval", str(tmp_path / "bad"), reference,
               "--threshold", threshold, "--out", out])
    assert rc == 2
    assert "8 rejected" in capsys.readouterr().out
    rows = (tmp_path / "evaluation.csv").read_text().splitlines()
    assert rows[0] == "index,value,decision"
    assert len(rows) == 9
    assert all(r.endswith("reject") for r in rows[1:])

    rc = main(["detect", "score", str(tmp_path / "evaluation.csv"),
               "--threshold", threshold, "--condition", "trojan", "--out", out])
    assert rc == 2
    capsys.readouterr()
    confusion = (tmp_path / "confusion.csv").read_text().splitlines()
    assert confusion[0] == "sensitivity,tp,fp,tn,fn"
    assert len(confusion) == 4
    for row in confusion[1:]:
        s, tp, fp, tn, fn = row.split(",")
        assert (int(tp), int(fp), int(tn), int(fn)) == (8, 0, 0, 0)


def test_detect_eval_missing_dataset_is_error(tmp_path, capsys):
    rc = main(["detect", "eval", str(tmp_path / "nope"), str(tmp_path / "ref.csv")])
    assert rc == 1


def test_detect_eval_manifest_without_n_traces_is_error(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["trace", "gen", "--n", "2", "--out", out, "--name", "ds"]) == 0
    manifest = tmp_path / "ds" / "manifest"
    kept = [l for l in manifest.read_text().splitlines() if not l.startswith("n_traces")]
    manifest.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    rc = main(["detect", "eval", str(tmp_path / "ds"), str(tmp_path / "ds" / "trace_000.csv"), "--out", out])
    assert rc == 1
    assert f"{manifest}: missing key 'n_traces'" in capsys.readouterr().err


def _grid_csv(path, n=256, dt=0.1, jump_at=None):
    rows = [f"{(i + (i == jump_at)) * dt!r},4.0\n" for i in range(n)]
    path.write_text("time_ns,current_uA\n" + "".join(rows))


def _set_manifest_dt(ds, text):
    manifest = ds / "manifest"
    manifest.write_text(manifest.read_text().replace("dt_ns = 0.1\n", f"dt_ns = {text}\n"))


# each case damages the dataset ds or the reference ref and names the file
# and line the error must point at
GEOMETRY_CASES = {
    "reference-dt": (lambda ds, ref: _grid_csv(ref, dt=0.2), "ref.csv:3: time step 0.2 ns, expected 0.1 ns"),
    "reference-time-jump": (lambda ds, ref: _grid_csv(ref, jump_at=3),
                            "ref.csv:5: expected time 3 * 0.1 ns and a finite current, got 0.4,4.0"),
    "manifest-dt": (lambda ds, ref: _set_manifest_dt(ds, "0.5"),
                    "ds/trace_000.csv:3: time step 0.1 ns, expected 0.5 ns"),
    "reference-length": (lambda ds, ref: _grid_csv(ref, n=200), "ref.csv:202: 200 samples, expected 256"),
    "reference-row": (lambda ds, ref: ref.write_text(ref.read_text().replace("\n0.5,", "\nx,y,z\n0.5,", 1)),
                      "ref.csv:7: expected 'time_ns,current_uA', got 'x,y,z'"),
    "dataset-trace-dt": (lambda ds, ref: _grid_csv(ds / "trace_001.csv", dt=0.2),
                         "ds/trace_001.csv:3: time step 0.2 ns, expected 0.1 ns"),
}


@pytest.mark.parametrize("case", GEOMETRY_CASES)
def test_detect_eval_rejects_bad_trace_geometry_with_location(tmp_path, capsys, case):
    damage, where = GEOMETRY_CASES[case]
    assert main(["trace", "gen", "--n", "3", "--seed", "2", "--out", str(tmp_path), "--name", "ds"]) == 0
    ds, ref = tmp_path / "ds", tmp_path / "ref.csv"
    ref.write_text((ds / "trace_000.csv").read_text())
    assert main(["detect", "eval", str(ds), str(ref), "--out", str(tmp_path / "ok")]) == 0
    damage(ds, ref)
    capsys.readouterr()
    assert main(["detect", "eval", str(ds), str(ref), "--out", str(tmp_path / "bad")]) == 1
    assert f"error: {tmp_path}/{where}" in capsys.readouterr().err
    assert not (tmp_path / "bad" / "evaluation.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--targets", "0", "--multiplier", "nan"], "multipliers must be positive and finite"),
    (["--targets", "0", "--multiplier", "inf"], "multipliers must be positive and finite"),
    (["--random", "2", "--multiplier-range", "nan,inf"], "multiplier range must be finite"),
    (["--random", "2", "--multiplier-range", "1.2,inf"], "multiplier range must be finite"),
    (["--random", "2", "--multiplier-range", "1.5,1.2"], "lo <= hi, got 1.5,1.2"),
    (["--random", "2", "--multiplier-range", "1.2"], "must be two values lo,hi, got 1"),
    (["--random", "2", "--multiplier-range", "1.2,1.3,1.4"], "must be two values lo,hi, got 3"),
])
def test_attack_inject_rejects_bad_multipliers(tmp_path, capsys, flags, message):
    array, out_array = tmp_path / "cells.txt", tmp_path / "tampered.txt"
    mtj.save_array(array, mtj.nominal_array(16))
    rc = main(["attack", "inject", "--array", str(array), "--out-array", str(out_array), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out_array.exists()


@pytest.mark.parametrize("argv", [["exp2"], ["trace", "gen", "--circuit", "katan", "--condition", "trojan"]])
def test_katan_trojan_that_can_never_fire_is_error(tmp_path, capsys, argv):
    conf = tmp_path / "run.conf"
    conf.write_text("katan.key = 00000000000000000000\n")
    t0 = time.perf_counter()
    rc = main(argv + ["--config", str(conf), "--out", str(tmp_path)])
    assert rc == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "katan key 00000000000000000000" in err
    assert "[0, 1, 2, 3, 4, 5, 6, 7]" in err
    assert "never fire" in err
    assert not list(tmp_path.glob("*/manifest")) and not (tmp_path / "exp2").exists()


def test_exp1_writes_tree_and_signals_detection(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("detector.n_patterns = 4\n")
    rc = main(["exp1", "--config", str(conf), "--seed", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "exp1: threshold" in out
    exp = tmp_path / "exp1"
    for name in ("reference.csv", "evaluation.csv", "manifest",
                 "confusion_trojan.csv", "evaluation_normal.csv"):
        assert (exp / name).is_file()
    assert (exp / "datasets" / "process_variation" / "manifest").is_file()


def test_exp2_writes_tree(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("detector.n_patterns = 4\n")
    rc = main(["exp2", "--config", str(conf), "--out", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "exp2" / "datasets" / "trojan" / "manifest").is_file()
    assert (tmp_path / "exp2" / "confusion_normal.csv").is_file()


def test_report_handles_csv_and_manifest(tmp_path, capsys):
    assert main(["bist", "run", "--out", str(tmp_path)]) == 0
    assert main(["trace", "gen", "--n", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "bist_results.csv"),
               str(tmp_path / "crc_decoder_normal" / "manifest")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 rows" in out
    assert "condition.kind = normal" in out


def test_config_file_changes_behaviour(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("crc.reference_pattern = 3c\nclock.half_period_ns = 2.5\n")
    rc = main(["bist", "run", "--config", str(conf), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pattern 3c at half period 2.5 ns" in out


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("clock.frequency = 9\n")
    rc = main(["bist", "run", "--config", str(conf)])
    assert rc == 1
    assert "unknown key" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mtjbist.cli", "katan", "enc",
         "--key", "00000000000000000000", "--pt", "ffffffff"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "432e61da"
