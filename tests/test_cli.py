import builtins
import io
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtjbist import mtj, textio, traces
from mtjbist.cli import main
from mtjbist.config import CONFIG_KEYS
from mtjbist.detector import DetectorConfig, EvaluationSignal, classify, score
from mtjbist.experiments import confusion_text, evaluation_text
from mtjbist.textio import write_text
from mtjbist.traces import MANIFEST_KEYS, NORMAL, TROJAN
from test_golden import tree_digest

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


def test_bist_sweep_prints_each_pattern_once(tmp_path, capsys):
    # a repeated pattern used to repeat its summary line
    array = tmp_path / "cells.txt"
    mtj.save_array(array, [mtj.MtjCell(tm_actual=1.3 if i in (2, 11) else 1.0) for i in range(16)])
    rc = main(["bist", "sweep", "--array", str(array), "--patterns", "a5,ff,a5,01",
               "--half-periods", "3,1.4,1", "--out", str(tmp_path)])
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("pattern ")]
    assert rc == 2
    assert lines == ["pattern a5: flagged up to half period 1.4 ns", "pattern ff: flagged up to half period 1.4 ns"]
    # the CSV keeps one row per round
    rows = (tmp_path / "bist_results.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 4


def test_bist_sweep_rejects_non_finite_half_period(tmp_path, capsys):
    rc = main(["bist", "sweep", "--patterns", "01", "--half-periods", "3,nan", "--out", str(tmp_path)])
    assert rc == 1
    assert "half_period must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "bist_results.csv").exists()


def test_bist_run_rejects_a_half_period_whose_sample_edge_overflows(tmp_path, capsys):
    # the launch (1.25e308 ns) is finite and the sample edge is not; this used
    # to print "clean (launch 1.25e+308 ns, sample inf ns)" and exit 0
    conf = tmp_path / "run.conf"
    conf.write_text("clock.sample_edge = 5\n")
    rc = main(["bist", "run", "--pattern", "ff", "--half-period", "5e307", "--config", str(conf),
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ("error: bist run: --half-period: half_period 5e+307 overflows the clock: "
                            "sample time (sample_edge - 1) * 2 * half_period = inf\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# each used to print "0 runs" and write a header-only CSV, or, for a negative
# count, exit 1 with numpy's "negative dimensions are not allowed"
@pytest.mark.parametrize("flags, message", [
    (["--n-random", "0"], "bist sweep: --n-random must be >= 1, got 0"),
    (["--n-random", "-1"], "bist sweep: --n-random must be >= 1, got -1"),
    (["--patterns", ","], "bist sweep: --patterns needs at least one pattern"),
    (["--patterns", ""], "bist sweep: --patterns needs at least one pattern"),
    (["--half-periods", ","], "bist sweep: --half-periods needs at least one half period"),
    (["--patterns", "01", "--half-periods", ""], "bist sweep: --half-periods needs at least one half period"),
])
def test_bist_sweep_rejects_an_empty_grid(tmp_path, capsys, flags, message):
    rc = main(["bist", "sweep", *flags, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# each used to exit 1 with numpy's "high is out of bounds for int64", naming no key
@pytest.mark.parametrize("argv", [["bist", "sweep", "--n-random", "3"], ["trace", "gen", "--circuit", "crc"], ["exp1"]],
                         ids=["bist-sweep", "trace-gen", "exp1"])
def test_random_patterns_wider_than_63_bits_name_the_key(tmp_path, capsys, argv):
    conf = tmp_path / "w64.conf"
    conf.write_text("crc.data_width = 64\n")
    assert main([*argv, "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
    assert "crc.data_width = 64: random patterns take at most 63 bits" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the given patterns of bist run and bist sweep still take all 64 bits
    assert main(["bist", "run", "--pattern", "f" * 16, "--config", str(conf), "--out", str(tmp_path / "run")]) == 0
    assert main(["bist", "sweep", "--patterns", "f" * 16, "--config", str(conf), "--out", str(tmp_path / "sweep")]) == 0


# each used to exit 1 only after drawing its patterns, with a message that named no key
@pytest.mark.parametrize("conf, argv, message", [
    ("trace.n_samples = 253\n", ["trace", "gen", "--circuit", "katan", "--condition", "trojan"],
     "trace.n_samples = 253: a trace must hold the 254 steps of katan32_trojan"),
    ("trace.n_samples = 100\n", ["exp2"], "trace.n_samples = 100: a trace must hold the 254 steps of katan32"),
    # data plus check bits longer than the trace
    ("trace.n_samples = 107\ncrc.data_width = 60\ncrc.check_width = 48\n", ["trace", "gen", "--circuit", "crc"],
     "trace.n_samples = 107: a trace must hold the 108 steps of crc_decoder"),
    ("trace.n_samples = 100\ncrc.data_width = 63\ncrc.check_width = 40\n", ["exp1"],
     "trace.n_samples = 100: a trace must hold the 103 steps of crc_decoder"),
], ids=["katan-trace-gen", "exp2", "crc-trace-gen", "exp1"])
def test_a_trace_shorter_than_its_circuit_names_the_key(tmp_path, capsys, monkeypatch, conf, argv, message):
    def no_draw(*args):
        raise AssertionError("patterns drawn")
    monkeypatch.setattr(traces, "draw_patterns", no_draw)
    (tmp_path / "short.conf").write_text(conf)
    assert main([*argv, "--config", str(tmp_path / "short.conf"), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each used to print int()'s or parse_hex's message, which names no option
@pytest.mark.parametrize("argv, message", [
    (["katan", "enc", "--key", "zz", "--pt", "0"], "argument --key: invalid literal for int() with base 16: 'zz'"),
    (["katan", "dec", "--key", "0", "--ct", "zz"], "argument --ct: invalid literal for int() with base 16: 'zz'"),
    (["katan", "enc", "--key", "0", "--pt", "1ffffffff"], "argument --pt: '1ffffffff' does not fit in 32 bits"),
    (["katan", "dec", "--key", "f" * 21, "--ct", "0"], f"argument --key: '{'f' * 21}' does not fit in 80 bits"),
    (["bist", "run", "--pattern", "zz"], "bist run: --pattern: invalid literal for int() with base 16: 'zz'"),
    (["bist", "sweep", "--patterns", "01,1ff"], "bist sweep: --patterns: '1ff' does not fit in 8 bits"),
])
def test_bad_hex_value_names_its_option(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each used to print float()'s or int()'s message alone, or the message of
# the attack spec or of the array that rejected the value, naming no option;
# {array} and {eval} name files the test writes, {array} a 16-cell array
@pytest.mark.parametrize("argv, message", [
    (["attack", "inject", "--array", "{array}", "--out-array", "{array}.out", "--targets", "1,a"],
     "attack inject: --targets: invalid literal for int() with base 10: 'a'"),
    (["attack", "inject", "--array", "{array}", "--out-array", "{array}.out", "--targets", "1,1"],
     "attack inject: --targets: duplicate target index"),
    (["attack", "inject", "--array", "{array}", "--out-array", "{array}.out", "--targets", "99"],
     "attack inject: --targets: target index 99 outside array of 16 cells"),
    (["attack", "inject", "--array", "{array}", "--out-array", "{array}.out", "--random", "17"],
     "attack inject: --random: need 0 < n_targets <= n_cells, got 17 targets in an array of 16 cells"),
    (["attack", "inject", "--array", "{array}", "--out-array", "{array}.out", "--random", "2",
      "--multiplier-range", "a,b"], "attack inject: --multiplier-range: could not convert string to float: 'a'"),
    (["bist", "sweep", "--half-periods", "3,x"], "bist sweep: --half-periods: could not convert string to float: 'x'"),
    (["detect", "score", "{eval}", "--threshold", "1", "--condition", "normal", "--sensitivities", "x"],
     "detect score: --sensitivities: could not convert string to float: 'x'"),
], ids=["targets", "targets-repeated", "targets-outside", "random-above-cells", "multiplier-range", "half-periods",
        "sensitivities"])
def test_bad_list_item_names_its_option(tmp_path, capsys, argv, message):
    mtj.save_array(tmp_path / "cells.txt", mtj.nominal_array(16))
    (tmp_path / "evaluation.csv").write_text("index,value,decision\n0,1,accept\n")
    files = {"array": tmp_path / "cells.txt", "eval": tmp_path / "evaluation.csv"}
    argv = [arg.format(**files) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "cells.txt.out").exists()


# each used to print "error: tm_actual must be positive and finite, got inf",
# naming neither the option nor the cell
@pytest.mark.parametrize("argv, message", [
    (["--targets", "0", "--multiplier", "1e308"],
     "error: attack inject: --multiplier: cell 0: tm_actual must be positive and finite, got inf\n"),
    (["--random", "2", "--multiplier-range=1e308,1e308"],
     r"error: attack inject: --multiplier-range: cell \d+: tm_actual must be positive and finite, got inf\n"),
], ids=["multiplier", "multiplier-range"])
def test_attack_inject_overflowing_thickness_names_its_option(tmp_path, capsys, argv, message):
    mtj.save_array(tmp_path / "cells.txt", [mtj.MtjCell(tm_actual=2.0)] * 16)
    args = ["attack", "inject", "--array", str(tmp_path / "cells.txt"), "--out-array", str(tmp_path / "out.txt")]
    assert main([*args, *argv]) == 1
    assert re.fullmatch(message, capsys.readouterr().err)
    assert not (tmp_path / "out.txt").exists()


# each used to print "error: array <path> has 17 cells, message needs 16",
# which does not start with its source
@pytest.mark.parametrize("via", ["option", "config"])
@pytest.mark.parametrize("command", [["bist", "run"], ["bist", "sweep", "--n-random", "2"]], ids=["run", "sweep"])
def test_wrong_size_array_starts_with_its_path(tmp_path, capsys, command, via):
    path = tmp_path / "a17.txt"
    mtj.save_array(path, mtj.nominal_array(17))
    if via == "option":
        source = ["--array", str(path)]
    else:
        (tmp_path / "run.conf").write_text(f"mtj.array = {path}\n")
        source = ["--config", str(tmp_path / "run.conf")]
    assert main([*command, *source, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: array has 17 cells, message needs 16\n"
    assert not (tmp_path / "out").exists()


# each used to fall back to the default, the config's reference pattern or
# a nominal array, and exit 0
@pytest.mark.parametrize("argv", [
    ["bist", "run", "--pattern", ""],
    ["bist", "run", "--array", ""],
    ["bist", "sweep", "--array", ""],
], ids=["run-pattern", "run-array", "sweep-array"])
def test_empty_option_value_is_an_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


# each used to exit 0: "," wrote an untampered copy of the array, and ""
# claimed that --targets was not given
@pytest.mark.parametrize("targets", [",", ""], ids=["comma", "empty"])
def test_attack_inject_without_a_target_names_targets(tmp_path, capsys, targets):
    mtj.save_array(tmp_path / "cells.txt", mtj.nominal_array(16))
    argv = ["attack", "inject", "--array", str(tmp_path / "cells.txt"), "--out-array", str(tmp_path / "out.txt")]
    assert main([*argv, "--targets", targets]) == 1
    assert "attack inject: --targets needs at least one cell index" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


# it used to write <out>/crc_decoder_normal and exit 0
def test_trace_gen_with_an_empty_name_names_name(tmp_path, capsys):
    assert main(["trace", "gen", "--n", "2", "--name", "", "--out", str(tmp_path / "out")]) == 1
    assert "trace gen: --name must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_0_on_every_call_in_one_process(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as root:
            main(["--help"])
        assert root.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: mtjbist")
        assert "{bist,attack,trace,detect,katan,exp1,exp2,report}" in out
        with pytest.raises(SystemExit) as sweep:
            main(["bist", "sweep", "--help"])
        assert sweep.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: mtjbist bist sweep")
        assert "--n-random" in out and "--patterns" in out


def test_options_of_one_call_do_not_carry_into_the_next(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("seed = 7\n")
    args = ["trace", "gen", "--n", "3", "--config", str(conf), "--name", "ds"]
    assert main([*args, "--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
    # the usage error comes after --seed is parsed
    assert main(["trace", "gen", "--seed", "6", "--n", "x", "--out", str(tmp_path / "bad")]) == 1
    assert main([*args, "--out", str(tmp_path / "again")]) == 0
    assert "seed = 7\n" in (tmp_path / "again" / "ds" / "manifest").read_text()
    fresh = subprocess.run([sys.executable, "-m", "mtjbist.cli", *args, "--out", str(tmp_path / "fresh")],
                           capture_output=True)
    assert fresh.returncode == 0
    assert tree_digest(tmp_path / "again" / "ds") == tree_digest(tmp_path / "fresh" / "ds")
    assert tree_digest(tmp_path / "again" / "ds") != tree_digest(tmp_path / "seeded" / "ds")
    assert not (tmp_path / "bad").exists()


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


# each used to exit 1 with "n_patterns must be >= 1", naming no option
@pytest.mark.parametrize("n", ["0", "-3"])
def test_trace_gen_rejects_a_count_below_one(tmp_path, capsys, n):
    rc = main(["trace", "gen", "--n", n, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"trace gen: --n must be >= 1, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_trace_gen_condition_parameter_required(tmp_path, capsys):
    rc = main(["trace", "gen", "--condition", "process_variation", "--out", str(tmp_path)])
    assert rc == 1
    assert "--pv-fraction required" in capsys.readouterr().err


# each used to exit 0 and write a dataset that silently ignored the extra flag
@pytest.mark.parametrize("flags, message", [
    (["--condition", "normal", "--pv-fraction", "0.1"], "--condition normal: normal takes no parameters"),
    (["--condition", "trojan", "--temperature", "50"], "--condition trojan: trojan takes no parameters"),
    (["--condition", "process_variation", "--pv-fraction", "0.1", "--temperature", "50"],
     "--condition process_variation: process variation takes pv_length_fraction only"),
    (["--condition", "temperature", "--temperature", "50", "--pv-fraction", "0.1"],
     "--condition temperature: temperature takes temperature_c only"),
], ids=["normal", "trojan", "process_variation", "temperature"])
def test_trace_gen_rejects_a_flag_the_condition_does_not_take(tmp_path, capsys, flags, message):
    rc = main(["trace", "gen", "--n", "2", *flags, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"trace gen: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# manifest line -> new text, the line the error names, its message
@pytest.mark.parametrize("line, text, message", [
    (3, "n_traces = abc", "bad value for n_traces: invalid literal"),
    (3, "n_traces = 0", "bad value for n_traces: must be >= 1"),
    (3, "n_traces = -1", "bad value for n_traces: must be >= 1"),
    (2, "seed = 1.5", "bad value for seed"),
    (8, "trace.0.pattern = zz", "bad value for trace.0.pattern"),
    (5, "pattern_bit = 8", "unknown key 'pattern_bit'"),
])
def test_detect_eval_bad_manifest_value_names_path_and_line(tmp_path, capsys, line, text, message):
    out = str(tmp_path)
    assert main(["trace", "gen", "--n", "2", "--out", out, "--name", "ds"]) == 0
    manifest = tmp_path / "ds" / "manifest"
    lines = manifest.read_text().splitlines()
    lines[line - 1] = text
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["detect", "eval", str(tmp_path / "ds"), str(tmp_path / "ds" / "trace_000.csv"), "--out", out])
    assert rc == 1
    assert f"error: {manifest}:{line}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "evaluation.csv").exists()


@pytest.mark.parametrize("rows, line, message", [
    (["0,1.5,accept", "1"], 3, "expected 3 fields as in the header, got '1'"),
    (["0,1.5,accept,x"], 2, "expected 3 fields as in the header"),
    (["0,1.5,accept", "", "1,abc,accept"], 4, "bad value for value: could not convert string to float: 'abc'"),
    (["1,inf,accept"], 2, "bad value for value: expected a finite number, got 'inf'"),
    (["1,nan,accept"], 2, "bad value for value: expected a finite number, got 'nan'"),
    (["0,1.5,accept", "1,-1.5,accept"], 3, "bad value for value: must be >= 0, got '-1.5'"),
], ids=["short-row", "long-row", "abc", "inf", "nan", "negative"])
def test_detect_score_bad_row_names_path_and_line(tmp_path, capsys, rows, line, message):
    evaluation = tmp_path / "evaluation.csv"
    evaluation.write_text("index,value,decision\n" + "".join(f"{r}\n" for r in rows))
    rc = main(["detect", "score", str(evaluation), "--threshold", "1", "--condition", "trojan",
               "--out", str(tmp_path)])
    assert rc == 1
    assert f"error: {evaluation}:{line}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "confusion.csv").exists()


# a header naming value twice used to score its first value column and exit 0
@pytest.mark.parametrize("header, count", [("index,value,value,decision", 2), ("index,current,decision", 0)],
                         ids=["twice", "none"])
def test_detect_score_needs_one_value_column(tmp_path, capsys, header, count):
    evaluation = tmp_path / "evaluation.csv"
    evaluation.write_text(f"{header}\n0,1.5,2.5,accept\n")
    rc = main(["detect", "score", str(evaluation), "--threshold", "1", "--condition", "normal",
               "--out", str(tmp_path)])
    assert rc == 1
    assert f"error: {evaluation}:1: expected one 'value' column, got {count}" in capsys.readouterr().err
    assert not (tmp_path / "confusion.csv").exists()


# a spaced header field used to exit 1 with "expected one 'value' column, got 0"
def test_detect_score_strips_header_fields_as_data_fields(tmp_path, capsys):
    results = []
    for header in ("index,value,decision", "index, value ,decision"):
        evaluation = tmp_path / "evaluation.csv"
        evaluation.write_text(f"{header}\n0, 1.5 ,accept\n1,0.5,accept\n")
        rc = main(["detect", "score", str(evaluation), "--threshold", "1", "--condition", "normal",
                   "--out", str(tmp_path)])
        results.append((rc, (tmp_path / "confusion.csv").read_text()))
    assert results[1] == results[0] and results[0][0] in (0, 2)


# argv ({...} names a file the test writes), config text, message; each
# case used to exit 0 or 2 with a wrong result
NON_FINITE_CASES = {
    # rejected every trace: a false detection
    "threshold": (["detect", "eval", "{ds}", "{ref}", "--threshold", "nan"], "",
                  "threshold must be positive and finite, got nan"),
    # accepted every trace
    "sensitivity": (["detect", "eval", "{ds}", "{ref}", "--sensitivity", "inf"], "",
                    "sensitivity must be positive and finite, got inf"),
    # wrote a nan confusion row
    "sensitivities": (["detect", "score", "{eval}", "--threshold", "1", "--condition", "normal",
                       "--sensitivities", "0.1,nan"], "", "sensitivity must be positive and finite, got nan"),
    # wrote a header-only confusion.csv
    "no-sensitivities": (["detect", "score", "{eval}", "--threshold", "1", "--condition", "normal",
                          "--sensitivities", ","], "", "detect score: --sensitivities needs at least one level"),
    "empty-sensitivities": (["detect", "score", "{eval}", "--threshold", "1", "--condition", "normal",
                             "--sensitivities", ""], "", "detect score: --sensitivities needs at least one level"),
    "no-configured-sensitivities": (["detect", "score", "{eval}", "--threshold", "1", "--condition", "normal"],
                                    "detector.sensitivities =\n", "run.conf:1: bad value for detector.sensitivities"),
    # flagged none of the rounds: every tampered cell hidden
    "delay": (["bist", "sweep", "--array", "{array}"], "mtj.delay01_max_ns = nan\n",
              "run.conf:1: bad value for mtj.delay01_max_ns"),
    # reported no cell outside tolerance
    "tolerance": (["attack", "inject", "--array", "{array}", "--out-array", "{array}.out", "--targets", "0"],
                  "mtj.tolerance = nan\n", "run.conf:1: bad value for mtj.tolerance"),
    # silently dropped the noise
    "noise": (["trace", "gen", "--n", "2"], "trace.noise_sigma_ua = nan\n",
              "run.conf:1: bad value for trace.noise_sigma_ua"),
}


@pytest.mark.parametrize("case", NON_FINITE_CASES)
def test_non_finite_parameters_exit_1_with_message(tmp_path, capsys, case):
    argv, conf, message = NON_FINITE_CASES[case]
    out = str(tmp_path)
    assert main(["trace", "gen", "--n", "3", "--out", out, "--name", "ds"]) == 0
    ds = tmp_path / "ds"
    assert main(["detect", "eval", str(ds), str(ds / "trace_000.csv"), "--out", out]) == 0
    mtj.save_array(tmp_path / "cells.txt", mtj.nominal_array(16))
    (tmp_path / "run.conf").write_text(conf)
    files = {"ds": ds, "ref": ds / "trace_000.csv", "eval": tmp_path / "evaluation.csv",
             "array": tmp_path / "cells.txt"}
    capsys.readouterr()
    argv = [arg.format(**files) for arg in argv] + ["--config", str(tmp_path / "run.conf")]
    assert main(argv + ["--out", str(tmp_path / "bad")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad").exists() and not (tmp_path / "cells.txt.out").exists()


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


# format -> (file under tmp_path, command reading it); the trace and the
# manifest come from a 2-trace dataset, the others are written here
NOT_UTF8_INPUTS = {
    "trace": ("ds/trace_001.csv", ["detect", "eval", "{d}", "{d}/trace_000.csv"]),
    "manifest": ("ds/manifest", ["detect", "eval", "{d}", "{d}/trace_000.csv"]),
    "config": ("run.conf", ["katan", "enc", "--key", "0" * 20, "--pt", "1", "--config", "{f}"]),
    "array": ("cells.txt", ["bist", "run", "--array", "{f}"]),
    "evaluation": ("evaluation.csv", ["detect", "score", "{f}", "--threshold", "1", "--condition", "normal"]),
    "report": ("evaluation.csv", ["report", "{f}"]),
}


@pytest.mark.parametrize("fmt", NOT_UTF8_INPUTS)
def test_input_that_is_not_utf8_names_path_and_line(tmp_path, capsys, fmt):
    name, argv = NOT_UTF8_INPUTS[fmt]
    assert main(["trace", "gen", "--n", "2", "--out", str(tmp_path), "--name", "ds"]) == 0
    (tmp_path / "run.conf").write_bytes(b"seed = 2\r\n\r\n")
    mtj.save_array(tmp_path / "cells.txt", mtj.nominal_array(16))
    (tmp_path / "evaluation.csv").write_bytes(b"index,value,decision\n0,1.5,accept\n")
    path = tmp_path / name
    # the bad byte opens the line after the last; \r\n ends one line, as in text mode
    line = path.read_text().count("\n") + 1
    path.write_bytes(path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    filled = [a.format(d=tmp_path / "ds", f=path) for a in argv]
    assert main(filled + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: not UTF-8 text\n"


def test_config_file_changes_behaviour(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("crc.reference_pattern = 3c\nclock.half_period_ns = 2.5\n")
    rc = main(["bist", "run", "--config", str(conf), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pattern 3c at half period 2.5 ns" in out


def test_negative_seed_is_usage_error(tmp_path, capsys):
    # used to fail inside numpy with an error that named no source
    assert main(["exp1", "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "exp1").exists()


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


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=12), threshold=st.floats(1, 1e5),
       trojan=st.booleans())
def test_evaluation_csv_round_trip_through_detect_score(tmp_path, capsys, values, threshold, trojan):
    signal = EvaluationSignal(values)
    evaluation = tmp_path / "evaluation.csv"
    write_text(evaluation, evaluation_text(signal, classify(signal, DetectorConfig(threshold))))
    # the file keeps 10 significant digits of each value
    back = EvaluationSignal([float(f"{v:.10g}") for v in values])
    condition = TROJAN if trojan else NORMAL
    counts = [(s, score(classify(back, DetectorConfig(threshold, s)), condition)) for s in (0.05, 0.1, 0.2)]
    write_text(tmp_path / "expected.csv", confusion_text(counts))
    rc = main(["detect", "score", str(evaluation), "--threshold", repr(threshold),
               "--condition", condition.kind.value, "--out", str(tmp_path)])
    assert rc == (2 if any(c.tp or c.fp for _, c in counts) else 0)
    assert (tmp_path / "confusion.csv").read_text() == (tmp_path / "expected.csv").read_text()
    capsys.readouterr()


def _near_valid_text(keys, head):
    """Lines of arbitrary text, of known keys with arbitrary values and of
    sample lines, after the valid head of the format half of the time."""
    any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)
    line = st.one_of(
        any_text,
        st.builds("{} = {}".format, st.sampled_from(keys), any_text),
        st.builds("{}={}".format, st.sampled_from(keys), st.integers(-3, 300)),
        st.sampled_from(["", "# comment", "trace.0.file = trace_000.csv", "trace.0.pattern = 1", "0 1.0",
                         "1, 1.3", "1 nan", "0,1.5,accept", "1", "1,abc,accept", "n_traces = 1"]),
    )
    body = st.lists(line, max_size=12).map("\n".join)
    return st.one_of(body, body.map(lambda text: f"{head}\n{text}"))


FORMATS = {
    "config": (sorted(CONFIG_KEYS), "seed = 2",
               lambda d, f: ["katan", "enc", "--trojan", "--key", "0" * 19 + "1", "--pt", "1", "--config", f]),
    "manifest": (sorted(MANIFEST_KEYS) + ["trace.0.file", "trace.0.pattern", "trace.1.pattern"],
                 "condition.kind = normal\nseed = 1\nn_traces = 1\ndt_ns = 0.1",
                 lambda d, f: ["detect", "eval", d, d + "/trace_000.csv"]),
    "array": (["0", "1", "15"], "\n".join(f"{i} 1.0" for i in range(15)), lambda d, f: ["bist", "run", "--array", f]),
    "evaluation": (["index", "value"], "index,value,decision",
                   lambda d, f: ["detect", "score", f, "--threshold", "1", "--condition", "normal"]),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_arbitrary_input_text_exits_0_1_or_2(tmp_path, capsys, fmt):
    keys, head, argv = FORMATS[fmt]
    ds = tmp_path / "ds"
    assert main(["trace", "gen", "--n", "1", "--out", str(tmp_path), "--name", "ds"]) == 0
    path = ds / "manifest" if fmt == "manifest" else tmp_path / "input.txt"

    @settings(max_examples=40, deadline=None)
    @given(_near_valid_text(keys, head))
    def run(text):
        path.write_text(text, encoding="utf-8")
        assert main(argv(str(ds), str(path)) + ["--out", str(tmp_path / "out")]) in (0, 1, 2)

    run()
    capsys.readouterr()


def test_exp2_rerun_with_fewer_traces_writes_the_tree_of_a_fresh_run(tmp_path, capsys):
    # n = 30 first: the second run, at the default n = 20, removes trace_020 ... trace_029
    conf = tmp_path / "n30.conf"
    conf.write_text("detector.n_patterns = 30\n")
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    assert main(["exp2", "--seed", "1", "--config", str(conf), "--out", str(again)]) == 2
    assert (again / "exp2" / "datasets" / "trojan" / "trace_029.csv").exists()
    assert main(["exp2", "--seed", "1", "--out", str(again)]) == 2
    assert main(["exp2", "--seed", "1", "--out", str(fresh)]) == 2
    assert tree_digest(again / "exp2") == tree_digest(fresh / "exp2")


def test_trace_gen_rerun_removes_only_unlisted_trace_files(tmp_path, capsys):
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    assert main(["trace", "gen", "--n", "12", "--seed", "4", "--out", str(again), "--name", "ds"]) == 0
    # names that are not trace_<ASCII digits>.csv stay, as does everything in a subdirectory
    kept = ["trace_012.txt", "trace_01a.csv", "trace_.csv", "Trace_013.csv", "trace_٣.csv", "notes.csv",
            "sub/trace_013.csv"]
    for name in kept:
        (again / "ds" / name).parent.mkdir(exist_ok=True)
        (again / "ds" / name).write_text("kept\n")
    (again / "ds" / "trace_7.csv").write_text("stale\n")
    assert main(["trace", "gen", "--n", "5", "--seed", "4", "--out", str(again), "--name", "ds"]) == 0
    assert main(["trace", "gen", "--n", "5", "--seed", "4", "--out", str(fresh), "--name", "ds"]) == 0
    for name in kept:
        assert (again / "ds" / name).read_text() == "kept\n"
        (again / "ds" / name).unlink()
    (again / "ds" / "sub").rmdir()
    assert tree_digest(again / "ds") == tree_digest(fresh / "ds")


# each used to exit 1 with the message of the object that rejected the
# value, naming no option, and detect eval read the whole dataset first;
# every input file named here is missing, so the option is checked before
# any file is read
@pytest.mark.parametrize("argv, message", [
    (["detect", "eval", "{missing}", "{missing}", "--threshold", "-1"],
     "detect eval: --threshold: threshold must be positive and finite, got -1.0"),
    (["detect", "eval", "{missing}", "{missing}", "--sensitivity", "0"],
     "detect eval: --sensitivity: sensitivity must be positive and finite, got 0.0"),
    (["detect", "score", "{missing}", "--threshold", "nan", "--condition", "normal"],
     "detect score: --threshold: threshold must be positive and finite, got nan"),
    (["detect", "score", "{missing}", "--threshold", "1", "--condition", "normal", "--sensitivities", "0.1,-0.2"],
     "detect score: --sensitivities: sensitivity must be positive and finite, got -0.2"),
    (["bist", "run", "--array", "{missing}", "--half-period", "-1"],
     "bist run: --half-period: half_period must be positive and finite, got -1.0"),
    (["bist", "sweep", "--array", "{missing}", "--half-periods", "3,0"],
     "bist sweep: --half-periods: half_period must be positive and finite, got 0.0"),
    # each used to pass the option check; the sweep then failed naming no option
    (["bist", "run", "--array", "{missing}", "--half-period", "1e308"],
     "bist run: --half-period: half_period 1e+308 overflows the clock: "
     "sample time (sample_edge - 1) * 2 * half_period = inf"),
    (["bist", "sweep", "--array", "{missing}", "--half-periods", "3,1e308"],
     "bist sweep: --half-periods: half_period 1e+308 overflows the clock: "
     "sample time (sample_edge - 1) * 2 * half_period = inf"),
    (["attack", "inject", "--array", "{missing}", "--out-array", "{missing}.out", "--targets", "0",
      "--multiplier", "inf"], "attack inject: --multiplier: multipliers must be positive and finite, got inf"),
    (["attack", "inject", "--array", "{missing}", "--out-array", "{missing}.out", "--random", "2",
      "--multiplier-range", "1.5,1.2"],
     "attack inject: --multiplier-range: multiplier range must be finite with 0 < lo <= hi, got 1.5,1.2"),
    # used to pass the range and fail on the first multiplier drawn below 0,
    # after reading the array, at some seeds and not at others
    (["attack", "inject", "--array", "{missing}", "--out-array", "{missing}.out", "--random", "2",
      "--multiplier-range=-1,2"],
     "attack inject: --multiplier-range: multiplier range must be finite with 0 < lo <= hi, got -1.0,2.0"),
    # used to be checked only by AttackSpec.random, after the array was read
    (["attack", "inject", "--array", "{missing}", "--out-array", "{missing}.out", "--random", "0"],
     "attack inject: --random must be >= 1, got 0"),
    # argparse takes a list that starts with '-' for an option; the message
    # used to stop at "expected one argument", naming no way out
    (["bist", "sweep", "--array", "{missing}", "--half-periods", "-1,2"],
     "mtjbist bist sweep: argument --half-periods: expected one argument; "
     "a value that starts with '-' is written --half-periods=VALUE"),
    (["detect", "score", "{missing}", "--threshold", "1", "--condition", "normal", "--sensitivities", "-0.1,0.2"],
     "mtjbist detect score: argument --sensitivities: expected one argument; "
     "a value that starts with '-' is written --sensitivities=VALUE"),
    (["attack", "inject", "--array", "{missing}", "--out-array", "{missing}.out", "--random", "2",
      "--multiplier-range", "-1,2"],
     "mtjbist attack inject: argument --multiplier-range: expected one argument; "
     "a value that starts with '-' is written --multiplier-range=VALUE"),
], ids=["eval-threshold", "eval-sensitivity", "score-threshold", "score-sensitivities", "half-period",
        "half-periods", "half-period-overflow", "half-periods-overflow", "multiplier", "multiplier-range",
        "multiplier-range-sign", "random-zero", "half-periods-dash", "sensitivities-dash", "multiplier-range-dash"])
def test_bad_number_names_its_option_before_any_file_is_read(tmp_path, capsys, argv, message):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == []


def test_every_command_writes_through_write_text(tmp_path, monkeypatch, capsys):
    # a write-mode open anywhere but in textio.write_text fails, in every thread
    array = tmp_path / "cells.txt"
    array.write_text("".join(f"{i} 1\n" for i in range(16)))
    out = tmp_path / "out"
    opened, bypassed, write_text_code = builtins.open, [], textio.write_text.__code__

    def open_for_write_text_only(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+") and sys._getframe(1).f_code is not write_text_code:
            bypassed.append(str(file))
            raise PermissionError(f"write-mode open outside textio.write_text: {file}")
        return opened(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_for_write_text_only)
    monkeypatch.setattr(io, "open", open_for_write_text_only)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    commands = [
        ["exp1"], ["exp2"], ["trace", "gen", "--n", "60", "--name", "ds"],
        ["detect", "eval", str(out / "ds"), str(out / "ds" / "trace_000.csv")],
        ["detect", "score", str(out / "evaluation.csv"), "--threshold", "1", "--condition", "normal"],
        ["attack", "inject", "--array", str(array), "--out-array", str(out / "tampered.txt"), "--targets", "2,11"],
        ["bist", "run", "--array", str(out / "tampered.txt")],
        ["bist", "sweep", "--array", str(out / "tampered.txt"), "--n-random", "4"],
    ]
    for argv in commands:
        assert main([*argv, "--seed", "1", "--out", str(out)]) in (0, 2), (argv, capsys.readouterr().err)
    assert bypassed == []
    for name in ("exp1/manifest", "exp2/confusion_trojan.csv", "ds/manifest", "evaluation.csv", "confusion.csv",
                 "tampered.txt", "bist_results.csv"):
        assert (out / name).is_file(), name
