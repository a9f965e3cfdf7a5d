"""Golden digests of the fixed-seed command outputs.

Criterion 10 of the acceptance tests shows that two runs of the same code
write the same bytes. These digests show more: that a change to the code
kept the output the previous code wrote. A change that alters an output on
purpose updates the digest here and says why in CHANGES.md.

The digests hold for the default configuration under numpy 2.x.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from mtjbist import mtj
from mtjbist.cli import main

EXP1_TREE_SHA256 = "0ecb22600a681bab8cdb79f657d65e87fc60b3e266cd533c74be44813a22c6be"
EXP2_TREE_SHA256 = "748df5a81556ebc6af2921a999cb109f1714f6755639453aab310303028d41db"
BIST_SWEEP_CSV_SHA256 = "bf53fadb7b5037c34536fa3739ef2be34f7687adf8ebd51633d22e4ff08ddac8"
TRACE_GEN_CRC_PV_TREE_SHA256 = "0956ecad05244c6ad4a313b6fd833e67337e06614030f63a770eaa9f1d24a0cc"
TRACE_GEN_KATAN_TROJAN_TREE_SHA256 = "f1a2f60f68b3d7d9fa1d3db8f2c62dcea0ef528766f5cda49fc4c3fe065e8283"
DETECT_EVAL_CSV_SHA256 = "1efd0ff59a94c00328d20ee678ff6e144823296da00c6bb0ce57d06a1bb17576"


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and content digest of every file, in path order."""
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for rel, path in files:
        h.update(rel.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def test_exp1_tree_digest(tmp_path, capsys):
    assert main(["exp1", "--seed", "1", "--out", str(tmp_path)]) == 2
    assert tree_digest(tmp_path / "exp1") == EXP1_TREE_SHA256


def test_exp2_tree_digest(tmp_path, capsys):
    assert main(["exp2", "--seed", "1", "--out", str(tmp_path)]) == 2
    assert tree_digest(tmp_path / "exp2") == EXP2_TREE_SHA256


def test_bist_sweep_csv_digest(tmp_path, capsys):
    cells, tampered = tmp_path / "cells.txt", tmp_path / "tampered.txt"
    mtj.save_array(cells, mtj.nominal_array(16))
    assert main(["attack", "inject", "--array", str(cells), "--out-array", str(tampered),
                 "--random", "3", "--seed", "1"]) == 0
    out = tmp_path / "sweep"
    assert main(["bist", "sweep", "--array", str(tampered), "--seed", "1", "--out", str(out)]) == 2
    digest = hashlib.sha256((out / "bist_results.csv").read_bytes()).hexdigest()
    assert digest == BIST_SWEEP_CSV_SHA256


@pytest.mark.parametrize("argv, name, digest", [
    (["--circuit", "crc", "--condition", "process_variation", "--pv-fraction", "0.1"],
     "crc_decoder_process_variation", TRACE_GEN_CRC_PV_TREE_SHA256),
    (["--circuit", "katan", "--condition", "trojan"],
     "katan32_trojan_trojan", TRACE_GEN_KATAN_TROJAN_TREE_SHA256),
])
def test_trace_gen_tree_digest(tmp_path, capsys, argv, name, digest):
    assert main(["trace", "gen", *argv, "--seed", "1", "--out", str(tmp_path)]) == 0
    assert tree_digest(tmp_path / name) == digest


def test_detect_eval_csv_digest(tmp_path, capsys):
    # the exp1 Trojan dataset read back and scored against the exp1 threshold
    assert main(["exp1", "--seed", "1", "--out", str(tmp_path)]) == 2
    exp = tmp_path / "exp1"
    manifest = (exp / "manifest").read_text()
    threshold = re.search(r"^threshold = (\S+)$", manifest, re.M).group(1)
    out = tmp_path / "eval"
    assert main(["detect", "eval", str(exp / "datasets" / "trojan"), str(exp / "reference.csv"),
                 "--threshold", threshold, "--out", str(out)]) == 2
    digest = hashlib.sha256((out / "evaluation.csv").read_bytes()).hexdigest()
    assert digest == DETECT_EVAL_CSV_SHA256
