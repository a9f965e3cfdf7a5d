import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.cli import main
from mtjbist.config import ExperimentConfig
from mtjbist.crc import encode
from mtjbist.detector import Decision
from mtjbist.experiments import (
    any_rejection,
    child_seeds,
    run_crc_identification,
    run_katan_identification,
    write_experiment,
)
from mtjbist.traces import (
    PV_FRACTION_RANGE,
    TEMPERATURE_RANGE_C,
    ConditionKind,
    read_dataset,
)
from mtjbist.trojan import crc_trigger, katan_trigger


def small_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(seed=1, detector_n_patterns=6)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_child_seeds_deterministic_and_distinct():
    a = child_seeds(1, 8)
    b = child_seeds(1, 8)
    assert a == b
    assert len(set(a)) == 8
    assert child_seeds(2, 8) != a


def test_crc_experiment_structure():
    cfg = small_config()
    result = run_crc_identification(cfg)
    assert set(result.datasets) == {
        "reference",
        "normal",
        "process_variation",
        "temperature",
        "trojan",
    }
    assert set(result.signals) == set(result.datasets) - {"reference"}
    assert result.threshold > 0
    for name, ds in result.datasets.items():
        assert len(ds) == 6
    for name, decs in result.decisions.items():
        assert len(decs) == 6
        for s, counts in result.confusion[name].items():
            assert counts.total == 6


def test_crc_experiment_condition_parameters_in_range():
    result = run_crc_identification(small_config())
    pv = result.datasets["process_variation"].condition
    temp = result.datasets["temperature"].condition
    assert pv.kind is ConditionKind.PROCESS_VARIATION
    assert PV_FRACTION_RANGE[0] <= pv.pv_length_fraction <= PV_FRACTION_RANGE[1]
    assert temp.kind is ConditionKind.TEMPERATURE
    assert TEMPERATURE_RANGE_C[0] <= temp.temperature_c <= TEMPERATURE_RANGE_C[1]


def test_crc_trojan_dataset_only_holds_triggering_patterns():
    cfg = small_config()
    result = run_crc_identification(cfg)
    crc = cfg.crc
    for pattern in result.datasets["trojan"].patterns:
        assert crc_trigger(encode(int(pattern), crc))


def test_katan_experiment_structure_and_trigger_conditioning():
    cfg = small_config()
    result = run_katan_identification(cfg)
    assert set(result.datasets) == {"reference", "normal", "trojan"}
    key = cfg.katan_key
    spec = cfg.katan_trojan
    for pattern in result.datasets["trojan"].patterns:
        assert katan_trigger(int(pattern), key, spec)


def test_experiments_reproducible_across_runs():
    a = run_crc_identification(small_config())
    b = run_crc_identification(small_config())
    assert a.threshold == b.threshold
    for name in a.signals:
        assert np.array_equal(a.signals[name].values, b.signals[name].values)
        assert a.decisions[name] == b.decisions[name]


def test_crc_trojan_rejected_and_clean_accepted_at_default_sensitivity():
    result = run_crc_identification(small_config())
    assert all(d is Decision.ACCEPT for d in result.decisions["normal"])
    assert all(d is Decision.REJECT for d in result.decisions["trojan"])
    assert any_rejection(result)


def test_katan_trojan_rejected_and_clean_accepted():
    result = run_katan_identification(small_config())
    assert all(d is Decision.ACCEPT for d in result.decisions["normal"])
    assert all(d is Decision.REJECT for d in result.decisions["trojan"])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_every_seed_accepts_clean_and_rejects_trojan_traces(seed):
    # the paper's claim at the default config (n=20), not only at seed 1
    for run in (run_crc_identification, run_katan_identification):
        result = run(ExperimentConfig(seed=seed))
        for name, decisions in result.decisions.items():
            expected = Decision.REJECT if name == "trojan" else Decision.ACCEPT
            assert decisions == [expected] * 20, (run.__name__, name)


def test_write_experiment_layout(tmp_path):
    cfg = small_config()
    result = run_crc_identification(cfg)
    out = tmp_path / "exp1"
    write_experiment(result, cfg, out)
    assert (out / "reference.csv").is_file()
    assert (out / "evaluation.csv").is_file()
    assert (out / "manifest").is_file()
    for name in result.datasets:
        assert (out / "datasets" / name / "manifest").is_file()
    for name in result.signals:
        assert (out / f"evaluation_{name}.csv").is_file()
        assert (out / f"confusion_{name}.csv").is_file()
    # datasets read back identically
    back = read_dataset(out / "datasets" / "trojan")
    orig = result.datasets["trojan"]
    assert back.condition == orig.condition
    assert np.array_equal(back.patterns, orig.patterns)
    assert np.array_equal(back.samples, orig.samples)
    # evaluation CSV carries one row per non-reference trace
    rows = (out / "evaluation.csv").read_text().strip().splitlines()
    assert rows[0] == "dataset,index,value,decision"
    assert len(rows) == 1 + 4 * len(orig)


def test_confusion_csv_contents(tmp_path):
    cfg = small_config()
    result = run_katan_identification(cfg)
    out = tmp_path / "exp2"
    write_experiment(result, cfg, out)
    rows = (out / "confusion_trojan.csv").read_text().strip().splitlines()
    assert rows[0] == "sensitivity,tp,fp,tn,fn"
    assert len(rows) == 1 + len(cfg.detector_sensitivities)
    for raw, s in zip(rows[1:], cfg.detector_sensitivities):
        cols = raw.split(",")
        assert float(cols[0]) == s
        counts = result.confusion["trojan"][s]
        assert [int(c) for c in cols[1:]] == [counts.tp, counts.fp, counts.tn, counts.fn]


def test_circuit_name_maps():
    result = run_katan_identification(small_config())
    names = {name: ds.circuit for name, ds in result.datasets.items()}
    assert names["trojan"] == "katan32_trojan"
    assert names["normal"] == "katan32"
    assert all(ds.pattern_bits == 32 for ds in result.datasets.values())
    crc_result = run_crc_identification(small_config())
    crc_names = {name: ds.circuit for name, ds in crc_result.datasets.items()}
    assert crc_names["trojan"] == "crc_decoder_trojan"
    assert crc_names["temperature"] == "crc_decoder"
    assert all(ds.pattern_bits == 8 for ds in crc_result.datasets.values())


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def counted_forks(monkeypatch):
    """The pids that os.fork returns to this process."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def test_split_write_gives_the_one_process_tree(tmp_path, monkeypatch, capsys, counted_forks):
    commands = {"exp1": ["exp1"], "exp2": ["exp2"], "ds": ["trace", "gen", "--n", "60", "--name", "ds"]}
    trees = {}
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        for name, argv in commands.items():
            out = tmp_path / str(len(cpus))
            assert main([*argv, "--seed", "1", "--out", str(out)]) in (0, 2)
            trees[len(cpus), name] = _tree(out / name)
            _no_child_left()
    # at n = 20 exp1 writes 101 trace files, three shares, and exp2 61, two
    # shares; trace gen writes 60, two shares
    assert len(counted_forks) == 2 + 1 + 1
    for name in commands:
        assert trees[1, name] == trees[3, name]


@pytest.mark.parametrize("rel", ["datasets/trojan/trace_019.csv", "reference.csv"], ids=["child", "parent"])
def test_split_write_error_names_the_file(tmp_path, monkeypatch, capsys, counted_forks, rel):
    # the last trace file falls in the third process's share, the first in this one's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    (tmp_path / "exp1" / rel).mkdir(parents=True)
    assert main(["exp1", "--seed", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Is a directory: '{tmp_path / 'exp1' / rel}'" in err
    assert len(counted_forks) == 2
    _no_child_left()
