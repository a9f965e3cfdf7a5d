"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench

They take about two minutes: several of them run the benchmark itself.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, CheckError, call_cli, read_csv, tree_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def cli_main():
    return run.import_cli()


def _inputs_and_outputs(cli_main, workload, seed, base: Path) -> tuple[str, str]:
    in_dir, out_dir = base / "in", base / "out"
    in_dir.mkdir(parents=True)
    workload.make_inputs(cli_main, seed, str(in_dir))
    codes = tuple(call_cli(cli_main, argv) for argv in workload.commands(str(in_dir), str(out_dir)))
    assert codes == workload.expected_codes
    return tree_digest(in_dir)[0], tree_digest(out_dir)[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs_and_digests(cli_main, name, tmp_path):
    workload = WORKLOADS[name]
    first = _inputs_and_outputs(cli_main, workload, 7, tmp_path / "a")
    again = _inputs_and_outputs(cli_main, workload, 7, tmp_path / "b")
    other = _inputs_and_outputs(cli_main, workload, 8, tmp_path / "c")
    assert first == again
    assert first[0] != other[0]


def _corrupt_value(out_dir: str) -> None:
    path = os.path.join(out_dir, "bist_results.csv")
    with open(path) as fh:
        lines = fh.readlines()
    fields = lines[1].split(",")
    fields[2] = "1" if fields[2] == "0" else "0"
    lines[1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.writelines(lines)


@pytest.mark.parametrize("fault", ["csv_value", "exit_code"])
def test_corrupted_output_drives_ok_ratio_below_one(cli_main, fault, tmp_path):
    workload = WORKLOADS["bist_sweep"]
    calls = []

    def faulty_main(argv):
        code = cli_main(argv)
        calls.append(argv)
        if len(calls) == 2:  # the first timed iteration; call one is the warm-up
            if fault == "csv_value":
                _corrupt_value(argv[argv.index("--out") + 1])
            else:
                code = 0
        return code

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    workload.make_inputs(cli_main, 3, str(in_dir))
    correct, attempted, failed, metrics, _ = run.run_untraced(
        workload, faulty_main, 3, 1.0, tmp_path, str(in_dir))
    assert attempted >= 2
    assert failed == 1
    assert not correct
    assert metrics["ok_ratio"] == (attempted - 1) / attempted < 1.0


def test_faulty_program_fails_the_oracle_check(tmp_path, cli_main):
    # a detector value one unit off in its last kept digit
    workload = WORKLOADS["exp2_katan"]
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    workload.make_inputs(cli_main, 2, str(in_dir))
    call_cli(cli_main, workload.commands(str(in_dir), str(out_dir))[0])
    path = out_dir / "exp2" / "evaluation_normal.csv"
    rows = read_csv(path)
    for row in rows:
        mantissa, _, exponent = row["value"].partition("e")
        last = int(mantissa[-1])
        row["value"] = mantissa[:-1] + str((last + 1) % 10) + (("e" + exponent) if exponent else "")
    with open(path, "w") as fh:
        fh.write("index,value,decision\n")
        fh.writelines(f"{r['index']},{r['value']},{r['decision']}\n" for r in rows)
    with pytest.raises(CheckError, match="oracle detector value"):
        workload.warmup_checks(run.load_oracles(), str(in_dir), str(out_dir), 2)


def test_traced_run_hooks_the_program_and_unhooks_it(cli_main):
    import tracing
    from mtjbist import bist, cli

    original = bist.run_bist, cli.read_dataset
    with tracing.instrumented(tracing.Tracer()) as skipped:
        assert skipped == []
        assert (bist.run_bist, cli.read_dataset) != original
    assert (bist.run_bist, cli.read_dataset) == original


def test_attribution_check_can_fail(cli_main):
    import tracing

    tracer = tracing.Tracer()
    first = tracer.start_iteration(0)
    tracer.spans.append(["cli", 10.0, 11.0, -1, 0])
    tracer.spans.append(["bist.sweep", 10.2, 10.9, first, 0])
    tracer.leaves[("crc.encode", first + 1)] = [0.3, 100]
    inclusive, self_time, top = tracer.span_times(first)
    assert top == 1.0
    assert self_time["bist.sweep"] == pytest.approx(0.4)
    assert self_time["cli"] == pytest.approx(0.3)
    assert tracer.attribution_problems(first, 10.0, 11.0) == []
    # a span that starts before its iteration, which leaves a negative remainder
    late = tracer.attribution_problems(first, 10.5, 11.0)
    assert any("outside" in p for p in late) and any("unattributed" in p for p in late)
    # half of the iteration is in no span
    assert any("unattributed" in p for p in tracer.attribution_problems(first, 10.0, 12.0))


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared_in_benchmark_json(name, trace):
    proc = _run_benchmark(ROOT, "--workload", name, "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = _benchmark_json()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_workloads_are_declared_in_benchmark_json():
    assert {w["name"] for w in _benchmark_json()["workloads"]} == set(WORKLOADS)


def test_end_to_end_run_imports_only_the_cli():
    # tracing.py is imported by the traced run alone
    for module in ("run.py", "workloads.py", "refloop.py"):
        tree = ast.parse((HERE / module).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("mtjbist"):
                assert node.module == "mtjbist.cli", f"{module} imports {node.module}"
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("mtjbist") for a in node.names), module


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "bist_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
