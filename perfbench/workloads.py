"""The benchmark's workloads: generated inputs, command lines, expected exit
codes, work counts and the checks on their outputs.

Every workload drives the program through ``mtjbist.cli.main``, the function
behind the ``mtjbist`` command, called in process. The command line, its exit
codes and its on-disk formats are the program's fixed interface, while the
Python API behind them may shrink, so this module imports nothing else from
the package. The program receives only the files generated here: a config
file, an MTJ array table and an exp1 output tree.

Sizes are fixed constants: a run measures the same work at every seed, and
the seed only changes the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random

KATAN_KEY_HEX = "9e3779b97f4a7c15f39d"
KATAN_REFERENCE_HEX = "a5a5a5a5"
KATAN_ROUNDS = 254
KATAN_KEY_BITS = 80
TRACE_SAMPLES = 256
BASELINE_UA = 4.0
I_UNIT_UA = 1.0
SPIKE_GAIN = 4.0e4
SENSITIVITY = 0.10
RATED_HALF_PERIOD = 3.0
EXP1_DATASETS = ("reference", "normal", "process_variation", "temperature", "trojan")
# traces per dataset whose detector value the warm-up recomputes with the
# double-loop oracle (about 30 ms each), and KATAN traces per dataset whose
# samples it rebuilds from the oracle cipher
DETECTOR_SAMPLE = 2
KATAN_SAMPLE = 3


class CheckError(Exception):
    """An output of the program disagrees with what the benchmark expects."""


def write_config(path, seed: int, n_patterns: int) -> None:
    # the trace and KATAN keys repeat the program's defaults so that the
    # oracle checks below know the values the program used
    with open(path, "w") as fh:
        fh.write(
            f"seed = {seed}\n"
            f"detector.n_patterns = {n_patterns}\n"
            f"detector.sensitivity = {SENSITIVITY}\n"
            f"katan.key = {KATAN_KEY_HEX}\n"
            f"katan.reference_pattern = {KATAN_REFERENCE_HEX}\n"
            f"trace.n_samples = {TRACE_SAMPLES}\n"
            f"trace.baseline_ua = {BASELINE_UA}\n"
            f"trace.i_unit_ua = {I_UNIT_UA}\n"
            f"trace.spike_gain = {SPIKE_GAIN}\n"
        )


def call_cli(cli_main, argv: list[str]) -> int:
    """One ``mtjbist`` command in process; its standard output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def tree_digest(root) -> tuple[str, int]:
    """sha256 over the relative paths and bytes of every file under root, and the byte total."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            total += len(data)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
    return h.hexdigest(), total


def read_kv(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for raw in fh:
            if "=" in raw:
                key, value = raw.split("=", 1)
                out[key.strip()] = value.strip()
    return out


def read_csv(path) -> list[dict[str, str]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh if line.strip()]


def read_trace(path) -> list[float]:
    return [float(row["current_uA"]) for row in read_csv(path)]


def _sample(seed: int, n: int, k: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(k, n)))


def _matches_10g(recomputed: float, written: str) -> bool:
    # the program keeps 10 significant digits: allow half a unit in the last one
    w = float(written)
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(w))) - 9) if w else 0.0
    return abs(recomputed - w) <= half_unit * (1 + 1e-6)


def check_detector_values(oracles, reference_csv, pairs) -> int:
    """Recompute detector values with the double-loop oracle.

    pairs holds (trace CSV, value text written by the program). Returns the
    number of values checked.
    """
    reference = read_trace(reference_csv)
    for trace_csv, written in pairs:
        value = oracles.detector_double_loop(reference, read_trace(trace_csv))
        if not _matches_10g(value, written):
            raise CheckError(f"{trace_csv}: oracle detector value {value!r}, program wrote {written}")
    return len(pairs)


def katan_oracle_toggles(oracles, plaintext: int, key: int) -> list[int]:
    """Per-round toggles of the 32-bit state plus the 80-bit key window, from the oracle."""
    states = oracles.katan32_states(plaintext, key)
    k = oracles.katan_key_bits(key, 2 * KATAN_ROUNDS + KATAN_KEY_BITS)
    return [
        bin(states[r] ^ states[r + 1]).count("1")
        + sum(k[2 * r + i] ^ k[2 * r + 2 + i] for i in range(KATAN_KEY_BITS))
        for r in range(KATAN_ROUNDS)
    ]


def check_katan_trace(oracles, trace_csv, plaintext: int, activation_steps=()) -> None:
    """The rounded switching term of every non-activation step equals the oracle's toggle count.

    Rounding is exact because the noise sigma (0.05 uA) is far below half
    a toggle (0.5 uA).
    """
    toggles = katan_oracle_toggles(oracles, plaintext, int(KATAN_KEY_HEX, 16))
    toggles += [0] * (TRACE_SAMPLES - len(toggles))
    samples = read_trace(trace_csv)
    if len(samples) != TRACE_SAMPLES:
        raise CheckError(f"{trace_csv}: {len(samples)} samples, expected {TRACE_SAMPLES}")
    for t, (sample, expected) in enumerate(zip(samples, toggles)):
        if t in activation_steps:
            if sample - BASELINE_UA < SPIKE_GAIN * I_UNIT_UA / 2:
                raise CheckError(f"{trace_csv}: no payload spike at activation step {t}")
            continue
        got = round((sample - BASELINE_UA) / I_UNIT_UA)
        if got != expected:
            raise CheckError(f"{trace_csv}: step {t} has {got} toggles, oracle says {expected}")


class Workload:
    """One benchmark workload. Subclasses fix the sizes and the command lines."""

    name = ""
    work_unit = ""
    expected_codes: tuple[int, ...] = ()
    work = 0

    def make_inputs(self, cli_main, seed: int, in_dir: str) -> None:
        raise NotImplementedError

    def commands(self, in_dir: str, out_dir: str) -> list[list[str]]:
        raise NotImplementedError

    def sim_rates(self, in_dir: str, out_dir: str) -> tuple[float, float]:
        """(simulated detection rate, simulated clean-acceptance rate) read from the outputs."""
        raise NotImplementedError

    def warmup_checks(self, oracles, in_dir: str, out_dir: str, seed: int) -> dict[str, int]:
        """Deep checks of the warm-up outputs; returns what was checked, raises CheckError."""
        raise NotImplementedError


class Exp2Katan(Workload):
    name = "exp2_katan"
    work_unit = "traces written"
    datasets = ("reference", "normal", "trojan")
    n_patterns = 60
    expected_codes = (2,)
    work = 3 * n_patterns + 1

    def make_inputs(self, cli_main, seed, in_dir):
        write_config(os.path.join(in_dir, "config"), seed, self.n_patterns)

    def commands(self, in_dir, out_dir):
        return [["exp2", "--config", os.path.join(in_dir, "config"), "--out", out_dir]]

    def sim_rates(self, in_dir, out_dir):
        tree = os.path.join(out_dir, "exp2")
        counts = {}
        for name in self.datasets[1:]:
            rows = {float(r["sensitivity"]): r for r in read_csv(os.path.join(tree, f"confusion_{name}.csv"))}
            counts[name] = {k: int(v) for k, v in rows[SENSITIVITY].items() if k != "sensitivity"}
        trojan, normal = counts["trojan"], counts["normal"]
        return trojan["tp"] / (trojan["tp"] + trojan["fn"]), normal["tn"] / (normal["tn"] + normal["fp"])

    def warmup_checks(self, oracles, in_dir, out_dir, seed):
        tree = os.path.join(out_dir, "exp2")
        pairs = []
        for name in self.datasets[1:]:
            rows = read_csv(os.path.join(tree, f"evaluation_{name}.csv"))
            for i in _sample(seed, len(rows), DETECTOR_SAMPLE):
                pairs.append((os.path.join(tree, "datasets", name, f"trace_{i:03d}.csv"), rows[i]["value"]))
        n_values = check_detector_values(oracles, os.path.join(tree, "reference.csv"), pairs)
        check_katan_trace(oracles, os.path.join(tree, "reference.csv"), int(KATAN_REFERENCE_HEX, 16))
        n_traces = 1
        for name in self.datasets:
            ds = os.path.join(tree, "datasets", name)
            manifest = read_kv(os.path.join(ds, "manifest"))
            # every Trojan pattern is drawn to fire the trigger, at the last round
            active = (KATAN_ROUNDS - 1,) if name == "trojan" else ()
            for i in _sample(seed, int(manifest["n_traces"]), KATAN_SAMPLE):
                pt = int(manifest[f"trace.{i}.pattern"], 16)
                check_katan_trace(oracles, os.path.join(ds, manifest[f"trace.{i}.file"]), pt, active)
                n_traces += 1
        return {"detector_values": n_values, "katan_traces": n_traces}


class BistSweep(Workload):
    name = "bist_sweep"
    work_unit = "BIST rounds"
    n_cells = 16
    n_tampered = 3
    n_patterns = 256
    n_half_periods = 10
    expected_codes = (2,)
    work = n_patterns * n_half_periods

    def make_inputs(self, cli_main, seed, in_dir):
        config = os.path.join(in_dir, "config")
        write_config(config, seed, 20)
        nominal = os.path.join(in_dir, "nominal_array.txt")
        with open(nominal, "w") as fh:
            fh.write("# index tm_actual\n")
            fh.writelines(f"{i} 1\n" for i in range(self.n_cells))
        argv = ["attack", "inject", "--array", nominal, "--out-array", os.path.join(in_dir, "array.txt"),
                "--random", str(self.n_tampered), "--config", config]
        if call_cli(cli_main, argv) != 0:
            raise CheckError("attack inject failed")

    def commands(self, in_dir, out_dir):
        return [["bist", "sweep", "--n-random", str(self.n_patterns), "--array", os.path.join(in_dir, "array.txt"),
                 "--config", os.path.join(in_dir, "config"), "--out", out_dir]]

    def _rows(self, out_dir):
        return read_csv(os.path.join(out_dir, "bist_results.csv"))

    def tampered_cells(self, in_dir) -> set[int]:
        cells = set()
        with open(os.path.join(in_dir, "array.txt")) as fh:
            for line in fh:
                if line.strip() and not line.startswith("#"):
                    idx, tm = line.split()
                    if float(tm) != 1.0:
                        cells.add(int(idx))
        return cells

    def sim_rates(self, in_dir, out_dir):
        rows = self._rows(out_dir)
        caught = set()
        for r in rows:
            if r["error_flag"] == "1" and r["faulted_indices"]:
                caught |= {int(i) for i in r["faulted_indices"].split(";")}
        tampered = self.tampered_cells(in_dir)
        rated = [r for r in rows if float(r["half_period_ns"]) == RATED_HALF_PERIOD]
        return len(tampered & caught) / len(tampered), sum(r["error_flag"] == "0" for r in rated) / len(rated)

    def warmup_checks(self, oracles, in_dir, out_dir, seed):
        rows = self._rows(out_dir)
        if len(rows) != self.work:
            raise CheckError(f"bist sweep wrote {len(rows)} rows, expected {self.work}")
        half_periods = {float(r["half_period_ns"]) for r in rows}
        if len(half_periods) != self.n_half_periods or max(half_periods) != RATED_HALF_PERIOD:
            raise CheckError(f"unexpected half periods {sorted(half_periods)}")
        rated = [r for r in rows if float(r["half_period_ns"]) == RATED_HALF_PERIOD]
        if any(r["error_flag"] != "0" for r in rated):
            raise CheckError("a row at the rated clock raised the error flag")
        if len(self.tampered_cells(in_dir)) != self.n_tampered:
            raise CheckError("attack inject did not tamper the requested number of cells")
        return {"rows": len(rows), "rated_clock_rows": len(rated)}


class DetectReadback(Workload):
    name = "detect_readback"
    work_unit = "traces read and evaluated"
    # the exp1 tree is written at set-up; it is kept small because writing it
    # to the checkout's filesystem is the noisiest part of the set-up
    n_patterns = 100
    expected_codes = (0, 0, 0, 0, 2)
    work = len(EXP1_DATASETS) * n_patterns

    def make_inputs(self, cli_main, seed, in_dir):
        config = os.path.join(in_dir, "config")
        write_config(config, seed, self.n_patterns)
        if call_cli(cli_main, ["exp1", "--config", config, "--out", in_dir]) != 2:
            raise CheckError("exp1 did not flag its Trojan dataset while writing the input tree")

    def commands(self, in_dir, out_dir):
        tree = os.path.join(in_dir, "exp1")
        threshold = read_kv(os.path.join(tree, "manifest"))["threshold"]
        return [
            ["detect", "eval", os.path.join(tree, "datasets", name), os.path.join(tree, "reference.csv"),
             "--threshold", threshold, "--config", os.path.join(in_dir, "config"),
             "--out", os.path.join(out_dir, name)]
            for name in EXP1_DATASETS
        ]

    def sim_rates(self, in_dir, out_dir):
        tp = positives = tn = negatives = 0
        for name in EXP1_DATASETS:
            decisions = [r["decision"] for r in read_csv(os.path.join(out_dir, name, "evaluation.csv"))]
            if name == "trojan":
                tp, positives = decisions.count("reject"), len(decisions)
            else:
                tn, negatives = tn + decisions.count("accept"), negatives + len(decisions)
        return tp / positives, tn / negatives

    def warmup_checks(self, oracles, in_dir, out_dir, seed):
        tree = os.path.join(in_dir, "exp1")
        pairs = []
        for name in EXP1_DATASETS:
            rows = read_csv(os.path.join(out_dir, name, "evaluation.csv"))
            if len(rows) != self.n_patterns:
                raise CheckError(f"{name}: {len(rows)} evaluated traces, expected {self.n_patterns}")
            for i in _sample(seed, len(rows), DETECTOR_SAMPLE):
                pairs.append((os.path.join(tree, "datasets", name, f"trace_{i:03d}.csv"), rows[i]["value"]))
        return {"detector_values": check_detector_values(oracles, os.path.join(tree, "reference.csv"), pairs)}


WORKLOADS = {w.name: w for w in (Exp2Katan(), BistSweep(), DetectReadback())}
