"""End-to-end identification experiments.

Both experiments follow the same recipe around one device under test:

  1. capture a golden reference trace from a verified clean device,
  2. collect a held-out Normal dataset and set the acceptance threshold to
     the mean of its evaluation signal,
  3. collect the datasets under test, evaluate them against the reference,
     classify at the configured sensitivities, and tally confusion counts.

One driver runs the recipe from tables: ``DATASETS`` names each circuit's
datasets (the CRC receiver under Normal, process variation, temperature, and
Trojan conditions, KATAN-32 under Normal and Trojan), ``SEED_INDEX`` their
seeds, and ``device``, which ``trace gen`` shares, picks the circuit.

Every random draw is derived from the single run seed, so a repeated run
writes byte-identical outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .bits import random_space
from .circuits import (
    CrcDecoderCircuit,
    KatanCircuit,
    TrojanCrcDecoderCircuit,
    TrojanKatanCircuit,
)
from .config import ExperimentConfig
from .detector import (
    ConfusionCounts,
    DetectorConfig,
    EvaluationSignal,
    classify,
    evaluation_signal,
    score,
    threshold_from_reference,
)
from .traces import (
    NORMAL,
    TROJAN,
    Condition,
    ConditionKind,
    CurrentTrace,
    Dataset,
    PV_FRACTION_RANGE,
    TEMPERATURE_RANGE_C,
    build_dataset,
    simulate_trace,
    write_datasets,
)
from .trojan import check_katan_trigger_reachable


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    threshold: float
    reference: CurrentTrace
    datasets: dict[str, Dataset]
    signals: dict[str, EvaluationSignal]
    # dataset name -> bool per trace, True where it was rejected
    decisions: dict[str, np.ndarray]
    # dataset name -> sensitivity -> counts
    confusion: dict[str, dict[float, ConfusionCounts]]


def child_seeds(seed: int, n: int) -> list[int]:
    """Deterministic per-purpose seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# each circuit's datasets, in the order they are evaluated and written
DATASETS = {
    "crc": ("reference", "normal", "process_variation", "temperature", "trojan"),
    "katan": ("reference", "normal", "trojan"),
}
# dataset name -> its seed among the run's child seeds; seeds[0] is the
# reference trace's noise, seeds[6] and seeds[7] draw the process variation
# and the temperature of the CRC conditions
SEED_INDEX = {"reference": 1, "normal": 2, "process_variation": 3, "temperature": 4, "trojan": 5}


def device(config: ExperimentConfig, circuit: str, trojan: bool):
    """The configured CRC receiver or KATAN-32, infected or clean.

    A CRC data word wider than a dataset's 63-bit patterns, a KATAN Trojan
    that can never fire under the configured key, and a circuit that takes
    more steps than a trace holds samples are rejected before any pattern is
    drawn.
    """
    if circuit == "crc":
        random_space(config.crc.data_width, "crc.data_width")
        dut = TrojanCrcDecoderCircuit(config.crc) if trojan else CrcDecoderCircuit(config.crc)
    elif circuit == "katan":
        key = config.katan_key
        if trojan:
            check_katan_trigger_reachable(key, config.katan_trojan)
            dut = TrojanKatanCircuit(key, config.katan_trojan)
        else:
            dut = KatanCircuit(key)
    else:
        raise ValueError(f"unknown circuit {circuit!r}")
    if dut.n_steps > config.trace.n_samples:
        n = config.trace.n_samples
        raise ValueError(f"trace.n_samples = {n}: a trace must hold the {dut.n_steps} steps of {dut.name}")
    return dut


def _identify(config: ExperimentConfig, circuit: str) -> ExperimentResult:
    params = config.trace
    seeds = child_seeds(config.seed, 8)
    pv = float(np.random.default_rng(seeds[6]).uniform(*PV_FRACTION_RANGE))
    temperature = float(np.random.default_rng(seeds[7]).uniform(*TEMPERATURE_RANGE_C))
    conditions = {
        "reference": NORMAL,
        "normal": NORMAL,
        "process_variation": Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=pv),
        "temperature": Condition(ConditionKind.TEMPERATURE, temperature_c=temperature),
        "trojan": TROJAN,
    }
    clean = device(config, circuit, trojan=False)
    infected = device(config, circuit, trojan=True)
    ref_pattern = config.crc_reference_pattern if circuit == "crc" else config.katan_reference_pattern
    reference = simulate_trace(clean, ref_pattern, NORMAL, seed=seeds[0], params=params)
    datasets = {}
    for name in DATASETS[circuit]:
        condition = conditions[name]
        datasets[name] = build_dataset(clean if condition.original else infected, condition,
                                       config.detector_n_patterns, seed=seeds[SEED_INDEX[name]], params=params)

    theta = threshold_from_reference(
        evaluation_signal(reference, datasets["reference"], config.detector_normalized)
    )
    signals: dict[str, EvaluationSignal] = {}
    decisions: dict[str, np.ndarray] = {}
    confusion: dict[str, dict[float, ConfusionCounts]] = {}
    for name, dataset in datasets.items():
        if name == "reference":
            continue
        signal = evaluation_signal(reference, dataset, config.detector_normalized)
        signals[name] = signal
        decisions[name] = classify(
            signal, DetectorConfig(theta, config.detector_sensitivity)
        )
        confusion[name] = {}
        for s in config.detector_sensitivities:
            dec = classify(signal, DetectorConfig(theta, s))
            confusion[name][s] = score(dec, dataset.condition)
    return ExperimentResult(
        threshold=theta,
        reference=reference,
        datasets=datasets,
        signals=signals,
        decisions=decisions,
        confusion=confusion,
    )


def run_crc_identification(config: ExperimentConfig) -> ExperimentResult:
    """Reference, threshold, and the four CRC-receiver datasets."""
    return _identify(config, "crc")


def run_katan_identification(config: ExperimentConfig) -> ExperimentResult:
    """Reference, threshold, and the Normal / Trojan KATAN-32 datasets."""
    return _identify(config, "katan")


# ---------------------------------------------------------------------------
# output directory layout

def evaluation_rows(signal: EvaluationSignal, rejected) -> list[str]:
    """``index,value,decision`` lines of one evaluation signal, the decision
    spelled ``accept`` or ``reject``."""
    return [f"{i},{v:.10g},{'reject' if r else 'accept'}\n"
            for i, (v, r) in enumerate(zip(signal.values, rejected))]


def write_evaluation_csv(path, signal: EvaluationSignal, rejected) -> None:
    with open(path, "w") as fh:
        fh.write("index,value,decision\n")
        fh.writelines(evaluation_rows(signal, rejected))


def write_confusion_csv(path, counts) -> None:
    """One ``sensitivity,tp,fp,tn,fn`` row per (sensitivity, ConfusionCounts) pair."""
    with open(path, "w") as fh:
        fh.write("sensitivity,tp,fp,tn,fn\n")
        for s, c in counts:
            fh.write(f"{s:.10g},{c.tp},{c.fp},{c.tn},{c.fn}\n")


def write_experiment(result: ExperimentResult, config: ExperimentConfig, out_dir) -> None:
    """Persist an experiment: datasets, evaluation CSVs, confusion CSVs, manifest.

    One write_datasets call writes the reference and every dataset, split
    across threads from 60 trace files on: from n = 20 on two CPUs. The
    calling thread writes the manifests and tables meanwhile.
    """
    def write_tables():
        with open(os.path.join(out_dir, "evaluation.csv"), "w") as fh:
            fh.write("dataset,index,value,decision\n")
            for name, signal in result.signals.items():
                fh.writelines(f"{name},{row}" for row in evaluation_rows(signal, result.decisions[name]))
                write_evaluation_csv(os.path.join(out_dir, f"evaluation_{name}.csv"), signal, result.decisions[name])
                write_confusion_csv(
                    os.path.join(out_dir, f"confusion_{name}.csv"),
                    [(s, result.confusion[name][s]) for s in config.detector_sensitivities],
                )

        with open(os.path.join(out_dir, "manifest"), "w") as fh:
            fh.write(f"seed = {config.seed}\n")
            fh.write(f"threshold = {result.threshold:.10g}\n")
            fh.write(f"sensitivity = {config.detector_sensitivity:.10g}\n")
            levels = ", ".join(f"{s:.10g}" for s in config.detector_sensitivities)
            fh.write(f"sensitivities = {levels}\n")
            fh.write(f"n_patterns = {config.detector_n_patterns}\n")
            fh.write(f"normalized = {str(config.detector_normalized).lower()}\n")
            for name, dataset in result.datasets.items():
                fh.write(f"dataset.{name}.circuit = {dataset.circuit}\n")
                fh.write(f"dataset.{name}.condition = {dataset.condition.kind.value}\n")
                for key, text in dataset.condition.parameters().items():
                    fh.write(f"dataset.{name}.{key} = {text}\n")

    write_datasets({os.path.join(out_dir, "datasets", name): dataset for name, dataset in result.datasets.items()},
                   [(os.path.join(out_dir, "reference.csv"), result.reference.dt, result.reference.samples)],
                   write_tables)
