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

import functools
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
    trace_text,
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

def evaluation_rows(signal: EvaluationSignal, rejected, prefix: str = "") -> str:
    """``index,value,decision`` lines of one evaluation signal, each after
    prefix, the decision spelled ``accept`` or ``reject``."""
    return "".join([f"{prefix}{i},{v:.10g},{'reject' if r else 'accept'}\n"
                    for i, (v, r) in enumerate(zip(signal.values, rejected))])


def evaluation_text(signal: EvaluationSignal, rejected) -> str:
    return "index,value,decision\n" + evaluation_rows(signal, rejected)


def confusion_text(counts) -> str:
    """One ``sensitivity,tp,fp,tn,fn`` row per (sensitivity, ConfusionCounts) pair."""
    return "sensitivity,tp,fp,tn,fn\n" + "".join(f"{s:.10g},{c.tp},{c.fp},{c.tn},{c.fn}\n" for s, c in counts)


def _run_manifest(result: ExperimentResult, config: ExperimentConfig) -> str:
    lines = [f"seed = {config.seed}", f"threshold = {result.threshold:.10g}",
             f"sensitivity = {config.detector_sensitivity:.10g}",
             "sensitivities = " + ", ".join(f"{s:.10g}" for s in config.detector_sensitivities),
             f"n_patterns = {config.detector_n_patterns}",
             f"normalized = {str(config.detector_normalized).lower()}"]
    for name, dataset in result.datasets.items():
        condition = dataset.condition
        lines += [f"dataset.{name}.circuit = {dataset.circuit}", f"dataset.{name}.condition = {condition.kind.value}",
                  *(f"dataset.{name}.{key} = {text}" for key, text in condition.parameters().items())]
    return "".join(f"{line}\n" for line in lines)


def write_experiment(result: ExperimentResult, config: ExperimentConfig, out_dir) -> None:
    """Persist an experiment: datasets, evaluation CSVs, confusion CSVs, manifest.

    One write_datasets call writes the trace files, reference.csv, the
    tables, the run manifest and the dataset manifests in that order, split
    across threads from 60 files on. A file's text is built where it is written.
    """
    def table(name, render, *args):
        return os.path.join(out_dir, name), functools.partial(render, *args)

    def evaluation_table():
        return "dataset,index,value,decision\n" + "".join(
            evaluation_rows(signal, result.decisions[name], f"{name},") for name, signal in result.signals.items())

    items = [table("reference.csv", trace_text, result.reference.dt, result.reference.samples),
             table("evaluation.csv", evaluation_table)]
    for name, signal in result.signals.items():
        counts = [(s, result.confusion[name][s]) for s in config.detector_sensitivities]
        items += [table(f"evaluation_{name}.csv", evaluation_text, signal, result.decisions[name]),
                  table(f"confusion_{name}.csv", confusion_text, counts)]
    items.append(table("manifest", _run_manifest, result, config))
    write_datasets({os.path.join(out_dir, "datasets", name): dataset for name, dataset in result.datasets.items()},
                   items)
