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
seeds, and ``device``, which ``trace gen`` shares, picks the circuit. Trojan
datasets draw stimulus patterns conditioned on the trigger firing, since a
dormant Trojan is electrically identical to the clean circuit and there is
nothing to observe.

Every random draw is derived from the single run seed, so a repeated run
writes byte-identical outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .circuits import (
    CrcDecoderCircuit,
    KatanCircuit,
    TrojanCrcDecoderCircuit,
    TrojanKatanCircuit,
)
from .config import ExperimentConfig
from .detector import (
    ConfusionCounts,
    Decision,
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
    dataset_files,
    remove_unlisted_traces,
    simulate_trace,
    write_manifest,
    write_traces,
)
from .trojan import check_katan_trigger_reachable


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    threshold: float
    reference: CurrentTrace
    datasets: dict[str, Dataset]
    signals: dict[str, EvaluationSignal]
    decisions: dict[str, list[Decision]]
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
    """(circuit, pattern filter) of the configured CRC receiver or KATAN-32.

    The filter of an infected device keeps the patterns that fire its
    trigger (None for a clean one). A CRC data word wider than a dataset's
    63-bit patterns, and a KATAN Trojan that can never fire under the
    configured key, are rejected before any pattern is drawn.
    """
    if circuit == "crc":
        if config.crc.data_width > 63:
            raise ValueError(f"crc.data_width = {config.crc.data_width}: random patterns take at most 63 bits")
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
    return dut, dut.fires if trojan else None


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
    clean, _ = device(config, circuit, trojan=False)
    infected, trigger = device(config, circuit, trojan=True)
    ref_pattern = config.crc_reference_pattern if circuit == "crc" else config.katan_reference_pattern
    reference = simulate_trace(clean, ref_pattern, NORMAL, seed=seeds[0], params=params)
    datasets = {}
    for name in DATASETS[circuit]:
        condition = conditions[name]
        dut, pattern_filter = (clean, None) if condition.original else (infected, trigger)
        datasets[name] = build_dataset(dut, condition, config.detector_n_patterns, seed=seeds[SEED_INDEX[name]],
                                       params=params, pattern_filter=pattern_filter)

    theta = threshold_from_reference(
        evaluation_signal(reference, datasets["reference"], config.detector_normalized)
    )
    signals: dict[str, EvaluationSignal] = {}
    decisions: dict[str, list[Decision]] = {}
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

def evaluation_rows(signal: EvaluationSignal, decisions) -> list[str]:
    """``index,value,decision`` lines of one evaluation signal."""
    return [f"{i},{v:.10g},{d.value}\n" for i, (v, d) in enumerate(zip(signal.values, decisions))]


def write_evaluation_csv(path, signal: EvaluationSignal, decisions) -> None:
    with open(path, "w") as fh:
        fh.write("index,value,decision\n")
        fh.writelines(evaluation_rows(signal, decisions))


def write_confusion_csv(path, counts) -> None:
    """One ``sensitivity,tp,fp,tn,fn`` row per (sensitivity, ConfusionCounts) pair."""
    with open(path, "w") as fh:
        fh.write("sensitivity,tp,fp,tn,fn\n")
        for s, c in counts:
            fh.write(f"{s:.10g},{c.tp},{c.fp},{c.tn},{c.fn}\n")


def write_experiment(result: ExperimentResult, config: ExperimentConfig, out_dir) -> None:
    """Persist an experiment: datasets, evaluation CSVs, confusion CSVs, manifest.

    One write_traces call writes the reference and every dataset's traces, so
    exp1 and exp2 fork at most once, from 60 trace files on: from n = 20 on two
    CPUs. This process writes the manifests and tables meanwhile.
    """
    dirs = {name: os.path.join(out_dir, "datasets", name) for name in result.datasets}
    files = [(os.path.join(out_dir, "reference.csv"), result.reference.dt, result.reference.samples)]
    for name, dataset in result.datasets.items():
        files += dataset_files(dataset, dirs[name])

    def write_tables():
        for name, dataset in result.datasets.items():
            write_manifest(dataset, dirs[name])
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
                cond = dataset.condition
                fh.write(f"dataset.{name}.condition = {cond.kind.value}\n")
                if cond.pv_length_fraction is not None:
                    fh.write(f"dataset.{name}.pv_length_fraction = {cond.pv_length_fraction:.10g}\n")
                if cond.temperature_c is not None:
                    fh.write(f"dataset.{name}.temperature_c = {cond.temperature_c:.10g}\n")

    write_traces(files, write_tables)
    for name, dataset in result.datasets.items():
        remove_unlisted_traces(dataset, dirs[name])


def any_rejection(result: ExperimentResult) -> bool:
    return any(
        d is Decision.REJECT for decs in result.decisions.values() for d in decs
    )
