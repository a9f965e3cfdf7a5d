"""End-to-end identification experiments.

Both experiments follow the same recipe around one device under test:

  1. capture a golden reference trace from a verified clean device,
  2. collect a held-out Normal dataset and set the acceptance threshold to
     the mean of its evaluation signal,
  3. collect the datasets under test, evaluate them against the reference,
     classify at the configured sensitivities, and tally confusion counts.

The CRC experiment runs the serial CRC receiver under Normal, process
variation, temperature, and Trojan conditions. The KATAN experiment runs the
cipher under Normal and Trojan conditions. Trojan datasets draw stimulus
patterns conditioned on the trigger firing, since a dormant Trojan is
electrically identical to the clean circuit and there is nothing to observe.

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
from .crc import encode
from .detector import (
    ConfusionCounts,
    Decision,
    DetectorConfig,
    EvaluationSignal,
    ReferenceSignal,
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
    Dataset,
    PV_FRACTION_RANGE,
    TEMPERATURE_RANGE_C,
    build_dataset,
    simulate_trace,
    write_dataset,
    write_trace_csv,
)
from .trojan import check_katan_trigger_reachable, crc_trigger, katan_trigger


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    threshold: float
    reference: ReferenceSignal
    datasets: dict[str, Dataset]
    signals: dict[str, EvaluationSignal]
    decisions: dict[str, list[Decision]]
    # dataset name -> sensitivity -> counts
    confusion: dict[str, dict[float, ConfusionCounts]]


def child_seeds(seed: int, n: int) -> list[int]:
    """Deterministic per-purpose seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _evaluate(config: ExperimentConfig, reference: ReferenceSignal, datasets: dict[str, Dataset]) -> ExperimentResult:
    heldout = datasets["reference"]
    theta = threshold_from_reference(
        evaluation_signal(reference, heldout, config.detector_normalized)
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
    crc = config.crc()
    params = config.trace_params()
    n = config.detector_n_patterns
    clean = CrcDecoderCircuit(crc)
    infected = TrojanCrcDecoderCircuit(config.crc_trojan(), crc)
    seeds = child_seeds(config.seed, 8)

    ref_trace = simulate_trace(
        clean, config.crc_reference_pattern, NORMAL, seed=seeds[0], params=params
    )
    reference = ReferenceSignal(ref_trace)

    pv_fraction = float(np.random.default_rng(seeds[6]).uniform(*PV_FRACTION_RANGE))
    temperature = float(np.random.default_rng(seeds[7]).uniform(*TEMPERATURE_RANGE_C))
    datasets = {
        "reference": build_dataset(clean, NORMAL, n, seed=seeds[1], params=params),
        "normal": build_dataset(clean, NORMAL, n, seed=seeds[2], params=params),
        "process_variation": build_dataset(
            clean,
            Condition(ConditionKind.PROCESS_VARIATION, pv_length_fraction=pv_fraction),
            n,
            seed=seeds[3],
            params=params,
        ),
        "temperature": build_dataset(
            clean,
            Condition(ConditionKind.TEMPERATURE, temperature_c=temperature),
            n,
            seed=seeds[4],
            params=params,
        ),
        "trojan": build_dataset(
            infected,
            TROJAN,
            n,
            seed=seeds[5],
            params=params,
            pattern_filter=lambda p: crc_trigger(encode(p, crc)),
        ),
    }
    return _evaluate(config, reference, datasets)


def run_katan_identification(config: ExperimentConfig) -> ExperimentResult:
    """Reference, threshold, and the Normal / Trojan KATAN-32 datasets."""
    params = config.trace_params()
    n = config.detector_n_patterns
    key = config.katan_key
    spec = config.katan_trojan()
    check_katan_trigger_reachable(key, spec)
    clean = KatanCircuit(key)
    infected = TrojanKatanCircuit(key, spec)
    seeds = child_seeds(config.seed, 8)

    ref_trace = simulate_trace(
        clean, config.katan_reference_pattern, NORMAL, seed=seeds[0], params=params
    )
    reference = ReferenceSignal(ref_trace)

    datasets = {
        "reference": build_dataset(clean, NORMAL, n, seed=seeds[1], params=params),
        "normal": build_dataset(clean, NORMAL, n, seed=seeds[2], params=params),
        "trojan": build_dataset(
            infected,
            TROJAN,
            n,
            seed=seeds[5],
            params=params,
            pattern_filter=lambda p: katan_trigger(p, key, spec),
        ),
    }
    return _evaluate(config, reference, datasets)


# ---------------------------------------------------------------------------
# output directory layout

def _pattern_bits(name: str, config: ExperimentConfig) -> int:
    return 32 if name.startswith("katan") else config.crc_data_width


def write_experiment(result: ExperimentResult, config: ExperimentConfig, out_dir, circuit_names: dict[str, str]) -> None:
    """Persist an experiment: datasets, evaluation CSVs, confusion CSVs, manifest.

    circuit_names maps dataset name -> circuit name for the manifests.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_trace_csv(result.reference.trace, os.path.join(out_dir, "reference.csv"))
    for name, dataset in result.datasets.items():
        cname = circuit_names[name]
        write_dataset(
            dataset,
            os.path.join(out_dir, "datasets", name),
            circuit_name=cname,
            pattern_bits=_pattern_bits(cname, config),
        )

    names = [n for n in result.datasets if n != "reference"]
    with open(os.path.join(out_dir, "evaluation.csv"), "w") as fh:
        fh.write("dataset,index,value,decision\n")
        for name in names:
            signal = result.signals[name]
            for i, (v, d) in enumerate(zip(signal.values, result.decisions[name])):
                fh.write(f"{name},{i},{v:.10g},{d.value}\n")
    for name in names:
        signal = result.signals[name]
        with open(os.path.join(out_dir, f"evaluation_{name}.csv"), "w") as fh:
            fh.write("index,value,decision\n")
            for i, (v, d) in enumerate(zip(signal.values, result.decisions[name])):
                fh.write(f"{i},{v:.10g},{d.value}\n")
        with open(os.path.join(out_dir, f"confusion_{name}.csv"), "w") as fh:
            fh.write("sensitivity,tp,fp,tn,fn\n")
            for s in config.detector_sensitivities:
                c = result.confusion[name][s]
                fh.write(f"{s:.10g},{c.tp},{c.fp},{c.tn},{c.fn}\n")

    with open(os.path.join(out_dir, "manifest"), "w") as fh:
        fh.write(f"seed = {config.seed}\n")
        fh.write(f"threshold = {result.threshold:.10g}\n")
        fh.write(f"sensitivity = {config.detector_sensitivity:.10g}\n")
        levels = ", ".join(f"{s:.10g}" for s in config.detector_sensitivities)
        fh.write(f"sensitivities = {levels}\n")
        fh.write(f"n_patterns = {config.detector_n_patterns}\n")
        fh.write(f"normalized = {str(config.detector_normalized).lower()}\n")
        for name in result.datasets:
            fh.write(f"dataset.{name}.circuit = {circuit_names[name]}\n")
            cond = result.datasets[name].condition
            fh.write(f"dataset.{name}.condition = {cond.kind.value}\n")
            if cond.pv_length_fraction is not None:
                fh.write(f"dataset.{name}.pv_length_fraction = {cond.pv_length_fraction:.10g}\n")
            if cond.temperature_c is not None:
                fh.write(f"dataset.{name}.temperature_c = {cond.temperature_c:.10g}\n")


def crc_circuit_names(result: ExperimentResult) -> dict[str, str]:
    return {
        name: ("crc_decoder_trojan" if name == "trojan" else "crc_decoder")
        for name in result.datasets
    }


def katan_circuit_names(result: ExperimentResult) -> dict[str, str]:
    return {
        name: ("katan32_trojan" if name == "trojan" else "katan32")
        for name in result.datasets
    }


def any_rejection(result: ExperimentResult) -> bool:
    return any(
        d is Decision.REJECT for decs in result.decisions.values() for d in decs
    )
