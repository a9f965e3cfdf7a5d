"""Transient supply-current traces synthesized from switching activity.

The current proxy is the toggle count: sample t of a trace is

  baseline + i_unit * scale(condition) * toggles[t] + gaussian noise

where toggles[t] is the Hamming distance between consecutive circuit states
(zero-padded once the run finishes). Environmental conditions rescale the
switching term only, the bias baseline is condition-independent:

  Normal / Trojan    scale = 1
  ProcessVariation   scale = 1 + k_pv * pv_length_fraction
  Temperature        scale = 1 + k_temp * (temperature_c - 20)

An active Trojan adds its trigger-logic toggles and a payload spike of
spike_gain * i_unit at each activation step. A dormant Trojan adds nothing,
so with zero noise its trace is bit-identical to the clean circuit's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bits import parse_hex, to_hex

MIN_TRACE_SAMPLES = 100


class ConditionKind(Enum):
    NORMAL = "normal"
    PROCESS_VARIATION = "process_variation"
    TEMPERATURE = "temperature"
    TROJAN = "trojan"


PV_FRACTION_RANGE = (-0.2, 0.2)
TEMPERATURE_RANGE_C = (20.0, 120.0)


@dataclass(frozen=True)
class Condition:
    """Operating condition of the device a dataset was collected from."""

    kind: ConditionKind
    pv_length_fraction: float | None = None
    temperature_c: float | None = None

    def __post_init__(self):
        if self.kind is ConditionKind.PROCESS_VARIATION:
            if self.pv_length_fraction is None or self.temperature_c is not None:
                raise ValueError("process variation takes pv_length_fraction only")
            lo, hi = PV_FRACTION_RANGE
            if not lo <= self.pv_length_fraction <= hi:
                raise ValueError(f"pv_length_fraction must lie in [{lo}, {hi}]")
        elif self.kind is ConditionKind.TEMPERATURE:
            if self.temperature_c is None or self.pv_length_fraction is not None:
                raise ValueError("temperature takes temperature_c only")
            lo, hi = TEMPERATURE_RANGE_C
            if not lo <= self.temperature_c <= hi:
                raise ValueError(f"temperature_c must lie in [{lo}, {hi}]")
        else:
            if self.pv_length_fraction is not None or self.temperature_c is not None:
                raise ValueError(f"{self.kind.value} takes no parameters")

    @property
    def original(self) -> bool:
        """True for every condition except an inserted Trojan."""
        return self.kind is not ConditionKind.TROJAN

    def scale(self, params: "TraceParams") -> float:
        if self.kind is ConditionKind.PROCESS_VARIATION:
            return 1.0 + params.k_pv * self.pv_length_fraction
        if self.kind is ConditionKind.TEMPERATURE:
            return 1.0 + params.k_temp * (self.temperature_c - 20.0)
        return 1.0


NORMAL = Condition(ConditionKind.NORMAL)
TROJAN = Condition(ConditionKind.TROJAN)


@dataclass(frozen=True)
class TraceParams:
    """Knobs of the current synthesis, amplitudes in uA and times in ns."""

    dt: float = 0.1
    n_samples: int = 256
    i_unit: float = 1.0
    baseline: float = 4.0
    noise_sigma: float = 0.05
    spike_gain: float = 4.0e4
    k_pv: float = 0.5
    k_temp: float = 0.002

    def __post_init__(self):
        if self.dt <= 0 or self.i_unit <= 0:
            raise ValueError("dt and i_unit must be positive")
        if self.n_samples < MIN_TRACE_SAMPLES:
            raise ValueError(f"n_samples must be >= {MIN_TRACE_SAMPLES}")
        if self.noise_sigma < 0 or self.spike_gain < 0 or self.baseline < 0:
            raise ValueError("noise_sigma, spike_gain, baseline must be >= 0")


DEFAULT_PARAMS = TraceParams()


@dataclass(frozen=True, eq=False)
class CurrentTrace:
    dt: float
    samples: np.ndarray
    pattern_id: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if len(samples) < MIN_TRACE_SAMPLES:
            raise ValueError(f"trace needs >= {MIN_TRACE_SAMPLES} samples, got {len(samples)}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.dt


@dataclass(frozen=True, eq=False)
class Dataset:
    condition: Condition
    traces: tuple[CurrentTrace, ...]
    seed: int

    def __post_init__(self):
        if not self.traces:
            raise ValueError("dataset must hold at least one trace")
        n = len(self.traces[0].samples)
        dt = self.traces[0].dt
        if any(len(t.samples) != n or t.dt != dt for t in self.traces):
            raise ValueError("all traces of a dataset must share dt and length")

    def __len__(self) -> int:
        return len(self.traces)


def toggle_profile(circuit, pattern: int) -> np.ndarray:
    """Per-step toggle counts of one circuit run, length circuit.n_steps."""
    if pattern < 0 or pattern >> circuit.input_width:
        raise ValueError(f"pattern {pattern:#x} does not fit in {circuit.input_width} bits")
    return _toggle_rows(circuit, [pattern])[0]


def _toggle_rows(circuit, patterns) -> np.ndarray:
    rows = circuit.toggles(patterns)
    if rows.shape != (len(patterns), circuit.n_steps):
        raise ValueError(
            f"circuit produced toggles of shape {rows.shape} "
            f"for {len(patterns)} patterns of {circuit.n_steps} steps"
        )
    return rows


def _synthesize(circuit, pattern: int, profile: np.ndarray, condition: Condition,
                noise_sigma: float | None, seed: int, params: TraceParams) -> CurrentTrace:
    sigma = params.noise_sigma if noise_sigma is None else float(noise_sigma)
    if sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if len(profile) > params.n_samples:
        raise ValueError(
            f"circuit takes {len(profile)} steps but the trace holds {params.n_samples} samples"
        )
    scale = condition.scale(params)
    samples = np.full(params.n_samples, params.baseline, dtype=float)
    samples[: len(profile)] += params.i_unit * scale * profile
    for step in circuit.activation_steps(pattern):
        samples[step] += params.i_unit * scale * circuit.trigger_toggles
        samples[step] += params.spike_gain * params.i_unit
    if sigma > 0:
        samples += np.random.default_rng(seed).normal(0.0, sigma, params.n_samples)
    return CurrentTrace(dt=params.dt, samples=samples, pattern_id=pattern)


def simulate_trace(
    circuit,
    pattern: int,
    condition: Condition,
    noise_sigma: float | None = None,
    seed: int = 0,
    params: TraceParams = DEFAULT_PARAMS,
) -> CurrentTrace:
    """Synthesize one trace; noise_sigma=None takes the params default."""
    profile = toggle_profile(circuit, pattern)
    return _synthesize(circuit, pattern, profile, condition, noise_sigma, seed, params)


def draw_patterns(circuit, n_patterns: int, rng: np.random.Generator, pattern_filter=None) -> list[int]:
    """Distinct stimulus patterns, optionally restricted by a predicate.

    Falls back to replacement draws only when the (filtered) input space is
    smaller than n_patterns.
    """
    if n_patterns < 1:
        raise ValueError("n_patterns must be >= 1")
    space = 1 << circuit.input_width
    accept = pattern_filter or (lambda p: True)
    if space <= (1 << 16):
        candidates = [p for p in range(space) if accept(p)]
        if not candidates:
            raise ValueError("pattern filter rejects the whole input space")
        if len(candidates) >= n_patterns:
            picks = rng.choice(len(candidates), size=n_patterns, replace=False)
        else:
            picks = rng.choice(len(candidates), size=n_patterns, replace=True)
        return [candidates[int(i)] for i in picks]
    chosen: list[int] = []
    seen: set[int] = set()
    budget = 10_000 * n_patterns
    while len(chosen) < n_patterns and budget:
        budget -= 1
        p = int(rng.integers(0, space))
        if p in seen or not accept(p):
            continue
        seen.add(p)
        chosen.append(p)
    if len(chosen) < n_patterns:
        raise ValueError("could not draw enough accepted patterns")
    return chosen


def build_dataset(
    circuit,
    condition: Condition,
    n_patterns: int = 20,
    seed: int = 0,
    noise_sigma: float | None = None,
    params: TraceParams = DEFAULT_PARAMS,
    pattern_filter=None,
) -> Dataset:
    """A dataset of traces under one condition, reproducible from the seed.

    Patterns come from a generator seeded with ``seed``; the noise of trace i
    is seeded with ``seed ^ i`` so traces are independently reproducible.
    The circuit computes the toggle rows of all patterns in one call.
    """
    rng = np.random.default_rng(seed)
    patterns = draw_patterns(circuit, n_patterns, rng, pattern_filter)
    profiles = _toggle_rows(circuit, patterns)
    traces = tuple(
        _synthesize(circuit, p, profile, condition, noise_sigma, seed ^ i, params)
        for i, (p, profile) in enumerate(zip(patterns, profiles))
    )
    return Dataset(condition=condition, traces=traces, seed=seed)


# ---------------------------------------------------------------------------
# plain-text serialization (trace CSVs and dataset directories)

def write_trace_csv(trace: CurrentTrace, path) -> None:
    # repr floats: shortest form that parses back to the exact double
    with open(path, "w") as fh:
        fh.write("time_ns,current_uA\n")
        for i, v in enumerate(trace.samples):
            fh.write(f"{i * trace.dt!r},{float(v)!r}\n")


def read_trace_csv(path, pattern_id: int = 0) -> CurrentTrace:
    times: list[float] = []
    values: list[float] = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "time_ns,current_uA":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for raw in fh:
            if not raw.strip():
                continue
            t, v = raw.split(",")
            times.append(float(t))
            values.append(float(v))
    if len(times) < 2:
        raise ValueError(f"{path}: too few samples")
    dt = times[1] - times[0]
    return CurrentTrace(dt=dt, samples=np.array(values), pattern_id=pattern_id)


def _write_kv(fh, key: str, value) -> None:
    fh.write(f"{key} = {value}\n")


def write_dataset(dataset: Dataset, dirpath, circuit_name: str = "", pattern_bits: int = 32) -> None:
    """Persist a dataset as a directory: a ``manifest`` plus one CSV per trace."""
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "manifest"), "w") as fh:
        _write_kv(fh, "condition.kind", dataset.condition.kind.value)
        if dataset.condition.pv_length_fraction is not None:
            _write_kv(fh, "condition.pv_length_fraction", f"{dataset.condition.pv_length_fraction:.10g}")
        if dataset.condition.temperature_c is not None:
            _write_kv(fh, "condition.temperature_c", f"{dataset.condition.temperature_c:.10g}")
        _write_kv(fh, "seed", dataset.seed)
        _write_kv(fh, "n_traces", len(dataset))
        _write_kv(fh, "dt_ns", f"{dataset.traces[0].dt:.10g}")
        _write_kv(fh, "pattern_bits", pattern_bits)
        if circuit_name:
            _write_kv(fh, "circuit", circuit_name)
        for i, trace in enumerate(dataset.traces):
            _write_kv(fh, f"trace.{i}.file", f"trace_{i:03d}.csv")
            _write_kv(fh, f"trace.{i}.pattern", to_hex(trace.pattern_id, pattern_bits))
    for i, trace in enumerate(dataset.traces):
        write_trace_csv(trace, os.path.join(dirpath, f"trace_{i:03d}.csv"))


def read_manifest(dirpath) -> dict[str, str]:
    path = os.path.join(dirpath, "manifest")
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def read_dataset(dirpath) -> Dataset:
    kv = read_manifest(dirpath)
    try:
        kind = ConditionKind(kv["condition.kind"])
        n = int(kv["n_traces"])
        seed = int(kv["seed"])
        entries = [(kv[f"trace.{i}.file"], kv[f"trace.{i}.pattern"]) for i in range(n)]
    except KeyError as exc:
        path = os.path.join(dirpath, "manifest")
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    condition = Condition(
        kind,
        pv_length_fraction=float(kv["condition.pv_length_fraction"]) if "condition.pv_length_fraction" in kv else None,
        temperature_c=float(kv["condition.temperature_c"]) if "condition.temperature_c" in kv else None,
    )
    bits = int(kv.get("pattern_bits", 32))
    traces = []
    for fname, pattern_hex in entries:
        pattern = parse_hex(pattern_hex, bits)
        traces.append(read_trace_csv(os.path.join(dirpath, fname), pattern_id=pattern))
    return Dataset(condition=condition, traces=tuple(traces), seed=seed)
