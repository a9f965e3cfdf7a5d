"""Transient supply-current traces synthesized from switching activity.

The current proxy is the toggle count: sample t of a trace is

  baseline + i_unit * scale(condition) * toggles[t] + gaussian noise

where toggles[t] is the Hamming distance between consecutive circuit states
(zero-padded once the run finishes). Environmental conditions rescale the
switching term only, the bias baseline is condition-independent:

  Normal / Trojan    scale = 1
  ProcessVariation   scale = 1 + k_pv * pv_length_fraction
  Temperature        scale = 1 + k_temp * (temperature_c - 20)

A Trojan that fires adds its trigger-logic toggles and a payload spike of
spike_gain * i_unit at the circuit's last step. A dormant Trojan adds
nothing, so with zero noise its trace is bit-identical to the clean
circuit's.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bits import check, parse_hex, pattern_array, random_patterns, random_space, to_hex
from .textio import checked, finite_float, parse_at, positive_finite, read_kv, read_text, reworded, write_files

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

    def parameters(self) -> dict[str, str]:
        """Manifest text of each parameter the condition takes, by name."""
        return {name: f"{value:.10g}" for name in ("pv_length_fraction", "temperature_c")
                if (value := getattr(self, name)) is not None}

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
        # the chained comparisons are False for nan
        inf = float("inf")
        if not (0 < self.dt < inf and 0 < self.i_unit < inf):
            raise ValueError("dt and i_unit must be positive and finite")
        if self.n_samples < MIN_TRACE_SAMPLES:
            raise ValueError(f"n_samples must be >= {MIN_TRACE_SAMPLES}")
        if not (0 <= self.noise_sigma < inf and 0 <= self.spike_gain < inf and 0 <= self.baseline < inf):
            raise ValueError("noise_sigma, spike_gain, baseline must be >= 0 and finite")
        if not (-inf < self.k_pv < inf and -inf < self.k_temp < inf):
            raise ValueError("k_pv and k_temp must be finite")


DEFAULT_PARAMS = TraceParams()


@dataclass(frozen=True, eq=False)
class CurrentTrace:
    """One trace on its own: a reference, or a single simulated or recorded run."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        _check_samples(samples, self.dt)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Traces of one circuit under one condition: row i of samples was
    recorded while the circuit ran patterns[i]."""

    condition: Condition
    seed: int
    circuit: str
    pattern_bits: int
    dt: float
    patterns: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or len(samples) == 0:
            raise ValueError("samples must be a nonempty (traces, samples) matrix")
        _check_samples(samples, self.dt)
        # patterns are int64, so a dataset's input is at most 63 bits wide
        if not 1 <= self.pattern_bits <= 63:
            raise ValueError(f"pattern_bits must lie in [1, 63], got {self.pattern_bits}")
        patterns = pattern_array(self.patterns, self.pattern_bits, "pattern")
        if patterns.shape != (len(samples),):
            raise ValueError(f"need one pattern of at most {self.pattern_bits} bits per trace row")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "patterns", patterns)

    def __len__(self) -> int:
        return len(self.samples)


def _check_samples(samples: np.ndarray, dt: float) -> None:
    if samples.shape[-1] < MIN_TRACE_SAMPLES:
        raise ValueError(f"trace needs >= {MIN_TRACE_SAMPLES} samples, got {samples.shape[-1]}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    positive_finite("dt", dt)


def toggle_profile(circuit, pattern: int) -> np.ndarray:
    """Per-step toggle counts of one circuit run, length circuit.n_steps."""
    return _toggle_rows(circuit, [check(pattern, circuit.input_width, "pattern")])[0]


def _toggle_rows(circuit, patterns) -> np.ndarray:
    rows = circuit.toggles(patterns)
    if rows.shape != (len(patterns), circuit.n_steps):
        raise ValueError(
            f"circuit produced toggles of shape {rows.shape} "
            f"for {len(patterns)} patterns of {circuit.n_steps} steps"
        )
    return rows


def _synthesize(circuit, patterns, rows: np.ndarray, condition: Condition, seed: int,
                params: TraceParams) -> np.ndarray:
    """(len(patterns), n_samples) currents: row i from toggles rows[i], its noise seeded with seed ^ i."""
    if rows.shape[1] > params.n_samples:
        raise ValueError(
            f"circuit takes {rows.shape[1]} steps but the trace holds {params.n_samples} samples"
        )
    scale = condition.scale(params)
    samples = np.full((len(patterns), params.n_samples), params.baseline, dtype=float)
    samples[:, : rows.shape[1]] += params.i_unit * scale * rows
    # every element sees the same float operations in the same order as a
    # trace synthesized on its own: switching term, trigger toggles, spike, noise
    fired, step = circuit.fires(patterns), circuit.n_steps - 1
    samples[fired, step] += params.i_unit * scale * circuit.trigger_toggles
    samples[fired, step] += params.spike_gain * params.i_unit
    if params.noise_sigma > 0:
        for i, row in enumerate(samples):
            row += np.random.default_rng(seed ^ i).normal(0.0, params.noise_sigma, params.n_samples)
    return samples


def simulate_trace(
    circuit,
    pattern: int,
    condition: Condition,
    seed: int = 0,
    params: TraceParams = DEFAULT_PARAMS,
) -> CurrentTrace:
    """Synthesize one trace, its noise seeded with seed."""
    profile = toggle_profile(circuit, pattern)
    samples = _synthesize(circuit, [pattern], profile[None], condition, seed, params)
    return CurrentTrace(dt=params.dt, samples=samples[0])


def draw_patterns(circuit, n_patterns: int, rng: np.random.Generator, pattern_filter=None) -> list[int]:
    """Distinct stimulus patterns, optionally restricted by a predicate that
    maps patterns to bools of their shape, as a circuit's fires does: called
    once with every candidate, ascending, in an input space of at most 2**16,
    else once per int drawn. Falls back to replacement draws only when the
    (filtered) input space is smaller than n_patterns.
    """
    if n_patterns < 1:
        raise ValueError("n_patterns must be >= 1")
    space = random_space(circuit.input_width, "input_width")
    accept = pattern_filter or (lambda p: True)
    if space <= (1 << 16):
        candidates = np.flatnonzero(np.broadcast_to(accept(np.arange(space)), space))
        if not len(candidates):
            raise ValueError("pattern filter rejects the whole input space")
        picks = rng.choice(len(candidates), size=n_patterns, replace=len(candidates) < n_patterns)
        return candidates[picks].tolist()
    # a dict keeps the accepted patterns distinct and in drawing order
    chosen: dict[int, None] = {}
    budget = 10_000 * n_patterns
    while len(chosen) < n_patterns and budget:
        budget -= 1
        p = int(random_patterns(rng, circuit.input_width))
        if p not in chosen and accept(p):
            chosen[p] = None
    if len(chosen) < n_patterns:
        raise ValueError("could not draw enough accepted patterns")
    return list(chosen)


def build_dataset(
    circuit,
    condition: Condition,
    n_patterns: int = 20,
    seed: int = 0,
    params: TraceParams = DEFAULT_PARAMS,
) -> Dataset:
    """A dataset of traces under one condition, reproducible from the seed.

    Patterns come from a generator seeded with ``seed``, and under a Trojan
    only patterns that fire the circuit's trigger are drawn, since a dormant
    Trojan is electrically identical to the clean circuit. The noise of trace
    i is seeded with ``seed ^ i`` so traces are independently reproducible.
    The circuit computes the toggle rows of all patterns in one call.
    """
    rng = np.random.default_rng(seed)
    patterns = draw_patterns(circuit, n_patterns, rng, None if condition.original else circuit.fires)
    rows = _toggle_rows(circuit, patterns)
    samples = _synthesize(circuit, patterns, rows, condition, seed, params)
    return Dataset(condition, seed, circuit.name, circuit.input_width, params.dt, patterns, samples)


# ---------------------------------------------------------------------------
# plain-text serialization (trace CSVs and dataset directories)

TRACE_HEADER = "time_ns,current_uA"
# relative tolerance on a time step: the manifest keeps dt to 10 significant
# digits, and a foreign CSV's times carry their own decimal rounding
DT_RTOL = 1e-6


@functools.lru_cache(maxsize=4)
def _time_strings(dt: float, n: int) -> list[str]:
    """The time field of each of n rows, as the writer writes it; read only."""
    # repr of a float, never "np.float64(...)": the shortest text of the exact double
    return [repr(i * float(dt)) for i in range(n)]


def trace_text(dt: float, samples: np.ndarray) -> str:
    """The trace CSV of samples at time step dt."""
    rows = "".join([f"{t},{v!r}\n" for t, v in zip(_time_strings(dt, len(samples)), samples.tolist())])
    return f"{TRACE_HEADER}\n{rows}"


# str.splitlines() breaks a line at these as well as at "\n", and float()
# strips most of them from the ends of a field
_OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _split_rows(body: str) -> tuple[list[str], int, float | None]:
    """(fields, n, step) of a body of n rows, blank lines dropped: times at fields[0:-1:2],
    currents at fields[1::2], step the one whose writer text the times are, else None.
    A body that is not rows of two fields raises ValueError."""
    # a comma after every newline: a field ends in "\n" exactly where its row
    # does, so 2n + 1 fields for n newlines, the last one empty and no "\n" in
    # an even one, are n rows of two fields (and a row of four is not two rows)
    text = body.replace("\n", "\n,")
    n = len(text) - len(body)
    fields = text.split(",")
    if len(fields) == 2 * n + 1 and not fields[-1] and not any(map(body.__contains__, _OTHER_LINE_BREAKS)):
        times = fields[0:-1:2]
        try:
            step = float(times[1])
        except (IndexError, ValueError):
            step = None
        # the chained comparison is False for nan; the writer's times hold no "\n"
        if step is not None and 0 < step < float("inf") and times == _time_strings(step, n):
            return fields, n, step
        if "\n" not in "".join(times):
            return fields, n, None
    # blank lines dropped, lines broken at newlines only, the last one ended
    rebuilt = "".join(f"{raw}\n" for raw in body.splitlines() if raw.strip())
    if rebuilt == body:
        raise ValueError("not rows of two fields")
    return _split_rows(rebuilt)


def read_trace_csv(path, dt: float | None = None, n_samples: int | None = None) -> CurrentTrace:
    """A trace CSV whose row i is at time i * step, the step being its first.

    A given dt or n_samples is the geometry the trace must have: its step
    must equal dt to DT_RTOL, and it must hold n_samples rows. Every error
    names the file and the line.
    """
    step, samples = _read_samples(path, dt, n_samples)
    return CurrentTrace(dt=step, samples=samples)


def _read_samples(path, dt: float | None, n_samples: int | None) -> tuple[float, np.ndarray]:
    """(step, samples) of a trace CSV, checked as read_trace_csv says. The
    currents are parsed in one call, the times only where they are not the
    writer's text for the file's own step."""
    header, _, body = read_text(path).partition("\n")
    if header.strip() != TRACE_HEADER:
        raise ValueError(f"{path}:1: unexpected header {header.strip()!r}")

    def error(k: int, message: str) -> ValueError:
        """message at the file line of data row k; past the end, the line after the last."""
        lines = body.splitlines()
        data = [i for i, raw in enumerate(lines) if raw.strip()]
        return ValueError(f"{path}:{(data[k] if k < len(data) else len(lines)) + 2}: {message}")

    try:
        fields, n, step = _split_rows(body)
        # np.array parses each string as float() does, its "\n" included
        samples = np.array(fields[1::2], dtype=float)
        times = np.array(fields[0:-1:2], dtype=float) if step is None else None
    except ValueError:
        # name the first data row that is not two numbers
        for k, raw in enumerate(raw for raw in body.splitlines() if raw.strip()):
            try:
                t, v = raw.split(",")
                float(t), float(v)
            except ValueError:
                raise error(k, f"expected 'time_ns,current_uA', got {raw.strip()!r}") from None
        raise
    if n < MIN_TRACE_SAMPLES:
        raise ValueError(f"{path}: {n} samples, a trace needs >= {MIN_TRACE_SAMPLES}")
    if times is not None:
        step = float(times[1] - times[0])
    if not 0 < step < float("inf"):
        raise error(1, f"time step {step!r} ns is not positive and finite")
    if dt is not None and not abs(step - dt) <= DT_RTOL * dt:
        raise error(1, f"time step {step!r} ns, expected {dt!r} ns")
    if n_samples is not None and n != n_samples:
        raise error(min(n, n_samples), f"{n} samples, expected {n_samples}")
    ok = np.isfinite(samples)
    if times is not None:
        grid = np.arange(n) * step
        ok &= np.abs(times - grid) <= DT_RTOL * grid
    k = int(ok.argmin())  # the first row that is off, if any
    if not ok[k]:
        t = k * step if times is None else float(times[k])  # the writer's times are k * step
        raise error(k, f"expected time {k} * {step!r} ns and a finite current, got {t!r},{float(samples[k])!r}")
    return step, samples


_trace_name = "trace_{:03d}.csv".format


def _manifest_text(dataset: Dataset) -> str:
    condition, bits = dataset.condition, dataset.pattern_bits
    lines = [f"condition.kind = {condition.kind.value}",
             *(f"condition.{name} = {text}" for name, text in condition.parameters().items()),
             f"seed = {dataset.seed}", f"n_traces = {len(dataset)}", f"dt_ns = {dataset.dt:.10g}",
             f"pattern_bits = {bits}", *([f"circuit = {dataset.circuit}"] if dataset.circuit else [])]
    for i, pattern in enumerate(dataset.patterns):
        lines += [f"trace.{i}.file = {_trace_name(i)}", f"trace.{i}.pattern = {to_hex(int(pattern), bits)}"]
    return "".join(f"{line}\n" for line in lines)


def write_datasets(dirs, extra=()) -> None:
    """Persist each dataset of dirs, a directory -> Dataset map, as that
    directory, made if missing: a ``manifest`` plus one CSV per trace.

    One write_files call writes every dataset's trace files, then the
    (path, render) items of extra, then the manifests, so a trace file's
    error comes before a manifest's. Each trace_<digits>.csv of a directory
    that its manifest does not list is removed afterwards.
    """
    traces, manifests = [], []
    for dirpath, dataset in dirs.items():
        os.makedirs(dirpath, exist_ok=True)
        traces += [(os.path.join(dirpath, _trace_name(i)), functools.partial(trace_text, dataset.dt, row))
                   for i, row in enumerate(dataset.samples)]
        manifests.append((os.path.join(dirpath, "manifest"), functools.partial(_manifest_text, dataset)))
    write_files([*traces, *extra, *manifests])
    for dirpath, dataset in dirs.items():
        for name in set(os.listdir(dirpath)) - {_trace_name(i) for i in range(len(dataset))}:
            if re.fullmatch(r"trace_[0-9]+\.csv", name):
                os.remove(os.path.join(dirpath, name))


# manifest key -> parser; the per-trace keys trace.<i>.file and
# trace.<i>.pattern are kept as text until n_traces and pattern_bits are known
MANIFEST_KEYS = {
    "condition.kind": ConditionKind,
    "condition.pv_length_fraction": finite_float,
    "condition.temperature_c": finite_float,
    "seed": int,
    "n_traces": checked(int, lambda n: n >= 1, "must be >= 1"),
    "dt_ns": checked(finite_float, lambda dt: dt > 0, "must be positive"),
    "pattern_bits": checked(int, lambda bits: 1 <= bits <= 63, "must lie in [1, 63]"),
    "circuit": str,
}


def read_dataset(dirpath) -> Dataset:
    """A dataset directory; every trace CSV must step by the manifest's dt_ns
    and hold as many samples as the first."""
    path = os.path.join(dirpath, "manifest")
    kv = read_kv(read_text(path).split("\n"), path,
                 lambda key: str if key.startswith("trace.") else MANIFEST_KEYS.get(key))
    # keys are popped as they are used, so any key left over is unknown
    try:
        kind_line, kind = kv.pop("condition.kind")
        n, seed, dt = (kv.pop(key)[1] for key in ("n_traces", "seed", "dt_ns"))
        files = [kv.pop(f"trace.{i}.file") for i in range(n)]
        patterns = [kv.pop(f"trace.{i}.pattern") for i in range(n)]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    bits = kv.pop("pattern_bits", (None, 32))[1]
    circuit = kv.pop("circuit", (None, ""))[1]
    pv = kv.pop("condition.pv_length_fraction", (None, None))[1]
    temperature = kv.pop("condition.temperature_c", (None, None))[1]
    for key, (ln, _) in kv.items():
        raise ValueError(f"{path}:{ln}: unknown key {key!r}, n_traces is {n}")
    parse_pattern = functools.partial(parse_hex, width=bits)
    patterns = [parse_at(path, ln, f"trace.{i}.pattern", parse_pattern, text) for i, (ln, text) in enumerate(patterns)]
    first_use: dict[str, int] = {}
    for i, (ln, name) in enumerate(files):
        if name in ("", ".", "..") or name != os.path.basename(name):
            raise ValueError(f"{path}:{ln}: bad value for trace.{i}.file: {name!r} is not a file name in the directory")
        if name in first_use:
            raise ValueError(f"{path}:{ln}: bad value for trace.{i}.file: {name!r} is also trace.{first_use[name]}.file")
        first_use[name] = i
    condition = reworded(f"{path}:{kind_line}", Condition, kind, pv_length_fraction=pv, temperature_c=temperature)
    rows: list[np.ndarray] = []
    for _, fname in files:
        rows.append(_read_samples(os.path.join(dirpath, fname), dt, len(rows[0]) if rows else None)[1])
    return Dataset(condition, seed, circuit, bits, dt, patterns, np.array(rows))
