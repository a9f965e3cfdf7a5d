"""Run configuration: a flat key = value text format with dotted keys.

Example file:

    # device under test
    seed = 7
    clock.half_period_ns = 3.0
    crc.poly = 07
    detector.sensitivities = 0.05, 0.10, 0.20

Every key has a default, so a config containing only a seed (or nothing at
all) is runnable. Unknown and repeated keys are rejected to catch typos, and
each value is parsed when the file is read (see ``textio``). Most keys set
one field of a domain object the config holds (``clock.sample_edge`` sets
``config.clock.sample_edge``). Each object is built once from its keys and
checks itself; its error names the last line that set one of its values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .bist import ClockConfig
from .bits import parse_hex
from .crc import CrcConfig
from .detector import DEFAULT_SENSITIVITY, SENSITIVITY_LEVELS
from .mtj import MtjDelayModel
from .textio import checked, finite_float, list_of, read_kv, read_text, reworded
from .traces import TraceParams
from .trojan import TrojanSpec


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_hex = partial(int, base=16)
_positive = checked(finite_float, lambda s: s > 0, "expected a positive number")


@dataclass
class ExperimentConfig:
    seed: int = 1
    out: str = "out"
    clock: ClockConfig = ClockConfig()
    crc: CrcConfig = CrcConfig()
    crc_reference_pattern: int = 0xA5
    mtj: MtjDelayModel = MtjDelayModel()
    mtj_array_path: str = ""                 # empty means a fresh nominal array
    trace: TraceParams = TraceParams()
    detector_sensitivity: float = DEFAULT_SENSITIVITY
    detector_sensitivities: tuple[float, ...] = SENSITIVITY_LEVELS
    detector_normalized: bool = False
    detector_n_patterns: int = 20
    katan_key: int = 0x9E3779B97F4A7C15F39D
    katan_reference_pattern: int = 0xA5A5A5A5
    katan_trojan: TrojanSpec = TrojanSpec()

    def __post_init__(self):
        width = self.crc.data_width
        if not 0 <= self.crc_reference_pattern < 1 << width:
            raise ValueError(f"crc.reference_pattern {self.crc_reference_pattern:x} does not fit in "
                             f"crc.data_width = {width} bits")


# dotted config key -> (attribute or attribute.field, parser)
CONFIG_KEYS = {
    "seed": ("seed", checked(int, lambda s: s >= 0, "expected a non-negative integer")),
    "out": ("out", str),
    "clock.half_period_ns": ("clock.half_period", finite_float),
    "clock.launch_offset_cycles": ("clock.launch_offset_cycles", finite_float),
    "clock.sample_edge": ("clock.sample_edge", int),
    "crc.poly": ("crc.poly", _hex),
    "crc.data_width": ("crc.data_width", int),
    "crc.check_width": ("crc.check_width", int),
    "crc.receiver_init": ("crc.receiver_init", lambda text: _hex(text) if text else None),
    "crc.reference_pattern": ("crc_reference_pattern", _hex),
    "mtj.tm_min": ("mtj.tm_min", finite_float),
    "mtj.tm_max": ("mtj.tm_max", finite_float),
    "mtj.delay01_min_ns": ("mtj.delay01_min", finite_float),
    "mtj.delay01_max_ns": ("mtj.delay01_max", finite_float),
    "mtj.delay10_min_ns": ("mtj.delay10_min", finite_float),
    "mtj.delay10_max_ns": ("mtj.delay10_max", finite_float),
    "mtj.tolerance": ("mtj.tm_tolerance", finite_float),
    "mtj.array": ("mtj_array_path", str),
    "trace.dt_ns": ("trace.dt", finite_float),
    "trace.n_samples": ("trace.n_samples", int),
    "trace.i_unit_ua": ("trace.i_unit", finite_float),
    "trace.baseline_ua": ("trace.baseline", finite_float),
    "trace.noise_sigma_ua": ("trace.noise_sigma", finite_float),
    "trace.spike_gain": ("trace.spike_gain", finite_float),
    "trace.k_pv": ("trace.k_pv", finite_float),
    "trace.k_temp": ("trace.k_temp", finite_float),
    "detector.sensitivity": ("detector_sensitivity", _positive),
    "detector.sensitivities": ("detector_sensitivities", checked(list_of(_positive), bool,
                                                                 "expected at least one level")),
    "detector.normalized": ("detector_normalized", _parse_bool),
    "detector.n_patterns": ("detector_n_patterns", checked(int, lambda n: n >= 1, "expected at least 1")),
    "katan.key": ("katan_key", partial(parse_hex, width=80)),
    "katan.reference_pattern": ("katan_reference_pattern", partial(parse_hex, width=32)),
    "trojan.key_bits": ("katan_trojan.trigger_key_bits", list_of(int)),
    "trojan.pt_bits": ("katan_trojan.trigger_pt_bits", list_of(int)),
}
_CONFIG_PARSERS = {key: parser for key, (_, parser) in CONFIG_KEYS.items()}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    values = read_kv(text.split("\n"), source, _CONFIG_PARSERS.get)
    flat, held, last_line = {}, {}, {}
    for key, (ln, value) in values.items():
        attr, _, name = CONFIG_KEYS[key][0].partition(".")
        if name:
            held.setdefault(attr, {})[name] = value
            last_line[attr] = ln
        else:
            flat[attr] = value
    defaults = ExperimentConfig()
    for attr, changes in held.items():
        flat[attr] = reworded(f"{source}:{last_line[attr]}", replace, getattr(defaults, attr), **changes)
    pattern_line = max((values[k][0] for k in ("crc.data_width", "crc.reference_pattern") if k in values), default=0)
    return reworded(f"{source}:{pattern_line}", ExperimentConfig, **flat)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_text(path), source=str(path))
