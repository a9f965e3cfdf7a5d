"""Run configuration: a flat key = value text format with dotted keys.

Example file:

    # device under test
    seed = 7
    clock.half_period_ns = 3.0
    crc.poly = 07
    detector.sensitivities = 0.05, 0.10, 0.20

Every key has a default, so a config containing only a seed (or nothing at
all) is runnable. Unknown and repeated keys are rejected to catch typos, and
each value is parsed when the file is read (see ``textio``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .bist import ClockConfig
from .bits import parse_hex
from .crc import CrcConfig
from .mtj import MtjDelayModel
from .textio import checked, finite_float, read_kv, split_list
from .traces import TraceParams
from .trojan import TrojanSpec, crc_trojan_spec, katan_trojan_spec


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _hex(width: int = 0):
    """A parser that keeps hex text once it parses as a width-bit value. The
    CRC widths depend on other keys, so width 0 checks the syntax only."""
    def check(text: str) -> str:
        parse_hex(text, width) if width else int(text, 16)
        return text
    return check


def _bit_positions(text: str) -> tuple[int, ...]:
    return split_list(text, int)


@dataclass
class ExperimentConfig:
    seed: int = 1
    out: str = "out"

    clock_half_period_ns: float = 3.0
    clock_launch_offset_cycles: float = 1.25
    clock_sample_edge: int = 3

    crc_poly_hex: str = "07"
    crc_data_width: int = 8
    crc_check_width: int = 8
    crc_receiver_init_hex: str = ""          # empty means all-ones
    crc_reference_pattern_hex: str = "a5"

    mtj_tm_min: float = 0.8
    mtj_tm_max: float = 1.3
    mtj_delay01_min_ns: float = 0.0
    mtj_delay01_max_ns: float = 2.26
    mtj_delay10_min_ns: float = 0.0
    mtj_delay10_max_ns: float = 1.35
    mtj_tolerance: float = 0.10
    mtj_array_path: str = ""                 # empty means a fresh nominal array

    trace_dt_ns: float = 0.1
    trace_n_samples: int = 256
    trace_i_unit_ua: float = 1.0
    trace_baseline_ua: float = 4.0
    trace_noise_sigma_ua: float = 0.05
    trace_spike_gain: float = 4.0e4
    trace_k_pv: float = 0.5
    trace_k_temp: float = 0.002

    detector_sensitivity: float = 0.10
    detector_sensitivities: tuple[float, ...] = (0.05, 0.10, 0.20)
    detector_normalized: bool = False
    detector_n_patterns: int = 20

    katan_key_hex: str = "9e3779b97f4a7c15f39d"
    katan_reference_pattern_hex: str = "a5a5a5a5"

    trojan_key_bits: tuple[int, ...] = tuple(range(8))
    trojan_pt_bits: tuple[int, ...] = tuple(range(8))

    # ---- domain object builders -------------------------------------------

    def clock(self, half_period: float | None = None) -> ClockConfig:
        return ClockConfig(
            half_period=self.clock_half_period_ns if half_period is None else half_period,
            launch_offset_cycles=self.clock_launch_offset_cycles,
            sample_edge=self.clock_sample_edge,
        )

    def crc(self) -> CrcConfig:
        init = None
        if self.crc_receiver_init_hex:
            init = parse_hex(self.crc_receiver_init_hex, self.crc_check_width)
        return CrcConfig(
            poly=int(self.crc_poly_hex, 16),
            check_width=self.crc_check_width,
            data_width=self.crc_data_width,
            receiver_init=init,
        )

    def delay_model(self) -> MtjDelayModel:
        return MtjDelayModel(
            tm_min=self.mtj_tm_min,
            tm_max=self.mtj_tm_max,
            delay01_min=self.mtj_delay01_min_ns,
            delay01_max=self.mtj_delay01_max_ns,
            delay10_min=self.mtj_delay10_min_ns,
            delay10_max=self.mtj_delay10_max_ns,
            tm_tolerance=self.mtj_tolerance,
        )

    def trace_params(self) -> TraceParams:
        return TraceParams(
            dt=self.trace_dt_ns,
            n_samples=self.trace_n_samples,
            i_unit=self.trace_i_unit_ua,
            baseline=self.trace_baseline_ua,
            noise_sigma=self.trace_noise_sigma_ua,
            spike_gain=self.trace_spike_gain,
            k_pv=self.trace_k_pv,
            k_temp=self.trace_k_temp,
        )

    def crc_trojan(self) -> TrojanSpec:
        return crc_trojan_spec()

    def katan_trojan(self) -> TrojanSpec:
        return katan_trojan_spec(self.trojan_key_bits, self.trojan_pt_bits)

    @property
    def katan_key(self) -> int:
        return parse_hex(self.katan_key_hex, 80)

    @property
    def crc_reference_pattern(self) -> int:
        return parse_hex(self.crc_reference_pattern_hex, self.crc_data_width)

    @property
    def katan_reference_pattern(self) -> int:
        return parse_hex(self.katan_reference_pattern_hex, 32)


# dotted config key -> (attribute, parser)
CONFIG_KEYS = {
    "seed": ("seed", int),
    "out": ("out", str),
    "clock.half_period_ns": ("clock_half_period_ns", finite_float),
    "clock.launch_offset_cycles": ("clock_launch_offset_cycles", finite_float),
    "clock.sample_edge": ("clock_sample_edge", int),
    "crc.poly": ("crc_poly_hex", _hex()),
    "crc.data_width": ("crc_data_width", int),
    "crc.check_width": ("crc_check_width", int),
    "crc.receiver_init": ("crc_receiver_init_hex", lambda text: text and _hex()(text)),
    "crc.reference_pattern": ("crc_reference_pattern_hex", _hex()),
    "mtj.tm_min": ("mtj_tm_min", finite_float),
    "mtj.tm_max": ("mtj_tm_max", finite_float),
    "mtj.delay01_min_ns": ("mtj_delay01_min_ns", finite_float),
    "mtj.delay01_max_ns": ("mtj_delay01_max_ns", finite_float),
    "mtj.delay10_min_ns": ("mtj_delay10_min_ns", finite_float),
    "mtj.delay10_max_ns": ("mtj_delay10_max_ns", finite_float),
    "mtj.tolerance": ("mtj_tolerance", finite_float),
    "mtj.array": ("mtj_array_path", str),
    "trace.dt_ns": ("trace_dt_ns", finite_float),
    "trace.n_samples": ("trace_n_samples", int),
    "trace.i_unit_ua": ("trace_i_unit_ua", finite_float),
    "trace.baseline_ua": ("trace_baseline_ua", finite_float),
    "trace.noise_sigma_ua": ("trace_noise_sigma_ua", finite_float),
    "trace.spike_gain": ("trace_spike_gain", finite_float),
    "trace.k_pv": ("trace_k_pv", finite_float),
    "trace.k_temp": ("trace_k_temp", finite_float),
    "detector.sensitivity": ("detector_sensitivity", finite_float),
    "detector.sensitivities": ("detector_sensitivities", checked(lambda text: split_list(text, finite_float), bool,
                                                                 "expected at least one level")),
    "detector.normalized": ("detector_normalized", _parse_bool),
    "detector.n_patterns": ("detector_n_patterns", int),
    "katan.key": ("katan_key_hex", _hex(80)),
    "katan.reference_pattern": ("katan_reference_pattern_hex", _hex(32)),
    "trojan.key_bits": ("trojan_key_bits", _bit_positions),
    "trojan.pt_bits": ("trojan_pt_bits", _bit_positions),
}

assert {attr for attr, _ in CONFIG_KEYS.values()} == {f.name for f in fields(ExperimentConfig)}
_CONFIG_PARSERS = {key: parser for key, (_, parser) in CONFIG_KEYS.items()}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    config = ExperimentConfig()
    for key, (_, value) in read_kv(text.splitlines(), source, _CONFIG_PARSERS.get).items():
        setattr(config, CONFIG_KEYS[key][0], value)
    return config


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))
