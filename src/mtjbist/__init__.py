"""Behavioral models for MTJ-based self-test, tampering, and current-signature
Trojan identification.

The package covers the full loop: an MTJ cell array with a thickness-dependent
switching-delay model, a CRC-protected BIST harness that turns slowed-down
cells into transition-delay faults, toggle-count current traces for a CRC
receiver and the KATAN-32 cipher, parametric Trojans for both, and a
cross-correlation detector that separates infected devices from process and
temperature variation.

The package root re-exports what the command line, the demos and the README
use; everything else stays importable from its module.
"""

from .bist import (
    AttackSpec,
    ClockConfig,
    SweepResult,
    detection_coverage,
    frequency_sweep,
    inject_attack,
    run_bist,
)
from .bits import parse_hex, to_hex
from .circuits import CrcDecoderCircuit, KatanCircuit, TrojanCrcDecoderCircuit
from .config import ExperimentConfig, load_config
from .crc import CrcConfig
from .detector import (
    DetectorConfig,
    classify,
    cross_correlation,
    evaluation_signal,
    relational_detector,
    score,
    threshold_from_reference,
)
from .experiments import (
    ExperimentResult,
    run_crc_identification,
    run_katan_identification,
    write_experiment,
)
from .katan import core_states, decrypt32, encrypt32, encrypt32_batch
from .mtj import (
    MtjCell,
    MtjDelayModel,
    apply_bit,
    is_malicious,
    load_array,
    nominal_array,
    save_array,
    sense,
    switching_delay,
)
from .traces import (
    NORMAL,
    TROJAN,
    Condition,
    ConditionKind,
    CurrentTrace,
    Dataset,
    TraceParams,
    build_dataset,
    read_dataset,
    read_trace_csv,
    simulate_trace,
    toggle_profile,
    write_datasets,
)
from .trojan import (
    PAYLOAD_MASK_32,
    TrojanSpec,
    crc_trigger,
    encrypt32_trojan,
    katan_trigger,
)

__version__ = "0.1.0"
