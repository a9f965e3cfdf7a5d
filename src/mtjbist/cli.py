"""Command-line front end.

Exit codes: 0 for a clean run, 2 when tampering or a Trojan was detected
(an error flag fired or a trace was rejected), 1 on usage or config errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import bist, experiments, katan, mtj, trojan
from .bits import parse_hex, random_patterns, to_hex
from .config import CONFIG_KEYS, ExperimentConfig, load_config
from .detector import (
    DetectorConfig,
    classify,
    evaluation_signal,
    score,
    threshold_from_reference,
)
from .textio import list_of, positive_finite, read_text, reworded, split_list, write_text
from .traces import (
    NORMAL,
    TROJAN,
    Condition,
    ConditionKind,
    build_dataset,
    read_dataset,
    read_trace_csv,
    write_datasets,
)


class _Parser(argparse.ArgumentParser):
    # exit code 2 means a detection here, but argparse exits 2 on bad
    # usage, so a parse error is a ValueError, which main reports with exit 1
    def error(self, message):
        if message.endswith("expected one argument"):  # argparse takes a value such as -1,2 for an option
            option = message.removeprefix("argument ").partition(":")[0]
            message += f"; a value that starts with '-' is written {option}=VALUE"
        raise ValueError(f"{self.prog}: {message}")


def _arg_type(parse):
    """argparse type= for parse: its ValueError becomes the option's usage error."""
    def arg(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return arg


_seed = _arg_type(CONFIG_KEYS["seed"][1])
_key = _arg_type(functools.partial(parse_hex, width=80))
_block = _arg_type(functools.partial(parse_hex, width=32))


def _positive(name: str):
    """A parser of one positive, finite float, its error naming name."""
    return lambda text: positive_finite(name, float(text))


def _half_period(clock: bist.ClockConfig):
    """A parser of a half period, checked by ClockConfig as clock's."""
    return lambda text: replace(clock, half_period=float(text)).half_period


# one parser serves every main call in a process: parse_args fills a fresh
# Namespace and --config/--seed/--out default to SUPPRESS
@functools.cache
def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="flat key = value config file")
    common.add_argument("--seed", type=_seed, default=argparse.SUPPRESS, help="run seed (overrides config)")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory (overrides config)")

    root = _Parser(prog="mtjbist", parents=[common], description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p_bist = sub.add_parser("bist", help="self-test runs on the MTJ array", parents=[common])
    bist_sub = p_bist.add_subparsers(dest="bist_command", required=True)
    p_run = bist_sub.add_parser("run", parents=[common], help="single launch/sample round")
    p_run.add_argument("--pattern", help="data pattern, hex (default: config reference pattern)")
    p_run.add_argument("--array", help="MTJ array table (default: config mtj.array or nominal)")
    p_run.add_argument("--half-period", help="clock half period in ns")
    p_run.set_defaults(func=cmd_bist_run)
    p_sweep = bist_sub.add_parser("sweep", parents=[common], help="pattern x frequency grid")
    p_sweep.add_argument("--patterns", help="comma-separated hex patterns")
    p_sweep.add_argument("--n-random", type=int, default=16, help="random patterns when --patterns absent")
    p_sweep.add_argument("--half-periods", help="comma-separated half periods in ns")
    p_sweep.add_argument("--array", help="MTJ array table")
    p_sweep.set_defaults(func=cmd_bist_sweep)

    p_attack = sub.add_parser("attack", help="tamper with an array description", parents=[common])
    attack_sub = p_attack.add_subparsers(dest="attack_command", required=True)
    p_inject = attack_sub.add_parser("inject", parents=[common], help="thicken selected free layers")
    p_inject.add_argument("--array", required=True, help="input array table")
    p_inject.add_argument("--out-array", required=True, help="where to write the tampered table")
    p_inject.add_argument("--targets", help="comma-separated cell indices")
    p_inject.add_argument("--multiplier", default="1.3", help="thickness multiplier for --targets")
    p_inject.add_argument("--random", type=int, metavar="N", help="instead tamper N random cells")
    p_inject.add_argument("--multiplier-range", default="1.2,1.5", help="lo,hi for --random")
    p_inject.set_defaults(func=cmd_attack_inject)

    p_trace = sub.add_parser("trace", help="current-trace synthesis", parents=[common])
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_gen = trace_sub.add_parser("gen", parents=[common], help="generate a trace dataset directory")
    p_gen.add_argument("--circuit", choices=["crc", "katan"], default="crc")
    p_gen.add_argument(
        "--condition",
        choices=[k.value for k in ConditionKind],
        default="normal",
    )
    p_gen.add_argument("--pv-fraction", type=float, help="transistor length deviation, e.g. 0.1")
    p_gen.add_argument("--temperature", type=float, help="die temperature in Celsius")
    p_gen.add_argument("--n", type=int, help="traces per dataset (default: config)")
    p_gen.add_argument("--name", help="dataset directory name (default: <circuit>_<condition>)")
    p_gen.set_defaults(func=cmd_trace_gen)

    p_detect = sub.add_parser("detect", help="relational detector", parents=[common])
    detect_sub = p_detect.add_subparsers(dest="detect_command", required=True)
    p_eval = detect_sub.add_parser("eval", parents=[common], help="evaluate a dataset against a reference trace")
    p_eval.add_argument("dataset", help="dataset directory (manifest + trace CSVs)")
    p_eval.add_argument("reference", help="reference trace CSV")
    p_eval.add_argument("--threshold", help="acceptance threshold (default: mean of this evaluation signal)")
    p_eval.add_argument("--sensitivity", help="relative band half-width (default: config)")
    p_eval.set_defaults(func=cmd_detect_eval)
    p_score = detect_sub.add_parser("score", parents=[common], help="confusion counts from an evaluation CSV")
    p_score.add_argument("evaluation", help="evaluation.csv written by detect eval")
    p_score.add_argument("--threshold", required=True)
    p_score.add_argument(
        "--condition",
        choices=[k.value for k in ConditionKind],
        required=True,
        help="provenance of the scored dataset",
    )
    p_score.add_argument("--sensitivities", help="comma-separated levels (default: config)")
    p_score.set_defaults(func=cmd_detect_score)

    p_katan = sub.add_parser("katan", help="KATAN-32 block cipher", parents=[common])
    katan_sub = p_katan.add_subparsers(dest="katan_command", required=True)
    p_enc = katan_sub.add_parser("enc", parents=[common], help="encrypt one block")
    p_enc.add_argument("--key", type=_key, required=True, help="80-bit key, 20 hex digits")
    p_enc.add_argument("--pt", type=_block, required=True, help="32-bit plaintext, hex")
    p_enc.add_argument("--trojan", action="store_true", help="run the infected cipher")
    p_enc.set_defaults(func=cmd_katan_enc)
    p_dec = katan_sub.add_parser("dec", parents=[common], help="decrypt one block")
    p_dec.add_argument("--key", type=_key, required=True, help="80-bit key, 20 hex digits")
    p_dec.add_argument("--ct", type=_block, required=True, help="32-bit ciphertext, hex")
    p_dec.set_defaults(func=cmd_katan_dec)

    p_exp1 = sub.add_parser("exp1", parents=[common], help="CRC receiver identification experiment")
    p_exp1.set_defaults(func=cmd_exp1)
    p_exp2 = sub.add_parser("exp2", parents=[common], help="KATAN-32 identification experiment")
    p_exp2.set_defaults(func=cmd_exp2)

    p_report = sub.add_parser("report", parents=[common], help="summarize output files")
    p_report.add_argument("files", nargs="+", help="CSV or manifest files written by this tool")
    p_report.set_defaults(func=cmd_report)

    return root


def _load_array(config: ExperimentConfig, path: str | None) -> list[mtj.MtjCell]:
    n = config.crc.data_width + config.crc.check_width
    # an empty --array names a file like any other: one that cannot be read
    source = path if path is not None else config.mtj_array_path or None
    if source is None:
        return mtj.nominal_array(n)
    cells = mtj.load_array(source)
    if len(cells) != n:
        raise ValueError(f"{source}: array has {len(cells)} cells, message needs {n}")
    return cells


def _write_out(config: ExperimentConfig, name: str, text: str) -> str:
    """Write text as the file name in config.out, made if missing; the file's path."""
    os.makedirs(config.out, exist_ok=True)
    write_text(path := os.path.join(config.out, name), text)
    return path


def _bist_csv(sweep: bist.SweepResult, data_width: int) -> str:
    """The bist_results.csv text: one row per round, clock by clock and within
    a clock pattern by pattern; each half period, pattern and fault set is formatted once."""
    half_periods = [f"{hp:.10g}," for hp in sweep.half_periods]
    patterns = [f"{to_hex(p, data_width)}," for p in sweep.patterns]
    # the error flag is a function of the fault vector, so of its set
    flag_of = np.zeros(len(sweep.fault_sets), dtype=np.int64)
    flag_of[sweep.fault_index] = sweep.flags
    suffixes = [f"{flag},{';'.join(map(str, sorted(cells)))}\n"
                for flag, cells in zip(flag_of.tolist(), sweep.fault_sets)]
    body = "".join([hp + p + suffixes[k]
                    for hp, row in zip(half_periods, sweep.fault_index.tolist()) for p, k in zip(patterns, row)])
    return "half_period_ns,pattern_hex,error_flag,faulted_indices\n" + body


def cmd_bist_run(args, config: ExperimentConfig) -> int:
    crc = config.crc
    clock = config.clock if args.half_period is None else replace(
        config.clock, half_period=reworded("bist run: --half-period", _half_period(config.clock), args.half_period))
    pattern = config.crc_reference_pattern
    if args.pattern is not None:
        pattern = reworded("bist run: --pattern", functools.partial(parse_hex, width=crc.data_width), args.pattern)
    array = _load_array(config, args.array)
    sweep = bist.frequency_sweep(array, [pattern], [clock.half_period], crc, config.mtj, clock)
    flagged = bool(sweep.flags[0, 0])
    out_csv = _write_out(config, "bist_results.csv", _bist_csv(sweep, crc.data_width))
    verdict = "ERROR" if flagged else "clean"
    print(
        f"pattern {to_hex(pattern, crc.data_width)} at half period "
        f"{clock.half_period:g} ns: {verdict} "
        f"(launch {clock.launch_time:g} ns, sample {clock.sample_time:g} ns)"
    )
    print(f"wrote {out_csv}")
    return 2 if flagged else 0


def cmd_bist_sweep(args, config: ExperimentConfig) -> int:
    crc = config.crc
    if args.patterns is not None:
        hex_list = list_of(functools.partial(parse_hex, width=crc.data_width))
        patterns = list(reworded("bist sweep: --patterns", hex_list, args.patterns))
        if not patterns:
            raise ValueError("bist sweep: --patterns needs at least one pattern")
    elif args.n_random < 1:
        raise ValueError(f"bist sweep: --n-random must be >= 1, got {args.n_random}")
    else:
        rng = np.random.default_rng(config.seed)
        patterns = random_patterns(rng, crc.data_width, args.n_random, "crc.data_width").tolist()
    if args.half_periods is not None:
        half_periods = reworded("bist sweep: --half-periods", list_of(_half_period(config.clock)), args.half_periods)
        if not half_periods:
            raise ValueError("bist sweep: --half-periods needs at least one half period")
    else:
        half_periods = [float(h) for h in np.linspace(3.0, 0.75, 10)]
    array = _load_array(config, args.array)
    sweep = bist.frequency_sweep(array, patterns, half_periods, crc, config.mtj, config.clock)
    out_csv = _write_out(config, "bist_results.csv", _bist_csv(sweep, crc.data_width))
    n_flagged = int(sweep.flags.sum())
    print(f"{sweep.flags.size} runs, {n_flagged} raised the error flag; wrote {out_csv}")
    for p, worst in sweep.largest_flagged_half_period.items():
        if worst is not None:
            print(f"pattern {to_hex(p, crc.data_width)}: flagged up to half period {worst:g} ns")
    return 2 if n_flagged else 0


def cmd_attack_inject(args, config: ExperimentConfig) -> int:
    if args.random is not None:
        if args.random < 1:
            raise ValueError(f"attack inject: --random must be >= 1, got {args.random}")
        multipliers = reworded("attack inject: --multiplier-range",
                               lambda text: bist.check_multiplier_range(split_list(text, float)), args.multiplier_range)
    elif args.targets is not None:
        targets = reworded("attack inject: --targets", list_of(int), args.targets)
        if not targets:
            raise ValueError("attack inject: --targets needs at least one cell index")
        multiplier = reworded("attack inject: --multiplier", _positive("multipliers"), args.multiplier)
        spec = reworded("attack inject: --targets", bist.AttackSpec.uniform, targets, multiplier)
    else:
        raise ValueError("attack inject: need --targets or --random")
    cells = mtj.load_array(args.array)
    if args.random is not None:
        spec = reworded("attack inject: --random", bist.AttackSpec.random, len(cells), args.random, multipliers,
                        config.seed)
    elif outside := [i for i in spec.target_indices if not 0 <= i < len(cells)]:
        raise ValueError(f"attack inject: --targets: target index {outside[0]} outside array of {len(cells)} cells")
    option = "--multiplier-range" if args.random is not None else "--multiplier"
    tampered = reworded(f"attack inject: {option}", bist.inject_attack, cells, spec)
    mtj.save_array(args.out_array, tampered)
    bad = [i for i, c in enumerate(tampered) if mtj.is_malicious(c, config.mtj)]
    print(
        f"tampered cells {list(spec.target_indices)} -> {args.out_array}; "
        f"now outside tolerance: {bad}"
    )
    return 0


def cmd_trace_gen(args, config: ExperimentConfig) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError(f"trace gen: --n must be >= 1, got {args.n}")
    if args.name == "":
        raise ValueError("trace gen: --name must not be empty")
    kind = ConditionKind(args.condition)
    if kind is ConditionKind.PROCESS_VARIATION and args.pv_fraction is None:
        raise ValueError("trace gen: --pv-fraction required for process_variation")
    if kind is ConditionKind.TEMPERATURE and args.temperature is None:
        raise ValueError("trace gen: --temperature required for temperature")
    condition = reworded(f"trace gen: --condition {kind.value}", Condition, kind, pv_length_fraction=args.pv_fraction,
                         temperature_c=args.temperature)

    circuit = experiments.device(config, args.circuit, kind is ConditionKind.TROJAN)
    n = args.n if args.n is not None else config.detector_n_patterns
    dataset = build_dataset(circuit, condition, n_patterns=n, seed=config.seed, params=config.trace)
    name = args.name if args.name is not None else f"{circuit.name}_{kind.value}"
    out_dir = os.path.join(config.out, name)
    write_datasets({out_dir: dataset})
    print(f"wrote {len(dataset)} traces under {out_dir}")
    return 0


def _tally(rejected: np.ndarray) -> str:
    n_rej = np.count_nonzero(rejected)
    return f"{len(rejected) - n_rej} accepted, {n_rej} rejected"


def cmd_detect_eval(args, config: ExperimentConfig) -> int:
    threshold, sensitivity = (None if text is None else reworded(f"detect eval: --{name}", _positive(name), text)
                              for name, text in (("threshold", args.threshold), ("sensitivity", args.sensitivity)))
    dataset = read_dataset(args.dataset)
    reference = read_trace_csv(args.reference, dataset.dt, dataset.samples.shape[1])
    signal = evaluation_signal(reference, dataset, config.detector_normalized)
    threshold = threshold if threshold is not None else threshold_from_reference(signal)
    sensitivity = sensitivity if sensitivity is not None else config.detector_sensitivity
    rejected = classify(signal, DetectorConfig(threshold, sensitivity))
    out_csv = _write_out(config, "evaluation.csv", experiments.evaluation_text(signal, rejected))
    print(f"threshold {threshold:.10g}, sensitivity {sensitivity:g}: {_tally(rejected)}; wrote {out_csv}")
    return 2 if rejected.any() else 0


def cmd_detect_score(args, config: ExperimentConfig) -> int:
    threshold = reworded("detect score: --threshold", _positive("threshold"), args.threshold)
    levels = (
        config.detector_sensitivities
        if args.sensitivities is None
        else reworded("detect score: --sensitivities", list_of(_positive("sensitivity")), args.sensitivities)
    )
    if not levels:
        raise ValueError("detect score: --sensitivities needs at least one level")
    signal = experiments.read_evaluation(args.evaluation)
    condition_kind = ConditionKind(args.condition)
    condition = TROJAN if condition_kind is ConditionKind.TROJAN else NORMAL
    counts = [(s, score(classify(signal, DetectorConfig(threshold, s)), condition)) for s in levels]
    out_csv = _write_out(config, "confusion.csv", experiments.confusion_text(counts))
    print(f"wrote {out_csv}")
    return 2 if any(c.tp or c.fp for _, c in counts) else 0


def cmd_katan_enc(args, config: ExperimentConfig) -> int:
    if args.trojan:
        ct = trojan.encrypt32_trojan(args.pt, args.key, config.katan_trojan)
    else:
        ct = katan.encrypt32(args.pt, args.key)
    print(to_hex(ct, 32))
    return 0


def cmd_katan_dec(args, config: ExperimentConfig) -> int:
    print(to_hex(katan.decrypt32(args.ct, args.key), 32))
    return 0


def _run_experiment(config: ExperimentConfig, name: str, run) -> int:
    result = run(config)
    out_dir = os.path.join(config.out, name)
    experiments.write_experiment(result, config, out_dir)
    print(f"{name}: threshold {result.threshold:.10g}")
    for ds_name, rejected in result.decisions.items():
        print(f"  {ds_name}: {_tally(rejected)}")
    print(f"wrote {out_dir}")
    return 2 if any(rejected.any() for rejected in result.decisions.values()) else 0


def cmd_exp1(args, config: ExperimentConfig) -> int:
    return _run_experiment(config, "exp1", experiments.run_crc_identification)


def cmd_exp2(args, config: ExperimentConfig) -> int:
    return _run_experiment(config, "exp2", experiments.run_katan_identification)


# ---------------------------------------------------------------------------
# report: summarize any file this tool writes

def _report_csv(path, text: str) -> None:
    first, _, rest = text.partition("\n")
    header = first.strip().split(",")
    rows = [line.strip().split(",") for line in rest.split("\n") if line.strip()]
    print(f"{path}: {len(rows)} rows, columns {header}")
    for j, col in enumerate(header):
        cells = [r[j] for r in rows if j < len(r)]
        try:
            nums = [float(c) for c in cells]
        except ValueError:
            tally: dict[str, int] = {}
            for c in cells:
                tally[c] = tally.get(c, 0) + 1
            parts = ", ".join(f"{k}: {v}" for k, v in sorted(tally.items())[:6])
            print(f"  {col}: {parts}")
            continue
        if nums:
            print(f"  {col}: min {min(nums):.6g}, max {max(nums):.6g}, mean {sum(nums) / len(nums):.6g}")


def _report_kv(path, text: str) -> None:
    lines = [line.rstrip() for line in text.split("\n") if line.strip()]
    print(f"{path}: {len(lines)} entries")
    for line in lines[:40]:
        print(f"  {line}")


def cmd_report(args, config: ExperimentConfig) -> int:
    for path in args.files:
        text = read_text(path)
        if "," in text.partition("\n")[0]:
            _report_csv(path, text)
        else:
            _report_kv(path, text)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config) if hasattr(args, "config") else ExperimentConfig()
        if hasattr(args, "seed"):
            config.seed = args.seed
        if hasattr(args, "out"):
            config.out = args.out
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
