"""Benchmark of the ``mtjbist`` command line. Run it from the repository root:

    python3 perfbench/run.py --workload exp2_katan --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics and calls nothing of the
package but ``mtjbist.cli.main``, in process. ``--trace 1`` is a separate run
for the per-layer metrics: it runs the same commands through
``mtjbist.cli.main`` with the program's layer calls hooked to record spans
and counters (tracing.py), and checks that the traced iterations write the
same bytes as the untraced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the run's detail record:
digests, raw timings, the output filesystem and nproc. README.md in this
directory defines the workloads and the metrics.
"""

from __future__ import annotations

import os

# one process, one thread: BLAS and OpenMP pools must not compete with the
# interpreter for the host's CPUs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from refloop import REFERENCE_CHECKSUM, REFERENCE_SECONDS, reference_loop
from workloads import SENSITIVITY, WORKLOADS, CheckError, call_cli, tree_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# share of a traced run's seconds spent on untraced command-line iterations,
# the base of trace.overhead_ratio
UNTRACED_SHARE = 0.4
# output problems that a wrong or malformed output raises while it is read
OUTPUT_ERRORS = (CheckError, KeyError, ValueError, IndexError, OSError, ZeroDivisionError)

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_ref": "work/ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "sim.tpr": "ratio",
    "sim.tnr": "ratio",
}
PER_LAYER_UNITS = {
    "experiments.identify_s": "s",
    "experiments.write_s": "s",
    "traces.draw_patterns_s": "s",
    "traces.synth_self_s": "s",
    "traces.traces": "count",
    "traces.write_bytes": "bytes",
    "traces.read_dataset_s": "s",
    "traces.read_bytes": "bytes",
    "traces.pattern_repeat_ratio": "ratio",
    "circuits.toggle_s": "s",
    "circuits.toggle_calls": "count",
    "katan.core_states_s": "s",
    "crc.encode_s": "s",
    "crc.verify_s": "s",
    "trojan.filter_calls": "count",
    "trojan.filter_accept_ratio": "ratio",
    "detector.eval_s": "s",
    "detector.correlations": "count",
    "detector.classify_s": "s",
    "detector.band_margin_min": "ratio",
    "bist.sweep_s": "s",
    "bist.rounds": "count",
    "bist.round_us": "us",
    "bist.flag_ratio": "ratio",
    "mtj.write_sense_s": "s",
    "cli.self_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    if not (SRC / "mtjbist" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from mtjbist.cli import main

    return main


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise BenchError(f"no oracle module at {path}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_filesystem(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mountinfo."""
    target = os.path.realpath(path)
    best, fs = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fs = mount, fstype
    except (OSError, ValueError, IndexError):
        pass
    return fs


def timed_reference() -> float:
    t0 = perf_counter()
    checksum = reference_loop()
    elapsed = perf_counter() - t0
    if checksum != REFERENCE_CHECKSUM:
        raise BenchError("the reference loop was changed: its checksum differs")
    return elapsed


def measure(commands_for, run, check, seconds: float, out_root: Path, tag: str) -> list[dict]:
    """Timed iterations for ``seconds``, at least one.

    Each iteration writes to a fresh directory and runs between two runs of
    the reference loop. Garbage collection, the output check and the removal
    of the output tree happen outside the timed section; GC stays enabled
    inside it.
    """
    samples = []
    deadline = perf_counter() + seconds
    while not samples or perf_counter() < deadline:
        out_dir = str(out_root / f"{tag}{len(samples)}")
        commands = commands_for(out_dir)
        gc.collect()
        ref_before = timed_reference()
        t0 = perf_counter()
        result = run(commands)
        t1 = perf_counter()
        ref_after = timed_reference()
        ok = check(out_dir, result, t0, t1)
        shutil.rmtree(out_dir, ignore_errors=True)
        samples.append({"iter_s": t1 - t0, "ref_s": (ref_before + ref_after) / 2, "ok": bool(ok)})
    return samples


def throughput(samples: list[dict], work: int) -> tuple[float, dict]:
    """Median work per reference-loop time, and the raw figures for the detail record."""
    per_ref = [work * s["ref_s"] / s["iter_s"] for s in samples]
    times = sorted(s["iter_s"] for s in samples)
    n = len(times)
    detail = {
        "samples": n,
        "work_per_ref_median": statistics.median(per_ref),
        "work_per_s_median": work / statistics.median(times),
        "iter_s_median": statistics.median(times),
        "ref_s_median": statistics.median(s["ref_s"] for s in samples),
        "iter_s": [s["iter_s"] for s in samples],
        "ref_s": [s["ref_s"] for s in samples],
    }
    if n > 10:
        # the slowest iteration that still has ten samples beyond it
        detail["tail"] = {"percentile": 100.0 * (n - 10) / n, "iter_s": times[n - 11],
                          "work_per_s": work / times[n - 11]}
    return statistics.median(per_ref), detail


def measure_setup(workload, seed: int, run_dir: Path) -> tuple[float, dict, str]:
    """Set the workload up SETUP_REPEATS times, each in a fresh process.

    Each sample runs from process start to generated inputs: the
    interpreter, the ``mtjbist`` import and the input generation. Like the
    iterations, each runs between two runs of the reference loop and counts
    in its units, converted back to seconds with REFERENCE_SECONDS, so that
    the host's speed phases cancel. Returns the median, the raw samples with
    the input digest, and the directory of the first set of inputs.
    """
    times, refs, digests = [], [], []
    for k in range(SETUP_REPEATS):
        in_dir = run_dir / f"inputs{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
               "--seed", str(seed), "--setup-into", str(in_dir)]
        ref_before = timed_reference()
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(perf_counter() - t0)
        refs.append((ref_before + timed_reference()) / 2)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        digests.append(tree_digest(in_dir)[0])
        if k:
            shutil.rmtree(in_dir)
    if len(set(digests)) != 1:
        raise BenchError("the same seed generated different inputs")
    setup_s = statistics.median(t * REFERENCE_SECONDS / r for t, r in zip(times, refs))
    return setup_s, {"setup_wall_s": times, "setup_ref_s": refs, "input_digest": digests[0]}, str(run_dir / "inputs0")


def run_commands(cli_main, commands) -> tuple[int, ...]:
    return tuple(call_cli(cli_main, argv) for argv in commands)


def warm_up(workload, cli_main, in_dir: str, run_dir: Path) -> tuple[str, str, dict, list[str]]:
    """One untimed iteration: fills the key-schedule cache and finishes lazy imports."""
    warm_dir = str(run_dir / "warm")
    codes = run_commands(cli_main, workload.commands(in_dir, warm_dir))
    digest, nbytes = tree_digest(warm_dir)
    problems = []
    if codes != workload.expected_codes:
        problems.append(f"warm-up exit codes {codes}, expected {workload.expected_codes}")
    return warm_dir, digest, {"exit_codes": codes, "output_digest": digest, "output_bytes": nbytes}, problems


def run_untraced(workload, cli_main, seed: int, seconds: float, run_dir: Path, in_dir: str):
    warm_dir, digest, detail, problems = warm_up(workload, cli_main, in_dir, run_dir)
    tpr = tnr = 0.0
    try:
        detail["oracle_checks"] = workload.warmup_checks(load_oracles(), in_dir, warm_dir, seed)
        tpr, tnr = workload.sim_rates(in_dir, warm_dir)
    except OUTPUT_ERRORS as exc:
        problems.append(f"warm-up check: {exc!r}")
    shutil.rmtree(warm_dir)

    def check(out_dir, codes, *_):
        return not problems and codes == workload.expected_codes and tree_digest(out_dir)[0] == digest

    samples = measure(lambda out_dir: workload.commands(in_dir, out_dir),
                      lambda commands: run_commands(cli_main, commands), check, seconds, run_dir, "iter")
    work_per_ref, detail["throughput"] = throughput(samples, workload.work)
    n_ok = sum(s["ok"] for s in samples)
    detail["problems"] = problems
    metrics = {
        "work_per_ref": work_per_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": n_ok / len(samples),
        "sim.tpr": tpr,
        "sim.tnr": tnr,
    }
    return not problems and n_ok == len(samples), len(samples), len(samples) - n_ok, metrics, detail


def trace_format_bytes(out_dir: str) -> int:
    """Bytes written in the trace format: reference traces and dataset directories."""
    total = 0
    for dirpath, _, filenames in os.walk(out_dir):
        in_dataset = "datasets" in Path(dirpath).relative_to(out_dir).parts
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in filenames
                     if in_dataset or f == "reference.csv")
    return total


def dataset_read_bytes(commands) -> int:
    """Bytes that the ``detect eval`` commands read: each dataset directory and its reference trace."""
    total = 0
    for argv in commands:
        if argv[:2] == ["detect", "eval"]:
            dataset, reference = argv[2], argv[3]
            total += sum(os.path.getsize(os.path.join(dataset, f)) for f in os.listdir(dataset))
            total += os.path.getsize(reference)
    return total


def layer_row(tracer, first: int, iter_s: float, out_dir: str, read_bytes: int) -> dict:
    """The per-layer figures of one traced iteration."""
    inclusive, self_time, top = tracer.span_times(first)
    c = tracer.counts

    def incl(name):
        return inclusive.get(name, 0.0)

    def ratio(part, whole):
        return c[part] / c[whole] if c[whole] else 0.0

    rounds = c["bist.rounds"]
    row = {
        "experiments.identify_s": incl("experiments.identify"),
        "experiments.write_s": incl("experiments.write"),
        "traces.draw_patterns_s": incl("traces.draw_patterns"),
        "traces.synth_self_s": self_time.get("traces.synth", 0.0),
        "traces.traces": c["traces.traces"],
        "traces.write_bytes": trace_format_bytes(out_dir),
        "traces.read_dataset_s": incl("traces.read_dataset"),
        "traces.read_bytes": read_bytes,
        "traces.pattern_repeat_ratio": ratio("traces.repeats", "circuits.toggle_calls"),
        "circuits.toggle_s": incl("circuits.toggle"),
        "circuits.toggle_calls": c["circuits.toggle_calls"],
        "katan.core_states_s": incl("katan.core_states"),
        "crc.encode_s": incl("crc.encode"),
        "crc.verify_s": incl("crc.verify"),
        "trojan.filter_calls": c["trojan.filter_calls"],
        "trojan.filter_accept_ratio": ratio("trojan.filter_accepts", "trojan.filter_calls"),
        "detector.eval_s": incl("detector.eval"),
        "detector.correlations": c["detector.correlations"],
        "detector.classify_s": incl("detector.classify"),
        "detector.band_margin_min": tracer.band_margin_min(SENSITIVITY),
        "bist.sweep_s": incl("bist.sweep"),
        "bist.rounds": rounds,
        "bist.round_us": 1e6 * incl("bist.sweep") / rounds if rounds else 0.0,
        "bist.flag_ratio": ratio("bist.flagged", "bist.rounds"),
        "mtj.write_sense_s": incl("mtj.write_sense"),
        "cli.self_s": self_time.get("cli", 0.0),
        # time inside the iteration that no span covers
        "trace.remainder_s": iter_s - top,
    }
    return row


def write_spans(tracer, span_file: Path, leaf_file: Path) -> None:
    t_zero = tracer.spans[0][1] if tracer.spans else 0.0
    with open(span_file, "w") as fh:
        fh.write("iteration,name,start_s,end_s,parent\n")
        for name, start, end, parent, iteration in tracer.spans:
            fh.write(f"{iteration},{name},{start - t_zero:.7f},{end - t_zero:.7f},{parent}\n")
    with open(leaf_file, "w") as fh:
        fh.write("iteration,name,parent,calls,seconds\n")
        for (name, parent), (seconds, calls) in tracer.leaves.items():
            iteration = tracer.spans[parent][4] if parent >= 0 else -1
            fh.write(f"{iteration},{name},{parent},{calls},{seconds:.7f}\n")


def run_traced(workload, cli_main, seed: int, seconds: float, run_dir: Path, in_dir: str):
    import tracing

    warm_dir, cli_digest, detail, problems = warm_up(workload, cli_main, in_dir, run_dir)
    shutil.rmtree(warm_dir)
    commands_for = lambda out_dir: workload.commands(in_dir, out_dir)  # noqa: E731
    read_bytes = dataset_read_bytes(commands_for(str(run_dir)))

    def check_cli(out_dir, codes, *_):
        return codes == workload.expected_codes and tree_digest(out_dir)[0] == cli_digest

    untraced = measure(commands_for, lambda commands: run_commands(cli_main, commands), check_cli,
                       seconds * UNTRACED_SHARE, run_dir, "cli")

    tracer = tracing.Tracer()
    rows: list[dict] = []

    def traced_main(argv):
        with tracer.span("cli"):
            return cli_main(argv)

    def run(commands):
        first = tracer.start_iteration(tracer.iteration + 1)
        return first, run_commands(traced_main, commands)

    def check(out_dir, result, t0, t1):
        first, codes = result
        digest = tree_digest(out_dir)[0]
        if digest != cli_digest:
            problems.append(f"traced iteration {tracer.iteration} wrote digest {digest}, untraced {cli_digest}")
        wrong = tracer.attribution_problems(first, t0, t1)
        problems.extend(f"traced iteration {tracer.iteration}: {w}" for w in wrong)
        rows.append(layer_row(tracer, first, t1 - t0, out_dir, read_bytes))
        return not wrong and codes == workload.expected_codes and digest == cli_digest

    with tracing.instrumented(tracer) as skipped:
        warm_dir = str(run_dir / "traced-warm")
        commands = commands_for(warm_dir)
        t0 = perf_counter()
        result = run(commands)
        check(warm_dir, result, t0, perf_counter())
        shutil.rmtree(warm_dir)
        rows.clear()
        traced = measure(commands_for, run, check, seconds * (1 - UNTRACED_SHARE), run_dir, "traced")

    untraced_wpr, detail["untraced_throughput"] = throughput(untraced, workload.work)
    traced_wpr, detail["traced_throughput"] = throughput(traced, workload.work)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_ratio"] = traced_wpr / untraced_wpr
    detail["remainder_s_per_iteration"] = [row["trace.remainder_s"] for row in rows]
    detail["spans"] = len(tracer.spans)
    detail["skipped_hooks"] = skipped
    span_file = WORK_ROOT / f"spans-{workload.name}.csv"
    leaf_file = WORK_ROOT / f"leaves-{workload.name}.csv"
    write_spans(tracer, span_file, leaf_file)
    detail["span_files"] = [str(f.relative_to(ROOT)) for f in (span_file, leaf_file)]
    detail["problems"] = problems
    samples = untraced + traced
    n_ok = sum(s["ok"] for s in samples)
    return not problems and n_ok == len(samples), len(samples), len(samples) - n_ok, metrics, detail


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_into:
        cli_main = import_cli()
        os.makedirs(args.setup_into)
        workload.make_inputs(cli_main, args.seed, args.setup_into)
        return 0

    run_dir = WORK_ROOT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        cli_main = import_cli()
        run_dir.mkdir(parents=True)
        setup_s, setup_detail, in_dir = measure_setup(workload, args.seed, run_dir)
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics, detail = run(workload, cli_main, args.seed, args.seconds, run_dir, in_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        metrics["setup_s"] = setup_s
    detail.update(setup_detail)
    detail.update({
        "workload": workload.name,
        "work_unit": workload.work_unit,
        "work_per_iteration": workload.work,
        "seed": args.seed,
        "trace": args.trace,
        "output_filesystem": output_filesystem(WORK_ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
