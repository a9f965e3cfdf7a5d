"""Spans and counters of the benchmark's traced run, for the per-layer metrics.

The traced run calls ``mtjbist.cli.main`` itself, as the untraced run does.
For the length of the traced phase, ``instrumented`` replaces the module
attributes through which the program calls into its layers with wrappers
that record a span or bump a counter, and puts the originals back
afterwards. The program looks each of these functions up through a module
global at call time, so the wrappers time the program's own calls. A hook
whose attribute the program no longer has is skipped and listed, and the
metrics behind it read 0.

Most calls are recorded as spans: [name, start, end, parent index,
iteration]. The calls a BIST round makes per cell or per round (CRC encode
and verify, the MTJ write and sense) run some hundred thousand times per
iteration; they are leaves, whose durations are summed per name and parent
span instead of being kept one by one.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

from mtjbist import bist, circuits, cli, experiments, traces

# the unattributed remainder may be at most this share of an iteration: the
# whole iteration runs inside the "cli" span, so only the benchmark's own
# call into the command line is outside every span
MAX_REMAINDER_SHARE = 0.05


class Tracer:
    """Spans, leaf sums and counters, kept in memory until the run ends.

    The iteration number is the identifier all spans of one timed iteration
    share. Counters, the patterns seen and the classify calls start afresh
    with every iteration.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (leaf name, parent span index) -> [summed seconds, calls]
        self.leaves: dict[tuple[str, int], list] = {}
        self.iteration = -1
        self.counts: Counter = Counter()
        # (circuit, pattern) pairs whose toggles this iteration already computed
        self.seen: set = set()
        # (values, threshold, sensitivity) of each classify call
        self.classified: list[tuple] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add_leaf(self, name: str, seconds: float) -> None:
        key = (name, self._stack[-1] if self._stack else -1)
        total = self.leaves.setdefault(key, [0.0, 0])
        total[0] += seconds
        total[1] += 1

    def start_iteration(self, iteration: int) -> int:
        """Begin a new iteration; returns the index of its first span."""
        self.iteration = iteration
        self.counts = Counter()
        self.seen = set()
        self.classified = []
        return len(self.spans)

    def span_times(self, first: int) -> tuple[dict[str, float], dict[str, float], float]:
        """Inclusive and self time per name, and the top-level total, of spans[first:] and their leaves.

        Self time is a span's duration minus the durations of its children.
        A leaf outside every span is not counted, so it adds to the
        remainder.
        """
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        top = 0.0

        def add(name, duration, parent):
            nonlocal top
            inclusive[name] += duration
            self_time[name] += duration
            if parent < 0:
                top += duration
            else:
                self_time[self.spans[parent][0]] -= duration

        for name, start, end, parent, _ in self.spans[first:]:
            add(name, end - start, parent)
        for (name, parent), (seconds, _) in self.leaves.items():
            if parent >= first:
                add(name, seconds, parent)
        return dict(inclusive), dict(self_time), top

    def attribution_problems(self, first: int, t0: float, t1: float) -> list[str]:
        """What is wrong with how spans[first:] account for an iteration timed from t0 to t1.

        Every span must lie inside the iteration, and the remainder no span
        covers must be neither negative nor above MAX_REMAINDER_SHARE of it.
        """
        problems = []
        outside = [s for s in self.spans[first:] if not t0 <= s[1] <= s[2] <= t1]
        if outside:
            problems.append(f"{len(outside)} spans, the first {outside[0][0]!r}, lie outside their iteration")
        remainder = (t1 - t0) - self.span_times(first)[2]
        if not 0.0 <= remainder <= MAX_REMAINDER_SHARE * (t1 - t0):
            problems.append(f"{remainder:.3g} s of a {t1 - t0:.3g} s iteration is unattributed")
        return problems

    def band_margin_min(self, sensitivity: float) -> float:
        """Smallest distance of any value this iteration classified to the acceptance band edge
        at sensitivity, relative to the threshold; 0 if nothing was classified."""
        return min(
            (abs(abs(float(v) - threshold) - sensitivity * threshold) / threshold
             for values, threshold, s in self.classified
             if s == sensitivity
             for v in values),
            default=0.0,
        )


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.iteration])

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[t._stack.pop()][2] = perf_counter()


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Hook the program's layer calls for the length of the block; yields the hooks that were skipped."""
    t = tracer

    def span(name, after=None):
        def make(fn):
            def traced(*args, **kwargs):
                with t.span(name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(out, *args)
                return out
            return traced
        return make

    def leaf(name):
        def make(fn):
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t.add_leaf(name, perf_counter() - start)
            return timed
        return make

    def counted(after):
        def make(fn):
            def traced(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(out, *args)
                return out
            return traced
        return make

    def traced_draw_patterns(fn):
        def traced(circuit, n_patterns, rng, pattern_filter=None):
            if pattern_filter is not None:
                accept = pattern_filter

                def pattern_filter(pattern):
                    ok = accept(pattern)
                    t.counts["trojan.filter_calls"] += 1
                    t.counts["trojan.filter_accepts"] += bool(ok)
                    return ok
            with t.span("traces.draw_patterns"):
                return fn(circuit, n_patterns, rng, pattern_filter)
        return traced

    def synthesised(trace, *args):
        t.counts["traces.traces"] += 1

    def toggled(profile, circuit, pattern):
        key = (circuit.name, pattern)
        t.counts["circuits.toggle_calls"] += 1
        t.counts["traces.repeats"] += key in t.seen
        t.seen.add(key)

    def evaluated(signal, *args):
        t.counts["detector.correlations"] += len(signal.values)

    def classified(decisions, signal, config):
        t.classified.append((signal.values, config.threshold, config.sensitivity))

    def bist_round(result, *args):
        t.counts["bist.rounds"] += 1
        t.counts["bist.flagged"] += bool(result.error_flag)

    hooks = [
        # exp2: cli.cmd_exp2 -> experiments -> traces -> circuits -> katan, detector
        (experiments, "run_katan_identification", span("experiments.identify")),
        (experiments, "write_experiment", span("experiments.write")),
        (experiments, "simulate_trace", span("traces.synth", synthesised)),
        (traces, "simulate_trace", span("traces.synth", synthesised)),
        (traces, "draw_patterns", traced_draw_patterns),
        (traces, "toggle_profile", span("circuits.toggle", toggled)),
        (circuits, "core_states", span("katan.core_states")),
        (experiments, "evaluation_signal", span("detector.eval", evaluated)),
        (experiments, "classify", span("detector.classify", classified)),
        (experiments, "score", span("detector.classify")),
        # bist sweep: cli.cmd_bist_sweep -> bist -> crc, mtj
        (bist, "frequency_sweep", span("bist.sweep")),
        (bist, "run_bist", counted(bist_round)),
        (bist, "encode", leaf("crc.encode")),
        (bist, "verify", leaf("crc.verify")),
        (bist, "apply_bit", leaf("mtj.write_sense")),
        (bist, "sense", leaf("mtj.write_sense")),
        # detect eval: cli.cmd_detect_eval -> traces, detector
        (cli, "read_dataset", span("traces.read_dataset")),
        (cli, "read_trace_csv", span("traces.read_dataset")),
        (cli, "evaluation_signal", span("detector.eval", evaluated)),
        (cli, "classify", span("detector.classify", classified)),
    ]
    saved, skipped = [], []
    for module, attr, make in hooks:
        if hasattr(module, attr):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        else:
            skipped.append(f"{module.__name__}.{attr}")
    try:
        yield skipped
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
