"""A standing table of mutants of the package, and the runner that must see
each one killed by a test that is not a digest.

Every mutant is one exact edit of one file under src/mtjbist: the text it
replaces, which occurs there exactly once (tests/test_mutants.py checks
that without running anything), and its replacement. The golden and demo
digests would kill most of them, but they cannot tell a deliberate change of
output from a wrong one, so the runner leaves them out.

    python tests/mutants.py

copies src/, tests/, demos/, README.md and pyproject.toml into a temporary
directory for each mutant, applies the edit, and runs the tier-1 tests
there with tests/test_golden.py, tests/test_demos.py and
tests/test_mutants.py deselected, stopping at the first failure. A mutant is killed when that run fails and survives when it
passes. The runner prints the first failure of each killed mutant, and
exits 1 if any survives. It assumes that the unedited tree passes tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mtjbist"
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")
DESELECTED = ("tests/test_golden.py", "tests/test_demos.py", "tests/test_mutants.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/mtjbist
    text: str
    replacement: str
    reason: str


MUTANTS = [
    Mutant("band-edge-rejects", "detector.py",
           "np.abs(signal.values - config.threshold) <= config.sensitivity",
           "np.abs(signal.values - config.threshold) < config.sensitivity",
           "a value exactly on a band edge is accepted"),
    Mutant("spike-one-step-early", "traces.py",
           "fired, step = circuit.fires(patterns), circuit.n_steps - 1",
           "fired, step = circuit.fires(patterns), circuit.n_steps - 2",
           "a firing Trojan's payload spike lands on the circuit's last step"),
    Mutant("trigger-toggles-dropped", "traces.py",
           "    samples[fired, step] += params.i_unit * scale * circuit.trigger_toggles\n",
           "",
           "a firing Trojan adds its trigger logic's toggles"),
    Mutant("threshold-from-normal", "experiments.py",
           'evaluation_signal(reference, datasets["reference"], config.detector_normalized)',
           'evaluation_signal(reference, datasets["normal"], config.detector_normalized)',
           "the threshold is the mean of the reference dataset's signal, not of a dataset under test"),
    Mutant("evaluation-zero-rejected", "experiments.py",
           "lambda v: v >= 0",
           "lambda v: v > 0",
           "an evaluation table may hold a value of 0, as a silent trace gives"),
    Mutant("evaluation-field-count-unchecked", "experiments.py",
           "if len(row) != len(columns):",
           "if False:",
           "an evaluation row with more or fewer fields than its header is an error naming its line"),
    Mutant("stall-point-inclusive", "bist.py",
           "slow = sample < launch + delay",
           "slow = sample <= launch + delay",
           "a cell whose switch ends exactly at the sample edge has settled"),
    Mutant("flag-needs-every-syndrome-bit", "bist.py",
           "syndromes(vectors, crc).any(axis=-1)",
           "syndromes(vectors, crc).all(axis=-1)",
           "the error flag fires on any nonzero syndrome bit"),
    Mutant("run-bist-default-clock", "bist.py",
           "frequency_sweep(array, [pattern], [clock.half_period], crc, model, clock)",
           "frequency_sweep(array, [pattern], [clock.half_period], crc, model)",
           "run_bist launches and samples at its own clock's edges"),
    Mutant("sample-time-overflow-unchecked", "bist.py",
           "if not math.isfinite(self.sample_time):",
           "if False:",
           "a half period whose sample edge overflows is rejected"),
    Mutant("coverage-of-healthy-array-zero", "bist.py",
           "if infected else 1.0",
           "if infected else 0.0",
           "an array with no infected cell has full coverage"),
    Mutant("normalized-without-reference-norm", "detector.py",
           "np.linalg.norm(ref) * np.linalg.norm(rows, axis=1)",
           "np.linalg.norm(rows, axis=1)",
           "the normalized detector value divides by both signals' 2-norms"),
    Mutant("memory-error-uncaught", "cli.py",
           "except MemoryError as exc:",
           "except () as exc:",
           "a size too large to allocate exits 1 naming its command, without a traceback"),
    Mutant("switching-delay-unclamped", "mtj.py",
           "tm_c = min(max(tm, model.tm_min), model.tm_max)",
           "tm_c = tm",
           "a thickness outside [tm_min, tm_max] switches at its window's end"),
]


def run(mutant: Mutant) -> str | None:
    """The first failure of tier-1 on a copy of the tree with mutant
    applied, None if it passes."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp, name)
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, target)
        path = Path(tmp, "src", "mtjbist", mutant.file)
        text = path.read_text()
        if text.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: its text does not occur exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(tmp, "src")),
                                                                        os.environ.get("PYTHONPATH")])))
        # the copy, not an installed mtjbist, must be what the tests import
        imported = subprocess.run([sys.executable, "-c", "import mtjbist; print(mtjbist.__file__)"], env=env,
                                  cwd=tmp, capture_output=True, text=True, check=True).stdout.strip()
        if Path(imported).resolve().parent != path.resolve().parent:
            raise SystemExit(f"{mutant.name}: the tests would import {imported}, not the mutated copy")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
        argv += [f"--deselect={name}" for name in DESELECTED]
        proc = subprocess.run(argv, env=env, cwd=tmp, capture_output=True, text=True)
        if proc.returncode == 0:
            return None
        failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
        return failed[0] if failed else f"pytest exit code {proc.returncode}"


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        failure = run(mutant)
        print(f"{mutant.name} ({mutant.file}: {mutant.reason}): "
              f"{'SURVIVED' if failure is None else 'killed, ' + failure}", flush=True)
        if failure is None:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} survivor(s): {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
