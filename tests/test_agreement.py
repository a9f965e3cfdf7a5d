"""The command line agrees with itself: the files one command writes are
the files the others rewrite from the inputs that the tree names.

An exp1 or exp2 tree holds its datasets, its reference trace and, per
dataset, the evaluation and confusion tables. ``detect eval`` at the
manifest's threshold rewrites each evaluation table, ``detect score``
each confusion table, and ``trace gen`` at a dataset manifest's seed each
dataset directory. The manifest keeps the threshold to 10 significant
digits, so a decision may differ only where a value lies within 1e-9
relative of a band edge.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.cli import main

CIRCUIT = {"exp1": "crc", "exp2": "katan"}
EDGE_RTOL = 1e-9


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _kv(path: Path) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


@contextlib.contextmanager
def _experiment_tree(exp: str, seed: int, n: int):
    """(tree, out, conf): the exp tree of seed at n traces per dataset, a
    directory for further outputs, and the config file it was run with."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        conf = out / "run.conf"
        conf.write_text(f"detector.n_patterns = {n}\n")
        assert _run([exp, "--seed", str(seed), "--config", str(conf), "--out", str(out)]) in (0, 2)
        yield out / exp, out, conf


def _near_an_edge(value: float, threshold: float, sensitivity: float) -> bool:
    return any(abs(value - edge) <= EDGE_RTOL * edge for edge in (threshold * (1 - sensitivity),
                                                                   threshold * (1 + sensitivity)))


def _assert_same_table(written: str, rewritten: str, near_edge) -> None:
    """Each line equal, or one that near_edge(line number, line) allows to differ."""
    old, new = written.splitlines(), rewritten.splitlines()
    assert len(old) == len(new)
    for ln, (a, b) in enumerate(zip(old, new)):
        assert a == b or near_edge(ln, a), (ln, a, b)


runs = given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25))


@pytest.mark.parametrize("exp", ["exp1", "exp2"])
@settings(max_examples=10, deadline=None)
@runs
def test_read_path_reproduces_the_tables(exp, seed, n):
    with _experiment_tree(exp, seed, n) as (tree, out, conf):
        manifest = _kv(tree / "manifest")
        threshold, sensitivity = float(manifest["threshold"]), float(manifest["sensitivity"])
        levels = [float(s) for s in manifest["sensitivities"].split(",")]
        for name in (path.name for path in sorted((tree / "datasets").iterdir()) if path.name != "reference"):
            evaluation = (tree / f"evaluation_{name}.csv").read_text()
            values = [float(line.split(",")[1]) for line in evaluation.splitlines()[1:]]
            argv = ["detect", "eval", str(tree / "datasets" / name), str(tree / "reference.csv"),
                    "--threshold", manifest["threshold"], "--config", str(conf), "--out", str(out / name)]
            assert _run(argv) in (0, 2)
            _assert_same_table(evaluation, (out / name / "evaluation.csv").read_text(),
                               lambda ln, line: _near_an_edge(values[ln - 1], threshold, sensitivity))
            argv = ["detect", "score", str(tree / f"evaluation_{name}.csv"), "--threshold", manifest["threshold"],
                    "--condition", manifest[f"dataset.{name}.condition"], "--sensitivities", manifest["sensitivities"],
                    "--out", str(out / name)]
            assert _run(argv) in (0, 2)
            _assert_same_table((tree / f"confusion_{name}.csv").read_text(), (out / name / "confusion.csv").read_text(),
                               lambda ln, line: any(_near_an_edge(v, threshold, levels[ln - 1]) for v in values))


def _assert_regenerates(exp: str, name: str, seed: int, n: int) -> None:
    with _experiment_tree(exp, seed, n) as (tree, out, conf):
        dataset = tree / "datasets" / name
        manifest = _kv(dataset / "manifest")
        flags = {"condition.pv_length_fraction": "--pv-fraction", "condition.temperature_c": "--temperature"}
        argv = ["trace", "gen", "--circuit", CIRCUIT[exp], "--condition", manifest["condition.kind"],
                "--seed", manifest["seed"], "--n", manifest["n_traces"], "--name", name, "--out", str(out / "gen")]
        argv += [arg for key, flag in flags.items() if key in manifest for arg in (flag, manifest[key])]
        assert _run(argv) == 0
        regenerated = out / "gen" / name
        assert sorted(p.name for p in regenerated.iterdir()) == sorted(p.name for p in dataset.iterdir())
        for path in dataset.iterdir():
            assert (regenerated / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("exp, name", [("exp1", "normal"), ("exp1", "trojan"), ("exp2", "normal"), ("exp2", "trojan")])
@settings(max_examples=5, deadline=None)
@runs
def test_dataset_regenerates_from_its_manifest(exp, name, seed, n):
    _assert_regenerates(exp, name, seed, n)


# the manifest keeps a process variation or a temperature to 10 significant
# digits, so the regenerated traces differ until ROADMAP item 3 writes them
# exactly; fixed runs, so that each case fails the same way every time
@pytest.mark.xfail(strict=True, reason="condition parameter kept to 10 significant digits (ROADMAP item 3)")
@pytest.mark.parametrize("name", ["process_variation", "temperature"])
@pytest.mark.parametrize("seed, n", [(1, 20), (3, 1), (7, 25)])
def test_varied_dataset_regenerates_from_its_manifest(name, seed, n):
    _assert_regenerates("exp1", name, seed, n)
