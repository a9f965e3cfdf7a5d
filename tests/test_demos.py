"""Golden digests of the demos' standard output.

Each demo runs in its own interpreter, as a user would run it. Demos 01 and
02 drive the BIST API, the others the traces, the detector and KATAN-32, so
a change behind any of them that alters a printed figure shows here. A
change that alters a demo's output on purpose updates its digest and says
why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_mtj_switching_and_timing.py": "822f991ac4c02cfd2edc2232d74e7a4c924a51d1ef4b511a456104a20e35d5d0",
    "02_bist_frequency_sweep.py": "0a902a171abb7d3ae5b18ef4004207ed344d59f8dc06957a8215577f54f53875",
    "03_current_traces.py": "a324edc68fb99f3300b9ac33d5e406a3bbc5f4ed68c2f32aeee79155d200987f",
    "04_relational_detector.py": "9e6f77b342611ba51ccf9c6e064903bd254fd7ed6688f83656a7f5f64385e341",
    "05_katan_cipher_and_trojan.py": "2e2c8fbf70eb2f01ab80b3aab62de759a0d90abf8e1b9fa518bef41656e7e3a2",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_digest(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
