"""The scripts under scripts/ run end to end and report what they check."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        timeout=600,
    )


@pytest.mark.parametrize("args", [(), ("--field", "GF7", "--param", "3")], ids=["Q", "GF7"])
def test_reproduce_tables(args):
    done = _run("reproduce_tables.py", *args)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines.count("  gate: R1=PASS R2=PASS R3=PASS R4=PASS R5=PASS") == 2
    assert lines.count("  table match: True") == 2
    assert lines.count("  antipode axioms: True") == 2


def test_fuzz_equivalences():
    done = _run("fuzz_equivalences.py")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert "instances: 408" in lines
    assert "disagreements: 0" in lines
