"""Byte identity of the CLI: every case of scripts/golden_corpus.py, rerun in
memory, must reproduce its committed file under tests/golden/ exactly.

After an intended output change, regenerate with
`python3 scripts/golden_corpus.py` and review the diff.
"""

import difflib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("golden_corpus", ROOT / "scripts" / "golden_corpus.py")
golden_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_corpus)


def test_cli_output_matches_the_golden_corpus():
    cases = golden_corpus.cases()
    names = {f"{name}.txt" for name, *_ in cases}
    committed = {str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*.txt")}
    assert committed == names
    differing = []
    first_diff = ""
    for name, argv, document, source in cases:
        expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        got = golden_corpus.record(argv, document, source)
        if got != expected:
            differing.append(name)
            first_diff = first_diff or "".join(
                difflib.unified_diff(expected.splitlines(True), got.splitlines(True), name, "now")
            )
    assert not differing, f"{len(differing)} cases differ: {differing}\n{first_diff}"
