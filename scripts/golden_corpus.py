#!/usr/bin/env python3
"""Write the byte-identity corpus under tests/golden/: the exact stdout,
stderr, exit code and emitted files of a fixed set of CLI runs.

The runs are
  * `catalog show` and `catalog check <id> --witness` for every catalog
    entry over Q, GF7, GF2 and GF3;
  * `check`, the four `construct` variants (tsmash with both twist maps),
    `antipode`, `braiding-test`, `ybe-test` and `quasitriangular-check` on
    every catalog document over Q, with their emitted files, and
    `catalog list`;
  * `check --witness` on a fixed, seeded set of one-token mutations of four
    catalog documents (a dropped, duplicated or perturbed stanza line, and
    a row with one coefficient too few);
  * non-integer rationals: `catalog show` and `catalog check --witness`
    over Q at `--param=-1/2` and `--param=3/2` for every entry that takes a
    parameter; `check`, `antipode` and `construct biproduct` on the
    taft-bundle and dual-number-bundle documents at -1/2; and `check
    --witness` on seeded mutations of those two documents that add 1/3 to
    one coefficient;
  * co-side mutations: `check --witness` and `construct cosmash --witness`
    on seeded mutations of the taft-bundle and dual-number-bundle documents
    over Q and GF7 that each add 1 to two or three scalars of the COMULT
    rows and the COACTION MAP rows, so that a failing co-side check has
    several mismatching entries to choose its witness from;
  * zeroed Hopf rows: `check`, `construct tsmash`, `construct biproduct`,
    `antipode`, `braiding-test` and `ybe-test` on the taft-bundle and
    dual-number-bundle documents over Q with one TWIST or ANTIPODE row of
    HOPF H set to zero, so that a singular twist or antipode meets every
    subcommand that inverts one;
  * a zeroed carrier twist row: `check --witness`, `construct smash`,
    `construct biproduct`, `antipode` and `braiding-test` on the
    dual-number-bundle document over Q with `TWIST 1` zeroed in both
    ALGEBRA A and COALGEBRA A, so that the two blocks realize one singular
    twist object that every request must find singular again.

Usage:  python3 scripts/golden_corpus.py [--out DIR]

`tests/test_golden.py` regenerates every case in memory and compares it with
the committed files, so a change to any output shows up as a failing case.
"""

import argparse
import contextlib
import io
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from homhopf import cli  # noqa: E402
from homhopf.catalog import CATALOG  # noqa: E402
from homhopf.textfmt import catalog_document  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
FIELDS = ("Q", "GF7", "GF2", "GF3")
MUTATED = (("taft-bundle", "Q"), ("dual-number-bundle", "GF7"), ("taft-biproduct", "Q"), ("kz2-rmatrix", "Q"))
MUTATIONS_PER_KIND = 2
SEED = 6
RATIONAL_PARAMS = ("-1/2", "3/2")
RATIONAL_DOCUMENTS = ("taft-bundle", "dual-number-bundle")
RATIONAL_SUBCOMMANDS = ("check", "biproduct", "antipode")
RATIONAL_MUTATIONS = 3
RATIONAL_SEED = 7
COSIDE_DOCUMENTS = ("taft-bundle", "dual-number-bundle")
COSIDE_FIELDS = ("Q", "GF7")
COSIDE_MUTATIONS = 5
COSIDE_SEED = 8
COSIDE_RUNS = (
    ("check", ["check", "doc.hh", "--witness"]),
    ("cosmash", ["construct", "cosmash", "doc.hh", "--witness"]),
)
ZERO_DOCUMENTS = ("taft-bundle", "dual-number-bundle")
ZERO_SUBCOMMANDS = ("check", "tsmash", "biproduct", "antipode", "braiding-test", "ybe-test")
CARRIER_ZERO_DOCUMENT, CARRIER_ZERO_ROW = "dual-number-bundle", "1"
CARRIER_ZERO_SUBCOMMANDS = ("check", "smash", "biproduct", "antipode", "braiding-test")


# the subcommand runs on each catalog document, as (case suffix, argv);
# `doc.hh` is the document read and `emit` the path written
SUBCOMMANDS = (
    ("check", ["check", "doc.hh", "--witness"]),
    ("smash", ["construct", "smash", "doc.hh", "--witness", "--emit", "emit"]),
    ("cosmash", ["construct", "cosmash", "doc.hh", "--witness", "--emit", "emit"]),
    ("tsmash", ["construct", "tsmash", "doc.hh", "--witness", "--emit", "emit"]),
    ("tsmash-flip", ["construct", "tsmash", "doc.hh", "--t", "flip", "--witness", "--emit", "emit"]),
    ("biproduct", ["construct", "biproduct", "doc.hh", "--witness", "--emit", "emit"]),
    ("antipode", ["antipode", "doc.hh", "--witness", "--emit", "emit"]),
    ("braiding-test", ["braiding-test", "doc.hh", "--modules", "yd", "yd", "--witness", "--emit-matrix", "emit"]),
    ("ybe-test", ["ybe-test", "doc.hh", "--modules", "yd", "yd", "yd", "--witness", "--emit-matrix", "emit"]),
    ("quasitriangular-check", ["quasitriangular-check", "doc.hh", "--witness"]),
)


def _perturb(token):
    return str(Fraction(token) + 1)


def _mutations(text, rng):
    """Seeded one-token mutations of a document, as (label, what, text)."""
    lines = text.splitlines()
    stanzas = [i for i, line in enumerate(lines) if line.startswith("  ")]
    rows = [i for i in stanzas if ":" in lines[i]]
    out = []
    for kind in ("drop", "duplicate", "perturb", "count"):
        for i in sorted(rng.sample(rows if kind in ("perturb", "count") else stanzas, MUTATIONS_PER_KIND)):
            mutated = list(lines)
            tokens = lines[i].split()
            if kind == "drop":
                del mutated[i]
            elif kind == "duplicate":
                mutated.insert(i, lines[i])
            elif kind == "perturb":
                at = rng.randrange(tokens.index(":") + 1, len(tokens))
                tokens[at] = _perturb(tokens[at])
                mutated[i] = "  " + " ".join(tokens)
            else:
                mutated[i] = "  " + " ".join(tokens[:-1])
            what = f"{kind} line {i + 1}: {lines[i].strip()!r}"
            if kind in ("perturb", "count"):
                what += f" -> {mutated[i].strip()!r}"
            out.append((f"{kind}-{i + 1}", what, "\n".join(mutated) + "\n"))
    return out


def _third_mutations(text, rng):
    """Seeded mutations adding 1/3 to one coefficient, so the perturbed
    token is a non-integer rational, as (label, what, text)."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith("  ") and ":" in line]
    out = []
    for i in sorted(rng.sample(rows, RATIONAL_MUTATIONS)):
        tokens = lines[i].split()
        at = rng.randrange(tokens.index(":") + 1, len(tokens))
        tokens[at] = str(Fraction(tokens[at]) + Fraction(1, 3))
        mutated = list(lines)
        mutated[i] = "  " + " ".join(tokens)
        what = f"third line {i + 1}: {lines[i].strip()!r} -> {mutated[i].strip()!r}"
        out.append((f"third-{i + 1}", what, "\n".join(mutated) + "\n"))
    return out


def _coside_mutations(text, rng):
    """Seeded mutations adding 1 to two or three scalars of the COMULT rows
    and the COACTION MAP rows, as (label, what, text)."""
    lines = text.splitlines()
    scalars = []  # (line index, token index) of every eligible scalar
    block = ""
    for i, line in enumerate(lines):
        if not line.startswith("  "):
            block = line.split(" ")[0]
            continue
        tokens = line.split()
        if tokens[0] == "COMULT" or (block == "COACTION" and tokens[0] == "MAP"):
            scalars += [(i, at) for at in range(tokens.index(":") + 1, len(tokens))]
    out = []
    for number in range(COSIDE_MUTATIONS):
        picked = sorted(rng.sample(scalars, rng.choice((2, 3))))
        mutated = list(lines)
        for i, at in picked:
            tokens = mutated[i].split()
            tokens[at] = _perturb(tokens[at])
            mutated[i] = "  " + " ".join(tokens)
        changed = sorted({i for i, _ in picked})
        what = "; ".join(
            f"line {i + 1}: {lines[i].strip()!r} -> {mutated[i].strip()!r}" for i in changed
        )
        out.append((f"coside-{number}", what, "\n".join(mutated) + "\n"))
    return out


def _zero_hopf_rows(text):
    """Every TWIST and ANTIPODE row of HOPF H set to zero, one at a time,
    as (label, what, text)."""
    lines = text.splitlines()
    out = []
    block = ""
    for i, line in enumerate(lines):
        if not line.startswith("  "):
            block = line
            continue
        tokens = line.split()
        if block != "HOPF H" or tokens[0] not in ("TWIST", "ANTIPODE"):
            continue
        at = tokens.index(":") + 1
        mutated = list(lines)
        mutated[i] = "  " + " ".join(tokens[:at] + ["0"] * (len(tokens) - at))
        what = f"zero line {i + 1}: {line.strip()!r} -> {mutated[i].strip()!r}"
        out.append((f"zero-{i + 1}", what, "\n".join(mutated) + "\n"))
    return out


def _zero_carrier_twist_row(text, row):
    """TWIST `row` set to zero in both the ALGEBRA A and the COALGEBRA A
    block, as (label, what, text)."""
    lines = text.splitlines()
    mutated = list(lines)
    block = ""
    changed = []
    for i, line in enumerate(lines):
        if not line.startswith("  "):
            block = line
            continue
        tokens = line.split()
        if block in ("ALGEBRA A", "COALGEBRA A") and tokens[:2] == ["TWIST", row]:
            at = tokens.index(":") + 1
            mutated[i] = "  " + " ".join(tokens[:at] + ["0"] * (len(tokens) - at))
            changed.append(i)
    what = "; ".join(f"zero line {i + 1}: {lines[i].strip()!r} -> {mutated[i].strip()!r}" for i in changed)
    return f"carrier-twist-{row}-zero", what, "\n".join(mutated) + "\n"


def _slug(param):
    return param.replace("-", "m").replace("/", "_")


def cases():
    """Every case as (name, argv, document, source), in a fixed order.
    `document` is the text of the file `doc.hh` the argv reads, or None, and
    `source` says where that text comes from."""
    out = []
    for entry in CATALOG:
        for field in FIELDS:
            stem = f"{entry.identifier}-{field}"
            argv = ["catalog", "show", entry.identifier, "--field", field]
            out.append((f"catalog-show/{stem}", argv, None, None))
            argv = ["catalog", "check", entry.identifier, "--field", field, "--witness"]
            out.append((f"catalog-check/{stem}", argv, None, None))
    out.append(("subcommands/catalog-list", ["catalog", "list"], None, None))
    for entry in CATALOG:
        text = catalog_document(entry.identifier, cli._parse_field("Q"))
        source = f"catalog show {entry.identifier} --field Q"
        for suffix, argv in SUBCOMMANDS:
            out.append((f"subcommands/{entry.identifier}-{suffix}", argv, text, source))
    rng = random.Random(SEED)
    for ident, field in MUTATED:
        text = catalog_document(ident, cli._parse_field(field))
        for label, what, mutated in _mutations(text, rng):
            source = f"catalog show {ident} --field {field}, {what}"
            argv = ["check", "doc.hh", "--witness"]
            out.append((f"mutations/{ident}-{field}-{label}", argv, mutated, source))
    for entry in CATALOG:
        if entry.param is None:
            continue
        for param in RATIONAL_PARAMS:
            stem = f"{entry.identifier}-Q-param-{_slug(param)}"
            argv = ["catalog", "show", entry.identifier, "--field", "Q", f"--param={param}"]
            out.append((f"catalog-show/{stem}", argv, None, None))
            argv = ["catalog", "check", entry.identifier, "--field", "Q", f"--param={param}", "--witness"]
            out.append((f"catalog-check/{stem}", argv, None, None))
    param = RATIONAL_PARAMS[0]
    runs = dict(SUBCOMMANDS)
    rng = random.Random(RATIONAL_SEED)
    for ident in RATIONAL_DOCUMENTS:
        text = catalog_document(ident, cli._parse_field("Q"), Fraction(param))
        stem = f"{ident}-Q-param-{_slug(param)}"
        source = f"catalog show {ident} --field Q --param={param}"
        for suffix in RATIONAL_SUBCOMMANDS:
            out.append((f"subcommands/{stem}-{suffix}", runs[suffix], text, source))
        for label, what, mutated in _third_mutations(text, rng):
            argv = ["check", "doc.hh", "--witness"]
            out.append((f"mutations/{stem}-{label}", argv, mutated, f"{source}, {what}"))
    rng = random.Random(COSIDE_SEED)
    for ident in COSIDE_DOCUMENTS:
        for field in COSIDE_FIELDS:
            text = catalog_document(ident, cli._parse_field(field))
            source = f"catalog show {ident} --field {field}"
            for label, what, mutated in _coside_mutations(text, rng):
                for suffix, argv in COSIDE_RUNS:
                    name = f"mutations/{ident}-{field}-{label}-{suffix}"
                    out.append((name, argv, mutated, f"{source}, {what}"))
    for ident in ZERO_DOCUMENTS:
        text = catalog_document(ident, cli._parse_field("Q"))
        source = f"catalog show {ident} --field Q"
        for label, what, mutated in _zero_hopf_rows(text):
            for suffix in ZERO_SUBCOMMANDS:
                name = f"mutations/{ident}-Q-{label}-{suffix}"
                out.append((name, runs[suffix], mutated, f"{source}, {what}"))
    ident = CARRIER_ZERO_DOCUMENT
    text = catalog_document(ident, cli._parse_field("Q"))
    label, what, mutated = _zero_carrier_twist_row(text, CARRIER_ZERO_ROW)
    for suffix in CARRIER_ZERO_SUBCOMMANDS:
        name = f"mutations/{ident}-Q-{label}-{suffix}"
        out.append((name, runs[suffix], mutated, f"catalog show {ident} --field Q, {what}"))
    return out


def _run(argv, document):
    """Run the CLI in-process; return (stdout, stderr, exit code, emitted)."""
    with tempfile.TemporaryDirectory() as tmp:
        if document is not None:
            Path(tmp, "doc.hh").write_text(document, encoding="utf-8")
        emit = Path(tmp, "emit")
        full = [str(Path(tmp, a)) if a in ("doc.hh", "emit") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(full)
        emitted = emit.read_text(encoding="utf-8") if emit.exists() else None
        return out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>"), code, emitted


def record(argv, document, source):
    """The corpus text of one case."""
    stdout, stderr, code, emitted = _run(argv, document)
    head = f"$ homhopf {' '.join(argv)}\n"
    if source is not None:
        head += f"# doc.hh = {source}\n"
    text = f"{head}--- stdout\n{stdout}--- stderr\n{stderr}--- exit {code}\n"
    if emitted is not None:
        text += f"--- emitted\n{emitted}"
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(GOLDEN), help="corpus directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    written = 0
    for name, run_argv, document, source in cases():
        path = out / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(record(run_argv, document, source), encoding="utf-8")
        written += 1
    print(f"wrote {written} cases under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
