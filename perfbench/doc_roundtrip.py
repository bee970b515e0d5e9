"""doc-roundtrip: the command line on FORMAT 1 documents, in-process.

`homhopf.cli.main` runs with stdout and stderr captured, so interpreter
start and import are paid once per run (inside set-up) and each operation
measures parse, realize, check, render and write.  The inputs are small, so
the text format, the CLI, the catalog, the constructions, the braiding and
Fraction arithmetic carry the time, not the n^4 kernels.

One operation per round fails today and is counted as failed: `check` on a
bundle document whose acting twist is singular exits 1 with a usage error,
where it should report `twist.invertible FAIL` and exit 2.

The seed sets the order of the operations and the twists of the generated
KZ_n documents.
"""

import contextlib
import io
import os
import random

from homhopf import catalog, cli, fields, textfmt

from common import Incorrect, Op
from kz_ladder import involutions

NAME = "doc-roundtrip"
FIELDS = ("Q", "GF7")
CATALOG_PARAMS = {"Q": ("2", "-1/2", "3/2"), "GF7": ("3", "5")}
BUNDLE_DOCS = (
    ("dual-number-bundle", "Q", "2"),
    ("dual-number-bundle", "Q", "-1/2"),
    ("dual-number-bundle", "GF7", "3"),
    ("taft-bundle", "Q", "2"),
    ("taft-bundle", "Q", "-1/2"),
    ("taft-bundle", "GF7", "3"),
)
KZ_DOCS = (("GF7", 6), ("GF7", 8), ("GF7", 10), ("GF7", 12), ("GF7", 14), ("Q", 8))
COMULT_TABLES = {
    "taft-twisted": ("taft", catalog.taft_twisted_comult_table),
    "taft-bundle": ("A", catalog.taft_twisted_comult_table),
    "dual-number": ("A", catalog.dual_number_comult_table),
    "dual-number-bundle": ("A", catalog.dual_number_comult_table),
}
ANTIPODE_TABLES = {
    "taft-twisted": ("taft", lambda field, _: catalog.taft_antipode_table(field)),
    "taft-biproduct": ("biproduct", lambda field, _: catalog.taft_biproduct_antipode_table(field)),
    "dual-number-biproduct": (
        "biproduct",
        lambda field, _: catalog.dual_number_biproduct_antipode_table(field),
    ),
}
BIPRODUCT_ANTIPODES = {
    "taft-bundle": catalog.taft_biproduct_antipode_table,
    "dual-number-bundle": catalog.dual_number_biproduct_antipode_table,
}


def _field(token):
    return fields.QQ if token == "Q" else fields.GF(int(token[2:]))


class Result:
    """What one CLI invocation left: exit code, both streams, emitted files.

    The emitted files are read on first use, when the output is judged after
    its round, so the reading is not part of the timed operation."""

    def __init__(self, code, out, err, emits):
        self.code = code
        self.out = out
        self.err = err
        self.emits = emits
        self._emitted = None

    @property
    def emitted(self):
        if self._emitted is None:
            self._emitted = []
            for path in self.emits:
                with open(path, encoding="utf-8") as fh:
                    self._emitted.append((path, fh.read()))
        return self._emitted

    def describe(self):
        parts = [f"exit {self.code}", self.out, self.err]
        parts += [f"--- {os.path.basename(p)}\n{text}" for p, text in self.emitted]
        return "\n".join(parts)


def run_cli(argv, emits=()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return Result(code, out.getvalue(), err.getvalue(), emits)


def kz_document(field_token, n, s):
    """KZ_n twisted along i -> s*i, written from the group law."""
    basis = ["1"] + [f"g{i}" for i in range(1, n)]
    unit_row = lambda k: " ".join("1" if i == k else "0" for i in range(n))
    lines = [
        "FORMAT 1",
        "FIELD Q" if field_token == "Q" else f"FIELD GF {field_token[2:]}",
        f"HOPF kz{n}",
        f"  DIM {n}",
        "  BASIS " + " ".join(basis),
        "  UNIT " + unit_row(0),
        "  COUNIT " + " ".join(["1"] * n),
    ]
    lines += [f"  TWIST {j} : {unit_row((s * j) % n)}" for j in range(n)]
    lines += [f"  MULT {i} {j} : {unit_row((s * (i + j)) % n)}" for i in range(n) for j in range(n)]
    for i in range(n):
        t = (s * i) % n
        row = " ".join("1" if r == t * n + t else "0" for r in range(n * n))
        lines.append(f"  COMULT {i} : {row}")
    lines += [f"  ANTIPODE {j} : {unit_row((-j) % n)}" for j in range(n)]
    lines.append("END")
    return "\n".join(lines) + "\n"


def _edit_block(text, header, old, new):
    """Replace one stanza line inside the block that starts with `header`."""
    lines = text.split("\n")
    start = lines.index(header)
    end = lines.index("END", start)
    at = lines.index(old, start, end)
    lines[at] = new
    return "\n".join(lines)


def build(seed):
    """Write every input document under out/ and return where they are."""
    rng = random.Random(seed)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", NAME)
    os.makedirs(out_dir, exist_ok=True)

    def write(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    bundles = []
    for ident, field_token, param in BUNDLE_DOCS:
        field = _field(field_token)
        text = textfmt.catalog_document(ident, field, field.parse(param))
        stem = f"{ident}-{field_token}-{param.replace('/', '_')}"
        bundles.append((ident, field_token, param, stem, write(f"{stem}.hh", text)))
    kz = []
    for field_token, n in KZ_DOCS:
        s = rng.choice(involutions(n))
        path = write(f"kz{n}-{field_token}.hh", kz_document(field_token, n, s))
        kz.append((field_token, n, s, path))
    rmatrix = [
        write(f"kz2-rmatrix-{t}.hh", textfmt.catalog_document("kz2-rmatrix", _field(t)))
        for t in FIELDS
    ]
    base = textfmt.catalog_document("dual-number-bundle", fields.QQ, fields.QQ.parse("2"))
    singular = write(
        "singular-twist.hh", _edit_block(base, "HOPF H", "  TWIST 1 : 0 1", "  TWIST 1 : 0 0")
    )
    ungraded = write(
        "ungraded-coaction.hh",
        _edit_block(base, "COACTION yd", "  MAP 1 : 0 0 0 2", "  MAP 1 : 0 2 0 0"),
    )
    return {
        "seed": seed,
        "out_dir": out_dir,
        "bundles": bundles,
        "kz": kz,
        "rmatrix": rmatrix,
        "singular": singular,
        "ungraded": ungraded,
    }


def ops(inputs):
    """The operation set of one round.  Each bundle document's chain runs in
    order (the emitted files feed the next step); the seed shuffles chains."""
    out_dir = inputs["out_dir"]
    chains = []

    def op(label, argv, kind, emits=(), **subject):
        subject["kind"] = kind
        return Op(label, lambda: run_cli(argv, emits), subject)

    for entry in catalog.CATALOG:
        for field_token in FIELDS:
            params = CATALOG_PARAMS[field_token] if entry.param else (None,)
            for param in params:
                # one token, so that argparse does not read "-1/2" as an option
                extra = [f"--param={param}"] if param else []
                for action in ("show", "check"):
                    argv = ["catalog", action, entry.identifier, "--field", field_token] + extra
                    chains.append([op(" ".join(argv), argv, f"catalog-{action}",
                                      ident=entry.identifier, field=field_token, param=param)])
    for ident, field_token, param, stem, path in inputs["bundles"]:
        info = dict(ident=ident, field=field_token, param=param)
        biproduct = os.path.join(out_dir, f"{stem}-biproduct.hh")
        hopf = os.path.join(out_dir, f"{stem}-antipode.hh")
        chains.append([
            op(f"check {stem}", ["check", path], "check", **info),
            op(f"construct biproduct {stem}",
               ["construct", "biproduct", path, "--emit", biproduct], "emit", (biproduct,), **info),
            op(f"antipode {stem}", ["antipode", path, "--emit", hopf], "antipode", (hopf,), **info),
            op(f"check {stem}-antipode", ["check", hopf], "check", **info),
            op(f"braiding-test {stem}", ["braiding-test", path, "--modules", "yd", "yd"], "check"),
            op(f"ybe-test {stem}", ["ybe-test", path, "--modules", "yd", "yd", "yd"], "check"),
        ])
    for path in inputs["rmatrix"]:
        name = os.path.basename(path)
        argv = ["quasitriangular-check", path]
        chains.append([op(f"quasitriangular-check {name}", argv, "check")])
    for field_token, n, s, path in inputs["kz"]:
        chains.append([op(f"check kz{n} {field_token} s={s}", ["check", path], "check")])
    chains.append([op("construct biproduct ungraded-coaction",
                      ["construct", "biproduct", inputs["ungraded"]], "refused")])
    chains.append([op("check singular-twist", ["check", inputs["singular"]], "singular")])
    random.Random(inputs["seed"]).shuffle(chains)
    return [step for chain in chains for step in chain]


def verify_inputs(inputs):
    """The generated KZ_n documents must render canonically, so that a parse
    that drops or reorders a stanza cannot pass unseen."""
    for _, _, _, path in inputs["kz"]:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if textfmt.render_parsed(textfmt.parse_document(text)) != text:
            raise Incorrect(f"{path} is not in canonical form")


def judge(inputs, op, result):
    """Exit codes, verdict lines, emitted round trips and the printed tables.

    Returns True for the one operation that fails today."""
    kind = op.subject["kind"]
    if kind == "singular":
        return not (result.code == 2 and any(
            words[:1] and words[0].endswith("twist.invertible") and words[1:2] == ["FAIL"]
            for words in map(str.split, result.out.splitlines())
        ))
    if kind == "refused":
        if result.code != 2 or not result.err.startswith("refused: biproduct gate fails: R4"):
            raise Incorrect(f"{op.label}: exit {result.code}, {result.err[:80]!r}; must refuse")
        return False
    if result.code != 0:
        raise Incorrect(f"{op.label}: exit {result.code}: {result.err.strip()[:200]}")
    if kind == "catalog-show":
        _round_trips(op, result.out)
        _compare_tables(op, result.out)
        return False
    lines = result.out.splitlines()
    if kind in ("check", "catalog-check") and lines[-1:] != ["OVERALL PASS"]:
        raise Incorrect(f"{op.label}: last line {lines[-1:]}")
    if kind in ("emit", "antipode"):
        if "OVERALL PASS" not in lines:
            raise Incorrect(f"{op.label}: gates did not all pass")
        for _, text in result.emitted:
            _round_trips(op, text)
    if kind == "antipode":
        field = _field(op.subject["field"])
        table = BIPRODUCT_ANTIPODES[op.subject["ident"]](field)
        (_, text), = result.emitted
        got = _tables(text, field)["biproduct"][1]
        if got != table:
            raise Incorrect(f"{op.label}: antipode {got} differs from the printed table {table}")
    return False


def _round_trips(op, text):
    again = textfmt.render_parsed(textfmt.parse_document(text))
    if again != text:
        raise Incorrect(f"{op.label}: emitted text does not re-render to itself")


def _compare_tables(op, text):
    ident, token, param = op.subject["ident"], op.subject["field"], op.subject["param"]
    field = _field(token)
    value = field.parse(param) if param else None
    tables = _tables(text, field)
    checks = []
    if ident in COMULT_TABLES:
        block, make = COMULT_TABLES[ident]
        checks.append(("coproduct", tables[block][0], make(field, value)))
    if ident in ANTIPODE_TABLES:
        block, make = ANTIPODE_TABLES[ident]
        checks.append(("antipode", tables[block][1], make(field, value)))
    for what, got, want in checks:
        if got != want:
            raise Incorrect(f"{op.label}: {what} {got} differs from the printed table {want}")


def _tables(text, field):
    """{block name: (coproduct table, antipode table)} read straight from the
    document text, labelled as the catalog's printed tables are."""
    found = {}
    labels = comult = antipode = name = None
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] in ("HOPF", "BIALGEBRA", "ALGEBRA", "COALGEBRA"):
            name, labels = words[1], None
            comult, antipode = found.get(name, ({}, {}))
        elif words[0] == "BASIS":
            labels = words[1:]
        elif words[0] == "COMULT":
            values = [field.parse(w) for w in words[3:]]
            n = len(labels)
            comult[labels[int(words[1])]] = {
                (labels[r // n], labels[r % n]): v for r, v in enumerate(values) if v != field.zero
            }
        elif words[0] == "ANTIPODE":
            values = [field.parse(w) for w in words[3:]]
            antipode[labels[int(words[1])]] = {
                labels[i]: v for i, v in enumerate(values) if v != field.zero
            }
        elif words[0] == "END" and name is not None:
            found[name] = (comult, antipode)
            name = None
    return found


def describe(result):
    return result.describe()
