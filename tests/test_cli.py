import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhopf import cli, matrices
from homhopf.cli import main
from homhopf.fields import PRIME_BOUND
from homhopf.textfmt import (
    catalog_document,
    parse_document,
    realize,
    render_matrix_rows,
    render_parsed,
)
from homhopf import GF, Matrix, QQ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_on_exported_catalog_file(tmp_path, capsys):
    path = tmp_path / "taft.hh"
    path.write_text(catalog_document("taft-twisted", QQ, QQ.coerce(2)), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    assert "OVERALL PASS" in out
    assert err == ""


def test_check_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "bundle.hh"
    path.write_text(catalog_document("dual-number-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    code1, out1, _ = run(capsys, "check", str(path))
    code2, out2, _ = run(capsys, "check", str(path))
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_check_failure_exits_2(tmp_path, capsys):
    text = catalog_document("taft-twisted", QQ, QQ.coerce(2))
    broken = text.replace("ANTIPODE 2 : 0 0 0 1", "ANTIPODE 2 : 0 0 1 0")
    path = tmp_path / "broken.hh"
    path.write_text(broken, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "OVERALL FAIL" in out


def test_witness_flag_prints_counterexamples(tmp_path, capsys):
    text = catalog_document("taft-twisted", QQ, QQ.coerce(2))
    broken = text.replace("ANTIPODE 2 : 0 0 0 1", "ANTIPODE 2 : 0 0 1 0")
    path = tmp_path / "broken.hh"
    path.write_text(broken, encoding="utf-8")
    _, plain, _ = run(capsys, "check", str(path))
    _, witnessed, _ = run(capsys, "check", str(path), "--witness")
    assert "[at " not in plain
    assert "[at " in witnessed


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/nope.hh")
    assert code == 1
    assert "error:" in err


def test_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.hh"
    path.write_text("FORMAT 1\nFIELD GF 4\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "not prime" in err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_construct_biproduct_and_antipode(tmp_path, capsys):
    src = tmp_path / "bundle.hh"
    src.write_text(catalog_document("dual-number-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    out_path = tmp_path / "biproduct.hh"
    code, out, _ = run(capsys, "construct", "biproduct", str(src), "--emit", str(out_path))
    assert code == 0
    assert "constructed BIALGEBRA" in out
    emitted = out_path.read_text(encoding="utf-8")
    real = realize(parse_document(emitted))
    assert ("BIALGEBRA", "constructed") in real.structures

    hopf_path = tmp_path / "biproduct_hopf.hh"
    code, out, _ = run(capsys, "antipode", str(src), "--emit", str(hopf_path))
    assert code == 0
    assert "S(z⊗1) = z⊗a" in out
    assert "S(z⊗a) = -z⊗1" in out
    code, out, _ = run(capsys, "check", str(hopf_path))
    assert code == 0


def test_construct_gate_refusal_exits_2(tmp_path, capsys):
    text = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
    # break the coaction grading so the R4 gate refuses the biproduct
    broken = text.replace("MAP 1 : 0 0 0 2", "MAP 1 : 0 2 0 0")
    src = tmp_path / "bundle.hh"
    src.write_text(broken, encoding="utf-8")
    code, _, err = run(capsys, "construct", "biproduct", str(src))
    assert code == 2
    assert "refused" in err


def test_construct_smash_and_tsmash(tmp_path, capsys):
    src = tmp_path / "bundle.hh"
    src.write_text(catalog_document("taft-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    code, out, _ = run(capsys, "construct", "smash", str(src), "--name", "sm")
    assert code == 0 and "constructed ALGEBRA sm (dim 8)" in out
    code, out, _ = run(capsys, "construct", "cosmash", str(src))
    assert code == 0
    code, out, _ = run(capsys, "construct", "tsmash", str(src), "--t", "coaction")
    assert code == 0


def test_braiding_and_ybe(tmp_path, capsys):
    src = tmp_path / "bundle.hh"
    src.write_text(catalog_document("dual-number-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    mat_path = tmp_path / "c.mat"
    code, out, _ = run(capsys, "braiding-test", str(src), "--modules", "yd", "yd",
                       "--emit-matrix", str(mat_path))
    assert code == 0
    assert "inverse.left" in out
    rows = mat_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 4
    code, out, _ = run(capsys, "ybe-test", str(src), "--modules", "yd", "yd", "yd")
    assert code == 0
    assert "HYBE" in out


def test_quasitriangular_check(tmp_path, capsys):
    src = tmp_path / "r.hh"
    src.write_text(catalog_document("kz2-rmatrix", QQ), encoding="utf-8")
    code, out, _ = run(capsys, "quasitriangular-check", str(src))
    assert code == 0
    assert "agreement" in out


def test_catalog_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "kz2-rmatrix" in out
    code, out1, _ = run(capsys, "catalog", "show", "taft-biproduct", "--param", "2")
    assert code == 0
    code, out2, _ = run(capsys, "catalog", "show", "taft-biproduct", "--param", "2")
    assert out1 == out2
    code, out, _ = run(capsys, "catalog", "check", "dual-number-biproduct",
                       "--field", "GF7", "--param", "3")
    assert code == 0
    assert "OVERALL PASS" in out
    code, _, err = run(capsys, "catalog", "check", "nope")
    assert code == 1
    code, _, err = run(capsys, "catalog", "check")
    assert code == 1


def test_catalog_rmatrix_refused_over_gf2(capsys):
    code, _, err = run(capsys, "catalog", "check", "kz2-rmatrix", "--field", "GF2")
    assert code == 2
    assert "refused" in err


def _singular_twist_bundle(tmp_path, old):
    """The dual-number bundle with every `old` row 1 zeroed."""
    text = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
    assert old in text
    path = tmp_path / "singular.hh"
    path.write_text(text.replace(old, old.split(":")[0] + ": 0 0\n"), encoding="utf-8")
    return path


def test_pair_antipode_report_survives_differing_twists(tmp_path, capsys):
    # an ALGEBRA and a COALGEBRA of one name form no bialgebra when their
    # twists differ, and their paired antipode identities are still reported
    text = catalog_document("dual-number", QQ, QQ.coerce(2))
    head, coalgebra = text.split("COALGEBRA A\n")
    path = tmp_path / "pair.hh"
    path.write_text(
        head + "COALGEBRA A\n" + coalgebra.replace("TWIST 1 : 0 2", "TWIST 1 : 0 3"),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (2, "")
    assert "== PAIR A: antipode identities" in out
    verdicts = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    for name in ("left", "right", "twist"):
        assert f"carrier-antipode.{name}" in verdicts


def test_singular_acting_twist_is_reported(tmp_path, capsys):
    path = _singular_twist_bundle(tmp_path, "  TWIST 1 : 0 1\n")  # the HOPF block's
    code, out, err = run(capsys, "check", str(path), "--witness")
    assert code == 2
    assert err == ""
    verdicts = [line.split()[:2] for line in out.splitlines()]
    assert ["algebra.twist.invertible", "FAIL"] in verdicts
    assert ["twist.invertible", "FAIL"] in verdicts  # the antipode form cannot twist back
    assert out.splitlines()[-1] == "OVERALL FAIL"
    for command in (["construct", "biproduct"], ["antipode"]):
        code, _, err = run(capsys, *command, str(path))
        assert code == 2
        assert err.startswith("refused:")


def test_singular_carrier_twist_refuses_the_biproduct(tmp_path, capsys):
    path = _singular_twist_bundle(tmp_path, "  TWIST 1 : 0 2\n")  # ALGEBRA and COALGEBRA A
    code, _, _ = run(capsys, "check", str(path))
    assert code == 2
    for command in (["construct", "biproduct"], ["antipode"]):
        code, _, err = run(capsys, *command, str(path))
        assert code == 2
        assert err.startswith("refused: biproduct gate fails:")
        assert "R4  FAIL  [carrier twist is singular]" in err


def test_singular_acting_twist_refuses_the_flip_tsmash(tmp_path, capsys):
    # C2 untwists by beta^-1
    path = _singular_twist_bundle(tmp_path, "  TWIST 1 : 0 1\n")  # the HOPF block's
    code, out, err = run(capsys, "construct", "tsmash", str(path), "--t", "flip", "--witness")
    assert code == 2
    assert out == ""
    assert err.startswith("refused: twist-map coproduct gate fails:")
    assert "  twist.invertible  FAIL  [twist matrix is singular]" in err.splitlines()


@pytest.mark.parametrize("block", ["RMATRIX", "FORM"])
def test_singular_acting_twist_is_reported_by_the_equivalences(tmp_path, capsys, block):
    # the induced coaction and the induced action twist by beta^-3
    text = catalog_document("kz2-rmatrix", QQ)
    assert "  TWIST 1 : 0 1\n" in text  # the HOPF block's
    text = text.replace("  TWIST 1 : 0 1\n", "  TWIST 1 : 0 0\n")
    if block == "FORM":
        head = text[: text.index("RMATRIX R")]
        text = head + "FORM R\n  ON H\n  COEFF 0 : 1 1\n  COEFF 1 : 1 -1\nEND\n"
    path = tmp_path / "singular.hh"
    path.write_text(text, encoding="utf-8")
    commands = ["quasitriangular-check", "check"] if block == "FORM" else ["quasitriangular-check"]
    for command in commands:
        code, out, err = run(capsys, command, str(path), "--witness")
        assert (code, err) == (2, "")
        assert f"== {block} R: " in out
        assert "  twist.invertible  FAIL  [twist matrix is singular]" in out.splitlines()
        assert out.splitlines()[-1] == "OVERALL FAIL"


@pytest.mark.parametrize(
    "old, verdict",
    [
        ("  TWIST 1 : 0 1\n", "twist.invertible"),
        ("  TWIST 1 : 0 2\n", "yd.twist.invertible"),
        ("  ANTIPODE 1 : 0 1\n", "antipode.invertible"),
    ],
    ids=["acting", "carrier", "antipode"],
)
def test_braiding_test_reports_a_singular_twist(tmp_path, capsys, old, verdict):
    # the tensor coactions twist back by beta^-2, the braiding by alpha^-1
    # and its inverse by S^-1
    path = _singular_twist_bundle(tmp_path, old)
    code, out, err = run(capsys, "braiding-test", str(path), "--modules", "yd", "yd", "--witness")
    assert code == 2
    assert err == ""
    verdicts = [line.split(maxsplit=2) for line in out.splitlines()]
    singular = f"[{old.split()[0].lower()} matrix is singular]"
    assert [verdict, "FAIL", singular] in verdicts
    assert out.splitlines()[-1] == "OVERALL FAIL"


def test_braiding_test_inverts_the_antipode_once(tmp_path, capsys):
    # the antipode pre-check is the braiding inverse's own S^-1
    path = tmp_path / "bundle.hh"
    path.write_text(catalog_document("taft-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    loaded, inverted, load, inverse = [], [], cli._load, Matrix.inverse

    def recorded_load(name):
        loaded.append(load(name))
        return loaded[-1]

    def recorded_inverse(m):
        inverted.append(m)
        return inverse(m)

    with (
        mock.patch.object(cli, "_load", recorded_load),
        mock.patch.object(Matrix, "inverse", recorded_inverse),
        mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve,
    ):
        code, out, _ = run(capsys, "braiding-test", str(path), "--modules", "yd", "yd")
    assert (code, out.splitlines()[-1]) == (0, "OVERALL PASS")
    hopf = loaded[0].structures[("HOPF", "H")]
    # H's twist and antipode are both the identity, realized as the
    # process-wide identity, which an earlier test may have inverted
    assert hopf.twist is hopf.antipode is Matrix.identity(QQ, 2)
    # one request for beta^-1 (the twist check) and one for S^-1
    assert [m is hopf.antipode for m in inverted].count(True) == 2
    solved = [c.args[0] for c in solve.call_args_list]
    assert sum(a is not hopf.twist for a in solved) == 1  # the module twist


def test_check_inverts_a_carriers_shared_twist_once(tmp_path, capsys):
    # the ALGEBRA and COALGEBRA blocks of A give equal twists, realized as one
    # object, which keeps its inverse for the checks of both
    path = tmp_path / "dual.hh"
    path.write_text(catalog_document("dual-number", QQ, QQ.coerce(2)), encoding="utf-8")
    with mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve:
        code, out, _ = run(capsys, "check", str(path))
    assert (code, out.splitlines()[-1]) == (0, "OVERALL PASS")
    assert solve.call_count == 1


def test_a_second_check_inverts_only_the_carriers_twist(tmp_path, capsys):
    # HOPF H's identity twist realizes as the process-wide identity, which
    # keeps its inverse; the carrier's twist is a new object in every run
    path = tmp_path / "bundle.hh"
    path.write_text(catalog_document("dual-number-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    assert run(capsys, "check", str(path))[0] == 0
    with mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve:
        code, out, _ = run(capsys, "check", str(path))
    assert (code, out.splitlines()[-1]) == (0, "OVERALL PASS")
    assert solve.call_count == 1


def test_ybe_test_refuses_a_module_that_is_not_yetter_drinfeld(tmp_path, capsys):
    # with a singular acting twist, HM1 fails for every module
    path = _singular_twist_bundle(tmp_path, "  TWIST 1 : 0 1\n")  # the HOPF block's
    emitted = tmp_path / "tau.mat"
    argv = ["ybe-test", str(path), "--modules", "yd", "yd", "yd", "--emit-matrix", str(emitted)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[:2] == [
        "refused: Yetter-Drinfeld module invalid: HM1",
        "== module axioms [yd]",
    ]
    assert not emitted.exists()


def test_ybe_test_emits_the_tau_its_check_built(tmp_path, capsys):
    # the three operators of the check, and no fourth for --emit-matrix
    from homhopf import braided

    path = tmp_path / "bundle.hh"
    path.write_text(catalog_document("dual-number-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    emitted = tmp_path / "tau.mat"
    argv = ["ybe-test", str(path), "--modules", "yd", "yd", "yd", "--emit-matrix", str(emitted)]
    original = braided.yang_baxter_operator
    with contextlib.ExitStack() as stack:
        spies = [  # wherever the library binds it
            stack.enter_context(mock.patch.object(module, "yang_baxter_operator", wraps=original))
            for module in (braided, cli) if getattr(module, "yang_baxter_operator", None) is original
        ]
        code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (0, "OVERALL PASS")
    assert sum(spy.call_count for spy in spies) == 3
    module = realize(parse_document(path.read_text(encoding="utf-8"))).structures
    yd = braided.YDModule(module[("ACTION", "yd")], module[("COACTION", "yd")], check=False)
    tau = braided.yang_baxter_operator(yd, yd)
    assert emitted.read_text(encoding="utf-8") == render_matrix_rows(tau)


def test_emit_to_unwritable_path_is_an_error(tmp_path, capsys):
    src = tmp_path / "bundle.hh"
    src.write_text(catalog_document("dual-number-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    target = tmp_path / "missing" / "x.hh"
    code, out, err = run(capsys, "construct", "biproduct", str(src), "--emit", str(target))
    assert code == 1
    assert "OVERALL PASS" in out
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    code, _, err = run(capsys, "braiding-test", str(src), "--modules", "yd", "yd",
                       "--emit-matrix", str(target))
    assert code == 1
    assert err.startswith(f"error: cannot write {target}: ")


# Every command that writes a file, with "{src}" for the bundle document; the
# target path follows the last token.
_EMITTERS = {
    "construct": ("construct", "biproduct", "{src}", "--emit"),
    "antipode": ("antipode", "{src}", "--emit"),
    "catalog-show": ("catalog", "show", "dual-number-bundle", "--param", "2", "--emit"),
    "braiding-test": ("braiding-test", "{src}", "--modules", "yd", "yd", "--emit-matrix"),
}


def _emit_argv(tmp_path, command, target):
    src = tmp_path / "bundle.hh"
    if not src.exists():
        src.write_text(catalog_document("dual-number-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    return [str(src) if token == "{src}" else token for token in _EMITTERS[command]] + [str(target)]


@pytest.mark.parametrize("command", sorted(_EMITTERS))
def test_re_emit_over_an_existing_file_matches_a_fresh_emit(tmp_path, capsys, command):
    fresh = tmp_path / "fresh.out"
    first = run(capsys, *_emit_argv(tmp_path, command, fresh))
    assert (first[0], first[2]) == (0, "")
    expected = fresh.read_bytes()
    for k, old in enumerate((expected * 3 + b"left over\n", expected[: len(expected) // 2])):
        target = tmp_path / f"again{k}.out"
        target.write_bytes(old)
        assert run(capsys, *_emit_argv(tmp_path, command, target)) == first
        assert target.read_bytes() == expected


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("command", sorted(_EMITTERS))
def test_emit_to_dev_null_exits_0(tmp_path, capsys, command):
    code, _, err = run(capsys, *_emit_argv(tmp_path, command, "/dev/null"))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", sorted(_EMITTERS))
def test_emit_to_a_directory_is_an_error(tmp_path, capsys, command):
    code, _, err = run(capsys, *_emit_argv(tmp_path, command, tmp_path))
    assert code == 1
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_emit_closes_the_descriptor_when_wrapping_it_fails(tmp_path, capsys):
    real_open, fds = os.open, []

    def spy(*args):
        fds.append(real_open(*args))
        return fds[-1]

    target = tmp_path / "kz2.hh"
    with mock.patch.object(cli.os, "open", spy), \
            mock.patch.object(cli, "open", side_effect=OSError("no file object"), create=True):
        code, _, err = run(capsys, "catalog", "show", "kz2", "--emit", str(target))
    assert (code, err) == (1, f"error: cannot write {target}: no file object\n")
    with pytest.raises(OSError):
        os.fstat(fds[0])


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_emit_to_stdout_through_a_pipe(tmp_path):
    argv = _emit_argv(tmp_path, "construct", "/dev/stdout")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)  # stdout into a pipe is block-buffered
    proc = subprocess.run([sys.executable, "-m", "homhopf", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, timeout=60, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode("utf-8").splitlines()[-1] == "END"


_FUZZ_DOCUMENTS = tuple(
    catalog_document(ident, field, field.coerce(2))
    for ident in ("dual-number-bundle", "taft-bundle")
    for field in (QQ, GF(7))
)


_WRONG_COUNTS = ("extend", "shorten", "dim")  # mutations that leave a count wrong


def _mutate(text, line, how, token):
    """Drop or duplicate one line below the FORMAT/FIELD header; put `token`
    in place of the last scalar of one matrix row, append it to the row, or
    drop the row's last scalar; set every scalar of one matrix, UNIT or
    COUNIT row to zero; or raise one DIM n to n+1."""
    lines = text.splitlines(keepends=True)
    if how in ("perturb", "extend", "shorten"):
        rows = [i for i, row in enumerate(lines) if " : " in row]
        i = rows[line % len(rows)]
        kept = lines[i].rstrip("\n")
        if how != "extend":
            kept = kept.rsplit(" ", 1)[0]
        lines[i] = kept + ("" if how == "shorten" else f" {token}") + "\n"
    elif how == "dim":
        dims = [i for i, row in enumerate(lines) if row.lstrip().startswith("DIM ")]
        i = dims[line % len(dims)]
        head, n = lines[i].rsplit(" ", 1)
        lines[i] = f"{head} {int(n) + 1}\n"
    elif how == "zero":
        rows = [i for i, row in enumerate(lines)
                if " : " in row or row.lstrip().startswith(("UNIT ", "COUNIT "))]
        i = rows[line % len(rows)]
        words = lines[i].split()
        at = words.index(":") + 1 if ":" in words else 1
        lines[i] = "  " + " ".join(words[:at] + ["0"] * (len(words) - at)) + "\n"
    else:
        i = 2 + line % (len(lines) - 2)
        lines[i:i + 1] = [] if how == "drop" else [lines[i]] * 2
    return "".join(lines)


def _quiet_main(*argv):
    """`run` without capsys, which hypothesis cannot reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Every subcommand that reads a document, with "{src}" for it; an emitting
# one ends in its emit option.
_FUZZ_COMMANDS = (
    ("check", "{src}"),
    ("construct", "smash", "{src}", "--emit"),
    ("construct", "cosmash", "{src}", "--emit"),
    ("construct", "tsmash", "{src}", "--emit"),
    ("construct", "tsmash", "{src}", "--t", "flip", "--emit"),
    ("construct", "biproduct", "{src}", "--emit"),
    ("antipode", "{src}", "--emit"),
    ("braiding-test", "{src}", "--modules", "yd", "yd", "--emit-matrix"),
    ("ybe-test", "{src}", "--modules", "yd", "yd", "yd", "--emit-matrix"),
    ("quasitriangular-check", "{src}"),
)


@settings(max_examples=900, deadline=None, derandomize=True, database=None)
@given(
    doc=st.sampled_from(_FUZZ_DOCUMENTS),
    line=st.integers(min_value=0, max_value=10**4),
    how=st.sampled_from(("drop", "duplicate", "perturb", "zero") + _WRONG_COUNTS),
    token=st.sampled_from(("0", "1", "-1", "2", "1/2", "x")),
    command=st.sampled_from(_FUZZ_COMMANDS),
)
def test_mutated_documents_exit_cleanly_and_emit_round_trips(fuzz_dir, doc, line, how, token, command):
    # A new source file per example, since truncating an old one can wait on
    # the disk; one target for all, so an emit also lands on the previous
    # example's file, which may be longer or shorter.
    fd, src = tempfile.mkstemp(suffix=".hh", dir=fuzz_dir)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(_mutate(doc, line, how, token))
    target = fuzz_dir / "emitted.out"
    argv = [src if word == "{src}" else word for word in command]
    emits = argv[-1].startswith("--emit")
    if emits:
        argv.append(str(target))
    first = _quiet_main(*argv)
    code, err = first[0], first[2]
    assert code in (0, 1, 2) and "Traceback" not in err
    assert not (code == 1 and "singular" in err), err  # a singular map is a math refusal
    if how in _WRONG_COUNTS:  # a wrong count is refused as the input it is
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    emitted = target.read_text(encoding="utf-8") if emits and code == 0 else None
    assert _quiet_main(*argv) == first
    if emitted is not None:
        assert target.read_text(encoding="utf-8") == emitted
        if command[0] in ("construct", "antipode"):
            assert render_parsed(parse_document(emitted)) == emitted


@pytest.mark.parametrize("action", ["show", "check"])
def test_signed_param_as_separate_token(capsys, action):
    glued = run(capsys, "catalog", action, "dual-number", "--param=-1/2")
    spaced = run(capsys, "catalog", action, "dual-number", "--param", "-1/2")
    assert glued[0] == 0
    assert spaced == glued
    if action == "show":
        assert "TWIST 1 : 0 -1/2" in spaced[1]


def test_parser_is_built_once_per_process(capsys):
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as spy:
        assert run(capsys, "catalog", "list")[0] == 0
        assert run(capsys, "catalog", "check", "kz2")[0] == 0
        assert run(capsys, "catalog", "bogus")[0] == 1
    assert spy.call_count == 1


def test_usage_error_leaves_the_parser_as_it_was(capsys):
    cli._parser.cache_clear()
    alone = run(capsys, "catalog", "check", "dual-number", "--witness")
    cli._parser.cache_clear()
    error = run(capsys, "catalog", "check", "dual-number", "--param")
    assert error[0] == 1 and error[2].startswith("error: ")
    after = run(capsys, "catalog", "check", "dual-number", "--witness")
    assert after == alone


def test_large_prime_modulus_is_accepted(capsys):
    code, out, err = run(capsys, "catalog", "check", "kz2", "--field", "GF2305843009213693951")
    assert code == 0
    assert out.splitlines()[-1] == "OVERALL PASS"
    assert err == ""


def test_modulus_beyond_the_primality_bound_is_refused(tmp_path, capsys):
    code, out, err = run(capsys, "catalog", "check", "kz2", "--field", f"GF{PRIME_BOUND}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(PRIME_BOUND) in err
    doc = catalog_document("kz2", QQ).replace("FIELD Q", f"FIELD GF {10**30 + 57}")
    path = tmp_path / "big.hh"
    path.write_text(doc, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: ") and str(PRIME_BOUND) in err


def test_check_evaluates_yetter_drinfeld_once_per_pair(tmp_path, capsys):
    from homhopf import actions

    path = tmp_path / "bundle.hh"
    path.write_text(catalog_document("taft-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    with mock.patch.object(actions, "hyd_lhs_matrix", wraps=actions.hyd_lhs_matrix) as spy:
        code, out, _ = run(capsys, "check", str(path))
    assert (code, out.splitlines()[-1]) == (0, "OVERALL PASS")
    assert spy.call_count == 1


_TWO_DIM_ALGEBRA = """FORMAT 1
FIELD Q
ALGEBRA A
  DIM 2
  UNIT 1 0
  MULT 0 0 : 1 0
{row}
END
"""


@pytest.mark.parametrize(
    "row, message",
    [
        ("  MULT 1 -1 : 0 5", "error: line 7: index (1, -1) is negative\n"),
        ("  TWIST -1 : 0 5", "error: line 7: index (-1,) is negative\n"),
    ],
)
def test_negative_stanza_index_is_refused_at_parse(tmp_path, capsys, row, message):
    path = tmp_path / "negative.hh"
    path.write_text(_TWO_DIM_ALGEBRA.format(row=row), encoding="utf-8")
    assert run(capsys, "check", str(path)) == (1, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "show", "kz2", "--param=abc"),
        ("catalog", "check", "kz2-rmatrix", "--param=1/2"),
        ("catalog", "check", "kz2", "--param", "-1", "--field", "GF7"),
    ],
)
def test_param_on_an_entry_without_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: catalog entry {argv[2]!r} takes no --param\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("catalog", "list", "--param=abc", "--field", "GF4"), "takes no --param (got 'abc')"),
        (("catalog", "list", "kz2"), "takes no entry id (got 'kz2')"),
        (("catalog", "list", "--field", "Q"), "takes no --field (got 'Q')"),
        (("catalog", "list", "--witness"), "takes no --witness"),
    ],
)
def test_catalog_list_refuses_what_it_does_not_read(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: catalog list {message}\n")


def test_catalog_list_refuses_emit_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "list.hh"
    code, out, err = run(capsys, "catalog", "list", "--emit", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: catalog list takes no --emit (got {str(path)!r})\n"
    assert not path.exists()


@pytest.mark.parametrize("action", ["show", "check"])
def test_catalog_field_defaults_to_q(capsys, action):
    assert run(capsys, "catalog", action, "dual-number") == run(
        capsys, "catalog", action, "dual-number", "--field", "Q"
    )


_BUNDLE = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))


def _bundle_file(tmp_path, text=_BUNDLE):
    path = tmp_path / "bundle.hh"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _edit_blocks(text, edit):
    """The document with each block, a list of lines, replaced by the list of
    blocks `edit(block)` returns."""
    lines = text.splitlines(keepends=True)
    out, block = lines[:2], []
    for line in lines[2:]:
        block.append(line)
        if line == "END\n":
            out += [new_line for new in edit(block) for new_line in new]
            block = []
    return "".join(out)


_SELECTING = [
    (("construct", "smash"), ("--carrier", "A", "--hopf", "H", "--action", "yd")),
    (("construct", "cosmash"), ("--carrier", "A", "--hopf", "H", "--coaction", "yd")),
    (("construct", "tsmash"), ("--carrier", "A", "--hopf", "H", "--coaction", "yd")),
    (("construct", "biproduct"), ("--carrier", "A", "--hopf", "H", "--action", "yd",
                                  "--coaction", "yd")),
    (("antipode",), ("--carrier", "A", "--hopf", "H", "--action", "yd", "--coaction", "yd")),
]


@pytest.mark.parametrize("command, selectors", _SELECTING, ids=[" ".join(c) for c, _ in _SELECTING])
def test_named_selectors_pick_the_blocks_found_alone(tmp_path, capsys, command, selectors):
    src = _bundle_file(tmp_path)
    plain = run(capsys, *command, src, "--emit", str(tmp_path / "plain.hh"))
    named = run(capsys, *command, src, *selectors, "--emit", str(tmp_path / "named.hh"))
    assert plain[0] == 0 and plain[2] == ""
    assert named == plain
    assert (tmp_path / "named.hh").read_bytes() == (tmp_path / "plain.hh").read_bytes()


_MISSELECTED = [
    (("construct", "smash"), ("--carrier", "yd"), "no ALGEBRA block named 'yd'"),
    (("construct", "cosmash"), ("--carrier", "yd"), "no COALGEBRA block named 'yd'"),
    (("construct", "smash"), ("--hopf", "A"), "no HOPF/BIALGEBRA block named 'A'"),
    (("construct", "smash"), ("--action", "A"), "no ACTION block named 'A'"),
    (("construct", "cosmash"), ("--coaction", "H"), "no COACTION block named 'H'"),
    (("construct", "biproduct"), ("--carrier", "nope"), "no ALGEBRA block named 'nope'"),
    (("construct", "biproduct"), ("--hopf", "nope"), "no HOPF/BIALGEBRA block named 'nope'"),
    (("antipode",), ("--action", "nope"), "no ACTION block named 'nope'"),
    (("antipode",), ("--coaction", "nope"), "no COACTION block named 'nope'"),
]


@pytest.mark.parametrize("command, selectors, message", _MISSELECTED)
def test_a_selector_naming_no_block_of_its_kind_is_a_usage_error(
    tmp_path, capsys, command, selectors, message
):
    src = _bundle_file(tmp_path)
    assert run(capsys, *command, src, *selectors) == (1, "", f"error: {message}\n")


def test_a_named_hopf_carrier_gives_its_parts(tmp_path, capsys):
    # resolved as a CARRIER stanza is, H offers its algebra, whose twist is
    # not the carrier twist of the action yd
    src = _bundle_file(tmp_path)
    message = "error: carrier structure twist differs from the action's carrier twist\n"
    assert run(capsys, "construct", "smash", src, "--carrier", "H") == (1, "", message)


def _with_copies(block):
    """Each block, and after ACTION yd a second action yd2 and after HOPF H
    a BIALGEBRA B with the same maps."""
    if block[0] == "ACTION yd\n":
        return [block, ["ACTION yd2\n", *block[1:]]]
    if block[0] == "HOPF H\n":
        return [block, ["BIALGEBRA B\n", *block[1:]]]
    return [block]


@pytest.mark.parametrize(
    "command, selectors, message",
    [
        (("construct", "smash"), ("--hopf", "H"),
         "--action required: found 2 candidate blocks ['yd', 'yd2']"),
        (("construct", "smash"), ("--action", "yd2"),
         "--hopf required: found 2 candidate blocks ['H', 'B']"),
        (("antipode",), ("--hopf", "B"),
         "--action required: found 2 candidate blocks ['yd', 'yd2']"),
    ],
)
def test_two_candidate_blocks_need_a_selector(tmp_path, capsys, command, selectors, message):
    src = _bundle_file(tmp_path, _edit_blocks(_BUNDLE, _with_copies))
    assert run(capsys, *command, src, *selectors) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, *command, src, "--hopf", "H", "--action", "yd2")
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "what, option", [("smash", "--action"), ("cosmash", "--coaction"), ("tsmash", "--coaction")]
)
def test_a_map_acting_through_another_hopf_block_is_refused_by_name(
    tmp_path, capsys, what, option
):
    # yd acts through H; the smash, the smash coproduct and the coaction's
    # twist map refuse it over taft before any kernel sees its shape
    taft = catalog_document("taft-twisted", QQ).split("\n", 2)[2]  # its blocks
    src = _bundle_file(tmp_path, _BUNDLE + taft)
    argv = ("construct", what, src, "--carrier", "A", option, "yd", "--hopf")
    message = "error: action/coaction act through a different Hom-bialgebra\n"
    assert run(capsys, *argv, "taft") == (1, "", message)
    assert run(capsys, *argv, "H")[0] == 0


def test_the_carrier_needs_both_blocks_and_the_antipode_either(tmp_path, capsys):
    no_coalgebra = _edit_blocks(_BUNDLE, lambda b: [] if b[0] == "COALGEBRA A\n" else [b])
    src = _bundle_file(tmp_path, no_coalgebra)
    message = "error: carrier 'A' needs both an ALGEBRA and a COALGEBRA block\n"
    assert run(capsys, "construct", "biproduct", src) == (1, "", message)

    def move_antipode(block):  # from ALGEBRA A to COALGEBRA A
        if block[0] == "ALGEBRA A\n":
            return [[line for line in block if "ANTIPODE" not in line]]
        if block[0] == "COALGEBRA A\n":
            return [block[:-1] + ["  ANTIPODE 0 : 1 0\n", "  ANTIPODE 1 : 0 -1\n", "END\n"]]
        return [block]

    expected = run(capsys, "antipode", _bundle_file(tmp_path))
    assert expected[0] == 0
    moved = _bundle_file(tmp_path, _edit_blocks(_BUNDLE, move_antipode))
    assert run(capsys, "antipode", moved) == expected

    def drop_antipode(block):
        return [[line for line in block if "ANTIPODE" not in line or block[0] == "HOPF H\n"]]

    src = _bundle_file(tmp_path, _edit_blocks(_BUNDLE, drop_antipode))
    message = "error: the carrier blocks carry no ANTIPODE stanza\n"
    assert run(capsys, "antipode", src) == (1, "", message)


_UNREAD = [
    # (argv, with {src} for the bundle document, and what it names as unread)
    (("construct", "smash", "{src}", "--coaction", "yd"), "construct smash takes no --coaction"),
    (("construct", "cosmash", "{src}", "--action", "yd"), "construct cosmash takes no --action"),
    (("construct", "tsmash", "{src}", "--action", "yd"), "construct tsmash takes no --action"),
    (("construct", "smash", "{src}", "--t", "flip"), "construct smash takes no --t"),
    (("construct", "cosmash", "{src}", "--t", "flip"), "construct cosmash takes no --t"),
    (("construct", "biproduct", "{src}", "--t", "coaction"), "construct biproduct takes no --t"),
    (("construct", "tsmash", "{src}", "--t", "flip", "--coaction", "nosuch"),
     "construct tsmash --t flip takes no --coaction"),
    (("catalog", "show", "kz2", "--witness"), "catalog show takes no --witness"),
]


@pytest.mark.parametrize("argv, message", _UNREAD, ids=[m for _, m in _UNREAD])
def test_commands_refuse_options_they_do_not_read(tmp_path, capsys, argv, message):
    src = _bundle_file(tmp_path)
    target = tmp_path / "out.hh"
    argv = [src if word == "{src}" else word for word in argv]
    got = "" if argv[-1] == "--witness" else f" (got {argv[-1]!r})"
    assert run(capsys, *argv, "--emit", str(target)) == (1, "", f"error: {message}{got}\n")
    assert not target.exists()


def _as_bialgebra(block):
    """HOPF H as BIALGEBRA H, its ANTIPODE stanza dropped."""
    if block[0] != "HOPF H\n":
        return [block]
    return [["BIALGEBRA H\n", *(line for line in block[1:] if "ANTIPODE" not in line)]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("catalog", "show", "kz2", "--field", "R"), "unknown field 'R' (use Q or GF<p>)"),
        (("check", "{empty}"), "the document contains no checkable blocks"),
        (("braiding-test", "{src}", "--modules", "yd"),
         "braiding-test needs exactly two module names"),
        (("ybe-test", "{src}", "--modules", "yd", "yd"),
         "ybe-test needs exactly three module names"),
        (("braiding-test", "{bialgebra}", "--modules", "yd", "yd"),
         "braiding-test needs a HOPF acting block (antipode required)"),
    ],
    ids=["unknown-field", "no-checkable-blocks", "two-modules", "three-modules", "no-antipode"],
)
def test_usage_refusals_exit_1_with_one_error_line(tmp_path, capsys, argv, message):
    paths = {
        "{src}": _bundle_file(tmp_path),
        "{empty}": str(tmp_path / "empty.hh"),
        "{bialgebra}": str(tmp_path / "bialgebra.hh"),
    }
    Path(paths["{empty}"]).write_text("FORMAT 1\nFIELD Q\n", encoding="utf-8")
    Path(paths["{bialgebra}"]).write_text(_edit_blocks(_BUNDLE, _as_bialgebra), encoding="utf-8")
    argv = [paths.get(word, word) for word in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_catalog_check_emits_what_catalog_show_emits(tmp_path, capsys):
    shown, checked = tmp_path / "shown.hh", tmp_path / "checked.hh"
    assert run(capsys, "catalog", "show", "kz2", "--emit", str(shown))[0] == 0
    code, _, err = run(capsys, "catalog", "check", "kz2", "--emit", str(checked))
    assert (code, err) == (0, "")
    assert checked.read_bytes() == shown.read_bytes()


_DIGITS = "9" * 5000  # beyond the 4300 digits that int() converts by default


def _kz2_twisted(field, scalar):
    text = catalog_document("kz2", field)
    assert text.count("  TWIST 1 : 0 1\n") == 1
    return text.replace("  TWIST 1 : 0 1\n", f"  TWIST 1 : 0 {scalar}\n")


@pytest.mark.parametrize(
    "argv, document, message",
    [
        (("check", "{doc}"), _kz2_twisted(QQ, _DIGITS), "line 9: integer of 5000 digits is too long"),
        (("check", "{doc}"), _kz2_twisted(GF(7), _DIGITS), "line 9: integer of 5000 digits is too long"),
        (("catalog", "show", "kz2", "--field", f"GF{_DIGITS}"), None, "integer of 5000 digits is too long"),
        (("catalog", "show", "dual-number-bundle", f"--param={_DIGITS}"), None,
         "integer of 5000 digits is too long"),
        (("check", "{doc}"), _kz2_twisted(QQ, "٣"), "line 9: malformed rational scalar '٣'"),
        (("check", "{doc}"), _kz2_twisted(GF(7), "٣"), "line 9: malformed GF(7) scalar '٣'"),
        (("catalog", "show", "kz2", "--field", "GF٣"), None, "unknown field 'GF٣' (use Q or GF<p>)"),
    ],
    ids=["check-Q", "check-GF7", "field", "param", "check-Q-arabic", "check-GF7-arabic", "field-arabic"],
)
def test_oversized_and_non_ascii_integers_exit_1_with_one_error_line(
    tmp_path, capsys, argv, document, message
):
    # the error gives an oversized integer's digit count, never its digits
    path = tmp_path / "doc.hh"
    if document is not None:
        path.write_text(document, encoding="utf-8")
    argv = [str(path) if word == "{doc}" else word for word in argv]
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
