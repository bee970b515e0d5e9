"""Command-line entry point: parse structure files, run checks, perform
constructions, print deterministic reports.

Exit status: 0 all checks pass, 1 usage/parse/I-O error, 2 a mathematical
check failed or a construction gate refused.
"""

import argparse
import functools
import os
import stat
import sys

from .fields import ExactError, GF, QQ, SingularMatrixError, _integer
from .report import CheckResult, Report, StructureError
from .actions import YDModule
from .braided import (
    _yang_baxter,
    braiding,
    braiding_inverse_matrix,
    check_yang_baxter,
    check_yd_morphism,
)
from .constructions import (
    Bundle,
    biproduct_antipode,
    coaction_twist_map,
    flip_twist_map,
    radford_biproduct,
    smash_coproduct,
    smash_product,
    t_smash_coproduct,
)
from .quasitriangular import check_cobraiding_equivalence, check_rmatrix_equivalence
from .structures import HomHopf, check_antipode, twist_invertible_check
from . import catalog as cat
from . import textfmt

USAGE_EXIT = 1
MATH_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_field(token):
    if token == "Q":
        return QQ
    if token.startswith("GF"):
        digits = token[2:].lstrip(":")
        if digits.isascii() and digits.isdigit():
            return GF(_integer(digits))
    raise UsageError(f"unknown field {token!r} (use Q or GF<p>)")


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load(path):
    return textfmt.realize(textfmt.parse_document(_read(path)))


def _emit(path, lines):
    """Write `lines` to `path`, each followed by a newline, one at a time,
    so that no copy of the whole text is made; `path` is created with the
    umask's mode when missing.

    An existing regular file is overwritten in place and then cut to length.
    Truncating it first, as `open(path, "w")` does, frees its blocks before
    the write, and on some filesystems that waits on the disk. The write is
    not atomic either way. A target that cannot be cut (`/dev/null`,
    `/dev/stdout`, a FIFO) is written as a stream."""
    sys.stdout.flush()  # a target that is stdout gets the text after the reports
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            fh = open(fd, "w", encoding="utf-8")
        except BaseException:
            os.close(fd)
            raise
        with fh:
            fh.writelines(f"{line}\n" for line in lines)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _print_reports(reports, witnesses):
    ok = True
    for rep in reports:
        for line in rep.lines(witnesses):
            print(line)
        ok = ok and rep.passed
    print(f"OVERALL {'PASS' if ok else 'FAIL'}")
    return 0 if ok else MATH_EXIT


def _check_text(text, witnesses):
    """Parse, realize and check a document and print its reports: `check` and `catalog check`."""
    reports = textfmt.run_checks(textfmt.realize(textfmt.parse_document(text)))
    if not reports:
        raise UsageError("the document contains no checkable blocks")
    return _print_reports(reports, witnesses)


def _pick(real, kinds, option, args):
    """The structure of one of `kinds` that --option names, or the document's only one."""
    given = getattr(args, option)
    if given is not None:
        found = real.find(kinds, given)
        if found is None:
            raise UsageError(f"no {'/'.join(kinds)} block named {given!r}")
        return found
    # in document order: realize keeps it within each kind family
    names = list(dict.fromkeys(name for kind, name in real.structures if kind in kinds))
    if len(names) == 1:
        return real.find(kinds, names[0])
    raise UsageError(f"--{option} required: found {len(names)} candidate blocks {names}")


def _carrier(real, kind, args):
    """(algebra, coalgebra, antipode) of the carrier --carrier names, read as a
    CARRIER stanza is, else of the only `kind` block; refused without a `kind` part."""
    name = args.carrier
    if name is None:
        name = _pick(real, (kind,), "carrier", args).name
    parts = real.carrier(name)
    if parts[("ALGEBRA", "COALGEBRA").index(kind)] is None:
        raise UsageError(f"no {kind} block named {name!r}")
    return parts


# the options each command leaves unread, and so refuses
_UNREAD = {
    "construct smash": ("coaction", "t"),
    "construct cosmash": ("action", "t"),
    "construct tsmash": ("action",),
    "construct tsmash --t flip": ("action", "coaction"),
    "construct biproduct": ("t",),
    "catalog list": ("id", "param", "field", "emit", "witness"),
    "catalog show": ("witness",),
}


def _refuse_unread(args, command):
    for option in _UNREAD.get(command, ()):
        value = getattr(args, option)
        if value is not None and value is not False:
            name = "entry id" if option == "id" else f"--{option}"
            got = "" if value is True else f" (got {value!r})"
            raise UsageError(f"{command} takes no {name}{got}")


def _linear_combo(field, basis, coeffs):
    terms = []
    for i, label in enumerate(basis):
        v = coeffs[i]
        if v == field.zero:
            continue
        text = field.format(v)
        if text == "1":
            terms.append(label)
        elif text == "-1":
            terms.append(f"-{label}")
        else:
            terms.append(f"{text}*{label}")
    return " + ".join(terms) if terms else "0"


def _yd_module(real, name, check):
    act, coact = (real.find((kind,), name) for kind in textfmt.MAP_KINDS)
    if act is None or coact is None:
        raise UsageError(f"module {name!r} needs both an ACTION and a COACTION block")
    return YDModule(act, coact, name=name, check=check)


def _bundle_from_args(real, args):
    alg, coalg, s = _carrier(real, "ALGEBRA", args)
    if coalg is None:
        raise UsageError(f"carrier {alg.name!r} needs both an ALGEBRA and a COALGEBRA block")
    hom = _pick(real, textfmt.ACTING_KINDS, "hopf", args)
    act, coact = (_pick(real, (kind,), kind.lower(), args) for kind in textfmt.MAP_KINDS)
    return Bundle(alg, coalg, hom, act, coact, carrier_antipode=s)


def _cmd_check(args):
    return _check_text(_read(args.file), args.witness)


def _cmd_construct(args):
    what, name = args.what, args.name
    flip = what == "tsmash" and args.t == "flip"
    _refuse_unread(args, f"construct {what}{' --t flip' if flip else ''}")
    real = _load(args.file)
    if what == "biproduct":
        made = radford_biproduct(_bundle_from_args(real, args), name=name)
        kind, result, reports = "BIALGEBRA", made.bialgebra, made.gates
    else:
        kind = "ALGEBRA" if what == "smash" else "COALGEBRA"
        alg, coalg, _ = _carrier(real, kind, args)
        carrier = alg if what == "smash" else coalg
        hom = _pick(real, textfmt.ACTING_KINDS, "hopf", args)
        option = None if flip else "action" if what == "smash" else "coaction"  # the map it reads
        piece = option and _pick(real, (option.upper(),), option, args)
        if what == "smash":
            made = smash_product(carrier, hom, piece, name=name)
        elif what == "cosmash":
            made = smash_coproduct(carrier, hom, piece, name=name)
        else:
            t = flip_twist_map(carrier, hom) if flip else coaction_twist_map(carrier, hom, piece)
            made = t_smash_coproduct(carrier, hom, t, name=name)
        result, reports = getattr(made, kind.lower()), [made.gate]
    code = _print_reports(reports, args.witness)
    print(f"constructed {kind} {name} (dim {result.dim})")
    if args.emit:
        chunk = getattr(textfmt, f"{kind.lower()}_lines")(name, result)  # the kind's printer
        _emit(args.emit, textfmt.document_lines(real.field, [chunk]))
    return code


def _cmd_antipode(args):
    real = _load(args.file)
    bundle = _bundle_from_args(real, args)
    if bundle.carrier_antipode is None:
        raise UsageError("the carrier blocks carry no ANTIPODE stanza")
    made = radford_biproduct(bundle, name=args.name)
    anti = biproduct_antipode(bundle)
    # one title, whatever name the bialgebra was given
    check_antipode(made.bialgebra, anti.matrix, title="antipode axioms [biproduct]").require(
        "biproduct antipode fails its axioms"
    )
    reports = list(made.gates) + [anti.gate]
    code = _print_reports(reports, args.witness)
    basis = made.bialgebra.basis
    field = real.field
    n = made.bialgebra.dim
    for j, label in enumerate(basis):
        col = [anti.matrix.entry(i, j) for i in range(n)]
        print(f"S({label}) = {_linear_combo(field, basis, col)}")
    if args.emit:
        chunk = textfmt.hopf_lines(args.name, HomHopf(made.bialgebra, anti.matrix, check=False))
        _emit(args.emit, textfmt.document_lines(field, [chunk]))
    return code


def _cmd_braiding_test(args):
    real = _load(args.file)
    if len(args.modules) != 2:
        raise UsageError("braiding-test needs exactly two module names")
    m1 = _yd_module(real, args.modules[0], check=False)
    m2 = _yd_module(real, args.modules[1], check=False)
    if getattr(m1.hom, "antipode", None) is None:
        raise UsageError("braiding-test needs a HOPF acting block (antipode required)")
    title = f"braiding c({args.modules[0]},{args.modules[1]})"
    twists = [twist_invertible_check(m1.hom)]  # the tensor coactions twist back by beta^-2
    for name, module in dict(zip(args.modules, (m1, m2))).items():  # the braiding by alpha^-1
        check = twist_invertible_check(module)
        twists.append(CheckResult(f"{name}.{check.name}", check.passed, check.witness))
    if all(check.passed for check in twists):  # the braiding inverse by S^-1
        try:
            ci = braiding_inverse_matrix(m1, m2)
        except SingularMatrixError:
            twists.append(CheckResult("antipode.invertible", False, "antipode matrix is singular"))
        else:
            twists.append(CheckResult("antipode.invertible", True))
    if not all(check.passed for check in twists):
        return _print_reports([Report(title, tuple(twists))], args.witness)
    c = braiding(m1, m2)
    reports = [check_yd_morphism(c, title=title)]
    inverse_checks = (
        CheckResult("inverse.left", (ci * c.matrix).is_identity()),
        CheckResult("inverse.right", (c.matrix * ci).is_identity()),
    )
    reports.append(Report("braiding invertibility", inverse_checks))
    code = _print_reports(reports, args.witness)
    if args.emit_matrix:
        _emit(args.emit_matrix, textfmt.render_matrix_rows(c.matrix).splitlines())
    return code


def _cmd_ybe_test(args):
    real = _load(args.file)
    if len(args.modules) != 3:
        raise UsageError("ybe-test needs exactly three module names")
    # each distinct module built once, and refused unless it is Yetter-Drinfeld
    built = {name: _yd_module(real, name, check=True) for name in dict.fromkeys(args.modules)}
    mods = [built[name] for name in args.modules]
    title = "Yang-Baxter operator checks"
    if args.emit_matrix:  # the check, keeping the tau_{M,N} it built to emit
        report, tau = _yang_baxter(*mods, title)
    else:
        report = check_yang_baxter(*mods, title=title)
    code = _print_reports([report], args.witness)
    if args.emit_matrix:
        _emit(args.emit_matrix, textfmt.render_matrix_rows(tau).splitlines())
    return code


def _cmd_qt_check(args):
    real = _load(args.file)
    reports = []
    for block in real.document.blocks:
        obj = real.structures.get((block.kind, block.name))
        if block.kind == "RMATRIX":
            title = f"RMATRIX {block.name}: quasitriangular/YD equivalence"
            reports.append(check_rmatrix_equivalence(obj.hom, rmatrix=obj, title=title))
        elif block.kind == "FORM":
            title = f"FORM {block.name}: cobraiding contract"
            reports.append(check_cobraiding_equivalence(obj.hom, obj, title=title))
    if not reports:
        raise UsageError("no RMATRIX or FORM blocks found")
    return _print_reports(reports, args.witness)


def _cmd_catalog(args):
    _refuse_unread(args, f"catalog {args.action}")
    if args.action == "list":
        for entry in cat.CATALOG:
            param = entry.param or "-"
            print(f"{entry.identifier:24} param={param:2} {entry.summary}")
        return 0
    if args.id is None:
        raise UsageError("catalog show/check needs an entry id")
    field = _parse_field(args.field or "Q")
    try:
        entry = cat.catalog_entry(args.id)
    except KeyError as exc:
        raise UsageError(f"unknown catalog entry {args.id!r}") from exc
    if entry.param is None and args.param is not None:
        raise UsageError(f"catalog entry {entry.identifier!r} takes no --param")
    param = None if args.param is None else field.parse(args.param)  # else the entry's default
    text = textfmt.catalog_document(entry.identifier, field, param)
    if args.action == "show":
        sys.stdout.write(text)
        if args.emit:
            _emit(args.emit, text.splitlines())
        return 0
    code = _check_text(text, args.witness)
    if args.emit:
        _emit(args.emit, text.splitlines())
    return code


def _glue_signed_params(argv):
    """argparse takes a value starting with '-' for an option, so glue a
    signed scalar onto --param: `--param -1/2` reads as `--param=-1/2`."""
    out = []
    for token in argv:
        if out and out[-1] == "--param" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--param={token}"
        else:
            out.append(token)
    return out


def build_parser():
    parser = _Parser(prog="homhopf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run every applicable axiom checker on a file")
    p_check.add_argument("file")
    p_check.add_argument("--witness", action="store_true", help="print counterexample tuples")
    p_check.set_defaults(func=_cmd_check)

    p_con = sub.add_parser("construct", help="gate-checked constructions")
    p_con.add_argument("what", choices=["smash", "cosmash", "tsmash", "biproduct"])
    p_anti = sub.add_parser("antipode", help="biproduct antipode from a bundle file")
    for p in (p_con, p_anti):
        p.add_argument("file")
        for selector in ("--carrier", "--hopf", "--action", "--coaction"):
            p.add_argument(selector)
        p.add_argument("--emit", help="write the constructed structure to this path")
        p.add_argument("--witness", action="store_true")
    p_con.add_argument("--t", choices=["coaction", "flip"],
                       help="twist-map source for tsmash (default coaction)")
    p_con.add_argument("--name", default="constructed")
    p_con.set_defaults(func=_cmd_construct)
    p_anti.add_argument("--name", default="biproduct")
    p_anti.set_defaults(func=_cmd_antipode)

    p_braid = sub.add_parser("braiding-test", help="braiding morphism and invertibility checks")
    p_braid.add_argument("file")
    p_braid.add_argument("--modules", nargs="+", required=True)
    p_braid.add_argument("--emit-matrix", help="write the braiding matrix rows to this path")
    p_braid.add_argument("--witness", action="store_true")
    p_braid.set_defaults(func=_cmd_braiding_test)

    p_ybe = sub.add_parser("ybe-test", help="Yang-Baxter operator checks on three modules")
    p_ybe.add_argument("file")
    p_ybe.add_argument("--modules", nargs="+", required=True)
    p_ybe.add_argument("--emit-matrix")
    p_ybe.add_argument("--witness", action="store_true")
    p_ybe.set_defaults(func=_cmd_ybe_test)

    p_qt = sub.add_parser("quasitriangular-check", help="QHA axioms and the YD equivalences")
    p_qt.add_argument("file")
    p_qt.add_argument("--witness", action="store_true")
    p_qt.set_defaults(func=_cmd_qt_check)

    p_cat = sub.add_parser("catalog", help="list, show or check the built-in examples")
    p_cat.add_argument("action", choices=["list", "show", "check"])
    p_cat.add_argument("id", nargs="?")
    p_cat.add_argument("--field", help="Q (default for show and check) or GF<p>")
    p_cat.add_argument("--param", help="twist parameter k or l, in scalar syntax")
    p_cat.add_argument("--emit")
    p_cat.add_argument("--witness", action="store_true")
    p_cat.set_defaults(func=_cmd_catalog)
    return parser


@functools.cache
def _parser():
    """The parser, built on first use and kept for the life of the process;
    parsing never changes it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(_glue_signed_params(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except StructureError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        if exc.report is not None:
            for line in exc.report.lines(True):
                print(line, file=sys.stderr)
        return MATH_EXIT
    except (UsageError, textfmt.ParseError, ExactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
