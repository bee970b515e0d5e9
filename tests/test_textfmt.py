import pytest

from homhopf import GF, Matrix, QQ
from homhopf.catalog import group_algebra_z2, taft_twisted, z2_cobraiding_form
from homhopf.textfmt import (
    ParseError,
    algebra_lines,
    catalog_document,
    form_lines,
    hopf_lines,
    parse_document,
    realize,
    render_document,
    render_parsed,
    run_checks,
)

MINIMAL_KZ2 = """FORMAT 1
FIELD Q
HOPF H
  DIM 2
  BASIS 1 a
  UNIT 1 0
  COUNIT 1 1
  MULT 0 0 : 1 0
  MULT 0 1 : 0 1
  MULT 1 0 : 0 1
  MULT 1 1 : 1 0
  COMULT 0 : 1 0 0 0
  COMULT 1 : 0 0 0 1
  ANTIPODE 0 : 1 0
  ANTIPODE 1 : 0 1
END
"""


def test_minimal_document_realizes_to_catalog_structure():
    real = realize(parse_document(MINIMAL_KZ2))
    h = real.structures[("HOPF", "H")]
    ref = group_algebra_z2(QQ)
    assert h.mult == ref.mult
    assert h.comult == ref.comult
    assert h.twist.is_identity()  # omitted TWIST defaults to the identity
    assert h.antipode == ref.antipode


def test_same_named_blocks_with_equal_twists_share_one_twist_object():
    # so the twist inverts once for both blocks; unequal twists stay apart
    text = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
    real = realize(parse_document(text))
    alg, coalg = real.structures[("ALGEBRA", "A")], real.structures[("COALGEBRA", "A")]
    assert alg.twist is coalg.twist
    assert real.structures[("ACTION", "yd")].carrier_twist is alg.twist
    assert real.structures[("HOPF", "H")].twist is not alg.twist
    head, tail = text.split("COALGEBRA A")
    unequal = head + "COALGEBRA A" + tail.replace("  TWIST 1 : 0 2", "  TWIST 1 : 0 3", 1)
    real = realize(parse_document(unequal))
    alg, coalg = real.structures[("ALGEBRA", "A")], real.structures[("COALGEBRA", "A")]
    assert alg.twist != coalg.twist and coalg.twist.entry(1, 1) == 3


def test_an_identity_twist_realizes_as_the_process_wide_identity():
    # HOPF H of the bundle documents writes its identity twist out
    text = catalog_document("taft-bundle", QQ, QQ.coerce(2))
    assert "HOPF H\n" in text and "  TWIST 0 : 1 0\n  TWIST 1 : 0 1\n" in text
    assert realize(parse_document(text)).structures[("HOPF", "H")].twist is Matrix.identity(QQ, 2)


def test_an_antipode_equal_to_the_identity_or_an_earlier_one_is_that_object():
    # HOPF H of the bundle documents writes the identity out as its antipode
    text = catalog_document("taft-bundle", QQ, QQ.coerce(2))
    assert "  ANTIPODE 0 : 1 0\n  ANTIPODE 1 : 0 1\n" in text
    assert realize(parse_document(text)).structures[("HOPF", "H")].antipode is Matrix.identity(QQ, 2)
    taft = catalog_document("taft-twisted", QQ, QQ.coerce(2))
    copy = taft[taft.index("HOPF taft"):].replace("HOPF taft", "HOPF copy")
    for moved, shared in (("ANTIPODE 3 : 0 0 -1 0", True), ("ANTIPODE 3 : 0 0 -2 0", False)):
        real = realize(parse_document(taft + copy.replace("ANTIPODE 3 : 0 0 -1 0", moved)))
        first, second = real.structures[("HOPF", "taft")], real.structures[("HOPF", "copy")]
        assert (second.antipode is first.antipode) is shared
        assert not second.antipode.is_identity()


def test_differently_named_blocks_with_equal_twists_share_one_twist_object():
    text = catalog_document("dual-number", QQ, QQ.coerce(2)).replace("COALGEBRA A", "COALGEBRA B")
    real = realize(parse_document(text))
    alg, coalg = real.structures[("ALGEBRA", "A")], real.structures[("COALGEBRA", "B")]
    assert alg.twist is coalg.twist and not alg.twist.is_identity()
    assert text.count("  TWIST 1 : 0 2\n  COMULT") == 1
    unequal = text.replace("  TWIST 1 : 0 2\n  COMULT", "  TWIST 1 : 0 3\n  COMULT")
    real = realize(parse_document(unequal))
    alg, coalg = real.structures[("ALGEBRA", "A")], real.structures[("COALGEBRA", "B")]
    assert alg.twist is not coalg.twist and coalg.twist.entry(1, 1) == 3


def test_zero_mult_rows_parse_as_zero():
    # x.x = 0 appears as an omitted or explicit all-zero row; both parse the same
    text = catalog_document("taft-twisted", QQ, QQ.coerce(2))
    assert "MULT 2 2" not in text  # canonical form omits the zero row
    with_zero = text.replace(
        "  MULT 2 1 :", "  MULT 2 2 : 0 0 0 0\n  MULT 2 1 :"
    )
    a = realize(parse_document(text)).structures[("HOPF", "taft")]
    b = realize(parse_document(with_zero)).structures[("HOPF", "taft")]
    assert a.mult == b.mult


def test_round_trip_is_identity_on_canonical_documents():
    for ident, param in [
        ("kz2", None),
        ("taft-twisted", QQ.coerce(3)),
        ("dual-number-bundle", QQ.coerce(2)),
        ("taft-biproduct", QQ.coerce(2)),
        ("kz2-rmatrix", None),
    ]:
        text = catalog_document(ident, QQ, param)
        assert render_parsed(parse_document(text)) == text
        assert catalog_document(ident, QQ, param) == text


def test_print_of_parse_reparses_equal():
    # a messy but legal document: comments, scalar forms not in lowest terms,
    # rows out of order, an explicit zero row
    messy = """FORMAT 1
FIELD Q
# hand-written
ALGEBRA A
  DIM 2
  MULT 1 0 : 0 4/2
  UNIT 2/2 0
  MULT 0 0 : 1 0
  MULT 1 1 : 0 0
  MULT 0 1 : 0 2
  TWIST 1 : 0 2
  TWIST 0 : 1 0
END
"""
    once = render_parsed(parse_document(messy))
    assert parse_document(once).blocks == parse_document(once).blocks
    assert render_parsed(parse_document(once)) == once  # canonical fixed point
    assert "2/2" not in once and "4/2" not in once  # scalars canonicalized
    assert "MULT 1 1" not in once  # zero row dropped
    a = realize(parse_document(messy)).structures[("ALGEBRA", "A")]
    b = realize(parse_document(once)).structures[("ALGEBRA", "A")]
    assert a.mult == b.mult and a.twist == b.twist and a.unit == b.unit


def test_round_trip_gf7():
    text = catalog_document("dual-number-biproduct", GF(7), GF(7).coerce(3))
    real = realize(parse_document(text))
    h = real.structures[("HOPF", "biproduct")]
    from homhopf.catalog import dual_number_biproduct

    ref = dual_number_biproduct(GF(7), 3)
    assert h.mult == ref.mult and h.comult == ref.comult and h.antipode == ref.antipode


def test_rendered_structures_reparse_equal():
    h = taft_twisted(QQ, 2)
    text = render_document(QQ, [hopf_lines("T", h)])
    real = realize(parse_document(text))
    t = real.structures[("HOPF", "T")]
    assert t.mult == h.mult
    assert t.comult == h.comult
    assert t.twist == h.twist
    assert t.antipode == h.antipode
    assert t.basis == h.basis


def test_run_checks_on_bundle_document():
    text = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
    reports = run_checks(realize(parse_document(text)))
    titles = [r.title for r in reports]
    assert any("Yetter-Drinfeld" in t for t in titles)
    assert any("antipode identities" in t for t in titles)
    assert all(r.passed for r in reports)


def _expect_parse_error(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert fragment in str(err.value)
    assert str(err.value).startswith("line ")


def test_parse_errors_are_line_numbered():
    _expect_parse_error("FIELD Q\n", "FORMAT 1")
    _expect_parse_error("FORMAT 1\nFIELD GF 4\n", "not prime")
    _expect_parse_error("FORMAT 1\nFIELD Q\nWIDGET w\nEND\n", "unknown block kind")
    _expect_parse_error(
        "FORMAT 1\nFIELD Q\nALGEBRA A\n  DIM 1\n  UNIT 1\n  MULT 0 0 : 1\n  MULT 0 0 : 1\nEND\n",
        "duplicate MULT",
    )
    _expect_parse_error(
        "FORMAT 1\nFIELD Q\nALGEBRA A\n  DIM 1\n  UNIT 1\n  MULT 0 2 : 1\nEND\n",
        "exceeds DIM",
    )
    _expect_parse_error(
        "FORMAT 1\nFIELD Q\nALGEBRA A\n  DIM 1\n  UNIT 1\n  MULT 0 0 : 1 2\nEND\n",
        "expected 1 coefficients",
    )
    _expect_parse_error(
        "FORMAT 1\nFIELD Q\nALGEBRA A\n  DIM 1\n  UNIT x\nEND\n",
        "malformed rational",
    )
    _expect_parse_error(
        "FORMAT 1\nFIELD Q\nHOPF H\n  DIM 1\n  UNIT 1\n  COUNIT 1\n  MULT 0 0 : 1\n  COMULT 0 : 1\nEND\n",
        "missing ANTIPODE",
    )
    _expect_parse_error("FORMAT 1\nFIELD Q\nALGEBRA A\n  DIM 1\n", "not closed")


def test_comments_and_blank_lines_ignored():
    text = MINIMAL_KZ2.replace("FIELD Q", "FIELD Q\n# a comment\n")
    real = realize(parse_document(text))
    assert ("HOPF", "H") in real.structures


def test_duplicate_block_rejected():
    text = MINIMAL_KZ2 + MINIMAL_KZ2.split("\n", 2)[2]
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "duplicate block" in str(err.value)


def test_scalars_render_canonically():
    from fractions import Fraction
    from homhopf import Matrix
    from homhopf.structures import HomAlgebra

    alg = HomAlgebra(
        QQ,
        Matrix(QQ, 1, 1, {(0, 0): Fraction(-3, 2)}),
        [Fraction(1)],
        basis=("e",),
        check=False,
    )
    text = "\n".join(algebra_lines("A", alg))
    assert "MULT 0 0 : -3/2" in text


def _with_stanza(text, header, stanza, after=None):
    """Insert a stanza line into the block `header`, right after its header
    line or after its first line starting with `after`; returns the text
    and the inserted line's number."""
    lines = text.splitlines()
    at = lines.index(header) + 1
    if after is not None:
        at = next(i for i in range(at, len(lines)) if lines[i].strip().startswith(after)) + 1
    lines.insert(at, f"  {stanza}")
    return "\n".join(lines) + "\n", at + 1


_BUNDLE = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
_RMATRIX = catalog_document("kz2-rmatrix", QQ)
_FORM = _RMATRIX.replace("RMATRIX R", "FORM R")


_REFUSED = [
    (_BUNDLE, "ACTION yd", "DIM 3", "DIM not allowed in ACTION with a CARRIER"),
    (_BUNDLE, "ACTION yd", "BASIS p q r", "BASIS not allowed in ACTION with a CARRIER"),
    (_BUNDLE, "ACTION yd", "TWIST 0 : 0 0 0", "TWIST not allowed in ACTION with a CARRIER"),
    (_BUNDLE, "COACTION yd", "DIM 2", "DIM not allowed in COACTION with a CARRIER"),
    (_BUNDLE, "COACTION yd", "TWIST 0 : 1 0", "TWIST not allowed in COACTION with a CARRIER"),
    (_RMATRIX, "RMATRIX R", "BASIS 1 a", "BASIS not allowed in RMATRIX"),
    (_RMATRIX, "RMATRIX R", "TWIST 0 : 1 0", "TWIST not allowed in RMATRIX"),
    (_RMATRIX, "RMATRIX R", "DIM 2", "DIM not allowed in RMATRIX"),
    (_FORM, "FORM R", "BASIS 1 a", "BASIS not allowed in FORM"),
    (_FORM, "FORM R", "TWIST 0 : 1 0", "TWIST not allowed in FORM"),
    (_BUNDLE, "COALGEBRA A", "UNIT 1 0", "UNIT not allowed in COALGEBRA"),
    (_BUNDLE, "ALGEBRA A", "COUNIT 1 0", "COUNIT not allowed in ALGEBRA"),
    (_BUNDLE, "ACTION yd", "ANTIPODE 0 : 1 0", "ANTIPODE not allowed in ACTION"),
    (_BUNDLE, "COACTION yd", "UNIT 1 0", "UNIT not allowed in COACTION"),
    (_BUNDLE, "ACTION yd", "COUNIT 1 0", "COUNIT not allowed in ACTION"),
    (_BUNDLE, "HOPF H", "ACTING H", "ACTING not allowed in HOPF"),
    (_BUNDLE, "ALGEBRA A", "CARRIER A", "CARRIER not allowed in ALGEBRA"),
    (_RMATRIX, "RMATRIX R", "ACTING H", "ACTING not allowed in RMATRIX"),
    (_BUNDLE, "ACTION yd", "ON H", "ON not allowed in ACTION"),
    (_BUNDLE, "HOPF H", "ON H", "ON not allowed in HOPF"),
]


@pytest.mark.parametrize(
    "text, header, stanza, message",
    _REFUSED,
    ids=[f"{header.split()[0]}-{stanza.split()[0]}" for _, header, stanza, _ in _REFUSED],
)
def test_stanzas_a_block_kind_does_not_read_are_refused(text, header, stanza, message):
    mutated, lineno = _with_stanza(text, header, stanza)
    _expect_parse_error(mutated, f"line {lineno}: {message}")


def test_carrier_description_beside_carrier_is_refused_at_the_first_such_stanza(tmp_path, capsys):
    # DIM, BASIS and a zero TWIST that realization never read, after CARRIER A
    text, lineno = _with_stanza(_BUNDLE, "ACTION yd", "DIM 3", after="CARRIER")
    text, _ = _with_stanza(text, "ACTION yd", "BASIS p q r", after="DIM")
    text, _ = _with_stanza(text, "ACTION yd", "TWIST 0 : 0 0 0", after="BASIS")
    path = tmp_path / "bundle.hh"
    path.write_text(text, encoding="utf-8")
    from homhopf.cli import main

    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: line {lineno}: DIM not allowed in ACTION with a CARRIER\n")


_KZ2 = catalog_document("kz2", QQ)


def _check(tmp_path, capsys, text):
    path = tmp_path / "doc.hh"
    path.write_text(text, encoding="utf-8")
    from homhopf.cli import main

    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


_DIGITS = "9" * 5000  # beyond the 4300 digits that int() converts by default

_UNREACHED_REFUSALS = [
    # (document, first line replaced, its replacement, the error it gives)
    (_BUNDLE, "  DIM 2", "  DIM x", "line 4: malformed DIM"),
    (_BUNDLE, "  DIM 2", "  DIM 0", "line 4: DIM must be positive"),
    (_BUNDLE, "  ACTING H", "  ACTING H A", "line 41: ACTING needs exactly one name"),
    (_BUNDLE, "  TWIST 0 : 1 0", "  TWIST 0 1 : 1 0", "line 8: expected 1 indices, got 2"),
    (_BUNDLE, "  TWIST 0 : 1 0", "  TWIST x : 1 0", "line 8: malformed index in ['x']"),
    (_BUNDLE, "  TWIST 0 : 1 0", "  TWIST 0 1 0", "line 8: missing ':' separator"),
    (_BUNDLE, "FIELD Q", "HOPF H", "line 2: expected a FIELD declaration"),
    (_BUNDLE, "FIELD Q", "FIELD GF x", "line 2: malformed modulus 'x'"),
    (_BUNDLE, "FIELD Q", "FIELD R", "line 2: unknown field declaration 'FIELD R'"),
    (_BUNDLE, "HOPF H", "HOPF H K", "line 3: HOPF header needs exactly one name"),
    (_BUNDLE, "  BASIS 1 a", "  BASIS 1 a b", "line 3: BASIS lists 3 labels for DIM 2"),
    (_KZ2, "  BASIS 1 a", "  BASIS 1 1", "line 5: duplicate basis label '1'"),
    # integers read ASCII digits only, and one too long for int() is refused
    # by its digit count, not echoed
    (_BUNDLE, "  DIM 2\n  BASIS 1 z", "  DIM ٢\n  BASIS 1 z", "line 20: malformed DIM"),
    (_BUNDLE, "  DIM 2", f"  DIM {_DIGITS}", "line 4: integer of 5000 digits is too long"),
    (_BUNDLE, "  TWIST 0 : 1 0", "  TWIST ٠ : 1 0", "line 8: malformed index in ['٠']"),
    (_BUNDLE, "  TWIST 0 : 1 0", f"  TWIST {_DIGITS} : 1 0",
     "line 8: integer of 5000 digits is too long"),
    (_BUNDLE, "FIELD Q", "FIELD GF ٧", "line 2: malformed modulus '٧'"),
    (_BUNDLE, "FIELD Q", f"FIELD GF {_DIGITS}", "line 2: integer of 5000 digits is too long"),
    ("# nothing but a comment\n", "", "", "line 1: document must start with 'FORMAT 1'"),
    ("FORMAT 1\n", "", "", "line 1: missing FIELD declaration"),
    (_BUNDLE, "  CARRIER A", "  CARRIER nope", "CARRIER 'nope' names no structural block"),
    (_BUNDLE, "  ACTING H", "  ACTING nope", "no block of kind HOPF/BIALGEBRA named 'nope'"),
]


@pytest.mark.parametrize(
    "text, old, new, message", _UNREACHED_REFUSALS, ids=[m for *_, m in _UNREACHED_REFUSALS]
)
def test_parse_and_realize_refusals_exit_1(tmp_path, capsys, text, old, new, message):
    assert old in text
    mutated = text.replace(old, new, 1)
    assert _check(tmp_path, capsys, mutated) == (1, "", f"error: {message}\n")


_TRIVIAL_MAP = """  MAP 0 0 : 1 0
  MAP 0 1 : 0 {q}
  MAP 1 0 : 1 0
  MAP 1 1 : 0 {q}
"""


_KZ2_REPORTS = """== HOPF kz2: Hom-bialgebra axioms
  algebra.twist.invertible    PASS
  algebra.HA1.mult            PASS
  algebra.HA1.unit            PASS
  algebra.HA2.assoc           PASS
  algebra.HA2.unit-left       PASS
  algebra.HA2.unit-right      PASS
  coalgebra.twist.invertible  PASS
  coalgebra.HC1.comult        PASS
  coalgebra.HC1.counit        PASS
  coalgebra.HC2.coassoc       PASS
  coalgebra.HC2.counit-left   PASS
  coalgebra.HC2.counit-right  PASS
  compat.comult-mult          PASS
  compat.comult-unit          PASS
  compat.counit-mult          PASS
  compat.counit-unit          PASS
== RESULT PASS
== HOPF kz2: antipode axioms
  antipode.left   PASS
  antipode.right  PASS
  antipode.twist  PASS
== RESULT PASS
"""

_MODULE_AXIOMS = """  HM1        PASS
  HM2.assoc  PASS
  HM2.unit   PASS
"""


def test_action_with_its_own_carrier_description(tmp_path, capsys):
    # h |> m = eps(h) alpha(m) on K^2 with basis (p, q) and alpha = diag(1, -1)
    text = _KZ2 + (
        "ACTION tw\n  DIM 2\n  BASIS p q\n  ACTING kz2\n  TWIST 0 : 1 0\n  TWIST 1 : 0 -1\n"
        + _TRIVIAL_MAP.format(q=-1) + "END\n"
    )
    act = realize(parse_document(text)).structures[("ACTION", "tw")]
    assert act.carrier_basis == ("p", "q")
    assert act.carrier_twist == Matrix(QQ, 2, 2, {(0, 0): 1, (1, 1): -1})
    assert _check(tmp_path, capsys, text) == (0, (
        _KZ2_REPORTS
        + "== ACTION tw: module axioms\n" + _MODULE_AXIOMS + "== RESULT PASS\n"
        + "OVERALL PASS\n"
    ), "")


def test_action_on_a_hopf_carrier_reads_its_parts(tmp_path, capsys):
    # the trivial action of KZ2 on itself: a module algebra and a module coalgebra
    text = _KZ2 + "ACTION triv\n  ACTING kz2\n  CARRIER kz2\n" + _TRIVIAL_MAP.format(q=1) + "END\n"
    assert _check(tmp_path, capsys, text) == (0, (
        _KZ2_REPORTS
        + "== ACTION triv: module axioms\n" + _MODULE_AXIOMS + "== RESULT PASS\n"
        + "== ACTION triv: module Hom-algebra axioms\n" + _MODULE_AXIOMS
        + "  HMA1       PASS\n  HMA2       PASS\n== RESULT PASS\n"
        + "== ACTION triv: module Hom-coalgebra axioms\n" + _MODULE_AXIOMS
        + "  HMC1       PASS\n  HMC2       PASS\n== RESULT PASS\n"
        + "OVERALL PASS\n"
    ), "")


def test_a_named_carrier_reads_a_hopf_blocks_parts_as_check_does(tmp_path, capsys):
    # --carrier resolves as the CARRIER stanza does: construct reads kz2's
    # algebra, and antipode its algebra, coalgebra and antipode
    from homhopf.cli import main

    action = "ACTION triv\n  ACTING kz2\n  CARRIER kz2\n" + _TRIVIAL_MAP.format(q=1) + "END\n"
    coaction = "COACTION triv\n  ACTING kz2\n  CARRIER kz2\n  MAP 0 : 1 0 0 0\n"
    coaction += "  MAP 1 : 0 1 0 0\nEND\n"
    path = tmp_path / "doc.hh"
    path.write_text(_KZ2 + action, encoding="utf-8")
    assert main(["construct", "smash", str(path), "--carrier", "kz2"]) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines()[-2:], err) == (
        ["OVERALL PASS", "constructed ALGEBRA constructed (dim 4)"], ""
    )
    assert main(["construct", "smash", str(path), "--carrier", "nope"]) == 1
    assert capsys.readouterr() == ("", "error: no ALGEBRA block named 'nope'\n")
    path.write_text(_KZ2 + action + coaction, encoding="utf-8")
    assert main(["antipode", str(path), "--carrier", "kz2"]) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines()[-5:], err) == (
        ["OVERALL PASS", *(f"S({e}) = {e}" for e in ("1⊗1", "1⊗a", "a⊗1", "a⊗a"))], ""
    )


def test_form_block_prints_through_form_lines():
    form = realize(parse_document(_FORM)).structures[("FORM", "R")]
    assert form_lines("R", form, "H") == render_parsed(parse_document(_FORM)).splitlines()[-5:]
    reference = z2_cobraiding_form(QQ)
    text = render_document(QQ, [hopf_lines("H", reference.hom), form_lines("S", reference, "H")])
    assert realize(parse_document(text)).structures[("FORM", "S")].matrix == reference.matrix
