"""Every construction refusal goes through `Report.require`: the exact
message of each site, and the failing report the refusal carries.

The associator's refusal is pinned at the end, beside the first failing
check of the braidings, which are built unchecked.
"""

import dataclasses
import os
import tempfile

import pytest

from homhopf import (
    GF,
    ActionMap,
    Bundle,
    CategoryMorphism,
    CoactionMap,
    CobraidingForm,
    ExactError,
    FieldMismatchError,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    Matrix,
    QQ,
    RMatrix,
    ShapeError,
    StructureError,
    YDModule,
    biproduct_antipode,
    check_action_axioms,
    check_antipode,
    check_coaction_axioms,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_hyd,
    check_quasitriangular,
    check_radford_conditions,
    check_rmatrix_equivalence,
    check_t_smash_conditions,
    coaction_twist_map,
    convolution,
    convolution_inverse,
    first_mismatch,
    induced_coaction,
    kron,
    radford_biproduct,
    regular_action,
    regular_coaction,
    rmatrix_from_coaction,
    smash_coproduct,
    smash_product,
    solve,
    t_smash_coproduct,
    tensor_hom_algebra,
    tensor_hom_coalgebra,
    trivial_action,
    trivial_coaction,
    yau_twist,
    yd_tensor,
)
from homhopf.braided import (
    associator,
    braiding,
    braiding_inverse,
    braiding_inverse_matrix,
    check_yd_morphism,
)
from homhopf.catalog import (
    cyclic_group_hopf,
    dual_number_algebra,
    dual_number_bundle,
    dual_number_coalgebra,
    group_algebra_z2,
    taft_bundle,
    taft_hopf,
    taft_twisted,
    z2_r_matrix,
)
from homhopf.cli import build_parser
from homhopf.constructions import TwistMapT, carrier_antipode_report
from homhopf.matrices import kron_apply, kron_apply_right
from homhopf.report import CheckResult, Report
from homhopf.textfmt import catalog_document


def _diag_1_2():
    return Matrix.diagonal(QQ, [1, 2])


def _hom_algebra():
    # alpha(a) = 2a on the Z2 group algebra breaks alpha(a a) = alpha(a) alpha(a)
    h = group_algebra_z2(QQ)
    build = lambda check: HomAlgebra(QQ, h.mult, h.unit, _diag_1_2(), check=check)
    return lambda: build(True), lambda: check_hom_algebra(build(False))


def _hom_coalgebra():
    h = group_algebra_z2(QQ)
    build = lambda check: HomCoalgebra(QQ, h.comult, h.counit, _diag_1_2(), check=check)
    return lambda: build(True), lambda: check_hom_coalgebra(build(False))


def _hom_bialgebra():
    # the dual numbers with the group-like coproduct: eps(z z) = 0 != eps(z)^2
    a = dual_number_algebra(QQ, 1)
    h = group_algebra_z2(QQ)
    c = HomCoalgebra(QQ, h.comult, h.counit, basis=a.basis)
    build = lambda check: HomBialgebra(a, c, check=check)
    return lambda: build(True), lambda: check_hom_bialgebra(build(False))


def _hom_hopf():
    h = group_algebra_z2(QQ)
    s = Matrix.diagonal(QQ, [2, 2])
    return lambda: HomHopf(h.bialgebra, s), lambda: check_antipode(h.bialgebra, s)


def _yd_module():
    # both plain axiom sets pass, the Yetter-Drinfeld compatibility fails
    h = taft_twisted(QQ, 2)
    act, coact = regular_action(h), trivial_coaction(h, h.twist, h.basis)
    assert check_action_axioms(act).passed and check_coaction_axioms(coact).passed
    return lambda: YDModule(act, coact), lambda: check_hyd(YDModule(act, coact, check=False))


def _smash_product():
    # scaling the group element's action by 3 breaks HM2
    h = group_algebra_z2(QQ)
    p = Matrix(QQ, 2, 4, {(0, 0): 1, (1, 1): 2, (0, 2): 1, (1, 3): 3})
    act = ActionMap(h, p, _diag_1_2(), ("1", "z"))
    carrier = dual_number_algebra(QQ, 2)
    return (
        lambda: smash_product(carrier, h, act),
        lambda: check_action_axioms(act, "module-algebra", carrier=carrier),
    )


def _smash_coproduct():
    d = dual_number_bundle(QQ, 2)
    doubled = d.coaction.matrix.scale(QQ.coerce(2))
    coact = CoactionMap(d.hom, doubled, d.algebra.twist, d.algebra.basis)
    return (
        lambda: smash_coproduct(d.coalgebra, d.hom, coact),
        lambda: check_coaction_axioms(coact, "comodule-coalgebra", carrier=d.coalgebra),
    )


def _t_smash_coproduct():
    # an eps-cancelling correction of the coaction twist map breaks C2
    b = taft_bundle(QQ, 2)
    good = coaction_twist_map(b.coalgebra, b.hom, b.coaction)
    ent = {(r, c): v for r in range(good.matrix.rows) for c, v in good.matrix.row_items(r)}
    for hrow, sign in ((0, 1), (1, -1)):
        key = (hrow * 4 + 2, 4)
        ent[key] = QQ.add(ent.get(key, QQ.zero), QQ.coerce(sign))
    bad = TwistMapT(b.coalgebra, b.hom, Matrix(QQ, 8, 8, ent))
    return (
        lambda: t_smash_coproduct(b.coalgebra, b.hom, bad),
        lambda: check_t_smash_conditions(bad),
    )


def _radford_biproduct():
    # moving the coaction to the group-trivial leg breaks R4
    d = dual_number_bundle(QQ, 2)
    q = Matrix(QQ, 4, 2, {(0, 0): 1, (1, 1): 2})
    coact = CoactionMap(d.hom, q, d.algebra.twist, ("1", "z"))
    bundle = Bundle(
        algebra=d.algebra, coalgebra=d.coalgebra, hom=d.hom, action=d.action, coaction=coact
    )
    return lambda: radford_biproduct(bundle), lambda: check_radford_conditions(bundle)


def _carrier_antipode():
    s = Matrix.identity(QQ, 2)
    d = dataclasses.replace(dual_number_bundle(QQ, 2), carrier_antipode=s)
    return (
        lambda: biproduct_antipode(d),
        lambda: carrier_antipode_report(d.algebra, d.coalgebra, s),
    )


def _biproduct_antipode():
    # a zero row in the acting antipode passes the R1-R5 and carrier-antipode
    # gates; the antipode command refuses it by its own axioms, before it
    # computes the biproduct antipode
    d = dual_number_bundle(QQ, 2)
    zeroed = Matrix(QQ, 2, 2, {(1, 1): 1})
    bundle = dataclasses.replace(d, hom=HomHopf(d.hom.bialgebra, zeroed, name="H", check=False))
    text = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
    text = text.replace("  ANTIPODE 0 : 1 0\n", "  ANTIPODE 0 : 0 0\n", 1)

    def run_command():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bundle.hh")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            args = build_parser().parse_args(["antipode", path])
            args.func(args)

    assert check_radford_conditions(bundle).passed
    return run_command, lambda: check_antipode(bundle.hom)


def _induced_coaction():
    r = z2_r_matrix(QQ)
    doubled = RMatrix(r.hom, r.coeffs.scale(QQ.coerce(2)))
    return (
        lambda: induced_coaction(r.hom, doubled),
        lambda: check_quasitriangular(r.hom, doubled),
    )


REFUSALS = [
    pytest.param(_hom_algebra, "Hom-algebra axioms fail: HA1.mult", id="HomAlgebra"),
    pytest.param(_hom_coalgebra, "Hom-coalgebra axioms fail: HC1.comult", id="HomCoalgebra"),
    pytest.param(
        _hom_bialgebra, "Hom-bialgebra axioms fail: compat.counit-mult", id="HomBialgebra"
    ),
    pytest.param(_hom_hopf, "antipode axioms fail: antipode.left", id="HomHopf"),
    pytest.param(_yd_module, "Yetter-Drinfeld module invalid: HYD", id="YDModule"),
    pytest.param(
        _smash_product, "action is not a module Hom-algebra: HM2.assoc", id="smash_product"
    ),
    pytest.param(
        _smash_coproduct,
        "coaction is not a comodule Hom-coalgebra: HCM2.coassoc",
        id="smash_coproduct",
    ),
    pytest.param(
        _t_smash_coproduct, "twist-map coproduct gate fails: C2", id="t_smash_coproduct"
    ),
    pytest.param(_radford_biproduct, "biproduct gate fails: R4", id="radford_biproduct"),
    pytest.param(
        _carrier_antipode,
        "carrier antipode preconditions fail: carrier-antipode.left",
        id="biproduct_antipode-carrier",
    ),
    pytest.param(
        _biproduct_antipode,
        "acting antipode fails its axioms: antipode.left",
        id="biproduct_antipode-axioms",
    ),
    pytest.param(
        _induced_coaction,
        "element fails the quasitriangular axioms: QHA1",
        id="induced_coaction",
    ),
]


@pytest.mark.parametrize("case, message", REFUSALS)
def test_refusal_message_and_report(case, message):
    build, expected = case()
    with pytest.raises(StructureError) as info:
        build()
    assert str(info.value) == message
    report, failing = info.value.report, expected()
    assert not failing.passed
    assert (report.title, report.checks) == (failing.title, failing.checks)


def test_yau_twist_refusal_message_and_report():
    # gamma(x) = x + 1 is no Hopf automorphism of the Taft algebra
    gamma = Matrix(QQ, 4, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (0, 2): 1})
    with pytest.raises(StructureError) as info:
        yau_twist(taft_hopf(QQ), gamma)
    assert str(info.value) == "twisting map is not a Hopf automorphism: automorphism.mult"
    assert info.value.report.lines(True) == [
        "== Hopf automorphism verification",
        "  automorphism.invertible  PASS",
        "  automorphism.mult        FAIL  [at g⊗y -> 1: 1 != 0]",
        "  automorphism.unit        PASS",
        "  automorphism.comult      FAIL  [at x -> 1⊗g: 0 != 1]",
        "  automorphism.counit      FAIL  [at x -> row 0: 1 != 0]",
        "  automorphism.antipode    FAIL  [at x -> 1: 1 != 0]",
        "== RESULT FAIL",
    ]


def test_require_returns_a_passing_report():
    report = Report("all pass", (CheckResult("one", True), CheckResult("two", True)))
    assert report.require("never raised") is report


def test_require_names_the_first_failure():
    report = Report(
        "two fail",
        (CheckResult("one", True), CheckResult("two", False, "w2"), CheckResult("three", False)),
    )
    with pytest.raises(StructureError) as info:
        report.require("refused")
    assert str(info.value) == "refused: two"
    assert info.value.report is report


def _taft_module(action=None, coaction=None):
    """An unchecked module over the twisted Taft algebra H; the action and
    the coaction are `action(H)` and `coaction(H)`, else the trivial ones."""
    h = taft_twisted(QQ, 2)
    act = action(h) if action else trivial_action(h, h.twist, h.basis)
    coact = coaction(h) if coaction else trivial_coaction(h, h.twist, h.basis)
    return YDModule(act, coact, check=False)


def _twisted_counit_action(h):
    # h |> m = eps(h) G m with G not commuting with the carrier twist (HM1 fails)
    g = Matrix(QQ, 4, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (0, 2): 1})
    return ActionMap(h, kron(h.counit, g), h.twist, h.basis)


def _doubled_regular_coaction(h):
    return CoactionMap(h, regular_coaction(h).matrix.scale(QQ.coerce(2)), h.twist, h.basis)


@pytest.mark.parametrize(
    "make, refused, failing",
    [
        (
            lambda: associator(
                _taft_module(_twisted_counit_action), _taft_module(), _taft_module()
            ),
            True,
            "morphism.action",
        ),
        (
            lambda: braiding(_taft_module(regular_action), _taft_module(regular_action)),
            False,
            "morphism.action",
        ),
        (
            lambda: braiding(
                _taft_module(coaction=_doubled_regular_coaction),
                _taft_module(coaction=_doubled_regular_coaction),
            ),
            False,
            "morphism.coaction",
        ),
        (
            lambda: braiding_inverse(_taft_module(regular_action), _taft_module(regular_action)),
            False,
            "morphism.action",
        ),
    ],
    ids=["associator", "braiding-action", "braiding-coaction", "braiding_inverse"],
)
def test_braided_morphism_refusals(make, refused, failing):
    # the associator refuses a non-morphism with the morphism report; a
    # braiding is built unchecked, and check_yd_morphism names its first
    # failing check
    if refused:
        with pytest.raises(StructureError) as info:
            make()
        assert str(info.value) == f"associator is not a morphism: {failing}"
        assert info.value.report.title == "Yetter-Drinfeld morphism conditions"
        assert info.value.report.first_failure().name == failing
    else:
        assert check_yd_morphism(make()).first_failure().name == failing


def _kz2():
    return group_algebra_z2(QQ)


def _identity(n, field=QQ):
    return Matrix.identity(field, n)


def _kz2_module(hom=None):
    """The regular Yetter-Drinfeld module of `hom` (KZ2 by default), unchecked."""
    hom = hom or _kz2()
    return YDModule(regular_action(hom), regular_coaction(hom), check=False)


def _bundle(**changes):
    return dataclasses.replace(dual_number_bundle(QQ, 2), **changes)


def _not_right_inverse():
    # Delta(1) = a (x) a, Delta(a) = 1 (x) a under the KZ2 multiplication:
    # the one left convolution inverse of the identity is no right inverse
    h = _kz2()
    comult = Matrix(QQ, 4, 2, {(1, 1): 1, (3, 0): 1})
    return convolution_inverse(h.algebra, HomCoalgebra(QQ, comult, [1, 0], check=False))


LIBRARY_RAISES = [
    # structures
    pytest.param(
        lambda: HomAlgebra(QQ, _kz2().mult, [1, 0], _identity(3)),
        ShapeError, "twist must be n x n", id="twisted-twist-shape",
    ),
    pytest.param(
        lambda: HomAlgebra(QQ, _kz2().mult, [1, 0], _identity(2, GF(7))),
        ExactError, "all structure maps must share one field", id="twisted-field",
    ),
    pytest.param(
        lambda: HomAlgebra(QQ, _kz2().mult, [1, 0], basis=("1",)),
        ShapeError, "basis label count must equal the dimension", id="twisted-basis-count",
    ),
    pytest.param(
        lambda: HomAlgebra(QQ, _identity(2), [1, 0]),
        ShapeError, "multiplication matrix must be n x n^2", id="HomAlgebra-shape",
    ),
    pytest.param(
        lambda: HomCoalgebra(QQ, _identity(2), [1, 0]),
        ShapeError, "comultiplication matrix must be n^2 x n", id="HomCoalgebra-shape",
    ),
    pytest.param(
        lambda: HomBialgebra(_kz2().algebra, group_algebra_z2(GF(7)).coalgebra),
        ExactError, "algebra and coalgebra must share one field", id="HomBialgebra-field",
    ),
    pytest.param(
        lambda: HomBialgebra(_kz2().algebra, cyclic_group_hopf(QQ, 3).coalgebra),
        ShapeError, "algebra and coalgebra dimensions differ", id="HomBialgebra-dim",
    ),
    pytest.param(
        lambda: HomBialgebra(
            _kz2().algebra, HomCoalgebra(QQ, _kz2().comult, [1, 1], basis=("p", "q"))
        ),
        ExactError, "algebra and coalgebra must share one basis", id="HomBialgebra-basis",
    ),
    pytest.param(
        lambda: HomHopf(_kz2().bialgebra, _identity(3)),
        ShapeError, "antipode must be n x n", id="HomHopf-shape",
    ),
    pytest.param(
        lambda: HomHopf(_kz2().bialgebra, _identity(2, GF(7))),
        ExactError, "antipode must live over the structure field", id="HomHopf-field",
    ),
    pytest.param(
        lambda: convolution(_identity(3), _identity(2), _kz2()),
        ShapeError, "convolution expects n x n endomaps", id="convolution-shape",
    ),
    pytest.param(
        lambda: convolution_inverse(_kz2().algebra, cyclic_group_hopf(QQ, 3).coalgebra),
        ExactError, "algebra and coalgebra must share dimension and field",
        id="convolution_inverse-mismatch",
    ),
    pytest.param(
        lambda: convolution_inverse(
            _kz2().algebra, HomCoalgebra(QQ, Matrix.zero(QQ, 4, 2), [1, 0], check=False)
        ),
        StructureError, "no convolution inverse of the identity exists",
        id="convolution_inverse-singular",
    ),
    pytest.param(
        _not_right_inverse,
        StructureError, "left convolution inverse is not a right inverse",
        id="convolution_inverse-one-sided",
    ),
    pytest.param(
        lambda: tensor_hom_algebra(_kz2().algebra, group_algebra_z2(GF(7)).algebra),
        ExactError, "tensor product needs a common field", id="tensor_hom_algebra-field",
    ),
    pytest.param(
        lambda: tensor_hom_coalgebra(_kz2().coalgebra, group_algebra_z2(GF(7)).coalgebra),
        ExactError, "tensor product needs a common field", id="tensor_hom_coalgebra-field",
    ),
    # matrices
    pytest.param(
        lambda: Matrix(QQ, -1, 2),
        ShapeError, "negative matrix dimension", id="matrix-negative-dim",
    ),
    pytest.param(
        lambda: Matrix(QQ, 2, 2, {(2, 0): 1}),
        ShapeError, "entry (2,0) outside 2x2", id="matrix-entry-outside",
    ),
    pytest.param(
        lambda: _identity(2).entry(0, 2),
        ShapeError, "entry (0,2) outside 2x2", id="matrix-read-outside",
    ),
    pytest.param(
        lambda: Matrix.from_rows(QQ, [[1, 2], [3]]),
        ShapeError, "ragged rows", id="matrix-ragged-rows",
    ),
    pytest.param(
        lambda: _identity(2) + _identity(3),
        ShapeError, "addition shape mismatch", id="matrix-add-shape",
    ),
    pytest.param(
        lambda: Matrix.zero(QQ, 2, 3).inverse(),
        ShapeError, "only square matrices invert", id="matrix-inverse-shape",
    ),
    pytest.param(
        lambda: Matrix.zero(QQ, 2, 3).pow(2),
        ShapeError, "only square matrices take powers", id="matrix-pow-shape",
    ),
    pytest.param(
        lambda: first_mismatch(_identity(2), [[1, 0], [0, 1]]),
        ExactError, "first_mismatch expects matrices", id="first_mismatch-non-matrix",
    ),
    pytest.param(
        lambda: kron_apply(_identity(2), _identity(2, GF(7)), Matrix.zero(QQ, 4, 1)),
        FieldMismatchError, "kron_apply operands over different fields", id="kron_apply-field",
    ),
    pytest.param(
        lambda: kron_apply(_identity(2), _identity(2), Matrix.zero(QQ, 3, 1)),
        ShapeError, "kron_apply: 4 rows expected, got 3", id="kron_apply-shape",
    ),
    pytest.param(
        lambda: kron_apply_right(Matrix.zero(QQ, 1, 4), _identity(2), _identity(2, GF(7))),
        FieldMismatchError, "kron_apply_right operands over different fields",
        id="kron_apply_right-field",
    ),
    pytest.param(
        lambda: kron_apply_right(Matrix.zero(QQ, 1, 3), _identity(2), _identity(2)),
        ShapeError, "kron_apply_right: 4 columns expected, got 3", id="kron_apply_right-shape",
    ),
    pytest.param(
        lambda: solve(Matrix.zero(QQ, 2, 3), Matrix.zero(QQ, 2, 1)),
        ShapeError, "solve needs a square coefficient matrix", id="solve-square",
    ),
    pytest.param(
        lambda: solve(_identity(2), Matrix.zero(QQ, 3, 1)),
        ShapeError, "right-hand side row count mismatch", id="solve-rows",
    ),
    pytest.param(
        lambda: solve(_identity(2), Matrix.zero(GF(7), 2, 1)),
        FieldMismatchError, "Q vs GF(7)", id="solve-field",
    ),
    # actions, constructions, braided
    pytest.param(
        lambda: check_action_axioms(
            regular_action(_kz2()), "module-algebra", carrier=cyclic_group_hopf(QQ, 3).algebra
        ),
        ShapeError, "carrier structure dimension mismatch", id="carrier-dim",
    ),
    pytest.param(
        lambda: check_coaction_axioms(regular_coaction(_kz2()), "module"),
        ValueError, "unknown coaction kind 'module'", id="coaction-kind",
    ),
    pytest.param(
        lambda: YDModule(
            regular_action(_kz2()), trivial_coaction(cyclic_group_hopf(QQ, 3), _identity(2))
        ),
        ExactError, "action and coaction must share the acting Hom-bialgebra",
        id="YDModule-structures",
    ),
    pytest.param(
        lambda: YDModule(regular_action(_kz2()), trivial_coaction(_kz2(), _identity(3))),
        ShapeError, "action and coaction carrier dimensions differ", id="YDModule-dims",
    ),
    pytest.param(
        lambda: TwistMapT(_bundle().coalgebra, _bundle().hom, _identity(3)),
        ShapeError, "twist map must be 4 x 4", id="TwistMapT-shape",
    ),
    pytest.param(
        lambda: _bundle(action=trivial_action(_kz2(), _identity(3))),
        ShapeError, "action/coaction carrier dimension mismatch", id="Bundle-dim",
    ),
    pytest.param(
        lambda: _bundle(action=trivial_action(_kz2(), _identity(2))),
        ExactError, "action/coaction carrier twist mismatch", id="Bundle-twist",
    ),
    pytest.param(
        lambda: _bundle(
            action=trivial_action(cyclic_group_hopf(QQ, 3), Matrix.diagonal(QQ, [1, 2]))
        ),
        ExactError, "action/coaction act through a different Hom-bialgebra", id="Bundle-hom",
    ),
    pytest.param(
        lambda: biproduct_antipode(_bundle(hom=_kz2().bialgebra)),
        ExactError, "the acting structure has no antipode", id="biproduct_antipode-acting",
    ),
    pytest.param(
        lambda: biproduct_antipode(_bundle(carrier_antipode=None)),
        ExactError, "no carrier antipode supplied", id="biproduct_antipode-carrier-missing",
    ),
    pytest.param(
        lambda: CategoryMorphism(_kz2_module(), _kz2_module(), _identity(3)),
        ExactError, "morphism matrix shape does not match source/target",
        id="CategoryMorphism-shape",
    ),
    pytest.param(
        lambda: check_yd_morphism(
            CategoryMorphism(_kz2_module(), _kz2_module(taft_hopf(QQ)), Matrix.zero(QQ, 4, 2))
        ),
        ExactError, "source and target live over different Hom-bialgebras",
        id="check_yd_morphism-structures",
    ),
    pytest.param(
        lambda: yd_tensor(_kz2_module(), _kz2_module(taft_hopf(QQ))),
        ExactError, "tensor modules need one common acting structure", id="yd_tensor-structures",
    ),
    pytest.param(
        lambda: braiding_inverse_matrix(
            _kz2_module(_kz2().bialgebra), _kz2_module(_kz2().bialgebra)
        ),
        ExactError, "the braiding inverse needs an antipode", id="braiding_inverse-antipode",
    ),
    # quasitriangular and the rest
    pytest.param(
        lambda: RMatrix(_kz2(), Matrix.zero(QQ, 3, 1)),
        ShapeError, "R-matrix coefficients must form an n^2 column", id="RMatrix-shape",
    ),
    pytest.param(
        lambda: RMatrix(_kz2(), Matrix.zero(GF(7), 4, 1)),
        ExactError, "R-matrix must live over the structure field", id="RMatrix-field",
    ),
    pytest.param(
        lambda: CobraidingForm(_kz2(), Matrix.zero(QQ, 4, 1)),
        ShapeError, "form coefficients must be n x n", id="CobraidingForm-shape",
    ),
    pytest.param(
        lambda: CobraidingForm(_kz2(), Matrix.zero(GF(7), 2, 2)),
        ExactError, "form must live over the structure field", id="CobraidingForm-field",
    ),
    pytest.param(
        lambda: check_quasitriangular(_kz2().bialgebra, z2_r_matrix(QQ)),
        ExactError, "quasitriangular checks need a Hom-Hopf algebra",
        id="check_quasitriangular-antipode",
    ),
    pytest.param(
        lambda: rmatrix_from_coaction(_kz2(), trivial_coaction(_kz2(), _identity(3))),
        ShapeError, "the induced shape lives on the structure itself",
        id="rmatrix_from_coaction-shape",
    ),
    pytest.param(
        lambda: check_rmatrix_equivalence(_kz2()),
        ExactError, "provide exactly one of rmatrix or coaction",
        id="check_rmatrix_equivalence-neither",
    ),
    pytest.param(
        lambda: check_rmatrix_equivalence(
            _kz2(), rmatrix=z2_r_matrix(QQ), coaction=regular_coaction(_kz2())
        ),
        ExactError, "provide exactly one of rmatrix or coaction",
        id="check_rmatrix_equivalence-both",
    ),
    pytest.param(
        lambda: QQ.coerce(0.5),
        ExactError, "cannot coerce 0.5 into Q", id="QQ-coerce-float",
    ),
    pytest.param(
        lambda: Report("one", (CheckResult("one", True),)).check("two"),
        KeyError, "'two'", id="Report-check-unknown",
    ),
    pytest.param(
        lambda: dual_number_coalgebra(QQ, 0),
        StructureError, "the twisting parameter l must be nonzero",
        id="dual_number_coalgebra-zero",
    ),
]


@pytest.mark.parametrize("make, kind, message", LIBRARY_RAISES)
def test_library_refusal_type_and_message(make, kind, message):
    with pytest.raises(kind) as info:
        make()
    assert type(info.value) is kind
    assert str(info.value) == message
