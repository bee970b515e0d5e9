"""Every construction refusal goes through `Report.require`: the exact
message of each site, and the failing report the refusal carries.

The associator refuses with `ExactError` and no report; its message is
pinned at the end, beside the first failing check of the braidings, which
are built unchecked.
"""

import dataclasses
import os
import tempfile

import pytest

from homhopf import (
    ActionMap,
    Bundle,
    CoactionMap,
    ExactError,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    Matrix,
    QQ,
    RMatrix,
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
    check_t_smash_conditions,
    coaction_twist_map,
    induced_coaction,
    kron,
    radford_biproduct,
    regular_action,
    regular_coaction,
    smash_coproduct,
    smash_product,
    t_smash_coproduct,
    trivial_action,
    trivial_coaction,
    yau_twist,
)
from homhopf.braided import associator, braiding, braiding_inverse, check_yd_morphism
from homhopf.catalog import (
    dual_number_algebra,
    dual_number_bundle,
    group_algebra_z2,
    taft_bundle,
    taft_hopf,
    taft_twisted,
    z2_r_matrix,
)
from homhopf.cli import build_parser
from homhopf.constructions import TwistMapT, carrier_antipode_report
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
    bad = TwistMapT(b.coalgebra, b.hom, Matrix(QQ, 8, 8, ent), check=False)
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
    # a zero row in the acting antipode passes every gate; the antipode
    # command refuses the biproduct antipode it computed, checked against the
    # bialgebra it assembled
    d = dual_number_bundle(QQ, 2)
    zeroed = Matrix(QQ, 2, 2, {(1, 1): 1})
    bundle = dataclasses.replace(d, hom=HomHopf(d.hom.bialgebra, zeroed, check=False))
    text = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
    text = text.replace("  ANTIPODE 0 : 1 0\n", "  ANTIPODE 0 : 0 0\n", 1)

    def run_command():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bundle.hh")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            args = build_parser().parse_args(["antipode", path])
            args.func(args)

    return (
        run_command,
        lambda: check_antipode(
            radford_biproduct(bundle).bialgebra,
            biproduct_antipode(bundle).matrix,
            title="antipode axioms [biproduct]",
        ),
    )


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
        "biproduct antipode fails its axioms: antipode.left",
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
    # the associator refuses a non-morphism; a braiding is built unchecked,
    # and check_yd_morphism names its first failing check
    if refused:
        with pytest.raises(ExactError) as info:
            make()
        assert str(info.value) == f"associator is not a morphism: {failing}"
    else:
        assert check_yd_morphism(make()).first_failure().name == failing
