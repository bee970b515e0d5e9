import pytest

import hom_oracles as oracles
from homhopf import (
    ActionMap,
    CoactionMap,
    ExactError,
    GF,
    Matrix,
    QQ,
    ShapeError,
    StructureError,
    YDModule,
    check_action_axioms,
    check_coaction_axioms,
    check_hyd,
    check_hyd_prime,
    kron,
    maps_equal,
    regular_action,
    regular_coaction,
    trivial_action,
    trivial_coaction,
    trivial_yd_module,
)
from homhopf.actions import hyd_lhs_matrix, hyd_rhs_matrix
from homhopf.catalog import (
    dual_number_algebra,
    dual_number_bundle,
    group_algebra_z2,
    taft_bundle,
    taft_twisted,
)


def dual_action_with_sign(field, l, sign):
    hom = group_algebra_z2(field)
    l = field.coerce(l)
    twist = Matrix.diagonal(field, [field.one, l])
    c = l if sign > 0 else field.neg(l)
    p = {(0, 0): field.one, (1, 1): l, (0, 2): field.one, (1, 3): c}
    return ActionMap(hom, Matrix(field, 2, 4, p), twist, ("1", "z"))


def test_printed_taft_action_is_module_algebra(field):
    b = taft_bundle(field, 2)
    assert check_action_axioms(b.action, "module", title="t").passed
    assert check_action_axioms(b.action, "module-algebra", carrier=b.algebra).passed


def test_regular_action_is_module(field):
    for h in (group_algebra_z2(field), taft_twisted(field, 2)):
        assert check_action_axioms(regular_action(h)).passed


def test_both_dual_action_signs_are_modules():
    for sign in (+1, -1):
        act = dual_action_with_sign(QQ, 2, sign)
        assert check_action_axioms(act, "module").passed
        assert check_action_axioms(
            act, "module-algebra", carrier=dual_number_algebra(QQ, 2)
        ).passed


def test_taft_coaction_is_comodule_coalgebra(field):
    b = taft_bundle(field, 2)
    assert check_coaction_axioms(b.coaction, "comodule").passed
    assert check_coaction_axioms(
        b.coaction, "comodule-coalgebra", carrier=b.coalgebra
    ).passed


def test_regular_coaction_is_comodule(field):
    for h in (group_algebra_z2(field), taft_twisted(field, 3)):
        assert check_coaction_axioms(regular_coaction(h)).passed


def test_unscaled_coaction_fails_counit_law():
    # rho(z) = a (x) z with twist alpha(z) = 2z: eps(a)z = z != 2z
    hom = group_algebra_z2(QQ)
    twist = Matrix.diagonal(QQ, [1, 2])
    q = Matrix(QQ, 4, 2, {(0, 0): 1, (3, 1): 1})
    coact = CoactionMap(hom, q, twist, ("1", "z"))
    rep = check_coaction_axioms(coact)
    assert not rep.check("HCM2.counit").passed
    assert "z" in rep.check("HCM2.counit").witness


def test_trivial_module_passes(field):
    m = trivial_yd_module(group_algebra_z2(field))
    assert check_hyd(m).passed
    rep = check_hyd_prime(m)
    assert rep.passed


def test_dual_number_module_passes_and_matches_oracle(field):
    b = dual_number_bundle(field, 2)
    m = b.yd_module()
    assert check_hyd(m).passed
    lhs = oracles.oracle_matrix(
        field, (2, 2), (2, 2), lambda idx: oracles.hyd_lhs_oracle(b.action, b.coaction, idx)
    )
    rhs = oracles.oracle_matrix(
        field, (2, 2), (2, 2), lambda idx: oracles.hyd_rhs_oracle(b.action, b.coaction, idx)
    )
    assert maps_equal(hyd_lhs_matrix(b.action, b.coaction), lhs)
    assert maps_equal(hyd_rhs_matrix(b.action, b.coaction), rhs)


def test_taft_bundle_hyd_matches_oracle():
    b = taft_bundle(QQ, 2)
    lhs = oracles.oracle_matrix(
        QQ, (2, 4), (2, 4), lambda idx: oracles.hyd_lhs_oracle(b.action, b.coaction, idx)
    )
    assert maps_equal(hyd_lhs_matrix(b.action, b.coaction), lhs)
    assert check_hyd(b.yd_module()).passed


def test_hyd_ignores_action_sign_over_commutative_base():
    # over the commutative cocommutative group algebra the compatibility is
    # insensitive to the sign of the nontrivial group element's action; the
    # sign is adjudicated by the biproduct gate (R4), not here
    b = dual_number_bundle(QQ, 2)
    for sign in (+1, -1):
        act = dual_action_with_sign(QQ, 2, sign)
        m = YDModule(act, b.coaction, check=False)
        assert check_hyd(m).passed


def test_hyd_genuine_failure_regular_action_trivial_coaction():
    # non-cocommutative acting structure: the regular action with the trivial
    # coaction passes both plain axiom sets but is not Yetter-Drinfeld
    h = taft_twisted(QQ, 2)
    act = regular_action(h)
    coact = trivial_coaction(h, h.twist, h.basis)
    assert check_action_axioms(act).passed
    assert check_coaction_axioms(coact).passed
    m = YDModule(act, coact, check=False)
    rep = check_hyd(m)
    assert not rep.passed
    assert "x" in rep.checks[0].witness
    prime = check_hyd_prime(m)
    assert not prime.check("HYD-prime").passed
    assert prime.check("equivalence-with-HYD").passed  # false on both sides
    with pytest.raises(StructureError):
        YDModule(act, coact, check=True)


def test_hyd_prime_equivalence_on_catalog(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 3)):
        m = bundle.yd_module()
        rep = check_hyd_prime(m)
        assert rep.check("HYD-prime").passed
        assert rep.check("equivalence-with-HYD").passed


def test_hyd_prime_needs_antipode():
    h = group_algebra_z2(QQ)
    m = YDModule(regular_action(h.bialgebra), regular_coaction(h.bialgebra), check=False)
    with pytest.raises(ExactError):
        check_hyd_prime(m)


def test_twist_mismatch_rejected():
    hom = group_algebra_z2(QQ)
    act = trivial_action(hom, Matrix.diagonal(QQ, [1, 2]))
    coact = trivial_coaction(hom, Matrix.diagonal(QQ, [1, 3]))
    with pytest.raises(ExactError):
        YDModule(act, coact, check=False)


def test_hyd_sides_commute_with_twists(field):
    # alpha_M is an isomorphism of the Yetter-Drinfeld structure
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 2)):
        hom = bundle.hom
        pair_twist = kron(hom.twist, bundle.algebra.twist)
        for side in (hyd_lhs_matrix, hyd_rhs_matrix):
            mat = side(bundle.action, bundle.coaction)
            assert mat * pair_twist == pair_twist * mat


def test_trivial_maps_satisfy_plain_axioms(field):
    hom = taft_twisted(field, 2)
    twist = Matrix.diagonal(field, [field.one, field.coerce(3)])
    assert check_action_axioms(trivial_action(hom, twist)).passed
    assert check_coaction_axioms(trivial_coaction(hom, twist)).passed


def test_action_kind_validation():
    b = dual_number_bundle(QQ, 2)
    with pytest.raises(ValueError):
        check_action_axioms(b.action, "bogus")
    with pytest.raises(ExactError):
        check_action_axioms(b.action, "module-algebra")  # carrier missing
    with pytest.raises(ExactError):
        check_coaction_axioms(b.coaction, "comodule-coalgebra", carrier=dual_number_algebra(QQ, 3))


@pytest.mark.parametrize(
    "cls, noun, shape",
    [(ActionMap, "action", (2, 4)), (CoactionMap, "coaction", (4, 2))],
)
@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("matrix shape", ShapeError, "{noun} matrix must be {rows} x {cols}"),
        ("matrix field", ExactError, "{noun} data must share the acting structure's field"),
        ("twist field", ExactError, "{noun} data must share the acting structure's field"),
        ("non-square twist", ShapeError, "carrier twist must be square"),
        ("basis count", ShapeError, "carrier basis label count must equal the carrier dimension"),
    ],
)
def test_carrier_map_refusal_messages(cls, noun, shape, fault, error, message):
    hom = group_algebra_z2(QQ)
    rows, cols = shape
    twist = Matrix.diagonal(QQ, [1, 2])
    basis = None
    matrix = Matrix(QQ, rows, cols, {})
    if fault == "matrix shape":
        matrix = Matrix(QQ, rows + 1, cols, {})
    elif fault == "matrix field":
        matrix = Matrix(GF(7), rows, cols, {})
    elif fault == "twist field":
        twist = Matrix.diagonal(GF(7), [1, 2])
    elif fault == "non-square twist":
        twist = Matrix(QQ, 2, 3, {(0, 0): 1, (1, 1): 2})
    else:
        basis = ("1", "z", "w")
    with pytest.raises(ExactError) as info:
        cls(hom, matrix, twist, basis)
    assert type(info.value) is error
    assert str(info.value) == message.format(noun=noun, rows=rows, cols=cols)
    cls(hom, Matrix(QQ, rows, cols, {}), Matrix.diagonal(QQ, [1, 2]))  # the fault-free map
