from fractions import Fraction
from unittest import mock

import pytest

import hom_oracles as oracles
from homhopf import (
    ActionMap,
    Bundle,
    ExactError,
    HomAlgebra,
    HomCoalgebra,
    Matrix,
    QQ,
    YDModule,
    associator,
    braiding,
    braiding_inverse,
    check_action_axioms,
    check_bialgebra_in_hyd,
    check_bosonization_equivalence,
    check_coaction_axioms,
    check_hexagons,
    check_hom_bialgebra,
    check_hyd,
    check_pentagon,
    check_radford_conditions,
    check_yang_baxter,
    check_yd_morphism,
    kron,
    maps_equal,
    regular_action,
    trivial_yd_module,
    yang_baxter_operator,
    yd_tensor,
)
from homhopf import matrices
from homhopf.braided import CategoryMorphism, associator_matrix, braiding_matrix
from homhopf.catalog import (
    CoactionMap,
    dual_number_bundle,
    group_algebra_z2,
    taft_bundle,
    z2_r_matrix,
)
from homhopf.quasitriangular import induced_coaction
from homhopf.structures import HomBialgebra


def checked_module(bundle):
    """The bundle's carrier as a Yetter-Drinfeld module, refused unless it is one."""
    return YDModule(bundle.action, bundle.coaction)


def dual_module(field, l=2):
    return checked_module(dual_number_bundle(field, l))


def is_yd(module):
    """The axioms a checked YDModule verifies at construction."""
    reports = (check_action_axioms(module.action), check_coaction_axioms(module.coaction))
    return all(rep.passed for rep in reports) and check_hyd(module).passed


def qt_self_module(field):
    """The Z2 group algebra over itself: regular action, induced coaction."""
    r = z2_r_matrix(field)
    hom = r.hom
    return YDModule(regular_action(hom), induced_coaction(hom, r), name="self-QT")


def catalog_modules(field):
    hom = group_algebra_z2(field)
    return {
        "K": trivial_yd_module(hom),
        "A": dual_module(field),
        "T": checked_module(taft_bundle(field, 2)),
        "H": qt_self_module(field),
    }


def test_yd_tensor_passes_hyd(field):
    a = dual_module(field)
    t = yd_tensor(a, a)
    assert t.dim == 4
    assert is_yd(t)
    h = qt_self_module(field)
    k = trivial_yd_module(a.hom)
    assert is_yd(yd_tensor(h, k))


def test_unit_module_tensor_structure():
    # the unit leg only feeds a twist through: action beta(h) |> m, coaction
    # beta^-1(m_-1) (x) k (x) m_0
    a = dual_module(QQ)
    k = trivial_yd_module(a.hom)
    t = yd_tensor(k, a)
    assert is_yd(t)
    hom = a.hom
    i2 = Matrix.identity(QQ, 2)
    assert t.action.matrix == a.action.matrix * kron(hom.twist, i2)
    assert t.coaction.matrix == kron(hom.twist_inv, i2) * a.coaction.matrix


def test_associator_identity_when_untwisted():
    hom = group_algebra_z2(QQ)
    k = trivial_yd_module(hom)
    f = associator(k, k, k)
    assert f.matrix.is_identity()


def test_associator_blocks_and_morphism():
    a = dual_module(QQ)
    f = associator(a, a, a)
    half = Fraction(1, 2)
    expected = kron(
        kron(Matrix.diagonal(QQ, [1, half]), Matrix.identity(QQ, 2)),
        Matrix.diagonal(QQ, [1, 2]),
    )
    assert f.matrix == expected
    assert check_yd_morphism(f).passed


def test_pentagon_on_catalog(field):
    mods = catalog_modules(field)
    a = mods["A"]
    assert check_pentagon(a, a, a, a).passed  # 16 x 16 comparison
    assert check_pentagon(mods["K"], a, mods["H"], a).passed


def test_braiding_on_trivial_leg_is_plain_flip():
    # with the unit module on either side the twists cancel exactly
    a = dual_module(QQ)
    k = trivial_yd_module(a.hom)
    assert braiding_matrix(k, a).is_identity()
    assert braiding_matrix(a, k).is_identity()


def test_braiding_frozen_value_and_oracle(field):
    a = dual_module(field, 2)
    c = braiding_matrix(a, a)
    ora = oracles.oracle_matrix(
        field, (2, 2), (2, 2), lambda idx: oracles.braiding_oracle(a, a, idx)
    )
    assert maps_equal(c, ora)
    # c(z (x) z) = -(z (x) z), independent of the twist parameter
    col = 1 * 2 + 1
    assert c.entry(3, col) == field.neg(field.one)
    assert check_yd_morphism(braiding(a, a)).passed


def test_braiding_inverse_composites(field):
    mods = catalog_modules(field)
    names = ["K", "A", "H"]
    for x in names:
        for y in names:
            m1, m2 = mods[x], mods[y]
            c = braiding_matrix(m1, m2)
            ci = braiding_inverse(m1, m2).matrix
            assert (ci * c).is_identity()
            assert (c * ci).is_identity()


def test_braiding_is_h_linear_and_colinear(field):
    mods = catalog_modules(field)
    for x in ("A", "H", "T"):
        for y in ("A", "K"):
            rep = check_yd_morphism(braiding(mods[x], mods[y]))
            assert rep.passed, (x, y, rep.render(True))


def test_yang_baxter_operator_oracle_and_twist(field):
    a = dual_module(field)
    h = qt_self_module(field)
    for m1, m2 in ((a, a), (h, h), (a, h)):
        tau = yang_baxter_operator(m1, m2)
        ora = oracles.oracle_matrix(
            field,
            (m1.dim, m2.dim),
            (m2.dim, m1.dim),
            lambda idx: oracles.tau_oracle(m1, m2, idx),
        )
        assert maps_equal(tau, ora)


def test_hybe_on_catalog_triples(field):
    mods = catalog_modules(field)
    a, h, k = mods["A"], mods["H"], mods["K"]
    assert check_yang_baxter(k, k, k).passed
    assert check_yang_baxter(a, a, a).passed  # 8 x 8 comparison
    assert check_yang_baxter(h, h, h).passed
    assert check_yang_baxter(a, h, k).passed


def test_hexagons_on_catalog_triples(field):
    mods = catalog_modules(field)
    a, h, k = mods["A"], mods["H"], mods["K"]
    for triple in ((a, a, a), (a, h, k), (h, a, a)):
        rep = check_hexagons(*triple)
        assert rep.passed, rep.render(True)


def test_hexagons_reuse_the_twist_inverses():
    # each inverse associator reads the inverse its module twist keeps, so
    # with those warm only the two fresh tensor modules invert their twists
    m = taft_bundle(QQ, 2).yd_module()
    check_hexagons(m, m, m)
    with mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve:
        assert check_hexagons(m, m, m).passed
    assert solve.call_count == 2


def test_hexagon_breaks_under_mutation():
    # flipping one sign in c_{M,N} must break the first hexagon composite
    a = dual_module(QQ)
    c12 = braiding_matrix(a, a)
    mutated = c12 + Matrix(QQ, 4, 4, {(3, 3): 2})  # -1 -> +1 on the z,z block
    i2 = Matrix.identity(QQ, 2)
    lhs_good = kron(i2, braiding_matrix(a, a)) * associator_matrix(a, a, a) * kron(c12, i2)
    lhs_bad = kron(i2, braiding_matrix(a, a)) * associator_matrix(a, a, a) * kron(mutated, i2)
    rhs = (
        associator_matrix(a, a, a)
        * braiding_matrix(a, yd_tensor(a, a))
        * associator_matrix(a, a, a)
    )
    assert maps_equal(lhs_good, rhs)
    assert not maps_equal(lhs_bad, rhs)


def test_twist_is_a_yd_morphism(field):
    a = dual_module(field)
    f = CategoryMorphism(a, a, a.twist)
    assert check_yd_morphism(f).passed


def twisted_taft_self_module():
    """A Yetter-Drinfeld module over a twisted noncommutative base: the
    involutively twisted four-dimensional algebra over itself, coaction
    induced by its triangular element."""
    from fractions import Fraction
    from homhopf import RMatrix
    from homhopf.catalog import taft_twisted

    hom = taft_twisted(QQ, -1)
    half = Fraction(1, 2)
    pairs = {
        (0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half,
        (2, 2): half, (2, 3): half, (3, 3): half, (3, 2): -half,
    }
    r = RMatrix.from_pairs(hom, pairs)
    return YDModule(regular_action(hom), induced_coaction(hom, r), check=False)


def test_full_machinery_over_twisted_noncommutative_base():
    m = twisted_taft_self_module()
    assert not m.hom.twist.is_identity()
    assert check_hyd(m).passed
    from homhopf import check_hyd_prime

    assert check_hyd_prime(m).passed
    assert check_hyd(yd_tensor(m, m)).passed
    c = braiding(m, m)
    ci = braiding_inverse(m, m)
    assert check_yd_morphism(c).passed
    assert (ci.matrix * c.matrix).is_identity()
    assert (c.matrix * ci.matrix).is_identity()
    assert check_yang_baxter(m, m, m).passed
    assert check_hexagons(m, m, m).passed
    assert check_pentagon(m, m, m, m).passed
    k = trivial_yd_module(m.hom)
    assert check_hexagons(m, k, m).passed


def test_yd_tensor_valid_on_fuzzed_instances():
    # tensor modules of fuzz-grid instances stay Yetter-Drinfeld
    from fuzz_grid import grid

    instances = grid()
    for tag, bundle in instances[::16]:
        module = bundle.yd_module()
        assert is_yd(yd_tensor(module, module)), tag


def test_bialgebra_in_category_on_catalog(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 2)):
        rep = check_bialgebra_in_hyd(bundle)
        assert rep.passed, rep.render(True)


def test_dual_number_not_ordinary_bialgebra_but_braided_one():
    bundle = dual_number_bundle(QQ, 2)
    cand = HomBialgebra(bundle.algebra, bundle.coalgebra, check=False)
    rep = check_hom_bialgebra(cand)
    bad = rep.check("compat.comult-mult")
    assert not bad.passed
    assert "z⊗z" in bad.witness
    assert check_bialgebra_in_hyd(bundle).passed


def test_bosonization_equivalence_on_catalog(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 3)):
        rep = check_bosonization_equivalence(bundle)
        assert rep.check("agreement").passed
        assert rep.check("radford-conditions").passed


def test_bosonization_equivalence_on_mutation():
    d = dual_number_bundle(QQ, 2)
    q = Matrix(QQ, 4, 2, {(0, 0): 1, (1, 1): 2})  # coaction moved off the graded leg
    bundle = Bundle(
        algebra=d.algebra,
        coalgebra=d.coalgebra,
        hom=d.hom,
        action=d.action,
        coaction=CoactionMap(d.hom, q, d.algebra.twist, ("1", "z")),
    )
    rep = check_bosonization_equivalence(bundle)
    assert not rep.check("radford-conditions").passed
    assert not rep.check("bialgebra-in-category").passed
    assert rep.check("agreement").passed  # false on both sides


def test_in_category_checks_report_a_singular_carrier_twist():
    # the braiding untwists by alpha^-1, as R4 does: with alpha = diag(1, 0)
    # the in-category checks report R4's refusal instead of raising
    d = dual_number_bundle(QQ, 2)
    t = Matrix.diagonal(QQ, [1, 0])
    a, c = d.algebra, d.coalgebra
    bundle = Bundle(
        algebra=HomAlgebra(QQ, a.mult, a.unit, t, basis=a.basis, check=False),
        coalgebra=HomCoalgebra(QQ, c.comult, c.counit, t, basis=c.basis, check=False),
        hom=d.hom,
        action=ActionMap(d.hom, d.action.matrix, t, ("1", "z")),
        coaction=CoactionMap(d.hom, d.coaction.matrix, t, ("1", "z")),
    )
    r4 = check_radford_conditions(bundle).check("R4")
    assert (r4.passed, r4.witness) == (False, "carrier twist is singular")
    braided = check_bialgebra_in_hyd(bundle).check("braided-comult-mult")
    assert (braided.passed, braided.witness) == (False, r4.witness)
    rep = check_bosonization_equivalence(bundle)
    assert not rep.check("bialgebra-in-category").passed
    assert rep.check("agreement").passed


def test_bosonization_equivalence_needs_involutive_twist():
    from homhopf.catalog import taft_twisted
    from homhopf import trivial_action, trivial_coaction

    h = taft_twisted(QQ, 2)  # twist squares to diag(1,1,4,4) != id
    carrier = dual_number_bundle(QQ, 2)
    bundle = Bundle(
        algebra=carrier.algebra,
        coalgebra=carrier.coalgebra,
        hom=h,
        action=trivial_action(h, carrier.algebra.twist, ("1", "z")),
        coaction=trivial_coaction(h, carrier.algebra.twist, ("1", "z")),
    )
    with pytest.raises(ExactError):
        check_bosonization_equivalence(bundle)
