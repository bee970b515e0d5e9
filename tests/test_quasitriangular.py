import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hom_oracles as oracles
from fuzz_grid import twisted_cyclic
from homhopf import (
    CobraidingForm,
    GF,
    Matrix,
    QQ,
    RMatrix,
    StructureError,
    YDModule,
    check_action_axioms,
    check_coaction_axioms,
    check_cobraiding_equivalence,
    check_hyd,
    check_quasitriangular,
    check_rmatrix_equivalence,
    induced_action_from_form,
    induced_coaction,
    maps_equal,
    regular_action,
    regular_coaction,
    rmatrix_from_coaction,
    trivial_action,
    trivial_coaction,
)
from homhopf.catalog import (
    cyclic_group_hopf,
    group_algebra_z2,
    taft_twisted,
    yau_twist,
    z2_cobraiding_form,
    z2_r_matrix,
)

F7 = GF(7)


def test_derived_r_matrix_passes_qha(field):
    r = z2_r_matrix(field)
    rep = check_quasitriangular(r.hom, r)
    assert rep.passed, rep.render(True)
    assert oracles.qha_oracle(r.hom, r) == {f"QHA{i}": True for i in range(1, 6)}


def test_derived_r_matrix_refused_over_gf2():
    with pytest.raises(StructureError):
        z2_r_matrix(GF(2))


def test_derived_r_matrix_over_gf3():
    r = z2_r_matrix(GF(3))
    assert check_quasitriangular(r.hom, r).passed


def test_trivial_r_matrix_passes(field):
    hom = group_algebra_z2(field)
    r = RMatrix.from_pairs(hom, {(0, 0): field.one})
    rep = check_quasitriangular(hom, r)
    assert rep.passed
    # induced coaction degenerates to the trivial one
    coact = induced_coaction(hom, r)
    assert coact.matrix == trivial_coaction(hom, hom.twist, hom.basis).matrix


def test_broken_r_matrix_verdicts_match_oracle():
    hom = group_algebra_z2(QQ)
    r = RMatrix.from_pairs(hom, {(0, 1): QQ.one})  # 1 (x) a, not counital
    rep = check_quasitriangular(hom, r)
    lib = {c.name: c.passed for c in rep.checks}
    assert lib == oracles.qha_oracle(hom, r)
    assert not lib["QHA1"]


def test_induced_coaction_frozen_and_oracle(field):
    r = z2_r_matrix(field)
    hom = r.hom
    coact = induced_coaction(hom, r)
    ora = oracles.oracle_matrix(
        field, (2,), (2, 2), lambda idx: oracles.induced_coaction_oracle(hom, r, idx[0])
    )
    assert maps_equal(coact.matrix, ora)
    half = field.inv(field.coerce(2))
    # rho(a) = (1/2)(1(x)1 + 1(x)a - a(x)1 + a(x)a), expanded by hand
    expected = {0: half, 1: half, 2: field.neg(half), 3: half}
    for row in range(4):
        assert coact.matrix.entry(row, 1) == expected.get(row, field.zero)


def test_induced_coaction_is_comodule_coalgebra_and_yd(field):
    r = z2_r_matrix(field)
    hom = r.hom
    coact = induced_coaction(hom, r)
    assert check_coaction_axioms(coact, "comodule-coalgebra", carrier=hom.coalgebra).passed
    module = YDModule(regular_action(hom), coact, name="self")
    assert check_hyd(module).passed


def test_equivalence_forward_on_test_surface(field):
    hom = group_algebra_z2(field)
    surface = [
        z2_r_matrix(field),
        RMatrix.from_pairs(hom, {(0, 0): field.one}),
        RMatrix.from_pairs(hom, {(0, 1): field.one}),
    ]
    outcomes = []
    for r in surface:
        rep = check_rmatrix_equivalence(hom, rmatrix=r)
        assert rep.check("agreement").passed
        outcomes.append(rep.check("QHA1-5").passed)
    assert outcomes == [True, True, False]


def test_broken_r_fails_both_sides():
    hom = group_algebra_z2(QQ)
    rep = check_rmatrix_equivalence(hom, rmatrix=RMatrix.from_pairs(hom, {(0, 1): QQ.one}))
    assert not rep.check("QHA1-5").passed
    assert not rep.check("comodule-Hom-coalgebra").passed
    assert rep.check("agreement").passed


def test_reverse_direction_decompiles_induced_shape(field):
    r = z2_r_matrix(field)
    hom = r.hom
    coact = induced_coaction(hom, r)
    recovered, shape = rmatrix_from_coaction(hom, coact)
    assert shape.passed
    assert recovered.coeffs == r.coeffs
    rep = check_rmatrix_equivalence(hom, coaction=coact)
    assert rep.check("induced-shape").passed
    assert rep.check("agreement").passed


def test_reverse_direction_reports_non_induced_shape():
    hom = group_algebra_z2(QQ)
    rep = check_rmatrix_equivalence(hom, coaction=regular_coaction(hom))
    assert [c.name for c in rep.checks] == ["induced-shape"]
    assert not rep.passed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4))
def test_equivalence_agreement_fuzzed_z2(coeffs):
    hom = group_algebra_z2(F7)
    r = RMatrix(hom, Matrix(F7, 4, 1, {(i, 0): v for i, v in enumerate(coeffs)}))
    rep = check_rmatrix_equivalence(hom, rmatrix=r)
    assert rep.check("agreement").passed


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=16, max_size=16))
def test_equivalence_agreement_fuzzed_twisted_z4(coeffs):
    hom = twisted_cyclic(4, 3)
    r = RMatrix(hom, Matrix(F7, 16, 1, {(i, 0): v for i, v in enumerate(coeffs)}))
    rep = check_rmatrix_equivalence(hom, rmatrix=r)
    assert rep.check("agreement").passed


def _taft_triangular_element(hom, t):
    field = hom.field
    half = field.inv(field.coerce(2))
    pairs = {
        (0, 0): half,
        (0, 1): half,
        (1, 0): half,
        (1, 1): field.neg(half),
    }
    t = field.coerce(t)
    if t != field.zero:
        tt = field.div(t, field.coerce(2))
        pairs.update({(2, 2): tt, (2, 3): tt, (3, 3): tt, (3, 2): field.neg(tt)})
    return RMatrix.from_pairs(hom, pairs)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_taft_triangular_family_classical(field, t):
    # a noncommutative noncocommutative quasitriangular instance
    from homhopf.catalog import taft_hopf

    hom = taft_hopf(field)
    r = _taft_triangular_element(hom, t)
    assert check_quasitriangular(hom, r).passed
    rep = check_rmatrix_equivalence(hom, rmatrix=r)
    assert rep.check("agreement").passed
    assert rep.check("HYD").passed


def test_taft_triangular_survives_involutive_twisting():
    # with the order-two twist the whole family stays quasitriangular,
    # giving a twisted noncommutative base for the induced coaction
    from homhopf.catalog import taft_twisted

    hom = taft_twisted(QQ, -1)
    assert not hom.twist.is_identity()
    r = _taft_triangular_element(hom, 1)
    assert check_quasitriangular(hom, r).passed
    coact = induced_coaction(hom, r)
    assert check_coaction_axioms(coact, "comodule-coalgebra", carrier=hom.coalgebra).passed
    module = YDModule(regular_action(hom), coact, check=False)
    assert check_hyd(module).passed


def test_taft_triangular_breaks_for_non_invariant_twist():
    # scaling the nilpotent part by 2 breaks QHA5; the equivalence still agrees
    from homhopf.catalog import taft_twisted

    hom = taft_twisted(QQ, 2)
    r = _taft_triangular_element(hom, 1)
    rep = check_quasitriangular(hom, r)
    assert [c.name for c in rep.failures()] == ["QHA5"]
    assert check_rmatrix_equivalence(hom, rmatrix=r).check("agreement").passed


def test_twist_invariance_of_induced_maps():
    # QHA5 forces the induced coaction to commute with the twist
    hom = twisted_cyclic(4, 3)
    r = RMatrix.from_pairs(hom, {(0, 0): F7.one})
    assert check_quasitriangular(hom, r).passed
    coact = induced_coaction(hom, r)
    from homhopf import kron

    assert coact.matrix * hom.twist == kron(hom.twist, hom.twist) * coact.matrix


def test_twist_invariance_of_induced_action():
    # the counit form is valid over a twisted base; its induced action must
    # commute with the twist as a map identity
    hom = twisted_cyclic(4, 3)
    sigma = CobraidingForm(hom, hom.counit.transpose() * hom.counit)
    act = induced_action_from_form(hom, sigma)
    assert check_cobraiding_equivalence(hom, sigma).passed
    from homhopf import kron

    assert act.matrix * kron(hom.twist, hom.twist) == hom.twist * act.matrix


def test_counit_form_induces_trivial_action(field):
    hom = group_algebra_z2(field)
    sigma = CobraidingForm(hom, hom.counit.transpose() * hom.counit)
    act = induced_action_from_form(hom, sigma)
    assert act.matrix == trivial_action(hom, hom.twist, hom.basis).matrix
    rep = check_cobraiding_equivalence(hom, sigma)
    assert rep.check("cobraided").passed


def test_dual_form_satisfies_cobraiding_contract(field):
    sigma = z2_cobraiding_form(field)
    rep = check_cobraiding_equivalence(sigma.hom, sigma)
    assert rep.passed, rep.render(True)
    act = induced_action_from_form(sigma.hom, sigma)
    # a |> a = -a: the sign witnesses the nontrivial pairing
    assert act.matrix.entry(1, 3) == field.neg(field.one)


def test_degenerate_form_fails_module_axioms():
    hom = group_algebra_z2(QQ)
    sigma = CobraidingForm(hom, Matrix(QQ, 2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1}))
    act = induced_action_from_form(hom, sigma)
    rep = check_action_axioms(act, "module-algebra", carrier=hom.algebra)
    assert not rep.check("HM2.assoc").passed
    assert "a⊗a" in rep.check("HM2.assoc").witness
    full = check_cobraiding_equivalence(hom, sigma)
    assert not full.check("cobraided").passed


def _cyclic_twisted_over_q(n, s):
    base = cyclic_group_hopf(QQ, n)
    return yau_twist(base, Matrix(QQ, n, n, {((s * i) % n, i): 1 for i in range(n)}))


@pytest.mark.parametrize(
    "build, draw",
    [
        (lambda: taft_twisted(QQ, 2), lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        (lambda: _cyclic_twisted_over_q(4, 3), lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        (lambda: taft_twisted(F7, 3), lambda rng: rng.randrange(7)),
        (lambda: twisted_cyclic(4, 3), lambda rng: rng.randrange(7)),
    ],
    ids=["taft-Q", "KZ4s3-Q", "taft-GF7", "KZ4s3-GF7"],
)
def test_induced_action_from_form_entrywise(build, draw):
    # h |> g = sigma(g1, beta^-3(h)) g2, expanded over the structure constants
    hom = build()
    field, n = hom.field, hom.dim
    assert not hom.twist.is_identity()
    b3 = hom.twist_power(-3)
    beta = [[hom.twist.entry(i, j) for j in range(n)] for i in range(n)]
    cube = beta
    for _ in range(2):
        cube = [[_dot(field, cube[i], [beta[k][j] for k in range(n)]) for j in range(n)] for i in range(n)]
    inverse = [[b3.entry(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):  # beta^3 beta^-3 = id, so b3 is the inverse the formula means
        for j in range(n):
            product = _dot(field, cube[i], [inverse[k][j] for k in range(n)])
            assert product == (field.one if i == j else field.zero)
    rng = random.Random(2024)
    for _ in range(5):
        sigma = [[field.coerce(draw(rng)) for _ in range(n)] for _ in range(n)]
        form = CobraidingForm(hom, Matrix.from_rows(field, sigma))
        act = induced_action_from_form(hom, form)
        assert (act.matrix.rows, act.matrix.cols) == (n, n * n)
        assert act.carrier_twist == hom.twist and act.carrier_basis == hom.basis
        for h in range(n):
            for g in range(n):
                expected = {}
                for (g1, g2), c in oracles.delta_basis(hom, g).items():
                    pairing = _dot(field, sigma[g1], [inverse[l][h] for l in range(n)])
                    oracles.acc(field, expected, g2, field.mul(c, pairing))
                assert oracles.act_basis(act, h, g) == expected


def _dot(field, row, col):
    total = field.zero
    for a, b in zip(row, col):
        total = field.add(total, field.mul(a, b))
    return total
