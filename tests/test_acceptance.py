"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact equality over Q or GF(7); there are no tolerances
to pin.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools

import pytest

import classical_oracle as classical
from fuzz_grid import assembled_biproduct, grid
from homhopf import (
    Bundle,
    GF,
    HomBialgebra,
    Matrix,
    QQ,
    RMatrix,
    YDModule,
    braiding,
    braiding_inverse,
    check_action_axioms,
    check_antipode,
    check_bosonization_equivalence,
    check_coaction_axioms,
    check_cobraiding_equivalence,
    check_hexagons,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_hyd,
    check_hyd_prime,
    check_pentagon,
    check_quasitriangular,
    check_radford_conditions,
    check_rmatrix_equivalence,
    check_yang_baxter,
    check_yd_morphism,
    convolution,
    induced_coaction,
    maps_equal,
    regular_action,
    smash_coproduct_antipode,
    smash_product_antipode,
    biproduct_antipode,
    trivial_action,
    trivial_coaction,
    trivial_yd_module,
    yd_tensor,
)
from homhopf.braided import braiding_matrix
from homhopf.catalog import (
    CoactionMap,
    antipode_table_of,
    dual_number_algebra,
    dual_number_biproduct,
    dual_number_biproduct_antipode_table,
    dual_number_bundle,
    dual_number_coalgebra,
    group_algebra_z2,
    taft_biproduct,
    taft_biproduct_antipode_table,
    taft_bundle,
    taft_twisted,
    z2_cobraiding_form,
    z2_r_matrix,
)
from homhopf.textfmt import catalog_document, parse_document, realize, run_checks
from homhopf.cli import main as cli_main

F7 = GF(7)
FIELDS = (QQ, F7)


def _params(field):
    return (1, 2, 3, -1) if field.characteristic == 0 else (1, 2, 3)


def _announce(number, text):
    print(f"ACCEPTANCE {number}: {text}: PASS")


def test_criterion_1_catalog_axiom_reproduction():
    for field in FIELDS:
        h = group_algebra_z2(field)
        assert check_hom_bialgebra(h.bialgebra).passed
        assert check_antipode(h.bialgebra, h.antipode).passed
        for k in _params(field):
            t = taft_twisted(field, k)
            assert check_hom_bialgebra(t.bialgebra).passed
            assert check_antipode(t.bialgebra, t.antipode).passed
        for l in _params(field):
            alg = dual_number_algebra(field, l)
            coalg = dual_number_coalgebra(field, l)
            assert check_hom_algebra(alg).passed
            assert check_hom_coalgebra(coalg).passed
    _announce(1, "catalog instances pass every applicable axiom checker exactly")


def test_criterion_2_radford_gate_reproduction():
    for field in FIELDS:
        for p in _params(field):
            taft_rep = check_radford_conditions(taft_bundle(field, p, "printed"))
            if not taft_rep.passed:
                # documented fallback: the printed action failed exhaustively,
                # so the sign-corrected variant must carry the construction
                corrected = check_radford_conditions(taft_bundle(field, p, "sign-corrected"))
                print(f"DISCREPANCY: printed action fails at {taft_rep.first_failure().name}; "
                      f"sign-corrected variant verdict: {corrected.passed}")
                assert corrected.passed
            else:
                assert taft_rep.passed
            assert check_radford_conditions(dual_number_bundle(field, p)).passed
    _announce(2, "R1-R5 pass for both bundles over the whole parameter grid")


def test_criterion_3_antipode_table_reproduction():
    for field in FIELDS:
        for p in _params(field):
            big = taft_biproduct(field, p)
            assert antipode_table_of(big) == taft_biproduct_antipode_table(field)
            small = dual_number_biproduct(field, p)
            assert antipode_table_of(small) == dual_number_biproduct_antipode_table(field)
            for hopf in (big, small):
                i_n = Matrix.identity(field, hopf.dim)
                ue = hopf.unit * hopf.counit
                assert convolution(hopf.antipode, i_n, hopf) == ue
                assert convolution(i_n, hopf.antipode, hopf) == ue
                assert hopf.antipode * hopf.twist == hopf.twist * hopf.antipode
    _announce(3, "all 8 + 4 printed antipode images reproduced entry-exact")


def _assembled_bialgebra_verdict(b):
    return check_hom_bialgebra(assembled_biproduct(b)).passed


def test_criterion_4_gate_biconditional_fuzzed():
    instances = grid()
    assert len(instances) >= 200
    verdicts = {True: 0, False: 0}
    for tag, bundle in instances:
        gate = check_radford_conditions(bundle).passed
        assembled = _assembled_bialgebra_verdict(bundle)
        assert gate == assembled, tag
        verdicts[gate] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
    _announce(4, f"gate/bialgebra biconditional on {len(instances)} GF(7) instances, "
                 f"{verdicts[True]} admitted, zero disagreements")


def test_criterion_5_antipode_degenerations():
    for field in FIELDS:
        for p in _params(field):
            for bundle in (taft_bundle(field, p), dual_number_bundle(field, p)):
                h, a = bundle.hom, bundle.algebra
                no_coaction = Bundle(
                    algebra=a, coalgebra=bundle.coalgebra, hom=h,
                    action=bundle.action,
                    coaction=trivial_coaction(h, a.twist, a.basis),
                    carrier_antipode=bundle.carrier_antipode,
                )
                general = biproduct_antipode(no_coaction).matrix
                assert maps_equal(
                    general,
                    smash_product_antipode(a, h, bundle.action, bundle.carrier_antipode),
                )
                no_action = Bundle(
                    algebra=a, coalgebra=bundle.coalgebra, hom=h,
                    action=trivial_action(h, a.twist, a.basis),
                    coaction=bundle.coaction,
                    carrier_antipode=bundle.carrier_antipode,
                )
                general = biproduct_antipode(no_action).matrix
                assert maps_equal(
                    general,
                    smash_coproduct_antipode(
                        bundle.coalgebra, h, bundle.coaction, bundle.carrier_antipode
                    ),
                )
    _announce(5, "trivial-coaction and trivial-action antipodes match the degenerate formulas")


def _catalog_modules(field):
    r = z2_r_matrix(field)
    hom = r.hom
    return {
        "K": trivial_yd_module(hom),
        "A": dual_number_bundle(field, 2).yd_module(),
        "T": taft_bundle(field, 2).yd_module(),
        "H": YDModule(regular_action(hom), induced_coaction(hom, r), check=False),
    }


def test_criterion_6_hyd_machinery():
    for field in FIELDS:
        mods = _catalog_modules(field)
        for m in mods.values():
            rep = check_hyd_prime(m)
            assert rep.check("HYD-prime").passed
            assert rep.check("equivalence-with-HYD").passed
        names = sorted(mods)
        for x, y in itertools.product(names, repeat=2):
            m1, m2 = mods[x], mods[y]
            t = yd_tensor(m1, m2)
            assert check_hyd(t).passed  # tensor modules stay Yetter-Drinfeld
            assert check_yd_morphism(braiding(m1, m2)).passed
            c = braiding_matrix(m1, m2)
            ci = braiding_inverse(m1, m2).matrix
            assert (ci * c).is_identity() and (c * ci).is_identity()
        for x, y, z in itertools.product(names, repeat=3):
            triple = (mods[x], mods[y], mods[z])
            assert check_yang_baxter(*triple).passed
            assert check_hexagons(*triple).passed
            assert check_pentagon(*triple, triple[0]).passed
    for tag, bundle in grid():
        prime = check_hyd_prime(bundle.yd_module())
        assert prime.check("equivalence-with-HYD").passed, tag
    _announce(6, "HYD<->HYD', tensor modules, braiding morphisms and inverses, "
                 "Yang-Baxter, pentagon and hexagons all pass")


def _mutated_bundles(field):
    base = dual_number_bundle(field, 2)
    q = Matrix(field, 4, 2, {(0, 0): field.one, (1, 1): field.coerce(2)})
    yield Bundle(  # coaction moved off the graded leg
        algebra=base.algebra, coalgebra=base.coalgebra, hom=base.hom,
        action=base.action,
        coaction=CoactionMap(base.hom, q, base.algebra.twist, ("1", "z")),
    )
    from homhopf import ActionMap

    flip = {(0, 0): field.one, (1, 1): field.coerce(2),
            (0, 2): field.one, (1, 3): field.coerce(2)}  # a |> z sign flipped
    yield Bundle(
        algebra=base.algebra, coalgebra=base.coalgebra, hom=base.hom,
        action=ActionMap(base.hom, Matrix(field, 2, 4, flip), base.algebra.twist, ("1", "z")),
        coaction=base.coaction,
    )
    yield taft_bundle(field, 2, "sign-corrected")


def test_criterion_7_bosonization_equivalence():
    for field in FIELDS:
        for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 3)):
            rep = check_bosonization_equivalence(bundle)
            assert rep.check("radford-conditions").passed
            assert rep.check("bialgebra-in-category").passed
            assert rep.check("agreement").passed
        for mutated in _mutated_bundles(field):
            rep = check_bosonization_equivalence(mutated)
            assert not rep.check("radford-conditions").passed
            assert not rep.check("bialgebra-in-category").passed
            assert rep.check("agreement").passed  # false on both sides
    disagreements = [
        tag
        for tag, bundle in grid()
        if not check_bosonization_equivalence(bundle).check("agreement").passed
    ]
    assert disagreements == []
    _announce(7, "gate and in-category verdicts agree on the catalog, the "
                 "mutations, and the whole fuzz grid")


def test_criterion_8_quasitriangular_side():
    from homhopf import StructureError

    for field in FIELDS:
        r = z2_r_matrix(field)
        hom = r.hom
        assert check_quasitriangular(hom, r).passed
        coact = induced_coaction(hom, r)
        assert check_coaction_axioms(coact, "comodule-coalgebra", carrier=hom.coalgebra).passed
        assert check_hyd(YDModule(regular_action(hom), coact, check=False)).passed
        surface = [
            r,
            RMatrix.from_pairs(hom, {(0, 0): field.one}),
            RMatrix.from_pairs(hom, {(0, 1): field.one}),
        ]
        for candidate in surface:
            forward = check_rmatrix_equivalence(hom, rmatrix=candidate)
            assert forward.check("agreement").passed
            reverse = check_rmatrix_equivalence(
                hom, coaction=induced_coaction(hom, candidate, check_gate=False)
            )
            assert reverse.check("induced-shape").passed
            assert reverse.check("agreement").passed
        sigma = z2_cobraiding_form(field)
        assert check_cobraiding_equivalence(hom, sigma).passed
        eps_form = z2_cobraiding_form(field).__class__(
            hom, hom.counit.transpose() * hom.counit
        )
        assert check_cobraiding_equivalence(hom, eps_form).passed
    with pytest.raises(StructureError):
        z2_r_matrix(GF(2))
    _announce(8, "QHA axioms, induced structures, and both equivalences hold; "
                 "GF(2) is refused")


def test_criterion_9_classical_degeneration():
    disagreements = []

    def compare(name, hom_verdict, classical_verdict):
        if hom_verdict != classical_verdict:
            disagreements.append(name)

    for field in FIELDS:
        h = group_algebra_z2(field)
        from homhopf.catalog import taft_hopf

        t = taft_hopf(field)
        for tag, hopf in (("kz2", h), ("taft", t), ("biproduct", dual_number_biproduct(field, 1))):
            compare(f"{tag}.algebra", check_hom_algebra(hopf.algebra).passed,
                    classical.classical_algebra_ok(hopf.algebra))
            compare(f"{tag}.coalgebra", check_hom_coalgebra(hopf.coalgebra).passed,
                    classical.classical_coalgebra_ok(hopf.coalgebra))
            compare(f"{tag}.antipode", check_antipode(hopf.bialgebra, hopf.antipode).passed,
                    classical.classical_antipode_ok(hopf.algebra, hopf.coalgebra, hopf.antipode))
        bundle = dual_number_bundle(field, 1)
        compare("module", check_action_axioms(bundle.action).passed,
                classical.classical_module_ok(bundle.action))
        compare("module-algebra",
                check_action_axioms(bundle.action, "module-algebra", carrier=bundle.algebra).passed,
                classical.classical_module_algebra_ok(bundle.action, bundle.algebra))
        compare("comodule", check_coaction_axioms(bundle.coaction).passed,
                classical.classical_comodule_ok(bundle.coaction))
        compare("comodule-coalgebra",
                check_coaction_axioms(bundle.coaction, "comodule-coalgebra",
                                      carrier=bundle.coalgebra).passed,
                classical.classical_comodule_coalgebra_ok(bundle.coaction, bundle.coalgebra))
        compare("yd", check_hyd(bundle.yd_module()).passed,
                classical.classical_yd_ok(bundle.action, bundle.coaction))
        compare("r4", check_radford_conditions(bundle).check("R4").passed,
                classical.classical_r4_ok(bundle))
        # a genuinely failing classical instance keeps the agreement two-sided
        alg = dual_number_algebra(field, 1)
        coalg = dual_number_coalgebra(field, 1)
        compare("dual.bialgebra",
                check_hom_bialgebra(HomBialgebra(alg, coalg, check=False)).passed,
                classical.classical_bialgebra_ok(alg, coalg))
        sweedler = dual_number_biproduct(field, 1)
        assert sweedler.dim == 4
        assert not classical.commutative(sweedler.algebra)
        assert not classical.cocommutative(sweedler.coalgebra)
    assert disagreements == []
    _announce(9, "identity-twist verdicts match the independent classical "
                 "checkers; the untwisted biproduct is a 4-dim noncommutative "
                 "noncocommutative Hopf algebra")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    exports = {
        "taft.hh": catalog_document("taft-twisted", QQ, QQ.coerce(2)),
        "bundle.hh": catalog_document("dual-number-bundle", QQ, QQ.coerce(2)),
        "r.hh": catalog_document("kz2-rmatrix", QQ),
    }
    for name, text in exports.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    for name in exports:
        path = str(tmp_path / name)
        first = run("check", path)
        second = run("check", path)
        assert first == second
        assert first[0] == 0
    emitted = tmp_path / "biproduct.hh"
    code, _ = run("antipode", str(tmp_path / "bundle.hh"), "--emit", str(emitted))
    assert code == 0
    text = emitted.read_text(encoding="utf-8")
    real = realize(parse_document(text))
    assert all(rep.passed for rep in run_checks(real))
    # constructed-structure files are fixed points of parse/print
    from homhopf.textfmt import render_parsed

    assert render_parsed(parse_document(text)) == text
    code, _ = run("check", str(emitted))
    assert code == 0
    first = run("catalog", "show", "taft-biproduct", "--param", "3")
    second = run("catalog", "show", "taft-biproduct", "--param", "3")
    assert first == second
    _announce(10, "byte-identical reports across runs; emitted structures "
                  "round-trip through parse/print")
