import contextlib
import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hom_oracles as oracles
from fuzz_grid import assembled_biproduct, grid
from yd_ladder import yd_ladder_bundle
from homhopf import (
    ActionMap,
    Bundle,
    GF,
    HomAlgebra,
    Matrix,
    QQ,
    StructureError,
    check_antipode,
    check_cosmash_tensor_gate,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_radford_conditions,
    check_smash_tensor_gate,
    check_t_smash_conditions,
    coaction_twist_map,
    flatten_index,
    flip_twist_map,
    kron,
    maps_equal,
    radford_biproduct,
    regular_action,
    regular_coaction,
    smash_coproduct,
    smash_coproduct_antipode,
    smash_product,
    smash_product_antipode,
    t_smash_coproduct,
    trivial_action,
    trivial_coaction,
    biproduct_antipode,
)
from homhopf import actions, braided, cli, constructions, structures, textfmt
from homhopf.braided import check_bialgebra_in_hyd, check_bosonization_equivalence
from homhopf.constructions import TwistMapT, smash_comult_matrix, smash_mult_matrix
from homhopf.structures import tensor_comult_matrix, tensor_mult_matrix, yau_twist
from homhopf.catalog import (
    TAFT_ACTION_VARIANTS,
    CoactionMap,
    cyclic_group_hopf,
    dual_number_bundle,
    group_algebra_z2,
    taft_biproduct,
    taft_bundle,
    taft_hopf,
    taft_twisted,
)
from homhopf.cli import main
from homhopf.report import CheckResult, eq_check
from homhopf.textfmt import catalog_document

F7 = GF(7)


def test_smash_mult_frozen_values():
    # (x(x)1)(x(x)a) = x.x (x) a = 0 on the twisted Taft bundle, k = 2
    b = taft_bundle(QQ, 2)
    out = oracles.smash_mult_oracle(b.algebra, b.hom, b.action, (2, 0), (2, 1))
    assert out == {}
    # (1(x)a)(z(x)1) = -l z (x) a = -2 (z(x)a) on the dual-number bundle, l = 2
    d = dual_number_bundle(QQ, 2)
    out = oracles.smash_mult_oracle(d.algebra, d.hom, d.action, (0, 1), (1, 0))
    assert out == {(1, 1): QQ.coerce(-2)}


def test_smash_mult_matches_oracle(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 3)):
        m, n = bundle.algebra.dim, bundle.hom.dim
        lib = smash_mult_matrix(bundle.algebra, bundle.hom, bundle.action)
        ora = oracles.oracle_matrix(
            field,
            (m, n, m, n),
            (m, n),
            lambda idx: oracles.smash_mult_oracle(
                bundle.algebra, bundle.hom, bundle.action, idx[:2], idx[2:]
            ),
        )
        assert maps_equal(lib, ora)


def test_smash_with_trivial_action_is_tensor_algebra(field):
    a = taft_twisted(field, 2).algebra
    h = group_algebra_z2(field)
    act = trivial_action(h, a.twist, a.basis)
    made = smash_product(a, h, act)
    assert made.gate.passed
    assert made.algebra.mult == tensor_mult_matrix(a.mult, a.dim, h.mult, h.dim)


def test_smash_outputs_pass_checker(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 2)):
        made = smash_product(bundle.algebra, bundle.hom, bundle.action)
        assert check_hom_algebra(made.algebra).passed


def test_smash_refuses_invalid_action():
    # scaling the nontrivial group element's action by 3 breaks HM2
    hom = group_algebra_z2(QQ)
    twist = Matrix.diagonal(QQ, [1, 2])
    p = Matrix(QQ, 2, 4, {(0, 0): 1, (1, 1): 2, (0, 2): 1, (1, 3): 3})
    act = ActionMap(hom, p, twist, ("1", "z"))
    from homhopf.catalog import dual_number_algebra

    with pytest.raises(StructureError) as err:
        smash_product(dual_number_algebra(QQ, 2), hom, act)
    assert err.value.report is not None
    assert not err.value.report.passed


def test_cosmash_matches_oracle_and_frozen_rows(field):
    d = dual_number_bundle(field, 2)
    lib = smash_comult_matrix(d.coalgebra, d.hom, d.coaction)
    ora = oracles.oracle_matrix(
        field,
        (2, 2),
        (2, 2, 2, 2),
        lambda idx: oracles.smash_comult_oracle(d.coalgebra, d.hom, d.coaction, idx),
    )
    assert maps_equal(lib, ora)
    # Delta(z(x)1) = 2 (z(x)1)(x)(1(x)1) + 2 (1(x)a)(x)(z(x)1), frozen from the oracle
    two = field.coerce(2)
    col = flatten_index((2, 2), (1, 0))
    expected = {
        flatten_index((2, 2, 2, 2), (1, 0, 0, 0)): two,
        flatten_index((2, 2, 2, 2), (0, 1, 1, 0)): two,
    }
    for row in range(16):
        assert lib.entry(row, col) == expected.get(row, field.zero)


def test_taft_cosmash_matches_oracle():
    b = taft_bundle(QQ, 2)
    lib = smash_comult_matrix(b.coalgebra, b.hom, b.coaction)
    ora = oracles.oracle_matrix(
        QQ,
        (4, 2),
        (4, 2, 4, 2),
        lambda idx: oracles.smash_comult_oracle(b.coalgebra, b.hom, b.coaction, idx),
    )
    assert maps_equal(lib, ora)
    assert check_hom_coalgebra(smash_coproduct(b.coalgebra, b.hom, b.coaction).coalgebra).passed


def test_cosmash_with_trivial_coaction_is_tensor_coalgebra(field):
    c = taft_twisted(field, 3).coalgebra
    h = group_algebra_z2(field)
    coact = trivial_coaction(h, c.twist, c.basis)
    made = smash_coproduct(c, h, coact)
    assert made.coalgebra.comult == tensor_comult_matrix(c.comult, c.dim, h.comult, h.dim)


def test_t_smash_from_coaction_reproduces_cosmash(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 2)):
        t = coaction_twist_map(bundle.coalgebra, bundle.hom, bundle.coaction)
        made_t = t_smash_coproduct(bundle.coalgebra, bundle.hom, t)
        made_plain = smash_coproduct(bundle.coalgebra, bundle.hom, bundle.coaction)
        assert made_t.gate.passed
        assert made_t.coalgebra.comult == made_plain.coalgebra.comult


def test_t_smash_flip_on_classical_gives_tensor_coalgebra():
    c = taft_hopf(QQ).coalgebra
    h = group_algebra_z2(QQ)
    t = flip_twist_map(c, h)
    made = t_smash_coproduct(c, h, t)
    assert made.gate.passed
    assert made.coalgebra.comult == tensor_comult_matrix(c.comult, c.dim, h.comult, h.dim)


def test_t_smash_gate_rejects_crafted_mutation():
    # an eps-cancelling correction keeps the twist compatibility and C1 but
    # breaks coassociativity through C2
    b = taft_bundle(QQ, 2)
    good = coaction_twist_map(b.coalgebra, b.hom, b.coaction)
    ent = {(r, c): v for r in range(good.matrix.rows) for c, v in good.matrix.row_items(r)}
    col = 2 * 2 + 0  # column of x (x) 1
    for hrow, sign in ((0, 1), (1, -1)):
        key = (hrow * 4 + 2, col)
        ent[key] = QQ.add(ent.get(key, QQ.zero), QQ.coerce(sign))
    bad = TwistMapT(b.coalgebra, b.hom, Matrix(QQ, 8, 8, ent))
    rep = check_t_smash_conditions(bad)
    assert rep.check("T.twist-compat").passed
    assert rep.check("C1.counit-H").passed
    assert rep.check("C1.counit-C").passed
    assert not rep.check("C2").passed
    assert "x" in rep.check("C2").witness
    with pytest.raises(StructureError):
        t_smash_coproduct(b.coalgebra, b.hom, bad)


def test_twist_map_compatibility_enforced():
    # a map that ignores the twists entirely is built, and refused by the
    # first check of the T-smash gate
    b = taft_bundle(QQ, 2)
    bad = TwistMapT(b.coalgebra, b.hom, Matrix(QQ, 8, 8, {(i, i): 1 for i in range(8)}))
    with pytest.raises(StructureError) as info:
        t_smash_coproduct(b.coalgebra, b.hom, bad)
    assert str(info.value) == "twist-map coproduct gate fails: T.twist-compat"
    assert info.value.report == check_t_smash_conditions(bad)


@pytest.mark.parametrize("param", [1, 2, 3])
def test_radford_gate_passes_on_catalog(field, param):
    for bundle in (taft_bundle(field, param), dual_number_bundle(field, param)):
        rep = check_radford_conditions(bundle)
        assert rep.passed, rep.render(True)


def test_radford_gate_negative_param_over_q():
    assert check_radford_conditions(taft_bundle(QQ, -1)).passed
    assert check_radford_conditions(dual_number_bundle(QQ, -1)).passed


def test_ungraded_coaction_fails_r4():
    # moving the coaction to the group-trivial leg breaks the braided
    # multiplicativity condition R4 (R5 stays true over the commutative base)
    d = dual_number_bundle(QQ, 2)
    q = Matrix(QQ, 4, 2, {(0, 0): 1, (1, 1): 2})  # rho(z) = 2 (1 (x) z)
    coact = CoactionMap(d.hom, q, d.algebra.twist, ("1", "z"))
    bundle = Bundle(
        algebra=d.algebra,
        coalgebra=d.coalgebra,
        hom=d.hom,
        action=d.action,
        coaction=coact,
    )
    rep = check_radford_conditions(bundle)
    assert not rep.check("R4").passed
    assert rep.check("R5").passed
    assert rep.check("R1").passed
    with pytest.raises(StructureError):
        radford_biproduct(bundle)


def test_biproducts_assemble_and_pass(field):
    made = radford_biproduct(taft_bundle(field, 2))
    assert made.bialgebra.dim == 8
    assert check_hom_bialgebra(made.bialgebra).passed
    made = radford_biproduct(dual_number_bundle(field, 3))
    assert made.bialgebra.dim == 4
    assert check_hom_bialgebra(made.bialgebra).passed


def test_trivial_bundle_gives_tensor_bialgebra():
    h = group_algebra_z2(QQ)
    act = trivial_action(h, h.twist, h.basis)
    coact = trivial_coaction(h, h.twist, h.basis)
    bundle = Bundle(
        algebra=h.algebra, coalgebra=h.coalgebra, hom=h, action=act, coaction=coact
    )
    made = radford_biproduct(bundle)
    assert made.bialgebra.mult == tensor_mult_matrix(h.mult, 2, h.mult, 2)
    assert made.bialgebra.comult == tensor_comult_matrix(h.comult, 2, h.comult, 2)


def test_biproduct_antipode_matches_oracle(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 2)):
        m, n = bundle.algebra.dim, bundle.hom.dim
        made = biproduct_antipode(bundle)
        ora = oracles.oracle_matrix(
            field,
            (m, n),
            (m, n),
            lambda idx: oracles.biproduct_antipode_oracle(bundle, idx),
        )
        assert maps_equal(made.matrix, ora)


def test_biproduct_antipode_satisfies_axioms(field):
    bundle = dual_number_bundle(field, 3)
    made = radford_biproduct(bundle)
    anti = biproduct_antipode(bundle)
    rep = check_antipode(made.bialgebra, anti.matrix)
    assert rep.passed
    pair_twist = kron(bundle.algebra.twist, bundle.hom.twist)
    assert anti.matrix * pair_twist == pair_twist * anti.matrix


def test_biproduct_antipode_rejects_bad_carrier_antipode():
    bundle = dual_number_bundle(QQ, 2)
    bundle = dataclasses.replace(bundle, carrier_antipode=Matrix.identity(QQ, 2))
    with pytest.raises(StructureError):
        biproduct_antipode(bundle)


def test_degeneration_trivial_coaction_equals_smash_antipode(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 3)):
        h = bundle.hom
        a = bundle.algebra
        degenerate = Bundle(
            algebra=a,
            coalgebra=bundle.coalgebra,
            hom=h,
            action=bundle.action,
            coaction=trivial_coaction(h, a.twist, a.basis),
            carrier_antipode=bundle.carrier_antipode,
        )
        general = biproduct_antipode(degenerate)
        direct = smash_product_antipode(a, h, bundle.action, bundle.carrier_antipode)
        assert maps_equal(general.matrix, direct)


def test_degeneration_trivial_action_equals_cosmash_antipode(field):
    for bundle in (taft_bundle(field, 2), dual_number_bundle(field, 3)):
        h = bundle.hom
        a = bundle.algebra
        degenerate = Bundle(
            algebra=a,
            coalgebra=bundle.coalgebra,
            hom=h,
            action=trivial_action(h, a.twist, a.basis),
            coaction=bundle.coaction,
            carrier_antipode=bundle.carrier_antipode,
        )
        general = biproduct_antipode(degenerate)
        direct = smash_coproduct_antipode(
            bundle.coalgebra, h, bundle.coaction, bundle.carrier_antipode
        )
        assert maps_equal(general.matrix, direct)


def test_smash_tensor_gate_cocommutative_passes(field):
    b = taft_bundle(field, 2)
    assert check_smash_tensor_gate(b.hom, b.action).passed


def test_smash_tensor_gate_fails_for_taft_regular_action():
    h = taft_twisted(QQ, 2)
    rep = check_smash_tensor_gate(h, regular_action(h))
    assert not rep.passed
    assert "x" in rep.checks[0].witness


def test_cosmash_tensor_gate(field):
    b = dual_number_bundle(field, 2)
    assert check_cosmash_tensor_gate(b.hom, b.coaction).passed
    h = taft_twisted(QQ, 2)
    assert not check_cosmash_tensor_gate(h, regular_coaction(h)).passed


def test_cosmash_tensor_gate_witness_is_its_own_first_mismatch():
    # the gate runs as the smash gate of the dual action, yet it names and
    # witnesses its first row-major mismatch on its own legs
    h = taft_twisted(QQ, 2)
    rep = check_cosmash_tensor_gate(h, regular_coaction(h))
    assert rep.render(witnesses=True).splitlines() == [
        "== tensor-algebra cosmash gate",
        "  central-coaction-leg  FAIL  [at g⊗y -> x⊗1: 4 != -4]",
        "== RESULT FAIL",
    ]


def test_tensor_gate_cross_check_against_biproduct():
    # trivial coaction plus the gate certifies the tensor-coalgebra biproduct
    a = taft_twisted(QQ, 2)
    h = group_algebra_z2(QQ)
    act = trivial_action(h, a.twist, a.basis)
    assert check_smash_tensor_gate(h, act).passed
    bundle = Bundle(
        algebra=a.algebra,
        coalgebra=a.coalgebra,
        hom=h,
        action=act,
        coaction=trivial_coaction(h, a.twist, a.basis),
    )
    rep = check_radford_conditions(bundle)
    assert rep.passed
    made = radford_biproduct(bundle)
    assert made.bialgebra.comult == tensor_comult_matrix(a.comult, a.dim, h.comult, h.dim)


def _assembled_verdict(b):
    return check_hom_bialgebra(assembled_biproduct(b)).passed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_biproduct_gate_biconditional_sampled(seed):
    instances = grid()
    tag, bundle = instances[seed % len(instances)]
    assert check_radford_conditions(bundle).passed == _assembled_verdict(bundle), tag


# A gate is evaluated once per call chain: the composites it compares are
# built once, and constructors do not re-run the axioms of their parts.
_LIBRARY = (actions, braided, cli, constructions, structures, textfmt)


@contextlib.contextmanager
def _call_counts(*names):
    """Wrap each named library function in every library module that binds
    it; yields a function giving the calls made so far to one of them."""
    with contextlib.ExitStack() as stack:
        spies = {}
        for name in names:
            original = next(
                getattr(m, name) for m in _LIBRARY
                if getattr(getattr(m, name, None), "__module__", None) == m.__name__
            )
            spies[name] = [
                stack.enter_context(mock.patch.object(module, name, wraps=original))
                for module in _LIBRARY
                if getattr(module, name, None) is original
            ]
        yield lambda name: sum(spy.call_count for spy in spies[name])


def _relabelled_bundle(field):
    """The dual-number bundle whose action also sends a |> 1 to 1 + z, so the
    Yetter-Drinfeld condition fails, with the action and coaction naming the
    carrier basis (p, q) where the carrier algebra names it (1, z)."""
    b = dual_number_bundle(field, 2)
    l = field.coerce(2)
    entries = {(0, 0): field.one, (1, 1): l, (0, 2): field.one, (1, 2): field.one, (1, 3): -l}
    twist = b.algebra.twist
    action = ActionMap(b.hom, Matrix(field, 2, 4, entries), twist, ("p", "q"))
    coaction = CoactionMap(b.hom, b.coaction.matrix, twist, ("p", "q"))
    return dataclasses.replace(b, action=action, coaction=coaction)


@pytest.mark.parametrize("build", [taft_bundle, dual_number_bundle, _relabelled_bundle])
def test_equivalence_builds_each_composite_once(field, build):
    bundle = build(field) if build is _relabelled_bundle else build(field, 2)
    names = ("_r4_rhs", "braiding_matrix", "hyd_lhs_matrix", "hyd_rhs_matrix")
    with _call_counts(*names) as calls:
        check_bosonization_equivalence(bundle)
    assert {name: calls(name) for name in names} == dict.fromkeys(names, 1)


def _r4_cases():
    """The fuzz grid, the catalog bundles over Q, GF(7) and GF(3), and
    yd-ladder rungs with a perturbed action or carrier product."""
    cases = list(grid())
    for field in (QQ, F7, GF(3)):
        for variant in TAFT_ACTION_VARIANTS:
            cases.append((f"taft {variant} {field}", taft_bundle(field, 2, variant)))
        cases.append((f"dual-number {field}", dual_number_bundle(field, 2)))
        cases.append((f"relabelled {field}", _relabelled_bundle(field)))
    for n, p, lam in ((3, 7, 1), (4, 5, 1), (6, 7, 1), (6, 7, 3)):
        cases.append((f"yd-ladder {n} {p} {lam}", yd_ladder_bundle(n, p, lam)))
    for entry in ((1, 1, 2, 2), (1, 1, 1, 1)):  # off its degree; rescaled in place
        cases.append((f"yd-ladder action {entry}", yd_ladder_bundle(4, 5, action_entry=entry)))
    b = yd_ladder_bundle(4, 5)
    a = b.algebra
    bumped = a.mult + Matrix(a.field, 4, 16, {(1, 1 * 4 + 2): 1})  # z z^2 = z^3 + z
    carrier = HomAlgebra(a.field, bumped, a.unit, a.twist, basis=a.basis, check=False)
    cases.append(("yd-ladder carrier product", dataclasses.replace(b, algebra=carrier)))
    return cases


def test_r4_rhs_matches_the_element_wise_oracle():
    # R4's right-hand side is built through the braiding; the oracle expands
    # R4's formula term by term, and the gate's verdict and witness are the
    # ones an exact comparison with the oracle gives
    verdicts = set()
    for tag, bundle in _r4_cases():
        a, m = bundle.algebra, bundle.algebra.dim
        oracle = oracles.oracle_matrix(
            a.field, (m, m), (m, m), lambda idx: oracles.r4_rhs_oracle(bundle, idx)
        )
        assert constructions._r4_rhs(bundle) == oracle, tag
        legs = (a.basis, a.basis)
        expected = eq_check("R4", bundle.coalgebra.comult * a.mult, oracle, legs, legs)
        assert check_radford_conditions(bundle).check("R4") == expected, tag
        verdicts.add(expected.passed)
    assert verdicts == {True, False}


def test_relabelled_action_witnesses(field):
    # every witness names the carrier by the carrier structure's basis (1, z),
    # not by the (p, q) of the action and coaction; HYD is R5's witness
    bundle = _relabelled_bundle(field)
    gate = check_radford_conditions(bundle)
    assert gate.check("R2").witness == "HM1: at a⊗1 -> z: 2 != 1"
    assert gate.check("R5").witness == "at a⊗1 -> 1⊗z: 0 != 2"
    assert check_bialgebra_in_hyd(bundle).check("HYD") == CheckResult(
        "HYD", False, "at a⊗1 -> 1⊗z: 0 != 2"
    )
    verdicts = check_bosonization_equivalence(bundle)
    assert verdicts.check("bialgebra-in-category").witness == "HYD: at a⊗1 -> 1⊗z: 0 != 2"
    assert verdicts.check("agreement").passed


def test_constructors_check_the_axioms_once(field):
    names = ("check_hom_algebra", "check_hom_coalgebra")
    bundle = taft_bundle(field, 2)
    with _call_counts(*names) as calls:
        radford_biproduct(bundle)
    assert [calls(name) for name in names] == [1, 1]
    n = 4
    base = cyclic_group_hopf(field, n)
    sigma = Matrix(field, n, n, {((3 * i) % n, i): field.one for i in range(n)})
    with _call_counts(*names) as calls:
        yau_twist(base, sigma)
    assert [calls(name) for name in names] == [1, 1]


def test_antipode_command_runs_the_gate_once(tmp_path, capsys):
    # and checks the antipode it computed once, against the bialgebra it assembled
    path = tmp_path / "bundle.hh"
    path.write_text(catalog_document("taft-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    names = ("check_radford_conditions", "check_antipode")
    with _call_counts(*names) as calls:
        assert main(["antipode", str(path)]) == 0
    assert [calls(name) for name in names] == [1, 2]  # the acting antipode, then the computed one
    capsys.readouterr()


def test_tsmash_command_checks_the_twist_map_once(tmp_path, capsys):
    # the twist map is built unchecked; the T-smash gate checks it
    path = tmp_path / "bundle.hh"
    path.write_text(catalog_document("taft-bundle", QQ, QQ.coerce(2)), encoding="utf-8")
    with _call_counts("_twist_naturality") as calls:
        assert main(["construct", "tsmash", str(path)]) == 0
    assert calls("_twist_naturality") == 1
    capsys.readouterr()


def test_catalog_biproduct_checks_gate_and_antipode_once(field, capsys):
    # past yau_twist's checks in building its bundle, the builder runs the
    # gates, the acting antipode's among them, and checks nothing else;
    # `catalog check` then checks the printed antipode, once
    names = ("check_radford_conditions", "check_antipode")
    with _call_counts(*names) as calls:
        taft_bundle(field, 2)
    bundle_calls = [calls(name) for name in names]
    with _call_counts(*names) as calls:
        hopf = taft_biproduct(field, 2)
    assert [calls(name) - seen for name, seen in zip(names, bundle_calls)] == [1, 1]
    assert check_hom_bialgebra(hopf).passed and check_antipode(hopf).passed
    token = "Q" if field is QQ else f"GF{field.characteristic}"
    with _call_counts(*names) as calls:
        assert main(["catalog", "check", "taft-biproduct", "--field", token]) == 0
    assert [calls(name) - seen for name, seen in zip(names, bundle_calls)] == [1, 2]
    capsys.readouterr()


def test_biproduct_antipode_checks_against_the_given_bialgebra(tmp_path, capsys):
    # the antipode command checks the computed antipode against the biproduct
    # bialgebra it assembled; a zero row in the acting antipode passes the
    # R1-R5 and carrier-antipode gates and is refused by its own axioms
    text = catalog_document("dual-number-bundle", QQ, QQ.coerce(2))
    path = tmp_path / "bundle.hh"
    path.write_text(text, encoding="utf-8")
    assert main(["antipode", str(path)]) == 0
    capsys.readouterr()
    zeroed = text.replace("  ANTIPODE 0 : 1 0\n", "  ANTIPODE 0 : 0 0\n", 1)
    path.write_text(zeroed, encoding="utf-8")
    assert main(["antipode", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[:3] == [
        "refused: acting antipode fails its axioms: antipode.left",
        "== antipode axioms [H]",
        "  antipode.left   FAIL  [at 1 -> 1: 0 != 1]",
    ]
