from unittest import mock

import pytest

import classical_oracle as classical
from homhopf import (
    GF,
    QQ,
    StructureError,
    check_antipode,
    check_hom_bialgebra,
    check_radford_conditions,
    structures,
)
from homhopf.catalog import (
    CATALOG,
    TAFT_ACTION_VARIANTS,
    TAFT_RELATION_NOTE,
    antipode_table_of,
    catalog_entry,
    comult_table_of,
    cyclic_group_hopf,
    dual_number_biproduct,
    dual_number_biproduct_antipode_table,
    dual_number_bundle,
    dual_number_comult_table,
    group_algebra_z2,
    taft_antipode_table,
    taft_biproduct,
    taft_biproduct_antipode_table,
    taft_bundle,
    taft_hopf,
    taft_twisted,
    taft_twisted_comult_table,
    z2_r_matrix,
)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_taft_reference_tables(field, k):
    h = taft_twisted(field, k)
    assert antipode_table_of(h) == taft_antipode_table(field)
    assert comult_table_of(h) == taft_twisted_comult_table(field, k)


def test_taft_twisted_mult_example():
    # mu_twisted(g, x) = gamma(gx) = k y
    h = taft_twisted(QQ, 2)
    col = 1 * 4 + 2
    assert h.mult.entry(3, col) == 2
    assert all(h.mult.entry(r, col) == 0 for r in (0, 1, 2))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_dual_number_reference_tables(field, l):
    from homhopf.catalog import dual_number_coalgebra

    c = dual_number_coalgebra(field, l)
    assert comult_table_of(c) == dual_number_comult_table(field, l)


def test_kz2_tables(field):
    h = group_algebra_z2(field)
    assert antipode_table_of(h) == {"1": {"1": field.one}, "a": {"a": field.one}}
    assert comult_table_of(h) == {
        "1": {("1", "1"): field.one},
        "a": {("a", "a"): field.one},
    }


@pytest.mark.parametrize("param", [1, 2, 3])
def test_biproduct_antipode_tables(field, param):
    assert antipode_table_of(taft_biproduct(field, param)) == taft_biproduct_antipode_table(field)
    assert antipode_table_of(dual_number_biproduct(field, param)) == (
        dual_number_biproduct_antipode_table(field)
    )


def test_biproduct_antipode_tables_negative_param():
    assert antipode_table_of(taft_biproduct(QQ, -1)) == taft_biproduct_antipode_table(QQ)
    assert antipode_table_of(dual_number_biproduct(QQ, -1)) == (
        dual_number_biproduct_antipode_table(QQ)
    )


def test_zero_parameters_rejected():
    with pytest.raises(StructureError):
        taft_twisted(QQ, 0)
    with pytest.raises(StructureError):
        dual_number_bundle(QQ, 0)
    with pytest.raises(StructureError):
        taft_bundle(GF(7), 7)  # 7 = 0 in GF(7)


def test_taft_erratum_note_is_machine_readable():
    assert TAFT_RELATION_NOTE["printed-relation"] == "gy=-gy=x"
    assert "g2=1" in TAFT_RELATION_NOTE["resolved-table"]
    # the resolved classical table is validated by the classical oracle
    h = taft_hopf(QQ)
    assert classical.classical_algebra_ok(h.algebra)
    assert classical.classical_coalgebra_ok(h.coalgebra)
    assert classical.classical_bialgebra_ok(h.algebra, h.coalgebra)
    assert classical.classical_antipode_ok(h.algebra, h.coalgebra, h.antipode)


def test_action_variant_adjudication(field):
    # the printed action (both group elements acting identically) passes the
    # biproduct gate exhaustively; the sign-corrected variant fails exactly R4
    assert TAFT_ACTION_VARIANTS == ("printed", "sign-corrected")
    printed = check_radford_conditions(taft_bundle(field, 2, "printed"))
    assert printed.passed
    corrected = check_radford_conditions(taft_bundle(field, 2, "sign-corrected"))
    assert not corrected.check("R4").passed
    assert corrected.check("R5").passed
    assert corrected.check("R1").passed
    assert corrected.check("R2").passed


def test_unknown_variant_rejected():
    from homhopf import ExactError

    with pytest.raises(ExactError):
        taft_bundle(QQ, 2, "bogus")


def test_k_equals_one_is_classical():
    h = taft_twisted(QQ, 1)
    assert h.twist.is_identity()
    assert h.mult == taft_hopf(QQ).mult
    assert h.comult == taft_hopf(QQ).comult


def test_catalog_registry():
    ids = [e.identifier for e in CATALOG]
    assert ids == [
        "kz2",
        "taft-twisted",
        "taft-bundle",
        "dual-number",
        "dual-number-bundle",
        "taft-biproduct",
        "dual-number-biproduct",
        "kz2-rmatrix",
    ]
    assert catalog_entry("kz2").param is None
    with pytest.raises(KeyError):
        catalog_entry("nope")


def test_cyclic_group_hopf(field):
    h = cyclic_group_hopf(field, 3)
    assert check_hom_bialgebra(h.bialgebra).passed
    assert h.dim == 3


def test_r_matrix_entry_values():
    r = z2_r_matrix(GF(7))
    four = GF(7).inv(GF(7).coerce(2))
    assert r.coefficient(0, 0) == four
    assert r.coefficient(1, 1) == GF(7).neg(four)


@pytest.mark.parametrize(
    "build, args, checks",
    [(group_algebra_z2, (), 0), (cyclic_group_hopf, (5,), 1), (taft_hopf, (), 0)],
    ids=["kz2", "kz5", "taft"],
)
def test_builders_check_each_axiom_once(field, build, args, checks):
    # catalog entries assemble unchecked, and `catalog check` checks the
    # printed document; cyclic_group_hopf, no entry, builds its parts
    # unchecked and checks the Hom-bialgebra once, which covers HA and HC
    with mock.patch.object(
        structures, "check_hom_algebra", wraps=structures.check_hom_algebra
    ) as algebra, mock.patch.object(
        structures, "check_hom_coalgebra", wraps=structures.check_hom_coalgebra
    ) as coalgebra:
        hopf = build(field, *args)
    assert algebra.call_count == coalgebra.call_count == checks
    assert check_hom_bialgebra(hopf).passed and check_antipode(hopf).passed
