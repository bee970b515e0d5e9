import tracemalloc
from unittest import mock

import pytest

import hom_oracles as oracles
from homhopf import (
    ExactError,
    GF,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    Matrix,
    QQ,
    ShapeError,
    StructureError,
    YDModule,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    convolution,
    convolution_inverse,
    flip_twist_map,
    kron,
    maps_equal,
    tensor_hom_algebra,
    tensor_hom_coalgebra,
    yau_twist,
)
from homhopf import matrices
from homhopf.matrices import kron_apply, leg_perm
from homhopf.report import eq_check
from homhopf.structures import _compat_rhs, _Dual
from homhopf.textfmt import catalog_document, parse_document, realize
from homhopf.catalog import (
    cyclic_group_hopf,
    dual_number_algebra,
    dual_number_antipode,
    dual_number_biproduct,
    dual_number_coalgebra,
    group_algebra_z2,
    taft_biproduct,
    taft_bundle,
    taft_hopf,
    taft_twisted,
)


def test_kz2_passes_everything(field):
    h = group_algebra_z2(field)
    assert check_hom_algebra(h.algebra).passed
    assert check_hom_coalgebra(h.coalgebra).passed
    assert check_hom_bialgebra(h.bialgebra).passed
    assert check_antipode(h.bialgebra, h.antipode).passed


@pytest.mark.parametrize("k", [2, 3, -1])
def test_taft_twisted_passes(field, k):
    if field.characteristic and k < 0:
        k = field.coerce(k)
    h = taft_twisted(field, k)
    rep = check_hom_bialgebra(h.bialgebra)
    assert rep.passed
    assert check_antipode(h.bialgebra, h.antipode).passed


def test_swap_twist_fails_unit_preservation():
    # "twist" exchanging the unit with the group-like is not a Hom-algebra twist
    h = group_algebra_z2(QQ)
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    cand = HomAlgebra(QQ, h.mult, h.unit, swap, basis=h.basis, check=False)
    rep = check_hom_algebra(cand)
    failed = [c.name for c in rep.failures()]
    assert "HA1.unit" in failed
    assert rep.check("HA1.unit").witness == "at column 0 -> 1: 0 != 1"
    with pytest.raises(StructureError):
        HomAlgebra(QQ, h.mult, h.unit, swap, basis=h.basis)


def test_dual_number_coalgebra_passes(field):
    c = dual_number_coalgebra(field, 2)
    assert check_hom_coalgebra(c).passed


def test_dual_number_counit_mutation_fails():
    c = dual_number_coalgebra(QQ, 2)
    bad = HomCoalgebra(QQ, c.comult, [1, 1], c.twist, basis=c.basis, check=False)
    rep = check_hom_coalgebra(bad)
    assert not rep.check("HC2.counit-left").passed
    assert "z" in rep.check("HC2.counit-left").witness


def test_classical_coalgebra_group_likes():
    # beta = id degeneration: HC1/HC2 reduce to coassociativity and counit laws
    h = group_algebra_z2(QQ)
    assert h.twist.is_identity()
    assert check_hom_coalgebra(h.coalgebra).passed


def test_hopf_algebra_is_a_bialgebra_holding_its_parts_maps(field):
    h = taft_twisted(field, 2)
    assert isinstance(taft_hopf(field), HomBialgebra)
    assert isinstance(h, HomHopf) and isinstance(h, HomBialgebra)
    for s in (h, h.bialgebra):
        for attr in ("field", "dim", "basis", "mult", "unit", "twist"):
            assert getattr(s, attr) is getattr(s.algebra, attr)
        for attr in ("comult", "counit"):
            assert getattr(s, attr) is getattr(s.coalgebra, attr)
        assert s.twist_power(-1) is s.algebra.twist_power(-1)
        assert s.twist_inv is s.algebra.twist_inv
    assert check_hom_bialgebra(h).checks == check_hom_bialgebra(h.bialgebra).checks


@pytest.mark.parametrize("check", [True, False])
def test_unit_and_counit_lists_of_the_wrong_length_are_refused(check):
    h = group_algebra_z2(QQ)
    with pytest.raises(ShapeError) as caught:
        HomAlgebra(QQ, h.mult, [1, 0, 0], check=check)
    assert str(caught.value) == "unit must be an n x 1 column"
    with pytest.raises(ShapeError) as caught:
        HomCoalgebra(QQ, h.comult, [1], check=check)
    assert str(caught.value) == "counit must be a 1 x n row"


def test_antipode_candidate_fails_on_x():
    h = taft_twisted(QQ, 3)
    bad = Matrix(QQ, 4, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})  # S(x) = x
    rep = check_antipode(h.bialgebra, bad)
    assert not rep.check("antipode.left").passed
    assert "x" in rep.check("antipode.left").witness


def test_convolution_of_antipode_is_unit_counit(field):
    for h in (group_algebra_z2(field), taft_twisted(field, 2)):
        i_n = Matrix.identity(field, h.dim)
        ue = h.unit * h.counit
        assert convolution(h.antipode, i_n, h) == ue
        assert convolution(i_n, h.antipode, h) == ue


def test_convolution_identity_on_group_algebra():
    h = group_algebra_z2(QQ)
    i2 = Matrix.identity(QQ, 2)
    # h |-> h1 h2 on the group algebra equals u o eps because S = id
    assert convolution(i2, i2, h) == h.unit * h.counit


def test_convolution_of_counit_projectors():
    h = taft_twisted(QQ, 2)
    proj = h.unit * h.counit
    assert convolution(proj, proj, h) == proj


def test_convolution_inverse_recovers_antipodes():
    for h in (
        group_algebra_z2(QQ),
        taft_twisted(QQ, 2),
        taft_twisted(GF(7), 3),
        cyclic_group_hopf(GF(7), 6),
        dual_number_biproduct(QQ, 2),
        taft_biproduct(GF(7), 3),
    ):
        assert convolution_inverse(h.algebra, h.coalgebra) == h.antipode
    s = convolution_inverse(dual_number_algebra(QQ, 2), dual_number_coalgebra(QQ, 2))
    assert s == dual_number_antipode(QQ)


def test_tensor_hom_algebra_group_case():
    h = group_algebra_z2(QQ)
    t = tensor_hom_algebra(h.algebra, h.algebra)
    assert t.dim == 4
    assert t.unit == kron(h.unit, h.unit)
    assert check_hom_algebra(t).passed


def test_tensor_hom_algebra_twisted_case(field):
    # the axiom checker is the oracle for the construction
    a = taft_twisted(field, 2).algebra
    b = group_algebra_z2(field).algebra
    t = tensor_hom_algebra(a, b)
    assert t.dim == 8
    assert t.twist == kron(a.twist, b.twist)
    assert check_hom_algebra(t).passed
    tc = tensor_hom_coalgebra(taft_twisted(field, 2).coalgebra, group_algebra_z2(field).coalgebra)
    assert check_hom_coalgebra(tc).passed


def test_tensor_algebra_dual_number_coefficient():
    # (z(x)1)(1(x)z) = lz (x) lz: coefficient l^2 = 4 on z(x)z
    a = dual_number_algebra(QQ, 2)
    t = tensor_hom_algebra(a, a)
    from homhopf import flatten_index

    col = flatten_index((2, 2, 2, 2), (1, 0, 0, 1))
    row = flatten_index((2, 2), (1, 1))
    assert t.mult.entry(row, col) == 4


def test_tensor_of_catalog_pairs_passes(field):
    algebras = [
        group_algebra_z2(field).algebra,
        taft_twisted(field, 2).algebra,
        dual_number_algebra(field, 3),
    ]
    for a in algebras:
        for b in algebras:
            assert check_hom_algebra(tensor_hom_algebra(a, b)).passed


def test_yau_twist_identity_returns_same_maps():
    h = taft_hopf(QQ)
    t = yau_twist(h, Matrix.identity(QQ, 4))
    assert t.mult == h.mult
    assert t.comult == h.comult
    assert t.antipode == h.antipode
    assert t.twist.is_identity()


def test_yau_twist_matches_catalog():
    gamma = Matrix.diagonal(QQ, [1, 1, 2, 2])
    t = yau_twist(taft_hopf(QQ), gamma)
    ref = taft_twisted(QQ, 2)
    assert t.mult == ref.mult
    assert t.comult == ref.comult
    assert t.twist == ref.twist


def test_yau_twist_inverts_gamma_once():
    # every check asks the one gamma whether it inverts; a diagonal gamma is
    # answered from its factor probe, so no check solves for its inverse
    h = taft_hopf(QQ)
    with mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve:
        yau_twist(h, Matrix.diagonal(QQ, [1, 1, 2, 2]))
    assert solve.call_count == 0


def test_a_dual_refuses_a_name_it_does_not_carry():
    default = object()
    assert getattr(_Dual(taft_hopf(QQ)), "nope", default) is default


def test_yau_twist_of_a_bialgebra_without_an_antipode_is_a_bialgebra():
    h = taft_hopf(QQ).bialgebra
    gamma = Matrix.diagonal(QQ, [1, 1, 2, 2])
    t = yau_twist(h, gamma)
    assert type(t) is HomBialgebra
    assert t.mult == gamma * h.mult
    assert t.comult == h.comult * gamma
    assert t.twist == gamma
    assert check_hom_bialgebra(t).passed


def test_bialgebra_check_inverts_the_twist_once():
    # the coalgebra axioms run on the bialgebra, which holds its algebra's
    # twist object; that twist is diagonal, so its probe answers both sides
    text = catalog_document("taft-twisted", QQ, QQ.coerce(2))
    h = realize(parse_document(text)).structures[("HOPF", "taft")]
    with mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve:
        assert check_hom_bialgebra(h).passed
    assert solve.call_count == 0


def test_yau_twist_composite():
    g1 = Matrix.diagonal(QQ, [1, 1, 2, 2])
    g2 = Matrix.diagonal(QQ, [1, 1, 3, 3])
    h = taft_hopf(QQ)
    composite = yau_twist(h, g1 * g2)
    assert composite.mult == (g1 * g2) * h.mult
    assert composite.comult == h.comult * (g1 * g2)
    assert composite.twist == taft_twisted(QQ, 6).twist


def test_yau_twist_rejects_non_counital_map():
    # gamma(x) = x + 1 breaks eps(gamma(x)) = eps(x)
    gamma = Matrix(QQ, 4, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (0, 2): 1})
    with pytest.raises(StructureError) as err:
        yau_twist(taft_hopf(QQ), gamma)
    report = err.value.report
    assert not report.check("automorphism.counit").passed
    assert "x" in report.check("automorphism.counit").witness


def test_yau_twist_requires_classical_input():
    with pytest.raises(StructureError):
        yau_twist(taft_twisted(QQ, 2), Matrix.identity(QQ, 4))


def test_twisted_comult_two_routes_agree():
    # matrix composition route vs brute-force basis expansion of Delta o alpha
    h = taft_twisted(QQ, 2)
    classical = taft_hopf(QQ)
    field = QQ

    def expand(idx):
        image = oracles.matrix_image(field, h.twist, (idx[0]))
        out = {}
        for j, c in image.items():
            for (a, b), c2 in oracles.delta_basis(classical.coalgebra, j).items():
                oracles.acc(field, out, (a, b), field.mul(c, c2))
        return out

    brute = oracles.oracle_matrix(field, (4,), (4, 4), expand)
    assert maps_equal(h.comult, brute)


def test_bialgebra_requires_shared_twist():
    a = dual_number_algebra(QQ, 2)
    c = dual_number_coalgebra(QQ, 3)
    with pytest.raises(ExactError):
        HomBialgebra(a, c, check=False)


def _explicit_compat_rhs(h):
    """(m (x) m) o P o (d (x) d) with the permutation matrix P written out."""
    n = h.dim
    perm = leg_perm(h.field, (n, n, n, n), (0, 2, 1, 3))
    return kron_apply(h.mult, h.mult, perm * kron(h.comult, h.comult))


CATALOG_BIALGEBRAS = {
    "kz2": group_algebra_z2,
    "kz5": lambda f: cyclic_group_hopf(f, 5),
    "taft-twisted": lambda f: taft_twisted(f, 2),
    "dual-number-biproduct": lambda f: dual_number_biproduct(f, 3),
    "taft-biproduct": lambda f: taft_biproduct(f, 2),
}


@pytest.mark.parametrize("name", sorted(CATALOG_BIALGEBRAS))
def test_compat_composite_matches_permutation_matrix_form(field, name):
    h = CATALOG_BIALGEBRAS[name](field).bialgebra
    assert _compat_rhs(h.mult, h.comult, h.comult) == _explicit_compat_rhs(h)


def test_compat_witness_unchanged_on_perturbed_multiplication(field):
    h = taft_twisted(field, 2).bialgebra
    n, b = h.dim, h.basis
    bump = Matrix(field, n, n * n, {(2, 1 * n + 2): 1})  # g * x gains an extra x
    alg = HomAlgebra(field, h.mult + bump, h.unit, h.twist, basis=b, check=False)
    broken = HomBialgebra(alg, h.coalgebra, check=False)
    got = check_hom_bialgebra(broken).check("compat.comult-mult")
    explicit = _explicit_compat_rhs(broken)
    want = eq_check("compat.comult-mult", broken.comult * broken.mult, explicit, (b, b), (b, b))
    assert not got.passed
    assert got == want
    assert _compat_rhs(broken.mult, broken.comult, broken.comult) == explicit


def test_bialgebra_check_memory_stays_small():
    # the permutation-matrix form of compat.comult-mult held n^4-row operands,
    # about 51 MB at n = 24
    h = cyclic_group_hopf(GF(7), 24).bialgebra
    tracemalloc.start()
    try:
        assert check_hom_bialgebra(h).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024


def test_checks_materialize_no_wide_kronecker_product():
    # HA2 and HC2 built kron(t, m) and kron(t, d), n^3 = 13,824 entries at
    # n = 24, only to multiply by them once
    n = 24
    h = cyclic_group_hopf(GF(7), n)
    sizes = []
    original = Matrix.kron

    def recording(self, other):
        out = original(self, other)
        sizes.append(out.nnz())
        return out

    with mock.patch.object(Matrix, "kron", recording):
        assert check_hom_bialgebra(h.bialgebra).passed
        assert check_antipode(h).passed
    assert sizes and max(sizes) <= n * n


_FIXED = {
    "HomAlgebra": lambda b: b.algebra,
    "HomCoalgebra": lambda b: b.coalgebra,
    "HomBialgebra": lambda b: b.hom.bialgebra,
    "HomHopf": lambda b: b.hom,
    "ActionMap": lambda b: b.action,
    "CoactionMap": lambda b: b.coaction,
    "YDModule": lambda b: YDModule(b.action, b.coaction),
    "TwistMapT": lambda b: flip_twist_map(b.coalgebra, b.hom),
}


@pytest.mark.parametrize("kind", list(_FIXED))
def test_public_attributes_are_fixed_at_construction(kind):
    value = _FIXED[kind](taft_bundle(QQ, 2))
    assert type(value).__name__ == kind
    held = dict(vars(value))
    public = [attr for attr in held if not attr.startswith("_")]
    assert len(public) >= 4
    for attr in public:
        for refused in (lambda: setattr(value, attr, None), lambda: delattr(value, attr)):
            with pytest.raises(AttributeError) as info:
                refused()
            assert str(info.value) == f"{kind}.{attr} is fixed at construction"
    assert vars(value) == held
