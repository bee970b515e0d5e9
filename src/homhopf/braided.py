"""The Yetter-Drinfeld category machinery: tensor modules, associator,
pre-braiding and its inverse, the Yang-Baxter operator, pentagon/hexagon
checks, and the biproduct/category equivalence.  Only the associator checks
what it builds; check_yd_morphism and check_hyd check the rest.
"""

from dataclasses import dataclass

from .fields import ExactError
from .matrices import (
    Matrix,
    kron,
    kron_apply,
    kron_apply_right,
    kron_list,
    permute_col_legs,
    permute_row_legs,
)
from .report import CheckResult, Report, eq_check
from .structures import tensor_basis
from .actions import (
    ActionMap,
    CoactionMap,
    YDModule,
    _coact_then_act,
    braiding_matrix,
    same_bialgebra,
)
from .constructions import _twist_naturality, check_radford_conditions

__all__ = [
    "CategoryMorphism",
    "check_yd_morphism",
    "yd_tensor",
    "associator",
    "associator_matrix",
    "braiding",
    "braiding_inverse",
    "yang_baxter_operator",
    "check_yang_baxter",
    "check_pentagon",
    "check_hexagons",
    "check_bialgebra_in_hyd",
    "check_bosonization_equivalence",
]


@dataclass(frozen=True)
class CategoryMorphism:
    """A linear map between Yetter-Drinfeld modules over one Hom-bialgebra."""

    source: YDModule
    target: YDModule
    matrix: Matrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise ExactError("morphism matrix shape does not match source/target")


def check_yd_morphism(f, title=None):
    """Commutation with the carrier twists, the actions, and the coactions."""
    src, tgt = f.source, f.target
    if not same_bialgebra(src.hom, tgt.hom):
        raise ExactError("source and target live over different Hom-bialgebras")
    hom = src.hom
    field, n = hom.field, hom.dim
    i_n = Matrix.identity(field, n)
    m = f.matrix
    in_legs = (src.basis,)
    out_legs = (tgt.basis,)
    checks = (
        eq_check("morphism.twist", m * src.twist, tgt.twist * m, in_legs, out_legs),
        eq_check(
            "morphism.action",
            m * src.action.matrix,
            kron_apply_right(tgt.action.matrix, i_n, m),
            (hom.basis, src.basis),
            out_legs,
        ),
        eq_check(
            "morphism.coaction",
            tgt.coaction.matrix * m,
            kron_apply(i_n, m, src.coaction.matrix),
            in_legs,
            (hom.basis, tgt.basis),
        ),
    )
    return Report(title or "Yetter-Drinfeld morphism conditions", checks)


def yd_tensor(m1, m2):
    """Tensor module, unchecked: action (h1 |> m) (x) (h2 |> n), coaction
    beta^-2(m_{-1} n_{-1}) (x) m_0 (x) n_0, twist alpha_M (x) alpha_N."""
    if not same_bialgebra(m1.hom, m2.hom):
        raise ExactError("tensor modules need one common acting structure")
    hom = m1.hom
    field, n = hom.field, hom.dim
    d1, d2 = m1.dim, m2.dim
    i_d = Matrix.identity(field, d1 * d2)
    split = kron(hom.comult, i_d)  # (h1, h2, m, n)
    split = permute_row_legs(split, (n, n, d1, d2), (0, 2, 1, 3))  # (h1, m, h2, n)
    act = kron_apply(m1.action.matrix, m2.action.matrix, split)
    coacted = kron(m1.coaction.matrix, m2.coaction.matrix)  # (m-1, m0, n-1, n0)
    coacted = permute_row_legs(coacted, (n, d1, n, d2), (0, 2, 1, 3))  # (m-1, n-1, m0, n0)
    coact = kron_apply(hom.twist_power(-2) * hom.mult, i_d, coacted)
    twist = kron(m1.twist, m2.twist)
    basis = tensor_basis(m1.basis, m2.basis)
    return YDModule(
        ActionMap(hom, act, twist, basis),
        CoactionMap(hom, coact, twist, basis),
        name="tensor-module",
        check=False,
    )


def associator_matrix(m1, m2, m3):
    """(m (x) n) (x) p |-> alpha_M^-1(m) (x) (n (x) alpha_P(p))."""
    field = m1.field
    return kron_list(m1.twist_inv, Matrix.identity(field, m2.dim), m3.twist)


def _associator_inverse(m1, m2, m3):
    """m (x) (n (x) p) |-> (alpha_M(m) (x) n) (x) alpha_P^-1(p), from the kept twist inverses."""
    return kron_list(m1.twist, Matrix.identity(m1.field, m2.dim), m3.twist_inv)


def associator(m1, m2, m3):
    src = yd_tensor(yd_tensor(m1, m2), m3)
    tgt = yd_tensor(m1, yd_tensor(m2, m3))
    f = CategoryMorphism(src, tgt, associator_matrix(m1, m2, m3))
    check_yd_morphism(f).require("associator is not a morphism")
    return f


def braiding(m1, m2):
    return CategoryMorphism(yd_tensor(m1, m2), yd_tensor(m2, m1), braiding_matrix(m1, m2))


def braiding_inverse_matrix(m1, m2):
    """c^-1(n (x) m) = alpha_M^-1(m_0) (x) (S^-1(beta^2(m_{-1})) |> alpha_N^-1(n)):
    the braiding body with S^-1 beta^2 acting, between flips of both sides."""
    hom = m1.hom
    s = getattr(hom, "antipode", None)
    if s is None:
        raise ExactError("the braiding inverse needs an antipode")
    left = kron_apply_right(m2.action.matrix, s.inverse() * hom.twist_power(2), m2.twist_inv)
    body = _coact_then_act(m1.coaction, m2.dim, left, m1.twist_inv)
    flipped = permute_row_legs(body, (m2.dim, m1.dim), (1, 0))  # onto M (x) N
    return permute_col_legs(flipped, (m2.dim, m1.dim), (1, 0))  # from N (x) M


def braiding_inverse(m1, m2):
    src, tgt = yd_tensor(m2, m1), yd_tensor(m1, m2)
    return CategoryMorphism(src, tgt, braiding_inverse_matrix(m1, m2))


def yang_baxter_operator(m1, m2):
    """tau(m (x) n) = (beta^3(m_{-1}) |> n) (x) m_0."""
    field = m1.field
    i1, i2 = Matrix.identity(field, m1.dim), Matrix.identity(field, m2.dim)
    left = kron_apply_right(m2.action.matrix, m1.hom.twist_power(3), i2)
    return _coact_then_act(m1.coaction, m2.dim, left, i1)


def check_yang_baxter(m1, m2, m3, title=None):
    """Twist compatibility of tau plus the Yang-Baxter relation on M (x) N (x) P."""
    return _yang_baxter(m1, m2, m3, title)[0]


def _yang_baxter(m1, m2, m3, title):
    """check_yang_baxter's report, with the tau_{M,N} it built."""
    t12 = yang_baxter_operator(m1, m2)
    t13 = yang_baxter_operator(m1, m3)
    t23 = yang_baxter_operator(m2, m3)
    checks = [
        _twist_naturality("tau.twist(M,N)", t12, m1, m2),
        _twist_naturality("tau.twist(M,P)", t13, m1, m3),
        _twist_naturality("tau.twist(N,P)", t23, m2, m3),
    ]
    lhs = kron_apply(m3.twist, t12, kron_apply(t13, m2.twist, kron(m1.twist, t23)))
    rhs = kron_apply(t23, m1.twist, kron_apply(m2.twist, t13, kron(t12, m3.twist)))
    in_legs = (m1.basis, m2.basis, m3.basis)
    out_legs = (m3.basis, m2.basis, m1.basis)
    checks.append(eq_check("HYBE", lhs, rhs, in_legs, out_legs))
    return Report(title or "Yang-Baxter operator checks", tuple(checks)), t12


def check_pentagon(m1, m2, m3, m4, title=None):
    """The two composite reassociations of a fourfold tensor agree."""
    t12 = yd_tensor(m1, m2)
    t23 = yd_tensor(m2, m3)
    t34 = yd_tensor(m3, m4)
    lhs = associator_matrix(m1, m2, t34) * associator_matrix(t12, m3, m4)
    rhs = kron_apply_right(
        kron_apply(
            Matrix.identity(m1.field, m1.dim),
            associator_matrix(m2, m3, m4),
            associator_matrix(m1, t23, m4),
        ),
        associator_matrix(m1, m2, m3),
        Matrix.identity(m1.field, m4.dim),
    )
    legs = (m1.basis, m2.basis, m3.basis, m4.basis)
    check = eq_check("pentagon", lhs, rhs, legs, legs)
    return Report(title or "pentagon identity", (check,))


def check_hexagons(m1, m2, m3, title=None):
    """Both hexagon identities for the pre-braiding, plus its naturality
    against the twist morphisms."""
    field = m1.field
    i1 = Matrix.identity(field, m1.dim)
    i2 = Matrix.identity(field, m2.dim)
    i3 = Matrix.identity(field, m3.dim)
    c12 = braiding_matrix(m1, m2)
    c13 = braiding_matrix(m1, m3)
    c23 = braiding_matrix(m2, m3)
    t12 = yd_tensor(m1, m2)
    t23 = yd_tensor(m2, m3)
    hex1_lhs = kron_apply_right(kron_apply(i2, c13, associator_matrix(m2, m1, m3)), c12, i3)
    hex1_rhs = (
        associator_matrix(m2, m3, m1)
        * braiding_matrix(m1, t23)
        * associator_matrix(m1, m2, m3)
    )
    hex2_lhs = kron_apply_right(kron_apply(c13, i2, _associator_inverse(m1, m3, m2)), i1, c23)
    hex2_rhs = (
        _associator_inverse(m3, m1, m2)
        * braiding_matrix(t12, m3)
        * _associator_inverse(m1, m2, m3)
    )
    in_legs = (m1.basis, m2.basis, m3.basis)
    checks = (
        eq_check("hexagon1", hex1_lhs, hex1_rhs, in_legs, (m2.basis, m3.basis, m1.basis)),
        eq_check("hexagon2", hex2_lhs, hex2_rhs, in_legs, (m3.basis, m1.basis, m2.basis)),
        _twist_naturality("naturality.twist", c12, m1, m2),
    )
    return Report(title or "hexagon identities", checks)


def check_bialgebra_in_hyd(bundle, title=None):
    """The carrier is a bialgebra inside the category: Yetter-Drinfeld
    compatibility, the R1-R3 gates, and multiplicativity of its coproduct
    through the braiding c_{A,A}."""
    return _in_category_report(check_radford_conditions(bundle), title)


# each in-category check beside the R1-R5 check that decides it: HYD is R5's
# identity, and R4's right-hand side is the braided product
# (mu (x) mu)(id (x) c_{A,A} (x) id)(Delta (x) Delta)
_DECIDED_BY = (("HYD", "R5"), ("R1", "R1"), ("R2", "R2"), ("R3", "R3"), ("braided-comult-mult", "R4"))


def _in_category_report(radford, title=None):
    """check_bialgebra_in_hyd from an evaluated R1-R5 gate: each check is the
    gate check that decides it, renamed, with its verdict and witness."""
    checks = []
    for name, gate_name in _DECIDED_BY:
        c = radford.check(gate_name)
        checks.append(CheckResult(name, c.passed, c.witness))
    return Report(title or "bialgebra in the Yetter-Drinfeld category", tuple(checks))


def check_bosonization_equivalence(bundle, title=None):
    """The biproduct gate and the in-category bialgebra verdicts must agree;
    requires the acting twist to square to the identity. Both are read off
    one R1-R5 report."""
    if not bundle.hom.twist_power(2).is_identity():
        raise ExactError("equivalence check requires beta^2 = id on the acting structure")
    radford = check_radford_conditions(bundle)
    category = _in_category_report(radford)
    checks = (
        radford.summarize("radford-conditions"),
        category.summarize("bialgebra-in-category"),
        CheckResult("agreement", radford.passed == category.passed),
    )
    return Report(title or "biproduct/category equivalence", checks)
