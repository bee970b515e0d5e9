"""Quasitriangular structures and dual pairing forms: the QHA axioms, the
coaction induced by an invariant element of H (x) H, the action induced by a
bilinear form, and the equivalences tying both to Yetter-Drinfeld data.
"""

from dataclasses import dataclass

from .fields import ExactError, ShapeError
from .matrices import Matrix, first_mismatch, kron, kron_apply, permute_row_legs
from .report import CheckResult, Report, eq_check
from .actions import (
    ActionMap,
    CoactionMap,
    YDModule,
    check_action_axioms,
    check_coaction_axioms,
    check_hyd,
    regular_action,
    regular_coaction,
)
from .structures import _acting_dual, twist_invertible_check

__all__ = [
    "RMatrix",
    "CobraidingForm",
    "check_quasitriangular",
    "induced_coaction",
    "rmatrix_from_coaction",
    "check_rmatrix_equivalence",
    "induced_action_from_form",
    "check_cobraiding_equivalence",
]


@dataclass(frozen=True)
class RMatrix:
    """An element R = sum R1 (x) R2 of H (x) H as a coefficient column."""

    hom: object
    coeffs: Matrix

    def __post_init__(self):
        n = self.hom.dim
        if (self.coeffs.rows, self.coeffs.cols) != (n * n, 1):
            raise ShapeError("R-matrix coefficients must form an n^2 column")
        if self.coeffs.field != self.hom.field:
            raise ExactError("R-matrix must live over the structure field")

    @classmethod
    def from_pairs(cls, hom, pairs):
        n = hom.dim
        entries = {(i * n + j, 0): v for (i, j), v in pairs.items()}
        return cls(hom, Matrix(hom.field, n * n, 1, entries))

    def coefficient(self, i, j):
        return self.coeffs.entry(i * self.hom.dim + j, 0)


@dataclass(frozen=True)
class CobraidingForm:
    """A bilinear form sigma on H (x) H as an n x n coefficient matrix."""

    hom: object
    matrix: Matrix

    def __post_init__(self):
        n = self.hom.dim
        if (self.matrix.rows, self.matrix.cols) != (n, n):
            raise ShapeError("form coefficients must be n x n")
        if self.matrix.field != self.hom.field:
            raise ExactError("form must live over the structure field")

    def pairing_row(self):
        """The form as a map H (x) H -> K under the global flattening."""
        n = self.hom.dim
        entries = {}
        for i in range(n):
            for j, v in self.matrix.row_items(i):
                entries[(0, i * n + j)] = v
        return Matrix(self.hom.field, 1, n * n, entries)


def check_quasitriangular(hom, rmatrix, title=None):
    """The five quasitriangular axioms, each an exact map/element equality."""
    s = getattr(hom, "antipode", None)
    if s is None:
        raise ExactError("quasitriangular checks need a Hom-Hopf algebra")
    field, n, b = hom.field, hom.dim, hom.basis
    r = rmatrix.coeffs
    beta = hom.twist
    d, m = hom.comult, hom.mult
    i_n = Matrix.identity(field, n)
    rr = kron(r, r)  # legs (R1, R2, r1, r2)
    dr = kron(d, r)  # legs (h1, h2, R1, R2)
    legs = (n, n, n, n)
    one = (b,)
    two = (b, b)
    three = (b, b, b)
    checks = [
        Report(
            "QHA1",
            (
                eq_check("counit-left", kron_apply(hom.counit, i_n, r), hom.unit, None, one),
                eq_check("counit-right", kron_apply(i_n, hom.counit, r), hom.unit, None, one),
            ),
        ).summarize("QHA1"),
        eq_check(
            "QHA2",
            kron_apply(d, beta, r),
            kron_apply(kron(beta, beta), m, permute_row_legs(rr, legs, (0, 2, 1, 3))),
            None,
            three,
        ),
        eq_check(
            "QHA3",
            kron_apply(beta, d, r),
            kron_apply(m, kron(beta, beta), permute_row_legs(rr, legs, (0, 2, 3, 1))),
            None,
            three,
        ),
        eq_check(
            "QHA4",
            kron_apply(m, m, permute_row_legs(dr, legs, (1, 2, 0, 3))),
            kron_apply(m, m, permute_row_legs(dr, legs, (2, 0, 3, 1))),
            one,
            two,
        ),
        eq_check("QHA5", kron_apply(beta, beta, r), r, None, two),
    ]
    return Report(title or "quasitriangular axioms QHA1-QHA5", tuple(checks))


def induced_coaction(hom, rmatrix, check_gate=True):
    """rho(h) = beta^-3(R2) (x) R1 h, a coaction of H on itself with twist beta."""
    if check_gate:
        check_quasitriangular(hom, rmatrix).require("element fails the quasitriangular axioms")
    field, n = hom.field, hom.dim
    i_n = Matrix.identity(field, n)
    step = kron(rmatrix.coeffs, i_n)  # (R1, R2, h)
    step = permute_row_legs(step, (n, n, n), (1, 0, 2))  # (R2, R1, h)
    matrix = kron_apply(hom.twist_power(-3), hom.mult, step)
    return CoactionMap(hom, matrix, hom.twist, hom.basis, name="induced-coaction")


def rmatrix_from_coaction(hom, coaction):
    """Invert the induced-coaction shape: read rho at the unit, undo the
    Hom-unit law and the twists, and confirm by re-inducing.

    Returns (rmatrix_or_None, shape_check)."""
    if coaction.carrier_dim != hom.dim:
        raise ShapeError("the induced shape lives on the structure itself")
    field, n = hom.field, hom.dim
    at_unit = coaction.matrix * hom.unit  # beta^-3(R2) (x) beta(R1)
    swapped = permute_row_legs(at_unit, (n, n), (1, 0))  # beta(R1) (x) beta^-3(R2)
    coeffs = kron_apply(hom.twist_power(-1), hom.twist_power(3), swapped)
    candidate = RMatrix(hom, coeffs)
    reinduced = induced_coaction(hom, candidate, check_gate=False)
    mm = first_mismatch(reinduced.matrix, coaction.matrix)
    if mm is None:
        return candidate, CheckResult("induced-shape", True)
    witness = (
        f"re-induced coaction differs at row {mm.row}, col {mm.col}: "
        f"{field.format(mm.lhs)} != {field.format(mm.rhs)}"
    )
    return None, CheckResult("induced-shape", False, witness)


def _yd_side_checks(hom, coaction):
    """The comodule Hom-coalgebra and Yetter-Drinfeld verdicts for a coaction
    of H on itself paired with the regular action."""
    comodule = check_coaction_axioms(coaction, "comodule-coalgebra", carrier=hom.coalgebra)
    module = YDModule(regular_action(hom), coaction, check=False)
    hyd = check_hyd(module)
    return comodule.summarize("comodule-Hom-coalgebra"), hyd.summarize("HYD")


def check_rmatrix_equivalence(hom, rmatrix=None, coaction=None, title=None):
    """Quasitriangularity iff the induced coaction is a comodule Hom-coalgebra
    and the regular-action pairing is Yetter-Drinfeld compatible.

    Given a coaction instead of an element, it is first decompiled; shapes
    other than the induced one are reported and the rest is skipped."""
    if (rmatrix is None) == (coaction is None):
        raise ExactError("provide exactly one of rmatrix or coaction")
    title = title or "quasitriangular/YD equivalence"
    invertible = twist_invertible_check(hom)
    if not invertible.passed:  # the induced coaction twists by beta^-3
        return Report(title, (invertible,))
    checks = []
    if coaction is not None:
        rmatrix, shape = rmatrix_from_coaction(hom, coaction)
        checks.append(shape)
        if rmatrix is None:
            return Report(title, tuple(checks))
    else:
        coaction = induced_coaction(hom, rmatrix, check_gate=False)
    qha = check_quasitriangular(hom, rmatrix)
    checks.append(qha.summarize("QHA1-5"))
    comodule, hyd = _yd_side_checks(hom, coaction)
    checks += [comodule, hyd]
    agree = qha.passed == (comodule.passed and hyd.passed)
    witness = None if agree else (
        f"QHA={'PASS' if qha.passed else 'FAIL'} "
        f"YD-side={'PASS' if comodule.passed and hyd.passed else 'FAIL'}"
    )
    checks.append(CheckResult("agreement", agree, witness))
    return Report(title, tuple(checks))


def induced_action_from_form(hom, form):
    """h |> g = sigma(g1, beta^-3(h)) g2, an action of H on itself with twist
    beta: the transpose of the coaction that sigma, read as an element of the
    dual's tensor square, induces on the dual of H."""
    dual = _acting_dual(hom)
    coaction = induced_coaction(dual, RMatrix(dual, form.pairing_row().transpose()), check_gate=False)
    return ActionMap(hom, coaction.matrix.transpose(), hom.twist, hom.basis, name="induced-action")


def check_cobraiding_equivalence(hom, form, title=None):
    """The operational cobraiding contract: the induced action is a module
    Hom-algebra and, paired with the regular coaction, Yetter-Drinfeld
    compatible."""
    title = title or "cobraiding contract"
    invertible = twist_invertible_check(hom)
    if not invertible.passed:  # the induced action twists by beta^-3
        return Report(title, (invertible,))
    action = induced_action_from_form(hom, form)
    module_report = check_action_axioms(action, "module-algebra", carrier=hom.algebra)
    yd = YDModule(action, regular_coaction(hom), check=False)
    hyd_report = check_hyd(yd)
    module_check = module_report.summarize("module-Hom-algebra")
    hyd_check = hyd_report.summarize("HYD")
    conj = module_check.passed and hyd_check.passed
    checks = (
        module_check,
        hyd_check,
        CheckResult("cobraided", conj, None if conj else "conjunction fails"),
    )
    return Report(title, checks)
