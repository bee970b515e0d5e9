"""Actions, coactions, their compatibility axioms, and Hom-Yetter-Drinfeld modules.

Both sides of the Yetter-Drinfeld compatibility are assembled as single maps
on H (x) M by composing the constituent matrices, so the check is exhaustive
over basis pairs and any failure carries an exact witness.
"""

from .fields import ExactError, ShapeError
from .matrices import (
    Matrix,
    kron,
    kron_apply,
    kron_apply_right,
    permute_col_legs,
    permute_row_legs,
)
from .report import CheckResult, Report, eq_check
from .structures import (
    _CO_NAMES,
    _co_check,
    _Dual,
    _Twisted,
    default_basis,
    twist_invertible_check,
)

__all__ = [
    "ActionMap",
    "CoactionMap",
    "YDModule",
    "check_action_axioms",
    "check_coaction_axioms",
    "check_hyd",
    "check_hyd_prime",
    "hyd_lhs_matrix",
    "hyd_rhs_matrix",
    "trivial_action",
    "trivial_coaction",
    "regular_action",
    "regular_coaction",
    "trivial_yd_module",
    "same_bialgebra",
]


def same_bialgebra(h1, h2):
    """Structural equality of two Hom-bialgebras (matrices, not identity)."""
    if h1 is h2:
        return True
    return (
        h1.field == h2.field
        and h1.dim == h2.dim
        and h1.mult == h2.mult
        and h1.unit == h2.unit
        and h1.comult == h2.comult
        and h1.counit == h2.counit
        and h1.twist == h2.twist
    )


class _CarrierMap:
    """A (co)action matrix of `hom` on a carrier with its own twist; the
    subclasses fix the matrix shape and the noun of the messages.  A
    YDModule holds its action's carrier twist, with the inverse it keeps."""

    def __init__(self, hom, matrix, carrier_twist, carrier_basis=None, name=None):
        m = carrier_twist.rows
        if carrier_twist.cols != m:
            raise ShapeError("carrier twist must be square")
        shape = self._shape(hom.dim, m)
        if (matrix.rows, matrix.cols) != shape:
            raise ShapeError(f"{self._noun} matrix must be {shape[0]} x {shape[1]}")
        if matrix.field != hom.field or carrier_twist.field != hom.field:
            raise ExactError(f"{self._noun} data must share the acting structure's field")
        self.hom = hom
        self.matrix = matrix
        self.carrier_twist = carrier_twist
        self.carrier_dim = m
        self.carrier_basis = (
            tuple(carrier_basis) if carrier_basis is not None else default_basis(m)
        )
        if len(self.carrier_basis) != m:
            raise ShapeError("carrier basis label count must equal the carrier dimension")
        self.name = name

    @property
    def field(self):
        return self.hom.field


class ActionMap(_CarrierMap):
    """Bilinear action H (x) M -> M with its own carrier twist."""

    _noun = "action"

    @staticmethod
    def _shape(n, m):
        return m, n * m


class CoactionMap(_CarrierMap):
    """Coaction M -> H (x) M with its own carrier twist."""

    _noun = "coaction"

    @staticmethod
    def _shape(n, m):
        return n * m, m


def trivial_action(hom, carrier_twist, carrier_basis=None):
    """h |> m = eps(h) alpha_M(m)."""
    return ActionMap(hom, kron(hom.counit, carrier_twist), carrier_twist, carrier_basis)


def trivial_coaction(hom, carrier_twist, carrier_basis=None):
    """rho(m) = 1_H (x) alpha_M(m)."""
    return CoactionMap(hom, kron(hom.unit, carrier_twist), carrier_twist, carrier_basis)


def regular_action(hom):
    """H acting on itself by its own multiplication."""
    return ActionMap(hom, hom.mult, hom.twist, hom.basis)


def regular_coaction(hom):
    """H coacting on itself by its own comultiplication."""
    return CoactionMap(hom, hom.comult, hom.twist, hom.basis)


_ACTION_KINDS = ("module", "module-algebra", "module-coalgebra")
_COACTION_KINDS = tuple(_CO_NAMES[kind] for kind in _ACTION_KINDS)  # each at its twin's place


def _carrier_consistent(kind, act_or_coact, carrier):
    """Refuse a missing or mismatched carrier for an -algebra or -coalgebra kind."""
    if "-" not in kind:
        return
    if carrier is None:
        raise ExactError(f"{kind} check needs the carrier Hom-{kind.partition('-')[2]}")
    if carrier.dim != act_or_coact.carrier_dim:
        raise ShapeError("carrier structure dimension mismatch")
    if carrier.twist != act_or_coact.carrier_twist:
        raise ExactError("carrier structure twist differs from the action's carrier twist")


def _action_checks(act, kind, carrier, eq):
    """HM1/HM2, plus HMA for a module-algebra `kind` or HMC for a
    module-coalgebra one, compared by `eq`, on a carrier that
    _carrier_consistent has admitted."""
    hom = act.hom
    field, n, m = hom.field, hom.dim, act.carrier_dim
    p = act.matrix
    t = act.carrier_twist
    beta = hom.twist
    i_n = Matrix.identity(field, n)
    i_m = Matrix.identity(field, m)
    hb, cb = hom.basis, act.carrier_basis
    checks = [
        eq("HM1", t * p, kron_apply_right(p, beta, t), (hb, cb), (cb,)),
        eq(
            "HM2.assoc",
            kron_apply_right(p, beta, p),
            kron_apply_right(p, hom.mult, t),
            (hb, hb, cb),
            (cb,),
        ),
        eq("HM2.unit", kron_apply_right(p, hom.unit, i_m), t, (cb,), (cb,)),
    ]
    if kind == "module-algebra":
        ma = carrier.mult
        # ma (p (x) p) P (Delta (x) id) with P the middle-leg flip, as
        # ((ma (p (x) p)) P) (Delta (x) id)
        rhs = kron_apply_right(
            permute_col_legs(kron_apply_right(ma, p, p), (n, n, m, m), (0, 2, 1, 3)),
            hom.comult,
            Matrix.identity(field, m * m),
        )
        lhs = kron_apply_right(p, hom.twist_power(2), ma)
        checks.append(eq("HMA1", lhs, rhs, (hb, cb, cb), (cb,)))
        checks.append(
            eq(
                "HMA2",
                kron_apply_right(p, i_n, carrier.unit),
                carrier.unit * hom.counit,
                (hb,),
                (cb,),
            )
        )
    elif kind == "module-coalgebra":
        dc = carrier.comult
        # (p (x) p) P (Delta (x) dc) with P the middle-leg flip, built from
        # the thinner end: on a dual, Delta and dc are transposed products
        if p.nnz() ** 2 < hom.comult.nnz() * dc.nnz():
            acted = permute_col_legs(kron(p, p), (n, n, m, m), (0, 2, 1, 3))
            rhs = kron_apply_right(acted, hom.comult, dc)
        else:
            flipped = permute_row_legs(kron(hom.comult, dc), (n, n, m, m), (0, 2, 1, 3))
            rhs = kron_apply(p, p, flipped)
        checks.append(eq("HMC1", dc * p, rhs, (hb, cb), (cb, cb)))
        checks.append(
            eq(
                "HMC2",
                carrier.counit * p,
                kron(hom.counit, carrier.counit),
                (hb, cb),
                None,
            )
        )
    return tuple(checks)


def check_action_axioms(act, kind="module", carrier=None, title=None):
    """HM1/HM2 always; HMA (module Hom-algebra) or HMC (module Hom-coalgebra) on request."""
    if kind not in _ACTION_KINDS:
        raise ValueError(f"unknown action kind {kind!r}")
    _carrier_consistent(kind, act, carrier)
    checks = _action_checks(act, kind, carrier, eq_check)
    return Report(title or f"{kind} axioms [{act.name or 'action'}]", checks)


def check_coaction_axioms(coact, kind="comodule", carrier=None, title=None):
    """HCM1/HCM2 always; HCMA (comodule Hom-algebra) or HCMC (comodule
    Hom-coalgebra) on request: HMC or HMA of the dual action."""
    if kind not in _COACTION_KINDS:
        raise ValueError(f"unknown coaction kind {kind!r}")
    _carrier_consistent(kind, coact, carrier)
    twin = _ACTION_KINDS[_COACTION_KINDS.index(kind)]
    dual_carrier = None if carrier is None else _Dual(carrier)
    checks = _action_checks(_Dual(coact), twin, dual_carrier, _co_check)
    return Report(title or f"{kind} axioms [{coact.name or 'coaction'}]", checks)


def hyd_lhs_matrix(action, coaction):
    """h1 beta(m_{-1}) (x) (beta^3(h2) |> m0) as a map on H (x) M."""
    hom = action.hom
    field, n, m = hom.field, hom.dim, action.carrier_dim
    i_m = Matrix.identity(field, m)
    step = kron(hom.comult, coaction.matrix)  # legs (h1, h2, m-1, m0)
    step = permute_row_legs(step, (n, n, n, m), (0, 2, 1, 3))  # -> (h1, m-1, h2, m0)
    left = kron_apply_right(hom.mult, Matrix.identity(field, n), hom.twist)
    right = kron_apply_right(action.matrix, hom.twist_power(3), i_m)
    return kron_apply(left, right, step)


def hyd_rhs_matrix(action, coaction):
    """(beta^2(h1) |> m)_{-1} h2 (x) (beta^2(h1) |> m)_0 as a map on H (x) M."""
    hom = action.hom
    field, n, m = hom.field, hom.dim, action.carrier_dim
    i_n = Matrix.identity(field, n)
    i_m = Matrix.identity(field, m)
    step = permute_row_legs(kron(hom.comult, i_m), (n, n, m), (0, 2, 1))  # (h1, m, h2)
    acted = kron_apply_right(action.matrix, hom.twist_power(2), i_m)
    step = kron_apply(acted, i_n, step)  # (w, h2)
    step = kron_apply(coaction.matrix, i_n, step)  # (w-1, w0, h2)
    step = permute_row_legs(step, (n, m, n), (0, 2, 1))  # (w-1, h2, w0)
    return kron_apply(hom.mult, i_m, step)


class YDModule(_Twisted):
    """One action and one coaction on a shared carrier, Yetter-Drinfeld compatible."""

    def __init__(self, action, coaction, name=None, check=True):
        if not same_bialgebra(action.hom, coaction.hom):
            raise ExactError("action and coaction must share the acting Hom-bialgebra")
        if action.carrier_dim != coaction.carrier_dim:
            raise ShapeError("action and coaction carrier dimensions differ")
        if action.carrier_twist != coaction.carrier_twist:
            raise ExactError("twist mismatch between action and coaction")
        self.action = action
        self.coaction = coaction
        self.hom = action.hom
        self.field = action.field
        self.dim = action.carrier_dim
        self.twist = action.carrier_twist
        self.basis = action.carrier_basis
        self.name = name
        if check:
            reports = (check_action_axioms(action), check_coaction_axioms(coaction), check_hyd(self))
            for rep in reports:
                rep.require("Yetter-Drinfeld module invalid")


def check_hyd(module, title=None):
    """The Yetter-Drinfeld compatibility as one exact map equality on H (x) M."""
    action, coaction = module.action, module.coaction
    legs = (action.hom.basis, action.carrier_basis)
    check = eq_check(
        "HYD", hyd_lhs_matrix(action, coaction), hyd_rhs_matrix(action, coaction), legs, legs
    )
    return Report(title or f"Yetter-Drinfeld compatibility [{module.name or 'module'}]", (check,))


def _hyd_prime_lhs(action, coaction):
    hom = action.hom
    field, m = hom.field, action.carrier_dim
    coacted = coaction.matrix * action.matrix
    return kron_apply_right(coacted, hom.twist_power(4), Matrix.identity(field, m))


def _hyd_prime_rhs(action, coaction, antipode):
    hom = action.hom
    field, n, m = hom.field, hom.dim, action.carrier_dim
    i_n = Matrix.identity(field, n)
    i_m = Matrix.identity(field, m)
    step1 = kron(hom.comult, coaction.matrix)  # (h1, h2, m-1, m0)
    step2 = kron_apply(hom.comult, Matrix.identity(field, n * n * m), step1)
    # (h11, h12, h2, m-1, m0) -> (h11, m-1, h2, h12, m0)
    step = permute_row_legs(step2, (n, n, n, n, m), (0, 3, 2, 1, 4))
    # beta^-2(h11 beta(m-1))
    inner = kron_apply_right(hom.twist_power(-2) * hom.mult, i_n, hom.twist)
    left = kron_apply_right(hom.mult, inner, antipode)
    right = kron_apply_right(action.matrix, hom.twist_power(3), i_m)
    return kron_apply(left, right, step)


def check_hyd_prime(module, title=None, hyd=None):
    """The antipode form of the compatibility, plus agreement with the plain
    form; `hyd` is the module's `check_hyd` report when the caller has it."""
    action, coaction = module.action, module.coaction
    hom = action.hom
    antipode = getattr(hom, "antipode", None)
    if antipode is None:
        raise ExactError("no antipode available on the acting structure")
    title = title or f"antipode-form compatibility [{module.name or 'module'}]"
    invertible = twist_invertible_check(hom)
    if not invertible.passed:  # the antipode form twists by beta^-2
        return Report(title, (invertible,))
    legs = (hom.basis, action.carrier_basis)
    prime = eq_check(
        "HYD-prime",
        _hyd_prime_lhs(action, coaction),
        _hyd_prime_rhs(action, coaction, antipode),
        legs,
        legs,
    )
    plain = (check_hyd(module) if hyd is None else hyd).checks[0]
    agree = plain.passed == prime.passed
    witness = None if agree else f"HYD={plain.verdict} but HYD-prime={prime.verdict}"
    checks = (prime, CheckResult("equivalence-with-HYD", agree, witness))
    return Report(title, checks)


def trivial_yd_module(hom):
    """The base field as a Yetter-Drinfeld module: h |> k = eps(h)k, rho(k) = 1 (x) k."""
    field = hom.field
    unit_twist = Matrix.identity(field, 1)
    action = ActionMap(hom, hom.counit, unit_twist, ("1",))
    coaction = CoactionMap(hom, hom.unit, unit_twist, ("1",))
    return YDModule(action, coaction, name="unit-module")
