"""Actions, coactions, their compatibility axioms, and Hom-Yetter-Drinfeld
modules with the matrix of their braiding.

Both sides of the Yetter-Drinfeld compatibility are assembled as single maps
on H (x) M, built transposed one input pair at a time, so any failure
carries the exact witness of the exhaustive check; like HM2 and HMA1/HMC1,
the biproduct gate may first compare them on a generating set of H.
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
    _acting_dual,
    _co_check,
    _Dual,
    _Fixed,
    _holds_bialgebra,
    _reduced_eq,
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


class _CarrierMap(_Fixed):
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
    _carrier_consistent has admitted, with the verdicts and witnesses of
    the exhaustive comparison; a witness names the carrier by the basis of
    `carrier` when one is given, else by the (co)action's. HM2.assoc may
    compare only the triples h (x) g (x) m, and HMA1 and HMC1 only the
    inputs g (x) ..., with g in a generating set G of H (`_generators`, through
    structures._reduced_eq), once their premises hold: HM1 and HM2.unit
    (for HMA1 and HMC1 also HM2.assoc) in this report, H's Hom-bialgebra
    axioms with an invertible beta (`_holds_bialgebra`) and an invertible
    carrier twist alpha. Each set below is a subspace, so it is H once it
    is a beta-stable subalgebra holding 1 and G: the unit and G close to
    H under beta and under x |-> g x.

    HM2: N = {h' : beta(h) |> (h' |> m) = (h h') |> alpha(m) for all h, m}.
    1 is in N: beta(h) |> (1 |> m) = beta(h) |> alpha(m) = alpha(h |> m)
    by HM2.unit and HM1, and (h 1) |> alpha(m) = beta(h) |> alpha(m) by
    the unit laws. N is beta-stable: applying alpha to the identity at
    h' in N, HM1 and HA1 give beta^2(x) |> (beta(h') |> alpha(y)) =
    (beta(x) beta(h')) |> alpha^2(y), which is the identity at beta(h')
    for h = beta(x), m = alpha(y), all h and m as beta and alpha are
    invertible; so beta(N) = N. N is closed under mu: for h', h'' in N,
    (h' h'') |> alpha(y) = beta(h') |> (h'' |> y), so with k the solution
    of beta(k) = h beta(h'), beta(h) |> ((h' h'') |> alpha(y)) =
    (h beta(h')) |> (beta(h'') |> alpha(y)) = (k beta(h'')) |> alpha^2(y),
    and HA2 turns k beta(h'') = (beta^-1(h) h') beta(h'') into
    h (h' h'').

    HMA1: S = {h : beta^2(h) |> (a b) = (h1 |> a)(h2 |> b) for all a, b},
    given also the carrier's HA1.mult. 1 is in S by HA1.unit,
    compat.comult-unit, HM2.unit and alpha(a b) = alpha(a) alpha(b).
    Applying alpha to the identity at h, HM1, HA1 and HC1.comult give it
    at beta(h) on alpha(a), alpha(b), so S is beta-stable. For h, k in S,
    beta^2(h k) |> (a b) = beta^3(h) |> (beta^2(k) |> (a' b')) with
    a' = alpha^-1(a), b' = alpha^-1(b), by HA1 and HM2; k and then
    beta(h) in S, HM2 and compat.comult-mult make it
    ((h k)1 |> a)((h k)2 |> b).

    HMC1: S = {h : Delta_C(h |> c) = (h1 |> c1) (x) (h2 |> c2) for all c},
    given also the carrier's HC1.comult. 1 is in S by compat.comult-unit,
    HM2.unit and Delta_C alpha = (alpha (x) alpha) Delta_C. Applying
    alpha (x) alpha to the identity at h, HM1 and HC1.comult give it at
    beta(h) on alpha(c). For h, k in S, Delta_C((h k) |> c) =
    Delta_C(beta(h) |> (k |> alpha^-1(c))), which beta(h) and k in S,
    HM2, HC1.comult of the carrier and compat.comult-mult make
    ((h k)1 |> c1) (x) ((h k)2 |> c2).
    """
    hom = act.hom
    field, n, m = hom.field, hom.dim, act.carrier_dim
    p = act.matrix
    t = act.carrier_twist
    beta = hom.twist
    i_n = Matrix.identity(field, n)
    i_m = Matrix.identity(field, m)
    hb, cb = hom.basis, act.carrier_basis if carrier is None else carrier.basis
    hm1 = eq("HM1", t * p, kron_apply_right(p, beta, t), (hb, cb), (cb,))
    unit = eq("HM2.unit", kron_apply_right(p, hom.unit, i_m), t, (cb,), (cb,))

    def assoc(pick):  # beta(h) |> (h' |> m) and (h h') |> alpha(m), h' in G or in H
        acted, mult = p, hom.mult
        if pick is not None:
            acted, mult = kron_apply_right(p, pick, i_m), kron_apply_right(mult, i_n, pick)
        return kron_apply_right(p, beta, acted), kron_apply_right(p, mult, t)

    premises = hm1.passed and unit.passed and _holds_bialgebra(hom) and _carrier_twist_inverts(act)
    hm2 = _reduced_eq(eq, "HM2.assoc", assoc, hom, premises, (hb, hb, cb), (cb,))
    checks = [hm1, hm2, unit]
    premises = premises and hm2.passed
    if kind == "module-algebra":
        ma, ta = carrier.mult, carrier.twist

        def hma1(pick):  # beta^2(h) |> (a b) and (h1 |> a)(h2 |> b), h in G or in H
            twisted, comult = hom.twist_power(2), hom.comult
            if pick is not None:
                twisted, comult = twisted * pick, comult * pick
            # ma (p (x) p) P (Delta (x) id) with P the middle-leg flip, as
            # ((ma (p (x) p)) P) (Delta (x) id)
            acted = permute_col_legs(kron_apply_right(ma, p, p), (n, n, m, m), (0, 2, 1, 3))
            rhs = kron_apply_right(acted, comult, Matrix.identity(field, m * m))
            return kron_apply_right(p, twisted, ma), rhs

        premises = premises and ta * ma == kron_apply_right(ma, ta, ta)  # the carrier's HA1.mult
        checks.append(_reduced_eq(eq, "HMA1", hma1, hom, premises, (hb, cb, cb), (cb,)))
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
        dc, tc = carrier.comult, carrier.twist

        def hmc1(pick):  # Delta_C(h |> c) and (h1 |> c1) (x) (h2 |> c2), h in G or in H
            acted, comult = p, hom.comult
            if pick is not None:
                acted, comult = kron_apply_right(p, pick, i_m), comult * pick
            # (p (x) p) P (Delta (x) dc) with P the middle-leg flip, built from
            # the thinner end: on a dual, Delta and dc are transposed products
            if p.nnz() ** 2 < comult.nnz() * dc.nnz():
                pp = permute_col_legs(kron(p, p), (n, n, m, m), (0, 2, 1, 3))
                rhs = kron_apply_right(pp, comult, dc)
            else:
                flipped = permute_row_legs(kron(comult, dc), (n, n, m, m), (0, 2, 1, 3))
                rhs = kron_apply(p, p, flipped)
            return dc * acted, rhs

        premises = premises and dc * tc == kron_apply(tc, tc, dc)  # the carrier's HC1.comult
        checks.append(_reduced_eq(eq, "HMC1", hmc1, hom, premises, (hb, cb), (cb, cb)))
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


def _carrier_twist_inverts(act):
    """Whether the carrier twist of a (co)action inverts; on a dual, as the
    twist it transposes does, which keeps what it learns."""
    return (act._of if isinstance(act, _Dual) else act).carrier_twist.inverts()


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


def _acting_rows(dual, pick, right):
    """(Delta_H o pick)^T (x) right, with Delta_H^T read from the dual of H
    kept on it: one row per input pair, h in the columns of `pick` (all of
    H when it is None) beside each row of `right`; the columns are
    (h1, h2) followed by those of `right`."""
    comult_t = dual.mult
    if pick is not None:
        comult_t = pick.transpose() * comult_t
    return kron(comult_t, right)


def hyd_lhs_matrix(action, coaction, pick=None):
    """h1 beta(m_{-1}) (x) (beta^3(h2) |> m0) as a map on H (x) M, or on
    the inputs h (x) m with h in the columns of `pick`.

    Built transposed, one row per input pair, like constructions._r4_rhs:
    the rows of (Delta_H (x) rho)^T with the middle legs flipped, times
    (mu (id (x) beta))^T (x) (|> (beta^3 (x) id))^T, then one transpose.
    """
    hom = action.hom
    field, n, m = hom.field, hom.dim, action.carrier_dim
    dual = _acting_dual(hom)
    step = _acting_rows(dual, pick, coaction.matrix.transpose())  # (h1, h2, m-1, m0)
    step = permute_col_legs(step, (n, n, n, m), (0, 2, 1, 3))  # -> (h1, m-1, h2, m0)
    left = kron_apply_right(hom.mult, Matrix.identity(field, n), hom.twist)
    right = kron_apply_right(action.matrix, hom.twist_power(3), Matrix.identity(field, m))
    return kron_apply_right(step, left.transpose(), right.transpose()).transpose()


def hyd_rhs_matrix(action, coaction, pick=None):
    """(beta^2(h1) |> m)_{-1} h2 (x) (beta^2(h1) |> m)_0 as a map on H (x) M,
    or on the inputs h (x) m with h in the columns of `pick`; built
    transposed as hyd_lhs_matrix is."""
    hom = action.hom
    field, n, m = hom.field, hom.dim, action.carrier_dim
    dual = _acting_dual(hom)
    i_m = Matrix.identity(field, m)
    step = _acting_rows(dual, pick, i_m)  # (h1, h2, m)
    step = permute_col_legs(step, (n, m, n), (0, 2, 1))  # -> (h1, m, h2)
    coacted = coaction.matrix * kron_apply_right(action.matrix, hom.twist_power(2), i_m)
    step = kron_apply_right(step, coacted.transpose(), Matrix.identity(field, n))  # (w-1, w0, h2)
    step = permute_col_legs(step, (n, n, m), (0, 2, 1))  # -> (w-1, h2, w0)
    return kron_apply_right(step, dual.comult, i_m).transpose()


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


def _coact_then_act(coaction, d, left, right):
    """(left (x) right)(m_{-1} (x) x (x) m_0) on M (x) X, with X of dimension
    `d` and `left` reading H (x) X: the one body of the braiding, its inverse,
    the Yang-Baxter operator, the twist map a coaction carries and the
    biproduct antipode."""
    n, m = coaction.hom.dim, coaction.carrier_dim
    step = kron(coaction.matrix, Matrix.identity(coaction.field, d))  # (m-1, m0, x)
    step = permute_row_legs(step, (n, m, d), (0, 2, 1))  # (m-1, x, m0)
    return kron_apply(left, right, step)


def braiding_matrix(m1, m2):
    """c(m (x) n) = (beta^2(m_{-1}) |> alpha_N^-1(n)) (x) alpha_M^-1(m_0)."""
    left = kron_apply_right(m2.action.matrix, m1.hom.twist_power(2), m2.twist_inv)
    return _coact_then_act(m1.coaction, m2.dim, left, m1.twist_inv)


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
