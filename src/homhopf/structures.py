"""Hom-algebras, Hom-coalgebras, Hom-bialgebras and Hom-Hopf algebras as
exact structure constants, with basis-level axiom checkers.

All axioms are verified as matrix identities built from the structure maps;
matrix columns enumerate basis tuples, so any failure decodes to an exact
first counterexample. Hom-associativity and multiplicativity of Delta may be
compared on a generating set only; verdicts and witnesses are always those
of the exhaustive check.
"""

from .fields import ExactError, ShapeError, SingularMatrixError
from .matrices import (
    Matrix,
    generating_indices,
    kron,
    kron_apply,
    kron_apply_right,
    permute_col_legs,
    solve,
)
from .report import CheckResult, Report, StructureError, eq_check

__all__ = [
    "HomAlgebra",
    "HomCoalgebra",
    "HomBialgebra",
    "HomHopf",
    "check_hom_algebra",
    "check_hom_coalgebra",
    "check_hom_bialgebra",
    "check_antipode",
    "convolution",
    "convolution_inverse",
    "tensor_hom_algebra",
    "tensor_hom_coalgebra",
    "tensor_mult_matrix",
    "tensor_comult_matrix",
    "yau_twist",
    "default_basis",
    "tensor_basis",
]


def default_basis(n):
    return tuple(f"e{i}" for i in range(n))


def tensor_basis(left, right):
    return tuple(f"{a}⊗{b}" for a in left for b in right)


def _coerce_column(field, unit, n):
    if not isinstance(unit, Matrix):
        unit = Matrix.column(field, list(unit))
    if (unit.rows, unit.cols) != (n, 1):
        raise ShapeError("unit must be an n x 1 column")
    return unit


def _coerce_row(field, counit, n):
    if not isinstance(counit, Matrix):
        counit = Matrix.row_vector(field, list(counit))
    if (counit.rows, counit.cols) != (1, n):
        raise ShapeError("counit must be a 1 x n row")
    return counit


class _Twisted:
    """Field, dimension, named basis and twist (the identity by default) of
    one structure; the twist keeps its own powers and inverse."""

    def __init__(self, field, structure_map, dim, twist, basis, name):
        if twist is None:
            twist = Matrix.identity(field, dim)
        if twist.rows != dim or twist.cols != dim:
            raise ShapeError("twist must be n x n")
        if structure_map.field != field or twist.field != field:
            raise ExactError("all structure maps must share one field")
        self.field = field
        self.dim = dim
        self.twist = twist
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ShapeError("basis label count must equal the dimension")
        self.name = name

    def twist_power(self, k):
        return self.twist.pow(k)

    @property
    def twist_inv(self):
        return self.twist.inverse()


class HomAlgebra(_Twisted):
    """(A, mu, 1, alpha): multiplication, unit and twist over a named basis."""

    def __init__(self, field, mult, unit, twist=None, basis=None, name=None, check=True):
        if mult.cols != mult.rows * mult.rows:
            raise ShapeError("multiplication matrix must be n x n^2")
        super().__init__(field, mult, mult.rows, twist, basis, name)
        self.mult = mult
        self.unit = _coerce_column(field, unit, self.dim)
        if check:
            check_hom_algebra(self).require("Hom-algebra axioms fail")


class HomCoalgebra(_Twisted):
    """(C, Delta, eps, beta): comultiplication, counit and twist over a named basis."""

    def __init__(self, field, comult, counit, twist=None, basis=None, name=None, check=True):
        if comult.rows != comult.cols * comult.cols:
            raise ShapeError("comultiplication matrix must be n^2 x n")
        super().__init__(field, comult, comult.cols, twist, basis, name)
        self.comult = comult
        self.counit = _coerce_row(field, counit, self.dim)
        if check:
            check_hom_coalgebra(self).require("Hom-coalgebra axioms fail")


class HomBialgebra(_Twisted):
    """A Hom-algebra and Hom-coalgebra sharing dimension, basis and twist."""

    def __init__(self, algebra, coalgebra, name=None, check=True):
        if algebra.field != coalgebra.field:
            raise ExactError("algebra and coalgebra must share one field")
        if algebra.dim != coalgebra.dim:
            raise ShapeError("algebra and coalgebra dimensions differ")
        if algebra.twist != coalgebra.twist:
            raise ExactError("algebra and coalgebra must share one twist")
        if algebra.basis != coalgebra.basis:
            raise ExactError("algebra and coalgebra must share one basis")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.field, self.dim, self.basis = algebra.field, algebra.dim, algebra.basis
        self.mult, self.unit, self.twist = algebra.mult, algebra.unit, algebra.twist
        self.comult, self.counit = coalgebra.comult, coalgebra.counit
        self.name = name
        if check:
            check_hom_bialgebra(self).require("Hom-bialgebra axioms fail")


class HomHopf(HomBialgebra):
    """Hom-bialgebra with an antipode commuting with the twist."""

    def __init__(self, bialgebra, antipode, name=None, check=True):
        if antipode.rows != bialgebra.dim or antipode.cols != bialgebra.dim:
            raise ShapeError("antipode must be n x n")
        if antipode.field != bialgebra.field:
            raise ExactError("antipode must live over the structure field")
        name = name if name is not None else bialgebra.name
        super().__init__(bialgebra.algebra, bialgebra.coalgebra, name=name, check=False)
        self.bialgebra = bialgebra
        self.antipode = antipode
        if check:
            check_antipode(bialgebra, antipode).require("antipode axioms fail")


# The maps a dual transposes, under the names of the maps they become.
_SWAPPED = {"mult": "comult", "comult": "mult", "unit": "counit", "counit": "unit"}
_TRANSPOSED = (*_SWAPPED, "twist", "twist_inv", "antipode", "matrix", "carrier_twist")
_SHARED = ("field", "dim", "basis", "name", "carrier_dim", "carrier_basis")

# The name of each co-side check and coaction kind beside its algebra-side twin's.
_CO_NAMES = {
    "HA1.mult": "HC1.comult", "HA1.unit": "HC1.counit", "HA2.assoc": "HC2.coassoc",
    "HA2.unit-left": "HC2.counit-left", "HA2.unit-right": "HC2.counit-right",
    "module": "comodule",
    "module-algebra": "comodule-coalgebra", "module-coalgebra": "comodule-algebra",
    "HM1": "HCM1", "HM2.assoc": "HCM2.coassoc", "HM2.unit": "HCM2.counit",
    "HMA1": "HCMC1", "HMA2": "HCMC2", "HMC1": "HCMA1", "HMC2": "HCMA2",
    "symmetric-coproduct-action": "central-coaction-leg",
}


class _Dual:
    """A structure, action or coaction with every map transposed: mult and
    comult^T trade places, as do unit and counit^T, and a (co)action acts
    through the dual of its structure. So a co-side is its algebra-side
    twin run on duals. Each transpose is made on first use."""

    def __init__(self, of):
        self._of = of

    def __getattr__(self, attr):
        if attr in _TRANSPOSED:
            value = getattr(self._of, _SWAPPED.get(attr, attr)).transpose()
        elif attr == "hom":
            value = _acting_dual(self._of.hom)
        elif attr in _SHARED:
            value = getattr(self._of, attr)
        else:
            raise AttributeError(attr)
        setattr(self, attr, value)
        return value

    def twist_power(self, k):
        return self._of.twist_power(k).transpose()


def _acting_dual(hom):
    """The dual of an acting structure, made once and kept on it, so every
    (co)action over it reuses its transposes.
    Carriers and (co)actions get a fresh dual per call: kept on each of
    them, duals would cost more memory than their reuse saves."""
    if "_dual" not in vars(hom):
        hom._dual = _Dual(hom)
    return hom._dual


def _co_check(name, lhs_t, rhs_t, in_legs=None, out_legs=None):
    """eq_check for a co-side run as its twin on duals, given the twin's
    name and the transposed sides with their legs. A pass costs one
    comparison; a failure transposes both sides back, so the witness is the
    co-side's own first row-major mismatch, on its legs, under its name."""
    name = _CO_NAMES[name]
    if lhs_t == rhs_t:
        return CheckResult(name, True)
    return eq_check(name, lhs_t.transpose(), rhs_t.transpose(), out_legs, in_legs)


def invertible_check(name, invert, witness):
    """A check that passes when `invert()` returns and fails with `witness`
    when it meets a singular matrix."""
    try:
        invert()
        return CheckResult(name, True)
    except SingularMatrixError:
        return CheckResult(name, False, witness)


def twist_invertible_check(structure):
    singular = "twist matrix is singular"
    return invertible_check("twist.invertible", lambda: structure.twist_inv, singular)


def _generators(alg):
    """Basis indices G such that the unit and G, closed under alpha and
    under x |-> mu(g, x) for g in G, span A; or None where the search
    cannot pay. The closure is alpha^-1-stable too: an invertible map that
    keeps a subspace maps it onto itself.

    The search makes one pass over mu and n(|G| + 1) closure products, and
    exhaustive HA2 about nnz(mu)^2 / n. Below n^2 nonzeros the latter is
    under n^3, and mostly far less (n for the group-like Delta^T of KZ_n),
    so there is no search. G must also halve the compared tuples, 2|G| < n,
    which no G does for n < 3.

    Each structure is searched once: the result, a G or None, is kept beside
    the map objects it was computed from, and read back only while those
    same objects (`is`) are the maps, so a structure whose maps differ
    searches afresh. A dual keeps it on the structure it transposes, keyed
    on that structure's comult, counit and twist, so no transpose is
    stored. A bialgebra keeps its algebra side's on its algebra, whose
    maps are its own, so HA2 and compat share one search.
    """
    if isinstance(alg, _Dual):
        keeper = alg._of
        maps = (keeper.comult, keeper.counit, keeper.twist)
    else:
        keeper, maps = getattr(alg, "algebra", alg), (alg.mult, alg.unit, alg.twist)
    kept = getattr(keeper, "_gens", None)
    if kept is not None and all(a is b for a, b in zip(kept[0], maps)):
        return kept[1]
    n = alg.dim
    most = (n - 1) // 2
    gens = None
    if most and alg.mult.nnz() >= n * n:
        gens = generating_indices(alg.mult, alg.unit, (alg.twist,), most)
    keeper._gens = maps, gens
    return gens


def _picked(field, n, gens):
    """The n x |G| matrix whose k-th column is e_g for the k-th g in gens."""
    return Matrix(field, n, len(gens), {(g, k): 1 for k, g in enumerate(gens)})


def _hom_algebra_checks(alg, eq):
    """HA1/HA2 over basis tuples, compared by `eq`, with the verdicts and
    witnesses of the exhaustive comparison; HA2.assoc may compare only the
    triples x (x) g (x) z with g in a generating set G (`_generators`).

    Given HA1.mult and alpha invertible, alpha is an automorphism of
    mu' = alpha^-1 o mu, and alpha^-2 sends (x a) alpha(z) and alpha(x) (a z)
    to (x .' a) .' z and x .' (a .' z). So N = {a : (x a) alpha(z) =
    alpha(x) (a z) for all x, z} is the middle nucleus of mu': it is closed
    under mu' (Light: (x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) = x((ab)z)),
    hence under mu = alpha o mu', and alpha^{+-1}-stable. The unit laws make
    1 the unit of mu', so 1 is in N, and N = A once the unit and G close to
    A. A failed premise, or a mismatch on G, runs the exhaustive comparison.
    """
    field, n, b = alg.field, alg.dim, alg.basis
    m, u, t = alg.mult, alg.unit, alg.twist
    i_n = Matrix.identity(field, n)
    one = (b,)
    two = (b, b)
    premises = (
        twist_invertible_check(alg),
        eq("HA1.mult", t * m, kron_apply_right(m, t, t), two, one),
        eq("HA2.unit-left", kron_apply_right(m, u, i_n), t, one, one),
        eq("HA2.unit-right", kron_apply_right(m, i_n, u), t, one, one),
    )
    assoc = None
    if all(c.passed for c in premises) and (gens := _generators(alg)):
        pick = _picked(field, n, gens)
        middle_left, middle_right = kron_apply_right(m, pick, i_n), kron_apply_right(m, i_n, pick)
        assoc = eq("HA2.assoc", kron_apply_right(m, t, middle_left), kron_apply_right(m, middle_right, t))
    if assoc is None or not assoc.passed:
        assoc = eq("HA2.assoc", kron_apply_right(m, t, m), kron_apply_right(m, m, t), (b, b, b), one)
    return (*premises[:2], eq("HA1.unit", t * u, u, None, one), assoc, *premises[2:])


def check_hom_algebra(alg, title=None):
    """Verify HA1/HA2 over all basis tuples, with the verdicts and witnesses
    of the exhaustive check (see _hom_algebra_checks)."""
    checks = _hom_algebra_checks(alg, eq_check)
    return Report(title or f"Hom-algebra axioms [{alg.name or 'algebra'}]", checks)


def check_hom_coalgebra(coalg, title=None):
    """Verify HC1/HC2 as HA1/HA2 of the dual Hom-algebra, with the verdicts
    and witnesses of the exhaustive check."""
    checks = _hom_algebra_checks(_Dual(coalg), _co_check)
    return Report(title or f"Hom-coalgebra axioms [{coalg.name or 'coalgebra'}]", checks)


def tensor_mult_matrix(mult_a, dim_a, mult_b, dim_b):
    """Multiplication of the tensor product Hom-algebra: (a(x)b)(a'(x)b') = aa'(x)bb'."""
    return permute_col_legs(kron(mult_a, mult_b), (dim_a, dim_b, dim_a, dim_b), (0, 2, 1, 3))


def tensor_comult_matrix(comult_c, dim_c, comult_d, dim_d):
    """Comultiplication of the tensor product Hom-coalgebra: the transpose of
    the tensor product multiplication of the transposes."""
    return tensor_mult_matrix(comult_c.transpose(), dim_c, comult_d.transpose(), dim_d).transpose()


def _compat_rhs(m, d, first=None):
    """(m (x) m) o (flip of the middle legs) o (first (x) d) on A (x) A, where
    `first` (d by default) is Delta on the first factor's inputs.

    Built transposed, one row per input pair, so no operand has n^4 rows;
    the flip is its own transpose.
    """
    n = m.rows
    d_t, m_t = d.transpose(), m.transpose()
    first_t = d_t if first is None else first.transpose()
    middle = permute_col_legs(kron(first_t, d_t), (n, n, n, n), (0, 2, 1, 3))
    return kron_apply_right(middle, m_t, m_t).transpose()


def check_hom_bialgebra(h, title=None):
    """Algebra and coalgebra axioms plus multiplicativity of Delta and eps,
    with the verdicts and witnesses of the exhaustive check;
    compat.comult-mult may compare only the pairs g (x) y with g in the
    generating set G of the algebra (`_generators`). The algebra and the
    dual are each searched once per structure, not once per check: HA2
    and compat share the algebra's G, and a later check of the same
    structure reuses both results.

    Given the algebra axioms, HC1.comult and compat.comult-unit,
    S = {x : Delta(x y) = Delta(x) Delta(y) for all y} is an
    alpha^{+-1}-stable subalgebra holding 1. Delta(1 y) = Delta(alpha(y)) =
    (alpha (x) alpha) Delta(y) = Delta(1) Delta(y). alpha (x) alpha is
    multiplicative on A (x) A and commutes with Delta, so alpha^{+-1}(S) = S.
    For x, x' in S, HA2 gives (x x') y = alpha(x) (x' alpha^-1(y)), whose
    Delta is Delta(alpha(x)) (Delta(x') Delta(alpha^-1(y))), which HA2 on
    A (x) A turns into (Delta(x) Delta(x')) Delta(y) = Delta(x x') Delta(y).
    So S = A once the unit and G close to A. A failed premise, or a
    mismatch on G, runs the exhaustive comparison.
    """
    field, n, b = h.field, h.dim, h.basis
    m, u, d, e = h.mult, h.unit, h.comult, h.counit
    algebra = check_hom_algebra(h.algebra)
    # on h itself, whose twist is its algebra's, so both sides invert it once
    coalgebra = check_hom_coalgebra(h)
    unit = eq_check("compat.comult-unit", d * u, kron(u, u), None, (b, b))
    mult = None
    premises = algebra.passed and coalgebra.check("HC1.comult").passed and unit.passed
    if premises and (gens := _generators(h)):
        pick = _picked(field, n, gens)
        mult = eq_check("compat.comult-mult", d * kron_apply_right(m, pick, Matrix.identity(field, n)),
                        _compat_rhs(m, d, d * pick))
    if mult is None or not mult.passed:
        mult = eq_check("compat.comult-mult", d * m, _compat_rhs(m, d), (b, b), (b, b))
    one_by_one = Matrix(field, 1, 1, {(0, 0): field.one})
    checks = (
        *algebra.prefixed("algebra.").checks,
        *coalgebra.prefixed("coalgebra.").checks,
        mult,
        unit,
        eq_check("compat.counit-mult", e * m, kron(e, e), (b, b), None),
        eq_check("compat.counit-unit", e * u, one_by_one, None, None),
    )
    return Report(title or f"Hom-bialgebra axioms [{h.name or 'bialgebra'}]", checks)


def convolution(f, g, h, coalgebra=None):
    """The convolution product mu o (f (x) g) o Delta on endomaps of h, with
    Delta taken from `coalgebra` when given."""
    n = h.dim
    if (f.rows, f.cols) != (n, n) or (g.rows, g.cols) != (n, n):
        raise ShapeError("convolution expects n x n endomaps")
    return kron_apply_right(h.mult, f, g) * (coalgebra or h).comult


def _antipode_checks(prefix, algebra, coalgebra, s):
    """S*id = id*S = u o eps through the mult of `algebra` and the comult of
    `coalgebra`, and S commuting with the algebra's twist."""
    n, one, t = algebra.dim, (algebra.basis,), algebra.twist
    i_n = Matrix.identity(algebra.field, n)
    ue = algebra.unit * coalgebra.counit
    return (
        eq_check(f"{prefix}.left", convolution(s, i_n, algebra, coalgebra), ue, one, one),
        eq_check(f"{prefix}.right", convolution(i_n, s, algebra, coalgebra), ue, one, one),
        eq_check(f"{prefix}.twist", s * t, t * s, one, one),
    )


def check_antipode(h, antipode=None, title=None):
    """Convolution identities S*id = id*S = u o eps and twist commutation."""
    s = antipode if antipode is not None else h.antipode
    checks = _antipode_checks("antipode", h, h, s)
    return Report(title or f"antipode axioms [{h.name or 'hopf'}]", checks)


def convolution_inverse(algebra, coalgebra):
    """Solve for the convolution inverse of the identity, i.e. the antipode
    of the (algebra, coalgebra) pair, by exact linear algebra."""
    if algebra.dim != coalgebra.dim or algebra.field != coalgebra.field:
        raise ExactError("algebra and coalgebra must share dimension and field")
    field, n = algebra.field, algebra.dim
    m, d = algebra.mult, coalgebra.comult
    i_n = Matrix.identity(field, n)

    def vec(f):  # the coordinates of an n x n matrix, index i*n + j
        return {i * n + j: v for i in range(n) for j, v in f.row_items(i)}

    # operator f |-> mu o (f (x) id) o Delta on vec(f): column r*n + c is
    # vec of the image of the matrix unit E_rc
    units = (Matrix(field, n, n, {(r, c): field.one}) for r in range(n) for c in range(n))
    images = [vec(kron_apply_right(m, e, i_n) * d) for e in units]
    entries = {(k, col): v for col, image in enumerate(images) for k, v in image.items()}
    op = Matrix(field, n * n, n * n, entries)
    ue = algebra.unit * coalgebra.counit
    target = Matrix(field, n * n, 1, {(k, 0): v for k, v in vec(ue).items()})
    try:
        x = solve(op, target)
    except SingularMatrixError as exc:
        raise StructureError("no convolution inverse of the identity exists") from exc
    s = Matrix(field, n, n, {(i, j): x.entry(i * n + j, 0) for i in range(n) for j in range(n)})
    if kron_apply_right(m, i_n, s) * d != ue:
        raise StructureError("left convolution inverse is not a right inverse")
    return s


def _tensor_structure(cls, left, right, structure_map, name, check):
    """`cls`, HomAlgebra or HomCoalgebra, on left (x) right: tensor (co)unit, twist and basis."""
    unit = "unit" if cls is HomAlgebra else "counit"
    return cls(
        left.field,
        structure_map,
        kron(getattr(left, unit), getattr(right, unit)),
        kron(left.twist, right.twist),
        basis=tensor_basis(left.basis, right.basis),
        name=name,
        check=check,
    )


def tensor_hom_algebra(a, b, check=True):
    """Tensor product Hom-algebra with twist alpha (x) beta."""
    if a.field != b.field:
        raise ExactError("tensor product needs a common field")
    mult = tensor_mult_matrix(a.mult, a.dim, b.mult, b.dim)
    return _tensor_structure(HomAlgebra, a, b, mult, f"{a.name or 'A'}(x){b.name or 'B'}", check)


def tensor_hom_coalgebra(c, d, check=True):
    """Tensor product Hom-coalgebra with twist alpha (x) beta."""
    if c.field != d.field:
        raise ExactError("tensor product needs a common field")
    comult = tensor_comult_matrix(c.comult, c.dim, d.comult, d.dim)
    return _tensor_structure(HomCoalgebra, c, d, comult, f"{c.name or 'C'}(x){d.name or 'D'}", check)


def yau_twist(h, gamma, name=None):
    """Twist a classical Hopf algebra along a verified Hopf automorphism:
    mult becomes gamma o mu, comult becomes Delta o gamma, twist gamma."""
    field, n, b = h.field, h.dim, h.basis
    if not h.twist.is_identity():
        raise StructureError("twisting requires a classical structure (identity twist)")
    m, u, d, e = h.mult, h.unit, h.comult, h.counit
    antipode = getattr(h, "antipode", None)
    one = (b,)
    two = (b, b)
    # built unchecked on the one gamma, so the checks below invert it once
    alg = HomAlgebra(field, gamma * m, u, gamma, basis=b, check=False)
    coalg = HomCoalgebra(field, d * gamma, e, gamma, basis=b, check=False)
    checks = [
        invertible_check("automorphism.invertible", lambda: alg.twist_inv, "candidate is singular"),
        eq_check("automorphism.mult", alg.mult, kron_apply_right(m, gamma, gamma), two, one),
        eq_check("automorphism.unit", gamma * u, u, None, one),
        eq_check("automorphism.comult", coalg.comult, kron_apply(gamma, gamma, d), one, two),
        eq_check("automorphism.counit", e * gamma, e, one, None),
    ]
    if antipode is not None:
        checks.append(eq_check("automorphism.antipode", antipode * gamma, gamma * antipode, one, one))
    Report("Hopf automorphism verification", tuple(checks)).require(
        "twisting map is not a Hopf automorphism"
    )
    twisted_name = name if name is not None else (f"{h.name}_twisted" if h.name else None)
    # the bialgebra check covers the algebra and coalgebra axioms
    bial = HomBialgebra(alg, coalg, name=twisted_name)
    if antipode is None:
        return bial
    return HomHopf(bial, antipode, name=twisted_name)
