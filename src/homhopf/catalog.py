"""Executable catalog: the group algebra of Z2, the twisted Taft algebra, a
twisted dual-number algebra, their biproduct bundles, and the Z2 triangular
element, together with printed reference tables for antipodes and coproducts.

The classical Taft relations are encoded from the standard table
    g^2 = 1, x^2 = 0, y = gx, gy = x, yg = -x, xg = -y, xy = yx = y^2 = 0;
a conflicting inline relation in circulating sources ("gy = -gy = x") is
resolved to this table, which is the unique one passing the classical Hopf
axiom suite (see TAFT_RELATION_NOTE and the tests).
"""

from dataclasses import dataclass
from types import SimpleNamespace

from .fields import ExactError
from .matrices import Matrix
from .report import StructureError
from .structures import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    yau_twist,
)
from .actions import ActionMap, CoactionMap
from .constructions import Bundle, biproduct_antipode, radford_biproduct
from .quasitriangular import CobraidingForm, RMatrix

__all__ = [
    "group_algebra_z2",
    "taft_hopf",
    "taft_twisted",
    "taft_bundle",
    "dual_number_algebra",
    "dual_number_coalgebra",
    "dual_number_antipode",
    "dual_number_bundle",
    "taft_biproduct",
    "dual_number_biproduct",
    "z2_r_matrix",
    "z2_cobraiding_form",
    "cyclic_group_hopf",
    "taft_twisted_comult_table",
    "taft_antipode_table",
    "dual_number_comult_table",
    "taft_biproduct_antipode_table",
    "dual_number_biproduct_antipode_table",
    "antipode_table_of",
    "comult_table_of",
    "catalog_entry",
    "TAFT_RELATION_NOTE",
    "TAFT_ACTION_VARIANTS",
    "CatalogEntry",
    "CATALOG",
]

TAFT_RELATION_NOTE = {
    "printed-relation": "gy=-gy=x",
    "status": "self-contradictory as printed",
    "resolved-table": "g2=1, x2=0, y=gx, gy=x, yg=-x, xg=-y, xy=yx=y2=0",
    "adjudicator": "classical Hopf axiom suite at twist parameter 1",
}

# The two-group action on the twisted Taft algebra is encoded verbatim from
# its source table, where both group elements act identically; a
# sign-corrected variant (the nontrivial element negating x and y) ships
# alongside it and the R1-R5 gate adjudicates.  See the tests.
TAFT_ACTION_VARIANTS = ("printed", "sign-corrected")


def _cube(field, dim, table):
    """The n x n^2 multiplication matrix of e_i e_j = sum_k table[i, j][k] e_k."""
    entries = {(k, i * dim + j): v for (i, j), targets in table.items() for k, v in targets.items()}
    return Matrix(field, dim, dim * dim, entries)


def _comult(field, dim, table):
    """The n^2 x n comultiplication matrix of Delta(e_i) = sum table[i][j, k] e_j (x) e_k."""
    entries = {(j * dim + k, i): c for i, targets in table.items() for (j, k), c in targets.items()}
    return Matrix(field, dim * dim, dim, entries)


def group_algebra_z2(field):
    """The two-element group algebra: a^2 = 1, a group-like, identity twist."""
    cube = _cube(field, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}})
    comult = _comult(field, 2, {0: {(0, 0): 1}, 1: {(1, 1): 1}})
    basis = ("1", "a")
    alg = HomAlgebra(field, cube, [1, 0], basis=basis, check=False)
    coalg = HomCoalgebra(field, comult, [1, 1], basis=basis, check=False)
    bialgebra = HomBialgebra(alg, coalg, name="KZ2", check=False)
    return HomHopf(bialgebra, Matrix.identity(field, 2), check=False)


def cyclic_group_hopf(field, order):
    """The group algebra of Z_n with group-like basis and inversion antipode."""
    n = order
    cube = _cube(field, n, {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)})
    comult = _comult(field, n, {i: {(i, i): 1} for i in range(n)})
    basis = tuple("1" if i == 0 else f"g{i}" for i in range(n))
    alg = HomAlgebra(field, cube, [1] + [0] * (n - 1), basis=basis, check=False)
    coalg = HomCoalgebra(field, comult, [1] * n, basis=basis, check=False)
    antipode = Matrix(field, n, n, {((n - i) % n, i): field.one for i in range(n)})
    return HomHopf(HomBialgebra(alg, coalg, name=f"KZ{n}"), antipode)


def taft_hopf(field):
    """The classical four-dimensional Taft algebra on basis (1, g, x, y)."""
    one, g, x, y = 0, 1, 2, 3
    table = {
        (one, one): {one: 1},
        (one, g): {g: 1},
        (one, x): {x: 1},
        (one, y): {y: 1},
        (g, one): {g: 1},
        (x, one): {x: 1},
        (y, one): {y: 1},
        (g, g): {one: 1},
        (g, x): {y: 1},
        (g, y): {x: 1},
        (x, g): {y: -1},
        (y, g): {x: -1},
    }
    comult = _comult(
        field,
        4,
        {
            one: {(one, one): 1},
            g: {(g, g): 1},
            x: {(x, g): 1, (one, x): 1},
            y: {(y, one): 1, (g, y): 1},
        },
    )
    basis = ("1", "g", "x", "y")
    alg = HomAlgebra(field, _cube(field, 4, table), [1, 0, 0, 0], basis=basis, check=False)
    coalg = HomCoalgebra(field, comult, [1, 1, 0, 0], basis=basis, check=False)
    antipode = Matrix(field, 4, 4, {(0, 0): 1, (1, 1): 1, (3, 2): 1, (2, 3): -1})
    return HomHopf(HomBialgebra(alg, coalg, name="Taft", check=False), antipode, check=False)


def taft_twisted(field, k):
    """Twist the Taft algebra along gamma = diag(1, 1, k, k), k invertible."""
    k = field.coerce(k)
    if k == field.zero:
        raise StructureError("the twisting parameter k must be nonzero")
    gamma = Matrix.diagonal(field, [field.one, field.one, k, k])
    return yau_twist(taft_hopf(field), gamma, name="H_twisted")


def taft_bundle(field, k, variant="printed"):
    """The twisted Taft algebra as a biproduct bundle over the Z2 group algebra."""
    if variant not in TAFT_ACTION_VARIANTS:
        raise ExactError(f"unknown action variant {variant!r}")
    k = field.coerce(k)
    carrier = taft_twisted(field, k)
    hom = group_algebra_z2(field)
    alpha = carrier.twist
    ab = carrier.basis
    # action columns: h (x) u |-> alpha(u), the nontrivial group element
    # negating x and y in the sign-corrected variant
    entries = {}
    for h in range(2):
        for u in range(4):
            col = h * 4 + u
            scale = alpha.entry(u, u)
            if variant == "sign-corrected" and h == 1 and u >= 2:
                scale = field.neg(scale)
            entries[(u, col)] = scale
    action = ActionMap(hom, Matrix(field, 4, 8, entries), alpha, ab, name=f"taft-action-{variant}")
    # coaction: 1 -> 1(x)1, g -> 1(x)g, x -> k a(x)x, y -> k a(x)y
    q = {(0 * 4 + 0, 0): field.one, (0 * 4 + 1, 1): field.one, (1 * 4 + 2, 2): k, (1 * 4 + 3, 3): k}
    coaction = CoactionMap(hom, Matrix(field, 8, 4, q), alpha, ab, name="taft-coaction")
    return Bundle(
        algebra=carrier.algebra,
        coalgebra=carrier.coalgebra,
        hom=hom,
        action=action,
        coaction=coaction,
        carrier_antipode=carrier.antipode,
    )


def dual_number_algebra(field, l):
    """Two-dimensional algebra on (1, z): 1z = z1 = l z, z^2 = 0, twist diag(1, l)."""
    l = field.coerce(l)
    if l == field.zero:
        raise StructureError("the twisting parameter l must be nonzero")
    cube = _cube(field, 2, {(0, 0): {0: 1}, (0, 1): {1: l}, (1, 0): {1: l}})
    twist = Matrix.diagonal(field, [field.one, l])
    return HomAlgebra(field, cube, [1, 0], twist, basis=("1", "z"), name="A", check=False)


def dual_number_coalgebra(field, l):
    """Coproduct Delta(z) = l z(x)1 + l 1(x)z, counit eps(z) = 0, twist diag(1, l)."""
    l = field.coerce(l)
    if l == field.zero:
        raise StructureError("the twisting parameter l must be nonzero")
    comult = _comult(field, 2, {0: {(0, 0): 1}, 1: {(1, 0): l, (0, 1): l}})
    twist = Matrix.diagonal(field, [field.one, l])
    return HomCoalgebra(field, comult, [1, 0], twist, basis=("1", "z"), name="A", check=False)


def dual_number_antipode(field):
    """S(1) = 1, S(z) = -z."""
    return Matrix.diagonal(field, [field.one, field.neg(field.one)])


def dual_number_bundle(field, l):
    """The twisted dual-number carrier over the Z2 group algebra:
    1 |> z = l z, a |> z = -l z, rho(z) = l a (x) z."""
    l = field.coerce(l)
    algebra = dual_number_algebra(field, l)
    coalgebra = dual_number_coalgebra(field, l)
    hom = group_algebra_z2(field)
    twist = algebra.twist
    p = {(0, 0): field.one, (1, 1): l, (0, 2): field.one, (1, 3): field.neg(l)}
    action = ActionMap(hom, Matrix(field, 2, 4, p), twist, ("1", "z"), name="dual-action")
    q = {(0, 0): field.one, (1 * 2 + 1, 1): l}
    coaction = CoactionMap(hom, Matrix(field, 4, 2, q), twist, ("1", "z"), name="dual-coaction")
    return Bundle(
        algebra=algebra,
        coalgebra=coalgebra,
        hom=hom,
        action=action,
        coaction=coaction,
        carrier_antipode=dual_number_antipode(field),
    )


def _dual_number_carrier(field, l):
    """The dual-number carrier without a (co)action, its parts named as on a
    Bundle."""
    return SimpleNamespace(
        algebra=dual_number_algebra(field, l),
        coalgebra=dual_number_coalgebra(field, l),
        carrier_antipode=dual_number_antipode(field),
    )


def _biproduct(bundle, name):
    """The biproduct Hom-Hopf algebra of a bundle, assembled past its gates."""
    bialgebra = radford_biproduct(bundle, name=name, check=False).bialgebra
    return HomHopf(bialgebra, biproduct_antipode(bundle).matrix, name=name, check=False)


def taft_biproduct(field, k):
    """The eight-dimensional biproduct Hom-Hopf algebra of the Taft bundle."""
    return _biproduct(taft_bundle(field, k), "taft-biproduct")


def dual_number_biproduct(field, l):
    """The four-dimensional biproduct Hom-Hopf algebra of the dual-number bundle."""
    return _biproduct(dual_number_bundle(field, l), "dual-biproduct")


def z2_r_matrix(field):
    """R = (1/2)(1(x)1 + 1(x)a + a(x)1 - a(x)a) on the Z2 group algebra;
    needs 2 invertible, so GF(2) is refused."""
    if field.characteristic == 2:
        raise StructureError("the Z2 triangular element needs 2 invertible; GF(2) is refused")
    hom = group_algebra_z2(field)
    half = field.inv(field.coerce(2))
    pairs = {
        (0, 0): half,
        (0, 1): half,
        (1, 0): half,
        (1, 1): field.neg(half),
    }
    return RMatrix.from_pairs(hom, pairs)


def z2_cobraiding_form(field):
    """sigma(a, a) = -1 and sigma = 1 elsewhere on the group-like basis."""
    hom = group_algebra_z2(field)
    one = field.one
    m = Matrix(field, 2, 2, {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): field.neg(one)})
    return CobraidingForm(hom, m)


# ---------------------------------------------------------------------------
# reference tables (printed ground truth, label -> {label: coefficient})

def taft_twisted_comult_table(field, k):
    k = field.coerce(k)
    return {
        "1": {("1", "1"): field.one},
        "g": {("g", "g"): field.one},
        "x": {("x", "g"): k, ("1", "x"): k},
        "y": {("y", "1"): k, ("g", "y"): k},
    }


def taft_antipode_table(field):
    one = field.one
    return {"1": {"1": one}, "g": {"g": one}, "x": {"y": one}, "y": {"x": field.neg(one)}}


def dual_number_comult_table(field, l):
    l = field.coerce(l)
    return {
        "1": {("1", "1"): field.one},
        "z": {("z", "1"): l, ("1", "z"): l},
    }


def taft_biproduct_antipode_table(field):
    one = field.one
    neg = field.neg(one)
    return {
        "1⊗1": {"1⊗1": one},
        "1⊗a": {"1⊗a": one},
        "g⊗1": {"g⊗1": one},
        "g⊗a": {"g⊗a": one},
        "x⊗1": {"y⊗a": one},
        "x⊗a": {"y⊗1": one},
        "y⊗1": {"x⊗a": neg},
        "y⊗a": {"x⊗1": neg},
    }


def dual_number_biproduct_antipode_table(field):
    one = field.one
    neg = field.neg(one)
    return {
        "1⊗1": {"1⊗1": one},
        "1⊗a": {"1⊗a": one},
        "z⊗1": {"z⊗a": one},
        "z⊗a": {"z⊗1": neg},
    }


def antipode_table_of(hopf):
    """Read a structure's antipode back as a label table for comparisons."""
    table = {}
    for j, label in enumerate(hopf.basis):
        images = {}
        for i in range(hopf.dim):
            v = hopf.antipode.entry(i, j)
            if v != hopf.field.zero:
                images[hopf.basis[i]] = v
        table[label] = images
    return table


def comult_table_of(coalgebra_like):
    """Read a coproduct back as a label table for comparisons."""
    basis = coalgebra_like.basis
    n = len(basis)
    comult = coalgebra_like.comult
    table = {}
    for j, label in enumerate(basis):
        images = {}
        for r in range(n * n):
            v = comult.entry(r, j)
            if v != coalgebra_like.field.zero:
                images[(basis[r // n], basis[r % n])] = v
        table[label] = images
    return table


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog example.  `builder(field)`, or `builder(field, param)` when
    the entry takes a parameter, builds it unchecked; `blocks` lays out its
    document, one (kind, block name, attributes, references) per block: the
    block prints the listed attributes of the built object (the object
    itself when none are listed), and names the blocks in `references` by
    its ACTING/CARRIER or ON stanzas."""

    identifier: str
    summary: str
    param: str | None
    default_param: int
    builder: object
    blocks: tuple


_CARRIER_DOCUMENT = (
    ("ALGEBRA", "A", ("algebra", "carrier_antipode"), ()),
    ("COALGEBRA", "A", ("coalgebra",), ()),
)
_BUNDLE_DOCUMENT = (
    ("HOPF", "H", ("hom",), ()),
    *_CARRIER_DOCUMENT,
    ("ACTION", "yd", ("action",), ("H", "A")),
    ("COACTION", "yd", ("coaction",), ("H", "A")),
)

CATALOG = (
    CatalogEntry("kz2", "two-element group algebra, identity twist", None, 0,
                 group_algebra_z2, (("HOPF", "kz2", (), ()),)),
    CatalogEntry("taft-twisted", "four-dimensional Taft algebra twisted by k", "k", 2,
                 taft_twisted, (("HOPF", "taft", (), ()),)),
    CatalogEntry("taft-bundle", "twisted Taft carrier with its Z2 (co)action", "k", 2,
                 taft_bundle, _BUNDLE_DOCUMENT),
    CatalogEntry("dual-number", "two-dimensional nilpotent carrier twisted by l", "l", 2,
                 _dual_number_carrier, _CARRIER_DOCUMENT),
    CatalogEntry("dual-number-bundle", "dual-number carrier with its Z2 (co)action", "l", 2,
                 dual_number_bundle, _BUNDLE_DOCUMENT),
    CatalogEntry("taft-biproduct", "eight-dimensional biproduct of the Taft bundle", "k", 2,
                 taft_biproduct, (("HOPF", "biproduct", (), ()),)),
    CatalogEntry("dual-number-biproduct", "four-dimensional biproduct of the dual-number bundle",
                 "l", 2, dual_number_biproduct, (("HOPF", "biproduct", (), ()),)),
    CatalogEntry("kz2-rmatrix", "triangular element on the Z2 group algebra", None, 0,
                 z2_r_matrix, (("HOPF", "H", ("hom",), ()), ("RMATRIX", "R", (), ("H",)))),
)


def catalog_entry(identifier):
    for entry in CATALOG:
        if entry.identifier == identifier:
            return entry
    raise KeyError(identifier)
