"""Element-wise evaluation of the R4 and R5 gate identities, apart from the
library's matrix composites, to confirm that a reported witness is a real
counterexample.

Vectors are dicts {basis index: scalar}; tensor elements are dicts keyed by
index tuples.  Structure constants are read entry by entry from the maps.
"""

from common import Incorrect

__all__ = ["compat_counterexample", "confirm_witness", "r4_sides", "r5_sides"]


def _column(m, j):
    zero = m.field.zero
    return {i: v for i in range(m.rows) if (v := m.entry(i, j)) != zero}


def _pairs(m, j, right_dim):
    return {(r // right_dim, r % right_dim): v for r, v in _column(m, j).items()}


def _monomial_inverse(m):
    """Inverse of a matrix with one nonzero per column and row (every twist
    in the grid is a diagonal or a permutation)."""
    field = m.field
    inverse = {}
    for j in range(m.cols):
        col = _column(m, j)
        if len(col) != 1:
            raise Incorrect("twist is not monomial; the element-wise oracle needs it")
        (i, v), = col.items()
        inverse[i] = {j: field.inv(v)}
    return lambda i: inverse[i]


def _acc(field, store, key, value):
    new = field.add(store.get(key, field.zero), value)
    if new == field.zero:
        store.pop(key, None)
    else:
        store[key] = new


def _product(field, *coefficients):
    v = field.one
    for c in coefficients:
        v = field.mul(v, c)
    return v


def r4_sides(bundle, a, b):
    """Delta(ab) and a1 (beta^2(a2_{-1}) |> alpha^-1(b1)) (x) alpha^-1(a2_0) b2."""
    alg, coalg, hom = bundle.algebra, bundle.coalgebra, bundle.hom
    field, m = alg.field, alg.dim
    alpha_inv = _monomial_inverse(alg.twist)
    beta = hom.twist
    lhs = {}
    for k, c in _column(alg.mult, a * m + b).items():
        for pair, c2 in _pairs(coalg.comult, k, m).items():
            _acc(field, lhs, pair, field.mul(c, c2))
    rhs = {}
    for (a1, a2), c1 in _pairs(coalg.comult, a, m).items():
        for (h, a0), c2 in _pairs(bundle.coaction.matrix, a2, m).items():
            for h1, c3 in _column(beta, h).items():
                for h2, c4 in _column(beta, h1).items():
                    for (b1, b2), c5 in _pairs(coalg.comult, b, m).items():
                        for y, c6 in alpha_inv(b1).items():
                            for u, c7 in _column(bundle.action.matrix, h2 * m + y).items():
                                for left, c8 in _column(alg.mult, a1 * m + u).items():
                                    for z, c9 in alpha_inv(a0).items():
                                        for right, c10 in _column(alg.mult, z * m + b2).items():
                                            _acc(field, rhs, (left, right), _product(
                                                field, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10
                                            ))
    return lhs, rhs


def r5_sides(bundle, h, x):
    """h1 beta(x_{-1}) (x) (beta^3(h2) |> x_0) and
    (beta^2(h1) |> x)_{-1} h2 (x) (beta^2(h1) |> x)_0."""
    hom, action, coaction = bundle.hom, bundle.action, bundle.coaction
    field, n, m = hom.field, hom.dim, bundle.algebra.dim
    beta = lambda i: _column(hom.twist, i)

    def beta_power(i, k):
        vec = {i: field.one}
        for _ in range(k):
            nxt = {}
            for j, c in vec.items():
                for t, c2 in beta(j).items():
                    _acc(field, nxt, t, field.mul(c, c2))
            vec = nxt
        return vec

    lhs = {}
    for (h1, h2), c1 in _pairs(hom.comult, h, n).items():
        for (xm, x0), c2 in _pairs(coaction.matrix, x, m).items():
            for bx, c3 in beta(xm).items():
                for left, c4 in _column(hom.mult, h1 * n + bx).items():
                    for b3, c5 in beta_power(h2, 3).items():
                        for right, c6 in _column(action.matrix, b3 * m + x0).items():
                            _acc(field, lhs, (left, right), _product(field, c1, c2, c3, c4, c5, c6))
    rhs = {}
    for (h1, h2), c1 in _pairs(hom.comult, h, n).items():
        for b2, c2 in beta_power(h1, 2).items():
            for w, c3 in _column(action.matrix, b2 * m + x).items():
                for (wm, w0), c4 in _pairs(coaction.matrix, w, m).items():
                    for left, c5 in _column(hom.mult, wm * n + h2).items():
                        _acc(field, rhs, (left, w0), _product(field, c1, c2, c3, c4, c5))
    return lhs, rhs


def confirm_witness(bundle, name, witness):
    """Re-evaluate a failing R4 or R5 identity at its witness, element-wise:
    both printed values must be reproduced, and they must differ."""
    try:
        where, values = witness[len("at "):].split(": ", 1)
        source, target = where.split(" -> ")
        shown_lhs, shown_rhs = values.split(" != ")
    except ValueError:
        raise Incorrect(f"{name}: unreadable witness {witness!r}") from None
    a_basis = bundle.algebra.basis
    legs = (a_basis, a_basis) if name == "R4" else (bundle.hom.basis, a_basis)
    src = _decode(legs, source, witness)
    dst = _decode(legs, target, witness)
    sides = r4_sides if name == "R4" else r5_sides
    lhs, rhs = sides(bundle, *src)
    field = bundle.hom.field
    got = (field.format(lhs.get(dst, field.zero)), field.format(rhs.get(dst, field.zero)))
    if got != (shown_lhs, shown_rhs) or got[0] == got[1]:
        raise Incorrect(f"{name} witness {witness!r} re-evaluates to {got[0]} vs {got[1]}")


def _decode(legs, text, witness):
    labels = text.split("⊗")
    if len(labels) != len(legs):
        raise Incorrect(f"witness {witness!r} names {text!r}, not a basis tuple")
    try:
        return tuple(leg.index(label) for leg, label in zip(legs, labels))
    except ValueError:
        raise Incorrect(f"witness {witness!r} names an unknown basis label") from None


def compat_counterexample(bialgebra):
    """First basis pair (x, y), in row-major order, at which
    Delta(xy) != (mu (x) mu)(x1 (x) y1 (x) x2 (x) y2), evaluated element-wise
    from the structure constants; None if multiplicativity holds everywhere."""
    field, n = bialgebra.field, bialgebra.dim
    mult = [_column(bialgebra.mult, c) for c in range(n * n)]
    comult = [_pairs(bialgebra.comult, c, n) for c in range(n)]
    for x in range(n):
        for y in range(n):
            lhs = {}
            for k, c in mult[x * n + y].items():
                for pair, c2 in comult[k].items():
                    _acc(field, lhs, pair, field.mul(c, c2))
            rhs = {}
            for (x1, x2), c1 in comult[x].items():
                for (y1, y2), c2 in comult[y].items():
                    for left, c3 in mult[x1 * n + y1].items():
                        for right, c4 in mult[x2 * n + y2].items():
                            _acc(field, rhs, (left, right), _product(field, c1, c2, c3, c4))
            if lhs != rhs:
                return x, y
    return None
