"""Element-wise oracles: every formula is evaluated by direct Sweedler-style
expansion over structure constants, independently of the library's
matrix-composite path.  Tests compare the two routes entry for entry.

Vectors are dicts {basis index: scalar}; tensor elements are dicts keyed by
index tuples.  Flattening happens only at the final comparison step.
"""

from itertools import product

from homhopf import Matrix, flatten_index


def acc(field, store, key, value):
    cur = store.get(key)
    new = field.add(cur, value) if cur is not None else value
    if new == field.zero:
        store.pop(key, None)
    else:
        store[key] = new


def mul_basis(alg, i, j):
    """e_i * e_j read off column i*n + j of the multiplication matrix."""
    return matrix_image(alg.field, alg.mult, i * alg.dim + j)


def delta_basis(coalg, i):
    """Delta(e_i) as {(j, k): c} read off column i of the comultiplication."""
    image = matrix_image(coalg.field, coalg.comult, i)
    return {divmod(r, coalg.dim): c for r, c in image.items()}


def matrix_image(field, mat, i):
    """Image of basis vector e_i under a matrix, as a dict."""
    out = {}
    for r in range(mat.rows):
        v = mat.entry(r, i)
        if v != field.zero:
            out[r] = v
    return out


def act_basis(act, h, j):
    """e_h |> e_j read off the action matrix columns."""
    field = act.field
    m = act.carrier_dim
    col = h * m + j
    out = {}
    for r in range(m):
        v = act.matrix.entry(r, col)
        if v != field.zero:
            out[r] = v
    return out


def coact_basis(coact, j):
    """rho(e_j) as {(h, m): c} read off the coaction matrix column."""
    field = coact.field
    m = coact.carrier_dim
    out = {}
    for r in range(coact.matrix.rows):
        v = coact.matrix.entry(r, j)
        if v != field.zero:
            out[(r // m, r % m)] = v
    return out


def oracle_matrix(field, in_dims, out_dims, fn):
    """Assemble a matrix column by column from an element-wise evaluator."""
    total_out = 1
    for d in out_dims:
        total_out *= d
    total_in = 1
    for d in in_dims:
        total_in *= d
    entries = {}
    for idx in product(*[range(d) for d in in_dims]):
        col = flatten_index(in_dims, idx)
        for out_idx, v in fn(idx).items():
            entries[(flatten_index(out_dims, out_idx), col)] = v
    return Matrix(field, total_out, total_in, entries)


# ---------------------------------------------------------------------------
# construction formulas


def smash_mult_oracle(carrier, hom, action, left, right):
    """(a (x) h)(a' (x) h') = a(h1 |> alpha^-1(a')) (x) beta^-1(h2) h'."""
    field = hom.field
    ia, ih = left
    ja, jh = right
    out = {}
    alpha_inv = matrix_image(field, carrier.twist_inv, ja)
    beta_inv_of = lambda h: matrix_image(field, hom.twist_inv, h)
    for (h1, h2), c in delta_basis(hom.coalgebra, ih).items():
        for a2, c2 in alpha_inv.items():
            for am, c3 in act_basis(action, h1, a2).items():
                for la, c4 in mul_basis(carrier, ia, am).items():
                    for hb, c5 in beta_inv_of(h2).items():
                        for lh, c6 in mul_basis(hom.algebra, hb, jh).items():
                            v = c
                            for w in (c2, c3, c4, c5, c6):
                                v = field.mul(v, w)
                            acc(field, out, (la, lh), v)
    return out


def smash_comult_oracle(carrier, hom, coaction, element):
    """Delta(c (x) h) = c1 (x) c2_{-1} beta^-1(h1) (x) alpha^-1(c2_0) (x) h2."""
    field = hom.field
    ic, ih = element
    out = {}
    for (c1, c2), w1 in delta_basis(carrier, ic).items():
        for (h1, h2), w2 in delta_basis(hom.coalgebra, ih).items():
            for (cm, c0), w3 in coact_basis(coaction, c2).items():
                for hb, w4 in matrix_image(field, hom.twist_inv, h1).items():
                    for mid, w5 in mul_basis(hom.algebra, cm, hb).items():
                        for az, w6 in matrix_image(field, carrier.twist_inv, c0).items():
                            v = w1
                            for w in (w2, w3, w4, w5, w6):
                                v = field.mul(v, w)
                            acc(field, out, (c1, mid, az, h2), v)
    return out


def hyd_lhs_oracle(action, coaction, pair):
    """h1 beta(m_{-1}) (x) (beta^3(h2) |> m0)."""
    hom = action.hom
    field = hom.field
    ih, im = pair
    beta3 = hom.twist_power(3)
    out = {}
    for (h1, h2), c in delta_basis(hom.coalgebra, ih).items():
        for (mm, m0), c2 in coact_basis(coaction, im).items():
            for bm, c3 in matrix_image(field, hom.twist, mm).items():
                for lh, c4 in mul_basis(hom.algebra, h1, bm).items():
                    for bh, c5 in matrix_image(field, beta3, h2).items():
                        for rm, c6 in act_basis(action, bh, m0).items():
                            v = c
                            for w in (c2, c3, c4, c5, c6):
                                v = field.mul(v, w)
                            acc(field, out, (lh, rm), v)
    return out


def hyd_rhs_oracle(action, coaction, pair):
    """(beta^2(h1) |> m)_{-1} h2 (x) (beta^2(h1) |> m)_0."""
    hom = action.hom
    field = hom.field
    ih, im = pair
    beta2 = hom.twist_power(2)
    out = {}
    for (h1, h2), c in delta_basis(hom.coalgebra, ih).items():
        for bh, c2 in matrix_image(field, beta2, h1).items():
            for w, c3 in act_basis(action, bh, im).items():
                for (wm, w0), c4 in coact_basis(coaction, w).items():
                    for lh, c5 in mul_basis(hom.algebra, wm, h2).items():
                        v = c
                        for x in (c2, c3, c4, c5):
                            v = field.mul(v, x)
                        acc(field, out, (lh, w0), v)
    return out


def r4_rhs_oracle(bundle, pair):
    """a1 (beta^2(a2_{-1}) |> alpha^-1(b1)) (x) alpha^-1(a2_0) b2."""
    a, c = bundle.algebra, bundle.coalgebra
    field = a.field
    ia, ib = pair
    beta2 = bundle.hom.twist_power(2)
    out = {}
    for (a1, a2), w1 in delta_basis(c, ia).items():
        for (b1, b2), w2 in delta_basis(c, ib).items():
            for (am, a0), w3 in coact_basis(bundle.coaction, a2).items():
                for bh, w4 in matrix_image(field, beta2, am).items():
                    for bz, w5 in matrix_image(field, a.twist_inv, b1).items():
                        for acted, w6 in act_basis(bundle.action, bh, bz).items():
                            for la, w7 in mul_basis(a, a1, acted).items():
                                for az, w8 in matrix_image(field, a.twist_inv, a0).items():
                                    for ra, w9 in mul_basis(a, az, b2).items():
                                        v = w1
                                        for w in (w2, w3, w4, w5, w6, w7, w8, w9):
                                            v = field.mul(v, w)
                                        acc(field, out, (la, ra), v)
    return out


def tau_oracle(m1, m2, pair):
    """tau(m (x) n) = (beta^3(m_{-1}) |> n) (x) m_0."""
    hom = m1.hom
    field = hom.field
    im, i_n = pair
    beta3 = hom.twist_power(3)
    out = {}
    for (mm, m0), c in coact_basis(m1.coaction, im).items():
        for bh, c2 in matrix_image(field, beta3, mm).items():
            for nn, c3 in act_basis(m2.action, bh, i_n).items():
                v = field.mul(field.mul(c, c2), c3)
                acc(field, out, (nn, m0), v)
    return out


def braiding_oracle(m1, m2, pair):
    """c(m (x) n) = (beta^2(m_{-1}) |> alpha_N^-1(n)) (x) alpha_M^-1(m_0)."""
    hom = m1.hom
    field = hom.field
    im, i_n = pair
    beta2 = hom.twist_power(2)
    out = {}
    for (mm, m0), c in coact_basis(m1.coaction, im).items():
        for bh, c2 in matrix_image(field, beta2, mm).items():
            for nz, c3 in matrix_image(field, m2.twist_inv, i_n).items():
                for nn, c4 in act_basis(m2.action, bh, nz).items():
                    for mz, c5 in matrix_image(field, m1.twist_inv, m0).items():
                        v = c
                        for w in (c2, c3, c4, c5):
                            v = field.mul(v, w)
                        acc(field, out, (nn, mz), v)
    return out


def biproduct_antipode_oracle(bundle, element):
    """S(a (x) h) = (S_H(a_{-1} beta^-1(h))_1 |> S_A(alpha^-2(a_0)))
    (x) beta^-1(S_H(a_{-1} beta^-1(h))_2)."""
    hom = bundle.hom
    field = hom.field
    carrier = bundle.algebra
    ia, ih = element
    s_h = hom.antipode
    s_a = bundle.carrier_antipode
    alpha_m2 = carrier.twist_power(-2)
    out = {}
    for (am, a0), c in coact_basis(bundle.coaction, ia).items():
        for hb, c2 in matrix_image(field, hom.twist_inv, ih).items():
            for w, c3 in mul_basis(hom.algebra, am, hb).items():
                for sw, c4 in matrix_image(field, s_h, w).items():
                    for (s1, s2), c5 in delta_basis(hom.coalgebra, sw).items():
                        for az, c6 in matrix_image(field, alpha_m2, a0).items():
                            for sa, c7 in matrix_image(field, s_a, az).items():
                                for la, c8 in act_basis(bundle.action, s1, sa).items():
                                    for lh, c9 in matrix_image(field, hom.twist_inv, s2).items():
                                        v = c
                                        for x in (c2, c3, c4, c5, c6, c7, c8, c9):
                                            v = field.mul(v, x)
                                        acc(field, out, (la, lh), v)
    return out


def rmatrix_pairs(rmatrix):
    field = rmatrix.hom.field
    n = rmatrix.hom.dim
    out = {}
    for i in range(n):
        for j in range(n):
            v = rmatrix.coefficient(i, j)
            if v != field.zero:
                out[(i, j)] = v
    return out


def induced_coaction_oracle(hom, rmatrix, h):
    """rho(h) = beta^-3(R2) (x) R1 h."""
    field = hom.field
    beta_m3 = hom.twist_power(-3)
    out = {}
    for (r1, r2), c in rmatrix_pairs(rmatrix).items():
        for b2, c2 in matrix_image(field, beta_m3, r2).items():
            for lh, c3 in mul_basis(hom.algebra, r1, h).items():
                acc(field, out, (b2, lh), field.mul(field.mul(c, c2), c3))
    return out


def qha_oracle(hom, rmatrix):
    """The five quasitriangular axioms by direct summation; returns verdicts."""
    field = hom.field
    n = hom.dim
    pairs = rmatrix_pairs(rmatrix)
    eps = {i: hom.counit.entry(0, i) for i in range(n)}
    unit = {i: hom.unit.entry(i, 0) for i in range(n)}

    def vec_eq(a, b):
        keys = set(a) | set(b)
        return all(a.get(k, field.zero) == b.get(k, field.zero) for k in keys)

    # QHA1
    left = {}
    right = {}
    for (r1, r2), c in pairs.items():
        acc(field, left, (r2,), field.mul(eps[r1], c))
        acc(field, right, (r1,), field.mul(c, eps[r2]))
    unit_vec = {(i,): v for i, v in unit.items() if v != field.zero}
    qha1 = vec_eq(left, unit_vec) and vec_eq(right, unit_vec)

    beta = hom.twist

    def b(i):
        return matrix_image(field, beta, i)

    # QHA2: Delta(R1) (x) beta(R2) = beta(R1) (x) beta(r1) (x) R2 r2
    lhs = {}
    for (r1, r2), c in pairs.items():
        for (x, y), c2 in delta_basis(hom.coalgebra, r1).items():
            for z, c3 in b(r2).items():
                acc(field, lhs, (x, y, z), field.mul(field.mul(c, c2), c3))
    rhs = {}
    for (r1, r2), c in pairs.items():
        for (q1, q2), c2 in pairs.items():
            for x, c3 in b(r1).items():
                for y, c4 in b(q1).items():
                    for z, c5 in mul_basis(hom.algebra, r2, q2).items():
                        v = field.mul(c, c2)
                        for w in (c3, c4, c5):
                            v = field.mul(v, w)
                        acc(field, rhs, (x, y, z), v)
    qha2 = vec_eq(lhs, rhs)

    # QHA3: beta(R1) (x) Delta(R2) = R1 r1 (x) beta(r2) (x) beta(R2)
    lhs = {}
    for (r1, r2), c in pairs.items():
        for x, c2 in b(r1).items():
            for (y, z), c3 in delta_basis(hom.coalgebra, r2).items():
                acc(field, lhs, (x, y, z), field.mul(field.mul(c, c2), c3))
    rhs = {}
    for (r1, r2), c in pairs.items():
        for (q1, q2), c2 in pairs.items():
            for x, c3 in mul_basis(hom.algebra, r1, q1).items():
                for y, c4 in b(q2).items():
                    for z, c5 in b(r2).items():
                        v = field.mul(c, c2)
                        for w in (c3, c4, c5):
                            v = field.mul(v, w)
                        acc(field, rhs, (x, y, z), v)
    qha3 = vec_eq(lhs, rhs)

    # QHA4 for every basis element h
    qha4 = True
    for h in range(n):
        lhs = {}
        rhs = {}
        for (h1, h2), c in delta_basis(hom.coalgebra, h).items():
            for (r1, r2), c2 in pairs.items():
                for x, c3 in mul_basis(hom.algebra, h2, r1).items():
                    for y, c4 in mul_basis(hom.algebra, h1, r2).items():
                        v = field.mul(c, c2)
                        v = field.mul(field.mul(v, c3), c4)
                        acc(field, lhs, (x, y), v)
                for x, c3 in mul_basis(hom.algebra, r1, h1).items():
                    for y, c4 in mul_basis(hom.algebra, r2, h2).items():
                        v = field.mul(c, c2)
                        v = field.mul(field.mul(v, c3), c4)
                        acc(field, rhs, (x, y), v)
        qha4 = qha4 and vec_eq(lhs, rhs)

    # QHA5
    lhs = {}
    for (r1, r2), c in pairs.items():
        for x, c2 in b(r1).items():
            for y, c3 in b(r2).items():
                acc(field, lhs, (x, y), field.mul(field.mul(c, c2), c3))
    qha5 = vec_eq(lhs, dict(pairs))

    return {"QHA1": qha1, "QHA2": qha2, "QHA3": qha3, "QHA4": qha4, "QHA5": qha5}
