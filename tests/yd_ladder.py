"""The yd-ladder bundle: B = k[z]/(z^N) as a Hopf algebra in the
Yetter-Drinfeld category of H = KZ_N over GF(p), N | p - 1, whose biproduct
is the Taft algebra T_N(q) of dimension N^2 (Andruskiewitsch & Schneider,
"Pointed Hopf algebras", MSRI Publ. 43, 2002).

q is the least primitive N-th root of unity mod p, and with g the generator
of Z_N:

    g^a |> z^i = q^(a i) z^i,   rho(z^i) = g^i (x) z^i,
    Delta(z^m) = sum_i binom(m, i)_q z^i (x) z^(m-i),   eps(z^m) = delta_m0,
    S(z^m) = (-1)^m q^(m(m-1)/2) z^m.

A Yau rung twists the carrier along gamma = diag(lambda^i): the product
becomes gamma o mu, the coproduct Delta o gamma, the action gamma o |> and
the coaction rho o gamma. The catalog has no entry for it; it is a test
instance only.
"""

from homhopf import GF, ActionMap, Bundle, CoactionMap, HomAlgebra, HomCoalgebra, Matrix
from homhopf.catalog import cyclic_group_hopf


def least_primitive_root(n, p):
    """The least q in GF(p) of multiplicative order exactly n."""
    for q in range(2, p):
        powers = [pow(q, k, p) for k in range(1, n + 1)]
        if powers[-1] == 1 and 1 not in powers[:-1]:
            return q
    raise ValueError(f"GF({p}) has no primitive {n}-th root of unity")


def q_binomials(n, q, p):
    """rows[m][i] = binom(m, i)_q mod p for 0 <= i <= m < n, by the q-Pascal
    rule binom(m, i) = binom(m-1, i-1) + q^i binom(m-1, i)."""
    rows = [[1]]
    for m in range(1, n):
        prev = rows[-1] + [0]
        rows.append([1] + [(prev[i - 1] + pow(q, i, p) * prev[i]) % p for i in range(1, m + 1)])
    return rows


def yd_ladder_bundle(n, p, lam=1, action_entry=None):
    """The bundle over KZ_n and GF(p), with carrier twist diag(lam^i).

    `action_entry`, given as (a, i, k, c), makes g^a |> z^i = c z^k in
    place of q^(ai) z^i, for a perturbed action.
    """
    field = GF(p)
    q = least_primitive_root(n, p)
    hom = cyclic_group_hopf(field, n)
    gamma = [pow(lam, i, p) for i in range(n)]
    twist = Matrix.diagonal(field, gamma)
    basis = tuple("1" if i == 0 else f"z{i}" for i in range(n))
    mult = {(i + j, i * n + j): gamma[i + j] for i in range(n) for j in range(n - i)}
    binom = q_binomials(n, q, p)
    comult = {(i * n + m - i, m): binom[m][i] * gamma[m] for m in range(n) for i in range(m + 1)}
    algebra = HomAlgebra(field, Matrix(field, n, n * n, mult), [1] + [0] * (n - 1), twist,
                         basis=basis, name="B", check=False)
    coalgebra = HomCoalgebra(field, Matrix(field, n * n, n, comult), [1] + [0] * (n - 1), twist,
                             basis=basis, name="B", check=False)
    act = {(i, a * n + i): pow(q, a * i, p) * gamma[i] for a in range(n) for i in range(n)}
    if action_entry is not None:
        a, i, k, c = action_entry
        del act[i, a * n + i]
        act[k, a * n + i] = c * gamma[k]
    coact = {(i * n + i, i): gamma[i] for i in range(n)}
    antipode = [(-1) ** m * pow(q, m * (m - 1) // 2, p) for m in range(n)]
    return Bundle(
        algebra=algebra,
        coalgebra=coalgebra,
        hom=hom,
        action=ActionMap(hom, Matrix(field, n, n * n, act), twist, basis, name="yd-action"),
        coaction=CoactionMap(hom, Matrix(field, n * n, n, coact), twist, basis, name="yd-coaction"),
        carrier_antipode=Matrix.diagonal(field, antipode),
    )
