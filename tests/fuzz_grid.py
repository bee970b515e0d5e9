"""Deterministic GF(7) instance grid: cyclic group algebras twisted by
order-<=2 automorphisms, carrying dual-number or group-algebra carriers with
character actions and graded coactions.

Only instances whose action/coaction pass the module-Hom-algebra and
comodule-Hom-coalgebra preconditions are yielded; the grid deliberately
contains both biproduct-gate outcomes.
"""

from functools import lru_cache

from homhopf import (
    ActionMap,
    Bundle,
    CoactionMap,
    GF,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    Matrix,
    check_action_axioms,
    check_coaction_axioms,
    kron,
    yau_twist,
)
from homhopf.catalog import cyclic_group_hopf, group_algebra_z2
from homhopf.constructions import smash_comult_matrix, smash_mult_matrix
from homhopf.structures import tensor_basis

F7 = GF(7)


@lru_cache(maxsize=None)
def twisted_cyclic(n, s):
    """The Z_n group algebra twisted along g^i -> g^(s*i), s^2 = 1 mod n."""
    base = cyclic_group_hopf(F7, n)
    sigma = Matrix(F7, n, n, {((s * i) % n, i): F7.one for i in range(n)})
    return yau_twist(base, sigma, name=f"KZ{n}s{s}")


def involutions(n):
    return tuple(s for s in range(1, n) if (s * s) % n == 1)


def units():
    return tuple(range(1, 7))


def dual_number_carrier(l):
    """Nilpotent carrier over GF(7): 1z = z1 = l z, z^2 = 0, twist diag(1, l)."""
    from homhopf.catalog import dual_number_algebra, dual_number_coalgebra

    return dual_number_algebra(F7, l), dual_number_coalgebra(F7, l)


def _dual_number_maps(hom, l, chi, d):
    """Action g^i |> z = l chi^i z; coaction rho(z) = l g^d (x) z."""
    n = hom.dim
    twist = Matrix.diagonal(F7, [F7.one, l])
    p = {}
    for i in range(n):
        p[(0, i * 2 + 0)] = F7.one
        p[(1, i * 2 + 1)] = F7.mul(l, pow(chi, i, 7))
    action = ActionMap(hom, Matrix(F7, 2, 2 * n, p), twist, ("1", "z"))
    q = {(0, 0): F7.one, (d * 2 + 1, 1): l}
    coaction = CoactionMap(hom, Matrix(F7, 2 * n, 2, q), twist, ("1", "z"))
    return action, coaction


def _group_carrier_maps(hom, chi, d):
    """Classical KZ2 carrier: g^i |> b = chi^i b, rho(b) = g^d (x) b."""
    n = hom.dim
    carrier = group_algebra_z2(F7)
    twist = Matrix.identity(F7, 2)
    p = {}
    for i in range(n):
        p[(0, i * 2 + 0)] = F7.one
        p[(1, i * 2 + 1)] = F7.coerce(pow(chi, i, 7))
    action = ActionMap(hom, Matrix(F7, 2, 2 * n, p), twist, ("1", "b"))
    q = {(0, 0): F7.one, (d * 2 + 1, 1): F7.one}
    coaction = CoactionMap(hom, Matrix(F7, 2 * n, 2, q), twist, ("1", "b"))
    return carrier, action, coaction


def _valid(bundle):
    act_ok = check_action_axioms(bundle.action, "module-algebra", carrier=bundle.algebra).passed
    coact_ok = check_coaction_axioms(
        bundle.coaction, "comodule-coalgebra", carrier=bundle.coalgebra
    ).passed
    return act_ok and coact_ok


def grid_bundles():
    """Yield (tag, bundle) pairs; every bundle meets the biproduct preconditions."""
    for n in (2, 3, 4, 6):
        for s in involutions(n):
            hom = twisted_cyclic(n, s)
            for chi in units():
                for d in range(n):
                    for l in units():
                        alg, coalg = dual_number_carrier(l)
                        action, coaction = _dual_number_maps(hom, l, chi, d)
                        bundle = Bundle(
                            algebra=alg,
                            coalgebra=coalg,
                            hom=hom,
                            action=action,
                            coaction=coaction,
                        )
                        if _valid(bundle):
                            yield f"dual n={n} s={s} chi={chi} d={d} l={l}", bundle
                    carrier, action, coaction = _group_carrier_maps(hom, chi, d)
                    bundle = Bundle(
                        algebra=carrier.algebra,
                        coalgebra=carrier.coalgebra,
                        hom=hom,
                        action=action,
                        coaction=coaction,
                    )
                    if _valid(bundle):
                        yield f"group n={n} s={s} chi={chi} d={d}", bundle


@lru_cache(maxsize=1)
def grid():
    return tuple(grid_bundles())


def assembled_biproduct(bundle):
    """The biproduct Hom-bialgebra of a bundle, assembled unchecked from the
    smash product and coproduct formulas, whatever its gate says."""
    a, c, hom = bundle.algebra, bundle.coalgebra, bundle.hom
    labels = tensor_basis(a.basis, hom.basis)
    twist = kron(a.twist, hom.twist)
    alg = HomAlgebra(hom.field, smash_mult_matrix(a, hom, bundle.action), kron(a.unit, hom.unit),
                     twist, basis=labels, check=False)
    coalg = HomCoalgebra(hom.field, smash_comult_matrix(c, hom, bundle.coaction),
                         kron(c.counit, hom.counit), twist, basis=labels, check=False)
    return HomBialgebra(alg, coalg, check=False)
