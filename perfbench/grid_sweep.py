"""grid-sweep: the deterministic GF(7) bundle grid.

Twisted KZ_n (n in 2, 3, 4, 6, every involution s) acts on dual-number and
Z2 group-algebra carriers by characters chi and coacts by gradings d; the
candidates that meet the module Hom-algebra and comodule Hom-coalgebra
preconditions form the grid (408 bundles, 61 of which pass the R1-R5 gate).
Per bundle one operation runs the gate and, when it passes, assembles the
biproduct; a second runs the biproduct/category equivalence.  The matrices
are tiny, so per-call overhead and repeated gates dominate, not kernels.

The seed sets the order in which the bundles are swept.
"""

import random

from homhopf import actions, braided, catalog, constructions, fields, matrices, structures

import oracles
from common import Incorrect, Op
from kz_ladder import involutions

NAME = "grid-sweep"
ORDERS = (2, 3, 4, 6)
UNITS = tuple(range(1, 7))
GRID_SIZE = 408
F7 = fields.GF(7)


def _twisted_cyclic(n, s):
    base = catalog.cyclic_group_hopf(F7, n)
    sigma = matrices.Matrix(F7, n, n, {((s * i) % n, i): F7.one for i in range(n)})
    return structures.yau_twist(base, sigma, name=f"KZ{n}s{s}")


def _dual_number_bundle(hom, l, chi, d):
    """Action g^i |> z = l chi^i z; coaction rho(z) = l g^d (x) z."""
    n = hom.dim
    alg = catalog.dual_number_algebra(F7, l)
    coalg = catalog.dual_number_coalgebra(F7, l)
    twist = matrices.Matrix.diagonal(F7, [F7.one, l])
    p = {}
    for i in range(n):
        p[(0, i * 2)] = F7.one
        p[(1, i * 2 + 1)] = F7.mul(l, pow(chi, i, 7))
    action = actions.ActionMap(hom, matrices.Matrix(F7, 2, 2 * n, p), twist, ("1", "z"))
    q = {(0, 0): F7.one, (d * 2 + 1, 1): l}
    coaction = actions.CoactionMap(hom, matrices.Matrix(F7, 2 * n, 2, q), twist, ("1", "z"))
    return constructions.Bundle(
        algebra=alg, coalgebra=coalg, hom=hom, action=action, coaction=coaction
    )


def _group_carrier_bundle(hom, chi, d):
    """Classical KZ2 carrier: g^i |> b = chi^i b, rho(b) = g^d (x) b."""
    n = hom.dim
    carrier = catalog.group_algebra_z2(F7)
    twist = matrices.Matrix.identity(F7, 2)
    p = {}
    for i in range(n):
        p[(0, i * 2)] = F7.one
        p[(1, i * 2 + 1)] = F7.coerce(pow(chi, i, 7))
    action = actions.ActionMap(hom, matrices.Matrix(F7, 2, 2 * n, p), twist, ("1", "b"))
    q = {(0, 0): F7.one, (d * 2 + 1, 1): F7.one}
    coaction = actions.CoactionMap(hom, matrices.Matrix(F7, 2 * n, 2, q), twist, ("1", "b"))
    return constructions.Bundle(
        algebra=carrier.algebra,
        coalgebra=carrier.coalgebra,
        hom=hom,
        action=action,
        coaction=coaction,
    )


def _valid(bundle):
    return (
        actions.check_action_axioms(bundle.action, "module-algebra", carrier=bundle.algebra).passed
        and actions.check_coaction_axioms(
            bundle.coaction, "comodule-coalgebra", carrier=bundle.coalgebra
        ).passed
    )


def grid_bundles():
    """(tag, bundle) for every candidate that meets the biproduct preconditions."""
    out = []
    for n in ORDERS:
        for s in (1,) + involutions(n):
            hom = _twisted_cyclic(n, s)
            for chi in UNITS:
                for d in range(n):
                    for l in UNITS:
                        bundle = _dual_number_bundle(hom, l, chi, d)
                        if _valid(bundle):
                            out.append((f"dual n={n} s={s} chi={chi} d={d} l={l}", bundle))
                    bundle = _group_carrier_bundle(hom, chi, d)
                    if _valid(bundle):
                        out.append((f"group n={n} s={s} chi={chi} d={d}", bundle))
    return out


def build(seed):
    bundles = grid_bundles()
    random.Random(seed).shuffle(bundles)
    return {"bundles": bundles}


def ops(inputs):
    out = []
    for index, (tag, bundle) in enumerate(inputs["bundles"]):
        out.append(Op(f"gate {tag}", _gate_op(bundle), index))
        out.append(Op(f"equivalence {tag}", _equivalence_op(bundle), index))
    return out


def _gate_op(bundle):
    def run():
        gate = constructions.check_radford_conditions(bundle)
        made = constructions.radford_biproduct(bundle) if gate.passed else None
        return gate, made

    return run


def _equivalence_op(bundle):
    return lambda: braided.check_bosonization_equivalence(bundle)


def verify_inputs(inputs):
    """The grid has its full size.  For every bundle, assemble the smash
    product and smash coproduct unchecked and look for a pair of basis
    elements at which the coproduct is not multiplicative, element-wise."""
    bundles = inputs["bundles"]
    if len(bundles) != GRID_SIZE:
        raise Incorrect(f"the grid has {len(bundles)} bundles, not {GRID_SIZE}")
    inputs["assembled"] = [_assembled(bundle) for _, bundle in bundles]
    inputs["verdicts"] = [None] * len(bundles)


def _assembled(bundle):
    smash = constructions.smash_product(bundle.algebra, bundle.hom, bundle.action, check=False)
    cosmash = constructions.smash_coproduct(
        bundle.coalgebra, bundle.hom, bundle.coaction, check=False
    )
    pair = structures.HomBialgebra(smash.algebra, cosmash.coalgebra, check=False)
    return pair, oracles.compat_counterexample(pair)


def _assembled_verdict(inputs, index, gate_passed):
    """The assembled bialgebra's verdict.  A multiplicativity counterexample
    decides FAIL; an admitted bundle's checked biproduct construction decides
    PASS; otherwise the full Hom-bialgebra check on the assembled pair does."""
    pair, counterexample = inputs["assembled"][index]
    if counterexample is not None:
        return False
    if gate_passed:
        return True
    return structures.check_hom_bialgebra(pair).passed


def judge(inputs, op, output):
    """Gate verdict = assembled-bialgebra verdict = in-category verdict, and
    every R4/R5 witness is a real counterexample, evaluated element-wise."""
    index = op.subject
    tag, bundle = inputs["bundles"][index]
    if op.label.startswith("gate"):
        gate, made = output
        if inputs["verdicts"][index] is None:
            inputs["verdicts"][index] = _assembled_verdict(inputs, index, gate.passed)
            for name in ("R4", "R5"):
                check = gate.check(name)
                if not check.passed:
                    oracles.confirm_witness(bundle, name, check.witness)
        expected = inputs["verdicts"][index]
        if gate.passed != expected:
            raise Incorrect(f"{tag}: gate {gate.passed} but assembled bialgebra {expected}")
        if gate.passed and made.bialgebra.dim != bundle.algebra.dim * bundle.hom.dim:
            raise Incorrect(f"{tag}: biproduct has dimension {made.bialgebra.dim}")
    else:
        expected = inputs["verdicts"][index]
        verdicts = {c.name: c.passed for c in output.checks}
        if verdicts != {
            "radford-conditions": expected,
            "bialgebra-in-category": expected,
            "agreement": True,
        }:
            raise Incorrect(f"{tag}: equivalence verdicts {verdicts}, assembled {expected}")
    return False


def describe(output):
    if isinstance(output, tuple):
        gate, made = output
        text = gate.render(witnesses=True)
        if made is not None:
            b = made.bialgebra
            text += f"\nbiproduct dim {b.dim} basis {' '.join(b.basis)}"
            text += f"\nmult {sorted(_items(b.mult))}\ncomult {sorted(_items(b.comult))}"
        return text
    return output.render(witnesses=True)


def _items(m):
    return ((i, j, str(v)) for i in range(m.rows) for j, v in m.row_items(i))
