#!/usr/bin/env python3
"""Sweep the deterministic GF(7) grid of twisted group algebras with valid
(co)actions and tally two agreements:

  * biproduct gate R1-R5  <->  assembled smash/cosmash passes the bialgebra axioms
  * biproduct gate        <->  carrier is a bialgebra inside the YD category

Only the first is independent evidence for the theorem. The in-category
verdict is read off the same R1-R5 report as the gate (each of its checks is
a gate check renamed), so the second agreement holds by construction; the
sweep still counts it, which catches a change that breaks that reading.
Each bundle's gate is evaluated once, inside the equivalence check.
Any disagreement would be a reportable finding; the sweep prints the tallies.
"""

import sys
from pathlib import Path

root = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(root / "src"))
sys.path.insert(0, str(root / "tests"))

from collections import Counter  # noqa: E402

from fuzz_grid import grid  # noqa: E402
from homhopf import (  # noqa: E402
    HomBialgebra,
    check_bosonization_equivalence,
    check_hom_bialgebra,
    kron,
)
from homhopf.constructions import smash_comult_matrix, smash_mult_matrix  # noqa: E402
from homhopf.structures import HomAlgebra, HomCoalgebra, tensor_basis  # noqa: E402


def assembled_verdict(b):
    labels = tensor_basis(b.algebra.basis, b.hom.basis)
    alg = HomAlgebra(
        b.hom.field, smash_mult_matrix(b.algebra, b.hom, b.action),
        kron(b.algebra.unit, b.hom.unit), kron(b.algebra.twist, b.hom.twist),
        basis=labels, check=False,
    )
    coalg = HomCoalgebra(
        b.hom.field, smash_comult_matrix(b.coalgebra, b.hom, b.coaction),
        kron(b.coalgebra.counit, b.hom.counit), kron(b.algebra.twist, b.hom.twist),
        basis=labels, check=False,
    )
    return check_hom_bialgebra(HomBialgebra(alg, coalg, check=False)).passed


def main():
    instances = grid()
    tally = Counter()
    bad = []
    for tag, bundle in instances:
        verdicts = check_bosonization_equivalence(bundle)
        gate = verdicts.check("radford-conditions").passed
        if gate != assembled_verdict(bundle):
            bad.append(("gate/bialgebra", tag))
        if not verdicts.check("agreement").passed:
            bad.append(("gate/category", tag))
        tally[gate] += 1
    print(f"instances: {len(instances)}")
    print(f"gate PASS: {tally[True]}, gate FAIL: {tally[False]}")
    print(f"disagreements: {len(bad)}")
    for kind, tag in bad:
        print(f"  {kind}: {tag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
