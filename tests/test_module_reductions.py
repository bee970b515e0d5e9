"""R5 (HYD), HM2.assoc, HMA1 and HMC1 compared on a generating set G of the
acting structure H report what the exhaustive composites report.

Every report is computed twice: with H as its checked constructor left it,
whose Hom-bialgebra axioms are a kept fact, so the module axioms may be
compared on G first; and with H's very maps rebuilt unchecked, which keeps
the exhaustive path. The inputs cover the grid, yd-ladder rungs and
perturbations whose module axioms pass, fail on G, or fail off G.
"""

import dataclasses
import random
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest

from fuzz_grid import grid
from homhopf import (
    GF,
    ActionMap,
    Bundle,
    CoactionMap,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    Matrix,
    check_action_axioms,
    check_bosonization_equivalence,
    check_coaction_axioms,
    check_radford_conditions,
    structures,
)
from homhopf.actions import hyd_lhs_matrix, hyd_rhs_matrix
from homhopf.catalog import cyclic_group_hopf, group_algebra_z2
from homhopf.report import eq_check
from homhopf.structures import _generators, _holds_bialgebra
from yd_ladder import yd_ladder_bundle

F7 = GF(7)


def unchecked(hom, mult=None, comult=None):
    """H's very map objects, with `mult` or `comult` in place of its own
    where given, assembled with check=False."""
    mult = hom.mult if mult is None else mult
    comult = hom.comult if comult is None else comult
    alg = HomAlgebra(hom.field, mult, hom.unit, hom.twist, basis=hom.basis, check=False)
    coalg = HomCoalgebra(hom.field, comult, hom.counit, hom.twist, basis=hom.basis, check=False)
    bialgebra = HomBialgebra(alg, coalg, name=hom.name, check=False)
    return HomHopf(bialgebra, hom.antipode, check=False)


def over(bundle, hom):
    """The bundle with its action and coaction acting through `hom`."""
    act, coact = bundle.action, bundle.coaction
    return dataclasses.replace(
        bundle,
        hom=hom,
        action=ActionMap(hom, act.matrix, act.carrier_twist, act.carrier_basis, act.name),
        coaction=CoactionMap(hom, coact.matrix, coact.carrier_twist, coact.carrier_basis, coact.name),
    )


def reports(bundle):
    """Every report that runs a reducible module axiom, with witnesses."""
    a, c = bundle.algebra, bundle.coalgebra
    out = [
        check_radford_conditions(bundle),
        check_bosonization_equivalence(bundle),
        check_action_axioms(bundle.action),
        check_action_axioms(bundle.action, "module-algebra", carrier=a),
        check_action_axioms(bundle.action, "module-coalgebra", carrier=c),
        check_coaction_axioms(bundle.coaction),
        check_coaction_axioms(bundle.coaction, "comodule-algebra", carrier=a),
        check_coaction_axioms(bundle.coaction, "comodule-coalgebra", carrier=c),
    ]
    return [report.render(witnesses=True) for report in out]


@contextmanager
def _searched():
    """(structure, G) for each G a check asked for: _reduced_eq asks only
    once the premises hold."""
    asked = []

    def spy(alg):
        asked.append((alg, _generators(alg)))
        return asked[-1][1]

    with mock.patch.object(structures, "_generators", spy):
        yield asked


def assert_paths_agree(bundle):
    """The reports with H checked equal those with H rebuilt unchecked, and
    only the checked H lets a check ask for G; returns whether one was
    compared on a G."""
    fresh = over(bundle, unchecked(bundle.hom))
    assert not _holds_bialgebra(fresh.hom)
    with _searched() as asked:
        exhaustive = reports(fresh)
    assert asked == []
    with _searched() as asked:
        reduced = reports(bundle)
    assert reduced == exhaustive
    return any(gens for _, gens in asked)


def test_grid_reports_agree_and_320_bundles_reduce():
    # n = 4 and 6 have a G; KZ_3 has nnz(mu) = 9 < 12 and KZ_2 no room
    bundles = [bundle for _, bundle in grid()]
    assert len(bundles) == 408
    assert all(_holds_bialgebra(bundle.hom) for bundle in bundles)
    reducing = [bool(_generators(bundle.hom)) for bundle in bundles]
    assert sum(reducing) == 320
    assert {b.hom.dim for b, g in zip(bundles, reducing) if g} == {4, 6}
    assert [assert_paths_agree(bundle) for bundle in bundles] == reducing


def _swap_bundle():
    """KZ_4 acting on k[Z_2] by g |> e_i = e_{i+1} and coacting by
    rho(e_1) = g^2 (x) e_1: R1-R4 pass, and R5 fails at g, which is in G."""
    hom = cyclic_group_hopf(F7, 4)
    carrier = group_algebra_z2(F7)
    twist = Matrix.identity(F7, 2)
    act = {((i + a) % 2, a * 2 + i): 1 for a in range(4) for i in range(2)}
    action = ActionMap(hom, Matrix(F7, 2, 8, act), twist, carrier.basis)
    coaction = CoactionMap(hom, Matrix(F7, 8, 2, {(0, 0): 1, (2 * 2 + 1, 1): 1}), twist, carrier.basis)
    return Bundle(carrier.algebra, carrier.coalgebra, hom, action, coaction)


def _ladder_cases():
    cases = {
        "N=4": yd_ladder_bundle(4, 5),
        "N=6": yd_ladder_bundle(6, 7),
        "N=6 lambda=3": yd_ladder_bundle(6, 7, lam=3),
        # an action scalar moved to another degree fails R2 and R5
        "N=4 moved": yd_ladder_bundle(4, 5, action_entry=(1, 1, 2, 2)),
        "N=6 moved": yd_ladder_bundle(6, 7, action_entry=(2, 3, 1, 1)),
        # rescaled in place: HM2.assoc fails on G = {g}
        "N=4 rescaled": yd_ladder_bundle(4, 5, action_entry=(1, 1, 1, 1)),
        "swap": _swap_bundle(),
    }
    b = yd_ladder_bundle(4, 5)
    a = b.algebra
    bumped = a.mult + Matrix(a.field, 4, 16, {(1, 1 * 4 + 2): 1})  # z z^2 = z^3 + z
    carrier = HomAlgebra(a.field, bumped, a.unit, a.twist, basis=a.basis, check=False)
    cases["N=4 carrier product"] = dataclasses.replace(b, algebra=carrier)
    return cases


@pytest.mark.parametrize("tag", list(_ladder_cases()))
def test_ladder_and_perturbed_reports_agree(tag):
    bundle = _ladder_cases()[tag]
    assert assert_paths_agree(bundle)


def test_the_mismatches_on_g_are_exercised():
    # each fails on G with its premises holding, so the exhaustive
    # comparison runs and gives the witness
    cases = _ladder_cases()
    swap = check_radford_conditions(cases["swap"])
    assert [c.passed for c in swap.checks] == [True, True, True, True, False]
    assert swap.check("R5").witness == "at g1⊗a -> g1⊗1: 0 != 1"
    rescaled = check_action_axioms(cases["N=4 rescaled"].action)
    assert [c.name for c in rescaled.failures()] == ["HM2.assoc"]


def _perturbed_grid(count, seed):
    """Grid bundles over KZ_4 and KZ_6 with one action or coaction entry
    changed."""
    rng = random.Random(seed)
    pool = [bundle for _, bundle in grid() if bundle.hom.dim >= 4]
    for bundle in rng.sample(pool, count):
        which = rng.choice(("action", "coaction"))
        piece = getattr(bundle, which)
        mat = piece.matrix
        bump = Matrix(F7, mat.rows, mat.cols, {(rng.randrange(mat.rows), rng.randrange(mat.cols)): 1})
        cls = ActionMap if which == "action" else CoactionMap
        moved = cls(bundle.hom, mat + bump, piece.carrier_twist, piece.carrier_basis)
        yield dataclasses.replace(bundle, **{which: moved})


def test_perturbed_grid_reports_agree():
    verdicts = set()
    for bundle in _perturbed_grid(40, seed=29):
        assert_paths_agree(bundle)
        verdicts.add(check_radford_conditions(bundle).passed)
    assert verdicts == {False}


def test_a_hom_built_unchecked_from_a_bumped_mu_does_not_reduce():
    # g2 g2 = g3 as well as 1: HM2.assoc fails only at h' = g2, off G = {g1};
    # an H built unchecked keeps no fact, so nothing is compared on G
    bundle = yd_ladder_bundle(4, 5)
    hom = bundle.hom
    assert _holds_bialgebra(hom) and _generators(hom) == (1,)
    bumped = unchecked(hom, mult=hom.mult + Matrix(hom.field, 4, 16, {(3, 2 * 4 + 2): 1}))
    assert not _holds_bialgebra(bumped)
    with _searched() as asked:
        broken = reports(over(bundle, bumped))
    assert asked == []
    assert "HM2.assoc  FAIL" in broken[2]


def test_only_a_checked_constructor_keeps_the_fact():
    hopf = cyclic_group_hopf(F7, 4)
    assert _holds_bialgebra(hopf) and _holds_bialgebra(hopf.bialgebra)
    assert not _holds_bialgebra(unchecked(hopf))
    assert not _holds_bialgebra(hopf.algebra)
    # a Hopf algebra keeps the fact of the bialgebra it was built from
    assert _holds_bialgebra(HomHopf(hopf.bialgebra, hopf.antipode, check=False))
    assert not _holds_bialgebra(HomHopf(unchecked(hopf).bialgebra, hopf.antipode))


def test_hyd_sides_on_a_pick_are_the_full_sides_restricted():
    bundle = yd_ladder_bundle(6, 7, lam=3)
    act, coact, n, m = bundle.action, bundle.coaction, 6, 6
    pick = Matrix(F7, n, 2, {(1, 0): 1, (4, 1): 1})
    picked = {(g * m + i, k * m + i): 1 for k, g in enumerate((1, 4)) for i in range(m)}
    restrict = Matrix(F7, n * m, 2 * m, picked)  # the columns g (x) m, g in {g1, g4}
    for side in (hyd_lhs_matrix, hyd_rhs_matrix):
        assert side(act, coact, pick) == side(act, coact) * restrict


def test_r5_composites_stay_small():
    # T_16(q) over GF(17): built one row per input pair, the two sides and
    # their comparison peak near 0.27 MB; chains through kron(Delta, rho),
    # of n^3 m rows, peaked at 1.6 MB
    bundle = yd_ladder_bundle(16, 17)
    act, coact = bundle.action, bundle.coaction
    eq_check("R5", hyd_lhs_matrix(act, coact), hyd_rhs_matrix(act, coact))  # twist powers kept
    tracemalloc.start()
    try:
        check = eq_check("R5", hyd_lhs_matrix(act, coact), hyd_rhs_matrix(act, coact))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.passed
    assert peak < 0.8e6, f"traced peak {peak / 1e6:.2f} MB"


def test_a_hom_from_a_bumped_comult_keeps_its_own_dual():
    # a coaction is checked through the dual kept on its H: an H built from
    # a bumped Delta gets its own, so the co-side sees the new Delta, and
    # the first H's dual still gives its pass
    bundle = yd_ladder_bundle(3, 7)
    hom = bundle.hom
    assert check_coaction_axioms(bundle.coaction).passed
    bumped = unchecked(hom, comult=hom.comult + Matrix(hom.field, 9, 3, {(1, 0): 1}))
    report = check_coaction_axioms(over(bundle, bumped).coaction).render(witnesses=True)
    assert "HCM2.coassoc  FAIL  [at 1 -> 1⊗g1⊗1: 0 != 1]" in report
    assert check_coaction_axioms(bundle.coaction).passed
