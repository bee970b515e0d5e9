"""HA2, HC2 and compat.comult-mult compared on a generating set report what
the exhaustive composites report, witnesses included.

The expected reports are built here from the exhaustive composites: every
basis triple for HA2 (and, on the dual, HC2) and every basis pair for
compat.comult-mult. The inputs cover both outcomes of the premises, of the
search and of the reduced comparison.
"""

import contextlib
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzz_grid import assembled_biproduct, grid
from homhopf import (
    GF,
    QQ,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    Matrix,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    kron,
    structures,
    tensor_hom_algebra,
    tensor_hom_coalgebra,
    yau_twist,
)
from homhopf.catalog import CATALOG, cyclic_group_hopf, group_algebra_z2
from homhopf.fields import ExactError
from homhopf.matrices import generating_indices, kron_apply, kron_apply_right
from homhopf.report import Report, StructureError, eq_check
from homhopf.structures import _co_check, _compat_rhs, _Dual, _generators, twist_invertible_check
from homhopf.textfmt import catalog_document, parse_document, realize

FIELDS = (QQ, GF(2), GF(3), GF(7))


def _exhaustive_algebra_checks(alg, eq):
    """HA1/HA2 over every basis tuple."""
    field, n, b = alg.field, alg.dim, alg.basis
    m, u, t = alg.mult, alg.unit, alg.twist
    i_n = Matrix.identity(field, n)
    one, two = (b,), (b, b)
    return (
        twist_invertible_check(alg),
        eq("HA1.mult", t * m, kron_apply_right(m, t, t), two, one),
        eq("HA1.unit", t * u, u, None, one),
        eq("HA2.assoc", kron_apply_right(m, t, m), kron_apply_right(m, m, t), (b, b, b), one),
        eq("HA2.unit-left", kron_apply_right(m, u, i_n), t, one, one),
        eq("HA2.unit-right", kron_apply_right(m, i_n, u), t, one, one),
    )


def expected_algebra(alg):
    checks = _exhaustive_algebra_checks(alg, eq_check)
    return Report(f"Hom-algebra axioms [{alg.name or 'algebra'}]", checks)


def expected_coalgebra(coalg):
    checks = _exhaustive_algebra_checks(_Dual(coalg), _co_check)
    return Report(f"Hom-coalgebra axioms [{coalg.name or 'coalgebra'}]", checks)


def expected_bialgebra(h):
    field, b = h.field, h.basis
    m, u, d, e = h.mult, h.unit, h.comult, h.counit
    checks = (
        *expected_algebra(h.algebra).prefixed("algebra.").checks,
        *expected_coalgebra(h).prefixed("coalgebra.").checks,
        eq_check("compat.comult-mult", d * m, _compat_rhs(m, d), (b, b), (b, b)),
        eq_check("compat.comult-unit", d * u, kron(u, u), None, (b, b)),
        eq_check("compat.counit-mult", e * m, kron(e, e), (b, b), None),
        eq_check("compat.counit-unit", e * u, Matrix(field, 1, 1, {(0, 0): 1}), None, None),
    )
    return Report(f"Hom-bialgebra axioms [{h.name or 'bialgebra'}]", checks)


def assert_reports_match(structure, tag=None):
    """Every checker that applies renders as the exhaustive check does;
    returns the report of the structure's own checker."""
    if isinstance(structure, HomBialgebra):
        pairs = [
            (check_hom_bialgebra(structure), expected_bialgebra(structure)),
            (check_hom_algebra(structure.algebra), expected_algebra(structure.algebra)),
            (check_hom_coalgebra(structure), expected_coalgebra(structure)),
        ]
    elif isinstance(structure, HomAlgebra):
        pairs = [(check_hom_algebra(structure), expected_algebra(structure))]
    else:
        pairs = [(check_hom_coalgebra(structure), expected_coalgebra(structure))]
    for got, want in pairs:
        assert got.render(witnesses=True) == want.render(witnesses=True), tag
        assert got == want, tag
    return pairs[0][0]


@contextlib.contextmanager
def _searches():
    """The generator searches made inside the block, as (mult, result) pairs."""
    results = []

    def recording(*args):
        results.append((args[0], generating_indices(*args)))
        return results[-1][1]

    with mock.patch.object(structures, "generating_indices", recording):
        yield results


def _catalog_structures(field):
    for entry in CATALOG:
        for param in (None,) if entry.param is None else (1, 2, 3):
            try:
                text = catalog_document(entry.identifier, field, param and field.coerce(param))
            except (StructureError, ExactError):  # k = 0 or l = 0 in a small field, or 2 = 0
                continue
            for (kind, name), s in realize(parse_document(text)).structures.items():
                if isinstance(s, (HomAlgebra, HomCoalgebra, HomBialgebra)):
                    yield f"{entry.identifier} {param} {kind} {name}", s


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_every_catalog_structure_reports_as_the_exhaustive_check(field):
    seen = 0
    for tag, s in _catalog_structures(field):
        assert_reports_match(s, tag)
        seen += 1
    assert seen >= 8


def _involutions(n):
    return [s for s in range(1, n) if s * s % n == 1] or [0]  # s = 0 is the identity of Z_1


def _kz(field, n, s):
    base = cyclic_group_hopf(field, n)
    if s in (0, 1):
        return base
    sigma = Matrix(field, n, n, {((s * i) % n, i): 1 for i in range(n)})
    return yau_twist(base, sigma)


@pytest.mark.parametrize("field", (QQ, GF(7)), ids=str)
def test_kz_and_its_yau_twists_report_as_the_exhaustive_check(field):
    reduced = 0
    for n in range(1, 13):
        for s in _involutions(n):
            with _searches() as searches:
                assert_reports_match(_kz(field, n, s).bialgebra, (n, s))
            reduced += any(found for _, found in searches)
    assert reduced >= 20


def test_fuzz_grid_biproducts_report_as_the_exhaustive_check():
    verdicts = set()
    reduced = 0
    for tag, bundle in grid():
        h = assembled_biproduct(bundle)
        with _searches() as searches:
            verdicts.add(assert_reports_match(h, tag).passed)
        reduced += any(found for _, found in searches)
    assert verdicts == {True, False}
    assert reduced > 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_perturbed_kz_product_takes_the_reduced_path_and_falls_back(data):
    # one product e_i e_j (i, j != 0) of classical KZ_n moves to c e_k:
    # alpha = id and the unit products keep HA1 and the unit laws, and mu
    # keeps its n^2 nonzeros, so the search runs and HA2 is compared on G
    n = data.draw(st.integers(5, 12), "n")
    i, j, k = (data.draw(st.integers(lo, n - 1), name) for lo, name in ((1, "i"), (1, "j"), (0, "k")))
    c = data.draw(st.integers(1, 6), "c")
    if (c, k) == (1, (i + j) % n):
        c = 2
    field = GF(7)
    h = cyclic_group_hopf(field, n).bialgebra
    column = i * n + j
    move = {((i + j) % n, column): -1}
    move[k, column] = move.get((k, column), 0) + c
    mult = h.mult + Matrix(field, n, n * n, move)
    broken = HomBialgebra(HomAlgebra(field, mult, h.unit, basis=h.basis, check=False), h.coalgebra,
                          check=False)
    with _searches() as searches:
        report = check_hom_algebra(broken.algebra)
    assert [found is not None for _, found in searches] == [True]
    assert not report.check("HA2.assoc").passed
    assert_reports_match(broken)


# A non-associative loop of order 5, the smallest order there is: 0 is its
# identity and (1 1) 2 = 2 while 1 (1 2) = 4.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def _loop_algebra(field):
    n = len(LOOP5)
    mult = Matrix(field, n, n * n, {(LOOP5[x][y], x * n + y): 1 for x in range(n) for y in range(n)})
    return HomAlgebra(field, mult, [1, 0, 0, 0, 0], basis=("1", "a", "b", "c", "d"), check=False)


def test_loop_algebra_and_its_dual_fall_back_to_the_exhaustive_witness():
    # group-like Delta on the loop algebra, and the coalgebra whose dual is
    # the loop algebra, so HC2 meets the same failure through the dual
    field, n = GF(7), 5
    alg = _loop_algebra(field)
    comult = Matrix(field, n * n, n, {(g * n + g, g): 1 for g in range(n)})
    coalg = HomCoalgebra(field, comult, [1] * n, basis=alg.basis, check=False)
    dual = HomCoalgebra(field, alg.mult.transpose(), [1, 0, 0, 0, 0], basis=alg.basis, check=False)
    with _searches() as searches:
        assert not check_hom_algebra(alg).check("HA2.assoc").passed
        assert not check_hom_coalgebra(dual).check("HC2.coassoc").passed
    assert [found for _, found in searches] == [(1, 2)] * 2
    assert_reports_match(HomBialgebra(alg, coalg, name="loop5", check=False))
    assert_reports_match(dual)


def test_a_failure_found_only_at_a_later_generator_falls_back():
    # the first generator is 1 (x) z for a central, nuclear, group-like z,
    # and the failures sit at the second one
    field = GF(7)
    z2, kz3 = group_algebra_z2(field), cyclic_group_hopf(field, 3)
    loop_z2 = tensor_hom_algebra(_loop_algebra(field), z2.algebra, check=False)
    primitive = HomCoalgebra(field, Matrix(field, 4, 2, {(0, 0): 1, (1, 1): 1, (2, 1): 1}), [1, 0],
                             basis=z2.basis, check=False)  # Delta(a) = a (x) 1 + 1 (x) a
    h = HomBialgebra(tensor_hom_algebra(z2.algebra, kz3.algebra, check=False),
                     tensor_hom_coalgebra(primitive, kz3.coalgebra, check=False), check=False)
    with _searches() as searches:
        assert not check_hom_algebra(loop_z2).check("HA2.assoc").passed
        assert not check_hom_bialgebra(h).check("compat.comult-mult").passed
    # compat compares on the G that HA2 found for h's algebra
    assert [found for _, found in searches] == [(1, 2, 4), (1, 3)]
    with _searches() as searches:
        assert not check_hom_bialgebra(h).check("compat.comult-mult").passed
    assert searches == []
    assert_reports_match(loop_z2)
    assert_reports_match(h)


def _unsearched(h):
    """h rebuilt unchecked from the same map objects, keeping no search."""
    field, b = h.field, h.basis
    alg = HomAlgebra(field, h.mult, h.unit, h.twist, basis=b, name=h.name, check=False)
    coalg = HomCoalgebra(field, h.comult, h.counit, h.twist, basis=b, name=h.name, check=False)
    return HomBialgebra(alg, coalg, name=h.name, check=False)


def _transported(hopf, seed):
    """The same Hom-bialgebra in the basis P e_i, P upper unitriangular with
    entries above the diagonal drawn from `seed` (halves over Q), so every
    structure map is dense."""
    field, n = hopf.field, hopf.dim
    rng = random.Random(seed)
    scale = Fraction(1, 2) if field.characteristic == 0 else 1
    p = Matrix(field, n, n, {
        (r, c): 1 if r == c else field.coerce(rng.randrange(7) * scale)
        for r in range(n) for c in range(r, n)
    })
    p_inv = p.inverse()
    twist = p_inv * hopf.twist * p
    alg = HomAlgebra(field, kron_apply_right(p_inv * hopf.mult, p, p), p_inv * hopf.unit, twist,
                     check=False)
    coalg = HomCoalgebra(field, kron_apply(p_inv, p_inv, hopf.comult * p), hopf.counit * p, twist,
                         check=False)
    return HomBialgebra(alg, coalg, name="transported", check=False)


@pytest.mark.parametrize("field", (QQ, GF(7)), ids=str)
@pytest.mark.parametrize("n, s", [(4, 3), (5, 1), (7, 6)])
def test_dense_transports_search_on_both_sides(field, n, s):
    h = _transported(_kz(field, n, s).bialgebra, seed=n)
    with _searches() as searches:
        assert check_hom_bialgebra(h).passed
    # HA2, HC2 (through the dual) and compat each compare on generators,
    # found by one search of the algebra and one of the dual
    assert [mult is h.mult for mult, _ in searches] == [True, False]
    assert all(found for _, found in searches)
    with _searches() as searches:
        assert check_hom_bialgebra(h).passed
    assert searches == []
    assert_reports_match(h)
    bump = Matrix(field, n, n * n, {(n - 1, (n - 1) * n + 1): 1})
    broken = HomBialgebra(HomAlgebra(field, h.mult + bump, h.unit, h.twist, check=False),
                          h.coalgebra, check=False)
    with _searches() as searches:
        assert not check_hom_bialgebra(broken).passed
    # a new structure: its new mu is searched wherever HA1 still holds
    # (alpha = id), and its dual always
    assert [mult is broken.mult for mult, _ in searches] == [True] * (s == 1) + [False]
    assert_reports_match(broken)


def test_no_generator_search_on_the_coalgebra_side_of_kz24():
    # Delta^T has 24 nonzeros, under the 576 at which a search can pay
    h = _unsearched(cyclic_group_hopf(GF(7), 24).bialgebra)
    with _searches() as searches:
        assert check_hom_coalgebra(h).passed
    assert searches == []
    with _searches() as searches:
        assert check_hom_bialgebra(h).passed
    assert [(mult is h.mult, found) for mult, found in searches] == [(True, (1,))]


@pytest.mark.parametrize("field", (QQ, GF(7)), ids=str)
def test_a_checked_structure_is_searched_once(field):
    # the Yau twist of KZ_12 is checked as it is built: its algebra is
    # searched then (Delta^T is too sparse to search), and no later check
    # of it, its sides or the Hopf algebra holding it searches again
    with _searches() as searches:
        hopf = _kz(field, 12, 5)
    assert [mult is hopf.mult for mult, _ in searches] == [False, True]  # KZ_12, then its twist
    with _searches() as searches:
        for _ in range(3):
            assert check_hom_bialgebra(hopf.bialgebra).passed
            assert check_hom_bialgebra(hopf).passed
            assert check_hom_algebra(hopf.algebra).passed
            assert check_hom_coalgebra(hopf).passed
            assert check_hom_coalgebra(hopf.coalgebra).passed
    assert searches == []


def test_a_structure_with_new_maps_is_searched_again():
    # G is read back only for the map objects it was found for: a new mu,
    # or an equal copy of the old one, is searched afresh
    field, n = GF(7), 5
    h = _transported(_kz(field, n, 1).bialgebra, seed=n)
    assert check_hom_bialgebra(h).passed
    good = h.mult
    bump = Matrix(field, n, n * n, {(n - 1, (n - 1) * n + 1): 1})
    h.algebra.mult = h.mult = good + bump
    with _searches() as searches:
        report = assert_reports_match(h)
    assert not report.check("algebra.HA2.assoc").passed
    assert [mult is h.mult for mult, _ in searches] == [True]
    h.algebra.mult = h.mult = good + Matrix(field, n, n * n)
    with _searches() as searches:
        assert check_hom_bialgebra(h).passed
    assert [(mult is h.mult, found) for mult, found in searches] == [(True, (1,))]


def _matrices_held(value):
    if isinstance(value, Matrix):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _matrices_held(item)


def test_kept_generators_hold_only_the_structures_own_maps():
    # a co-side search runs on transposes, but keeps none of them: keeping
    # the transposed dual on every bialgebra raised the grid-sweep
    # benchmark's peak memory by a fifth
    h = _transported(_kz(GF(7), 7, 6).bialgebra, seed=7)
    parts = (h, h.algebra, h.coalgebra)
    before = [set(vars(x)) for x in parts]
    with _searches() as searches:
        assert check_hom_bialgebra(h).passed
        assert check_hom_coalgebra(h.coalgebra).passed
    assert [mult is h.mult for mult, _ in searches] == [True, False, False]
    assert [set(vars(x)) - keys for x, keys in zip(parts, before)] == [{"_gens"}] * 3
    for x in parts:
        own = [getattr(x, name) for name in ("mult", "unit", "comult", "counit", "twist") if hasattr(x, name)]
        for m in _matrices_held(tuple(vars(x).values())):
            assert any(m is mine for mine in own)


def test_generators_taken_from_many_threads_are_identical():
    # the kept G is written without a lock: a race may search twice, but
    # every thread must get what one search finds, on both sides
    h = _transported(_kz(GF(7), 7, 6).bialgebra, seed=7)
    lone = _unsearched(h)
    want = (_generators(lone.algebra), _generators(_Dual(lone)))
    assert all(want)
    copies = [_unsearched(h) for _ in range(30)]
    got = []

    def work():
        for c in copies:
            got.append((_generators(c.algebra), _generators(_Dual(c))))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * (4 * len(copies))
    assert all((c.algebra._gens[1], c._gens[1]) == want for c in copies)


def test_search_gives_up_past_half_the_dimension():
    # e0 e0 = e0 and every other product is 0, so the closure of the unit
    # and G is the span of e0 and the e_g
    field, n = GF(7), 6
    zero = Matrix(field, n, n * n, {(0, 0): 1})
    unit = Matrix.column(field, [1, 0, 0, 0, 0, 0])
    identity = Matrix.identity(field, n)
    assert generating_indices(zero, unit, (identity,), n) == (1, 2, 3, 4, 5)
    assert generating_indices(zero, unit, (identity,), 4) is None
