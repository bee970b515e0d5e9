import contextlib
import random
import sys
import threading
from fractions import Fraction
from itertools import islice
from math import gcd, prod
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzz_grid
from homhopf import (
    ExactError,
    FieldMismatchError,
    GF,
    Matrix,
    QQ,
    ShapeError,
    SingularMatrixError,
    first_mismatch,
    flatten_index,
    kron,
    leg_perm,
    maps_equal,
    solve,
    unflatten_index,
    yau_twist,
)
from homhopf import matrices
from homhopf.braided import check_bosonization_equivalence
from homhopf.catalog import CATALOG, cyclic_group_hopf
from homhopf.constructions import check_radford_conditions, radford_biproduct
from homhopf.matrices import (
    _relabel_tables,
    kron_apply,
    kron_apply_right,
    permute_col_legs,
    permute_row_legs,
)
from homhopf.structures import check_antipode, check_hom_bialgebra
from homhopf.textfmt import catalog_document, parse_document, realize, run_checks

F7 = GF(7)


def gf_matrix(rows, cols):
    return st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda r: Matrix.from_rows(F7, r))


def test_kron_identity():
    i2 = Matrix.identity(QQ, 2)
    assert kron(i2, i2) == Matrix.identity(QQ, 4)


def test_kron_swap_blocks():
    # hand expansion of the defining entry formula over all 16 entries
    x = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    expected = Matrix.from_rows(
        QQ,
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
    )
    assert kron(x, Matrix.identity(QQ, 2)) == expected


def test_kron_scalar_factor():
    c = Matrix.from_rows(QQ, [[Fraction(3, 2)]])
    b = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert kron(c, b) == b.scale(Fraction(3, 2))


@settings(max_examples=60)
@given(gf_matrix(2, 3), gf_matrix(2, 2), gf_matrix(3, 2), gf_matrix(2, 3))
def test_kron_mixed_product_law(a, b, c, d):
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@settings(max_examples=40)
@given(gf_matrix(2, 2), gf_matrix(2, 2), gf_matrix(3, 3))
def test_kron_bilinear(a, a2, b):
    assert kron(a + a2, b) == kron(a, b) + kron(a2, b)
    assert kron(b, a + a2) == kron(b, a) + kron(b, a2)


def test_invert_identity():
    i3 = Matrix.identity(QQ, 3)
    assert i3.inverse() == i3


def test_invert_diagonal():
    d = Matrix.diagonal(QQ, [2, 2])
    assert d.inverse() == Matrix.diagonal(QQ, [Fraction(1, 2), Fraction(1, 2)])


def test_invert_unitriangular():
    a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    inv = a.inverse()
    assert inv == Matrix.from_rows(QQ, [[1, -1], [0, 1]])
    assert a * inv == Matrix.identity(QQ, 2)
    assert inv * a == Matrix.identity(QQ, 2)


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        Matrix.from_rows(QQ, [[1, 2], [2, 4]]).inverse()


@settings(max_examples=60)
@given(gf_matrix(3, 3))
def test_invert_roundtrip_gf7(a):
    try:
        inv = a.inverse()
    except SingularMatrixError:
        return
    i3 = Matrix.identity(F7, 3)
    assert a * inv == i3
    assert inv * a == i3


def test_maps_equal_witness():
    i2 = Matrix.identity(QQ, 2)
    assert maps_equal(i2, i2)
    other = Matrix.diagonal(QQ, [1, -1])
    mm = first_mismatch(i2, other)
    assert not maps_equal(i2, other)
    assert (mm.row, mm.col) == (1, 1)
    assert (mm.lhs, mm.rhs) == (1, -1)


def test_maps_equal_shape_and_field_errors():
    with pytest.raises(ShapeError):
        first_mismatch(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))
    with pytest.raises(FieldMismatchError):
        first_mismatch(Matrix.identity(QQ, 2), Matrix.identity(F7, 2))
    with pytest.raises(FieldMismatchError):
        Matrix.identity(QQ, 2) * Matrix.identity(F7, 2)
    with pytest.raises(ShapeError):
        Matrix.identity(QQ, 2) * Matrix.identity(QQ, 3)


def test_flatten_roundtrip():
    dims = (2, 3, 4)
    for flat in range(24):
        assert flatten_index(dims, unflatten_index(dims, flat)) == flat
    assert flatten_index((2, 4), (1, 1)) == 5  # left factor most significant


def test_leg_perm_inverse_and_swap():
    dims = (2, 3, 2)
    p = leg_perm(QQ, dims, (2, 0, 1))
    q = leg_perm(QQ, (2, 2, 3), (1, 2, 0))
    assert q * p == Matrix.identity(QQ, 12)
    s = leg_perm(QQ, (2, 3), (1, 0))
    assert leg_perm(QQ, (3, 2), (1, 0)) * s == Matrix.identity(QQ, 6)


def test_leg_perm_moves_basis_vectors():
    p = leg_perm(QQ, (2, 3), (1, 0))
    for i in range(2):
        for j in range(3):
            col = flatten_index((2, 3), (i, j))
            row = flatten_index((3, 2), (j, i))
            assert p.entry(row, col) == 1


def test_solve_against_product():
    a = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    x = Matrix.from_rows(QQ, [[1, 0], [3, 5]])
    b = a * x
    assert solve(a, b) == x


@settings(max_examples=40)
@given(gf_matrix(4, 3), gf_matrix(2, 2), gf_matrix(6, 5))
def test_kron_apply_matches_materialized(a, b, y):
    assert kron_apply(a, b, y) == kron(a, b) * y


@settings(max_examples=40)
@given(gf_matrix(5, 6), gf_matrix(3, 4), gf_matrix(2, 2))
def test_kron_apply_right_matches_materialized(y, a, b):
    assert kron_apply_right(y, a, b) == y * kron(a, b)


def _scalars(field):
    if field == QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(min_value=0, max_value=6)


@st.composite
def leg_case(draw, side):
    """A field, 1-6 leg dims of 1-4 (1-dim legs included; at most 256
    indices, so the explicit permutation matrix stays small), a permutation
    of the legs (the identity included) and a sparse matrix whose rows or
    columns span the legs.  Six legs let the relabel tables split at every
    leg boundary."""
    field = draw(st.sampled_from((F7, QQ)))
    dims = tuple(
        draw(st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(lambda d: prod(d) <= 256))
    )
    legs = list(range(len(dims)))
    perm = tuple(draw(st.one_of(st.just(legs), st.permutations(legs))))
    total = prod(dims)
    other = draw(st.integers(min_value=1, max_value=3))
    rows, cols = (total, other) if side == "rows" else (other, total)
    cells = st.tuples(
        st.integers(min_value=0, max_value=rows - 1), st.integers(min_value=0, max_value=cols - 1)
    )
    entries = draw(st.dictionaries(cells, _scalars(field), max_size=2 * total))
    return field, dims, perm, Matrix(field, rows, cols, entries)


@settings(max_examples=100)
@given(leg_case("rows"))
def test_permute_row_legs_matches_permutation_matrix(case):
    field, dims, perm, x = case
    assert permute_row_legs(x, dims, perm) == leg_perm(field, dims, perm) * x


@settings(max_examples=100)
@given(leg_case("cols"))
def test_permute_col_legs_matches_permutation_matrix(case):
    field, dims, perm, y = case
    assert permute_col_legs(y, dims, perm) == y * leg_perm(field, dims, perm)


def test_permute_legs_reject_bad_arguments():
    x = Matrix.identity(QQ, 6)
    with pytest.raises(ExactError):
        permute_row_legs(x, (2, 3), (0, 0))
    with pytest.raises(ExactError):
        permute_col_legs(x, (2, 3), (1,))
    with pytest.raises(ShapeError):
        permute_row_legs(x, (2, 2), (1, 0))
    with pytest.raises(ShapeError):
        permute_col_legs(x, (3, 3), (1, 0))


def test_relabel_tables_hold_two_square_roots_of_the_legs():
    # a full table of the compat permutation at KZ_24 would hold 331,776 indices
    for cols in (False, True):
        size, high, low = _relabel_tables((24, 24, 24, 24), (0, 2, 1, 3), cols)
        assert len(high) + len(low) <= 2 * 576
        assert size == len(low)


@pytest.mark.parametrize("field", (F7, QQ), ids=str)
def test_kron_apply_right_with_either_factor_row_longer(field):
    long_row = Matrix.from_rows(field, [[1, 2, -1, 3], [0, 0, 1, 0]])
    short_row = Matrix.from_rows(field, [[0, 5, 0], [2, 0, 0], [0, 0, 0]])
    y = Matrix.from_rows(field, [[1, -1, 0, 2, 1, 3], [0, 2, 1, 0, 0, -3]])
    for a, b in ((long_row, short_row), (short_row, long_row)):
        got = kron_apply_right(y, a, b)
        dense = _dense_product(field, y.dense(), _dense_kron(field, a.dense(), b.dense()))
        assert got.dense() == dense
        assert got == y * kron(a, b)


def test_twist_cache_powers():
    # a matrix keeps its powers and inverse, so each is computed once
    t = Matrix.diagonal(QQ, [1, 2])
    assert t.pow(3) == Matrix.diagonal(QQ, [1, 8])
    assert t.pow(-2) == Matrix.diagonal(QQ, [1, Fraction(1, 4)])
    assert t.pow(0) == Matrix.identity(QQ, 2)
    assert t.pow(1) is t
    assert t.inverse() * t == Matrix.identity(QQ, 2)
    assert t.pow(3) is t.pow(3) and t.pow(-2) is t.pow(-2)
    assert t.pow(-1) is t.pow(-1) is t.inverse()


def test_twist_cache_inverse_takes_no_product():
    t = Matrix.diagonal(QQ, [1, 2])
    products, mul = [], Matrix.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    with mock.patch.object(Matrix, "__mul__", counted):
        inverse = t.pow(-1)
    assert products == []
    assert inverse == Matrix.diagonal(QQ, [1, Fraction(1, 2)])
    assert t.inverse() is inverse


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_a_singular_matrix_raises_on_every_request_and_keeps_nothing(field):
    m = Matrix.from_rows(field, [[1, 2, 0], [2, 4, 0], [0, 0, 3]])
    square = m.pow(2)
    requests = (m.inverse, m.inverse, lambda: m.pow(-1), lambda: m.pow(-3))
    with mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve:
        for request in requests:
            with pytest.raises(SingularMatrixError, match="^matrix is singular at column 1$"):
                request()
    assert solve.call_count == len(requests)
    assert m._powers == {2: square}
    fresh = Matrix.from_rows(field, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        fresh.inverse()
    assert not hasattr(fresh, "_powers")


def test_inverts_beyond_the_monomial_shortcut():
    # a matrix the factor probe cannot settle is inverted and keeps its
    # inverse; a singular or non-square one keeps nothing
    m = Matrix.from_rows(F7, [[1, 1], [0, 1]])
    with mock.patch.object(matrices, "solve", wraps=matrices.solve) as solve:
        assert m.inverts()
        inverse = m.inverse()
    assert solve.call_count == 1
    assert inverse == Matrix.from_rows(F7, [[1, 6], [0, 1]])
    for rows in ([[1, 1], [1, 1]], [[1, 0], [1, 0]]):
        singular = Matrix.from_rows(F7, rows)
        assert not singular.inverts()
        assert not hasattr(singular, "_powers")
    assert not Matrix.from_rows(F7, [[1, 0, 0], [0, 1, 0]]).inverts()


def test_kept_powers_hold_no_reference_to_their_matrix():
    # a twist is still freed by reference counting once its holders are gone
    m = Matrix.from_rows(QQ, [[1, 1], [0, 2]])
    before = sys.getrefcount(m)
    for k in (-3, -1, 0, 1, 2, 3):
        m.pow(k)
    m.inverse()
    assert sys.getrefcount(m) == before
    assert all(power is not m for power in m._powers.values())


def _race(work):
    """Run work(seed) for seeds 0-3, one thread each, switching threads as
    often as the interpreter allows, and return once all have finished."""
    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
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


def test_powers_taken_from_many_threads_are_exact():
    # the kept powers are written without a lock: a race may compute a power
    # twice, but every request and every kept power must stay exact
    rows = [[1, 1, 0], [0, 2, 0], [0, 0, 3]]
    t, ref = Matrix.from_rows(QQ, rows), Matrix.from_rows(QQ, rows)
    expected, up, down = {}, Matrix.identity(QQ, 3), Matrix.identity(QQ, 3)
    for k in range(1, 7):
        up, down = up * ref, down * solve(ref, Matrix.identity(QQ, 3))
        expected[k], expected[-k] = up, down
    wrong = []

    def work(seed):
        for k in random.Random(seed).choices(sorted(expected), k=300):
            if t.pow(k) != expected[k]:
                wrong.append(k)

    _race(work)
    assert wrong == []
    assert all(power == expected[k] for k, power in t._powers.items())


def test_kept_probe_holds_no_reference_to_its_matrix():
    # like its powers, a factor's probe leaves it to reference counting
    m = Matrix.from_rows(QQ, [[0, Fraction(1, 2)], [3, 0]])
    general = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    before = sys.getrefcount(m)
    for a, b in ((m, general), (general, m), (m, m)):
        kron_apply_right(Matrix.from_rows(QQ, [[1, 2, 3, 4]]), a, b)
    del a, b
    assert sys.getrefcount(m) == before
    assert m._probe == ((1, 1), (0, 6))  # numerators over den 2
    assert all(type(x) is int for entry in m._probe for x in entry)
    assert general._probe is None


def test_probes_taken_from_many_threads_are_equal():
    # the kept probe is written without a lock: a race may compute it twice,
    # but both tables are equal, and every product stays exact
    rows = {
        "twist": [[0, 3, 0], [0, 0, 1], [2, 0, 0]],
        "unit": [[1], [0], [0]],
        "general": [[1, 2, 0], [0, 1, 1], [0, 0, 1]],
    }
    held = {k: Matrix.from_rows(F7, r) for k, r in rows.items()}
    ref = {k: Matrix.from_rows(F7, r) for k, r in rows.items()}
    pairs = [(a, b) for a in rows for b in rows]
    ys = {(a, b): _probe(F7, 2, ref[a].rows * ref[b].rows) for a, b in pairs}
    expected = {(a, b): ys[a, b] * kron(ref[a], ref[b]) for a, b in pairs}
    wrong = []

    def work(seed):
        for a, b in random.Random(seed).choices(pairs, k=300):
            if kron_apply_right(ys[a, b], held[a], held[b]) != expected[a, b]:
                wrong.append((a, b))

    _race(work)
    assert wrong == []
    assert all(held[k]._probe == matrices._monomial(ref[k]) for k in rows)


@pytest.mark.parametrize("field", (QQ, F7), ids=str)
def test_a_factor_on_either_side_gives_the_materialized_product(field):
    # the probe keeps no stride, so one table serves the left factor, whose
    # columns are scaled by the right factor's width, and the right one
    s = Fraction(-1, 2) if field == QQ else 3
    twist = Matrix.from_rows(field, [[0, s, 0], [0, 0, 1], [2, 0, 0]])
    other = Matrix.from_rows(field, [[1, 0], [0, s]])
    assert twist.den == (2 if field == QQ else 1)
    for a, b in ((twist, other), (other, twist), (twist, twist), (other, other)):
        y = _probe(field, 3, a.rows * b.rows)
        assert kron_apply_right(y, a, b) == y * kron(a, b)
    assert twist._probe == matrices._monomial(twist) is not None


def test_a_held_factor_is_probed_once_across_many_calls():
    # the cached identity is shared by the whole process, so it is probed
    # here only if no earlier test of the process has probed it
    twist, unit = Matrix.diagonal(F7, [1, 3, 5]), Matrix.column(F7, [1, 0])
    general, i_2 = Matrix.from_rows(F7, [[1, 2], [0, 1]]), Matrix.identity(F7, 2)
    identity_probes = 0 if hasattr(i_2, "_probe") else 1
    with mock.patch.object(matrices, "_monomial", wraps=matrices._monomial) as probe:
        for k in range(5):
            for a, b in ((twist, unit), (unit, twist), (twist, general), (i_2, twist), (twist, i_2)):
                y = _probe(F7, k + 1, a.rows * b.rows)
                assert kron_apply_right(y, a, b) == y * kron(a, b)
    probed = [call.args[0] for call in probe.call_args_list]
    assert [sum(m is x for x in probed) for m in (twist, unit, general)] == [1, 1, 1]
    assert sum(i_2 is x for x in probed) == identity_probes
    assert len(probed) == 3 + identity_probes


def test_matrix_pow_negative():
    t = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert t.pow(-3) == t
    assert t.pow(2) == Matrix.identity(QQ, 2)


# Dense element-wise references for the sparse kernels, over small and large
# characteristic and over Q.  Entries are drawn from values that cancel
# (x and -x, 2 and -2 = p - 2, ...), so sums of products often vanish.
KERNEL_FIELDS = (GF(2), F7, GF(65537), QQ)


def _cancelling_matrix(field, rows, cols):
    values = [0, 0, 1, -1, 2, -2]
    if field == QQ:
        values += [Fraction(1, 2), Fraction(-1, 2)]
    return st.lists(
        st.lists(st.sampled_from(values).map(field.coerce), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda r: Matrix.from_rows(field, r))


def _dense_product(field, a, b):
    """a * b on lists of rows, one scalar operation at a time."""
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0])):
            acc = field.zero
            for k, x in enumerate(arow):
                acc = field.add(acc, field.mul(x, b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _dense_kron(field, a, b):
    return [
        [field.mul(x, y) for x in arow for y in brow]
        for arow in a
        for brow in b
    ]


def _assert_kernel_result(m, dense):
    """Entry-for-entry equal to the reference, stored without zeros, and
    over GF(p) every stored value an integer in range(p)."""
    assert m.dense() == dense
    field = m.field
    for i in range(m.rows):
        for _, v in m.row_items(i):
            assert v != field.zero
            if field.characteristic:
                assert type(v) is int and v in range(field.characteristic)
            else:
                assert type(v) is Fraction


@st.composite
def kernel_operands(draw, shapes):
    """A field and one matrix per (rows, cols) pair; a shape entry names a
    dimension letter, so operands that must compose share it."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    size = {}
    for name in "".join(shapes):
        size.setdefault(name, draw(st.integers(min_value=1, max_value=4)))
    mats = [draw(_cancelling_matrix(field, size[r], size[c])) for r, c in shapes]
    return field, mats


@settings(max_examples=120)
@given(kernel_operands(("ik", "kj")))
def test_product_matches_dense_reference(case):
    field, (a, b) = case
    _assert_kernel_result(a * b, _dense_product(field, a.dense(), b.dense()))


@settings(max_examples=120)
@given(kernel_operands(("ij", "kl")))
def test_kron_matches_dense_reference(case):
    field, (a, b) = case
    _assert_kernel_result(a.kron(b), _dense_kron(field, a.dense(), b.dense()))


@settings(max_examples=120)
@given(kernel_operands(("ab", "cd")), st.integers(min_value=1, max_value=4), st.data())
def test_kron_apply_right_matches_dense_reference(case, rows, data):
    field, (a, b) = case
    y = data.draw(_cancelling_matrix(field, rows, a.rows * b.rows))
    dense = _dense_product(field, y.dense(), _dense_kron(field, a.dense(), b.dense()))
    _assert_kernel_result(kron_apply_right(y, a, b), dense)


@settings(max_examples=120)
@given(kernel_operands(("ab", "cd")), st.integers(min_value=1, max_value=4), st.data())
def test_kron_apply_matches_dense_reference(case, cols, data):
    field, (a, b) = case
    y = data.draw(_cancelling_matrix(field, a.cols * b.cols, cols))
    dense = _dense_product(field, _dense_kron(field, a.dense(), b.dense()), y.dense())
    _assert_kernel_result(kron_apply(a, b, y), dense)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_kron_kernels_skip_empty_rows(field):
    # row 1 of a, row 0 of b and row 2 of y are empty
    a = Matrix.from_rows(field, [[1, -1], [0, 0], [2, 1]])
    b = Matrix.from_rows(field, [[0, 0, 0], [1, 2, -1]])
    y = Matrix.from_rows(field, [[1, 1]] * 2 + [[0, 0]] + [[-1, 2]] * 3)
    dense_ab = _dense_kron(field, a.dense(), b.dense())
    _assert_kernel_result(kron_apply(a, b, y), _dense_product(field, dense_ab, y.dense()))
    z = Matrix.from_rows(field, [[0] * 6, [1, 0, 2, 0, 0, -1]])
    _assert_kernel_result(kron_apply_right(z, a, b), _dense_product(field, z.dense(), dense_ab))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_products_that_cancel_store_no_zeros(field):
    row = Matrix.from_rows(field, [[1, 1]])
    col = Matrix.from_rows(field, [[1], [-1]])
    assert (row * col).row_items(0) == []
    assert kron_apply_right(row, col, Matrix.identity(field, 1)).row_items(0) == []
    assert kron_apply(row, Matrix.identity(field, 1), col).row_items(0) == []
    top = field.characteristic - 1 if field.characteristic else Fraction(-1, 3)
    square = Matrix.from_rows(field, [[top]]) * Matrix.from_rows(field, [[top]])
    _assert_kernel_result(square, [[field.mul(top, top)]])


# The stored form: integer numerators over one denominator `den`, canonical
# (den >= 1, gcd(den, every numerator) == 1, no stored zero, den == 1 over
# GF(p)).  Every kernel is checked over Q against element-wise Fraction
# arithmetic on scalars with non-unit and mixed denominators, values that
# cancel against each other, and numerators and denominators past 2**64.
BIG = 2**64 + 13
RATIONALS = (
    0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3),
    Fraction(5, 6), Fraction(-5, 6), BIG, -BIG, Fraction(BIG, 3), Fraction(-BIG, 3),
    Fraction(1, BIG), Fraction(-1, BIG),
)
RESIDUES = (0, 0, 1, -1, 2, -2, BIG)
EXACT_FIELDS = (QQ, QQ, QQ, F7, GF(2))


def _assert_canonical(m):
    values = [v for row in m._rowdicts for v in row.values()]
    assert type(m.den) is int and m.den >= 1
    assert all(type(v) is int and v for v in values)
    assert gcd(m.den, *values) == 1
    p = m.field.characteristic
    if p:
        assert m.den == 1 and all(0 < v < p for v in values)


def _assert_exact(m, dense):
    """The reference entry for entry, with Fraction values over Q, and the
    very matrix the constructor builds from the reference."""
    _assert_canonical(m)
    got = m.dense()
    assert got == dense
    kind = int if m.field.characteristic else Fraction
    assert all(type(v) is kind for row in got for v in row)
    assert m == Matrix.from_rows(m.field, dense)


def _exact_matrix(field, rows, cols):
    values = RESIDUES if field.characteristic else RATIONALS
    return st.lists(
        st.lists(st.sampled_from(values).map(field.coerce), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda r: Matrix.from_rows(field, r))


@st.composite
def exact_operands(draw, shapes):
    field = draw(st.sampled_from(EXACT_FIELDS))
    size = {}
    for name in "".join(shapes):
        size.setdefault(name, draw(st.integers(min_value=1, max_value=3)))
    return field, [draw(_exact_matrix(field, size[r], size[c])) for r, c in shapes]


def _dense_solve(field, a, b):
    """Gauss-Jordan on [a | b] one scalar operation at a time, taking the
    first nonzero pivot at or below the diagonal; the singular column, or X."""
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != field.zero), None)
        if pivot is None:
            return col
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = field.inv(rows[col][col])
        rows[col] = [field.mul(inv, v) for v in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != field.zero:
                rows[r] = [field.sub(v, field.mul(f, w)) for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


@pytest.mark.parametrize(
    "field, values",
    [
        (QQ, [Fraction(1, 2), 0, 3, Fraction(-2, 3), Fraction(5, 6), 0, -4]),
        (QQ, [0, 0, 0]),
        (QQ, [2, -6, 4]),
        (F7, [-1, 0, 7, 9, -8, 13, 3]),
        (GF(2), [3, -2, 0, -1]),
    ],
    ids=["Q-mixed", "Q-zeros", "Q-ints", "GF7", "GF2"],
)
def test_vector_and_diagonal_constructors_match_the_entry_constructor(field, values):
    n = len(values)
    built = (
        (Matrix.diagonal(field, values), Matrix(field, n, n, {(i, i): v for i, v in enumerate(values)})),
        (Matrix.column(field, values), Matrix(field, n, 1, {(i, 0): v for i, v in enumerate(values)})),
        (Matrix.row_vector(field, values), Matrix(field, 1, n, {(0, j): v for j, v in enumerate(values)})),
    )
    for got, expected in built:
        _assert_canonical(got)
        assert got == expected
    coerced = [field.coerce(v) for v in values]
    diagonal, column, row = (got for got, _ in built)
    assert [diagonal.entry(i, i) for i in range(n)] == coerced
    assert [column.entry(i, 0) for i in range(n)] == coerced
    assert [row.entry(0, j) for j in range(n)] == coerced


@settings(max_examples=100)
@given(exact_operands(("ik", "kj")))
def test_exact_product(case):
    field, (a, b) = case
    _assert_exact(a * b, _dense_product(field, a.dense(), b.dense()))


@settings(max_examples=100)
@given(exact_operands(("ij", "kl")))
def test_exact_kron(case):
    field, (a, b) = case
    _assert_exact(a.kron(b), _dense_kron(field, a.dense(), b.dense()))


@settings(max_examples=100)
@given(exact_operands(("ab", "cd")), st.integers(min_value=1, max_value=3), st.data())
def test_exact_kron_apply(case, cols, data):
    field, (a, b) = case
    y = data.draw(_exact_matrix(field, a.cols * b.cols, cols))
    dense = _dense_product(field, _dense_kron(field, a.dense(), b.dense()), y.dense())
    _assert_exact(kron_apply(a, b, y), dense)


@settings(max_examples=100)
@given(exact_operands(("ab", "cd")), st.integers(min_value=1, max_value=3), st.data())
def test_exact_kron_apply_right(case, rows, data):
    field, (a, b) = case
    y = data.draw(_exact_matrix(field, rows, a.rows * b.rows))
    dense = _dense_product(field, y.dense(), _dense_kron(field, a.dense(), b.dense()))
    _assert_exact(kron_apply_right(y, a, b), dense)


@settings(max_examples=100)
@given(exact_operands(("ij", "ij")), st.data())
def test_exact_sum_difference_negation_scale_transpose(case, data):
    field, (a, b) = case
    c = field.coerce(data.draw(st.sampled_from(RESIDUES if field.characteristic else RATIONALS)))
    da, db = a.dense(), b.dense()
    pairs = [list(zip(ra, rb)) for ra, rb in zip(da, db)]
    _assert_exact(a + b, [[field.add(x, y) for x, y in row] for row in pairs])
    _assert_exact(a - b, [[field.sub(x, y) for x, y in row] for row in pairs])
    _assert_exact(-a, [[field.neg(x) for x in row] for row in da])
    _assert_exact(a.scale(c), [[field.mul(c, x) for x in row] for row in da])
    _assert_exact(a.transpose(), [list(col) for col in zip(*da)])
    _assert_exact(a + (-a), [[field.zero] * a.cols for _ in range(a.rows)])


@settings(max_examples=100)
@given(st.sampled_from(EXACT_FIELDS), st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_exact_leg_permutations(field, dims, data):
    perm = data.draw(st.permutations(range(len(dims))))
    out_dims = [dims[p] for p in perm]
    total = prod(dims)

    def moved(flat):  # the index that leg_perm(dims, perm) sends flat to
        idx = unflatten_index(dims, flat)
        return flatten_index(out_dims, [idx[p] for p in perm])

    x = data.draw(_exact_matrix(field, total, 2))
    dense = [None] * total
    for r, row in enumerate(x.dense()):
        dense[moved(r)] = row
    _assert_exact(permute_row_legs(x, dims, perm), dense)
    y = data.draw(_exact_matrix(field, 2, total))
    _assert_exact(
        permute_col_legs(y, dims, perm), [[row[moved(c)] for c in range(total)] for row in y.dense()]
    )


@settings(max_examples=200)
@given(exact_operands(("nn", "nm")))
def test_exact_solve_and_inverse(case):
    field, (a, b) = case
    for rhs in (b, Matrix.identity(field, a.rows)):
        expected = _dense_solve(field, a.dense(), rhs.dense())
        if isinstance(expected, int):
            with pytest.raises(SingularMatrixError, match=f"^matrix is singular at column {expected}$"):
                solve(a, rhs)
        else:
            _assert_exact(solve(a, rhs), expected)
            if rhs.is_identity():
                _assert_exact(a.inverse(), expected)


def test_solve_keeps_the_first_pivot_rule_on_a_wide_range_of_scalars():
    # column 1 has no pivot once column 0 is cleared, whatever the scale
    a = Matrix.from_rows(QQ, [[Fraction(1, BIG), 2, 3], [Fraction(2, BIG), 4, 5], [0, 0, 1]])
    with pytest.raises(SingularMatrixError, match="^matrix is singular at column 1$"):
        a.inverse()
    t = Matrix.diagonal(QQ, [Fraction(2, 3), -BIG, Fraction(1, BIG)])
    assert t.inverse() == Matrix.diagonal(QQ, [Fraction(3, 2), Fraction(-1, BIG), BIG])


def test_constructor_from_rows_and_product_build_one_matrix():
    half, third = Fraction(1, 2), Fraction(1, 3)
    built = Matrix(QQ, 2, 2, {(0, 0): half, (0, 1): Fraction(2, 3), (1, 1): Fraction(-5, 6)})
    rows = Matrix.from_rows(QQ, [[half, Fraction(4, 6)], [0, Fraction(-10, 12)]])
    product = Matrix.from_rows(QQ, [[half, 0], [0, Fraction(1, 6)]]) * Matrix.from_rows(
        QQ, [[1, Fraction(4, 3)], [0, -5]]
    )
    # a product whose denominators multiply to 6 * 3 but whose content cancels
    cancelled = Matrix.from_rows(QQ, [[3, 0], [0, third]]).scale(half) * Matrix.from_rows(
        QQ, [[third, Fraction(4, 9)], [0, Fraction(-5, 1)]]
    )
    for m in (built, rows, product, cancelled):
        _assert_canonical(m)
        assert m == built
    assert built.den == 6 and built._rowdicts == ({0: 3, 1: 4}, {1: -5})
    assert Matrix.from_rows(QQ, [[half, 0]]) * Matrix.from_rows(QQ, [[2], [1]]) == Matrix.identity(QQ, 1)
    assert Matrix.from_rows(QQ, [[half, half]]).scale(0) == Matrix.zero(QQ, 1, 2)


def test_first_mismatch_across_denominators_returns_fractions():
    sixths = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)]])
    quarters = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 4)]])
    mm = first_mismatch(sixths, quarters)
    assert (mm.row, mm.col, mm.lhs, mm.rhs) == (0, 1, Fraction(1, 3), Fraction(1, 4))
    assert type(mm.lhs) is Fraction and type(mm.rhs) is Fraction
    # equal numerators, different denominators: 1 != 1/2
    mm = first_mismatch(Matrix.from_rows(QQ, [[1, 0]]), Matrix.from_rows(QQ, [[Fraction(1, 2), 0]]))
    assert (mm.row, mm.col, mm.lhs, mm.rhs) == (0, 0, Fraction(1), Fraction(1, 2))
    assert type(mm.lhs) is Fraction
    assert first_mismatch(Matrix.zero(QQ, 2, 2), Matrix.from_rows(QQ, [[0, 0], [0, Fraction(0, 3)]])) is None


def test_q_bialgebra_check_makes_no_fraction_products():
    hopf = cyclic_group_hopf(QQ, 16)
    with mock.patch.object(Fraction, "__mul__", autospec=True, side_effect=Fraction.__mul__) as spy:
        report = check_hom_bialgebra(hopf)
    assert report.passed
    assert spy.call_count == 0


def _sparse_matrix(field, rows, cols):
    """Up to one entry per row or column, whichever is more, so a tall or
    wide matrix leaves most rows or most columns empty."""
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    entries = st.dictionaries(cells, _scalars(field), max_size=max(rows, cols))
    return entries.map(lambda e: Matrix(field, rows, cols, e))


_SIDE = st.one_of(st.integers(1, 3), st.integers(12, 30))


def _empty_rows_are_shared(m):
    return all(row is matrices._EMPTY_ROW for row in m._rowdicts if not row)


@settings(max_examples=60)
@given(st.sampled_from(KERNEL_FIELDS), _SIDE, _SIDE, _SIDE, st.data())
def test_transpose_and_product_of_tall_and_wide_sparse_matrices(field, r, k, c, data):
    a, b = data.draw(_sparse_matrix(field, r, k)), data.draw(_sparse_matrix(field, k, c))
    ab = a * b
    assert a.transpose().transpose() == a
    assert ab.transpose() == b.transpose() * a.transpose()
    assert all(map(_empty_rows_are_shared, (a, b, a.transpose(), b.transpose(), ab, ab.transpose())))
    _assert_kernel_result(ab, _dense_product(field, a.dense(), b.dense()))


@pytest.mark.parametrize(
    "field, scalars", [(F7, (3, 7, 1)), (QQ, (Fraction(1, 2), 0, Fraction(-3, 4)))],
    ids=["GF(7)", "Q"],
)
def test_constructed_and_zero_matrices_share_the_empty_row(field, scalars):
    # a row is made at its first nonzero entry (7 is zero in GF(7)); over Q
    # the rows are then rescaled to numerators over one denominator
    m = Matrix(field, 30, 4, {(2 * k, k): v for k, v in enumerate(scalars)})
    assert sum(map(bool, m._rowdicts)) == 2 and _empty_rows_are_shared(m)
    assert m.den == (4 if field == QQ else 1)
    assert [m.entry(2 * k, k) for k in range(3)] == list(map(field.coerce, scalars))
    assert _empty_rows_are_shared(Matrix.zero(field, 5, 3))


def test_the_comultiplication_of_a_cyclic_group_keeps_one_empty_row():
    comult = cyclic_group_hopf(F7, 24).comult
    empty = [row for row in comult._rowdicts if not row]
    assert len(empty) == 552 and _empty_rows_are_shared(comult)


# Monomial factors, at most one entry in each row, take the kernels' moving
# paths: kron_apply_right when no two rows of one factor share a column, and
# Matrix.__mul__ row by row; kron_apply sums them like any other factor.  Each
# path is compared with the materialized product and the dense reference.
def _factors(field):
    """One factor of every kind the kernels tell apart; over Q the scaled
    permutation, the twist and the pick have den 2."""
    s = Fraction(-1, 2) if field == QQ else 3
    return {
        "identity": Matrix.identity(field, 2),
        "permutation": Matrix.from_rows(field, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        "scaled permutation": Matrix.from_rows(field, [[0, s], [-1, 0]]),
        "diagonal twist": Matrix.diagonal(field, [1, s]),
        "unit": Matrix.column(field, [1, 0, 0]),
        "counit": Matrix.row_vector(field, [0, 1]),
        "zero": Matrix.zero(field, 2, 3),
        "empty": Matrix.zero(field, 0, 2),
        "pick with two rows in one column": Matrix.from_rows(field, [[1], [s], [0]]),
        "group counit": Matrix.row_vector(field, [1, 1, 1]),
        "general": Matrix.from_rows(field, [[1, -1], [0, s]]),
    }


def _probe(field, rows, cols):
    """Entries 1, -1, 0 and a scalar of den 2 over Q, both signs in most rows."""
    values = (1, -1, 0, Fraction(-1, 2) if field == QQ else 3, 1, 0, -1)
    entries = {(i, j): values[(2 * i + 3 * j + i * j) % 7] for i in range(rows) for j in range(cols)}
    return Matrix(field, rows, cols, entries)


def _assert_product(got, left, right):
    """Equal to the materialized product left * right and, unless a
    dimension is zero, to the dense reference."""
    assert got == left * right
    if got.rows and got.cols and left.cols:
        _assert_exact(got, _dense_product(got.field, left.dense(), right.dense()))


@pytest.mark.parametrize("field", (GF(2), F7, QQ), ids=str)
def test_kernels_on_monomial_and_general_factors(field):
    factors = _factors(field)
    for a in factors.values():
        if a.rows:
            w = _probe(field, a.cols, 3)
            _assert_exact(a * w, _dense_product(field, a.dense(), w.dense()))
        for b in factors.values():
            ab = kron(a, b)
            y = _probe(field, 3, ab.rows)
            _assert_product(kron_apply_right(y, a, b), y, ab)
            z = _probe(field, ab.cols, 2)
            _assert_product(kron_apply(a, b, z), ab, z)
    # the pick sends rows 0 and 1 to one column, so kron_apply_right sums them
    pick, i_1 = factors["pick with two rows in one column"], Matrix.identity(field, 1)
    s = pick.entry(1, 0)
    summed = kron_apply_right(Matrix.from_rows(field, [[1, 1, 1]]), pick, i_1)
    _assert_exact(summed, [[field.add(field.one, s)]])


@pytest.mark.parametrize("field", (GF(2), F7, QQ), ids=str)
def test_rows_taken_over_unscaled_are_shared(field):
    w = _probe(field, 3, 4)
    swap = Matrix.from_rows(field, [[0, 0, 1], [1, 0, 0], [0, 0, 0]])
    got = swap * w
    assert got._rowdicts[0] is w._rowdicts[2] and got._rowdicts[1] is w._rowdicts[0]
    assert got == Matrix.from_rows(field, [w.dense()[2], w.dense()[0], [0] * 4])


def _monomial_matrix(field, rows, cols):
    """At most one entry in each row, in a column drawn freely, so two rows
    sometimes share one."""
    values = [1, -1, 2, -2] + ([Fraction(1, 2), Fraction(-1, 2)] if field == QQ else [])
    cell = st.one_of(st.none(), st.tuples(st.integers(0, cols - 1), st.sampled_from(values)))
    return st.lists(cell, min_size=rows, max_size=rows).map(
        lambda cells: Matrix(field, rows, cols, {(i, c[0]): c[1] for i, c in enumerate(cells) if c})
    )


def _mixed_matrix(field, rows, cols):
    return st.one_of(_monomial_matrix(field, rows, cols), _cancelling_matrix(field, rows, cols))


@settings(max_examples=200)
@given(st.sampled_from(KERNEL_FIELDS), st.lists(st.integers(1, 3), min_size=5, max_size=5), st.data())
def test_kernels_on_mixed_monomial_and_general_operands(field, dims, data):
    ar, ac, br, bc, k = dims
    a, b = data.draw(_mixed_matrix(field, ar, ac)), data.draw(_mixed_matrix(field, br, bc))
    ab = _dense_kron(field, a.dense(), b.dense())
    y = data.draw(_mixed_matrix(field, k, ar * br))
    _assert_exact(kron_apply_right(y, a, b), _dense_product(field, y.dense(), ab))
    z = data.draw(_mixed_matrix(field, ac * bc, k))
    _assert_exact(kron_apply(a, b, z), _dense_product(field, ab, z.dense()))
    w = data.draw(_mixed_matrix(field, ac, k))
    _assert_exact(a * w, _dense_product(field, a.dense(), w.dense()))


@contextlib.contextmanager
def _read_only_rows():
    """Store every row of a matrix made inside the block as a read-only view,
    so that writing into a stored row, which other matrices may share, raises."""
    make, init = Matrix._make.__func__, Matrix.__init__

    def freeze(m):
        m._rowdicts = tuple(MappingProxyType(r) if type(r) is dict else r for r in m._rowdicts)
        return m

    def made(cls, *args):
        return freeze(make(cls, *args))

    def built(self, *args, **kwargs):
        init(self, *args, **kwargs)
        freeze(self)

    cached = (matrices._identity_cached, matrices._leg_perm_cached)
    for cache in cached:
        cache.cache_clear()
    try:
        with mock.patch.object(Matrix, "_make", classmethod(made)), mock.patch.object(
            Matrix, "__init__", built
        ), mock.patch.object(fuzz_grid, "twisted_cyclic", fuzz_grid.twisted_cyclic.__wrapped__):
            yield
    finally:
        for cache in cached:
            cache.cache_clear()


def _grid_outputs(bundles):
    out = []
    for bundle in bundles:
        gate = check_radford_conditions(bundle)
        made = radford_biproduct(bundle).bialgebra if gate.passed else None
        out.append((gate.render(witnesses=True), made and (made.mult.dense(), made.comult.dense()),
                    check_bosonization_equivalence(bundle).render(witnesses=True)))
    return out


def test_no_kernel_or_checker_writes_a_stored_row():
    step = 17
    with _read_only_rows():
        assert type(Matrix.identity(F7, 2)._rowdicts[0]) is MappingProxyType
        for field in (QQ, F7):
            for entry in CATALOG:
                for param in (None, "-1/2" if field == QQ else "5") if entry.param else (None,):
                    text = catalog_document(entry.identifier, field, param and field.parse(param))
                    assert all(r.passed for r in run_checks(realize(parse_document(text))))
            for n in range(2, 13):
                base = cyclic_group_hopf(field, n)
                for s in fuzz_grid.involutions(n):
                    sigma = Matrix(field, n, n, {((s * i) % n, i): field.one for i in range(n)})
                    hopf = yau_twist(base, sigma)
                    assert check_hom_bialgebra(hopf.bialgebra).passed
                    assert check_antipode(hopf.bialgebra, hopf.antipode).passed
        sliced = list(islice(fuzz_grid.grid_bundles(), 0, None, step))
        frozen = _grid_outputs(b for _, b in sliced)
    plain = fuzz_grid.grid()[::step]
    assert [tag for tag, _ in sliced] == [tag for tag, _ in plain]
    assert frozen == _grid_outputs(b for _, b in plain)
