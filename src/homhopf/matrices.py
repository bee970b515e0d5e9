"""Exact matrices with sparse row storage, Kronecker products, and tensor-leg permutations.

The product kernels move entries where their operands allow it (a left row
with one entry in `Matrix.__mul__`, monomial factors in `kron_apply_right`);
every other row sums its products and is reduced once, and each kernel
result goes through one canonicalization.

Flattening convention, fixed globally: the basis of V (x) W is indexed by
(i, j) |-> i*dim(W) + j, zero-based, left factor most significant.  Every
composite in the package cites this convention.  Linear maps act on column
coordinate vectors, so the product g * f applies f first.
"""

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod

from .fields import ExactError, FieldMismatchError, ShapeError, SingularMatrixError

__all__ = [
    "Matrix",
    "Mismatch",
    "kron",
    "kron_list",
    "kron_apply",
    "kron_apply_right",
    "maps_equal",
    "first_mismatch",
    "flatten_index",
    "generating_indices",
    "unflatten_index",
    "leg_perm",
    "permute_row_legs",
    "permute_col_legs",
    "solve",
]


class Matrix:
    """Immutable exact matrix; rows are dicts holding only nonzero entries.

    Entries are stored as integers: residues in [0, p) over GF(p), and over
    Q numerators over the one denominator `den`.  The stored form is
    canonical: `den >= 1`, gcd(den, every numerator) == 1, `den == 1` over
    GF(p), and no zero is stored, so equal matrices store equal data.
    Scalars read back (`entry`, `row_items`, `dense`, mismatches) are field
    values: Fractions over Q.  A stored row is never written once its matrix
    is made, so matrices share rows: every empty row, and each row that a
    product takes over unscaled.  A square matrix keeps its powers and
    inverse (`pow`), so all holders of one twist invert it once, and every
    matrix keeps its factor probe (`_probed`), so `kron_apply_right` reads
    each factor's rows once, however often it is passed.
    """

    __slots__ = ("field", "rows", "cols", "_rowdicts", "den", "_powers", "_probe")

    def __init__(self, field, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimension")
        rowdicts = [dict() for _ in range(rows)]
        if entries:
            coerce = field.coerce
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeError(f"entry ({i},{j}) outside {rows}x{cols}")
                v = coerce(v)
                if v:
                    rowdicts[i][j] = v
        self.field = field
        self.rows = rows
        self.cols = cols
        if field.characteristic:
            self.den = 1
        else:
            rowdicts, self.den = _numerators(rowdicts)
        self._rowdicts = tuple(rowdicts)

    @classmethod
    def _make(cls, field, rows, cols, rowdicts, den=1):
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._rowdicts = tuple(rowdicts)
        m.den = den
        return m

    @classmethod
    def from_rows(cls, field, rows):
        n = len(rows)
        c = len(rows[0]) if n else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ShapeError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(field, n, c, entries)

    @classmethod
    def identity(cls, field, n):
        return _identity_cached(field, n)

    @classmethod
    def zero(cls, field, rows, cols):
        return cls._make(field, rows, cols, [{} for _ in range(rows)])

    @classmethod
    def diagonal(cls, field, values):
        vals = list(values)
        return cls(field, len(vals), len(vals), {(i, i): v for i, v in enumerate(vals)})

    @classmethod
    def column(cls, field, values):
        vals = list(values)
        return cls(field, len(vals), 1, {(i, 0): v for i, v in enumerate(vals)})

    @classmethod
    def row_vector(cls, field, values):
        vals = list(values)
        return cls(field, 1, len(vals), {(0, j): v for j, v in enumerate(vals)})

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        v = self._rowdicts[i].get(j, 0)
        return v if self.field.characteristic else Fraction(v, self.den)

    def row_items(self, i):
        items = sorted(self._rowdicts[i].items())
        if self.field.characteristic:
            return items
        return [(j, Fraction(v, self.den)) for j, v in items]

    def dense(self):
        cols = range(self.cols)
        if self.field.characteristic:
            return [[row.get(j, 0) for j in cols] for row in self._rowdicts]
        zero, den = self.field.zero, self.den
        return [[Fraction(row[j], den) if j in row else zero for j in cols] for row in self._rowdicts]

    def nnz(self):
        return sum(len(r) for r in self._rowdicts)

    def _check_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            (self.field is other.field or self.field == other.field)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self._rowdicts == other._rowdicts
        )

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} over {self.field}>"

    def __add__(self, other):
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        p = self.field.characteristic
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, den // db
        out = []
        for ra, rb in zip(self._rowdicts, other._rowdicts):
            row = dict(ra) if fa == 1 else {j: v * fa for j, v in ra.items()}
            for j, v in rb.items():
                w = row.get(j, 0) + v * fb
                if p:
                    w %= p
                if w:
                    row[j] = w
                else:
                    del row[j]  # v is nonzero, so a zero sum cancels a stored entry
            out.append(row)
        return _canonical(self.field, self.rows, self.cols, out, den)

    def __neg__(self):
        p = self.field.characteristic  # p - v is -v over Q and the residue of -v over GF(p)
        out = [{j: p - v for j, v in r.items()} for r in self._rowdicts]
        return Matrix._make(self.field, self.rows, self.cols, out, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return Matrix.zero(self.field, self.rows, self.cols)
        p = self.field.characteristic
        if p:
            out = [{j: c * v % p for j, v in r.items()} for r in self._rowdicts]
            return Matrix._make(self.field, self.rows, self.cols, out)
        num = c.numerator
        out = [{j: num * v for j, v in r.items()} for r in self._rowdicts]
        return _canonical(self.field, self.rows, self.cols, out, self.den * c.denominator)

    def __mul__(self, other):
        """Matrix product; cost is proportional to matching nonzeros."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        p = self.field.characteristic
        orows = other._rowdicts
        out = []
        for arow in self._rowdicts:
            if len(arow) == 1:  # one entry selects one row of other, scaled
                ((k, a),) = arow.items()
                out.append(_scaled(orows[k], a, p) or _EMPTY_ROW)
                continue
            if not arow:
                out.append(_EMPTY_ROW)
                continue
            acc = {}
            for k, a in arow.items():
                for j, b in orows[k].items():
                    v = a * b
                    w = acc.get(j)
                    acc[j] = v if w is None else w + v
            out.append(_reduced(acc, p) or _EMPTY_ROW)
        return _canonical(self.field, self.rows, other.cols, out, self.den * other.den)

    def kron(self, other):
        """Kronecker product; entry ((i,i'),(j,j')) = A[i,j]*B[i',j']."""
        self._check_field(other)
        p = self.field.characteristic
        br, bc = other.rows, other.cols
        out = [_EMPTY_ROW] * (self.rows * br)
        for i, arow in enumerate(self._rowdicts):
            if not arow:
                continue
            for i2, brow in enumerate(other._rowdicts):
                if not brow:
                    continue
                target = out[i * br + i2] = {}
                for j, a in arow.items():
                    jb = j * bc
                    for j2, b in brow.items():
                        target[jb + j2] = a * b % p if p else a * b
        return _canonical(self.field, self.rows * br, self.cols * bc, out, self.den * other.den)

    def transpose(self):
        out = [_EMPTY_ROW] * self.cols  # a column is made at its first entry
        for i, row in enumerate(self._rowdicts):
            for j, v in row.items():
                if out[j]:
                    out[j][i] = v
                else:
                    out[j] = {i: v}
        return Matrix._make(self.field, self.cols, self.rows, out, self.den)

    def inverse(self):
        """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices invert")
        return self.pow(-1)

    def pow(self, k):
        """Integer power; negative exponents go through the exact inverse.
        The matrix keeps each power it computes, the inverse included, but
        not the 0th or 1st: holding itself, it would outlive its last outside
        reference.  A singular matrix keeps nothing and raises every time."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices take powers")
        if k in (0, 1):
            return self if k else Matrix.identity(self.field, self.rows)
        kept, step = getattr(self, "_powers", {}), 1 if k > 0 else -1
        if step < 0 and -1 not in kept:
            kept[-1] = solve(self, Matrix.identity(self.field, self.rows))
        power = base = self if step > 0 else kept[-1]
        for j in range(2 * step, k + step, step):  # a loop, not recursion, so no exponent is too large
            if j not in kept:
                kept[j] = power * base
            power = kept[j]
        self._powers = kept
        return power

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return self == Matrix.identity(self.field, self.rows)


@dataclass(frozen=True)
class Mismatch:
    """First differing entry of two same-shape matrices, row-major order."""

    row: int
    col: int
    lhs: object
    rhs: object


def first_mismatch(f, g):
    """Return the first differing (row, col) in row-major order, or None."""
    if not isinstance(f, Matrix) or not isinstance(g, Matrix):
        raise ExactError("first_mismatch expects matrices")
    if f.field is not g.field and f.field != g.field:
        raise FieldMismatchError(f"{f.field} vs {g.field}")
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeError(f"{f.rows}x{f.cols} vs {g.rows}x{g.cols}")
    if f.den == g.den and f._rowdicts == g._rowdicts:
        return None
    frows, grows, den = f._rowdicts, g._rowdicts, f.den
    if den != g.den:  # cross-multiply, so both sets of numerators are over f.den*g.den
        frows = [{j: v * g.den for j, v in r.items()} for r in frows]
        grows = [{j: v * f.den for j, v in r.items()} for r in grows]
        den = f.den * g.den
    for i in range(f.rows):
        fr = frows[i]
        gr = grows[i]
        if fr == gr:
            continue
        for j in sorted(set(fr) | set(gr)):
            a = fr.get(j, 0)
            b = gr.get(j, 0)
            if a != b:
                if f.field.characteristic:
                    return Mismatch(i, j, a, b)
                return Mismatch(i, j, Fraction(a, den), Fraction(b, den))
    return None


def maps_equal(f, g):
    """True iff the two maps agree entry-for-entry (exact equality)."""
    return first_mismatch(f, g) is None


_EMPTY_ROW = {}  # the shared empty row (see Matrix)


def _reduced(acc, p):
    """A row of unreduced sums of products as stored: each entry reduced mod
    p once (over Q, p = 0, numerators are exact integers), zeros dropped."""
    if p:
        return {j: r for j, v in acc.items() if (r := v % p)}
    return {j: v for j, v in acc.items() if v}


def _scaled(row, c, p):
    """A stored row times the product c of nonzero stored scalars, reduced as
    stored; the row itself, shared, when c is 1."""
    if p:
        c %= p
    if c == 1:
        return row
    if p:
        return {j: c * v % p for j, v in row.items()}
    return {j: c * v for j, v in row.items()}


def _probed(m):
    """The factor probe of m, computed on the first request and kept in m:
    it holds only integers, and racing threads keep equal tables."""
    table = getattr(m, "_probe", False)
    if table is False:
        table = m._probe = _monomial(m)
    return table


def _monomial(m):
    """Per row of m, (j, v) for its one stored entry v at column j, or None
    for an empty row; None instead when a row holds two entries or two rows
    hold their entries in one column."""
    table, seen = [None] * m.rows, set()
    for r, row in enumerate(m._rowdicts):
        if row:
            if len(row) > 1:
                return None
            ((j, v),) = row.items()
            if j in seen:
                return None
            seen.add(j)
            table[r] = (j, v)
    return tuple(table)


def _numerators(rowdicts):
    """Rows of nonzero Fractions as (rows of integer numerators, their
    denominator): the lcm of the Fractions' denominators, which leaves the
    form canonical because every Fraction is in lowest terms."""
    den = 1
    for row in rowdicts:
        for v in row.values():
            if den % v.denominator:
                den = lcm(den, v.denominator)
    if den == 1:
        return [{j: v.numerator for j, v in row.items()} for row in rowdicts], 1
    return [{j: v.numerator * (den // v.denominator) for j, v in row.items()} for row in rowdicts], den


def _canonical(field, rows, cols, out, den):
    """The matrix of integer rows `out` over den >= 1, in canonical form:
    the content that den shares with every numerator is divided out.  Over
    GF(p) den is 1, and the rows are kept as they are."""
    if den != 1:
        g = den
        for row in out:
            if row:
                g = gcd(g, *row.values())
                if g == 1:
                    break
        if g != 1:
            den //= g
            out = [{j: v // g for j, v in row.items()} if row else _EMPTY_ROW for row in out]
    return Matrix._make(field, rows, cols, out, den)


@lru_cache(maxsize=None)
def _identity_cached(field, n):
    return Matrix._make(field, n, n, [{i: 1} for i in range(n)])


def kron(a, b):
    return a.kron(b)


def kron_list(*mats):
    return reduce(lambda x, y: x.kron(y), mats)


def kron_apply(a, b, y):
    """Compute (a (x) b) * y without materializing the Kronecker product.

    Output row (i, i2) sums a[i, ja] * b[i2, jb] * y[(ja, jb)], one row at a
    time; cost is proportional to the matching nonzeros, which matters when
    a (x) b would be large but y is thin.
    """
    field = a.field
    if (b.field is not field and b.field != field) or (y.field is not field and y.field != field):
        raise FieldMismatchError("kron_apply operands over different fields")
    if y.rows != a.cols * b.cols:
        raise ShapeError(f"kron_apply: {a.cols * b.cols} rows expected, got {y.rows}")
    p = field.characteristic
    br, bc = b.rows, b.cols
    brows, yrows = b._rowdicts, y._rowdicts
    out = [_EMPTY_ROW] * (a.rows * br)
    for i, arow in enumerate(a._rowdicts):
        if not arow:
            continue
        for i2, brow in enumerate(brows):
            if not brow:
                continue
            acc = {}
            for ja, va in arow.items():
                base = ja * bc
                for jb, vb in brow.items():
                    yrow = yrows[base + jb]
                    if not yrow:
                        continue
                    w = va * vb
                    for c, vy in yrow.items():
                        v = w * vy
                        cur = acc.get(c)
                        acc[c] = v if cur is None else cur + v
            if acc:
                out[i * br + i2] = _reduced(acc, p)
    return _canonical(field, a.rows * br, y.cols, out, a.den * b.den * y.den)


def kron_apply_right(y, a, b):
    """Compute y * (a (x) b) without materializing the Kronecker product.

    The mirror of kron_apply: cost is proportional to the matching nonzeros,
    which matters when a (x) b would be tall but y has few rows.  When every
    row of a and of b holds at most one entry, and no two rows of one factor
    share a column, a (x) b sends each column of y to its own column: each
    entry of y is moved and scaled, with no sum to form and none to reduce,
    as a product of nonzero stored scalars is never zero.
    """
    field = a.field
    if (b.field is not field and b.field != field) or (y.field is not field and y.field != field):
        raise FieldMismatchError("kron_apply_right operands over different fields")
    if y.cols != a.rows * b.rows:
        raise ShapeError(f"kron_apply_right: {a.rows * b.rows} columns expected, got {y.cols}")
    p = field.characteristic
    arows, brows = a._rowdicts, b._rowdicts
    br, bc = b.rows, b.cols
    out = []
    ta = _probed(a)
    tb = ta and _probed(b)
    if tb:
        for yrow in y._rowdicts:
            row = {}
            for c, vy in yrow.items():
                ea, eb = ta[c // br], tb[c % br]
                if ea and eb:
                    v = vy * ea[1] * eb[1]
                    row[ea[0] * bc + eb[0]] = v % p if p else v
            out.append(row or _EMPTY_ROW)
    else:
        for yrow in y._rowdicts:
            acc = {}
            for c, vy in yrow.items():
                arow, brow = arows[c // br], brows[c % br]
                if not arow or not brow:
                    continue
                for ja, va in arow.items():
                    w = vy * va
                    base = ja * bc
                    for jb, vb in brow.items():
                        v = w * vb
                        cur = acc.get(base + jb)
                        acc[base + jb] = v if cur is None else cur + v
            out.append(_reduced(acc, p) if acc else _EMPTY_ROW)
    return _canonical(field, y.rows, a.cols * bc, out, y.den * a.den * b.den)


def flatten_index(dims, idx):
    flat = 0
    for d, i in zip(dims, idx):
        flat = flat * d + i
    return flat


def unflatten_index(dims, flat):
    idx = []
    for d in reversed(dims):
        idx.append(flat % d)
        flat //= d
    return tuple(reversed(idx))


def _leg_strides(dims, perm):
    """For each input leg, its stride in the flat index of the rearranged
    product (output leg j carries input leg perm[j])."""
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ExactError(f"{perm} is not a permutation of the legs")
    strides = [0] * k
    step = 1
    for j in range(k - 1, -1, -1):
        strides[perm[j]] = step
        step *= dims[perm[j]]
    return strides


@lru_cache(maxsize=256)
def _relabel_tables(dims, perm, cols):
    """The flat-index relabelling of a leg permutation as two tables,
    r -> high[r // size] + low[r % size]: `high` over the leading legs and
    `low` over the trailing ones, split where the two together are
    shortest, so a table of n^4 indices holds 2 n^2 entries.

    For rows, flat indices follow dims and each leg moves to its stride in
    the rearranged product; for columns (cols=True) they follow the
    rearranged legs and each moves back to its row-major stride in dims.
    """
    strides = _leg_strides(dims, perm)
    if cols:
        back = _leg_strides(dims, range(len(dims)))
        dims, strides = [dims[p] for p in perm], [back[p] for p in perm]
    split = min(range(len(dims) + 1), key=lambda k: prod(dims[:k]) + prod(dims[k:]))
    legs = list(zip(dims, strides))
    return prod(dims[split:]), _stride_table(legs[:split]), _stride_table(legs[split:])


def _stride_table(legs):
    """The new index of every flat index over (dim, stride) legs, most
    significant leg first."""
    table = [0]
    for d, stride in legs:
        table = [t + i * stride for t in table for i in range(d)]
    return tuple(table)


def _leg_count(dims, size, what):
    if prod(dims) != size:
        raise ShapeError(f"legs {tuple(dims)} span {prod(dims)} {what}, matrix has {size}")


def permute_row_legs(m, dims, perm):
    """leg_perm(m.field, dims, perm) * m, moving only the nonzero rows.

    Output leg j carries input leg perm[j]; dims are the row legs of m.
    """
    _leg_count(dims, m.rows, "rows")
    size, high, low = _relabel_tables(tuple(dims), tuple(perm), False)
    out = [_EMPTY_ROW] * m.rows
    for r, row in enumerate(m._rowdicts):
        if row:
            out[high[r // size] + low[r % size]] = row
    return Matrix._make(m.field, m.rows, m.cols, out, m.den)


def permute_col_legs(m, dims, perm):
    """m * leg_perm(m.field, dims, perm), relabelling the keys of each row.

    dims are the input legs of the permutation, so the result's columns
    follow dims and the columns of m follow the rearranged legs.
    """
    _leg_count(dims, m.cols, "columns")
    size, high, low = _relabel_tables(tuple(dims), tuple(perm), True)
    out = [{high[c // size] + low[c % size]: v for c, v in row.items()} for row in m._rowdicts]
    return Matrix._make(m.field, m.rows, m.cols, out, m.den)


def leg_perm(field, dims, perm):
    """Permutation matrix rearranging tensor legs.

    Output leg j carries input leg perm[j]; dims are the input leg dims.
    Library code moves legs with permute_row_legs / permute_col_legs; this
    explicit matrix is for callers and tests.
    """
    return _leg_perm_cached(field, tuple(dims), tuple(perm))


@lru_cache(maxsize=None)
def _leg_perm_cached(field, dims, perm):
    stride_of_input = _leg_strides(dims, perm)
    k = len(dims)
    total = prod(dims)
    out = [dict() for _ in range(total)]
    idx = [0] * k
    row = 0
    for col in range(total):
        out[row][col] = 1
        for pos in range(k - 1, -1, -1):
            idx[pos] += 1
            row += stride_of_input[pos]
            if idx[pos] < dims[pos]:
                break
            idx[pos] = 0
            row -= stride_of_input[pos] * dims[pos]
    return Matrix._make(field, total, total, out)


def solve(a, b):
    """Solve a*X = b exactly (a square); raises SingularMatrixError otherwise.

    Gauss-Jordan elimination on the stored integer rows of [a | b], taking
    the first nonzero pivot at or below the diagonal: over GF(p) each row
    operation is reduced mod p; over Q it is fraction-free (Bareiss), every
    division exact, and the solution's one denominator is formed at the end.
    """
    if a.rows != a.cols:
        raise ShapeError("solve needs a square coefficient matrix")
    if a.rows != b.rows:
        raise ShapeError("right-hand side row count mismatch")
    field = a.field
    if field is not b.field and field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")
    n, m = a.rows, b.cols
    width = n + m
    rows = []
    for ra, rb in zip(a._rowdicts, b._rowdicts):
        row = [0] * width
        for j, v in ra.items():
            row[j] = v
        for j, v in rb.items():
            row[n + j] = v
        rows.append(row)
    p = field.characteristic
    if p:
        _eliminate_mod(rows, n, p)
        return Matrix._make(field, n, m, [_right_part(row, n) for row in rows])
    # the rows hold [a.den*a | b.den*b]; elimination leaves [d*I | R] with
    # R = d * (a.den*a)^-1 * b.den*b, so X = a^-1*b = R * a.den / (b.den*d)
    d = _eliminate_fraction_free(rows, n)
    scale = a.den if d > 0 else -a.den
    out = [{j: v * scale for j, v in _right_part(row, n).items()} for row in rows]
    return _canonical(field, n, m, out, b.den * abs(d))


def _right_part(row, n):
    return {j: v for j, v in enumerate(row[n:]) if v}


def _pivot_row(rows, col, n):
    for r in range(col, n):
        if rows[r][col]:
            if r != col:
                rows[col], rows[r] = rows[r], rows[col]
            return rows[col]
    raise SingularMatrixError(f"matrix is singular at column {col}")


def _eliminate_mod(rows, n, p):
    """Reduce augmented rows to [I | X] in place, every entry mod p."""
    for col in range(n):
        prow = _pivot_row(rows, col, n)
        if prow[col] != 1:
            inv = pow(prow[col], p - 2, p)
            prow = rows[col] = [v * inv % p for v in prow]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                rows[r] = [(v - f * w) % p for v, w in zip(row, prow)]


def _eliminate_fraction_free(rows, n):
    """Reduce augmented integer rows to [d*I | d*X] in place and return d.

    Fraction-free Gauss-Jordan (Bareiss): at step col every other row
    becomes (pivot*row - row[col]*pivot_row) / previous pivot, a division
    that is exact because each entry is a minor of the input, so no entry
    grows beyond a determinant of it.
    """
    prev = 1
    for col in range(n):
        prow = _pivot_row(rows, col, n)
        pk = prow[col]
        for r, row in enumerate(rows):
            if r == col:
                continue
            f = row[col]
            if f:
                rows[r] = [(pk * v - f * w) // prev for v, w in zip(row, prow)]
            elif pk != prev:
                rows[r] = [pk * v // prev for v in row]
        prev = pk
    return prev


def generating_indices(mult, start, maps, most):
    """Basis indices G, picked greedily in basis order, such that the least
    subspace holding the column `start` and every e_g (g in G), and closed
    under each of `maps` and under x |-> mult(e_g (x) x) for g in G, is the
    whole space; None once G would need more than `most` indices.

    The span grows as an echelon basis of stored integer vectors, residues
    over GF(p) and numerators over Q, each divided by its content: a span
    ignores scale, so no Fraction is formed.  Of mult, only the column
    block of each picked generator is read.
    """
    n, p = mult.rows, mult.field.characteristic
    ops = [m.transpose()._rowdicts for m in maps]
    basis, leads, fresh, gens = {}, [], [], []

    def add(v):
        """Put v into the span; True if it was not there."""
        for k in leads:  # a lead is its vector's least index, so no earlier lead returns
            if c := v.get(k):
                b = basis[k]
                acc = {j: x * b[k] for j, x in v.items()}
                for j, y in b.items():
                    acc[j] = acc.get(j, 0) - c * y
                v = _reduced(acc, p)
        if v:
            g = gcd(*v.values())
            lead = min(v)
            v = basis[lead] = {j: x // g for j, x in v.items()}
            insort(leads, lead)
            fresh.append(v)
        return bool(v)

    def image(cols, v):
        acc = {}
        for j, x in v.items():
            for i, y in cols[j].items():
                acc[i] = acc.get(i, 0) + x * y
        return _reduced(acc, p)

    def left(g):
        """Column j holds e_g e_j: column g*n + j of mult, read alone."""
        rows = mult._rowdicts
        return [{i: x for i, row in enumerate(rows) if (x := row.get(k))} for k in range(g * n, g * n + n)]

    add(start.transpose()._rowdicts[0])
    for i in range(n):
        while fresh:
            v = fresh.pop()
            for cols in ops:
                add(image(cols, v))
        if len(basis) == n:
            break
        if add({i: 1}):
            if len(gens) == most:
                return None
            gens.append(i)
            ops.append(left(i))
            for v in list(basis.values()):
                add(image(ops[-1], v))
    return tuple(gens)
