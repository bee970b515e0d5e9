"""Exact matrices with sparse row storage, Kronecker products, and tensor-leg permutations.

Flattening convention, fixed globally: the basis of V (x) W is indexed by
(i, j) |-> i*dim(W) + j, zero-based, left factor most significant.  Every
composite in the package cites this convention.  Linear maps act on column
coordinate vectors, so compose(g, f) applies f first.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

from .fields import ExactError, FieldMismatchError, ShapeError, SingularMatrixError

__all__ = [
    "Matrix",
    "Mismatch",
    "kron",
    "kron_list",
    "kron_apply",
    "kron_apply_right",
    "compose",
    "maps_equal",
    "first_mismatch",
    "flatten_index",
    "unflatten_index",
    "leg_perm",
    "swap_matrix",
    "permute_row_legs",
    "permute_col_legs",
    "solve",
    "TwistCache",
]


class Matrix:
    """Immutable exact matrix; rows are dicts holding only nonzero entries."""

    __slots__ = ("field", "rows", "cols", "_rowdicts")

    def __init__(self, field, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimension")
        rowdicts = [dict() for _ in range(rows)]
        if entries:
            zero = field.zero
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeError(f"entry ({i},{j}) outside {rows}x{cols}")
                v = field.coerce(v)
                if v != zero:
                    rowdicts[i][j] = v
        self.field = field
        self.rows = rows
        self.cols = cols
        self._rowdicts = tuple(rowdicts)

    @classmethod
    def _make(cls, field, rows, cols, rowdicts):
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._rowdicts = tuple(rowdicts)
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
        vals = [field.coerce(v) for v in values]
        n = len(vals)
        rd = [({i: vals[i]} if vals[i] != field.zero else {}) for i in range(n)]
        return cls._make(field, n, n, rd)

    @classmethod
    def column(cls, field, values):
        vals = [field.coerce(v) for v in values]
        rd = [({0: v} if v != field.zero else {}) for v in vals]
        return cls._make(field, len(vals), 1, rd)

    @classmethod
    def row_vector(cls, field, values):
        vals = [field.coerce(v) for v in values]
        rd = {j: v for j, v in enumerate(vals) if v != field.zero}
        return cls._make(field, 1, len(vals), [rd])

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ShapeError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self._rowdicts[i].get(j, self.field.zero)

    def row_items(self, i):
        return sorted(self._rowdicts[i].items())

    def dense(self):
        zero = self.field.zero
        return [
            [self._rowdicts[i].get(j, zero) for j in range(self.cols)]
            for i in range(self.rows)
        ]

    def nnz(self):
        return sum(len(r) for r in self._rowdicts)

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rowdicts == other._rowdicts
        )

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} over {self.field}>"

    def __add__(self, other):
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        add, zero = self.field.add, self.field.zero
        out = []
        for ra, rb in zip(self._rowdicts, other._rowdicts):
            row = dict(ra)
            for j, v in rb.items():
                w = add(row.get(j, zero), v)
                if w == zero:
                    row.pop(j, None)
                else:
                    row[j] = w
            out.append(row)
        return Matrix._make(self.field, self.rows, self.cols, out)

    def __neg__(self):
        neg = self.field.neg
        return Matrix._make(
            self.field,
            self.rows,
            self.cols,
            [{j: neg(v) for j, v in r.items()} for r in self._rowdicts],
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.field.coerce(c)
        if c == self.field.zero:
            return Matrix.zero(self.field, self.rows, self.cols)
        mul = self.field.mul
        return Matrix._make(
            self.field,
            self.rows,
            self.cols,
            [{j: mul(c, v) for j, v in r.items()} for r in self._rowdicts],
        )

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
            acc = {}
            for k, a in arow.items():
                for j, b in orows[k].items():
                    v = a * b
                    w = acc.get(j)
                    acc[j] = v if w is None else w + v
            out.append(_reduced(acc, p) if acc else _EMPTY_ROW)
        return Matrix._make(self.field, self.rows, other.cols, out)

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
        return Matrix._make(self.field, self.rows * br, self.cols * bc, out)

    def transpose(self):
        out = [dict() for _ in range(self.cols)]
        for i, row in enumerate(self._rowdicts):
            for j, v in row.items():
                out[j][i] = v
        return Matrix._make(self.field, self.cols, self.rows, out)

    def inverse(self):
        """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices invert")
        return solve(self, Matrix.identity(self.field, self.rows))

    def pow(self, k):
        """Integer power; negative exponents go through the exact inverse."""
        if self.rows != self.cols:
            raise ShapeError("only square matrices take powers")
        base = self if k >= 0 else self.inverse()
        result = Matrix.identity(self.field, self.rows)
        for _ in range(abs(k)):
            result = result * base
        return result

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
    if f.field != g.field:
        raise FieldMismatchError(f"{f.field} vs {g.field}")
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeError(f"{f.rows}x{f.cols} vs {g.rows}x{g.cols}")
    zero = f.field.zero
    for i in range(f.rows):
        fr = f._rowdicts[i]
        gr = g._rowdicts[i]
        if fr == gr:
            continue
        for j in sorted(set(fr) | set(gr)):
            a = fr.get(j, zero)
            b = gr.get(j, zero)
            if a != b:
                return Mismatch(i, j, a, b)
    return None


def maps_equal(f, g):
    """True iff the two maps agree entry-for-entry (exact equality)."""
    return first_mismatch(f, g) is None


_EMPTY_ROW = {}  # rows are never mutated once a matrix is made, so empty ones can share


def _reduced(acc, p):
    """A row of unreduced sums of products as stored: each entry reduced mod
    p once (over Q, p = 0, the Fractions are already exact), zeros dropped."""
    if p:
        return {j: r for j, v in acc.items() if (r := v % p)}
    return {j: v for j, v in acc.items() if v}


@lru_cache(maxsize=None)
def _identity_cached(field, n):
    one = field.one
    return Matrix._make(field, n, n, [{i: one} for i in range(n)])


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
    if a.field != b.field or a.field != y.field:
        raise FieldMismatchError("kron_apply operands over different fields")
    if y.rows != a.cols * b.cols:
        raise ShapeError(f"kron_apply: {a.cols * b.cols} rows expected, got {y.rows}")
    p = a.field.characteristic
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
    return Matrix._make(a.field, a.rows * br, y.cols, out)


def kron_apply_right(y, a, b):
    """Compute y * (a (x) b) without materializing the Kronecker product.

    The mirror of kron_apply: cost is proportional to the matching nonzeros,
    which matters when a (x) b would be tall but y has few rows.
    """
    if a.field != b.field or a.field != y.field:
        raise FieldMismatchError("kron_apply_right operands over different fields")
    if y.cols != a.rows * b.rows:
        raise ShapeError(f"kron_apply_right: {a.rows * b.rows} columns expected, got {y.cols}")
    p = a.field.characteristic
    arows, brows = a._rowdicts, b._rowdicts
    bc = b.cols
    out = []
    for yrow in y._rowdicts:
        acc = {}
        for c, vy in yrow.items():
            ia, ib = divmod(c, b.rows)
            arow, brow = arows[ia], brows[ib]
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
    return Matrix._make(a.field, y.rows, a.cols * bc, out)


def compose(*mats):
    """compose(g, f) applies f first: the product g*f."""
    return reduce(lambda x, y: x * y, mats)


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


def _relabel(flat, legs):
    """Re-add the digits of a flat index, read against (dim, stride) pairs
    listed least significant leg first, each times its new stride."""
    out = 0
    for d, stride in legs:
        flat, digit = divmod(flat, d)
        out += digit * stride
    return out


def _leg_count(dims, size, what):
    total = 1
    for d in dims:
        total *= d
    if total != size:
        raise ShapeError(f"legs {tuple(dims)} span {total} {what}, matrix has {size}")


def permute_row_legs(m, dims, perm):
    """leg_perm(m.field, dims, perm) * m, moving only the nonzero rows.

    Output leg j carries input leg perm[j]; dims are the row legs of m.
    """
    strides = _leg_strides(dims, perm)
    _leg_count(dims, m.rows, "rows")
    legs = tuple(zip(reversed(dims), reversed(strides)))
    out = [_EMPTY_ROW] * m.rows
    for r, row in enumerate(m._rowdicts):
        if row:
            out[_relabel(r, legs)] = row
    return Matrix._make(m.field, m.rows, m.cols, out)


def permute_col_legs(m, dims, perm):
    """m * leg_perm(m.field, dims, perm), relabelling the keys of each row.

    dims are the input legs of the permutation, so the result's columns
    follow dims and the columns of m follow the rearranged legs.
    """
    _leg_strides(dims, perm)  # rejects a non-permutation
    _leg_count(dims, m.cols, "columns")
    col_strides = _leg_strides(dims, range(len(dims)))  # row-major strides of dims
    legs = tuple((dims[p], col_strides[p]) for p in reversed(perm))
    out = [{_relabel(c, legs): v for c, v in row.items()} for row in m._rowdicts]
    return Matrix._make(m.field, m.rows, m.cols, out)


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
    total = 1
    for d in dims:
        total *= d
    one = field.one
    out = [dict() for _ in range(total)]
    idx = [0] * k
    row = 0
    for col in range(total):
        out[row][col] = one
        for pos in range(k - 1, -1, -1):
            idx[pos] += 1
            row += stride_of_input[pos]
            if idx[pos] < dims[pos]:
                break
            idx[pos] = 0
            row -= stride_of_input[pos] * dims[pos]
    return Matrix._make(field, total, total, out)


def swap_matrix(field, n, m):
    """The flip V(x)W -> W(x)V on flattened coordinates."""
    return leg_perm(field, (n, m), (1, 0))


def solve(a, b):
    """Solve a*X = b exactly (a square); raises SingularMatrixError otherwise."""
    if a.rows != a.cols:
        raise ShapeError("solve needs a square coefficient matrix")
    if a.rows != b.rows:
        raise ShapeError("right-hand side row count mismatch")
    field = a.field
    if field != b.field:
        raise FieldMismatchError(f"{a.field} vs {b.field}")
    n = a.rows
    zero, one = field.zero, field.one
    left = [row[:] for row in a.dense()]
    right = [row[:] for row in b.dense()]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if left[r][col] != zero:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot != col:
            left[col], left[pivot] = left[pivot], left[col]
            right[col], right[pivot] = right[pivot], right[col]
        p = left[col][col]
        if p != one:
            pinv = field.inv(p)
            left[col] = [field.mul(pinv, v) for v in left[col]]
            right[col] = [field.mul(pinv, v) for v in right[col]]
        for r in range(n):
            if r == col:
                continue
            f = left[r][col]
            if f == zero:
                continue
            left[r] = [field.sub(v, field.mul(f, w)) for v, w in zip(left[r], left[col])]
            right[r] = [field.sub(v, field.mul(f, w)) for v, w in zip(right[r], right[col])]
    entries = {}
    for i, row in enumerate(right):
        for j, v in enumerate(row):
            if v != zero:
                entries[(i, j)] = v
    return Matrix(field, n, b.cols, entries)


class TwistCache:
    """Cached integer powers of a structure twist, inverse included."""

    def __init__(self, matrix):
        self.matrix = matrix
        self._memo = {0: Matrix.identity(matrix.field, matrix.rows), 1: matrix}

    def power(self, k):
        memo = self._memo
        if k not in memo:
            if k > 1:
                memo[k] = self.power(k - 1) * self.matrix
            else:
                if -1 not in memo:
                    memo[-1] = self.matrix.inverse()
                memo[k] = self.power(k + 1) * memo[-1]
        return memo[k]

    @property
    def inverse(self):
        return self.power(-1)
