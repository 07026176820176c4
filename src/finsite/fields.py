"""Exact scalar fields and dense exact linear algebra.

Two coefficient fields are supported: prime fields (elements are ints
canonicalised to ``0..p-1``) and the rationals (elements are
``fractions.Fraction``).  Floating point never appears anywhere.

Matrices are immutable ``Matrix(rows, cols, data)`` records so that
zero-dimensional spaces keep their shape information.  All eliminations
are plain Gauss-Jordan over the field, with pivots chosen in column
order, so reduced forms and the bases derived from them are canonical.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import EngineError


class FieldError(EngineError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic of integers modulo a prime."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def label(self) -> str:
        return f"F{self.p}"

    enumerable = True

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, n):
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise FieldError(f"{n} has no image in F{self.p}")
            return n.numerator * pow(n.denominator, -1, self.p) % self.p
        return int(n) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.p)

    def rand(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The field of rationals, elements are Fraction values."""

    __slots__ = ()

    char = 0
    label = "Q"
    enumerable = False
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def elements(self):
        raise FieldError("the rationals are not enumerable")

    def rand(self, rng):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


def field_by_label(label) -> PrimeField | RationalField:
    """Parse a field token: "Q"/"q"/"0" for the rationals, "F5" or "5" for F_5."""
    text = str(label).strip()
    if text.upper() in ("Q", "0"):
        return RationalField()
    if text.upper().startswith("F"):
        text = text[1:]
    if not text.isdigit():
        raise FieldError(f"unrecognised field label {label!r}")
    return PrimeField(int(text))


class Matrix(NamedTuple):
    rows: int
    cols: int
    data: tuple  # tuple of row tuples, len rows, each len cols

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def entry(self, i, j):
        return self.data[i][j]


def matrix(field, rows: Iterable[Iterable], cols: int | None = None) -> Matrix:
    data = tuple(tuple(field.of(x) for x in r) for r in rows)
    if data:
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise FieldError("ragged matrix rows")
        if cols is not None and cols != width:
            raise FieldError("declared column count does not match rows")
        cols = width
    elif cols is None:
        raise FieldError("empty matrix needs an explicit column count")
    return Matrix(len(data), cols, data)


def matrix_from_cols(field, cols: Sequence[Sequence], rows: int | None = None) -> Matrix:
    if cols:
        height = len(cols[0])
        if rows is not None and rows != height:
            raise FieldError("declared row count does not match columns")
        rows = height
    elif rows is None:
        raise FieldError("empty matrix needs an explicit row count")
    data = tuple(tuple(field.of(c[i]) for c in cols) for i in range(rows))
    return Matrix(rows, len(cols), data)


def identity_matrix(field, n: int) -> Matrix:
    one, zero = field.one, field.zero
    return Matrix(n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))


def zero_matrix(field, rows: int, cols: int) -> Matrix:
    zero = field.zero
    return Matrix(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))


def zero_vec(field, n: int) -> tuple:
    return (field.zero,) * n


def unit_vec(field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec(field, seq) -> tuple:
    return tuple(field.of(x) for x in seq)


def vec_sub(field, a, b) -> tuple:
    return tuple(field.sub(x, y) for x, y in zip(a, b))


def mat_vec(field, a: Matrix, v: Sequence) -> tuple:
    if a.cols != len(v):
        raise FieldError(f"shape mismatch {a.rows}x{a.cols} @ {len(v)}")
    out = []
    for row in a.data:
        acc = field.zero
        for x, y in zip(row, v):
            if x != field.zero and y != field.zero:
                acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return tuple(out)


def mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise FieldError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bt = tuple(zip(*b.data)) if b.data else ()
    zero = field.zero
    out = []
    for row in a.data:
        out_row = []
        for j in range(b.cols):
            col = bt[j] if bt else ()
            acc = zero
            for x, y in zip(row, col):
                if x != zero and y != zero:
                    acc = field.add(acc, field.mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return Matrix(a.rows, b.cols, tuple(out))


def mat_add(field, a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise FieldError("shape mismatch in addition")
    return Matrix(a.rows, a.cols, tuple(tuple(field.add(x, y) for x, y in zip(ra, rb))
                                        for ra, rb in zip(a.data, b.data)))


def mat_sub(field, a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise FieldError("shape mismatch in subtraction")
    return Matrix(a.rows, a.cols, tuple(tuple(field.sub(x, y) for x, y in zip(ra, rb))
                                        for ra, rb in zip(a.data, b.data)))


def mat_scale(field, c, a: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, tuple(tuple(field.mul(c, x) for x in r) for r in a.data))


def transpose(a: Matrix) -> Matrix:
    if a.rows == 0:
        return Matrix(a.cols, 0, tuple(() for _ in range(a.cols)))
    return Matrix(a.cols, a.rows, tuple(zip(*a.data)))


def hstack(field, mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise FieldError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise FieldError("hstack row mismatch")
    data = tuple(tuple(itertools.chain.from_iterable(m.data[i] for m in mats)) for i in range(rows))
    return Matrix(rows, sum(m.cols for m in mats), data)


def vstack(field, mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats]
    if not mats:
        raise FieldError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise FieldError("vstack column mismatch")
    data = tuple(itertools.chain.from_iterable(m.data for m in mats))
    return Matrix(sum(m.rows for m in mats), cols, data)


def block_matrix(field, rows: int, cols: int, blocks) -> Matrix:
    """The rows x cols matrix holding each (row offset, column offset,
    Matrix) of blocks at its place, and zero elsewhere."""
    cells = [[field.zero] * cols for _ in range(rows)]
    for r0, c0, b in blocks:
        for i, row in enumerate(b.data):
            cells[r0 + i][c0:c0 + b.cols] = row
    return Matrix(rows, cols, tuple(tuple(r) for r in cells))


def block_offsets(sizes) -> tuple[tuple, int]:
    """The starting index of each of the blocks of the given sizes, laid
    end to end, and their total size."""
    ends = tuple(itertools.accumulate(sizes, initial=0))
    return ends[:-1], ends[-1]


def block_diagonal(field, mats) -> Matrix:
    """The matrices of mats laid along the diagonal, zero elsewhere."""
    mats = tuple(mats)
    rows, total_rows = block_offsets(m.rows for m in mats)
    cols, total_cols = block_offsets(m.cols for m in mats)
    return block_matrix(field, total_rows, total_cols, zip(rows, cols, mats))


def mat_combination(field, coeffs, mats, rows: int, cols: int) -> Matrix:
    """The sum of c * a over the pairs (c, a) of coeffs and mats, all of
    shape rows x cols."""
    zero = field.zero
    acc = zero_matrix(field, rows, cols)
    for c, a in zip(coeffs, mats):
        if c != zero:
            acc = Matrix(rows, cols, tuple(tuple(field.add(e, field.mul(c, ae))
                                                 for e, ae in zip(er, ar))
                                           for er, ar in zip(acc.data, a.data)))
    return acc


def rref(field, a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the pivot columns, fully canonical."""
    rows = [list(r) for r in a.data]
    zero = field.zero
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = None
        for i in range(r, a.rows):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(a.rows):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return Matrix(a.rows, a.cols, tuple(tuple(r_) for r_ in rows)), tuple(pivots)


def rank(field, a: Matrix) -> int:
    return len(rref(field, a)[1])


def null_space(field, a: Matrix) -> Matrix:
    """Canonical kernel basis, one column per free variable in column order."""
    r, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    cols = []
    for j in free:
        v = [field.zero] * a.cols
        v[j] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(r.entry(i, j))
        cols.append(tuple(v))
    return matrix_from_cols(field, cols, rows=a.cols)


def col_space(field, a: Matrix) -> Matrix:
    """Canonical basis of the column space (rref rows of the transpose)."""
    r, pivots = rref(field, transpose(a))
    cols = [r.row(i) for i in range(len(pivots))]
    return matrix_from_cols(field, cols, rows=a.rows)


def solve_matrix(field, a: Matrix, b: Matrix) -> Matrix | None:
    """A particular solution X of A X = B (free variables zero), or None."""
    if a.rows != b.rows:
        raise FieldError("solve shape mismatch")
    aug = hstack(field, [a, b]) if b.cols else Matrix(a.rows, a.cols, a.data)
    r, pivots = rref(field, aug)
    if b.cols == 0:
        return zero_matrix(field, a.cols, 0)
    if any(p >= a.cols for p in pivots):
        return None
    x = [[field.zero] * b.cols for _ in range(a.cols)]
    for i, c in enumerate(pivots):
        for j in range(b.cols):
            x[c][j] = r.entry(i, a.cols + j)
    return Matrix(a.cols, b.cols, tuple(tuple(row) for row in x))


def solve(field, a: Matrix, v: Sequence) -> tuple | None:
    res = solve_matrix(field, a, matrix_from_cols(field, [tuple(v)], rows=a.rows))
    if res is None:
        return None
    return res.col(0)


def inverse(field, a: Matrix) -> Matrix | None:
    if a.rows != a.cols:
        return None
    x = solve_matrix(field, a, identity_matrix(field, a.rows))
    if x is None:
        return None
    if mat_mul(field, a, x) != identity_matrix(field, a.rows):
        return None
    return x


def is_invertible(field, a: Matrix) -> bool:
    return a.rows == a.cols and rank(field, a) == a.rows


def in_column_span(field, basis: Matrix, v: Sequence) -> bool:
    return solve(field, basis, v) is not None
