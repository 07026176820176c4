"""Exact scalar fields and dense exact linear algebra.

Two coefficient fields are supported: prime fields (elements are ints
canonicalised to ``0..p-1``) and the rationals (elements are
``fractions.Fraction``).  Floating point never appears anywhere.  The
field classes hold scalar arithmetic only.

Matrices are immutable ``Matrix(rows, cols, data)`` records so that
zero-dimensional spaces keep their shape information.  Two kernels do
the matrix work, and every other operation here is one of them:

* ``mat_mul``, the product: one row of B per row of A when A holds at
  most one nonzero entry per row, else over Q on integer rows and over
  F_p packed (each row in one Python int, reduced once per entry at the
  end, delayed reduction as in FFLAS-FFPACK), whatever the size: on the
  products the benchmark workloads make, summing the small and sparse
  ones on rows saved no time.  Matrix-vector products, sums, scalings
  and linear combinations are products too.
* ``rref``, Gauss-Jordan with pivot columns taken in order, so reduced
  forms and the bases derived from them are canonical: over F_p packed
  for the denser matrices (see _packed_rref) and otherwise on sparse
  rows, dicts from column to nonzero entry (see _sparse_rref;
  ``sparse_null_space`` takes equations in that form), over Q
  fraction-free on Python ints.

``shared_products`` batches the products that share a factor.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import EngineError


class FieldError(EngineError):
    pass


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first twelve primes as witnesses,
    exact for n below 3.3 * 10^24."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic of integers modulo a prime."""

    __slots__ = ("p",)

    enumerable = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= 2 ** 64:
            raise FieldError(f"characteristic {p} is not below the limit 2^64")
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def label(self) -> str:
        return f"F{self.p}"

    def of(self, n):
        if isinstance(n, float):
            raise FieldError(f"{n!r} is a float, not an element of F{self.p}")
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
        if isinstance(n, float):
            raise FieldError(f"{n!r} is a float, not an exact rational")
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
    if not text.isdecimal():
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
    zero = (field.zero,) * n
    return Matrix(n, n, tuple(zero[:i] + (field.one,) + zero[i + 1:] for i in range(n)))


def zero_matrix(field, rows: int, cols: int) -> Matrix:
    """Every row is the same tuple: rows are immutable."""
    return Matrix(rows, cols, ((field.zero,) * cols,) * rows)


def unit_vec(field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec(field, seq) -> tuple:
    return tuple(field.of(x) for x in seq)


def mat_vec(field, a: Matrix, v: Sequence) -> tuple:
    if a.cols != len(v):
        raise FieldError(f"shape mismatch {a.rows}x{a.cols} @ {len(v)}")
    return tuple(r[0] for r in mat_mul(field, a, Matrix(len(v), 1, tuple((x,) for x in v))).data)


_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bound: int) -> int:
    """The bytes of the narrowest slot that holds every int from 0 to
    bound: 1, 2, 4 or 8, or else a whole number of 8-byte words, so that
    struct packs and unpacks every slot."""
    size = (bound.bit_length() + 7) // 8
    return 1 << max(size - 1, 0).bit_length() if size <= 8 else -(-size // 8) * 8


def _pack_rows(p: int, entries, runs: int, size: int, width: int) -> list:
    """The runs * size entries of F_p, size at a time, each run as one int
    whose k-th width-byte slot, counted from the least significant, holds
    its k-th entry: struct packs the entries at their own width, strided
    slice assignment spreads them to the slots, and int.from_bytes reads
    each run."""
    entry = _slot_bytes(p - 1)
    raw = struct.pack(f"<{runs * size}{_STRUCT_CODES[entry]}", *entries)
    if width != entry:
        slots = bytearray(width * runs * size)
        for k in range(entry):
            slots[k::width] = raw[k::entry]
        raw = slots
    step = width * size
    return [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]


def _unpacked(p: int, sums: list, size: int, width: int):
    """The size slots of each int of sums in turn, each reduced mod p."""
    raw = b"".join([s.to_bytes(width * size, "little") for s in sums])
    if width <= 8:
        return map(p.__rmod__, struct.unpack(f"<{len(sums) * size}{_STRUCT_CODES[width]}", raw))
    words = struct.unpack(f"<{len(raw) // 8}Q", raw)
    step = width // 8
    values = words[step - 1::step]
    for k in range(step - 2, -1, -1):
        values = map(operator.or_, words[k::step],
                     map(operator.lshift, values, itertools.repeat(64)))
    return map(p.__rmod__, values)


def mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    """A B, on one of three routes. When each row of A holds at most one
    nonzero entry c, at column j, as the maps of linearised representables
    and their products do, each row of A B is row j of B scaled by c (row
    j itself when c is one). Otherwise, over Q see _rational_mat_mul, and
    over F_p the product is packed (see _packed_mat_mul), whatever its
    size: replayed in process, the F_p products of the bundle and sheafify
    benchmark workloads and of a 2^64-59 sheafification and round trip
    took no longer than with the small and sparse ones summed on rows. The
    cost is on sparse products no workload makes: 5% nonzero, 3x34 by
    34x34 over F_5 takes 3.3 times as long (+32 us), and 64x8 by 8x34 at
    p = 2^64-59 4.4 times (+0.35 ms). Zero is the only falsy element."""
    if a.cols != b.rows:
        raise FieldError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    zero, out = (field.zero,) * b.cols, []
    for row in a.data:
        if row.count(0) + 1 < a.cols:
            break
        j = next(itertools.compress(range(a.cols), row), None)
        out.append(zero if j is None else b.data[j] if row[j] == field.one
                   else tuple([field.mul(row[j], x) for x in b.data[j]]))
    else:
        return Matrix(a.rows, b.cols, tuple(out))
    if isinstance(field, RationalField):
        return _rational_mat_mul(a, b)
    return _packed_mat_mul(field.p, a, b)


def _packed_mat_mul(p: int, a: Matrix, b: Matrix) -> Matrix:
    """A B over F_p with each nonzero row of B packed into one int (see
    _pack_rows) in slots of _slot_bytes(n * (p - 1)^2) bytes, n being the
    most nonzero entries of a row of A that face a nonzero row of B, so no
    sum carries into the next slot: row i of A B is one sum of a_ij times
    packed row j over those a_ij, unpacked and reduced once per entry. A B
    is zero when B has no nonzero row."""
    live = list(map(any, b.data))
    inner = sum(live)
    if not inner:
        return Matrix(a.rows, b.cols, ((0,) * b.cols,) * a.rows)
    rows = a.data if inner == a.cols else [tuple(itertools.compress(row, live)) for row in a.data]
    width = _slot_bytes((inner - min([row.count(0) for row in rows])) * (p - 1) ** 2)
    packed = _pack_rows(p, itertools.chain.from_iterable(itertools.compress(b.data, live)),
                        inner, b.cols, width)
    sums = [sum(map(operator.mul, itertools.compress(row, row), itertools.compress(packed, row)))
            for row in rows]
    return Matrix(a.rows, b.cols, tuple(zip(*[_unpacked(p, sums, b.cols, width)] * b.cols)))


def _integer_row(row) -> tuple[int, list]:
    """The lcm d of the denominators of a row of rationals, and d times
    the row, as ints."""
    if not row:
        return 1, []
    nums, dens = zip(*[x.as_integer_ratio() for x in row])
    d = math.lcm(*dens)
    if d == 1:
        return 1, list(nums)
    return d, [n * (d // q) for n, q in zip(nums, dens)]


def _fraction(n: int, d: int) -> Fraction:
    return Fraction(n) if d == 1 else Fraction(n, d)


def _rational_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """A B over Q on integer rows of A and integer columns of B: each entry
    is one integer dot product over the nonzero entries of its row of A,
    divided once by the two denominators."""
    zero = RationalField.zero
    if not (a.cols and b.cols):
        return Matrix(a.rows, b.cols, ((zero,) * b.cols,) * a.rows)
    cols = [_integer_row(c) for c in zip(*b.data)]
    out = []
    for row in a.data:
        da, ia = _integer_row(row)
        vals = [x for x in ia if x]
        if not vals:
            out.append((zero,) * b.cols)
            continue
        entries = []
        for db, ib in cols:
            n = sum(map(operator.mul, vals, itertools.compress(ib, ia)))
            entries.append(_fraction(n, da * db) if n else zero)
        out.append(tuple(entries))
    return Matrix(a.rows, b.cols, tuple(out))


def mat_add(field, a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise FieldError("shape mismatch in addition")
    return mat_combination(field, (field.one, field.one), (a, b), a.rows, a.cols)


def mat_sub(field, a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise FieldError("shape mismatch in subtraction")
    return mat_combination(field, (field.one, field.neg(field.one)), (a, b), a.rows, a.cols)


def mat_scale(field, c, a: Matrix) -> Matrix:
    return mat_combination(field, (c,), (a,), a.rows, a.cols)


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
    if len(mats) == 1:
        return mats[0]
    data = tuple(map(tuple, map(itertools.chain.from_iterable, zip(*[m.data for m in mats]))))
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
    shape rows x cols: the product of the row of nonzero coefficients with
    the matrices, each flattened into a row. A single coefficient one, as
    in the action of a basis element, returns its matrix itself."""
    pairs = [(c, a) for c, a in zip(coeffs, mats) if c]
    if len(pairs) == 1 and pairs[0][0] == field.one:
        return pairs[0][1]
    flat = mat_mul(field, Matrix(1, len(pairs), (tuple(c for c, _ in pairs),)),
                   Matrix(len(pairs), rows * cols, tuple(
                       tuple(itertools.chain.from_iterable(a.data)) for _, a in pairs))).data[0]
    return Matrix(rows, cols, tuple(flat[i * cols:(i + 1) * cols] for i in range(rows)))


def shared_products(field, mats, left: Matrix | None = None,
                    right: Matrix | None = None) -> list:
    """[L M R for M in mats], L or R left out when None, from at most two
    products: the Ms stacked in a column times R, then L times the results
    side by side."""
    mats = list(mats)
    if not mats:
        return []
    if right is not None:
        stacked = mat_mul(field, vstack(field, mats), right).data
        starts, _ = block_offsets(m.rows for m in mats)
        mats = [Matrix(m.rows, right.cols, stacked[lo:lo + m.rows]) for lo, m in zip(starts, mats)]
    if left is not None:
        wide = mat_mul(field, left, hstack(field, mats)).data
        starts, _ = block_offsets(m.cols for m in mats)
        mats = [Matrix(left.rows, m.cols, tuple(row[lo:lo + m.cols] for row in wide))
                for lo, m in zip(starts, mats)]
    return mats


def _sparse_rows(rows) -> list:
    """The rows given as dicts from column to nonzero entry."""
    return [dict(itertools.compress(enumerate(row), row)) for row in rows]


def _dense_row(row: dict, cols: int, zero) -> tuple:
    out = [zero] * cols
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _sparse_rref(p: int, rows: list, cols: int) -> tuple[list, tuple[int, ...]]:
    """Gauss-Jordan over F_p on the sparse rows given, reduced in place:
    the nonzero rows of the reduced row echelon form and their pivot
    columns. holders[j] is the set of rows with an entry in column j. The
    columns are taken in order, and each pivots on the candidate row, one
    not yet a pivot row, with the fewest entries, ties going to the lower
    index (after Markowitz); every other row holding the column is cleared,
    earlier pivot rows too. The reduced form is unique, so it does not
    depend on the pivot rows chosen, nor on the order of the sets."""
    holders = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    taken, out = set(), []
    for c in range(cols):
        here = holders[c] - taken
        if not here:
            continue
        r = min(here, key=lambda i: (len(rows[i]), i))
        taken.add(r)
        inv = pow(rows[r][c], -1, p)
        pivot = rows[r] = {j: x * inv % p for j, x in rows[r].items()}
        terms = [(j, x) for j, x in pivot.items() if j != c]
        for i in holders[c]:
            if i == r:
                continue
            row = rows[i]
            f = p - row.pop(c)
            for j, x in terms:
                y = row.get(j)
                if y is None:
                    row[j] = f * x % p
                    holders[j].add(i)
                elif y := (y + f * x) % p:
                    row[j] = y
                else:
                    del row[j]
                    holders[j].discard(i)
        out.append((c, pivot))
    return [row for _, row in out], tuple(c for c, _ in out)


def _packed_rref(p: int, a: Matrix) -> tuple[list, tuple[int, ...]]:
    """Gauss-Jordan over F_p on the rows of A each packed into one int (see
    _pack_rows): the nonzero rows of the reduced row echelon form and their
    pivot columns. Clearing column c adds (p - x) times the pivot row to
    each other row with x = entry c mod p, so a row takes at most one sum
    per pivot, and slots of _slot_bytes((p - 1) + r (p - 1)^2), r =
    min(rows, cols), never carry. Entries are reduced only when a pivot
    row is normalised and at the end. The columns are taken in order, each
    pivoting on the first candidate row; the reduced form is unique."""
    cols = a.cols
    if not (a.rows and cols):
        return [], ()
    width = _slot_bytes((p - 1) + min(a.rows, cols) * (p - 1) ** 2)
    bits, mask = 8 * width, (1 << 8 * width) - 1
    rows = _pack_rows(p, itertools.chain.from_iterable(a.data), a.rows, cols, width)
    free, order, pivots = list(range(a.rows)), [], []
    for c in range(cols):
        shift = c * bits
        r = next((i for i in free if (rows[i] >> shift & mask) % p), None)
        if r is None:
            continue
        free.remove(r)
        inv = pow((rows[r] >> shift & mask) % p, -1, p)
        scaled = [x * inv % p for x in _unpacked(p, rows[r:r + 1], cols, width)]
        pivot = _pack_rows(p, scaled, 1, cols, width)[0]
        rows = [row + (p - x) * pivot if x else row
                for row, x in zip(rows, [(row >> shift & mask) % p for row in rows])]
        rows[r] = pivot
        order.append(r)
        pivots.append(c)
        if not free:
            break
    flat = tuple(_unpacked(p, [rows[r] for r in order], cols, width))
    return [flat[i:i + cols] for i in range(0, len(flat), cols)], tuple(pivots)


def rref(field, a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the pivot columns, fully canonical.
    Over F_p a matrix with at least 192 nonzero entries, one in eight or
    more, is reduced on packed rows (see _packed_rref), any other on
    sparse rows (see _sparse_rref). On a grid of 990 shapes from 2x2 to
    64x128, 5% to 100% nonzero, this rule packed 355 of them over F_5 and
    at p = 2^64-59, in a median 0.40 and 0.61 of the time of the sparse
    route, and the whole grid took 0.26 and 0.38 of its sparse time; the
    packed route lost on 13 and 77 of those it took, by at most 1.6 and
    3.3 times, and would have won on 76 and 8 of the others. Both routes
    earn their code: the rref calls of one pass of the bundle benchmark
    workload took 31 ms, against 40 ms packed only and 55 ms sparse only,
    and those of a sheafify pass 4.3, 4.4 and 5.1 ms."""
    if isinstance(field, RationalField):
        return _rational_rref(a)
    nonzero = a.rows * a.cols - sum([row.count(0) for row in a.data])
    if nonzero >= 192 and 8 * nonzero >= a.rows * a.cols:
        rows, pivots = _packed_rref(field.p, a)
    else:
        rows, pivots = _sparse_rref(field.p, _sparse_rows(a.data), a.cols)
        rows = [_dense_row(row, a.cols, 0) for row in rows]
    return Matrix(a.rows, a.cols, tuple(rows + [(0,) * a.cols] * (a.rows - len(rows)))), pivots


def _rational_rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Gauss-Jordan over Q, fraction-free: each row is scaled to integers
    once; clearing column c in a row with entry f against the pivot p is
    row = (p/g) row - (f/g) pivot row, g = gcd(p, f), and the row is then
    divided by the gcd of its entries. Only the rows with a nonzero entry
    in column c change, unlike one-step Bareiss, which rescales every row
    at every pivot. Each pivot row is divided by its pivot at the end."""
    zero = RationalField.zero
    rows = [_integer_row(r)[1] for r in a.data]
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = next((i for i in range(r, a.rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                pg, fg = p // g, f // g
                row = [pg * x - fg * y for x, y in zip(row, pivot)]
                content = math.gcd(*row)
                rows[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    out = [tuple(_fraction(x, row[c]) if x else zero for x in row)
           for row, c in zip(rows, pivots)]
    out += [(zero,) * a.cols] * (a.rows - r)
    return Matrix(a.rows, a.cols, tuple(out)), tuple(pivots)


def rank(field, a: Matrix) -> int:
    return len(rref(field, a)[1])


def sparse_null_space(field, rows: Iterable[dict], cols: int) -> Matrix:
    """The null_space of the matrix with cols columns whose rows are the
    dicts of rows, from column to entry, zero entries left out or not; the
    dicts are not changed. Over Q the rows are written out dense once.
    The row of the n-th free column of the basis is e_n, and the row of
    pivot column c minus the free entries of its row of the reduced form."""
    if isinstance(field, RationalField):
        rows = list(rows)
        reduced, pivots = _rational_rref(Matrix(len(rows), cols, tuple(
            _dense_row(row, cols, field.zero) for row in rows)))
        reduced = _sparse_rows(reduced.data[:len(pivots)])
    else:
        reduced, pivots = _sparse_rref(
            field.p, [{j: x for j, x in row.items() if x} for row in rows], cols)
    free = {j: n for n, j in enumerate(sorted(set(range(cols)).difference(pivots)))}
    zero = (field.zero,) * len(free)
    data = {j: zero[:n] + (field.one,) + zero[n + 1:] for j, n in free.items()}
    for c, row in zip(pivots, reduced):
        out = list(zero)
        for j, x in row.items():
            if j != c:
                out[free[j]] = field.neg(x)
        data[c] = tuple(out)
    return Matrix(cols, len(free), tuple(data[j] for j in range(cols)))


def null_space(field, a: Matrix) -> Matrix:
    """Canonical kernel basis, one column per free variable in column order."""
    return sparse_null_space(field, _sparse_rows(a.data), a.cols)


def bottom_up_basis(field, w: Matrix) -> Matrix:
    """W (W_F)^-1 for W of independent columns: the basis null_space gives
    of their span as a kernel. F is the set of rows of W each outside the
    span of the rows below it, the free variables, read as the pivots of
    the reduced form of W^T with its columns reversed, whose rows, their
    entries reversed back, are the columns of W (W_F)^-1 from the last."""
    if not (w.rows and w.cols):
        return zero_matrix(field, w.rows, w.cols)
    reduced = rref(field, Matrix(w.cols, w.rows, tuple(zip(*w.data[::-1]))))[0]
    return Matrix(w.rows, w.cols, tuple(zip(*[row[::-1] for row in reversed(reduced.data)])))


class BasisRows(NamedTuple):
    """The rows of a basis as basis_coordinates reads them: the unit row of
    each column, the zero rows, the other rows (i, s, c) holding one entry
    c at column s, and the rows of two entries or more with their indices."""
    unit: tuple
    zero: tuple
    single: tuple
    dense: tuple
    dense_rows: Matrix


def basis_rows(field, basis: Matrix) -> BasisRows:
    """The BasisRows of a basis in which every column j has a unit row, a
    row equal to e_j: a null_space basis at each free variable, a
    col_space basis at each pivot. A column lacking one raises
    FieldError."""
    unit = [None] * basis.cols
    zero, single, dense = [], [], []
    for i, row in enumerate(basis.data):
        support = list(itertools.compress(range(basis.cols), row))
        if len(support) > 1:
            dense.append(i)
        elif not support:
            zero.append(i)
        elif row[support[0]] == field.one and unit[support[0]] is None:
            unit[support[0]] = i
        else:
            single.append((i, support[0], row[support[0]]))
    if None in unit:
        raise FieldError(f"basis column {unit.index(None)} has no unit row")
    return BasisRows(tuple(unit), tuple(zero), tuple(single), tuple(dense),
                     Matrix(len(dense), basis.cols, tuple(basis.data[i] for i in dense)))


def basis_coordinates(field, basis: Matrix, y: Matrix, rows: BasisRows | None = None
                      ) -> Matrix | None:
    """The X with basis X = y, or None when a column of y leaves the span
    of basis, for a basis with a unit row per column (see basis_rows;
    rows, when given, are its BasisRows). X is the rows of y at the unit
    rows, checked row by row: a zero row of the basis asks a zero row of
    y, a row c e_s asks c X[s] (X[s] itself when c is one), and the rows
    of two entries or more are checked by one product."""
    if basis.rows != y.rows:
        raise FieldError("solve shape mismatch")
    rows = rows or basis_rows(field, basis)
    got = y.data
    x = Matrix(basis.cols, y.cols, tuple(got[i] for i in rows.unit))
    if any(any(got[i]) for i in rows.zero):
        return None
    for i, s, c in rows.single:
        xs = x.data[s]
        if got[i] != (xs if c == field.one else tuple([field.mul(c, e) for e in xs])):
            return None
    if rows.dense and mat_mul(field, rows.dense_rows, x).data != tuple(got[i] for i in rows.dense):
        return None
    return x


def col_space(field, a: Matrix) -> Matrix:
    """Canonical basis of the column space (rref rows of the transpose)."""
    r, pivots = rref(field, transpose(a))
    return transpose(Matrix(len(pivots), a.rows, r.data[:len(pivots)]))


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
