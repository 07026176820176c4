"""Property tests of the sparse Gauss-Jordan elimination over F_p against
the dense loop it replaced, over F_2, F_5 and the largest prime below
2^64: empty shapes, zero rows, tall systems (6 rows per column), rank
deficient products, systems with one entry in a thousand nonzero, like
the family equations at scale, and fully dense ones. The sparse null
space entry point is also checked over Q against the scalar-loop oracle."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finsite.fields import (Matrix, PrimeField, RationalField, col_space, matrix, null_space,
                            rank, rref, sparse_null_space, transpose)

from oracles import dense_rref, scalar_mat_mul, scalar_null_space

FIELDS = (PrimeField(2), PrimeField(5), PrimeField(2 ** 64 - 59))

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])


def _matrix(rng, p, rows, cols, density):
    """Entries nonzero with the given probability, p - 1 in one of three
    nonzero entries."""
    def entry():
        if rng.random() >= density:
            return 0
        return p - 1 if rng.random() < 1 / 3 else rng.randrange(1, p)
    return Matrix(rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def _shaped(rng, p, shape):
    if shape == "empty":
        n = rng.randrange(6)
        return Matrix(0, n, ()) if rng.random() < 0.5 else Matrix(n, 0, ((),) * n)
    if shape == "zero rows":
        a = _matrix(rng, p, rng.randint(1, 9), rng.randint(1, 9), 0.5)
        zero = set(rng.sample(range(a.rows), rng.randint(1, a.rows)))
        return Matrix(a.rows, a.cols, tuple((0,) * a.cols if i in zero else row
                                            for i, row in enumerate(a.data)))
    if shape == "tall":
        cols = rng.randint(1, 7)
        return _matrix(rng, p, 6 * cols, cols, rng.choice((0.2, 0.5)))
    if shape == "rank deficient":
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        inner = rng.randrange(min(rows, cols))
        return scalar_mat_mul(PrimeField(p), _matrix(rng, p, rows, inner, 0.7),
                              _matrix(rng, p, inner, cols, 0.7))
    if shape == "sparse":
        return _matrix(rng, p, rng.randint(20, 60), rng.randint(100, 200), 0.001)
    return _matrix(rng, p, rng.randint(1, 10), rng.randint(1, 10), 1.0)


SHAPES = ("empty", "zero rows", "tall", "rank deficient", "sparse", "dense")


@st.composite
def systems(draw):
    field = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return field, _shaped(rng, field.p, draw(st.sampled_from(SHAPES)))


def _oracle_null_space(field, a: Matrix) -> Matrix:
    """The kernel basis read off dense_rref, one column per free variable."""
    r, pivots = dense_rref(field, a)
    cols = []
    for j in (j for j in range(a.cols) if j not in pivots):
        v = [field.zero] * a.cols
        v[j] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(r.entry(i, j))
        cols.append(tuple(v))
    return transpose(Matrix(len(cols), a.cols, tuple(cols)))


def _sparse(rng, a: Matrix) -> list:
    """The rows of a as dicts, keys in a shuffled order, with some of the
    zero entries written out."""
    rows = []
    for row in a.data:
        keys = [j for j, x in enumerate(row) if x or rng.random() < 0.1]
        rng.shuffle(keys)
        rows.append({j: row[j] for j in keys})
    return rows


@PROPERTIES
@given(systems())
def test_rref_and_rank_equal_the_dense_oracle(system):
    field, a = system
    got = rref(field, a)
    assert got == dense_rref(field, a)
    assert all(type(x) is int and 0 <= x < field.p for row in got[0].data for x in row)
    assert rank(field, a) == len(got[1])


@PROPERTIES
@given(systems())
def test_col_space_equals_the_dense_oracle(system):
    field, a = system
    r, pivots = dense_rref(field, transpose(a))
    assert col_space(field, a) == transpose(Matrix(len(pivots), a.rows, r.data[:len(pivots)]))


@PROPERTIES
@given(systems(), st.integers(0, 2 ** 32))
def test_null_spaces_equal_the_dense_oracle(system, seed):
    field, a = system
    want = _oracle_null_space(field, a)
    assert null_space(field, a) == want
    rows = _sparse(random.Random(seed), a)
    before = [dict(row) for row in rows]
    assert sparse_null_space(field, rows, a.cols) == want
    assert rows == before


Q_ENTRIES = st.one_of(st.just(0), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7)))


@st.composite
def rational_systems(draw):
    rows, cols = draw(st.integers(0, 24)), draw(st.integers(0, 7))
    return matrix(RationalField(), [draw(st.lists(Q_ENTRIES, min_size=cols, max_size=cols))
                                    for _ in range(rows)], cols=cols)


@PROPERTIES
@given(rational_systems(), st.integers(0, 2 ** 32))
def test_sparse_null_space_over_q_equals_the_scalar_oracle(a, seed):
    q = RationalField()
    got = sparse_null_space(q, _sparse(random.Random(seed), a), a.cols)
    assert (got.rows, got.cols) == (a.cols, a.cols - rank(q, a))
    assert [got.col(j) for j in range(got.cols)] == scalar_null_space(q, a)
    assert all(type(x) is Fraction for row in got.data for x in row)
