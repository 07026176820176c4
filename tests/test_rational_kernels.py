"""Property tests of the kernels over Q, which run on integer rows, against
the scalar-loop Fraction oracles: mixed and large denominators, rank
deficient and empty shapes, and tall sparse systems like the intertwiner
equations."""

import random
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finsite.algebras import involution_group_algebra_presheaf, skew_category_algebra
from finsite.fields import (Matrix, RationalField, inverse, mat_combination, mat_mul,
                            matrix, null_space, rref)
from finsite.modules import ALGEBRA_MODULE_KEY
from finsite.presheaves import intertwiner_basis
from finsite.sampling import random_algebra_module

from oracles import (scalar_combination, scalar_inverse, scalar_mat_mul,
                     scalar_null_space, scalar_rref)

Q = RationalField()

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])

# denominators small, up to 10^6, and far beyond
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, 10 ** 6),
                         st.integers(10 ** 6, 10 ** 24))
ENTRIES = st.one_of(st.just(0), st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                                          DENOMINATORS))
# the coefficients of an intertwiner equation row, mostly zero
SPARSE = st.sampled_from((0,) * 8 + (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))


@st.composite
def matrices(draw, rows=st.integers(0, 7), cols=st.integers(0, 7), entries=ENTRIES):
    r, c = draw(rows), draw(cols)
    return matrix(Q, [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)],
                  cols=c)


@st.composite
def rank_deficient(draw, square=False):
    """L R with fewer inner columns than either side."""
    rows = draw(st.integers(1, 7))
    cols = rows if square else draw(st.integers(1, 7))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    left = draw(matrices(rows=st.just(rows), cols=st.just(inner)))
    right = draw(matrices(rows=st.just(inner), cols=st.just(cols)))
    return scalar_mat_mul(Q, left, right)


TALL_SPARSE = matrices(rows=st.integers(10, 40), cols=st.integers(1, 9), entries=SPARSE)
ANY = st.one_of(matrices(), rank_deficient(), TALL_SPARSE)
EMPTY = (Matrix(0, 0, ()), Matrix(0, 3, ()), Matrix(3, 0, ((),) * 3))


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@PROPERTIES
@given(ANY)
@example(EMPTY[0])
@example(EMPTY[1])
@example(EMPTY[2])
def test_rref_and_null_space_equal_the_oracle(a):
    got = rref(Q, a)
    assert got == scalar_rref(Q, a)
    assert _all_fractions(got[0].data)
    kernel = null_space(Q, a)
    assert (kernel.rows, kernel.cols) == (a.cols, a.cols - len(got[1]))
    assert [kernel.col(j) for j in range(kernel.cols)] == scalar_null_space(Q, a)
    assert _all_fractions(kernel.data)


@st.composite
def products(draw):
    a = draw(ANY)
    b = draw(st.one_of(matrices(rows=st.just(a.cols)),
                       matrices(rows=st.just(a.cols), entries=SPARSE)))
    return a, b


@PROPERTIES
@given(products())
@example((EMPTY[0], EMPTY[0]))
@example((EMPTY[2], EMPTY[1]))
@example((EMPTY[1], matrix(Q, [[1, 2]] * 3)))
@example((matrix(Q, [[0, 1, 0], [0, 0, 0], [Fraction(-2, 3), 0, 0]]),
          matrix(Q, [[Fraction(1, 2), 3], [0, Fraction(-7, 5)], [0, 0]])))
def test_mat_mul_equals_the_oracle(pair):
    a, b = pair
    got = mat_mul(Q, a, b)
    assert got == scalar_mat_mul(Q, a, b)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert _all_fractions(got.data)


@PROPERTIES
@given(st.one_of(st.integers(0, 6).flatmap(lambda n: matrices(st.just(n), st.just(n))),
                 rank_deficient(square=True)))
def test_inverse_equals_the_oracle(a):
    got = inverse(Q, a)
    assert got == scalar_inverse(Q, a)
    if got is not None:
        assert _all_fractions(got.data)


@st.composite
def combinations(draw):
    """Coefficients, mostly zero or not, and as many matrices of one shape."""
    rows, cols, n = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 6))
    coeffs = draw(st.lists(st.one_of(ENTRIES, SPARSE), min_size=n, max_size=n))
    entries = draw(st.sampled_from((ENTRIES, SPARSE)))
    mats = [draw(matrices(st.just(rows), st.just(cols), entries)) for _ in range(n)]
    return coeffs, mats, rows, cols


@PROPERTIES
@given(combinations())
@example(([0, 0], [matrix(Q, [[1, 2]]), matrix(Q, [[3, 4]])], 1, 2))
@example(([Fraction(1, 2)], [EMPTY[2]], 3, 0))
def test_mat_combination_equals_the_oracle(case):
    coeffs, mats, rows, cols = case
    got = mat_combination(Q, coeffs, mats, rows, cols)
    assert got == scalar_combination(Q, coeffs, mats, rows, cols)
    assert (got.rows, got.cols) == (rows, cols)
    assert _all_fractions(got.data)


def _equations(src, dst) -> Matrix:
    """phi @ s - t @ phi = 0 for every action pair (s, t), phi read row-major,
    spelt out entry by entry apart from the library's equation builder."""
    n, m = dst.dim, src.dim
    rows = []
    for s, t in zip(src.actions, dst.actions):
        for i in range(n):
            for j in range(m):
                row = [Fraction(0)] * (n * m)
                for c in range(m):
                    row[i * m + c] += s.entry(c, j)
                for c in range(n):
                    row[c * m + j] -= t.entry(i, c)
                rows.append(row)
    return matrix(Q, rows, cols=n * m)


def test_intertwiner_basis_equals_the_oracle_null_space():
    r = involution_group_algebra_presheaf(Q)
    skew = skew_category_algebra(r.cat, r)
    m1, m2 = (random_algebra_module(skew, random.Random(seed)) for seed in (1, 4))
    assert (m1.dim, m2.dim) == (5, 5)
    basis = intertwiner_basis(m1.rep, m2.rep)
    expected = scalar_null_space(Q, _equations(m1, m2))
    assert expected, "the pair should have intertwiners"
    assert [tuple(x for row in comps[ALGEBRA_MODULE_KEY].data for x in row)
            for comps in basis] == expected
