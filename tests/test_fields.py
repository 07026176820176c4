import random
from fractions import Fraction

import pytest

from finsite.fields import (FieldError, Matrix, PrimeField, RationalField, _is_prime,
                            block_diagonal, block_offsets, col_space,
                            field_by_label, hstack, identity_matrix, in_column_span,
                            inverse, mat_add, mat_mul, mat_scale, mat_sub, mat_vec,
                            matrix, matrix_from_cols, null_space, rank, rref, solve,
                            solve_matrix, transpose, vstack, zero_matrix)
from oracles import scalar_combination, scalar_mat_vec, scalar_solve, trial_division_is_prime

HELPER_FIELDS = [PrimeField(2), PrimeField(5), PrimeField(2 ** 64 - 59), RationalField()]


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.of(-1) == 4
    assert f5.of(Fraction(1, 2)) == 3
    with pytest.raises(FieldError):
        f5.inv(0)
    with pytest.raises(FieldError):
        PrimeField(6)


def test_primality_agrees_with_trial_division():
    assert [n for n in range(-2, 20_000) if _is_prime(n) != trial_division_is_prime(n)] == []
    assert not any(_is_prime(n) for n in (561, 1105, 41041))  # Carmichael numbers


def test_large_characteristics():
    assert PrimeField(2 ** 61 - 1).inv(2) == 2 ** 60
    with pytest.raises(FieldError, match="is not prime"):
        PrimeField((2 ** 31 - 1) ** 2)


def test_field_labels():
    assert field_by_label("F5") == PrimeField(5)
    assert field_by_label("7") == PrimeField(7)
    assert field_by_label("Q") == RationalField()
    assert field_by_label("q") == RationalField()
    with pytest.raises(FieldError):
        field_by_label("F6")


def test_fields_refuse_floats():
    with pytest.raises(FieldError, match="2.5"):
        PrimeField(5).of(2.5)
    with pytest.raises(FieldError, match="0.1"):
        RationalField().of(0.1)
    with pytest.raises(FieldError):
        matrix(PrimeField(5), [[1.0]])
    with pytest.raises(FieldError):
        RationalField().of(float("nan"))
    assert PrimeField(5).of(Fraction(6, 2)) == 3 and RationalField().of(3) == 3


def test_rationals_exact():
    q = RationalField()
    assert q.of(2) == Fraction(2)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), RationalField()])
def test_rref_and_rank(field):
    a = matrix(field, [[1, 2, 1], [2, 4, 2], [0, 1, 1]])
    r, pivots = rref(field, a)
    assert rank(field, a) == len(pivots) == 2
    # rref is idempotent
    assert rref(field, r)[0] == r


def test_null_space_is_kernel():
    f5 = PrimeField(5)
    a = matrix(f5, [[1, 2, 3], [2, 4, 1]])
    basis = null_space(f5, a)
    # rows are proportional mod 5, so the kernel is two dimensional
    assert basis.cols == 2
    for c in range(basis.cols):
        assert mat_vec(f5, a, basis.col(c)) == (0, 0)
    q = matrix(RationalField(), [[1, 2, 3], [2, 4, 1]])
    qbasis = null_space(RationalField(), q)
    assert qbasis.cols == 1
    assert mat_vec(RationalField(), q, qbasis.col(0)) == (0, 0)


def test_solve_and_inverse():
    q = RationalField()
    a = matrix(q, [[2, 1], [1, 1]])
    x = solve(q, a, (3, 2))
    assert x == (Fraction(1), Fraction(1))
    ainv = inverse(q, a)
    assert mat_mul(q, a, ainv) == identity_matrix(q, 2)
    singular = matrix(q, [[1, 1], [1, 1]])
    assert inverse(q, singular) is None
    assert solve(q, matrix(q, [[1], [1]]), (1, 2)) is None


def test_zero_dimensional_shapes():
    f2 = PrimeField(2)
    z = zero_matrix(f2, 0, 3)
    assert transpose(z) == zero_matrix(f2, 3, 0)
    assert rank(f2, z) == 0
    nb = null_space(f2, z)
    assert nb.rows == 3 and nb.cols == 3  # everything is in the kernel
    assert mat_mul(f2, zero_matrix(f2, 2, 0), zero_matrix(f2, 0, 3)) \
        == zero_matrix(f2, 2, 3)


def test_col_space_canonical():
    f5 = PrimeField(5)
    a = matrix(f5, [[1, 2], [2, 4]])
    cs = col_space(f5, a)
    assert cs.cols == 1
    # canonical: leading entry scaled to one
    assert cs.col(0) == (1, 2)


def test_solve_matrix_random_consistency():
    rng = random.Random(1)
    f5 = PrimeField(5)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = matrix(f5, [[rng.randrange(5) for _ in range(cols)] for _ in range(rows)])
        x = matrix(f5, [[rng.randrange(5)] for _ in range(cols)])
        b = mat_mul(f5, a, x)
        sol = solve_matrix(f5, a, b)
        assert sol is not None
        assert mat_mul(f5, a, sol) == b


def test_stacking():
    f2 = PrimeField(2)
    a = matrix(f2, [[1, 0]])
    b = matrix(f2, [[0, 1]])
    assert vstack(f2, [a, b]) == identity_matrix(f2, 2)
    assert hstack(f2, [matrix_from_cols(f2, [(1, 0)], rows=2),
                       matrix_from_cols(f2, [(0, 1)], rows=2)]) \
        == identity_matrix(f2, 2)


def test_block_layout_on_empty_and_zero_size_blocks():
    f5 = PrimeField(5)
    assert block_offsets([]) == ((), 0)
    assert block_offsets(iter([0, 2, 0, 3])) == ((0, 0, 2, 2), 5)
    assert block_diagonal(f5, []) == zero_matrix(f5, 0, 0)
    assert block_diagonal(f5, [zero_matrix(f5, 0, 2), zero_matrix(f5, 3, 0)]) \
        == zero_matrix(f5, 3, 2)
    a = matrix(f5, [[1, 2]])
    b = matrix(f5, [[3], [4]])
    # a 0x2 block moves the columns on, a 1x0 block the rows
    got = block_diagonal(f5, [a, zero_matrix(f5, 0, 2), zero_matrix(f5, 1, 0), b])
    assert got == matrix(f5, [[1, 2, 0, 0, 0],
                              [0, 0, 0, 0, 0],
                              [0, 0, 0, 0, 3],
                              [0, 0, 0, 0, 4]])


def _random(field, rng, rows, cols):
    return Matrix(rows, cols, tuple(tuple(field.rand(rng) if rng.random() < 0.6 else field.zero
                                          for _ in range(cols)) for _ in range(rows)))


def _elements(field, m: Matrix) -> bool:
    kind = Fraction if not field.char else int
    return all(type(x) is kind and (not field.char or 0 <= x < field.char)
               for row in m.data for x in row)


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=lambda k: k.label)
def test_sums_scalings_and_solves_equal_the_scalar_oracles(field):
    """mat_add, mat_sub and mat_scale against the entrywise combination,
    solve and in_column_span against Gauss-Jordan on [A | v], with right
    sides inside the column space and random ones, on empty shapes too."""
    rng = random.Random(23)
    one = field.one
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(1, 6), rng.randint(1, 6))
                                         for _ in range(20)]
    for rows, cols in shapes:
        a, b = _random(field, rng, rows, cols), _random(field, rng, rows, cols)
        for got, coeffs in ((mat_add(field, a, b), (one, one)),
                            (mat_sub(field, a, b), (one, field.neg(one)))):
            assert got == scalar_combination(field, coeffs, (a, b), rows, cols)
            assert (got.rows, got.cols) == (rows, cols) and _elements(field, got)
        for c in (field.rand(rng), field.zero, one):
            got = mat_scale(field, c, a)
            assert got == scalar_combination(field, (c,), (a,), rows, cols)
            assert (got.rows, got.cols) == (rows, cols) and _elements(field, got)
        inside = scalar_mat_vec(field, a, tuple(field.rand(rng) for _ in range(cols)))
        for v in (inside, tuple(field.rand(rng) for _ in range(rows))):
            want = scalar_solve(field, a, v)
            assert solve(field, a, v) == want
            assert in_column_span(field, a, v) == (want is not None)
        assert scalar_mat_vec(field, a, scalar_solve(field, a, inside)) == inside


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=lambda k: k.label)
def test_sums_and_solves_refuse_mismatched_shapes(field):
    for a, b in ((zero_matrix(field, 2, 3), zero_matrix(field, 3, 2)),
                 (zero_matrix(field, 0, 3), zero_matrix(field, 0, 2)),
                 (zero_matrix(field, 3, 0), zero_matrix(field, 2, 0))):
        with pytest.raises(FieldError, match="shape mismatch in addition"):
            mat_add(field, a, b)
        with pytest.raises(FieldError, match="shape mismatch in subtraction"):
            mat_sub(field, a, b)
        v = (field.one,) * (a.rows + 1)
        with pytest.raises(FieldError):
            solve(field, a, v)
        with pytest.raises(FieldError):
            in_column_span(field, a, v)
    with pytest.raises(FieldError, match="shape mismatch 2x3 @ 2"):
        mat_vec(field, zero_matrix(field, 2, 3), (field.one,) * 2)
