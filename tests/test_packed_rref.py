"""Property tests of the packed Gauss-Jordan elimination over F_p, which
holds a whole row in one int, against the sparse one: primes from 2 to
the largest below 2^64, empty shapes, zero rows, rank-deficient, wide and
tall matrices, with p - 1 in one of three nonzero entries, where a carry
from one slot into the next would show; and the route rref takes on
either side of its density rule, checked against the scalar loop."""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finsite import fields
from finsite.fields import Matrix, PrimeField, rref

from oracles import scalar_mat_mul, scalar_rref

PRIMES = (2, 3, 5, 2 ** 61 - 1, 2 ** 64 - 59)

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])


def _matrix(rng, p, rows, cols, density):
    def entry():
        if rng.random() >= density:
            return 0
        return p - 1 if rng.random() < 1 / 3 else rng.randrange(1, p)
    return Matrix(rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def _sparse(p, a: Matrix):
    rows, pivots = fields._sparse_rref(p, fields._sparse_rows(a.data), a.cols)
    return [fields._dense_row(row, a.cols, 0) for row in rows], pivots


@st.composite
def shaped(draw):
    p = draw(st.sampled_from(PRIMES))
    shape = draw(st.sampled_from(("empty", "zero rows", "rank deficient", "wide", "tall",
                                  "square")))
    density = draw(st.sampled_from((0.1, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if shape == "empty":
        n = rng.randrange(6)
        return p, Matrix(0, n, ()) if rng.random() < 0.5 else Matrix(n, 0, ((),) * n)
    if shape == "zero rows":
        a = _matrix(rng, p, rng.randint(2, 12), rng.randint(1, 12), density)
        zero = (0,) * a.cols
        return p, Matrix(a.rows, a.cols, tuple(zero if rng.random() < 0.4 else row
                                               for row in a.data))
    if shape == "rank deficient":
        rows, cols = rng.randint(2, 16), rng.randint(2, 16)
        inner = rng.randint(1, min(rows, cols) - 1)
        k = PrimeField(p)
        return p, scalar_mat_mul(k, _matrix(rng, p, rows, inner, density),
                                 _matrix(rng, p, inner, cols, density))
    rows, cols = {"wide": (rng.randint(1, 8), rng.randint(16, 48)),
                  "tall": (rng.randint(16, 48), rng.randint(1, 8)),
                  "square": (rng.randint(1, 16),) * 2}[shape]
    return p, _matrix(rng, p, rows, cols, density)


@PROPERTIES
@given(shaped())
def test_packed_rref_equals_the_sparse_rref(case):
    p, a = case
    got = fields._packed_rref(p, a)
    assert got == _sparse(p, a)
    assert all(type(x) is int and 0 <= x < p for row in got[0] for x in row)


@pytest.mark.parametrize("p", PRIMES)
def test_full_rank_rows_of_p_minus_one_keep_their_slots(p):
    """Every clearing adds (p - 1) (p - 1) at most to a slot, 40 times over
    at rank 40: the widest sums the slot width is sized for."""
    rng = random.Random(p)
    a = Matrix(40, 48, tuple(tuple(p - 1 if rng.random() < 0.8 else rng.randrange(p)
                                   for _ in range(48)) for _ in range(40)))
    got = fields._packed_rref(p, a)
    assert got == _sparse(p, a)
    reduced, pivots = scalar_rref(PrimeField(p), a)
    assert got == (list(reduced.data[:len(pivots)]), pivots)


def _with_nonzero(p, rows, cols, nonzero):
    """rows x cols with its first nonzero entries in row-major order set."""
    flat = [p - 1 if i % 3 else 1 + i % (p - 1) for i in range(nonzero)]
    flat += [0] * (rows * cols - nonzero)
    return Matrix(rows, cols, tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(rows)))


# (rows, cols, nonzero entries, packed): at least 192 nonzero entries, at
# least one in eight, on either side of each bound
RULE_CASES = ((12, 16, 192, True), (12, 16, 191, False), (64, 32, 256, True),
              (64, 32, 255, False), (4, 48, 192, True), (48, 4, 191, False),
              (0, 200, 0, False), (200, 0, 0, False))


@pytest.mark.parametrize("case", RULE_CASES, ids=lambda c: "{}x{} {}".format(*c))
@pytest.mark.parametrize("p", PRIMES)
def test_rref_takes_the_packed_route_on_the_dense_side_of_its_rule(p, case):
    rows, cols, nonzero, packed = case
    a = _with_nonzero(p, rows, cols, nonzero)
    k = PrimeField(p)
    with mock.patch.object(fields, "_packed_rref", wraps=fields._packed_rref) as spy:
        got = rref(k, a)
    assert spy.called == packed
    assert got == scalar_rref(k, a)
