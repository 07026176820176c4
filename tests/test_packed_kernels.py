"""Property tests of the packed F_p kernels, which hold a whole row in one
int, against the scalar-loop oracles: primes from 2 to the largest below
2^64, zero rows on either side, empty shapes, and operands of p - 1 only
at the largest inner dimension each slot width is sized for, where a
carry from one slot into the next would show."""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finsite import fields
from finsite.fields import Matrix, PrimeField, mat_combination, mat_mul

from oracles import scalar_combination, scalar_mat_mul

PRIMES = (2, 5, 257, 65537, 2 ** 61 - 1, 18446744073709551557)

PROPERTIES = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])


def _matrix(rng, p, rows, cols, density, zero_rows=frozenset()):
    """Entries nonzero with the given probability, p - 1 in one of three
    nonzero entries; the rows in zero_rows are zero."""
    def entry():
        if rng.random() >= density:
            return 0
        return p - 1 if rng.random() < 1 / 3 else rng.randrange(1, p)
    return Matrix(rows, cols, tuple((0,) * cols if i in zero_rows else
                                    tuple(entry() for _ in range(cols)) for i in range(rows)))


def _canonical(m: Matrix, p: int) -> bool:
    return all(type(x) is int and 0 <= x < p for row in m.data for x in row)


def _packed(call):
    """The result of call() and whether it packed any rows."""
    with mock.patch.object(fields, "_pack_rows", wraps=fields._pack_rows) as spy:
        return call(), spy.called


@st.composite
def packed_products(draw):
    """A dense product with a long inner dimension, with zero rows in up
    to half of A and of B."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    least = -(-8192 // (rows * cols))
    inner = draw(st.integers(least, least + 24))
    density = draw(st.sampled_from((0.5, 0.8, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    zero_a = draw(st.frozensets(st.integers(0, rows - 1), max_size=rows // 2))
    zero_b = draw(st.frozensets(st.integers(0, inner - 1), max_size=inner // 2))
    return (p, _matrix(rng, p, rows, inner, density, zero_a),
            _matrix(rng, p, inner, cols, density, zero_b))


@PROPERTIES
@given(packed_products())
def test_packed_mat_mul_equals_the_oracle(case):
    p, a, b = case
    k = PrimeField(p)
    got, packed = _packed(lambda: mat_mul(k, a, b))
    assert packed
    assert got == scalar_mat_mul(k, a, b)
    assert _canonical(got, p)


def _row_selection(a: Matrix) -> bool:
    """Whether each row of A holds at most one nonzero entry."""
    return all(len(row) - row.count(0) <= 1 for row in a.data)


@pytest.mark.parametrize("shape", ((0, 0, 0, 1.0), (0, 5, 3, 1.0), (4, 0, 3, 1.0),
                                   (4, 5, 0, 1.0), (3, 40, 40, 1.0), (4, 40, 3, 1.0),
                                   (16, 16, 16, 0.02), (40, 2, 2, 1.0)))
@pytest.mark.parametrize("zero_b", ("none", "half", "all"))
@pytest.mark.parametrize("p", PRIMES)
def test_small_empty_and_sparse_products_pack_unless_a_selects_rows(p, shape, zero_b):
    """Empty shapes, A under 4 rows, A 2% nonzero and B with no, half or
    all of its rows zero: every F_p product that is not a row selection
    packs, except that B without a nonzero row gives the zero product."""
    rows, inner, cols, density = shape
    rng = random.Random(p + rows)
    zero = {"none": (), "half": range(0, inner, 2), "all": range(inner)}[zero_b]
    a, b = _matrix(rng, p, rows, inner, density), _matrix(rng, p, inner, cols, 1.0,
                                                         frozenset(zero))
    k = PrimeField(p)
    got, packed = _packed(lambda: mat_mul(k, a, b))
    assert packed == (not _row_selection(a) and any(map(any, b.data)))
    assert got == scalar_mat_mul(k, a, b)
    assert (got.rows, got.cols) == (rows, cols) and _canonical(got, p)


@pytest.mark.parametrize("p", PRIMES)
def test_products_with_one_entry_per_row_of_a_read_rows_of_b(p):
    """A with at most one nonzero entry per row (zero rows, ones, other
    entries, some facing zero rows of B), large enough to pack otherwise."""
    rng = random.Random(p)
    k = PrimeField(p)
    rows, inner, cols = 32, 24, 24
    b = _matrix(rng, p, inner, cols, 0.8, frozenset({0, 5}))

    def row(i):
        out = [0] * inner
        if i % 3:
            out[rng.randrange(inner)] = 1 if i % 3 == 1 else rng.randrange(1, p)
        return tuple(out)
    a = Matrix(rows, inner, tuple(map(row, range(rows))))
    got, packed = _packed(lambda: mat_mul(k, a, b))
    assert not packed
    assert got == scalar_mat_mul(k, a, b)
    assert _canonical(got, p)


@st.composite
def combinations(draw):
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    count = draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from((0.1, 0.5, 1.0)))
    coeffs = [0 if rng.random() < 0.3 else rng.choice((1, p - 1, rng.randrange(p)))
              for _ in range(count)]
    zero = draw(st.frozensets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    return p, coeffs, [_matrix(rng, p, rows, cols, density, zero) for _ in coeffs], rows, cols


@PROPERTIES
@given(combinations())
@example((5, [], [], 3, 4))
@example((5, [2], [Matrix(0, 4, ())], 0, 4))
@example((5, [2, 3], [Matrix(4, 0, ((),) * 4)] * 2, 4, 0))
def test_mat_combination_equals_the_oracle(case):
    p, coeffs, mats, rows, cols = case
    k = PrimeField(p)
    got = mat_combination(k, coeffs, mats, rows, cols)
    assert got == scalar_combination(k, coeffs, mats, rows, cols)
    assert (got.rows, got.cols) == (rows, cols) and _canonical(got, p)


def _widest_terms():
    """(p, width, n): n is the largest count of (p - 1)^2 terms a slot of
    width bytes holds, for each slot width that holds at most 70,000 terms."""
    for p in PRIMES:
        square = (p - 1) ** 2
        for width in (1, 2, 4, 8, 16, 24):
            n = (2 ** (8 * width) - 1) // square
            if 0 < n <= 70000:
                yield p, width, n


WIDEST = list(_widest_terms())


def test_the_widest_cases_cover_every_kind_of_slot():
    assert {w for _, w, _ in WIDEST} == {1, 2, 4, 16}
    assert {p for p, _, _ in WIDEST} == set(PRIMES) - {65537}


@pytest.mark.parametrize("p, width, n", WIDEST)
def test_slots_hold_the_widest_sum_without_carry(p, width, n):
    """n runs of p - 1 times p - 1 added up in slots of width bytes: every
    slot holds n (p - 1)^2, the most it can, and one more term takes the
    next width."""
    assert fields._slot_bytes(n * (p - 1) ** 2) == width
    assert fields._slot_bytes((n + 1) * (p - 1) ** 2) > width
    packed = fields._pack_rows(p, [p - 1] * (3 * n), n, 3, width)
    total = sum((p - 1) * run for run in packed)
    assert total == int.from_bytes((n * (p - 1) ** 2).to_bytes(width, "little") * 3, "little")
    values = list(fields._unpacked(p, [total], 3, width))
    assert values == [n * (p - 1) ** 2 % p] * 3 and all(type(x) is int for x in values)


@pytest.mark.parametrize("p, width, n", WIDEST)
def test_all_p_minus_1_products_at_the_widest_sum(p, width, n):
    """Operands of p - 1 only at inner dimension n and n + 1: every entry
    of the product is n (p - 1)^2 or (n + 1) (p - 1)^2 before reduction,
    at the top of its slot or just past it. The packed route takes every
    one of them but the single-term products, which select rows of B."""
    k = PrimeField(p)
    rows = cols = next(r for r in range(4, 64) if r * r * n >= 512)
    for inner in (n, n + 1):
        a = Matrix(rows, inner, ((p - 1,) * inner,) * rows)
        b = Matrix(inner, cols, ((p - 1,) * cols,) * inner)
        got, packed = _packed(lambda: mat_mul(k, a, b))
        assert packed == (inner >= 2)
        assert got == Matrix(rows, cols, ((inner * (p - 1) ** 2 % p,) * cols,) * rows)
        assert _canonical(got, p)
        if inner > 5000:
            continue
        mats = [Matrix(2, 4, ((p - 1,) * 4,) * 2)] * inner
        got = mat_combination(k, [p - 1] * inner, mats, 2, 4)
        assert got == Matrix(2, 4, ((inner * (p - 1) ** 2 % p,) * 4,) * 2)
        assert _canonical(got, p)
