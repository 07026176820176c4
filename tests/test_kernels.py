"""The matrix kernels and the sparse structure constants
against the scalar-loop and dense oracles, on seeded random inputs."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from finsite import fields
from finsite.algebras import (FiniteDimAlgebra, chain_diagonal_algebra_presheaf,
                              constant_algebra_presheaf, field_algebra,
                              involution_group_algebra_presheaf,
                              skew_category_algebra, swap_action_presheaf)
from finsite.fields import (Matrix, PrimeField, RationalField, col_space,
                            identity_matrix, inverse, mat_combination, mat_mul,
                            mat_vec, matrix, null_space, rank, rref)
from finsite.gallery import (chain_poset, cyclic_group, group_category,
                             involution_category, orbit_category,
                             reduced_p_orbit_category, symmetric_group)
from finsite.presheaves import intertwiner_basis
from finsite.sampling import random_linear_presheaf
from finsite.sheaves import dense_sheafify_fixed_points, families, member_order
from finsite.topology import dense_topology

from oracles import (dense_algebra, dense_mul, dense_verify, scalar_combination,
                     scalar_inverse, scalar_mat_mul, scalar_mat_vec, scalar_null_space,
                     scalar_rref)

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), RationalField()]


def _random_matrix(field, rng, rows, cols, density):
    """Entries nonzero with the given probability; one in three matrices of
    two rows or more has its last row a combination of the first two."""
    def entry():
        if rng.random() >= density:
            return 0
        value = field.rand(rng)
        return value if value != field.zero else 1
    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 1 / 3:
        c = field.rand(rng)
        data[-1] = [field.add(field.mul(c, x), y) for x, y in
                    zip(map(field.of, data[0]), map(field.of, data[1]))]
    return matrix(field, data, cols=cols)


def _cases(field, seed, count):
    """(rng, rows, cols, inner, density): A is rows x cols, B cols x inner.
    The last three shapes give the packed route of mat_mul rows of A with
    no, one and several terms."""
    rng = random.Random(seed)
    shapes = [(0, 3, 7), (3, 0, 7), (0, 0, 7), (1, 1, 7)]
    for _ in range(count):
        shapes.append((rng.randint(1, 12), rng.randint(1, 12), 7))
    for rows, cols, inner in shapes + [(24, 20, 16), (20, 24, 16), (40, 20, 16)]:
        for density in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            yield rng, rows, cols, rng.randint(0, inner), density


@pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.label)
def test_kernels_equal_the_scalar_loops(field):
    with mock.patch.object(fields, "_pack_rows", wraps=fields._pack_rows) as packings:
        paths = _kernel_paths(field, packings)
    if field.char:
        assert paths == {"row selection", "zero product",
                         ("packed", 0), ("packed", 1), ("packed", 2)}
    else:
        assert paths == {"zero row of A", "B without rows or columns", "rank deficient"}
        assert packings.call_count == 0


def _kernel_paths(field, packings) -> set:
    """Check every kernel against its oracle on the seeded cases and return
    the paths taken: for mat_mul over F_p, row selection when each row of
    A holds at most one nonzero entry, else the zero product when B has no
    nonzero row, else the packed route by the number of nonzero entries of
    a row of A that face a nonzero row of B."""
    paths = set()
    for rng, rows, cols, inner, density in _cases(field, 11, 14):
        a = _random_matrix(field, rng, rows, cols, density)
        b = _random_matrix(field, rng, cols, inner, rng.choice((0.1, 0.5, 1.0)))
        if not field.char:
            paths.update(case for case, reached in (
                ("zero row of A", cols and not all(map(any, a.data))),
                ("B without rows or columns", not (b.rows and b.cols)),
                ("rank deficient", rows and cols and rank(field, a) < min(rows, cols)))
                if reached)
        before = packings.call_count
        assert mat_mul(field, a, b) == scalar_mat_mul(field, a, b)
        if field.char:
            live = [any(r) for r in b.data]
            selection = all(len(row) - row.count(0) <= 1 for row in a.data)
            assert (packings.call_count > before) == (not selection and any(live))
            if selection:
                paths.add("row selection")
            elif not any(live):
                paths.add("zero product")
            else:
                paths.update(("packed", min(sum(1 for x, y in zip(row, live) if x and y), 2))
                             for row in a.data)
        v = tuple(field.of(x) for x in _random_matrix(field, rng, 1, cols, density).data[0]) \
            if cols else ()
        assert mat_vec(field, a, v) == scalar_mat_vec(field, a, v)
        assert rref(field, a) == scalar_rref(field, a)
        kernel = null_space(field, a)
        assert [kernel.col(j) for j in range(kernel.cols)] == \
            scalar_null_space(field, a)
        coeffs = Matrix(1, 4, ((field.rand(rng), field.rand(rng), field.one, field.zero),))
        mats = [_random_matrix(field, rng, rows, cols, density) for _ in range(4)]
        assert mat_combination(field, coeffs.data[0], mats, rows, cols) == \
            scalar_combination(field, coeffs.data[0], mats, rows, cols)
    return paths


@pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.label)
def test_inverse_equals_the_oracle(field):
    rng = random.Random(12)
    for n in range(0, 7):
        for density in (0.3, 0.8):
            a = _random_matrix(field, rng, n, n, density)
            got = inverse(field, a)
            assert got == scalar_inverse(field, a)
            if got is not None:
                assert scalar_mat_mul(field, a, got) == identity_matrix(field, n)


def test_rational_kernels_keep_fractions():
    q = RationalField()
    a = matrix(q, [[0, Fraction(1, 2)], [3, 0]])
    for x in mat_mul(q, a, a).data[0] + mat_vec(q, a, (0, 0)) + rref(q, a)[0].data[1]:
        assert type(x) is Fraction


def _skew_algebras(field):
    cats = [chain_poset(3), involution_category(), group_category(cyclic_group(2)),
            orbit_category(cyclic_group(2)), orbit_category(symmetric_group(3))]
    for cat in cats:
        yield skew_category_algebra(cat, constant_algebra_presheaf(cat, field_algebra(field)))
    for r in (chain_diagonal_algebra_presheaf(field), swap_action_presheaf(field),
              involution_group_algebra_presheaf(field)):
        yield skew_category_algebra(r.cat, r)


def _copy(dense, table=None, unit=None):
    """A sparse algebra and its dense oracle, with table or unit changed."""
    changed = dense._replace(table=table or dense.table, unit=unit or dense.unit)
    return FiniteDimAlgebra.from_table(changed.field, changed.table, changed.unit,
                                       labels=changed.labels, check=False), changed


@pytest.mark.parametrize("field", [PrimeField(5), RationalField()], ids=lambda k: k.label)
def test_sparse_verify_and_mul_equal_the_dense_oracle(field):
    rng = random.Random(13)
    found = []
    for alg in _skew_algebras(field):
        dense = dense_algebra(alg)
        assert alg.verify() == dense_verify(dense) == []
        for _ in range(5):
            u = tuple(field.rand(rng) if rng.random() < 0.3 else field.zero
                      for _ in range(alg.dim))
            v = tuple(field.rand(rng) for _ in range(alg.dim))
            assert alg.mul(u, v) == dense_mul(dense, u, v)
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        t = rng.randrange(alg.dim)
        table = [[list(cell) for cell in row] for row in dense.table]
        table[i][j][t] = field.add(table[i][j][t], field.one)
        unit = list(alg.unit)
        unit[t] = field.add(unit[t], field.one)
        (changed_table, dense_table), (changed_unit, dense_unit) = \
            _copy(dense, table=table), _copy(dense, unit=unit)
        found.append(changed_table.verify())
        assert found[-1] == dense_verify(dense_table)
        assert changed_unit.verify() == dense_verify(dense_unit) != []
    # r r = 2e over F5 is still associative, the other changes are not
    assert sum(1 for problems in found if problems) >= len(found) - 1


S3_MEMBERS = {"BS3": lambda: group_category(symmetric_group(3)),
              "O(S3)": lambda: orbit_category(symmetric_group(3)),
              "O_3*(S3)": lambda: reduced_p_orbit_category(symmetric_group(3), 3)}


@pytest.mark.parametrize("member", S3_MEMBERS)
@pytest.mark.parametrize("field", [PrimeField(5), RationalField()], ids=lambda k: k.label)
def test_matrices_built_without_coercion_hold_canonical_entries(field, member):
    """The family systems, kernels, column spaces and intertwiner bases are
    built as Matrix records without field.of; each entry must still be the
    field's own element: an int in 0..p-1 over F_p, a Fraction over Q."""
    cat = S3_MEMBERS[member]()
    kind = int if field.char else Fraction
    f, g = (random_linear_presheaf(cat, field, random.Random(seed)) for seed in (3, 4))
    built = [families(f, cat, tuple(cat.into(x))).basis for x in cat.objects]
    built += [families(f, cat, member_order(cat, dense_topology(cat).minimal_cover(x))).basis
              for x in cat.objects]
    for m in cat.morphisms:
        built += [null_space(field, f.mat(m.name)), col_space(field, f.mat(m.name))]
    built += [c for comps in intertwiner_basis(f.rep, g.rep) for c in comps.values()]
    built += list(dense_sheafify_fixed_points(f).mats.values())
    assert any(b.rows and b.cols for b in built)
    for b in built:
        assert len(b.data) == b.rows and all(len(row) == b.cols for row in b.data)
        for x in (x for row in b.data for x in row):
            assert type(x) is kind and field.of(x) == x
