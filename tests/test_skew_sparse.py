"""The skew category algebra, stored as one product per composable pair,
against the dense builder of the oracles on the gallery and on seeded
random coefficient presheaves; and the paper's corner identity: for a
strictly full D with e the sum of the object idempotents over D, the
corner e R[C] e is spanned by the basis elements at morphisms inside D
and is the skew algebra R|_D[D]."""

import itertools
import random

import pytest

from finsite.algebras import (AlgebraPresheaf, FiniteDimAlgebra, SkewCategoryAlgebra,
                              chain_diagonal_algebra_presheaf, constant_algebra_presheaf,
                              diagonal_algebra, field_algebra, group_algebra,
                              involution_group_algebra_presheaf, matrix_algebra,
                              skew_category_algebra, swap_action_presheaf)
from finsite.category import FullSubcategory, iso_classes
from finsite.fields import (PrimeField, RationalField, inverse, mat_mul, mat_vec, matrix,
                            unit_vec)
from finsite.gallery import category_by_name, symmetric_group
from finsite.sampling import random_invertible_matrix

from oracles import (dense_mul, dense_right_multiplication_matrix,
                     dense_skew_category_algebra, dense_verify)

F2, F5, Q = PrimeField(2), PrimeField(5), RationalField()

# The gallery up to O(S3), as (name, group, p).
GALLERY = [("chain3", None, None), ("chain4", None, None), ("involution", None, None),
           ("idem", None, None), ("idem-split", None, None), ("group", "C2", None),
           ("group", "S3", None), ("orbit", "C2", None), ("orbit", "S3", 2),
           ("orbit-p", "S3", 3), ("orbit", "S3", None)]


def _gallery(name, group, p):
    return category_by_name(name, group=group, p=p)


def _random_vector(field, rng, dim, density):
    return tuple(field.rand(rng) if rng.random() < density else field.zero
                 for _ in range(dim))


def _assert_matches_dense(skew, rng):
    """table, unit and labels equal the dense builder's; mul equals the
    dense product on random vectors; the right multiplication by every
    basis element and by a random vector equals the dense one; verify
    lists the same problems as the dense verifier."""
    dense = dense_skew_category_algebra(skew.cat, skew.r)
    k = skew.field
    assert skew.table == dense.table
    assert skew.unit == dense.unit and skew.labels == dense.labels
    for density in (0.2, 1.0):
        u, v = (_random_vector(k, rng, skew.dim, density) for _ in range(2))
        assert skew.mul(u, v) == dense_mul(dense, u, v)
    for v in [unit_vec(k, skew.dim, j) for j in range(skew.dim)] + \
            [_random_vector(k, rng, skew.dim, 0.5)]:
        assert skew.right_multiplication_matrix(v) == dense_right_multiplication_matrix(dense, v)
    assert skew.verify() == dense_verify(dense) == []


@pytest.mark.parametrize("member", GALLERY, ids=lambda m: " ".join(str(x) for x in m if x))
def test_gallery_skew_algebras_equal_the_dense_builder(member):
    cat = _gallery(*member)
    rng = random.Random(f"gallery/{member}")
    for field in (F5, Q):
        skew = skew_category_algebra(cat, constant_algebra_presheaf(cat, field_algebra(field)))
        _assert_matches_dense(skew, rng)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda k: k.label)
def test_coefficient_fixtures_equal_the_dense_builder(field):
    """The non-constant fixtures, and constant non-commutative coefficients,
    on which R(f)(s) r and r R(f)(s) differ."""
    rng = random.Random(3)
    involution, chain3 = _gallery("involution", None, None), _gallery("chain3", None, None)
    for r in (chain_diagonal_algebra_presheaf(field), involution_group_algebra_presheaf(field),
              swap_action_presheaf(field),
              constant_algebra_presheaf(involution, matrix_algebra(field, 2)),
              constant_algebra_presheaf(chain3, group_algebra(field, symmetric_group(3)))):
        _assert_matches_dense(skew_category_algebra(r.cat, r), rng)


def random_coefficients(cat, field, rng) -> AlgebraPresheaf:
    """A random presheaf of split commutative algebras: R(x) holds the
    functions on S(x), for S a point plus covariant representables
    Hom(c, -), and R(f) pulls functions back along S(f). Each R(x) is
    then rewritten in a random basis, so its structure constants are
    dense."""
    gens = [rng.choice(cat.objects) for _ in range(rng.randint(1, 2))]
    points = {x: [None] + [(n, u) for n, c in enumerate(gens) for u in cat.hom(c, x)]
              for x in cat.objects}
    index = {x: {s: i for i, s in enumerate(pts)} for x, pts in points.items()}
    basis = {x: random_invertible_matrix(field, len(points[x]), rng) for x in cat.objects}
    back = {x: inverse(field, p) for x, p in basis.items()}
    at = {}
    for x in cat.objects:
        n, p = len(points[x]), basis[x]
        split = diagonal_algebra(field, n)
        table = [[mat_vec(field, back[x], split.mul(p.col(i), p.col(j))) for j in range(n)]
                 for i in range(n)]
        at[x] = FiniteDimAlgebra(field, table, mat_vec(field, back[x], split.unit))
    maps = {}
    for m in cat.morphisms:
        pull = matrix(field, [[1 if index[m.cod].get(None if s is None else
                                                     (s[0], cat.compose(m.name, s[1]))) == a
                               else 0 for a in range(len(points[m.cod]))]
                              for s in points[m.dom]])
        maps[m.name] = mat_mul(field, back[m.dom], mat_mul(field, pull, basis[m.cod]))
    return AlgebraPresheaf(cat, at, maps, name="random")


@pytest.mark.parametrize("field", [F2, F5, Q], ids=lambda k: k.label)
def test_random_coefficient_skew_algebras_equal_the_dense_builder(field):
    members = [("chain3", None, None), ("involution", None, None), ("idem", None, None),
               ("idem-split", None, None), ("group", "C2", None), ("orbit", "C2", None)]
    rng = random.Random(f"random/{field.label}")
    for member in members:
        cat = _gallery(*member)
        r = random_coefficients(cat, field, rng)
        _assert_matches_dense(skew_category_algebra(cat, r), rng)


def test_a_corrupted_product_is_reported_as_the_dense_verifier_does():
    """Changing one stored coefficient inside the block of gf keeps the
    products on composable pairs, so the walk over composable triples
    must name exactly the triples the dense verifier names."""
    rng = random.Random(29)
    found = 0
    for field in (F2, F5):
        for r in (chain_diagonal_algebra_presheaf(field), involution_group_algebra_presheaf(field),
                  swap_action_presheaf(field),
                  constant_algebra_presheaf(_gallery("orbit", "C2", None), field_algebra(field))):
            skew = skew_category_algebra(r.cat, r)
            for _ in range(4):
                products = [dict(row) for row in skew.products]
                i = rng.choice([i for i, row in enumerate(products) if row])
                j = rng.choice(sorted(products[i]))
                t, _c = products[i][j][0]
                cell = dict(products[i][j])
                cell[t] = field.add(cell[t], field.one)
                products[i][j] = tuple((s, c) for s, c in sorted(cell.items()) if c != field.zero)
                broken = SkewCategoryAlgebra(r.cat, r, field, skew.basis_offset, products,
                                             skew.unit, skew.labels)
                dense = FiniteDimAlgebra(field, broken.table, broken.unit, labels=broken.labels,
                                         check=False)
                problems = broken.verify()
                assert problems == dense_verify(dense)
                found += bool(problems)
    assert found >= 20


# -- the corner identity ------------------------------------------------------


def strictly_full_subcategories(cat):
    """Every union of isomorphism classes, as a full subcategory."""
    classes = iso_classes(cat)
    for n in range(len(classes) + 1):
        for chosen in itertools.combinations(classes, n):
            yield FullSubcategory(cat, tuple(x for c in chosen for x in c))


def corner_fixtures():
    """The coefficient fixtures of the acceptance suite on chain3,
    involution, BS3 and O(S3): constant F2, F5 and Q everywhere, and the
    chain-diagonal, involution-kc2 and swap presheaves on their own
    categories."""
    for name, group in (("chain3", None), ("involution", None), ("group", "S3"),
                        ("orbit", "S3")):
        cat = _gallery(name, group, None)
        for field in (F2, F5, Q):
            yield constant_algebra_presheaf(cat, field_algebra(field))
    for field in (F2, F5, Q):
        yield chain_diagonal_algebra_presheaf(field)
        yield involution_group_algebra_presheaf(field)
        yield swap_action_presheaf(field)


@pytest.mark.parametrize("r", list(corner_fixtures()),
                         ids=lambda r: f"{r.cat.name}-{r.name}-{r.field.label}")
def test_corner_of_a_strictly_full_subcategory_is_its_skew_algebra(r):
    cat = r.cat
    skew = skew_category_algebra(cat, r)
    k = skew.field
    zero = (k.zero,) * skew.dim
    basis = [unit_vec(k, skew.dim, b) for b in range(skew.dim)]
    for sub in strictly_full_subcategories(cat):
        inside = set(sub.objects)
        e = zero
        for x in sub.objects:
            e = tuple(k.add(a, b) for a, b in zip(e, skew.object_idempotent(x)))
        at = [skew.basis_offset[m.name] + i for m in cat.morphisms
              if m.dom in inside and m.cod in inside
              for i in range(r.algebra(m.dom).dim)]
        for b, v in enumerate(basis):
            assert skew.mul(skew.mul(e, v), e) == (v if b in at else zero)
        small = skew_category_algebra(sub.category, r.restrict(sub))
        assert small.labels == tuple(skew.labels[b] for b in at)

        def push(v):
            out = list(zero)
            for b, c in zip(at, v):
                out[b] = c
            return tuple(out)

        assert push(small.unit) == e
        for a, b in itertools.product(range(small.dim), repeat=2):
            assert skew.mul_basis(at[a], at[b]) == push(small.mul_basis(a, b))
