"""shared_products against one mat_mul per matrix over F_5 and Q: no
matrices, blocks with no rows or no columns, L only, R only and both; and
the call sites that batch their products on it: the functoriality check
names the first failing pair in morphism order, a pull off a corrupted
family basis is refused, and is_intertwiner sees a square that fails at
the last arrow only."""

import random

import pytest

from finsite import sheaves
from finsite.errors import EngineError
from finsite.fields import (Matrix, PrimeField, RationalField, identity_matrix, mat_mul,
                            shared_products)
from finsite.gallery import category_by_name
from finsite.presheaves import LinearPresheaf, PresheafError, Representation, is_intertwiner
from finsite.sampling import random_linear_presheaf
from finsite.topology import minimal_topology

from oracles import functoriality_scan

FIELDS = {"F5": PrimeField(5), "Q": RationalField()}


def _matrix(k, rng, rows, cols):
    density = rng.choice((0.1, 0.5, 1.0))
    return Matrix(rows, cols, tuple(tuple(k.of(rng.randint(1, 4)) if rng.random() < density
                                          else k.zero for _ in range(cols))
                                    for _ in range(rows)))


def _case(k, rng, sides):
    """Matrices and the L and R of sides, shapes drawn from 0 to 12."""
    a, b, n = rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 4)
    left = _matrix(k, rng, rng.randint(0, 12), a) if "L" in sides else None
    right = _matrix(k, rng, b, rng.randint(0, 12)) if "R" in sides else None
    # the Ms may differ in rows when only R is given, in columns when only L is
    mats = [_matrix(k, rng, a if left else rng.randint(0, 6), b if right else rng.randint(0, 6))
            for _ in range(n)]
    return mats, left, right


@pytest.mark.parametrize("sides", ["L", "R", "LR", ""])
@pytest.mark.parametrize("field", FIELDS)
def test_shared_products_equal_one_product_per_matrix(field, sides):
    k = FIELDS[field]
    rng = random.Random(f"{field} {sides}")
    empty = 0
    for _ in range(60):
        mats, left, right = _case(k, rng, sides)
        want = [mat_mul(k, m, right) if right else m for m in mats]
        want = [mat_mul(k, left, m) if left else m for m in want]
        assert shared_products(k, mats, left, right) == want
        empty += any(0 in (m.rows, m.cols) for m in [*mats, left, right] if m is not None)
    assert shared_products(k, [], identity_matrix(k, 2), identity_matrix(k, 3)) == []
    assert empty


def _corrupted(k, a: Matrix, at=(0, 0)) -> Matrix:
    rows = [list(r) for r in a.data]
    rows[at[0]][at[1]] = k.add(rows[at[0]][at[1]], k.one)
    return Matrix(a.rows, a.cols, tuple(map(tuple, rows)))


@pytest.mark.parametrize("field", FIELDS)
def test_a_presheaf_broken_at_two_pairs_names_the_first_in_morphism_order(field):
    k = FIELDS[field]
    cat = category_by_name("orbit", group="S3")
    f = random_linear_presheaf(cat, k, random.Random(3))
    broken = [m.name for m in cat.morphisms if not cat.is_identity(m.name)
              and f.mats[m.name].rows and f.mats[m.name].cols]
    first_alone, last_alone = ({**f.mats, h: _corrupted(k, f.mats[h])} for h in
                               (broken[0], broken[-1]))
    both = {**first_alone, broken[-1]: last_alone[broken[-1]]}
    pairs = [functoriality_scan(cat, mats, k) for mats in (first_alone, last_alone, both)]
    assert pairs[0] != pairs[1] and pairs[2] == min(pairs[:2], key=lambda gf: (
        cat.mor_index[gf[0]], cat.into(cat.dom(gf[0])).index(gf[1])))
    for mats, (g, f_) in zip((first_alone, last_alone, both), pairs):
        with pytest.raises(PresheafError) as err:
            LinearPresheaf(cat, k, f.dims, mats)
        assert str(err.value) == f"functoriality fails on ({g!r},{f_!r})"


@pytest.mark.parametrize("field", FIELDS)
def test_a_pull_off_a_corrupted_family_basis_is_refused(field):
    """The half-sheafification pull, with one entry of a family basis moved
    off a unit row, sees some morphism's pulled families leave the span."""
    k = FIELDS[field]
    cat = category_by_name("chain3")
    f = random_linear_presheaf(cat, k, random.Random(2))
    top = minimal_topology(cat)
    members = {x: sheaves.member_order(cat, top.minimal_cover(x)) for x in cat.objects}
    values = {x: sheaves.linear_matching_families(f, top.minimal_cover(x)) for x in cat.objects}
    sheaves._precomposition(f, cat, members, values)  # the pull succeeds untouched
    refused = 0
    for x, space in values.items():
        units = {next(i for i, row in enumerate(space.basis.data) if row == e)
                 for e in identity_matrix(k, space.dim).data}
        for i in sorted(set(range(space.total)) - units)[:1]:
            bad = space._replace(basis=_corrupted(k, space.basis, (i, 0)))
            with pytest.raises(EngineError) as err:
                sheaves._precomposition(f, cat, members, {**values, x: bad})
            assert str(err.value) == "pulled family left the family space"
            refused += 1
    assert refused


@pytest.mark.parametrize("field", FIELDS)
def test_is_intertwiner_sees_a_failure_at_the_last_arrow_only(field):
    k = FIELDS[field]
    cat = category_by_name("orbit", group="S3")
    f = random_linear_presheaf(cat, k, random.Random(5))
    rep = f.rep
    ident = {x: identity_matrix(k, d) for x, d in rep.dims.items()}
    assert is_intertwiner(rep, rep, ident)
    x, y, s = rep.arrows[-1]
    assert s.rows and s.cols
    bent = Representation(k, rep.dims, rep.arrows[:-1] + ((x, y, _corrupted(k, s)),))
    assert not is_intertwiner(rep, bent, ident)
    assert not is_intertwiner(bent, rep, ident)
