import itertools

import pytest

from finsite.algebras import (AlgebraError, AlgebraPresheaf, FiniteDimAlgebra,
                              GrMorphism, GrothendieckConstruction,
                              chain_diagonal_algebra_presheaf,
                              constant_algebra_presheaf, diagonal_algebra,
                              field_algebra, group_algebra,
                              involution_group_algebra_presheaf, matrix_algebra,
                              skew_category_algebra, swap_action_presheaf,
                              verify_algebra)
from finsite.category import validate_category
from finsite.fields import PrimeField, RationalField, identity_matrix, matrix, mat_vec, unit_vec
from finsite.gallery import cyclic_group, symmetric_group
from finsite.presheaves import PresheafError

from oracles import (category_algebra_table, gr_aut_algebra, gr_component_base,
                     gr_hom_elements, searched_matrix_algebra_isomorphism, table_of,
                     textbook_diagonal_table, textbook_group_table, textbook_matrix_table)


def test_basic_algebras(f5):
    assert verify_algebra(field_algebra(f5)) == []
    assert verify_algebra(diagonal_algebra(f5, 3)) == []
    assert verify_algebra(matrix_algebra(f5, 2)) == []
    assert verify_algebra(group_algebra(f5, symmetric_group(3))) == []


def _stock_algebras(field):
    """(stock algebra, textbook table and unit) pairs for one field."""
    yield field_algebra(field), textbook_diagonal_table(field, 1)
    for n in (1, 2, 3):
        yield diagonal_algebra(field, n), textbook_diagonal_table(field, n)
        yield matrix_algebra(field, n), textbook_matrix_table(field, n)
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        yield group_algebra(field, group), textbook_group_table(field, group)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), RationalField()],
                         ids=lambda k: k.label)
def test_stock_algebras_equal_their_textbook_tables(field):
    for alg, (table, unit) in _stock_algebras(field):
        dense = FiniteDimAlgebra.from_table(field, table, unit)
        assert alg.products == dense.products and alg.unit == dense.unit
        assert [list(map(list, row)) for row in table_of(alg)] == table


def test_from_table_refuses_a_bad_shape(f5):
    table, unit = textbook_diagonal_table(f5, 2)
    with pytest.raises(AlgebraError, match="not dim x dim x dim"):
        FiniteDimAlgebra.from_table(f5, [table[0], [table[1][0], table[1][1][:1]]], unit)
    with pytest.raises(AlgebraError, match="3 unit coefficients"):
        FiniteDimAlgebra.from_table(f5, table, unit + [0])


def test_broken_algebra_names_triple(chain3, f5):
    r = constant_algebra_presheaf(chain3, field_algebra(f5))
    skew = skew_category_algebra(chain3, r)
    gi = skew.labels.index(("g", "1"))
    fi = skew.labels.index(("f", "1"))
    table = [list(map(list, row)) for row in table_of(skew)]
    table[gi][fi] = list(skew.element("f", (1,)))  # misdirects g * f
    with pytest.raises(AlgebraError) as err:
        FiniteDimAlgebra.from_table(f5, table, skew.unit, labels=skew.labels)
    message = str(err.value)
    assert "associativity failure" in message
    # the named triple pins down the corrupted entry
    assert "'g'" in message and "'f'" in message


def test_algebra_presheaf_validation(f5, chain3):
    alg2 = diagonal_algebra(f5, 2)
    alg1 = field_algebra(f5)
    # the non-unital embedding a -> (a, 0) must be rejected
    bad = matrix(f5, [[1], [0]])
    good = matrix(f5, [[1], [1]])
    one = identity_matrix(f5, 1)
    with pytest.raises(AlgebraError, match="unit"):
        AlgebraPresheaf(chain3, {"x": alg2, "y": alg1, "z": alg1},
                        {"1x": identity_matrix(f5, 2), "1y": one, "1z": one,
                         "f": bad, "g": one, "gf": bad})
    AlgebraPresheaf(chain3, {"x": alg2, "y": alg1, "z": alg1},
                    {"1x": identity_matrix(f5, 2), "1y": one, "1z": one,
                     "f": good, "g": one, "gf": good})


@pytest.mark.parametrize("change,message", [
    ({"gf": [[1], [0]]}, "functoriality fails on ('g','f')"),
    ({"1x": [[0, 1], [1, 0]]}, "identity at 'x' is not the identity matrix"),
    ({"f": [[1, 1]]}, "map of 'f' has shape 1x2, expected 2x1"),
], ids=["not functorial", "identity moves", "wrong shape"])
def test_algebra_presheaf_refuses_a_bad_underlying_presheaf(f5, chain3, change, message):
    """Shapes, identities and functoriality are checked on the underlying
    linear presheaf, so each refusal carries its wording."""
    alg1 = field_algebra(f5)
    maps = {"1x": identity_matrix(f5, 2), "1y": identity_matrix(f5, 1),
            "1z": identity_matrix(f5, 1), "f": matrix(f5, [[1], [1]]),
            "g": identity_matrix(f5, 1), "gf": matrix(f5, [[1], [1]])}
    maps.update({name: matrix(f5, rows) for name, rows in change.items()})
    with pytest.raises(PresheafError) as err:
        AlgebraPresheaf(chain3, {"x": diagonal_algebra(f5, 2), "y": alg1, "z": alg1}, maps)
    assert str(err.value) == message


def test_skew_dimension_rule(chain3, f5):
    r = chain_diagonal_algebra_presheaf(f5)
    skew = skew_category_algebra(chain3, r)
    expected = sum(r.algebra(m.dom).dim for m in chain3.morphisms)
    assert skew.dim == expected == 9
    assert verify_algebra(skew) == []


def test_constant_skew_is_category_algebra(chain3, f2, f5):
    for field in (f2, f5):
        r = constant_algebra_presheaf(chain3, field_algebra(field))
        skew = skew_category_algebra(chain3, r)
        assert skew.dim == 6
        table, unit = category_algebra_table(chain3, field)
        assert table_of(skew) == table
        assert skew.unit == unit
        assert verify_algebra(skew) == []


def test_involution_constant_dimension(involution, f2):
    r = constant_algebra_presheaf(involution, field_algebra(f2))
    skew = skew_category_algebra(involution, r)
    assert skew.dim == len(involution.morphisms) == 5
    assert verify_algebra(skew) == []


def test_involution_group_algebra_presheaf(involution, f5):
    r = involution_group_algebra_presheaf(f5)
    skew = skew_category_algebra(involution, r)
    assert skew.dim == 2 + 2 + 1 + 2 + 2
    assert verify_algebra(skew) == []


def test_empty_category_gives_null_ring(f5, rationals):
    """The null ring over the field of the coefficients, which the
    presheaf on no objects is given."""
    empty = validate_category({"objects": [], "morphisms": [],
                               "identities": {}, "compose": []})
    for k in (rationals, f5):
        for r in (AlgebraPresheaf(empty, {}, {}, field=k),
                  constant_algebra_presheaf(empty, field_algebra(k))):
            skew = skew_category_algebra(empty, r)
            assert (skew.dim, skew.field) == (0, k)
            assert verify_algebra(skew) == []
    with pytest.raises(AlgebraError, match="on no objects needs its field"):
        AlgebraPresheaf(empty, {}, {})


def test_skew_group_algebra_convention(f5):
    """On a one-object category the product is r (action of f on s) at gf,
    checked elementwise against the defining formula."""
    r = swap_action_presheaf(f5)
    cat = r.cat
    skew = skew_category_algebra(cat, r)
    alg = r.algebra("*")
    k = f5
    for g in cat.morphisms:
        for f in cat.morphisms:
            for i in range(2):
                for j in range(2):
                    left = skew.element(g.name, unit_vec(k, 2, j))
                    right = skew.element(f.name, unit_vec(k, 2, i))
                    product = skew.mul(left, right)
                    moved = mat_vec(k, r.mat(f.name), unit_vec(k, 2, j))
                    coeff = alg.mul(moved, unit_vec(k, 2, i))
                    expected = skew.element(cat.compose(g.name, f.name), coeff)
                    assert product == expected


def test_swap_skew_is_matrix_algebra(f5):
    r = swap_action_presheaf(f5)
    skew = skew_category_algebra(r.cat, r)
    assert skew.dim == 4
    assert verify_algebra(skew) == []
    target = matrix_algebra(f5, 2)
    change = searched_matrix_algebra_isomorphism(skew, target)
    assert change is not None
    # the found change of basis carries the multiplication table across
    k = f5
    images = [change.col(i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            lhs = target.mul(images[i], images[j])
            rhs = (k.zero,) * 4
            for t, c in enumerate(skew.mul_basis(i, j)):
                if c != k.zero:
                    rhs = tuple(k.add(a, k.mul(c, b))
                                for a, b in zip(rhs, images[t]))
            assert lhs == rhs


def test_grothendieck_construction_counts(chain3, f2):
    r = constant_algebra_presheaf(chain3, field_algebra(f2))
    gr = GrothendieckConstruction(chain3, r)
    assert gr.hom_size("x", "z") == 2      # one morphism, F2 coefficients
    assert gr.hom_size("x", "x") == 2
    assert gr.hom_size("z", "x") == 0
    assert len(list(gr_hom_elements(gr, "x", "z"))) == 2


def test_grothendieck_construction_aut_is_coefficient_algebra(f5):
    r = swap_action_presheaf(f5)
    gr = GrothendieckConstruction(r.cat, r)
    aut = gr_aut_algebra(gr, "*")
    assert aut.products == r.algebra("*").products
    assert aut.unit == r.algebra("*").unit


def test_component_is_rank_one_free(f5):
    """(f, 1) generates the component at f: (f,1)o(1,r) = (f,r), and the
    sweep over r is injective."""
    r = chain_diagonal_algebra_presheaf(f5)
    cat = r.cat
    gr = GrothendieckConstruction(cat, r)
    for m in cat.morphisms:
        base = gr_component_base(gr, m.name)
        x = cat.dom(m.name)
        dim = r.algebra(x).dim
        seen = set()
        for coeffs in itertools.product(f5.elements(), repeat=dim):
            composite = gr.compose(base, GrMorphism(cat.id_of(x), coeffs))
            assert composite == GrMorphism(m.name, coeffs)
            seen.add(composite)
        assert len(seen) == f5.char ** dim


def test_gr_composition_matches_skew_product(f5):
    """The basis of the skew algebra is in bijection with the pair
    morphisms; composing pairs matches multiplying basis elements."""
    r = involution_group_algebra_presheaf(f5)
    cat = r.cat
    gr = GrothendieckConstruction(cat, r)
    skew = skew_category_algebra(cat, r)
    for gi, (gname, _) in enumerate(skew.labels):
        for fi, (fname, _) in enumerate(skew.labels):
            if cat.dom(gname) != cat.cod(fname):
                continue
            j = gi - skew.basis_offset[gname]
            i = fi - skew.basis_offset[fname]
            pair = gr.compose(
                GrMorphism(gname, unit_vec(f5, r.algebra(cat.dom(gname)).dim, j)),
                GrMorphism(fname, unit_vec(f5, r.algebra(cat.dom(fname)).dim, i)))
            assert skew.mul_basis(gi, fi) == skew.element(pair.f, pair.coeff)


def test_hom_size_requires_finite_field(rationals, chain3):
    r = constant_algebra_presheaf(chain3, field_algebra(rationals))
    gr = GrothendieckConstruction(chain3, r)
    with pytest.raises(AlgebraError):
        gr.hom_size("x", "z")
