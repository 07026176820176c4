from unittest import mock

import pytest

from finsite import category
from finsite.category import FiniteCategory, is_ei
from finsite.errors import EngineError
from finsite.gallery import (category_by_name, chain_poset, cyclic_group,
                             group_by_name, group_category, involution_category,
                             orbit_category, p_orbit_category,
                             reduced_p_orbit_category, symmetric_group)
from finsite.groups import FiniteGroup, InvalidGroupError

from oracles import orbit_morphism_function


def test_cyclic_group_table():
    c4 = cyclic_group(4)
    assert c4.mult("r", "r2") == "r3"
    assert c4.inv("r") == "r3"
    assert c4.element_order("r2") == 2


def test_group_validation_catches_bad_table():
    with pytest.raises(InvalidGroupError, match="no inverse for 'a'"):
        FiniteGroup.from_rows(["e", "a"], [["e", "a"], ["a", "a"]])


@pytest.mark.parametrize("name", ["trivial", "C2", "C3", "C4", "C5", "C6", "S3", "S4"])
def test_group_category_trusts_the_table_the_group_checked(name):
    """The one-object category of a group skips the category check, and is
    the category the checked build makes; the identity and inverses the
    group check found are the group's."""
    group = group_by_name(name)
    e = group.identity
    assert all(group.mult(e, a) == a == group.mult(a, e) for a in group.elements)
    assert all(group.mult(a, group.inv(a)) == e == group.mult(group.inv(a), a)
               for a in group.elements)
    with mock.patch.object(category, "_table_problems",
                           wraps=category._table_problems) as check:
        trusted = group_category(group)
        assert not check.called
        checked = FiniteCategory(trusted.objects, trusted.morphisms, trusted.identity,
                                 trusted.compose_table, name=trusted.name)
        assert check.call_count == 1
    assert trusted.same_as(checked) and trusted.name == checked.name == f"B{group.name}"


def test_symmetric_group_s3():
    s3 = symmetric_group(3)
    assert s3.order() == 6
    assert sorted(s3.element_order(a) for a in s3.elements) == [1, 2, 2, 2, 3, 3]
    assert not all(s3.mult(a, b) == s3.mult(b, a)
                   for a in s3.elements for b in s3.elements)


def test_subgroup_enumeration():
    s3 = symmetric_group(3)
    subs = s3.subgroups()
    assert sorted(len(h) for h in subs) == [1, 2, 2, 2, 3, 6]
    c6 = cyclic_group(6)
    assert sorted(len(h) for h in c6.subgroups()) == [1, 2, 3, 6]


def test_chain_poset_counts():
    for n in range(1, 9):
        cat = chain_poset(n)
        assert len(cat.morphisms) == n * (n + 1) // 2
    with pytest.raises(EngineError):
        chain_poset(0)


def test_chain3_names_follow_the_picture():
    cat = chain_poset(3)
    assert cat.compose("g", "f") == "gf"
    assert cat.hom("x", "z") == ("gf",)


def test_involution_satisfies_relations():
    cat = involution_category()
    assert cat.compose("h", "h") == "1x"
    assert cat.compose("f", "h") == "g"
    assert cat.compose("g", "h") == "f"
    assert is_ei(cat)


def test_group_category_composition_orientation():
    s3 = symmetric_group(3)
    cat = group_category(s3)
    for g in s3.elements:
        for f in s3.elements:
            assert cat.compose(g, f) == s3.mult(g, f)
    assert len(group_category(cyclic_group(1)).morphisms) == 1
    assert len(group_category(cyclic_group(2)).morphisms) == 2


def test_orbit_category_c2_hom_counts(orbit_c2):
    free, fixed = orbit_c2.objects
    assert len(orbit_c2.hom(free, free)) == 2
    assert len(orbit_c2.hom(free, fixed)) == 1
    assert len(orbit_c2.hom(fixed, free)) == 0
    assert len(orbit_c2.hom(fixed, fixed)) == 1
    assert len(orbit_c2.morphisms) == 4
    assert is_ei(orbit_c2)


def test_orbit_category_composition_is_pointwise_composition(orbit_c2, orbit3_s3):
    """The coset convention must agree with actual map composition."""
    for cat in (orbit_c2, orbit3_s3, orbit_category(symmetric_group(3))):
        funcs = {m.name: orbit_morphism_function(cat, m.name)
                 for m in cat.morphisms}
        for g in cat.morphisms:
            for f in cat.morphisms:
                if g.dom != f.cod:
                    continue
                comp = cat.compose(g.name, f.name)
                expected = {key: funcs[g.name][val]
                            for key, val in funcs[f.name].items()}
                assert funcs[comp] == expected
        # distinct morphisms in one hom set give distinct maps
        for x in cat.objects:
            for y in cat.objects:
                images = [tuple(sorted(map(sorted, funcs[m].items()), key=repr))
                          for m in cat.hom(x, y)]
                assert len(set(map(repr, images))) == len(images)


def test_hom_count_matches_transporter_scan():
    """|Hom(G/H, G/K)| equals the number of cosets gK with g^-1 H g <= K,
    recounted by a scan over every group element."""
    for group in (cyclic_group(2), cyclic_group(4), symmetric_group(3)):
        cat = orbit_category(group)
        for src in cat.objects:
            for dst in cat.objects:
                h = cat.object_subgroup[src]
                k = cat.object_subgroup[dst]
                cosets = {frozenset(group.coset(g, k))
                          for g in group.elements
                          if group.conjugate(h, g) <= k}
                assert len(cat.hom(src, dst)) == len(cosets)


def test_reduced_p_orbit_s3(orbit3_s3):
    assert len(orbit3_s3.objects) == 1
    obj = orbit3_s3.objects[0]
    assert len(orbit3_s3.hom(obj, obj)) == 2
    assert is_ei(orbit3_s3)


def test_p_orbit_category_of_s3_at_2():
    s3 = symmetric_group(3)
    cat = p_orbit_category(s3, 2)
    # trivial subgroup plus three conjugate order-two subgroups
    assert len(cat.objects) == 4
    assert is_ei(cat)
    reduced = reduced_p_orbit_category(s3, 2)
    assert len(reduced.objects) == 3


def test_orbit_trivial_group():
    cat = orbit_category(cyclic_group(1))
    assert len(cat.objects) == 1
    assert len(cat.morphisms) == 1


def test_non_closed_family_warns():
    s3 = symmetric_group(3)
    some_c2 = sorted((h for h in s3.subgroups() if len(h) == 2),
                     key=s3.subset_key)[0]
    with pytest.warns(UserWarning):
        orbit_category(s3, lambda h: h == some_c2 or len(h) == 1)


def test_gallery_names():
    assert len(category_by_name("chain4").objects) == 4
    assert category_by_name("involution").name == "involution"
    assert category_by_name("orbit-p", group="S3", p=3).objects
    assert group_by_name("C5").order() == 5
    assert group_by_name("trivial").order() == 1
    with pytest.raises(EngineError):
        category_by_name("nope")
    with pytest.raises(EngineError):
        group_by_name("Q8")
