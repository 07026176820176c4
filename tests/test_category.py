import itertools

import pytest

from finsite.category import (EIRequiredError, FullSubcategory,
                              InvalidCategoryError, category_problems,
                              co_ideal_generated_by, is_ei, is_karoubian,
                              iso_class_poset, karoubian_report,
                              minimal_subcategory,
                              strictly_full_karoubian_subcategories,
                              validate_category)
from finsite.gallery import (chain_poset, group_category, cyclic_group,
                             idempotent_pair_category, involution_category,
                             orbit_category, split_idempotent_category)

from oracles import involution_words


def chain3_data():
    return chain_poset(3).to_data()


def test_validate_chain3():
    cat = validate_category(chain3_data())
    assert len(cat.morphisms) == 6


def test_missing_composite_reported():
    data = chain3_data()
    data["compose"] = [c for c in data["compose"]
                       if not (c["g"] == "g" and c["f"] == "f")]
    with pytest.raises(InvalidCategoryError) as err:
        validate_category(data)
    assert any("missing composite ('g','f')" in p for p in err.value.problems)


def test_bad_identity_reported():
    data = chain3_data()
    data["identities"]["x"] = "f"
    problems = category_problems(data)
    assert any(p.startswith("bad identity at 'x'") for p in problems)


def test_associativity_failure_reported():
    # A deliberately broken table on the involution category: redirect h*h.
    data = involution_category().to_data()
    for entry in data["compose"]:
        if entry["g"] == "f" and entry["f"] == "h":
            entry["gf"] = "f"
    problems = category_problems(data)
    assert any("associativity failure" in p for p in problems)


def test_unknown_field_rejected():
    data = chain3_data()
    data["bogus"] = 1
    assert any("unknown fields" in p for p in category_problems(data))


def test_stray_composite_rejected():
    data = chain3_data()
    data["compose"].append({"g": "f", "f": "g", "gf": "gf"})
    assert any("stray composite" in p for p in category_problems(data))


def test_empty_category_is_valid():
    cat = validate_category({"objects": [], "morphisms": [],
                             "identities": {}, "compose": []})
    assert cat.objects == ()
    assert is_ei(cat) and is_karoubian(cat)


def test_involution_closure_matches_word_oracle():
    """The 5-morphism table is exactly the closure of {h, f} under the
    relations, computed independently by word reduction."""
    cat = involution_category()
    words = involution_words()
    assert len(words[("x", "x")]) == 2   # empty word and h
    assert len(words[("x", "y")]) == 2   # f and hf (applied h first)
    assert sum(len(v) for v in words.values() if v) == 4
    # identities complete the count: 4 reduced nonempty-typed words include
    # the empty word at x; adding 1y gives the five morphisms
    total = len(words[("x", "x")]) + len(words[("x", "y")]) + 1
    assert total == len(cat.morphisms) == 5
    # the table realises the same rewriting: h;h = 1x and h;f = g
    assert cat.compose("h", "h") == "1x"
    assert cat.compose("f", "h") == "g"


def test_associativity_holds_on_all_triples(chain3, involution):
    for cat in (chain3, involution):
        for h, g, f in itertools.product(cat.morphisms, repeat=3):
            if h.dom == g.cod and g.dom == f.cod:
                assert cat.compose(h.name, cat.compose(g.name, f.name)) == \
                    cat.compose(cat.compose(h.name, g.name), f.name)


def test_is_ei():
    assert is_ei(chain_poset(3))
    assert is_ei(involution_category())
    assert not is_ei(idempotent_pair_category())


def test_karoubian_cases():
    assert not is_karoubian(idempotent_pair_category())
    report = karoubian_report(split_idempotent_category())
    assert report.ok
    r, s = report.splittings["e"]
    cat = split_idempotent_category()
    assert cat.compose(s, r) == "e"
    assert cat.compose(r, s) == "1y"


def test_ei_implies_karoubian():
    from finsite.gallery import (p_orbit_category, reduced_p_orbit_category,
                                 symmetric_group)
    cats = [chain_poset(4), involution_category(),
            group_category(cyclic_group(3)), orbit_category(cyclic_group(2)),
            orbit_category(cyclic_group(4)), orbit_category(cyclic_group(6)),
            orbit_category(symmetric_group(3)),
            p_orbit_category(symmetric_group(3), 2),
            reduced_p_orbit_category(symmetric_group(3), 3)]
    for cat in cats:
        assert is_ei(cat)
        assert is_karoubian(cat)


def test_strictly_full_karoubian_subcategories_chain3(chain3):
    subs = strictly_full_karoubian_subcategories(chain3)
    assert len(subs) == 8
    assert subs[0].objects == ()
    assert subs[-1].objects == ("x", "y", "z")


def test_strictly_full_karoubian_subcategories_involution(involution):
    subs = strictly_full_karoubian_subcategories(involution)
    assert [s.objects for s in subs] == [(), ("x",), ("y",), ("x", "y")]


def test_group_category_has_two_subcategories(group_c2):
    subs = strictly_full_karoubian_subcategories(group_c2)
    assert [s.objects for s in subs] == [(), ("*",)]


def test_idempotent_category_has_only_empty_subcategory():
    subs = strictly_full_karoubian_subcategories(idempotent_pair_category())
    assert [s.objects for s in subs] == [()]


def test_iso_class_poset_chain(chain3):
    poset = iso_class_poset(chain3)
    assert poset.classes == (("x",), ("y",), ("z",))
    assert poset.minimal_objects() == ("x",)
    assert poset.le(0, 2) and not poset.le(2, 0)


def test_iso_class_poset_orbit(orbit_c2):
    poset = iso_class_poset(orbit_c2)
    assert len(poset.classes) == 2
    free = orbit_c2.objects[0]
    fixed = orbit_c2.objects[1]
    assert orbit_c2.hom(fixed, free) == ()
    assert poset.minimal_objects() == (free,)


def test_iso_class_poset_group(group_c2):
    poset = iso_class_poset(group_c2)
    assert poset.classes == (("*",),)
    assert poset.minimal_objects() == ("*",)


def test_iso_class_poset_rejects_non_ei():
    with pytest.raises(EIRequiredError):
        iso_class_poset(idempotent_pair_category())


def test_down_set_matches_raw_homs(chain3, involution, orbit_c2):
    for cat in (chain3, involution, orbit_c2):
        poset = iso_class_poset(cat)
        for x in cat.objects:
            below = set(poset.below(x))
            raw = {y for y in cat.objects if cat.hom(y, x)}
            assert below == raw


def test_co_ideal(chain3):
    sub = co_ideal_generated_by(chain3, ("y",))
    assert sub.objects == ("x", "y")
    assert sub.is_co_ideal()
    assert not FullSubcategory(chain3, ("y",)).is_co_ideal()
    assert minimal_subcategory(chain3).objects == ("x",)


def test_full_subcategory_structure(chain3):
    sub = chain3.full_subcategory(("x", "z"))
    assert tuple(m.name for m in sub.morphisms) == ("1x", "gf", "1z")
    assert sub.compose("1z", "gf") == "gf"


def test_invalid_table_refused_by_every_entry_point():
    from finsite.category import FiniteCategory, Morphism
    from finsite.serialize import category_from_doc, category_to_doc
    data = chain3_data()
    data["compose"] = [c for c in data["compose"]
                       if not (c["g"] == "g" and c["f"] == "f")]
    morphisms = [Morphism(m["id"], m["dom"], m["cod"]) for m in data["morphisms"]]
    compose = {(c["g"], c["f"]): c["gf"] for c in data["compose"]}
    doc = {"format": "finsite/1", "kind": "category", **data}
    for build in (lambda: validate_category(data),
                  lambda: category_from_doc(doc),
                  lambda: FiniteCategory(data["objects"], morphisms,
                                         data["identities"], compose)):
        with pytest.raises(InvalidCategoryError, match="missing composite"):
            build()
    assert category_from_doc(category_to_doc(chain_poset(3))).same_as(chain_poset(3))


def test_full_subcategory_equals_validated_build(involution):
    from finsite.category import FiniteCategory
    for objs in (("x",), ("y",), ("x", "y")):
        sub = involution.full_subcategory(objs)
        again = FiniteCategory(sub.objects, sub.morphisms, sub.identity,
                               sub.compose_table, name=sub.name)
        assert sub.same_as(again)
        assert sub.into(objs[0]) == again.into(objs[0])
