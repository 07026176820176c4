import random

import pytest

from finsite.algebras import (chain_diagonal_algebra_presheaf,
                              constant_algebra_presheaf, field_algebra,
                              skew_category_algebra)
from finsite.gallery import chain_poset
from finsite.modules import to_algebra_module
from finsite.presheaves import constant_linear_presheaf, representable_presheaf
from finsite.sampling import random_module_presheaf
from finsite.serialize import (DocumentError, algebra_module_from_doc,
                               algebra_module_to_doc,
                               algebra_presheaf_from_doc,
                               algebra_presheaf_to_doc, category_from_doc,
                               category_to_doc, dump_text, group_from_doc,
                               group_to_doc, load_text,
                               module_presheaf_from_doc, module_presheaf_to_doc,
                               presheaf_from_doc, presheaf_to_doc,
                               skew_algebra_to_doc, topology_from_doc,
                               topology_to_doc)
from finsite.topology import enumerate_topologies, subcategory_topology


def roundtrip(doc):
    return load_text(dump_text(doc))


def test_category_roundtrip(chain3):
    doc = roundtrip(category_to_doc(chain3))
    cat = category_from_doc(doc)
    assert cat.same_as(chain3)


def test_group_roundtrip(c2):
    doc = roundtrip(group_to_doc(c2))
    g = group_from_doc(doc)
    assert g.elements == c2.elements
    assert g.table == c2.table


def test_topology_roundtrip(chain3):
    for top in enumerate_topologies(chain3):
        doc = roundtrip(topology_to_doc(top))
        back = topology_from_doc(doc, chain3)
        assert back == top


def test_set_presheaf_roundtrip(chain3):
    f = representable_presheaf(chain3, "z")
    doc = roundtrip(presheaf_to_doc(f))
    back = presheaf_from_doc(doc, chain3)
    assert [len(back.at(x)) for x in chain3.objects] == \
        [len(f.at(x)) for x in chain3.objects]
    assert back.apply("g", "1z") == "g"


def test_linear_presheaf_roundtrip(chain3, f5, rationals):
    for field in (f5, rationals):
        f = constant_linear_presheaf(chain3, field, 2)
        doc = roundtrip(presheaf_to_doc(f))
        back = presheaf_from_doc(doc, chain3)
        assert back.field == field
        assert back.dims == f.dims and back.mats == f.mats


def test_rational_entries_roundtrip(chain3, rationals):
    from fractions import Fraction
    from finsite.fields import matrix
    half = Fraction(1, 2)
    f = constant_linear_presheaf(chain3, rationals, 1)
    mats = dict(f.mats)
    mats["f"] = matrix(rationals, [[half]])
    mats["gf"] = matrix(rationals, [[half]])
    from finsite.presheaves import LinearPresheaf
    g = LinearPresheaf(chain3, rationals, dict(f.dims), mats)
    doc = roundtrip(presheaf_to_doc(g))
    assert doc["maps"]["f"] == [["1/2"]]
    back = presheaf_from_doc(doc, chain3)
    assert back.mat("f").entry(0, 0) == half


def test_algebra_presheaf_roundtrip(f5):
    r = chain_diagonal_algebra_presheaf(f5)
    doc = roundtrip(algebra_presheaf_to_doc(r))
    back = algebra_presheaf_from_doc(doc, r.cat)
    assert back.algebra("x").table == r.algebra("x").table
    assert back.mat("f") == r.mat("f")


def test_module_documents_roundtrip(chain3, f5):
    r = chain_diagonal_algebra_presheaf(f5)
    rng = random.Random(0)
    m = random_module_presheaf(r, rng)
    doc = roundtrip(module_presheaf_to_doc(m))
    back = module_presheaf_from_doc(doc, r)
    assert back.space.dims == m.space.dims
    assert back.actions == m.actions
    skew = skew_category_algebra(chain3, r)
    n = to_algebra_module(m, skew)
    ndoc = roundtrip(algebra_module_to_doc(n))
    nback = algebra_module_from_doc(ndoc, skew)
    assert nback.actions == n.actions


def test_skew_algebra_doc(chain3, f2):
    r = constant_algebra_presheaf(chain3, field_algebra(f2))
    doc = roundtrip(skew_algebra_to_doc(skew_category_algebra(chain3, r)))
    assert doc["dim"] == 6
    assert doc["basis"][0] == ["1x", "1"]


def test_set_elements_colliding_as_strings_rejected(chain3):
    from finsite.presheaves import SetPresheaf
    f = SetPresheaf(chain3, {"x": (1, "1"), "y": (), "z": ()},
                    {"1x": {1: 1, "1": "1"}, "1y": {}, "1z": {},
                     "f": {}, "g": {}, "gf": {}})
    with pytest.raises(DocumentError, match="collide"):
        presheaf_to_doc(f)


def test_conflicting_compose_entries_rejected(chain3):
    from finsite.category import category_problems
    data = chain3.to_data()
    data["compose"].append({"g": "g", "f": "f", "gf": "g"})
    problems = category_problems(data)
    assert any("conflicting composite" in p for p in problems)


def test_unknown_fields_rejected(chain3):
    doc = category_to_doc(chain3)
    doc["surprise"] = 1
    with pytest.raises(DocumentError, match="surprise"):
        category_from_doc(roundtrip(doc))


def test_format_header_required(chain3):
    doc = category_to_doc(chain3)
    doc.pop("format")
    with pytest.raises(DocumentError, match="format"):
        load_text(dump_text(doc))


def test_malformed_yaml_diagnosed():
    with pytest.raises(DocumentError, match="YAML"):
        load_text("kind: [unclosed")


def test_dump_is_deterministic(chain3):
    a = dump_text(category_to_doc(chain3))
    b = dump_text(category_to_doc(chain_poset(3)))
    assert a == b


def test_topology_doc_rejects_unknown_morphisms(chain3):
    doc = topology_to_doc(subcategory_topology(chain3, ("x",)))
    doc["covering"]["z"][0] = ["nope"]
    with pytest.raises(DocumentError, match="nope"):
        topology_from_doc(roundtrip(doc), chain3)


@pytest.mark.parametrize("raw", ["1/0", "abc", "1/x", ""])
def test_bad_scalar_strings_rejected(chain3, f5, rationals, raw):
    for field in (f5, rationals):
        doc = presheaf_to_doc(constant_linear_presheaf(chain3, field, 1))
        doc["maps"]["f"] = [[raw]]
        with pytest.raises(DocumentError, match="bad field element"):
            presheaf_from_doc(roundtrip(doc), chain3)
