import random

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finsite import serialize
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

from oracles import pure_yaml


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
    assert back.algebra("x").products == r.algebra("x").products
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


class TestWithThePureClasses:
    """Every test above, with finsite.serialize on PyYAML's pure-Python
    loader and dumper instead of libyaml."""

    pytestmark = pytest.mark.usefixtures("pure_yaml_backend")


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestWithThePureClasses, _name, staticmethod(_test))


# -- the libyaml backend against the pure-Python classes ----------------------

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")
BACKENDS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# Scalars that need quoting or look like other types, and a leading "-".
AWKWARD = ["1/2", "yes", "null", "S3/{e,(23)}", "-x", "- a", "-1/3", "~", "a: b", "#x",
           "'", '"', "on", "1e3", "0x1F", "2001-01-01", " padded ", "[a]", "{b}"]
PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
PLAIN_SCALARS = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.none(),
                          st.sampled_from(AWKWARD + [""]), st.text(PRINTABLE, max_size=300))
# libyaml writes empty keys and keys of 123 to 128 characters otherwise
PLAIN_KEYS = st.one_of(st.sampled_from(AWKWARD), st.text(PRINTABLE, min_size=1, max_size=12),
                       st.text(PRINTABLE, min_size=129, max_size=200))
NON_ASCII = st.one_of(st.sampled_from(["é", "Ωmega", "日本", "S3/{e,(23)}→x"]),
                      st.text(max_size=40), st.text(min_size=40, max_size=120))
ANY_KEYS = st.one_of(PLAIN_KEYS, NON_ASCII, st.just(""),
                     st.text(PRINTABLE, min_size=120, max_size=131))
# flow lists of integers wider than the 100 columns of the dump
WIDE_LISTS = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=30, max_size=60)


def documents(scalars, keys):
    nodes = st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(keys, inner, max_size=4), WIDE_LISTS),
        max_leaves=25)
    return st.dictionaries(keys, nodes, min_size=1, max_size=5)


def _pure_dump(doc) -> str:
    with pure_yaml():
        return dump_text(doc)


@needs_libyaml
@BACKENDS
@given(documents(PLAIN_SCALARS, PLAIN_KEYS))
def test_libyaml_writes_the_pure_bytes_on_plain_documents(doc):
    """On printable ASCII with no key empty or 123 to 128 long, libyaml's own
    emitter already writes the pure bytes, so no document is rewritten."""
    expected = _pure_dump(doc)
    assert dump_text(doc) == expected
    assert yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=False,
                     default_flow_style=None, width=100) == expected
    assert serialize._load(expected, yaml.CSafeLoader) == \
        serialize._load(expected, yaml.SafeLoader) == doc


@needs_libyaml
@BACKENDS
@given(documents(st.one_of(PLAIN_SCALARS, NON_ASCII), ANY_KEYS))
def test_both_backends_write_the_same_bytes(doc):
    expected = _pure_dump(doc)
    assert dump_text(doc) == expected
    assert serialize._load(expected, yaml.CSafeLoader) == \
        serialize._load(expected, yaml.SafeLoader) == doc


@needs_libyaml
@pytest.mark.parametrize("doc", [{"": 1}, {"k": {"a" * 125: [1]}}, {"k": "é" * 40},
                                 {"k": ["x\ty" * 30]}], ids=["empty key", "key of 125",
                                                             "escaped text", "tabs"])
def test_documents_libyaml_writes_otherwise_are_written_by_the_pure_dumper(doc):
    assert dump_text(doc) == _pure_dump(doc)


HOSTILE = {
    "unclosed flow sequence": "kind: [unclosed",
    "unclosed list in a category": "format: finsite/1\nkind: category\nobjects: [x\n",
    "mapping in a plain scalar": "a: b: c",
    "block sequence then mapping": "- a\nb: c",
    "unclosed flow mapping": "{a: 1",
    "unclosed quote": "a: 'x",
    "tab indentation": "a:\n\t- b",
    "extra bracket": "a: [1, 2]]",
    "control character": "a: \x01",
    "unknown tag": "a: !foo x",
    "unknown escape": 'a: "\\q"',
    "month 13": "name: 2001-13-45",
    "!!int 0x": 'name: !!int "0x"',
    "!!int empty": 'name: !!int ""',
    "!!bool x": "name: !!bool x",
    "!!timestamp x": "name: !!timestamp x",
    "3,000 levels": "[" * 3000,
    "100,000 levels": "[" * 100_000,
    # libyaml reads these and PyYAML refuses them, or reads them otherwise
    "tab inside a plain scalar": "a: b\tc",
    "tab in a flow sequence": "objects: [x,\ty]",
    "tab after a colon": "a:\tb",
    "non-specific tag": "a: !",
    "non-specific tag on a value": "a: ! x",
    "|# header": "a: |#\n  x\n",
    "># header": "a: >#\n  x\n",
}


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_documents_get_the_pure_diagnostic(text):
    with pytest.raises(DocumentError) as got:
        load_text(text)
    with pure_yaml(), pytest.raises(DocumentError) as pure:
        load_text(text)
    assert str(got.value) == str(pure.value)
    assert str(got.value).startswith("not valid YAML: ") or \
        str(got.value) == "document nests collections deeper than the limit of 100 levels"


def _nested(depth: int) -> str:
    """A document whose collections nest depth deep, its own mapping included."""
    return f"format: finsite/1\nkind: x\nv: {'[' * (depth - 1)}{']' * (depth - 1)}\n"


def test_nesting_up_to_the_limit_is_read():
    v = load_text(_nested(serialize.MAX_DEPTH))["v"]
    for _ in range(serialize.MAX_DEPTH - 2):
        (v,) = v
    assert v == []
    with pytest.raises(DocumentError, match="limit of 100 levels"):
        load_text(_nested(serialize.MAX_DEPTH + 1))
