import functools
import os
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

from oracles import pure_dump, pure_yaml


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


def _presheaf_docs(chain3, f5):
    """A set, a linear, an algebra and a module presheaf document, each with
    its reader."""
    r = chain_diagonal_algebra_presheaf(f5)
    return [(presheaf_to_doc(representable_presheaf(chain3, "y")),
             lambda doc: presheaf_from_doc(doc, chain3)),
            (presheaf_to_doc(constant_linear_presheaf(chain3, f5, 1)),
             lambda doc: presheaf_from_doc(doc, chain3)),
            (algebra_presheaf_to_doc(r), lambda doc: algebra_presheaf_from_doc(doc, chain3)),
            (module_presheaf_to_doc(random_module_presheaf(r, random.Random(3))),
             lambda doc: module_presheaf_from_doc(doc, r))]


@pytest.mark.parametrize("field,key,what", [("values", "zz", "object"),
                                            ("dims", "zz", "object"),
                                            ("maps", "bogus", "morphism")])
def test_presheaf_keys_naming_nothing_rejected(chain3, f5, field, key, what):
    """A key of dims, values or maps that names no object or morphism is
    refused by name, not dropped."""
    tried = 0
    for doc, read in _presheaf_docs(chain3, f5):
        if field not in doc:
            continue
        entry = doc[field]["y" if field != "maps" else "g"]
        doc[field] = {**doc[field], key: entry}
        with pytest.raises(DocumentError) as got:
            read(roundtrip(doc))
        assert str(got.value).endswith(f": field {field!r} names no {what}: {key!r}")
        tried += 1
    assert tried == (1 if field == "values" else 2 if field == "dims" else 4)


def test_negative_dimension_rejected_by_name(chain3, f5):
    doc = presheaf_to_doc(constant_linear_presheaf(chain3, f5, 1))
    doc["dims"]["x"] = -1
    with pytest.raises(DocumentError, match="^presheaf: field 'dims' at 'x' is negative: -1$"):
        presheaf_from_doc(roundtrip(doc), chain3)


@pytest.mark.parametrize("raw", ["1/0", "abc", "1/x", ""])
def test_bad_scalar_strings_rejected(chain3, f5, rationals, raw):
    for field in (f5, rationals):
        doc = presheaf_to_doc(constant_linear_presheaf(chain3, field, 1))
        doc["maps"]["f"] = [[raw]]
        with pytest.raises(DocumentError, match="bad field element"):
            presheaf_from_doc(roundtrip(doc), chain3)


class TestWithThePureClasses:
    """Every test above, with finsite.serialize on PyYAML's pure-Python
    parser and SafeDumper instead of libyaml and its own emitter."""

    pytestmark = pytest.mark.usefixtures("pure_yaml_backend")


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestWithThePureClasses, _name, staticmethod(_test))


# -- the emitter and the libyaml parser against PyYAML's pure classes ---------

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")
BACKENDS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# Scalars that need quoting or look like other types, and a leading "-".
AWKWARD = ["1/2", "yes", "null", "S3/{e,(23)}", "-x", "- a", "-1/3", "~", "a: b", "#x",
           "'", '"', "on", "1e3", "0x1F", "2001-01-01", " padded ", "[a]", "{b}", "?x",
           "? x", ":x", "a:", "a #b", "a#b", "---x", "...", "<<", "=", "!x", "a, b"]
PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
# Object names of the orbit categories, and element names of sheafified set
# presheaves: tuples of names, quoted and spaced, longer than a line.
OBJECT_NAMES = st.builds(lambda g, es: f"{g}/{{{','.join(es)}}}",
                         st.sampled_from(["S3", "S4", "C2"]),
                         st.lists(st.sampled_from(["e", "(12)", "(23)", "(123)", "r2"]),
                                  min_size=1, max_size=4))
SPACED = st.lists(st.one_of(OBJECT_NAMES, st.text(PRINTABLE, max_size=8)), min_size=2,
                  max_size=40).map(lambda names: "(" + ", ".join(map(repr, names)) + ")")
PLAIN_SCALARS = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.none(),
                          st.sampled_from(AWKWARD + [""]), st.text(PRINTABLE, max_size=300),
                          OBJECT_NAMES, SPACED)
# keys the Emitter writes in the simple "key:" form
SIMPLE_KEYS = st.one_of(st.sampled_from(AWKWARD), st.text(PRINTABLE, min_size=1, max_size=12),
                        st.text(PRINTABLE, min_size=100, max_size=122), OBJECT_NAMES)
PLAIN_KEYS = st.one_of(SIMPLE_KEYS, st.text(PRINTABLE, min_size=123, max_size=200), SPACED)
NON_ASCII = st.one_of(st.sampled_from(["é", "Ωmega", "日本", "S3/{e,(23)}→x"]),
                      st.text(max_size=40), st.text(min_size=40, max_size=120))
ANY_KEYS = st.one_of(PLAIN_KEYS, NON_ASCII, st.just(""),
                     st.text(PRINTABLE, min_size=120, max_size=131))
# flow lists of integers wider than the 100 columns of the dump
WIDE_LISTS = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=30, max_size=60)
# structure constant tables, as in alg skew
TABLES = st.lists(st.lists(st.lists(st.integers(-3, 10 ** 4), max_size=8), min_size=1,
                           max_size=5), min_size=1, max_size=5)


def documents(scalars, keys):
    nodes = st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(keys, inner, max_size=4), WIDE_LISTS,
        TABLES), max_leaves=25)
    # a flat top-level mapping, such as {sheaf: true}, is written in flow style
    return st.one_of(st.dictionaries(keys, nodes, min_size=1, max_size=5),
                     st.dictionaries(keys, scalars, min_size=1, max_size=8))


def shared(docs, scalars):
    """docs with one list in three places, which SafeDumper writes once,
    with an anchor, and then as aliases."""
    return st.builds(lambda doc, row: {**doc, "rows": [row, row], "row": row},
                     docs, st.lists(scalars, max_size=6))


def _pure_load(text: str):
    return serialize._load(text, yaml.SafeLoader)


@needs_libyaml
@BACKENDS
@given(documents(PLAIN_SCALARS, SIMPLE_KEYS))
def test_the_emitter_writes_the_pure_bytes_on_family_documents(doc):
    """On printable ASCII with no key in a block mapping empty or 123
    characters long, the emitter writes SafeDumper's bytes itself."""
    expected = pure_dump(doc)
    assert serialize._emit(doc) == expected
    assert dump_text(doc) == expected
    assert serialize._load(expected, yaml.CSafeLoader) == _pure_load(expected) == doc


@needs_libyaml
@BACKENDS
@given(st.one_of(documents(st.one_of(PLAIN_SCALARS, NON_ASCII), ANY_KEYS),
                 shared(documents(PLAIN_SCALARS, PLAIN_KEYS), PLAIN_SCALARS)))
def test_both_backends_write_the_same_bytes(doc):
    expected = pure_dump(doc)
    assert dump_text(doc) == expected
    with pure_yaml():
        assert dump_text(doc) == expected
    assert serialize._load(expected, yaml.CSafeLoader) == _pure_load(expected) == doc


OUTSIDE = {"empty key": {"": [1]}, "key of 123": {"k": {"a" * 123: [1]}},
           "escaped text": {"k": "é" * 40}, "tabs": {"k": ["x\ty" * 30]},
           "a line break": {"k": [["a\nb"]]}, "a shared list": {"k": [[1], [2]]}}
OUTSIDE["a shared list"]["again"] = OUTSIDE["a shared list"]["k"][0]


@pytest.mark.parametrize("doc", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_documents_outside_the_family_are_written_by_the_pure_dumper(doc):
    assert serialize._emit(doc) is None
    assert dump_text(doc) == pure_dump(doc)


@pytest.mark.parametrize("doc", [{"k": {"": 1, "b": 2}}, {"k": {"a" * 200: "x"}, "v": [[]]},
                                 {"k": {"a" * 122: [1]}}],
                         ids=["empty key", "long key", "key of 122"])
def test_explicit_keys_of_flow_mappings_and_keys_of_122_are_in_the_family(doc):
    assert serialize._emit(doc) == pure_dump(doc)


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


HEADER = "format: finsite/1\nkind: x\n"
HANDED_TO_YAML_LOAD = {
    "anchor and alias": "a: &r [1, 2]\nb: *r\n",
    "anchor alone": "a: &r [1, 2]\n",
    "merge key": "base: &b {p: 1}\nd:\n  <<: *b\n  q: 2\n",
    "explicit tags": 'a: !!int "3"\nb: !!str 4\nc: !!float 1\n',
    "collection as a key": "? [a, b]\n: 1\n",
    "flow mapping as a key": "{a: 1}: 2\n",
    "tagged collection": "s: !!set {a, b}\n",
}


@pytest.mark.parametrize("text", HANDED_TO_YAML_LOAD.values(), ids=HANDED_TO_YAML_LOAD.keys())
def test_constructs_finsite_never_writes_are_read_as_safe_load_reads_them(text):
    text = HEADER + text
    try:
        expected = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        with pytest.raises(DocumentError) as got:
            load_text(text)
        assert str(got.value) == f"not valid YAML: {exc}"
    else:
        assert load_text(text) == expected
        with pure_yaml():
            assert load_text(text) == expected


# -- the one-pass loader against the pure loader, on mutated documents --------


@functools.cache
def _fuzz_bases() -> list:
    """Texts of the shapes the workloads read: a category, a topology on
    orbit names, a linear presheaf, a set presheaf with long spaced names,
    and a skew algebra's nested table."""
    from finsite.fields import PrimeField
    from finsite.gallery import orbit_category, symmetric_group
    chain3, f2 = chain_poset(3), PrimeField(2)
    orbit = orbit_category(symmetric_group(3))
    name = "(" + ", ".join(["'S3/1#0'", "'S3/1#1'"] * 12) + ")"
    spaced = {"format": "finsite/1", "kind": "presheaf", "flavor": "set",
              "values": {"S3/1": [name, "a b"]}, "maps": {"1": {name: name, "a b": "a b"}}}
    return [dump_text(doc) for doc in (
        category_to_doc(chain3),
        topology_to_doc(subcategory_topology(
            orbit, ("S3/1", "S3/{e,(23)}", "S3/{e,(12)}", "S3/{e,(13)}"))),
        presheaf_to_doc(constant_linear_presheaf(chain3, PrimeField(5), 2)),
        spaced,
        skew_algebra_to_doc(skew_category_algebra(
            chain3, constant_algebra_presheaf(chain3, field_algebra(f2)))))]


# YAML's indicators and the constructs the one-pass builder hands to yaml.load
FUZZ_TOKENS = ["\t", "!", "! ", "!!int ", "!!str ", "!foo ", "&a ", "*a", "&a [1]", "<<: ",
               "<<: *a", "? ", "[" * 3, "[" * 101, ": ", "- ", "'", '"', "#", "{", "}", ",",
               "\n", " ", "|", ">", "|#\n", "---\n", "...\n", "%YAML 1.1\n---\n", "~", "=",
               "1e3", ".nan", "2001-13-45", "0x"]


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(_fuzz_bases()))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        token = draw(st.one_of(st.sampled_from(FUZZ_TOKENS),
                               st.text(PRINTABLE, min_size=1, max_size=3)))
        cut = draw(st.sampled_from((0, len(token))))  # insert, or replace
        if draw(st.booleans()):
            token = ""  # delete
        text = text[:at] + token + text[at + cut:]
    return text


def _read(text: str) -> str:
    try:
        return repr(load_text(text))  # repr, since nan != nan
    except DocumentError as exc:
        return f"DocumentError: {exc}"


@needs_libyaml
@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_the_one_pass_loader_reads_mutated_documents_as_the_pure_loader(text):
    got = _read(text)
    with pure_yaml():
        assert got == _read(text)
    if not got.startswith("DocumentError: "):
        assert got == repr(yaml.load(text, Loader=yaml.SafeLoader))


LADDERBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "ladderbench")


def test_workload_documents_take_neither_yaml_load_nor_the_pure_dumper(tmp_path, monkeypatch):
    """Every document that the four benchmark workloads write at set-up,
    and that their commands read and write in one pass, is built from one
    parse and written by the emitter."""
    import contextlib
    import io

    from finsite import cli
    monkeypatch.syspath_prepend(LADDERBENCH)
    import workloads
    counts = {"emitted": 0, "dumped": 0, "built": 0, "loaded": 0}
    emit, build = serialize._emit, serialize._build

    def counting_emit(doc):
        text = emit(doc)
        counts["emitted" if text is not None else "dumped"] += 1
        return text

    def counting_build(parser, libyaml):
        data = build(parser, libyaml)
        counts["loaded" if data is serialize._WHOLE else "built"] += 1
        return data

    monkeypatch.setattr(serialize, "_emit", counting_emit)
    monkeypatch.setattr(serialize, "_build", counting_build)
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        for op in workloads.BUILDERS[name](workloads.Builder(str(tmp_path / name), 5)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(op.argv))
    assert counts["dumped"] == counts["loaded"] == 0
    assert counts["emitted"] > 200 and counts["built"] > 150
