"""One structured-text format family for every artifact.

Documents are YAML with two fixed header fields: ``format: finsite/1``
and a ``kind`` tag. Parsers reject unknown fields and name the offending
field in the diagnostic. Emission is deterministic: key order is the
construction order, never alphabetical, so golden files are byte-stable.

Field elements are written as integers when possible and as "n/d"
strings for non-integral rationals.

Each text is parsed once, by libyaml when PyYAML was built with it and
by PyYAML's pure parser otherwise, and the data are built straight from
its event stream, plain scalars by PyYAML's resolver and constructors.
The same walk refuses a document nesting collections deeper than
MAX_DEPTH before it is built: libyaml's composer recurses without limit
and crashes the process at 30,000 levels, and the pure one raises
RecursionError at about 500. A text holding a tab or a block scalar,
which libyaml's parser reads more laxly, is read by the pure parser; a
scalar with the non-specific tag "!", which the two read differently, is
refused by both. A text with an anchor, an alias, an explicit tag, a
merge key, a collection as a key or a second document is read by
yaml.load once the walk has passed it. Diagnostics are the pure loader's
wording.

Documents are written by one emitter for finsite's document family:
mappings with string keys, lists, integers, booleans, None and printable
ASCII strings, each collection in flow style when it holds no collection
and in block style otherwise, wrapped at width 100. It writes the bytes
of PyYAML's pure SafeDumper, which writes every document outside the
family: one holding a string that is not printable ASCII, an empty key
or a key of 123 characters or more in a block mapping (written in the
explicit "? key" form), or a collection that occurs twice (written with
an anchor).
"""

from __future__ import annotations

import re
from fractions import Fraction

import yaml

from .algebras import AlgebraPresheaf, FiniteDimAlgebra, SkewCategoryAlgebra
from .category import FiniteCategory, validate_category
from .errors import EngineError
from .fields import Matrix, field_by_label, matrix
from .groups import FiniteGroup
from .modules import AlgebraModule, ModulePresheaf
from .presheaves import LinearPresheaf, SetPresheaf
from .sieves import Sieve
from .topology import GrothendieckTopology, check_topology

FORMAT = "finsite/1"
# Documents nesting collections deeper than this are refused when read.
MAX_DEPTH = 100
# Besides YAMLError, the constructors raise these on a malformed tagged or
# implicit scalar: a date 2001-13-45, !!int "0x", !!int "", !!bool x,
# !!timestamp x.
_NOT_YAML = (yaml.YAMLError, ValueError, LookupError, AttributeError)
_BLOCK = ("|", ">")
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_STR = "tag:yaml.org,2002:str"
_RESOLVER = yaml.resolver.Resolver()
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
# Data that yaml.load builds from the whole text: those with an anchor, an
# alias, an explicit tag, a merge key or a collection as a key, a second
# document, or a scalar that its constructor refuses (yaml.load then
# words the refusal).
_WHOLE = object()
_ABSENT = object()  # a key not read yet, or a scalar not in the cache


class DocumentError(EngineError):
    pass


def _expect(doc: dict, required: set, optional: set, where: str):
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a mapping")
    unknown = set(doc) - required - optional
    if unknown:
        raise DocumentError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    missing = required - set(doc)
    if missing:
        raise DocumentError(f"{where}: missing field {sorted(missing)[0]!r}")


def _tag(value: str) -> str:
    """The tag of the plain scalar value. The resolver tries only the
    patterns listed under value's first character."""
    if value[:1] not in _RESOLVER.yaml_implicit_resolvers:
        return _STR
    return _RESOLVER.resolve(yaml.ScalarNode, value, (True, False))


def _plain(value: str):
    """The data of the plain scalar value, or _WHOLE."""
    tag = _tag(value)
    if tag == _STR:
        return value
    construct = _CONSTRUCTOR.yaml_constructors.get(tag)
    if construct is None:
        return _WHOLE
    try:
        # Called directly, not through construct_object, which would keep
        # every node it built.
        return construct(_CONSTRUCTOR, yaml.ScalarNode(tag, value))
    except _NOT_YAML:
        return _WHOLE


def _build(parser, libyaml: bool):
    """The data of the parser's event stream, or _WHOLE where yaml.load
    must build them, once the stream has shown that no collection nests
    deeper than MAX_DEPTH and that no scalar has the non-specific tag "!"
    (`a: !` reads as '' with libyaml and as None without). Under libyaml
    a block scalar, whose header libyaml reads more laxly (`|#`), raises
    YAMLError, so that the pure parser reads or refuses it."""
    root = top = None  # the document, and the innermost open collection
    in_list = False  # whether top is a list
    key = _ABSENT  # the key of top's next value, when top is a mapping
    outer = []  # (top, in_list, key) of the collections around top
    cache = {}  # plain scalar -> its data, within this document
    depth = documents = 0
    whole = False
    get = parser.get_event
    while True:
        event = get()
        kind = event.__class__
        if kind is yaml.ScalarEvent:
            if event.tag is not None:
                if event.tag == "!":
                    mark = event.start_mark
                    raise yaml.YAMLError(f"the non-specific tag '!' on a scalar, at line "
                                         f"{mark.line + 1}, column {mark.column + 1}")
                whole = True
            if libyaml and event.style in _BLOCK:
                raise yaml.YAMLError("a block scalar")
            if whole or event.anchor is not None:
                whole = True
                continue
            value = event.value
            if event.implicit[0]:
                data = cache.get(value, _ABSENT)
                if data is _ABSENT:
                    data = cache[value] = _plain(value)
                if data is _WHOLE:
                    whole = True
                    continue
                value = data
        elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            depth += 1
            if depth > MAX_DEPTH:
                raise DocumentError(f"document nests collections deeper than "
                                    f"the limit of {MAX_DEPTH} levels")
            if whole or event.anchor is not None or event.tag is not None \
                    or (top is not None and not in_list and key is _ABSENT):
                whole = True
                continue
            value = {} if kind is yaml.MappingStartEvent else []
        elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            depth -= 1
            if not whole:
                top, in_list, key = outer.pop()
            continue
        elif kind is yaml.StreamEndEvent:
            return _WHOLE if whole else root
        else:
            if kind is yaml.AliasEvent:
                whole = True
            elif kind is yaml.DocumentStartEvent:
                documents += 1
                whole = whole or documents > 1
            continue
        if in_list:
            top.append(value)
        elif top is None:
            root = value
        elif key is _ABSENT:
            key = value
        else:
            top[key] = value
            key = _ABSENT
        if kind is not yaml.ScalarEvent:
            outer.append((top, in_list, key))
            top, in_list, key = value, kind is yaml.SequenceStartEvent, _ABSENT


def _load(text: str, loader):
    """The data of text, read by loader as _build says. libyaml hands
    the pure parser every text with a tab, which PyYAML refuses outside
    quotes, block scalars and comments, by raising YAMLError."""
    libyaml = loader is not yaml.SafeLoader
    if libyaml and "\t" in text:
        raise yaml.YAMLError("a tab")
    parser = loader(text)
    try:
        data = _build(parser, libyaml)
    finally:
        parser.dispose()
    return yaml.load(text, Loader=loader) if data is _WHOLE else data


def load_text(text: str) -> dict:
    try:
        try:
            doc = _load(text, _LOADER)
        except _NOT_YAML:
            if _LOADER is yaml.SafeLoader:
                raise
            # The pure loader words the diagnostic, so that it does not
            # depend on the backend.
            doc = _load(text, yaml.SafeLoader)
    except _NOT_YAML as exc:
        raise DocumentError(f"not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document is not a mapping")
    if doc.get("format") != FORMAT:
        raise DocumentError(f"missing or unsupported format header "
                            f"(expected {FORMAT!r})")
    if "kind" not in doc:
        raise DocumentError("missing field 'kind'")
    return doc


# -- the emitter ------------------------------------------------------------

_WIDTH = 100
_WORDS = re.compile(r" +|[^ ]+").findall
_FLOW_INDICATOR = re.compile(r"[,?\[\]{}:]").search
_COLLECTIONS = frozenset((dict, list, tuple))
_SCALARS = {True: "true", False: "false", None: "null"}


class _Outside(Exception):
    """The document holds a value outside the family that _Emitter writes."""


def _texts(s: str) -> tuple:
    """s as SafeDumper writes it in a block and in a flow context: plain,
    or single-quoted. The rules of PyYAML's Emitter.analyze_scalar, for
    printable ASCII."""
    if not (s.isascii() and s.isprintable()):
        raise _Outside
    quoted = "'" + s.replace("'", "''") + "'"
    if not s or s[0] in "#,[]{}&*!|>'\"%@` " or s[-1] == " " \
            or s.startswith(("---", "...")) or " #" in s or _tag(s) != _STR:
        return quoted, quoted
    spaced = len(s) == 1 or s[1] == " "
    if (s[0] == "-" and spaced) or ": " in s or (s[-1] == ":" and len(s) > 1):
        return quoted, quoted
    block = quoted if s[0] in "?:" and spaced else s
    return block, quoted if _FLOW_INDICATOR(s) else s


class _Emitter:
    """PyYAML's Emitter as SafeDumper drives it with sort_keys=False,
    default_flow_style=None and width=100, on finsite's document family.
    column, whitespace and indention are the Emitter's own state: the
    column, whether the last character written was a space or a break, and
    whether the line so far holds only indentation and indicators."""

    def __init__(self):
        self.out = []
        self.column = 0
        self.whitespace = self.indention = True
        self.seen = set()  # the collections written, by id
        self.texts = {}  # string -> _texts

    def indicator(self, text: str, need_space: bool, whitespace=False, indention=False):
        if need_space and not self.whitespace:
            text = " " + text
        self.whitespace = whitespace
        self.indention = self.indention and indention
        self.column += len(text)
        self.out.append(text)

    def indent(self, indent: int):
        if not self.indention or self.column > indent or \
                (self.column == indent and not self.whitespace):
            self.out.append("\n")
            self.column = 0
            self.whitespace = self.indention = True
        if self.column < indent:
            self.out.append(" " * (indent - self.column))
            self.column = indent
            self.whitespace = True

    def scalar(self, value, flow: bool, indent: int, split=True):
        """value at the scalar indent indent; with split it folds at a
        single space past the width."""
        kind = value.__class__
        if kind is int:
            text = str(value)
        elif kind is str:
            texts = self.texts.get(value)
            if texts is None:
                texts = self.texts[value] = _texts(value)
            text = texts[flow]
            if split and " " in text:
                return self.fold(text, indent)
        elif kind is bool or value is None:
            text = _SCALARS[value]
        else:
            raise _Outside
        if not self.whitespace:
            text = " " + text
        self.out.append(text)
        self.column += len(text)
        self.whitespace = self.indention = False

    def fold(self, text: str, indent: int):
        """text, plain or single-quoted, broken at a single space past the
        width onto a line at indent."""
        plain = text[0] != "'"
        if plain:
            self.indicator("", True)
        else:
            self.indicator("'", True)
            text = text[1:-1]
        words = _WORDS(text)
        last = len(words) - 1
        for i, word in enumerate(words):
            if word == " " and self.column > _WIDTH and 0 < i < last:
                self.indent(indent)
                if plain:
                    self.whitespace = self.indention = False
            else:
                self.out.append(word)
                self.column += len(word)
        self.indicator("" if plain else "'", False)

    def key(self, key, flow: bool, indent: int):
        """key and its ":" in a mapping at indent. An empty key, or one of
        123 characters or more, takes the explicit "? key" form, written
        here in flow mappings only: the Emitter counts the key's tag !!str
        in its limit of 128 characters."""
        if key.__class__ is not str:
            raise _Outside
        if 0 < len(key) < 123:
            self.scalar(key, flow, indent + 2, split=False)
            self.indicator(":", False)
        elif flow:
            self.indicator("?", True)
            self.scalar(key, True, indent + 2)
            if self.column > _WIDTH:
                self.indent(indent)
            self.indicator(":", True)
        else:
            raise _Outside

    def node(self, node, indent: int, in_mapping: bool):
        """A value in a block collection at indent."""
        kind = node.__class__
        if kind not in _COLLECTIONS:
            return self.scalar(node, False, indent + 2)
        if node != () and id(node) in self.seen:
            raise _Outside
        self.seen.add(id(node))
        if _COLLECTIONS.isdisjoint(map(type, node.values() if kind is dict else node)):
            self.flow(node, indent + 2)
        elif kind is dict:
            self.block_mapping(node, indent + 2)
        else:
            self.block_sequence(node, indent if in_mapping else indent + 2)

    def flow(self, node, indent: int):
        """A collection of scalars in flow style, at indent."""
        mapping = node.__class__ is dict
        self.indicator("{" if mapping else "[", True, whitespace=True)
        for i, item in enumerate(node):
            if i:
                self.indicator(",", False)
            if self.column > _WIDTH:
                self.indent(indent)
            if mapping:
                self.key(item, True, indent)
                item = node[item]
            self.scalar(item, True, indent + 2)
        self.indicator("}" if mapping else "]", False)

    def block_mapping(self, node: dict, indent: int):
        for key, value in node.items():
            self.indent(indent)
            self.key(key, False, indent)
            self.node(value, indent, True)

    def block_sequence(self, node, indent: int):
        for item in node:
            self.indent(indent)
            self.indicator("-", True, indention=True)
            self.node(item, indent, False)


def _emit(doc) -> str | None:
    """doc as SafeDumper writes it, or None outside the family."""
    if doc.__class__ is not dict:
        return None
    emitter = _Emitter()
    emitter.seen.add(id(doc))
    try:
        if _COLLECTIONS.isdisjoint(map(type, doc.values())):
            emitter.flow(doc, 2)
        else:
            emitter.block_mapping(doc, 0)
    except _Outside:
        return None
    emitter.indent(0)
    return "".join(emitter.out)


def dump_text(doc: dict) -> str:
    text = _emit(doc)
    if text is None:
        text = yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False,
                         default_flow_style=None, width=100)
    return text


def _scalar_out(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return int(value)


def _scalar_in(field, raw):
    if isinstance(raw, str):
        try:
            if "/" in raw:
                num, den = raw.split("/", 1)
                return field.of(Fraction(int(num), int(den)))
            return field.of(int(raw))
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"bad field element {raw!r}") from None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise DocumentError(f"bad field element {raw!r}")
    return field.of(raw)


def _matrix_out(m: Matrix) -> list:
    return [[_scalar_out(e) for e in row] for row in m.data]


def _matrix_in(field, raw, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != rows \
            or any(not isinstance(r, list) or len(r) != cols for r in raw):
        raise DocumentError(f"{where}: expected a {rows}x{cols} matrix")
    return matrix(field, [[_scalar_in(field, e) for e in row] for row in raw],
                  cols=cols)


_KINDS = {dict: "a mapping", list: "a list", int: "an integer"}


def _typed(raw, kind: type, what: str):
    """raw, which must be of kind dict, list or int (not a boolean); what
    names it in the diagnostic."""
    if not isinstance(raw, kind) or isinstance(raw, bool):
        raise DocumentError(f"{what} must be {_KINDS[kind]}")
    return raw


def _names(raw, what: str, *, strict: bool = False):
    """raw, a list or mapping none of whose entries is a list or mapping;
    when strict, every entry is a string."""
    for a in raw.values() if isinstance(raw, dict) else raw:
        if isinstance(a, (list, dict)) or strict and not isinstance(a, str):
            raise DocumentError(f"{what}: {a!r} is not a name")
    return raw


def _keyed(raw: dict, names, what: str, where: str, field: str) -> dict:
    """raw, a mapping from names of the category, once each of its keys
    is found among names: the objects or the morphisms, as what says."""
    for key in raw:
        if key not in names:
            raise DocumentError(f"{where}: field {field!r} names no {what}: {key!r}")
    return raw


def _dim(raw, what: str) -> int:
    """raw, an integer that is not negative; what names it."""
    if _typed(raw, int, what) < 0:
        raise DocumentError(f"{what} is negative: {raw}")
    return raw


def _dims_in(doc: dict, cat: FiniteCategory, where: str) -> dict:
    raw = _keyed(_typed(doc["dims"], dict, f"{where}: field 'dims'"), cat.obj_index,
                 "object", where, "dims")
    return {x: _dim(raw.get(x, 0), f"{where}: field 'dims' at {x!r}") for x in cat.objects}


def _maps_out(cat: FiniteCategory, mat) -> dict:
    """The map table of a linear presheaf, mat(f) being the matrix of f."""
    return {m.name: _matrix_out(mat(m.name)) for m in cat.morphisms}


def _maps_in(doc: dict, cat: FiniteCategory, field, dims: dict, where: str) -> dict:
    """The matrices of a map table, f of shape dims[dom f] x dims[cod f]."""
    raw = _keyed(_typed(doc["maps"], dict, f"{where}: field 'maps'"), cat.mor_index,
                 "morphism", where, "maps")
    mats = {}
    for m in cat.morphisms:
        if raw.get(m.name) is None:
            raise DocumentError(f"{where}: missing map for {m.name!r}")
        mats[m.name] = _matrix_in(field, raw[m.name], dims[m.dom], dims[m.cod],
                                  f"{where} map {m.name!r}")
    return mats


# -- categories and groups ------------------------------------------------


def category_to_doc(cat: FiniteCategory) -> dict:
    return {"format": FORMAT, "kind": "category", **cat.to_data()}


def category_from_doc(doc: dict) -> FiniteCategory:
    _expect(doc, {"format", "kind", "objects", "morphisms", "identities", "compose"},
            {"name"}, "category")
    body = {k: v for k, v in doc.items() if k not in ("format", "kind")}
    return validate_category(body)


def group_to_doc(group: FiniteGroup) -> dict:
    return {"format": FORMAT, "kind": "group", **group.to_data()}


def group_from_doc(doc: dict) -> FiniteGroup:
    _expect(doc, {"format", "kind", "elements", "table"}, {"name"}, "group")
    rows = [_names(_typed(row, list, "group: each row of 'table'"), "group: field 'table'",
                   strict=True)
            for row in _typed(doc["table"], list, "group: field 'table'")]
    elements = _typed(doc["elements"], list, "group: field 'elements'")
    return FiniteGroup.from_rows(_names(elements, "group: field 'elements'", strict=True),
                                 rows, name=doc.get("name", "G"))


# -- topologies ------------------------------------------------------------


def topology_to_doc(top: GrothendieckTopology) -> dict:
    doc = {"format": FORMAT, "kind": "topology"}
    if top.label:
        doc["label"] = top.label
    doc["covering"] = top.to_data()
    return doc


def topology_from_doc(doc: dict, cat: FiniteCategory) -> GrothendieckTopology:
    _expect(doc, {"format", "kind", "covering"}, {"label"}, "topology")
    raw = _typed(doc["covering"], dict, "topology: field 'covering'")
    if set(raw) != set(cat.objects):
        raise DocumentError("topology: covering must list every object exactly once")
    covering = {}
    for x, sieves in raw.items():
        fams = set()
        for members in _typed(sieves, list, f"topology: the covering at {x!r}"):
            _names(_typed(members, list, f"topology: each sieve at {x!r}"),
                   f"topology: each sieve at {x!r}")
            for m in members:
                if m not in cat.mor_index:
                    raise DocumentError(f"topology: unknown morphism {m!r} at {x!r}")
            fams.add(Sieve(x, frozenset(members)))
        covering[x] = fams
    violations = check_topology(cat, covering)
    if violations:
        raise DocumentError(f"topology: not a Grothendieck topology: {violations[0]}")
    # Each family is now the sieves containing its least member.
    return GrothendieckTopology(cat, {x: min(fams, key=lambda s: len(s.members))
                                      for x, fams in covering.items()}, label=doc.get("label"))


# -- presheaves --------------------------------------------------------------


def presheaf_to_doc(f) -> dict:
    if f.flavor == "set":
        # Elements are canonicalised to strings on the way out.
        for x in f.cat.objects:
            if len({str(a) for a in f.at(x)}) != len(f.at(x)):
                raise DocumentError(
                    f"presheaf elements at {x!r} collide as strings")
        return {"format": FORMAT, "kind": "presheaf", "flavor": "set",
                "values": {x: [str(a) for a in f.at(x)] for x in f.cat.objects},
                "maps": {m.name: {str(a): str(f.apply(m.name, a))
                                  for a in f.at(m.cod)}
                         for m in f.cat.morphisms}}
    return {"format": FORMAT, "kind": "presheaf", "flavor": "linear",
            "field": f.field.label,
            "dims": {x: f.at(x) for x in f.cat.objects},
            "maps": _maps_out(f.cat, f.mat)}


def presheaf_from_doc(doc: dict, cat: FiniteCategory):
    _expect(doc, {"format", "kind", "flavor"},
            {"values", "maps", "field", "dims"}, "presheaf")
    if doc["flavor"] == "set":
        _expect(doc, {"format", "kind", "flavor", "values", "maps"}, set(), "presheaf")
        raw_values = _keyed(_typed(doc["values"], dict, "presheaf: field 'values'"),
                            cat.obj_index, "object", "presheaf", "values")
        raw_maps = _keyed(_typed(doc["maps"], dict, "presheaf: field 'maps'"),
                          cat.mor_index, "morphism", "presheaf", "maps")
        values = {x: _names(_typed(raw_values.get(x, []), list, f"presheaf: the value at {x!r}"),
                            f"presheaf: field 'values' at {x!r}")
                  for x in cat.objects}
        maps = {}
        for m in cat.morphisms:
            if raw_maps.get(m.name) is None:
                raise DocumentError(f"presheaf: missing map for {m.name!r}")
            maps[m.name] = _names(_typed(raw_maps[m.name], dict,
                                         f"presheaf: the map of {m.name!r}"),
                                  f"presheaf: field 'maps' at {m.name!r}")
        return SetPresheaf(cat, values, maps)
    if doc["flavor"] != "linear":
        raise DocumentError(f"presheaf: unknown flavor {doc['flavor']!r}")
    _expect(doc, {"format", "kind", "flavor", "field", "dims", "maps"}, set(),
            "presheaf")
    field = field_by_label(doc["field"])
    dims = _dims_in(doc, cat, "presheaf")
    return LinearPresheaf(cat, field, dims, _maps_in(doc, cat, field, dims, "presheaf"))


# -- algebra presheaves -------------------------------------------------------


def _table_out(a: FiniteDimAlgebra) -> list:
    """The dense structure constant table: cell (i, j) is b_i * b_j."""
    return [[[_scalar_out(c) for c in a.mul_basis(i, j)] for j in range(a.dim)]
            for i in range(a.dim)]


def _algebra_to_doc(a: FiniteDimAlgebra) -> dict:
    return {"dim": a.dim,
            "labels": [str(l) for l in a.labels],
            "unit": [_scalar_out(c) for c in a.unit],
            "table": _table_out(a)}


def _algebra_from_doc(doc: dict, field, where: str) -> FiniteDimAlgebra:
    _expect(doc, {"dim", "table", "unit"}, {"labels"}, where)
    dim = _dim(doc["dim"], f"{where}: field 'dim'")
    raw = _typed(doc["table"], list, f"{where}: field 'table'")
    if len(raw) != dim or any(not isinstance(row, list) or len(row) != dim
                              or not all(isinstance(cell, list) for cell in row)
                              for row in raw):
        raise DocumentError(f"{where}: table must be {dim}x{dim}")
    table = [[[_scalar_in(field, c) for c in cell] for cell in row] for row in raw]
    unit = [_scalar_in(field, c) for c in _typed(doc["unit"], list, f"{where}: field 'unit'")]
    labels = doc.get("labels")
    if labels is not None:
        _names(_typed(labels, list, f"{where}: field 'labels'"), f"{where}: field 'labels'")
    return FiniteDimAlgebra.from_table(field, table, unit, labels=labels)


def algebra_presheaf_to_doc(r: AlgebraPresheaf) -> dict:
    return {"format": FORMAT, "kind": "algebra-presheaf",
            "field": r.field.label,
            "algebras": {x: _algebra_to_doc(r.algebra(x)) for x in r.cat.objects},
            "maps": _maps_out(r.cat, r.mat)}


def algebra_presheaf_from_doc(doc: dict, cat: FiniteCategory) -> AlgebraPresheaf:
    _expect(doc, {"format", "kind", "field", "algebras", "maps"}, set(),
            "algebra-presheaf")
    field = field_by_label(doc["field"])
    algebras = _typed(doc["algebras"], dict, "algebra-presheaf: field 'algebras'")
    if set(algebras) != set(cat.objects):
        raise DocumentError("algebra-presheaf: algebras must cover every object")
    at = {x: _algebra_from_doc(algebras[x], field, f"algebra-presheaf at {x!r}")
          for x in cat.objects}
    dims = {x: a.dim for x, a in at.items()}
    return AlgebraPresheaf(cat, at, _maps_in(doc, cat, field, dims, "algebra-presheaf"),
                           field=field)


# -- modules -------------------------------------------------------------------


def module_presheaf_to_doc(m: ModulePresheaf) -> dict:
    return {"format": FORMAT, "kind": "module-presheaf",
            "field": m.field.label,
            "dims": {x: m.dim(x) for x in m.cat.objects},
            "maps": _maps_out(m.cat, m.space.mat),
            "actions": {x: [_matrix_out(a) for a in m.actions[x]]
                        for x in m.cat.objects}}


def module_presheaf_from_doc(doc: dict, r: AlgebraPresheaf) -> ModulePresheaf:
    _expect(doc, {"format", "kind", "field", "dims", "maps", "actions"}, set(),
            "module-presheaf")
    cat = r.cat
    field = field_by_label(doc["field"])
    if field != r.field:
        raise DocumentError("module-presheaf: field differs from the coefficients")
    dims = _dims_in(doc, cat, "module-presheaf")
    space = LinearPresheaf(cat, field, dims,
                           _maps_in(doc, cat, field, dims, "module-presheaf"))
    raw_actions = _keyed(_typed(doc["actions"], dict, "module-presheaf: field 'actions'"),
                         cat.obj_index, "object", "module-presheaf", "actions")
    actions = {}
    for x in cat.objects:
        raw = raw_actions.get(x)
        if not isinstance(raw, list) or len(raw) != r.algebra(x).dim:
            raise DocumentError(f"module-presheaf: need one action matrix per "
                                f"basis element at {x!r}")
        actions[x] = tuple(_matrix_in(field, a, dims[x], dims[x],
                                      f"module-presheaf action at {x!r}")
                           for a in raw)
    return ModulePresheaf(r, space, actions)


def algebra_module_to_doc(n: AlgebraModule) -> dict:
    return {"format": FORMAT, "kind": "algebra-module",
            "field": n.field.label,
            "dim": n.dim,
            "actions": [_matrix_out(a) for a in n.actions]}


def algebra_module_from_doc(doc: dict, algebra: FiniteDimAlgebra) -> AlgebraModule:
    _expect(doc, {"format", "kind", "field", "dim", "actions"}, set(),
            "algebra-module")
    field = field_by_label(doc["field"])
    if field != algebra.field:
        raise DocumentError("algebra-module: field differs from the algebra")
    dim = _dim(doc["dim"], "algebra-module: field 'dim'")
    raw = _typed(doc["actions"], list, "algebra-module: field 'actions'")
    if len(raw) != algebra.dim:
        raise DocumentError("algebra-module: need one action matrix per basis element")
    actions = [_matrix_in(field, a, dim, dim, "algebra-module action") for a in raw]
    return AlgebraModule(algebra, dim, actions)


def skew_algebra_to_doc(a: SkewCategoryAlgebra) -> dict:
    return {"format": FORMAT, "kind": "skew-algebra",
            "field": a.field.label,
            "dim": a.dim,
            "basis": [[f, str(b)] for (f, b) in a.labels],
            "unit": [_scalar_out(c) for c in a.unit],
            "table": _table_out(a)}
