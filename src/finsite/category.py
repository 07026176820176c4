"""Finite categories presented by explicit composition tables.

The orientation convention used everywhere in this package: the table
entry for ``(g, f)`` is the composite "first f, then g", written ``gf``,
and is defined exactly when ``dom(g) == cod(f)``.

A category is validated on construction, so downstream code can trust
the table blindly: identity laws and totality of composition on every
composable pair, and associativity by Light's test, on the composable
triples with a generator in the middle (see ``law_failures``), the
generators found on the raw table and kept as ``generators``. Only when
a triple there fails, or an identity law does, is every composable
triple walked, so a bad table is reported with the same problems in the
same order as by the walk over every triple.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import EngineError


class Morphism(NamedTuple):
    name: str
    dom: str
    cod: str


class InvalidCategoryError(EngineError):
    """Carries the full list of axiom violations found in a raw table."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(f"invalid category:\n{lines}")


class EIRequiredError(EngineError):
    pass


_RAW_KEYS = {"objects", "morphisms", "identities", "compose", "name"}
_RAW_TYPES = {"objects": (list, "a list"), "morphisms": (list, "a list"),
              "identities": (dict, "a mapping"), "compose": (list, "a list")}


def category_problems(data: dict, found: dict | None = None) -> list[str]:
    """Schema and axiom diagnostics for a raw category description; found
    is passed on to _table_problems."""
    problems = []
    unknown = set(data) - _RAW_KEYS
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")
        return problems
    for key in ("objects", "morphisms", "identities", "compose"):
        if key not in data:
            problems.append(f"missing field: {key}")
    if problems:
        return problems
    for key, (kind, article) in _RAW_TYPES.items():
        if not isinstance(data[key], kind):
            problems.append(f"field {key} must be {article}")
    if problems:
        return problems
    try:
        morphisms = [Morphism(m["id"], m["dom"], m["cod"]) for m in data["morphisms"]]
    except (TypeError, KeyError):
        return ["morphism entries must be {id, dom, cod} records"]
    try:
        pairs = [((c["g"], c["f"]), c["gf"]) for c in data["compose"]]
    except (TypeError, KeyError):
        return ["compose entries must be {g, f, gf} records"]
    named = ([("objects", x) for x in data["objects"]]
             + [("identities", i) for i in data["identities"].values()]
             + [("morphisms", v) for m in morphisms for v in m]
             + [("compose", v) for (g, f), gf in pairs for v in (g, f, gf)])
    problems = [f"field {key}: {v!r} is not a name" for key, v in named
                if not isinstance(v, str)]
    if problems:
        return problems
    compose = {}
    for key, value in pairs:
        if key in compose and compose[key] != value:
            problems.append(f"conflicting composite entries for ({key[0]!r},{key[1]!r})")
        compose[key] = value
    if problems:
        return problems
    return _table_problems(data["objects"], morphisms, data["identities"], compose, found)


def validate_category(data: dict) -> FiniteCategory:
    """Build a category from its raw description, or raise with every violation."""
    found = {}
    problems = category_problems(data, found)
    if problems:
        raise InvalidCategoryError(problems)
    morphisms = [Morphism(m["id"], m["dom"], m["cod"]) for m in data["morphisms"]]
    compose = {(c["g"], c["f"]): c["gf"] for c in data["compose"]}
    return FiniteCategory._trusted(data["objects"], morphisms, data["identities"], compose,
                                   name=data.get("name"), generators=found["generators"])


def law_failures(sweep, middle):
    """The failures of a law, in the order and with the messages of
    sweep(None), the law checked on every instance; but checked first on
    sweep(middle), the instances with a member of middle in the middle,
    and in full only when one of those fails. A middle of None asks for
    the full sweep.

    This is Light's associativity test. The g with (x g) y = x (g y) for
    all x and y are closed under products, so when middle generates and
    every instance with a member of middle in the middle holds, every
    instance holds. The same closure serves the laws of module actions
    (act(x a) = act(a) act(x)) and of presheaves (F(g f) = F(f) F(g),
    g on the left)."""
    if middle is not None and next(iter(sweep(middle)), None) is None:
        return iter(())
    return iter(sweep(None))


def _generators(dom: dict, cod: dict, identity, compose, into) -> frozenset:
    """Non-identity morphisms whose composites are every non-identity
    morphism, chosen greedily: those with the fewest factorisations g·f
    into two non-identity morphisms first, then by index, each kept
    unless the composites of those kept already reach it. Every morphism
    reached is a composite of the ones kept, bracketed some way, which is
    all Light's test needs: no law is assumed. dom and cod map each
    morphism, in morphism order, to its ends; into maps each object to the
    morphisms into it. A pair missing from compose composes to nothing,
    as a composite that is an identity does, so a group's table (one
    object, no identity given) and an algebra's one-term products (see
    ``FiniteDimAlgebra.generating_basis``) find their generators here too."""
    ids = {*identity.values(), None}
    count = {m: 0 for m in dom if m not in ids}
    for (g, f), gf in compose.items():
        if gf in count and g not in ids and f not in ids:
            count[gf] += 1
    gens, reached = [], set()
    out_of = {x: [] for x in into}    # object -> the generators out of it
    into_gens = {x: [] for x in into}  # object -> the generators into it
    # count is in morphism order, which the stable sort keeps among equals
    for m in sorted(count, key=count.__getitem__):
        if m in reached:
            continue
        gens.append(m)
        out_of[dom[m]].append(m)
        into_gens[cod[m]].append(m)
        # every composite holding m: m with the reached on either side,
        # then grown by one generator at a time on either side
        todo = [m] + [compose.get((m, s)) for s in into[dom[m]] if s in reached]
        todo += [compose.get((s, m)) for s in reached if dom[s] == cod[m]]
        while todo:
            t = todo.pop()
            if t not in reached and t not in ids:
                reached.add(t)
                for g in out_of[cod[t]]:
                    todo.append(compose.get((g, t)))
                for g in into_gens[dom[t]]:
                    todo.append(compose.get((t, g)))
    return frozenset(gens)


def _table_problems(objects, morphisms, identity, compose, found: dict | None = None
                    ) -> list[str]:
    """Every violation of the category axioms in a raw table. On a valid
    table the generators it found are kept as found["generators"]."""
    problems = []
    objects = list(objects)
    if len(set(objects)) != len(objects):
        problems.append("duplicate object identifiers")
    names = [m.name for m in morphisms]
    if len(set(names)) != len(names):
        problems.append("duplicate morphism identifiers")
    obj_set = set(objects)
    dom = {m: x for m, x, _ in morphisms}
    cod = {m: y for m, _, y in morphisms}
    for m in morphisms:
        if m.dom not in obj_set:
            problems.append(f"unknown object {m.dom!r} as dom of {m.name!r}")
        if m.cod not in obj_set:
            problems.append(f"unknown object {m.cod!r} as cod of {m.name!r}")
    for x, i in identity.items():
        if x not in obj_set:
            problems.append(f"identity given for unknown object {x!r}")
        elif i not in dom:
            problems.append(f"bad identity at {x!r}: unknown morphism {i!r}")
        elif dom[i] != x or cod[i] != x:
            problems.append(f"bad identity at {x!r}: {i!r} is not an endomorphism of {x!r}")
    for x in objects:
        if x not in identity:
            problems.append(f"bad identity at {x!r}: none given")
    for (g, f), gf in compose.items():
        if g not in dom or f not in dom:
            problems.append(f"composite ({g!r},{f!r}) names unknown morphisms")
            continue
        if dom[g] != cod[f]:
            problems.append(f"stray composite ({g!r},{f!r}): pair is not composable")
            continue
        if gf not in dom:
            problems.append(f"composite ({g!r},{f!r}) maps to unknown morphism {gf!r}")
        elif dom[gf] != dom[f] or cod[gf] != cod[g]:
            problems.append(f"ill-typed composite ({g!r},{f!r}) -> {gf!r}")
    if problems:
        return problems

    # Totality on composable pairs, walked through the morphisms into each
    # object (in morphism order, so the pairs come in product order).
    into = {x: [] for x in objects}
    for m in morphisms:
        into[m.cod].append(m.name)
    for g in morphisms:
        for f in into[g.dom]:
            if (g.name, f) not in compose:
                problems.append(f"missing composite ({g.name!r},{f!r})")
    if problems:
        return problems

    # Identity laws.
    for m in morphisms:
        left = compose[(identity[m.cod], m.name)]
        right = compose[(m.name, identity[m.dom])]
        if left != m.name:
            problems.append(f"bad identity at {m.cod!r}: 1∘{m.name!r} = {left!r}")
        if right != m.name:
            problems.append(f"bad identity at {m.dom!r}: {m.name!r}∘1 = {right!r}")

    # Associativity by Light's test on the generators, once the identities
    # are known to be identities, which makes them good too.
    def triples(middle):
        mid = into if middle is None else {x: [g for g in into[x] if g in middle] for x in into}
        for h in morphisms:
            for g in mid[h.dom]:
                hg = compose[(h.name, g)]
                for f in into[dom[g]]:
                    a = compose[(h.name, compose[(g, f)])]
                    b = compose[(hg, f)]
                    if a != b:
                        yield f"associativity failure ({h.name!r},{g!r},{f!r}): {a!r} != {b!r}"

    gens = None if problems else _generators(dom, cod, identity, compose, into)
    problems += law_failures(triples, gens)
    if found is not None and not problems:
        found["generators"] = gens
    return problems


class FiniteCategory:
    """Immutable finite category, its table validated on construction."""

    def __init__(self, objects: Iterable[str], morphisms, identity: dict, compose: dict,
                 *, name: str | None = None):
        self._setup(objects, morphisms, identity, compose, name, check=True)

    @classmethod
    def _trusted(cls, objects, morphisms, identity: dict, compose: dict,
                 *, name: str | None = None, generators: frozenset | None = None
                 ) -> FiniteCategory:
        """Build from a table already known to be valid, without re-checking
        it; generators, when the check found them, are kept."""
        cat = cls.__new__(cls)
        cat._setup(objects, morphisms, identity, compose, name, check=False)
        if generators is not None:
            cat.generators = generators
        return cat

    def _setup(self, objects, morphisms, identity, compose, name, *, check: bool):
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = tuple(m if isinstance(m, Morphism) else Morphism(*m)
                               for m in morphisms)
        self.identity = dict(identity)
        self.compose_table = dict(compose)
        if check:
            found = {}
            problems = _table_problems(self.objects, self.morphisms, self.identity,
                                       self.compose_table, found)
            if problems:
                raise InvalidCategoryError(problems)
            self.generators = found["generators"]
        self.obj_index = {x: i for i, x in enumerate(self.objects)}
        self.mor_index = {m.name: i for i, m in enumerate(self.morphisms)}
        self._by_name = {m.name: m for m in self.morphisms}
        into = {x: [] for x in self.objects}
        for m in self.morphisms:
            into[m.cod].append(m.name)
        self._into = {x: tuple(names) for x, names in into.items()}
        self._hom = {}
        for m in self.morphisms:
            self._hom.setdefault((m.dom, m.cod), []).append(m.name)
        self._hom = {k: tuple(v) for k, v in self._hom.items()}

    # -- basic lookups -------------------------------------------------

    def dom(self, f: str) -> str:
        return self._by_name[f].dom

    def cod(self, f: str) -> str:
        return self._by_name[f].cod

    def id_of(self, x: str) -> str:
        return self.identity[x]

    def is_identity(self, f: str) -> bool:
        return self.identity[self.dom(f)] == f and self.dom(f) == self.cod(f)

    def compose(self, g: str, f: str) -> str:
        """The composite "first f, then g"."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise EngineError(f"morphisms not composable: dom({g!r}) != cod({f!r})") from None

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def into(self, x: str) -> tuple[str, ...]:
        return self._into[x]

    def endos(self, x: str) -> tuple[str, ...]:
        return self.hom(x, x)

    @cached_property
    def generators(self) -> frozenset:
        """The generators of ``_generators``; a checked build keeps the
        ones its check found."""
        return _generators({m.name: m.dom for m in self.morphisms},
                           {m.name: m.cod for m in self.morphisms},
                           self.identity, self.compose_table, self._into)

    # -- isomorphisms and idempotents -----------------------------------

    def inverse(self, f: str) -> str | None:
        m = self._by_name[f]
        for g in self.hom(m.cod, m.dom):
            if (self.compose(g, f) == self.identity[m.dom]
                    and self.compose(f, g) == self.identity[m.cod]):
                return g
        return None

    def is_iso(self, f: str) -> bool:
        return self.inverse(f) is not None

    def iso_class(self, x: str) -> tuple[str, ...]:
        out = []
        for y in self.objects:
            if y == x or any(self.is_iso(f) for f in self.hom(x, y)):
                out.append(y)
        return tuple(out)

    def idempotents(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.morphisms
                     if m.dom == m.cod and self.compose(m.name, m.name) == m.name)

    # -- derived categories ---------------------------------------------

    def full_subcategory(self, objects: Iterable[str]) -> FiniteCategory:
        keep = set(objects)
        unknown = keep - set(self.objects)
        if unknown:
            raise EngineError(f"unknown objects in subcategory: {sorted(unknown)}")
        objs = tuple(x for x in self.objects if x in keep)
        mors = tuple(m for m in self.morphisms if m.dom in keep and m.cod in keep)
        kept_names = {m.name for m in mors}
        ident = {x: self.identity[x] for x in objs}
        comp = {(g, f): gf for (g, f), gf in self.compose_table.items()
                if g in kept_names and f in kept_names}
        label = ",".join(objs)
        return FiniteCategory._trusted(objs, mors, ident, comp,
                                       name=f"{self.name or 'C'}[{label}]")

    def same_as(self, other: FiniteCategory) -> bool:
        """Structural equality of the presented data (names included)."""
        return self is other or (
            isinstance(other, FiniteCategory)
            and self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.compose_table == other.compose_table)

    def to_data(self) -> dict:
        data = {
            "objects": list(self.objects),
            "morphisms": [{"id": m.name, "dom": m.dom, "cod": m.cod}
                          for m in self.morphisms],
            "identities": {x: self.identity[x] for x in self.objects},
            "compose": [{"g": g, "f": f, "gf": gf}
                        for (g, f), gf in sorted(
                            self.compose_table.items(),
                            key=lambda kv: (self.mor_index[kv[0][0]],
                                            self.mor_index[kv[0][1]]))],
        }
        if self.name:
            data["name"] = self.name
        return data

    def __repr__(self):
        label = self.name or "FiniteCategory"
        return f"<{label}: {len(self.objects)} objects, {len(self.morphisms)} morphisms>"


class FullSubcategory:
    """A full subcategory of a fixed parent, determined by its object set."""

    def __init__(self, parent: FiniteCategory, objects: Iterable[str]):
        keep = set(objects)
        unknown = keep - set(parent.objects)
        if unknown:
            raise EngineError(f"unknown objects in subcategory: {sorted(unknown)}")
        self.parent = parent
        self.objects = tuple(x for x in parent.objects if x in keep)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.objects) == (other.parent, other.objects)

    def __hash__(self):
        return hash((self.parent, self.objects))

    @cached_property
    def category(self) -> FiniteCategory:
        return self.parent.full_subcategory(self.objects)

    def is_strictly_full(self) -> bool:
        keep = set(self.objects)
        return all(set(self.parent.iso_class(x)) <= keep for x in self.objects)

    def is_co_ideal(self) -> bool:
        """Closed under "maps in": y in D whenever Hom(y, x) is non-empty, x in D."""
        keep = set(self.objects)
        for x in self.objects:
            for y in self.parent.objects:
                if self.parent.hom(y, x) and y not in keep:
                    return False
        return True

    def __repr__(self):
        return f"FullSubcategory({list(self.objects)})"


def _as_subcategory(cat: FiniteCategory, sub) -> FullSubcategory:
    """sub, a FullSubcategory of cat or an iterable of its objects."""
    if isinstance(sub, FullSubcategory):
        if not sub.parent.same_as(cat):
            raise EngineError("subcategory belongs to a different category")
        return sub
    return FullSubcategory(cat, tuple(sub))


def is_ei(cat: FiniteCategory) -> bool:
    """True when every endomorphism is invertible."""
    return all(cat.is_iso(f) for x in cat.objects for f in cat.endos(x))


class SplittingReport(NamedTuple):
    ok: bool
    splittings: dict  # idempotent name -> (retraction r, section s) with s∘r = e, r∘s = id
    unsplit: tuple

    def __bool__(self):
        return self.ok


def karoubian_report(cat: FiniteCategory) -> SplittingReport:
    """Exhaustive search for a splitting of every idempotent endomorphism.

    A splitting of e: x -> x is a pair r: x -> y, s: y -> x with
    compose(s, r) = e and compose(r, s) = id_y.
    """
    found = {e: next(((r, s) for y in cat.objects for r in cat.hom(cat.dom(e), y)
                      for s in cat.hom(y, cat.dom(e))
                      if cat.compose(s, r) == e and cat.compose(r, s) == cat.id_of(y)), None)
             for e in cat.idempotents()}
    unsplit = tuple(e for e, rs in found.items() if rs is None)
    return SplittingReport(not unsplit, {e: rs for e, rs in found.items() if rs}, unsplit)


def is_karoubian(cat: FiniteCategory) -> bool:
    return karoubian_report(cat).ok


def iso_classes(cat: FiniteCategory) -> tuple[tuple[str, ...], ...]:
    """The isomorphism classes, in order of their first object."""
    seen = set()
    classes = []
    for x in cat.objects:
        if x not in seen:
            cls = cat.iso_class(x)
            classes.append(cls)
            seen.update(cls)
    return tuple(classes)


class KaroubiClass(NamedTuple):
    idempotents: tuple[str, ...]  # in morphism order
    objects: tuple[str, ...]      # the x with 1_x among them: an iso class, or none
    retracts: frozenset           # indices of the classes that are its retracts, itself too


def karoubi_classes(cat: FiniteCategory) -> tuple[KaroubiClass, ...]:
    """The objects of the Karoubi envelope up to isomorphism, in morphism order.

    The idempotent e on x stands for (x, e). (y, a) is a retract of (z, b)
    when some f: y -> z and g: z -> y satisfy f = b·f·a, g = a·g·b and
    g·f = a. Hom-sets are finite, so mutual retracts are isomorphic.
    """
    def retract(a, b):
        y, z = cat.dom(a), cat.dom(b)
        return any(cat.compose(g, f) == a and cat.compose(a, cat.compose(g, b)) == g
                   for f in cat.hom(y, z) if cat.compose(b, cat.compose(f, a)) == f
                   for g in cat.hom(z, y))

    groups = []
    for e in cat.idempotents():
        for group in groups:
            if retract(e, group[0]) and retract(group[0], e):
                group.append(e)
                break
        else:
            groups.append([e])
    return tuple(KaroubiClass(tuple(g), tuple(cat.dom(e) for e in g if cat.is_identity(e)),
                              frozenset(j for j, h in enumerate(groups) if retract(h[0], g[0])))
                 for g in groups)


def retract_closed_sets(classes) -> list[tuple[int, ...]]:
    """Every set of class indices that holds the retracts of its members, by size."""
    return [t for r in range(len(classes) + 1)
            for t in itertools.combinations(range(len(classes)), r)
            if set().union(*(classes[i].retracts for i in t)) <= set(t)]


def strictly_full_karoubian_subcategories(cat: FiniteCategory) -> list[FullSubcategory]:
    """Every iso-closed object subset whose full subcategory splits its idempotents,
    in (size, index-lex) order: the objects of the retract-closed sets of
    Karoubi classes that each hold an identity."""
    classes = karoubi_classes(cat)
    subs = [FullSubcategory(cat, sum((classes[i].objects for i in t), ()))
            for t in retract_closed_sets(classes) if all(classes[i].objects for i in t)]
    subs.sort(key=lambda sub: (len(sub.objects), [cat.obj_index[x] for x in sub.objects]))
    return subs


class IsoClassPoset:
    """Isomorphism classes of an EI category with the induced partial order."""

    def __init__(self, cat: FiniteCategory, classes, leq):
        self.cat = cat
        self.classes = tuple(tuple(c) for c in classes)
        self.leq = frozenset(leq)  # pairs of class indices, reflexive
        self._class_of = {x: i for i, c in enumerate(self.classes) for x in c}

    def le(self, i: int, j: int) -> bool:
        return (i, j) in self.leq

    def minimal_class_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.classes))
                     if not any(self.le(j, i) for j in range(len(self.classes)) if j != i))

    def minimal_objects(self) -> tuple[str, ...]:
        mins = set(self.minimal_class_indices())
        return tuple(x for x in self.cat.objects if self._class_of[x] in mins)

    def below(self, x: str) -> tuple[str, ...]:
        """Objects y with Hom(y, x) non-empty, i.e. the object set of C_<=x."""
        return tuple(y for y in self.cat.objects if self.cat.hom(y, x))

    def minimal_below(self, x: str) -> tuple[str, ...]:
        """Minimal objects of the full subcategory on everything mapping into x."""
        below = set(self.below(x))
        mins = []
        for y in below:
            cls = self._class_of[y]
            if not any(self._class_of[z] != cls and self.le(self._class_of[z], cls)
                       for z in below):
                mins.append(y)
        return tuple(y for y in self.cat.objects if y in mins)


def iso_class_poset(cat: FiniteCategory) -> IsoClassPoset:
    if not is_ei(cat):
        raise EIRequiredError("iso-class order is only defined for EI categories")
    classes = iso_classes(cat)
    leq = set()
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            if cat.hom(ci[0], cj[0]) or i == j:
                leq.add((i, j))
    # Antisymmetric, as EI makes f: a -> b and g: b -> a isomorphisms (gf, fg invertible).
    return IsoClassPoset(cat, classes, leq)


def minimal_subcategory(cat: FiniteCategory) -> FullSubcategory:
    """The full subcategory on all minimal objects of an EI category."""
    return FullSubcategory(cat, iso_class_poset(cat).minimal_objects())


def co_ideal_generated_by(cat: FiniteCategory, objects: Iterable[str]) -> FullSubcategory:
    """The objects with a morphism into a given one, identities included;
    "maps into" is transitive, so one pass reaches them all."""
    given = set(objects)
    return FullSubcategory(cat, tuple(y for y in cat.objects
                                      if any(cat.hom(y, x) for x in given)))
