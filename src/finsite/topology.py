"""Grothendieck topologies on finite categories: axiom checking, the
census, subcategory and dense topologies, and the classification of
topologies by strictly full Karoubian subcategories."""

from __future__ import annotations

from typing import NamedTuple

from .category import (FiniteCategory, FullSubcategory, is_karoubian, karoubi_classes,
                       retract_closed_sets)
from .errors import EngineError
from .sieves import (Sieve, is_sieve, maximal_sieve, pullback_sieve,
                     sieve_sort_key, sieves_on)

CENSUS_GUARD = 2 ** 32


class TopologyViolation(NamedTuple):
    axiom: str      # "maximal-sieve", "stability", "transitivity", "sieve"
    obj: str
    sieve: Sieve
    morphism: str | None

    def __str__(self):
        detail = f" along {self.morphism!r}" if self.morphism else ""
        return (f"{self.axiom} fails at {self.obj!r} for sieve "
                f"{sorted(self.sieve.members)}{detail}")


class ClassificationError(EngineError):
    pass


class GrothendieckTopology:
    """A per-object family of covering sieves on a fixed category.

    Equality and hashing look only at the covering data, so topologies
    from different constructions compare as expected.
    """

    def __init__(self, cat: FiniteCategory, covering: dict, *, label: str | None = None):
        self.cat = cat
        self.covering = {x: frozenset(covering.get(x, ())) for x in cat.objects}
        self.label = label
        extra = set(covering) - set(cat.objects)
        if extra:
            raise EngineError(f"covering data for unknown objects: {sorted(extra)}")
        for x, sieves in self.covering.items():
            for s in sieves:
                if s.target != x:
                    raise EngineError(f"sieve on {s.target!r} filed under {x!r}")

    def sieves_at(self, x: str) -> tuple[Sieve, ...]:
        return tuple(sorted(self.covering[x], key=lambda s: sieve_sort_key(self.cat, s)))

    def covers(self, s: Sieve) -> bool:
        return s in self.covering[s.target]

    def minimal_cover(self, x: str) -> Sieve:
        """The intersection of all covering sieves on x; always itself covering."""
        sieves = self.covering[x]
        if not sieves:
            raise EngineError(f"no covering sieves at {x!r}")
        members = frozenset.intersection(*(s.members for s in sieves))
        least = Sieve(x, members)
        if least not in sieves:
            raise EngineError(
                f"covering sieves at {x!r} are not closed under intersection; "
                "not a Grothendieck topology")
        return least

    def le(self, other: GrothendieckTopology) -> bool:
        """Objectwise containment of covering families."""
        return all(self.covering[x] <= other.covering[x] for x in self.cat.objects)

    def _key(self):
        return tuple((x, frozenset(self.covering[x])) for x in self.cat.objects)

    def __eq__(self, other):
        return (isinstance(other, GrothendieckTopology)
                and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def to_data(self) -> dict:
        cat = self.cat
        doc = {}
        for x in cat.objects:
            doc[x] = [sorted(s.members, key=lambda m: cat.mor_index[m])
                      for s in self.sieves_at(x)]
        return doc

    def __repr__(self):
        label = self.label or "topology"
        sizes = ",".join(str(len(self.covering[x])) for x in self.cat.objects)
        return f"<{label} with covering sizes [{sizes}]>"


def check_topology(cat: FiniteCategory, top) -> list[TopologyViolation]:
    """All axiom violations of a covering assignment, in deterministic order."""
    covering = top.covering if isinstance(top, GrothendieckTopology) else \
        {x: frozenset(top.get(x, ())) for x in cat.objects}
    violations = []
    for x in cat.objects:
        for s in sorted(covering[x], key=lambda s: sieve_sort_key(cat, s)):
            if s.target != x or not is_sieve(cat, x, s.members):
                violations.append(TopologyViolation("sieve", x, s, None))
    if violations:
        return violations
    all_sieves = {x: sieves_on(cat, x) for x in cat.objects}
    for x in cat.objects:
        if maximal_sieve(cat, x) not in covering[x]:
            violations.append(TopologyViolation("maximal-sieve", x,
                                                maximal_sieve(cat, x), None))
    for x in cat.objects:
        for s in sorted(covering[x], key=lambda s: sieve_sort_key(cat, s)):
            for f in cat.into(x):
                if pullback_sieve(cat, s, f) not in covering[cat.dom(f)]:
                    violations.append(TopologyViolation("stability", x, s, f))
    for x in cat.objects:
        for s1 in sorted(covering[x], key=lambda s: sieve_sort_key(cat, s)):
            for s2 in all_sieves[x]:
                if s2 in covering[x]:
                    continue
                if all(pullback_sieve(cat, s2, f) in covering[cat.dom(f)]
                       for f in s1.members):
                    violations.append(TopologyViolation("transitivity", x, s2, None))
    return violations


def is_topology(cat: FiniteCategory, top) -> bool:
    return not check_topology(cat, top)


def minimal_topology(cat: FiniteCategory) -> GrothendieckTopology:
    return GrothendieckTopology(
        cat, {x: {maximal_sieve(cat, x)} for x in cat.objects}, label="J_min")


def _sieves_containing(cat: FiniteCategory, required: dict,
                       label: str | None = None) -> GrothendieckTopology:
    """The covering sieves on x are the sieves containing required[x]."""
    covering = {x: {s for s in sieves_on(cat, x) if required[x] <= s.members}
                for x in cat.objects}
    return GrothendieckTopology(cat, covering, label=label)


def maximal_topology(cat: FiniteCategory) -> GrothendieckTopology:
    return _sieves_containing(cat, {x: frozenset() for x in cat.objects}, "J_max")


def dense_topology(cat: FiniteCategory) -> GrothendieckTopology:
    """Sieves that meet every incoming morphism after a further precomposition:
    S covers x when every f: y -> x admits g: z -> y with "g then f" in S."""
    covering = {}
    for x in cat.objects:
        chosen = set()
        for s in sieves_on(cat, x):
            ok = True
            for f in cat.into(x):
                y = cat.dom(f)
                if not any(cat.compose(f, g) in s.members for g in cat.into(y)):
                    ok = False
                    break
            if ok:
                chosen.add(s)
        covering[x] = chosen
    return GrothendieckTopology(cat, covering, label="J_den")


def subcategory_topology(cat: FiniteCategory, sub) -> GrothendieckTopology:
    """The topology whose covering sieves on x are those containing every
    morphism into x from an object of the subcategory.

    The subcategory must be strictly full (closed under isomorphism).
    """
    if not isinstance(sub, FullSubcategory):
        sub = FullSubcategory(cat, tuple(sub))
    if not sub.parent.same_as(cat):
        raise EngineError("subcategory belongs to a different category")
    if not sub.is_strictly_full():
        raise EngineError(
            f"object set {list(sub.objects)} is not closed under isomorphism")
    keep = set(sub.objects)
    return _sieves_containing(
        cat, {x: frozenset(t for t in cat.into(x) if cat.dom(t) in keep) for x in cat.objects},
        "J^{" + ",".join(sub.objects) + "}")


def topology_from_minimal_covers(cat: FiniteCategory, minimal: dict) -> GrothendieckTopology:
    """Upward closure of one chosen sieve per object (sieves above stay covering)."""
    return _sieves_containing(cat, {x: minimal[x].members if isinstance(minimal[x], Sieve)
                                    else frozenset(minimal[x]) for x in cat.objects})


def enumerate_topologies(cat: FiniteCategory) -> list[GrothendieckTopology]:
    """Every Grothendieck topology on the category, deterministically ordered.

    By the classification of topologies on a finite category, they are
    the J^T for the retract-closed sets T of Karoubi classes: a sieve on x
    covers when it holds every f into x with f·e = f for some idempotent e
    of T at dom f. Each J^T is still run through the axiom checker. When
    every class of T holds an identity, J^T is J^D for the strictly full
    Karoubian D on the objects of those identities, and is labelled so.
    The order is that of a product search: object by object, family size,
    then the positions of its sieves.

    CENSUS_GUARD bounds the 2^(classes) candidate T; on a Karoubian
    category the classes are the isomorphism classes of objects.
    """
    classes = karoubi_classes(cat)
    if 2 ** len(classes) > CENSUS_GUARD:
        raise EngineError(f"topology census search space {2 ** len(classes)} "
                          f"exceeds the guard {CENSUS_GUARD}")
    fixed = [frozenset(f for e in c.idempotents for y in cat.objects
                       for f in cat.hom(cat.dom(e), y) if cat.compose(f, e) == f)
             for c in classes]
    tops = []
    for t in retract_closed_sets(classes):
        union = frozenset().union(*(fixed[i] for i in t))
        objects = set().union(*(classes[i].objects for i in t))
        label = ("J^{" + ",".join(x for x in cat.objects if x in objects) + "}"
                 if all(classes[i].objects for i in t) else None)
        top = _sieves_containing(cat, {x: union.intersection(cat.into(x))
                                       for x in cat.objects}, label)
        violations = check_topology(cat, top)
        if violations:
            raise ClassificationError(f"{label or 'J^T'} fails the axioms, against the "
                                      f"classification: {violations[0]}")
        tops.append(top)
    position = {x: {s: i for i, s in enumerate(sieves_on(cat, x))} for x in cat.objects}

    def product_order(top):
        return tuple((len(top.covering[x]), sorted(position[x][s] for s in top.covering[x]))
                     for x in cat.objects)

    return sorted(tops, key=product_order)


def classify_topology(cat: FiniteCategory, top: GrothendieckTopology) -> FullSubcategory:
    """The unique strictly full Karoubian subcategory inducing the topology.

    For such a D, x lies in D exactly when 1_x lies in the least covering
    sieve at x: were x not in D, a factorisation of 1_x through an object
    of D would make x a retract of it, split within the Karoubian D, so x
    would be isomorphic to an object of the strictly full D. So D is read
    off the topology and then checked. A failure to classify would
    contradict the classification of topologies on a finite category, so
    it is reported loudly rather than absorbed.
    """
    sub = FullSubcategory(cat, tuple(
        x for x in cat.objects if all(cat.id_of(x) in s.members for s in top.covering[x])))
    if sub.is_strictly_full() and is_karoubian(sub.category) \
            and subcategory_topology(cat, sub) == top:
        return sub
    raise ClassificationError(
        "no strictly full Karoubian subcategory induces this topology; "
        "the ambient category is likely not Karoubian")


def finest_topology_for(presheaf, cat: FiniteCategory | None = None) -> GrothendieckTopology:
    """The finest topology for which the presheaf satisfies the sheaf
    condition; uniqueness is verified per instance, not assumed."""
    from .sheaves import is_sheaf  # local import to avoid a cycle

    if cat is None:
        cat = presheaf.cat
    good = [t for t in enumerate_topologies(cat) if is_sheaf(presheaf, t)]
    maximal = [t for t in good if not any(t is not u and t.le(u) for u in good)]
    if not maximal:
        raise ClassificationError("no topology admits this presheaf as a sheaf")
    if len(maximal) > 1:
        raise ClassificationError(
            f"{len(maximal)} incomparable maximal topologies admit this presheaf; "
            "the finest one is not unique on this input")
    top = maximal[0]
    return GrothendieckTopology(cat, top.covering, label="J_N")
