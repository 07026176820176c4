"""Grothendieck topologies on finite categories: axiom checking, the
census, subcategory and dense topologies, and the classification of
topologies by strictly full Karoubian subcategories."""

from __future__ import annotations

from typing import NamedTuple

from .category import (FiniteCategory, FullSubcategory, _as_subcategory, is_karoubian,
                       karoubi_classes, retract_closed_sets)
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
    """A Grothendieck topology on a fixed category, held as its least
    covering sieve L_x at each object.

    On a finite category the covering sieves at x are closed under
    intersection, so they are exactly the sieves containing L_x. Covering,
    comparison, equality and hashing read L_x alone; the full families
    are derived only for output, by ``sieves_at``. Each L_x must be a
    sieve on x; whether they make a topology is for ``check_topology`` to
    say.
    """

    def __init__(self, cat: FiniteCategory, least: dict, *, label: str | None = None):
        if set(least) != set(cat.objects):
            raise EngineError(f"least covers must be given at exactly the objects "
                              f"{list(cat.objects)}, not {sorted(least)}")
        self.cat = cat
        self.least = {x: least[x] for x in cat.objects}
        self.label = label
        for x, s in self.least.items():
            if s.target != x or not is_sieve(cat, x, s.members):
                raise EngineError(f"not a sieve on {x!r}: {sorted(s.members)}")

    def sieves_at(self, x: str) -> tuple[Sieve, ...]:
        """Every covering sieve at x, in sieve_sort_key order."""
        return tuple(s for s in sieves_on(self.cat, x) if self.covers(s))

    def covers(self, s: Sieve) -> bool:
        return self.least[s.target].members <= s.members

    def minimal_cover(self, x: str) -> Sieve:
        return self.least[x]

    def le(self, other: GrothendieckTopology) -> bool:
        """Every sieve covering for self covers for other."""
        return all(other.least[x].members <= self.least[x].members for x in self.cat.objects)

    def __eq__(self, other):
        return (isinstance(other, GrothendieckTopology)
                and tuple(self.least.values()) == tuple(other.least.values()))

    def __hash__(self):
        return hash(tuple(self.least.values()))

    def to_data(self) -> dict:
        index = self.cat.mor_index
        return {x: [sorted(s.members, key=index.__getitem__) for s in self.sieves_at(x)]
                for x in self.cat.objects}

    def __repr__(self):
        label = self.label or "topology"
        sizes = ",".join(str(len(s.members)) for s in self.least.values())
        return f"<{label} with least cover sizes [{sizes}]>"


def check_topology(cat: FiniteCategory, top) -> list[TopologyViolation]:
    """The axiom violations of a topology, or of a covering assignment
    {object: covering sieves} such as a document holds, in order.

    A topology is checked on its least covers alone, sieves by its
    constructor. Stability asks f*(L_x) ⊇ L_{dom f} for every f into x.
    Transitivity asks L_x to lie in U_x, the union of f·L_{dom f} over f
    in L_x: U_x is a sieve whose pullbacks along the members of L_x
    cover, so it must cover; a failing U_x is the sieve named.

    An assignment is checked in steps, each only when those before it
    found nothing: every entry is a sieve on its object; the maximal
    sieve covers; the family at x is the set of sieves containing its
    intersection L_x; then the check above. Each violation named is one
    of the assignment itself.
    """
    least, violations = ((top.least, []) if isinstance(top, GrothendieckTopology)
                         else _least_covers(cat, top))
    if violations:
        return violations
    for x in cat.objects:
        for f in cat.into(x):
            if not least[cat.dom(f)].members <= pullback_sieve(cat, least[x], f).members:
                violations.append(TopologyViolation("stability", x, least[x], f))
    for x in cat.objects:
        union = Sieve(x, frozenset(cat.compose(f, g) for f in least[x].members
                                   for g in least[cat.dom(f)].members))
        if not least[x].members <= union.members:
            violations.append(TopologyViolation("transitivity", x, union, None))
    return violations


def _least_covers(cat: FiniteCategory, covering: dict):
    """The least covers of a covering assignment, or the violations that
    keep it from being the sieves containing them."""
    families = {x: frozenset(covering.get(x, ())) for x in cat.objects}
    ordered = {x: sorted(families[x], key=lambda s: sieve_sort_key(cat, s)) for x in cat.objects}
    violations = [TopologyViolation("sieve", x, s, None) for x in cat.objects for s in ordered[x]
                  if s.target != x or not is_sieve(cat, x, s.members)]
    if violations:
        return None, violations
    violations = [TopologyViolation("maximal-sieve", x, maximal_sieve(cat, x), None)
                  for x in cat.objects if maximal_sieve(cat, x) not in families[x]]
    if violations:
        return None, violations
    least = {}
    for x in cat.objects:
        least[x] = ordered[x][0]
        for s in ordered[x][1:]:
            meet = Sieve(x, least[x].members & s.members)
            if meet not in families[x]:
                # Along each member f of the cover least[x], meet pulls back to f*(s).
                f = next((f for f in sorted(least[x].members, key=cat.mor_index.__getitem__)
                          if pullback_sieve(cat, s, f) not in families[cat.dom(f)]), None)
                violations.append(TopologyViolation("stability", x, s, f) if f else
                                  TopologyViolation("transitivity", x, meet, None))
                break
            least[x] = meet
        else:
            # A sieve above the cover least[x] pulls back to maximal sieves along its members.
            above = next((r for r in sieves_on(cat, x)
                          if least[x].members <= r.members and r not in families[x]), None)
            if above:
                violations.append(TopologyViolation("transitivity", x, above, None))
    return least, violations


def is_topology(cat: FiniteCategory, top) -> bool:
    return not check_topology(cat, top)


def _generated(cat: FiniteCategory, x: str, generators) -> Sieve:
    """The least sieve on x holding the generators. One pass of
    precomposition suffices because the table is closed."""
    for u in generators:
        if cat.cod(u) != x:
            raise EngineError(f"generator {u!r} does not end at {x!r}")
    return Sieve(x, frozenset(cat.compose(u, v) for u in generators
                              for v in cat.into(cat.dom(u))))


def minimal_topology(cat: FiniteCategory) -> GrothendieckTopology:
    return GrothendieckTopology(
        cat, {x: maximal_sieve(cat, x) for x in cat.objects}, label="J_min")


def maximal_topology(cat: FiniteCategory) -> GrothendieckTopology:
    return GrothendieckTopology(cat, {x: Sieve(x, frozenset()) for x in cat.objects},
                                label="J_max")


def dense_topology(cat: FiniteCategory) -> GrothendieckTopology:
    """Sieves that meet every incoming morphism after a further precomposition:
    S covers x when every f: y -> x admits g: z -> y with "g then f" in S.

    The dense sieves form a topology, so h into x lies in the least one
    exactly when the largest sieve without h, the morphisms h does not
    factor through, is not dense."""
    def dense(members, x):
        return all(any(cat.compose(f, g) in members for g in cat.into(cat.dom(f)))
                   for f in cat.into(x))

    def factors_through(h, u):
        return any(cat.compose(u, v) == h for v in cat.hom(cat.dom(h), cat.dom(u)))

    return GrothendieckTopology(cat, {x: Sieve(x, frozenset(
        h for h in cat.into(x)
        if not dense({u for u in cat.into(x) if not factors_through(h, u)}, x)))
        for x in cat.objects}, label="J_den")


def subcategory_topology(cat: FiniteCategory, sub) -> GrothendieckTopology:
    """The topology whose covering sieves on x are those containing every
    morphism into x from an object of the subcategory.

    The subcategory must be strictly full (closed under isomorphism).
    """
    sub = _as_subcategory(cat, sub)
    if not sub.is_strictly_full():
        raise EngineError(
            f"object set {list(sub.objects)} is not closed under isomorphism")
    keep = set(sub.objects)
    return GrothendieckTopology(
        cat, {x: _generated(cat, x, [t for t in cat.into(x) if cat.dom(t) in keep])
              for x in cat.objects},
        label="J^{" + ",".join(sub.objects) + "}")


def topology_from_minimal_covers(cat: FiniteCategory, minimal: dict) -> GrothendieckTopology:
    """Upward closure of one chosen sieve per object (sieves above stay covering)."""
    return GrothendieckTopology(cat, {x: _generated(cat, x, getattr(s, "members", s))
                                      for x, s in minimal.items()})


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
        top = GrothendieckTopology(cat, {x: _generated(cat, x, union.intersection(cat.into(x)))
                                         for x in cat.objects}, label=label)
        violations = check_topology(cat, top)
        if violations:
            raise ClassificationError(f"{label or 'J^T'} fails the axioms, against the "
                                      f"classification: {violations[0]}")
        tops.append(top)
    position = {x: {s: i for i, s in enumerate(sieves_on(cat, x))} for x in cat.objects}

    def product_order(top):
        return tuple((len(p), p) for p in ([position[x][s] for s in top.sieves_at(x)]
                                            for x in cat.objects))

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
        x for x in cat.objects if cat.id_of(x) in top.least[x].members))
    if sub.is_strictly_full() and is_karoubian(sub.category) \
            and subcategory_topology(cat, sub) == top:
        return sub
    raise ClassificationError(
        "no strictly full Karoubian subcategory induces this topology; "
        "the ambient category is likely not Karoubian")


def finest_topology_for(presheaf) -> GrothendieckTopology:
    """The finest topology on presheaf.cat for which the presheaf satisfies
    the sheaf condition; uniqueness is verified per instance, not assumed."""
    from .sheaves import is_sheaf  # local import to avoid a cycle

    cat = presheaf.cat
    good = [t for t in enumerate_topologies(cat) if is_sheaf(presheaf, t)]
    maximal = [t for t in good if not any(t is not u and t.le(u) for u in good)]
    if not maximal:
        raise ClassificationError("no topology admits this presheaf as a sheaf")
    if len(maximal) > 1:
        raise ClassificationError(
            f"{len(maximal)} incomparable maximal topologies admit this presheaf; "
            "the finest one is not unique on this input")
    return GrothendieckTopology(cat, maximal[0].least, label="J_N")
