"""Compatible families and what is built from them: matching families,
the sheaf condition, sheafification, the dense-site fixed-point formula
for EI categories, and right Kan extension along full subcategory
inclusions.

A family over members, morphisms into one object, assigns to member i an
element (or vector) of F at its domain. Links tie the entries: (i, v, j)
asks F(v)(m_i) = m_j. One solver, ``_linked_families``, finds the
families for any links: the filtered product of the pools in the set
flavour, a FamilySpace solved by ``sparse_null_space`` in the linear one.
It serves three constructions. The matching families over a sieve, and
the value at x of the right Kan extension along D, link member u to
"v then u" for each generator v into dom(u), of the site or of D. The
value at x of the dense fixed-point formula links each orbit
representative to itself under every element of its stabilizer.

One pull, ``_pull``, makes a presheaf of such values. One unit,
``_unit``, restricts F(x) into the matching families over a sieve on x:
the sheaf condition asks it to be bijective for every covering sieve,
and on the minimal covering sieves it is the unit of half-sheafification.

Half-sheafification is computed on the minimal covering sieve. On a
finite site the covering sieves at an object are closed under
intersection, so the inclusion-poset colimit defining the construction
is attained at its least element, which is how a GrothendieckTopology
holds the topology: one least covering sieve per object. The long-form
colimit lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .category import FiniteCategory, FullSubcategory, iso_class_poset
from .errors import EngineError
from .fields import (Matrix, basis_coordinates, block_offsets, mat_mul, rank, sparse_null_space,
                     vstack, zero_matrix)
from .presheaves import LinearPresheaf, SetPresheaf
from .sieves import Sieve
from .topology import GrothendieckTopology


def member_order(cat: FiniteCategory, s: Sieve) -> tuple[str, ...]:
    return tuple(sorted(s.members, key=lambda m: cat.mor_index[m]))


class FamilySpace(NamedTuple):
    members: tuple          # the morphisms the families run over
    block_dims: tuple       # dim of F at dom(u) per member
    offsets: tuple          # starting row of each member block
    basis: Matrix           # (total block dim) x (space dim), canonical columns

    @property
    def dim(self) -> int:
        return self.basis.cols

    @property
    def total(self) -> int:
        return self.basis.rows

    def block(self, i: int) -> Matrix:
        """The rows of member i: each basis family's vector over dom(u_i)."""
        lo = self.offsets[i]
        return Matrix(self.block_dims[i], self.basis.cols,
                      self.basis.data[lo:lo + self.block_dims[i]])


def _linked_families(f, members: tuple, doms, links):
    """The families over members, entry i over F(doms[i]), with
    F(v)(m_i) = m_j for every link (i, v, j).

    Set flavour: the linked tuples, in product order of the pools.
    Linear flavour: the FamilySpace solving the link equations.
    """
    if f.flavor == "set":
        return tuple(combo for combo in itertools.product(*map(f.at, doms))
                     if all(f.apply(v, combo[i]) == combo[j] for i, v, j in links))
    k = f.field
    dims = tuple(map(f.at, doms))
    offsets, total = block_offsets(dims)
    rows = []
    for i, v, j in links:
        for at, entries in enumerate(f.mat(v).data, offsets[j]):
            row = dict(itertools.compress(enumerate(entries, offsets[i]), entries))
            row[at] = k.sub(row.get(at, k.zero), k.one)
            rows.append(row)
    return FamilySpace(members, dims, offsets, sparse_null_space(k, rows, total))


def families(f, cat: FiniteCategory, members: tuple):
    """The families over members, morphisms of cat into one object, that
    are compatible under f.cat: F(v)(m_u) = m_{uv} for every member u and
    every f.cat-morphism v into dom(u). For a sieve f.cat is cat; for a
    right Kan extension along D it is D, whose morphisms keep cat's names.
    """
    d = f.cat
    index = {u: i for i, u in enumerate(members)}
    # (i, v, j): member i precomposed with v is member j. Generators v are
    # enough: F(vw)(m_u) = F(w)(m_uv) = m_uvw by induction on word length.
    links = [(i, v, index[cat.compose(u, v)]) for i, u in enumerate(members)
             for v in d.into(cat.dom(u)) if v in d.generators]
    return _linked_families(f, members, [cat.dom(u) for u in members], links)


def set_matching_families(f: SetPresheaf, s: Sieve) -> tuple[tuple, ...]:
    """All compatible assignments over the sieve, in product order."""
    return families(f, f.cat, member_order(f.cat, s))


def linear_matching_families(f: LinearPresheaf, s: Sieve) -> FamilySpace:
    """Canonical basis of the solution space of the compatibility equations."""
    return families(f, f.cat, member_order(f.cat, s))


def matching_families(f, s: Sieve):
    if f.flavor == "set":
        return set_matching_families(f, s)
    return linear_matching_families(f, s)


def _pull(f, cat: FiniteCategory, values: dict, plan):
    """The presheaf on cat whose value at x is values[x], families over
    the members at x. plan(m) gives one (j, a) per member at dom m: m sends
    a family to the one whose entry there is F(a) of its entry j, or entry
    j itself when a is None."""
    if f.flavor == "set":
        maps = {}
        for m in cat.morphisms:
            steps = plan(m)
            maps[m.name] = {fam: tuple(fam[j] if a is None else f.apply(a, fam[j])
                                       for j, a in steps) for fam in values[m.cod]}
        return SetPresheaf(cat, values, maps)
    k = f.field
    mats = {}
    for m in cat.morphisms:
        src, dst = values[m.dom], values[m.cod]
        blocks = [dst.block(j) if a is None else mat_mul(k, f.mat(a), dst.block(j))
                  for j, a in plan(m)]
        pulled = vstack(k, blocks) if blocks else zero_matrix(k, 0, dst.dim)
        sol = basis_coordinates(k, src.basis, pulled)
        if sol is None:
            raise EngineError("pulled family left the family space")
        mats[m.name] = sol
    return LinearPresheaf(cat, k, {x: values[x].dim for x in cat.objects}, mats)


def _precomposition(f, cat: FiniteCategory, members: dict, values: dict):
    """The pull of values, families over members[x]; m: w -> x sends a
    family to its entries at "v then m" for the members v at w."""
    index = {x: {u: i for i, u in enumerate(members[x])} for x in cat.objects}

    def plan(m):
        try:
            return [(index[m.cod][cat.compose(m.name, v)], None) for v in members[m.dom]]
        except KeyError:
            raise EngineError("stability violated: a pulled member escapes "
                              "the members of its family") from None

    return _pull(f, cat, values, plan)


def _unit(f, s: Sieve):
    """The matching families over s, and the restriction sending a in F(x)
    to the family u -> F(u)(a): a dictionary in the set flavour, the
    coordinate matrix over the family basis in the linear one."""
    members = member_order(f.cat, s)
    if f.flavor == "set":
        return set_matching_families(f, s), {
            a: tuple(f.apply(u, a) for u in members) for a in f.at(s.target)}
    k = f.field
    space = linear_matching_families(f, s)
    blocks = [f.mat(u) for u in members]
    res = vstack(k, blocks) if blocks else zero_matrix(k, 0, f.at(s.target))
    coords = basis_coordinates(k, space.basis, res)
    if coords is None:
        raise EngineError("restriction family left the family space")
    return space, coords


def _sieve_is_descent(f, s: Sieve) -> bool:
    """Whether the unit into the matching families over s is bijective."""
    fams, res = _unit(f, s)
    if f.flavor == "set":
        images = set(res.values())
        return len(images) == len(res) and images == set(fams)
    return res.rows == res.cols and rank(f.field, res) == res.cols


def sheaf_defect(f, top: GrothendieckTopology):
    """The first (object, covering sieve) violating descent, or None.

    Objects are swept in order, and the covering sieves at each in
    sieve_sort_key order.
    """
    cat = f.cat
    for x in cat.objects:
        for s in top.sieves_at(x):
            if not _sieve_is_descent(f, s):
                return (x, s)
    return None


def is_sheaf(f, top: GrothendieckTopology) -> bool:
    return sheaf_defect(f, top) is None


# -- sheafification -----------------------------------------------------


def half_sheafify(f, top: GrothendieckTopology):
    """Matching families over the minimal covering sieves, with the
    pullback action on families."""
    cat = f.cat
    members = {x: member_order(cat, top.minimal_cover(x)) for x in cat.objects}
    values = {x: matching_families(f, top.minimal_cover(x)) for x in cat.objects}
    return _precomposition(f, cat, members, values)


def sheafify(f, top: GrothendieckTopology):
    """Two half-sheafification passes."""
    return half_sheafify(half_sheafify(f, top), top)


def unit_into_half_sheafification(f, top: GrothendieckTopology):
    """The canonical comparison F -> F_half, componentwise.

    Set flavour: a dictionary per object sending a to its restriction
    family. Linear flavour: the coordinate matrix of the same map.
    """
    return {x: _unit(f, top.minimal_cover(x))[1] for x in f.cat.objects}


# -- dense topology on EI categories: fixed point formula ----------------


class DenseComponent(NamedTuple):
    class_index: int
    rep_object: str        # representative of a minimal class below the target
    orbit_rep: str         # morphism rep_object -> target
    stabilizer: tuple      # automorphisms a with "a then orbit_rep" = orbit_rep


def dense_components(cat: FiniteCategory, poset, x: str) -> tuple[DenseComponent, ...]:
    """Orbit decomposition of the morphisms from minimal objects into x.

    For each minimal isomorphism class below x (one chosen representative
    y per class), the automorphisms of y act on Hom(y, x) by
    precomposition; each orbit contributes one component with the
    stabilizer of its first representative.
    """
    out = []
    below = set(poset.below(x))
    for ci in poset.minimal_class_indices():
        rep = poset.classes[ci][0]
        if rep not in below:
            continue
        aut = cat.endos(rep)
        seen = set()
        for u in cat.hom(rep, x):
            if u in seen:
                continue
            orbit = {cat.compose(u, a) for a in aut}
            seen |= orbit
            stab = tuple(a for a in aut if cat.compose(u, a) == u)
            out.append(DenseComponent(ci, rep, u, stab))
    return tuple(out)


def _match_component(cat: FiniteCategory, components, cls: int, t: str):
    """Find the component whose orbit contains t, and a with rep∘a = t."""
    for j, comp in enumerate(components):
        if comp.class_index != cls:
            continue
        for a in cat.endos(comp.rep_object):
            if cat.compose(comp.orbit_rep, a) == t:
                return j, a
    raise EngineError("orbit decomposition out of sync")


def dense_sheafify_fixed_points(f):
    """Sheafification on the dense site of a finite EI category, computed
    directly from the fixed-point formula.

    The value at x is the product, over minimal classes below x and
    orbits of morphisms from their representatives, of the points (or
    the subspace) fixed by the orbit stabilizer: the families over the
    orbit representatives, each linked to itself by its stabilizer.
    Morphisms match orbits through composition and move entries by the
    automorphism that matched them. This route uses no sieve and is
    checked against the generic sheafification.
    """
    cat = f.cat
    poset = iso_class_poset(cat)
    components = {x: dense_components(cat, poset, x) for x in cat.objects}
    values = {}
    for x, comps in components.items():
        links = [(i, h, i) for i, comp in enumerate(comps) for h in comp.stabilizer
                 if not cat.is_identity(h)]
        values[x] = _linked_families(f, tuple(comp.orbit_rep for comp in comps),
                                     [comp.rep_object for comp in comps], links)

    def plan(m):
        found = [_match_component(cat, components[m.cod], c.class_index,
                                  cat.compose(m.name, c.orbit_rep)) for c in components[m.dom]]
        return [(j, None if cat.is_identity(a) else a) for j, a in found]

    return _pull(f, cat, values, plan)


# -- right Kan extension --------------------------------------------------


def _kan_members(sub: FullSubcategory, x: str) -> tuple[str, ...]:
    """The morphisms from objects of sub into x, in the parent's order."""
    cat = sub.parent
    keep = set(sub.objects)
    return tuple(t for t in cat.into(x) if cat.dom(t) in keep)


def kan_extension(g, sub: FullSubcategory):
    """The right Kan extension of g along sub with its families: the pair
    (presheaf, families per object), each value a tuple of families
    (set flavour) or a FamilySpace (linear flavour)."""
    cat = sub.parent
    if not sub.is_strictly_full():
        raise EngineError("right Kan extension expects a strictly full subcategory")
    if not g.cat.same_as(sub.category):
        raise EngineError("presheaf does not live on the chosen subcategory")
    members = {x: _kan_members(sub, x) for x in cat.objects}
    values = {x: families(g, cat, members[x]) for x in cat.objects}
    return _precomposition(g, cat, members, values), values


def right_kan_extension(g, sub: FullSubcategory):
    """Extend a presheaf on a strictly full subcategory to the whole
    category: the value at x is the set (or space) of families over all
    morphisms from subcategory objects into x that are natural for
    subcategory morphisms."""
    return kan_extension(g, sub)[0]


def rk_counit(g, sub: FullSubcategory):
    """The canonical map restrict(RK g) -> g: evaluate a family at the identity.

    Set flavour returns component dictionaries, linear flavour component
    matrices; both are natural isomorphisms (tested, not assumed).
    """
    cat = sub.parent
    rk, values = kan_extension(g, sub)
    comps = {}
    for w in sub.objects:
        i = _kan_members(sub, w).index(cat.id_of(w))
        if g.flavor == "set":
            comps[w] = {fam: fam[i] for fam in values[w]}
        else:
            comps[w] = values[w].block(i)
    return rk, comps


def extend_by_default(g, sub: FullSubcategory):
    """Extend a presheaf on a co-ideal by the empty set (or zero space)
    outside it; sheafifying the extension recovers the right Kan extension."""
    cat = sub.parent
    if not sub.is_co_ideal():
        raise EngineError("default extension needs a co-ideal subcategory")
    if not g.cat.same_as(sub.category):
        raise EngineError("presheaf does not live on the chosen subcategory")
    keep = set(sub.objects)
    linear = g.flavor == "linear"
    values = {x: g.at(x) if x in keep else (0 if linear else ()) for x in cat.objects}
    # On a co-ideal, cod m in D puts dom m in D: g acts on m, or else m
    # leaves the empty value.
    acts = {m.name: (g.mat(m.name) if linear else g.maps[m.name]) if m.cod in keep
            else (zero_matrix(g.field, values[m.dom], 0) if linear else {})
            for m in cat.morphisms}
    return LinearPresheaf(cat, g.field, values, acts) if linear else SetPresheaf(cat, values, acts)
