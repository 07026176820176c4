"""Compatible families and what is built from them: matching families,
the sheaf condition, sheafification, the dense-site fixed-point formula
for EI categories, and right Kan extension along full subcategory
inclusions.

A family over a tuple of morphisms u into one object assigns to each u
an element (or vector) over dom(u), compatibly with every precomposition:
F(v)(m_u) = m_{uv}. Over the members of a sieve these are its matching
families; over the morphisms from a subcategory D into x, compatible
under D's morphisms, they are the value at x of the right Kan extension
along D. ``families`` computes both. The sheaf condition asks the
canonical map from F(x) into the matching families to be a bijection
for every covering sieve.

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
from .fields import (Matrix, block_matrix, block_offsets, identity_matrix, mat_mul,
                     null_space, null_space_coordinates, rank, vstack, zero_matrix)
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


def families(f, cat: FiniteCategory, members: tuple):
    """The families over members, morphisms of cat into one object, that
    are compatible under f.cat: F(v)(m_u) = m_{uv} for every member u and
    every f.cat-morphism v into dom(u). For a sieve f.cat is cat; for a
    right Kan extension along D it is D, whose morphisms keep cat's names.

    Set flavour: the compatible tuples, in product order of the pools.
    Linear flavour: the FamilySpace solving the compatibility equations.
    """
    d = f.cat
    index = {u: i for i, u in enumerate(members)}
    # (i, v, j): member i precomposed with v is member j. Generators v are
    # enough: F(vw)(m_u) = F(w)(m_uv) = m_uvw by induction on word length.
    links = [(i, v, index[cat.compose(u, v)]) for i, u in enumerate(members)
             for v in d.into(cat.dom(u)) if v in d.generators]
    if f.flavor == "set":
        pools = [f.at(cat.dom(u)) for u in members]
        return tuple(combo for combo in itertools.product(*pools)
                     if all(f.apply(v, combo[i]) == combo[j] for i, v, j in links))
    k = f.field
    dims = tuple(f.at(cat.dom(u)) for u in members)
    offsets, total = block_offsets(dims)
    rows = []
    for i, v, j in links:
        lo = offsets[i]
        for at, entries in enumerate(f.mat(v).data, offsets[j]):
            row = [k.zero] * total
            row[lo:lo + len(entries)] = entries
            row[at] = k.sub(row[at], k.one)
            rows.append(tuple(row))
    system = Matrix(len(rows), total, tuple(rows))
    return FamilySpace(members, dims, offsets, null_space(k, system))


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


def _precomposition(f, cat: FiniteCategory, members: dict, values: dict):
    """The presheaf on cat whose value at x is values[x], families over
    members[x]; m: w -> x sends a family to its entries at "v then m" for
    the members v at w."""
    index = {x: {u: i for i, u in enumerate(members[x])} for x in cat.objects}

    def positions(m):
        try:
            return [index[m.cod][cat.compose(m.name, v)] for v in members[m.dom]]
        except KeyError:
            raise EngineError("stability violated: a pulled member escapes "
                              "the members of its family") from None

    if f.flavor == "set":
        maps = {}
        for m in cat.morphisms:
            pos = positions(m)
            maps[m.name] = {fam: tuple(fam[j] for j in pos) for fam in values[m.cod]}
        return SetPresheaf(cat, values, maps)
    k = f.field
    mats = {}
    for m in cat.morphisms:
        src, dst = values[m.dom], values[m.cod]
        blocks = [dst.block(j) for j in positions(m)]
        pulled = vstack(k, blocks) if blocks else zero_matrix(k, 0, dst.dim)
        sol = null_space_coordinates(k, src.basis, pulled)
        if sol is None:
            raise EngineError("pulled family left the family space")
        mats[m.name] = sol
    return LinearPresheaf(cat, k, {x: values[x].dim for x in cat.objects}, mats)


def set_restriction_map(f: SetPresheaf, s: Sieve) -> dict:
    """a in F(x) goes to the family u -> F(u)(a)."""
    cat = f.cat
    members = member_order(cat, s)
    return {a: tuple(f.apply(u, a) for u in members) for a in f.at(s.target)}


def linear_restriction_matrix(f: LinearPresheaf, s: Sieve) -> Matrix:
    cat, k = f.cat, f.field
    members = member_order(cat, s)
    blocks = [f.mat(u) for u in members]
    if not blocks:
        return zero_matrix(k, 0, f.at(s.target))
    return vstack(k, blocks)


def _sieve_is_descent(f, s: Sieve) -> bool:
    if f.flavor == "set":
        fams = set_matching_families(f, s)
        images = list(set_restriction_map(f, s).values())
        return len(set(images)) == len(images) == len(fams) \
            and set(images) == set(fams)
    k = f.field
    space = linear_matching_families(f, s)
    res = linear_restriction_matrix(f, s)
    dx = f.at(s.target)
    # The image always consists of families, so bijectivity is a rank count.
    return space.dim == dx and rank(k, res) == dx


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
    cat = f.cat
    if f.flavor == "set":
        return {x: set_restriction_map(f, top.minimal_cover(x)) for x in cat.objects}
    k = f.field
    comps = {}
    for x in cat.objects:
        space = linear_matching_families(f, top.minimal_cover(x))
        res = linear_restriction_matrix(f, top.minimal_cover(x))
        sol = null_space_coordinates(k, space.basis, res)
        if sol is None:
            raise EngineError("restriction family left the family space")
        comps[x] = sol
    return comps


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
    the subspace) fixed by the orbit stabilizer. Morphisms act by
    matching orbits through composition and restricting between fixed
    parts. This route is independent of the generic sheafification and
    is checked against it.
    """
    cat = f.cat
    poset = iso_class_poset(cat)
    components = {x: dense_components(cat, poset, x) for x in cat.objects}
    if f.flavor == "set":
        return _dense_fixed_points_set(f, poset, components)
    return _dense_fixed_points_linear(f, poset, components)


def _dense_fixed_points_set(f: SetPresheaf, poset, components) -> SetPresheaf:
    cat = f.cat
    fixed = {}
    for x in cat.objects:
        pools = []
        for comp in components[x]:
            pool = tuple(m for m in f.at(comp.rep_object)
                         if all(f.apply(h, m) == m for h in comp.stabilizer))
            pools.append(pool)
        fixed[x] = tuple(itertools.product(*pools))
    maps = {}
    for m in cat.morphisms:
        w, x = m.dom, m.cod
        plan = []
        for comp in components[w]:
            t = cat.compose(m.name, comp.orbit_rep)
            j, a = _match_component(cat, components[x], comp.class_index, t)
            plan.append((j, a))
        table = {}
        for val in fixed[x]:
            table[val] = tuple(f.apply(a, val[j]) for j, a in plan)
        maps[m.name] = table
    return SetPresheaf(cat, fixed, maps)


def _fixed_subspace_basis(k, f: LinearPresheaf, obj: str, stabilizer) -> Matrix:
    d = f.at(obj)
    rows = []
    ident = identity_matrix(k, d)
    for h in stabilizer:
        if f.cat.is_identity(h):
            continue
        fh = f.mat(h)
        for r in range(d):
            rows.append(tuple(k.sub(fh.entry(r, c), ident.entry(r, c)) for c in range(d)))
    return null_space(k, Matrix(len(rows), d, tuple(rows)))


def _dense_fixed_points_linear(f: LinearPresheaf, poset, components) -> LinearPresheaf:
    cat, k = f.cat, f.field
    bases = {}
    dims = {}
    offsets = {}
    for x in cat.objects:
        bases[x] = [_fixed_subspace_basis(k, f, comp.rep_object, comp.stabilizer)
                    for comp in components[x]]
        offsets[x], dims[x] = block_offsets(b.cols for b in bases[x])
    mats = {}
    for m in cat.morphisms:
        w, x = m.dom, m.cod
        blocks = []
        for i, comp in enumerate(components[w]):
            t = cat.compose(m.name, comp.orbit_rep)
            j, a = _match_component(cat, components[x], comp.class_index, t)
            moved = mat_mul(k, f.mat(a), bases[x][j])
            block = null_space_coordinates(k, bases[w][i], moved)
            if block is None:
                raise EngineError("fixed subspace not preserved; "
                                  "stabilizer matching is inconsistent")
            blocks.append((offsets[w][i], offsets[x][j], block))
        mats[m.name] = block_matrix(k, dims[w], dims[x], blocks)
    return LinearPresheaf(cat, k, dims, mats)


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
    if g.flavor == "set":
        values = {x: (g.at(x) if x in keep else ()) for x in cat.objects}
        maps = {}
        for m in cat.morphisms:
            if m.cod in keep and m.dom in keep:
                maps[m.name] = dict(g.maps[m.name])
            else:
                maps[m.name] = {}
        return SetPresheaf(cat, values, maps)
    k = g.field
    dims = {x: (g.at(x) if x in keep else 0) for x in cat.objects}
    mats = {}
    for m in cat.morphisms:
        if m.cod in keep and m.dom in keep:
            mats[m.name] = g.mat(m.name)
        else:
            mats[m.name] = zero_matrix(k, dims[m.dom], dims[m.cod])
    return LinearPresheaf(cat, k, dims, mats)
