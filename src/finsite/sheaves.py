"""Compatible families and what is built from them: matching families,
the sheaf condition, sheafification, the dense-site fixed-point formula
for EI categories, and right Kan extension along full subcategory
inclusions.

A family over members, morphisms into one object, assigns to member i an
element (or vector) of F at its domain. Links tie the entries: (i, v, j)
asks F(v)(m_i) = m_j. One solver, ``_linked_families``, finds the
families for any links: the filtered product of the pools in the set
flavour, a FamilySpace in the linear one. There a small system is solved
whole by ``sparse_null_space``, and a larger one on the roots of its link
graph: one member per top strongly connected component, the others
reached along a spanning forest as path products of their root's block,
the links off the forest giving the only equations; its kernel is written
out in the same canonical layout.

The solver serves three constructions. The matching families over a
sieve, and the value at x of the right Kan extension along D, link
member u to "v then u" for each generator v into dom(u), of the site or
of D. The value at x of the dense fixed-point formula links each orbit
representative to itself under every element of its stabilizer.

One pull, ``_pull``, makes a presheaf of such values, reading the
matrices of the morphisms out of an object off the family basis there
(see ``basis_coordinates``), all at once when the basis has rows whose
check is a product. One unit, ``_unit``,
restricts F(x) into the matching families over a sieve on x:
the sheaf condition asks it to be bijective for every covering sieve,
and on the minimal covering sieves it is the unit of half-sheafification.

Half-sheafification is computed on the minimal covering sieve. On a
finite site the covering sieves at an object are closed under
intersection, so the inclusion-poset colimit defining the construction
is attained at its least element, which is how a GrothendieckTopology
holds the topology: one least covering sieve per object. The long-form
colimit lives in the test suite as an independent oracle.

Sheafification is two half-sheafification passes, which stay the oracle
of the one shortcut: on the dense site of an EI category, where each
least cover holds the morphisms from the minimal objects, the sheaf is
Ran_D(F|_D) for D the minimal objects, the fixed-point formula. There
``sheafify`` solves the fixed points alone and writes them into the
layout of two passes, byte for byte (see ``_dense_sheafify``).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .category import EIRequiredError, FiniteCategory, FullSubcategory, iso_class_poset
from .errors import EngineError
from .fields import (Matrix, basis_coordinates, basis_rows, block_offsets, bottom_up_basis,
                     hstack, identity_matrix, mat_mul, rank, shared_products,
                     sparse_null_space, vstack, zero_matrix)
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
    dims = tuple(map(f.at, doms))
    offsets, total = block_offsets(dims)
    basis = (_root_solve(f, dims, links) if total >= ROOT_SOLVE_MIN
             else _full_solve(f, offsets, total, links))
    return FamilySpace(members, dims, offsets, basis)


# The unknowns from which the root solve takes over. It pays for its
# forest and for writing its kernel out: over the family systems of one
# sheafify benchmark pass over F5 (seeds 5 and 23, best of 5 per system),
# it took 2.1-2.4 times as long as the whole-system solve below 8
# unknowns, 1.5-1.7 times at 8-15 and 1.2 times at 16-19, about as long
# at 20-27, and 0.6-0.7 and 0.33 times as long at 36-47 and 90 unknowns;
# over Q, on a rational pass, 1.1-1.5 times below 12 and 0.33 times at
# 36-39 unknowns. Any bound from 20 to 32 gives the same pass time.
ROOT_SOLVE_MIN = 20


def _full_solve(f, offsets, total, links) -> Matrix:
    """The canonical null space of the link equations, one sparse row per
    row of each F(v), over every unknown at once."""
    k = f.field
    rows = []
    for i, v, j in links:
        for at, entries in enumerate(f.mat(v).data, offsets[j]):
            row = dict(itertools.compress(enumerate(entries, offsets[i]), entries))
            row[at] = k.sub(row.get(at, k.zero), k.one)
            rows.append(row)
    return sparse_null_space(k, rows, total)


def _spanning_forest(n: int, links) -> tuple[list, list]:
    """One root in each top strongly connected component of the graph with
    an edge i -> j per link (i, v, j), and the links of a spanning forest
    from the roots, each (t, j): links[t] reaches member j, in an order
    in which every link starts at a root or at a member reached before.
    The roots are the members left unreached when breadth-first search
    starts from each member in the reverse of the order depth-first search
    finishes them (the first pass of Kosaraju's algorithm)."""
    out = [[] for _ in range(n)]
    for t, (i, _, j) in enumerate(links):
        out[i].append((t, j))
    finished, seen = [], [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(out[s]))]
        while stack:
            node, edges = stack[-1]
            for _, j in edges:
                if not seen[j]:
                    seen[j] = True
                    stack.append((j, iter(out[j])))
                    break
            else:
                stack.pop()
                finished.append(node)
    roots, tree, reached = [], [], [False] * n
    for s in reversed(finished):
        if reached[s]:
            continue
        roots.append(s)
        reached[s] = True
        queue = [s]
        for node in queue:
            for t, j in out[node]:
                if not reached[j]:
                    reached[j] = True
                    tree.append((t, j))
                    queue.append(j)
    return sorted(roots), tree


def _root_solve(f, dims, links) -> Matrix:
    """The canonical null space of the link equations, solved over the
    roots of _spanning_forest only. A member j reached along the forest
    has the block P_j M_r, P_j the product of the maps on the path from
    its root r; the links off the forest ask F(v) P_i M_r - P_j M_r' = 0
    of the root blocks, with kernel K. The families are W = (P_j K_r)_j,
    and W (W_F)^-1 is their canonical basis (see bottom_up_basis). The
    F(v) P_i of the links out of member i come from one product, and so
    do the P_j K_r of the members of root r."""
    k = f.field
    roots, tree = _spanning_forest(len(dims), links)
    starts, width = block_offsets(dims[r] for r in roots)
    start = dict(zip(roots, starts))
    out_of = [[] for _ in dims]
    for t, (i, _, _) in enumerate(links):
        out_of[i].append(t)
    reaches = dict(tree)
    path = {r: (r, None) for r in roots}   # member -> (root, P), None for I
    lhs = {}                               # link t = (i, v, j) -> F(v) P_i
    for i in roots + [j for _, j in tree]:
        r, p = path[i]
        maps = [f.mat(links[t][1]) for t in out_of[i]]
        lhs.update(zip(out_of[i], maps if p is None else shared_products(k, maps, right=p)))
        path.update((reaches[t], (r, lhs[t])) for t in out_of[i] if t in reaches)
    rows = []
    for t, (i, v, j) in enumerate(links):
        if t in reaches:
            continue
        (ri, _), (rj, pj) = path[i], path[j]
        rhs = identity_matrix(k, dims[j]) if pj is None else pj
        for a, b in zip(lhs[t].data, rhs.data):
            row = dict(itertools.compress(enumerate(a, start[ri]), a))
            for c, x in itertools.compress(enumerate(b, start[rj]), b):
                row[c] = k.sub(row.get(c, k.zero), x)
            rows.append(row)
    kernel = sparse_null_space(k, rows, width)
    if len(roots) == len(dims):
        return kernel   # the root unknowns are all the unknowns
    blocks = {}
    for r in roots:
        blocks[r] = Matrix(dims[r], kernel.cols, kernel.data[start[r]:start[r] + dims[r]])
        reached = [j for _, j in tree if path[j][0] == r]
        blocks.update(zip(reached, shared_products(
            k, [path[j][1] for j in reached], right=blocks[r])))
    return bottom_up_basis(k, vstack(k, [blocks[j] for j in range(len(dims))]))


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
    out_of = {x: [] for x in cat.objects}
    for m in cat.morphisms:
        out_of[m.dom].append(m)
    mats = {}
    for x, out in out_of.items():
        basis = values[x].basis
        rows = basis_rows(k, basis)
        pulled = []
        for m in out:
            dst = values[m.cod]
            blocks = [dst.block(j) if a is None else mat_mul(k, f.mat(a), dst.block(j))
                      for j, a in plan(m)]
            pulled.append(vstack(k, blocks) if blocks else zero_matrix(k, 0, dst.dim))
        # Side by side, the rows of the basis with two entries or more are
        # checked by one product for all the morphisms out of x; a basis
        # without such rows has no product to share, and laying the
        # families side by side would only copy them.
        sols = []
        for batch in [pulled] if rows.dense else [[p] for p in pulled]:
            sol = basis_coordinates(k, basis, hstack(k, batch), rows)
            if sol is None:
                raise EngineError("pulled family left the family space")
            starts, _ = block_offsets(p.cols for p in batch)
            sols += [Matrix(sol.rows, p.cols, tuple(row[lo:lo + p.cols] for row in sol.data))
                     for lo, p in zip(starts, batch)]
        mats.update(zip([m.name for m in out], sols))
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
    sieve_sort_key order. The maximal sieve, last in that order, is left
    out: its unit is bijective (Yoneda).
    """
    cat = f.cat
    for x in cat.objects:
        for s in top.sieves_at(x)[:-1]:
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
    """Two half-sheafification passes, in their layout: the value at x is
    the matching families of F+ over L_x, F+ = half_sheafify(f, top).

    When f.cat is EI and every L_x holds exactly the morphisms from the
    minimal objects into x (the dense topology, whichever way it was
    chosen), the same values and maps are read off the fixed points
    instead (see _dense_sheafify); two passes stay the oracle."""
    poset = _dense_poset(f.cat, top)
    if poset is None:
        return half_sheafify(half_sheafify(f, top), top)
    return _dense_sheafify(f, top, poset)


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


def _orbit_lookup(cat: FiniteCategory, components) -> dict:
    """Each morphism t from a class representative into x, sent to the
    component j whose orbit holds t and the first automorphism a with
    "a then orbit_rep" = t."""
    found = {}
    for j, comp in enumerate(components):
        for a in cat.endos(comp.rep_object):
            found.setdefault(cat.compose(comp.orbit_rep, a), (j, a))
    return found


def _fixed_point_values(f, cat: FiniteCategory, poset):
    """The components at each object, and the value there of the
    fixed-point formula: the families over the orbit representatives,
    each linked to itself by its stabilizer."""
    components = {x: dense_components(cat, poset, x) for x in cat.objects}
    values = {}
    for x, comps in components.items():
        links = [(i, h, i) for i, comp in enumerate(comps) for h in comp.stabilizer
                 if not cat.is_identity(h)]
        values[x] = _linked_families(f, tuple(comp.orbit_rep for comp in comps),
                                     [comp.rep_object for comp in comps], links)
    return components, values


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
    components, values = _fixed_point_values(f, cat, iso_class_poset(cat))
    lookup = {x: _orbit_lookup(cat, comps) for x, comps in components.items()}

    def plan(m):
        found = [lookup[m.cod][cat.compose(m.name, c.orbit_rep)] for c in components[m.dom]]
        return [(j, None if cat.is_identity(a) else a) for j, a in found]

    return _pull(f, cat, values, plan)


def _dense_poset(cat: FiniteCategory, top: GrothendieckTopology):
    """The iso-class poset of cat when cat is EI and every least cover L_x
    holds exactly the morphisms from the minimal objects into x, else None."""
    try:
        poset = iso_class_poset(cat)
    except EIRequiredError:
        return None
    minimal = set(poset.minimal_objects())
    if all(top.minimal_cover(x).members == {t for t in cat.into(x) if cat.dom(t) in minimal}
           for x in cat.objects):
        return poset
    return None


def _dense_sheafify(f, top: GrothendieckTopology, poset):
    """half_sheafify(half_sheafify(f, top), top) on the dense site of an EI
    category, from the fixed points.

    At a minimal object d, L_d is the maximal sieve, so F+(d) is the image
    of the unit eta_d: F(d) -> F+(d) (Yoneda), the families of F over L_d,
    canonically the bottom_up_basis of the stacked F(v), v in L_d, with
    eta_d the rows of that stack at the basis's unit rows. The matching
    families of F+ over L_x are eta applied entrywise to those of F, the
    fixed points: a member u is "g then t" for an isomorphism g from dom u
    to its class representative, and t is "a then r" for the orbit
    representative r of a component, so its entry is eta F(g) F(a) of the
    entry at r. Each value is then written in the canonical layout of the
    second pass.
    """
    cat = f.cat
    members = {x: member_order(cat, top.minimal_cover(x)) for x in cat.objects}
    components, fixed = _fixed_point_values(f, cat, poset)
    # d -> (g, g^-1), g: d -> the first object of its class
    iso = {}
    for ci in poset.minimal_class_indices():
        rep, *others = poset.classes[ci]
        iso[rep] = (cat.id_of(rep), cat.id_of(rep))
        for d in others:
            g = cat.hom(d, rep)[0]
            iso[d] = (g, cat.inverse(g))
    plans = {}   # x -> (g, j) per member: its entry is eta F(g) of entry j
    for x, comps in components.items():
        lookup = _orbit_lookup(cat, comps)
        plans[x] = []
        for u in members[x]:
            g, back = iso[cat.dom(u)]
            j, a = lookup[cat.compose(u, back)]
            plans[x].append((cat.compose(a, g), j))
    values = (_dense_set_values if f.flavor == "set" else _dense_linear_values)(
        f, members, fixed, plans, tuple(iso))
    return _precomposition(f, cat, members, values)


def _dense_set_values(f, members, fixed, plans, minimal):
    """The families of F+ over each L_x, sorted into the product order of
    the pools F+(dom u), each pool the families over L_d in product order."""
    cat = f.cat
    eta = {}   # d -> {a: (the place of eta_d a in the pool F+(d), eta_d a)}
    for d in minimal:
        index = [{a: n for n, a in enumerate(f.at(cat.dom(v)))} for v in members[d]]
        fams = {a: tuple(f.apply(v, a) for v in members[d]) for a in f.at(d)}
        pool = sorted(fams.values(), key=lambda fam: tuple(map(dict.__getitem__, index, fam)))
        place = {fam: n for n, fam in enumerate(pool)}
        eta[d] = {a: (place[fam], fam) for a, fam in fams.items()}
    moved = {}   # g: d -> c sends a in F(c) to eta_d F(g) a, with its place
    values = {}
    for x, plan in plans.items():
        for g, _ in plan:
            if g not in moved:
                moved[g] = {a: eta[cat.dom(g)][f.apply(g, a)] for a in f.at(cat.cod(g))}
        keyed = sorted(tuple(moved[g][val[j]] for g, j in plan) for val in fixed[x])
        values[x] = tuple(tuple(fam for _, fam in entries) for entries in keyed)
    return values


def _dense_linear_values(f, members, fixed, plans, minimal):
    """The FamilySpace of F+ over each L_x: the fixed-point families moved
    entry by entry, one product per component, in their canonical basis."""
    cat, k = f.cat, f.field
    eta = {}
    for d in minimal:
        stack = vstack(k, [f.mat(v) for v in members[d]])
        unit = basis_rows(k, bottom_up_basis(k, stack)).unit
        eta[d] = Matrix(len(unit), stack.cols, tuple(stack.data[i] for i in unit))
    moved = {}   # g: d -> c, the matrix eta_d F(g)
    values = {}
    for x, plan in plans.items():
        by_entry = {}
        for at, (g, j) in enumerate(plan):
            if g not in moved:
                moved[g] = mat_mul(k, eta[cat.dom(g)], f.mat(g))
            by_entry.setdefault(j, []).append(at)
        blocks = [None] * len(plan)
        for j, ats in by_entry.items():
            prods = shared_products(k, [moved[plan[at][0]] for at in ats],
                                    right=fixed[x].block(j))
            for at, p in zip(ats, prods):
                blocks[at] = p
        dims = tuple(b.rows for b in blocks)
        offsets, _ = block_offsets(dims)
        values[x] = FamilySpace(members[x], dims, offsets, bottom_up_basis(k, vstack(k, blocks)))
    return values


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
