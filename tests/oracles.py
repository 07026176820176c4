"""Independent oracles used by the test suite.

Each of these recomputes a quantity along a different route than the
library: word reduction for the involution presentation, long-form
colimits for half-sheafification, the sheaf condition on least covering
sieves only, compatible families with a condition for every morphism and
functoriality on every composable pair (the library tries a generating
set), the families of any link system solved over every unknown at once
(the library solves the larger ones over the roots of the link graph),
composites grown one letter at a time, right Kan extension with its own
family solver, the dense fixed-point formula with a pool or a fixed
subspace solved per orbit and its morphisms built block by block, sieves by a
scan of every subset, the topology axioms by a sweep over every covering
sieve and every sieve, the topology census by a product search and
unpruned, with labels found by a scan of every object subset, the
classifying subcategory by a scan of the candidates, the strictly full
Karoubian subcategories by a Karoubi test of every union of isomorphism
classes, pointwise
coset maps for orbit categories, orbit categories composed by coset
products, the laws of category and group tables, of stored skew
products, of the products of any algebra and of module actions swept
over every instance (the library tries the generators first, by Light's
test), a direct category-algebra table,
textbook dense tables of the stock algebras, the skew category algebra
with its dense table, a
searched basis change onto the 2x2 matrix algebra, and the scalar-loop
matrix kernels and dense associativity check that the kernels of the
fields replaced, with the null space and inverse read off them (the
Gauss-Jordan loop is also the oracle of the sparse elimination), the
quotient module with its complement grown one unit vector at a time,
the generated submodule, the congruence of a random set presheaf and the
generated co-ideal each grown round by round until nothing grows, and
primality by trial division.
Helpers the library has no use for (the elements, component generators
and endomorphism algebras of the Grothendieck construction, the size of
a set presheaf) live here too.
PyYAML's pure-Python parser and SafeDumper are the reference of the
libyaml parser and of the emitter of finsite.serialize.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import NamedTuple

import pytest
import yaml

from finsite import serialize
from finsite.algebras import FiniteDimAlgebra, GrMorphism, GrothendieckConstruction
from finsite.category import (FiniteCategory, FullSubcategory, Morphism, is_ei, is_karoubian,
                              iso_class_poset, iso_classes,
                              strictly_full_karoubian_subcategories)
from finsite.fields import (Matrix, basis_coordinates, block_matrix, block_offsets,
                            col_space, hstack, identity_matrix, inverse, mat_combination,
                            mat_mul, matrix, matrix_from_cols, null_space, rank, solve,
                            solve_matrix, sparse_null_space, unit_vec)
from finsite.modules import AlgebraModule
from finsite.presheaves import LinearPresheaf, SetPresheaf
from finsite.sampling import MAX_CONSTANTS, MAX_GENERATORS, MAX_RELATIONS
from finsite.sheaves import (FamilySpace, _sieve_is_descent,
                             dense_components, linear_matching_families, member_order,
                             set_matching_families)
from finsite.serialize import dump_text, topology_to_doc
from finsite.sieves import Sieve, is_sieve, maximal_sieve, sieve_sort_key
from finsite.topology import GrothendieckTopology, TopologyViolation, subcategory_topology


# -- word reduction for the involution presentation ------------------------


def involution_words(max_len: int = 6):
    """Close {h: x->x, f: x->y} under h h -> empty, by brute-force reduction.

    Words are tuples of generators applied left to right. Returns the set
    of reduced words per (source, target) pair.
    """
    types = {"h": ("x", "x"), "f": ("x", "y")}

    def word_type(word):
        src = "x"
        at = src
        for gen in word:
            d, c = types[gen]
            if d != at:
                return None
            at = c
        return (src, at)

    def reduce_word(word):
        word = list(word)
        changed = True
        while changed:
            changed = False
            for i in range(len(word) - 1):
                if word[i] == "h" and word[i + 1] == "h":
                    del word[i:i + 2]
                    changed = True
                    break
        return tuple(word)

    reduced = {}
    for length in range(max_len + 1):
        for word in itertools.product(("h", "f"), repeat=length):
            t = word_type(word)
            if t is None:
                continue
            reduced.setdefault(t, set()).add(reduce_word(word))
    return reduced


# -- long-form colimit for half-sheafification ------------------------------


def _restrict_family_set(cat, big_sieve, small_sieve, family):
    big = member_order(cat, big_sieve)
    index = {u: i for i, u in enumerate(big)}
    return tuple(family[index[u]] for u in member_order(cat, small_sieve))


def colimit_families_set(f, top: GrothendieckTopology, x: str):
    """Equivalence classes of (covering sieve, matching family) pairs under
    agreement on a common covering refinement."""
    cat = f.cat
    sieves = top.sieves_at(x)
    items = []
    for s in sieves:
        for fam in set_matching_families(f, s):
            items.append((s, fam))
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (s1, f1) in enumerate(items):
        for j, (s2, f2) in enumerate(items):
            if j <= i:
                continue
            inter = s1.members & s2.members
            refinement = next((s for s in sieves if s.members == inter), None)
            if refinement is None:
                continue
            if _restrict_family_set(cat, s1, refinement, f1) == \
                    _restrict_family_set(cat, s2, refinement, f2):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    classes = {}
    for i in range(len(items)):
        classes.setdefault(find(i), []).append(items[i])
    return list(classes.values())


def colimit_dimension_linear(f, top: GrothendieckTopology, x: str) -> int:
    """Dimension of the long-form colimit: the direct sum of the family
    spaces over all covering sieves, divided by the agreement relations."""
    cat, k = f.cat, f.field
    sieves = top.sieves_at(x)
    spaces = [linear_matching_families(f, s) for s in sieves]
    offsets = []
    total = 0
    for sp in spaces:
        offsets.append(total)
        total += sp.dim
    relations = []
    for i, si in enumerate(sieves):
        big_members = member_order(cat, si)
        big_index = {u: t for t, u in enumerate(big_members)}
        for j, sj in enumerate(sieves):
            if i == j or not sj.members <= si.members:
                continue
            # relation: class of (m in slot i) equals (m restricted in slot j)
            small = member_order(cat, sj)
            for c in range(spaces[i].dim):
                fam = spaces[i].basis.col(c)
                small_vec = []
                for u in small:
                    t = big_index[u]
                    off = spaces[i].offsets[t]
                    small_vec.extend(fam[off:off + spaces[i].block_dims[t]])
                coords = solve(k, spaces[j].basis, small_vec)
                assert coords is not None, "restriction left the family space"
                rel = [k.zero] * total
                rel[offsets[i] + c] = k.one
                for t, val in enumerate(coords):
                    rel[offsets[j] + t] = k.sub(rel[offsets[j] + t], val)
                relations.append(rel)
    if not relations:
        return total
    return total - rank(k, matrix(k, relations, cols=total))


# -- the sheaf condition on least covering sieves -------------------------------


def least_sieve_defect(f, top: GrothendieckTopology):
    """The first object x whose least covering sieve S_x violates descent,
    with S_x, or None.

    None exactly when f is a sheaf. Every covering sieve R at x contains
    S_x, since covering sieves are closed under intersection. Descent on
    S_x gives separatedness on R: elements agreeing on R agree on S_x.
    For gluing, a matching family m on R restricts to S_x and glues to
    some a in F(x). For u: y -> x in R, the pullback of S_x along u
    covers y, so it contains S_y; F(u)(a) and m_u agree on S_y, hence
    are equal by separatedness on S_y. So separatedness on the least
    covering sieve at each y carries over to every larger sieve. The
    full sweep in sheaf_defect may still name a different first
    (object, sieve) pair.
    """
    for x in f.cat.objects:
        least = top.minimal_cover(x)
        if not _sieve_is_descent(f, least):
            return (x, least)
    return None


# -- generating sets, families over every link, the full functoriality scan ------


def composition_closure(cat: FiniteCategory, morphisms) -> set:
    """Every composite of one or more of the given morphisms: the words
    grown one letter at a time on the left until nothing new appears."""
    closed = set(morphisms)
    while True:
        grown = closed | {cat.compose(g, w) for g in morphisms for w in closed
                          if cat.dom(g) == cat.cod(w)}
        if grown == closed:
            return closed
        closed = grown


def all_links_families(f, cat: FiniteCategory, members: tuple):
    """families with a compatibility condition for every non-identity
    morphism v of f.cat into the domain of a member, not only for its
    generators: the filtered product of the pools, or a FamilySpace."""
    d = f.cat
    index = {u: i for i, u in enumerate(members)}
    links = [(i, v.name, index[cat.compose(u, v.name)]) for i, u in enumerate(members)
             for v in d.morphisms if v.cod == cat.dom(u) and not d.is_identity(v.name)]
    if f.flavor == "set":
        return tuple(combo for combo in itertools.product(*[f.at(cat.dom(u)) for u in members])
                     if all(f.apply(v, combo[i]) == combo[j] for i, v, j in links))
    return link_system_families(f, members, [cat.dom(u) for u in members], links)


def link_system_families(f, members: tuple, doms, links) -> FamilySpace:
    """The FamilySpace of a linear f over members, entry i over F(doms[i]),
    with F(v)(m_i) = m_j for every link (i, v, j): the null_space of the
    whole system, one dense row per row of each F(v), over every unknown."""
    k = f.field
    dims = tuple(f.at(x) for x in doms)
    offsets = tuple(sum(dims[:i]) for i in range(len(dims)))
    total = sum(dims)
    rows = []
    for i, v, j in links:
        fv = f.mat(v)
        for r in range(fv.rows):
            row = [k.zero] * total
            for c in range(fv.cols):
                row[offsets[i] + c] = fv.entry(r, c)
            row[offsets[j] + r] = k.sub(row[offsets[j] + r], k.one)
            rows.append(tuple(row))
    return FamilySpace(members, dims, offsets,
                       null_space(k, Matrix(len(rows), total, tuple(rows))))


def functoriality_scan(cat: FiniteCategory, maps: dict, field=None):
    """The first composable pair (g, f), g in morphism order and f in the
    order of the morphisms into dom g, with F(gf) != F(f)F(g), or None;
    maps holds function tables (set presheaves) or, with field, matrices."""
    for g in cat.morphisms:
        for f in cat.into(g.dom):
            gf = cat.compose(g.name, f)
            if field is None:
                bad = any(maps[f][maps[g.name][a]] != maps[gf][a] for a in maps[g.name])
            else:
                bad = scalar_mat_mul(field, maps[f], maps[g.name]) != maps[gf]
            if bad:
                return g.name, f
    return None


# -- right Kan extension, by its own family solver ------------------------------


def _kan_members(cat, keep, x):
    return tuple(t for t in cat.into(x) if cat.dom(t) in keep)


def _kan_set_values(g, cat, members):
    """Product-filtered families over members, natural for every morphism of
    the subcategory, with the subcategory's morphisms scanned whole."""
    d = g.cat
    index = {t: i for i, t in enumerate(members)}
    out = []
    for combo in itertools.product(*[g.at(cat.dom(t)) for t in members]):
        if all(g.apply(v.name, combo[i]) == combo[index[cat.compose(t, v.name)]]
               for i, t in enumerate(members) for v in d.morphisms
               if v.cod == cat.dom(t)):
            out.append(combo)
    return tuple(out)


def _kan_linear_space(g, cat, members):
    """(offsets, dims, basis) of the natural families over members."""
    d, k = g.cat, g.field
    index = {t: i for i, t in enumerate(members)}
    dims = [g.at(cat.dom(t)) for t in members]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    total = sum(dims)
    rows = []
    for i, t in enumerate(members):
        for v in d.morphisms:
            if v.cod != cat.dom(t) or d.is_identity(v.name):
                continue
            j = index[cat.compose(t, v.name)]
            gv = g.mat(v.name)
            for r in range(gv.rows):
                row = [k.zero] * total
                for c in range(dims[i]):
                    row[offsets[i] + c] = k.add(row[offsets[i] + c], gv.entry(r, c))
                row[offsets[j] + r] = k.sub(row[offsets[j] + r], k.one)
                rows.append(row)
    return offsets, dims, null_space(k, matrix(k, rows, cols=total))


def kan_extension_oracle(g, sub):
    """Right Kan extension along sub and its counit, as (presheaf, counit
    components), each family space solved on its own for every object."""
    cat = sub.parent
    keep = set(sub.objects)
    members = {x: _kan_members(cat, keep, x) for x in cat.objects}
    index = {x: {t: i for i, t in enumerate(members[x])} for x in cat.objects}
    if g.flavor == "set":
        values = {x: _kan_set_values(g, cat, members[x]) for x in cat.objects}
        maps = {m.name: {fam: tuple(fam[index[m.cod][cat.compose(m.name, t)]]
                                    for t in members[m.dom])
                         for fam in values[m.cod]}
                for m in cat.morphisms}
        comps = {w: {fam: fam[index[w][cat.id_of(w)]] for fam in values[w]}
                 for w in sub.objects}
        return SetPresheaf(cat, values, maps), comps
    k = g.field
    spaces = {x: _kan_linear_space(g, cat, members[x]) for x in cat.objects}
    mats = {}
    for m in cat.morphisms:
        src_off, src_dims, src_basis = spaces[m.dom]
        dst_off, _dst_dims, dst_basis = spaces[m.cod]
        rows = []
        for i, t in enumerate(members[m.dom]):
            j = index[m.cod][cat.compose(m.name, t)]
            for r in range(src_dims[i]):
                row = [k.zero] * dst_basis.rows
                row[dst_off[j] + r] = k.one
                rows.append(row)
        sel = matrix(k, rows, cols=dst_basis.rows)
        mats[m.name] = solve_matrix(k, src_basis, mat_mul(k, sel, dst_basis))
    comps = {}
    for w in sub.objects:
        off, dims, basis = spaces[w]
        i = index[w][cat.id_of(w)]
        comps[w] = Matrix(dims[i], basis.cols, basis.data[off[i]:off[i] + dims[i]])
    rk = LinearPresheaf(cat, k, {x: spaces[x][2].cols for x in cat.objects}, mats)
    return rk, comps


# -- the dense fixed-point formula, pool by pool and subspace by subspace ------


def _match_component(cat, components, cls: int, t: str):
    """The component of class cls whose orbit holds t, and a with "a then
    orbit_rep" = t, found by search."""
    for j, comp in enumerate(components):
        if comp.class_index != cls:
            continue
        for a in cat.endos(comp.rep_object):
            if cat.compose(comp.orbit_rep, a) == t:
                return j, a
    raise AssertionError("orbit decomposition out of sync")


def dense_fixed_points_oracle(f):
    """The fixed-point formula of dense_sheafify_fixed_points on its own
    route: set values as the product of the pools fixed by each stabilizer,
    linear values as the fixed subspaces of each orbit representative, each
    solved alone, with morphisms built block by block."""
    cat = f.cat
    poset = iso_class_poset(cat)
    components = {x: dense_components(cat, poset, x) for x in cat.objects}
    plans = {}
    for m in cat.morphisms:
        plans[m.name] = [_match_component(cat, components[m.cod], comp.class_index,
                                          cat.compose(m.name, comp.orbit_rep))
                         for comp in components[m.dom]]
    if f.flavor == "set":
        fixed = {x: tuple(itertools.product(*[
            tuple(v for v in f.at(comp.rep_object)
                  if all(f.apply(h, v) == v for h in comp.stabilizer))
            for comp in components[x]])) for x in cat.objects}
        maps = {m.name: {val: tuple(f.apply(a, val[j]) for j, a in plans[m.name])
                         for val in fixed[m.cod]} for m in cat.morphisms}
        return SetPresheaf(cat, fixed, maps)
    k = f.field
    bases, dims, offsets = {}, {}, {}
    for x in cat.objects:
        bases[x] = [_fixed_subspace_basis(f, comp.rep_object, comp.stabilizer)
                    for comp in components[x]]
        offsets[x], dims[x] = block_offsets(b.cols for b in bases[x])
    mats = {}
    for m in cat.morphisms:
        blocks = []
        for i, (j, a) in enumerate(plans[m.name]):
            moved = mat_mul(k, f.mat(a), bases[m.cod][j])
            block = basis_coordinates(k, bases[m.dom][i], moved)
            assert block is not None, "fixed subspace not preserved"
            blocks.append((offsets[m.dom][i], offsets[m.cod][j], block))
        mats[m.name] = block_matrix(k, dims[m.dom], dims[m.cod], blocks)
    return LinearPresheaf(cat, k, dims, mats)


def _fixed_subspace_basis(f, obj: str, stabilizer) -> Matrix:
    """The vectors of F(obj) fixed by F(h) for every h of the stabilizer."""
    k = f.field
    rows = []
    for h in stabilizer:
        if f.cat.is_identity(h):
            continue
        for r, entries in enumerate(f.mat(h).data):
            row = dict(itertools.compress(enumerate(entries), entries))
            row[r] = k.sub(row.get(r, k.zero), k.one)
            rows.append(row)
    return sparse_null_space(k, rows, f.at(obj))


# -- sieves by subset scan, and the census by product search ------------------


def subset_scan_sieves(cat: FiniteCategory, x: str) -> tuple:
    """All sieves on x, by testing every subset of the morphisms into x, in
    (size, index-lex) order."""
    into = cat.into(x)
    out = []
    for r in range(len(into) + 1):
        for subset in itertools.combinations(into, r):
            if is_sieve(cat, x, subset):
                out.append(Sieve(x, frozenset(subset)))
    return tuple(out)


def _pullback(cat, members, f):
    return frozenset(g for g in cat.into(cat.dom(f)) if cat.compose(f, g) in members)


def topology_violations(cat, covering) -> list:
    """Every axiom violation of a covering assignment {object: set of
    Sieves}, by a sweep over every covering sieve and every sieve: the
    entries that are no sieves (and nothing else when there are any),
    then object by object the missing maximal sieve, each covering sieve
    with a pullback that does not cover, and each sieve that does not
    cover although its pullbacks along the members of some covering
    sieve all do."""
    return list(_violations(cat, covering, {x: subset_scan_sieves(cat, x)
                                            for x in cat.objects}))


def _violations(cat, covering, sieves):
    bad = [TopologyViolation("sieve", x, s, None) for x in cat.objects
           for s in sorted(covering[x], key=lambda s: sieve_sort_key(cat, s))
           if s.target != x or s not in sieves[x]]
    if bad:
        yield from bad
        return
    covered = {x: {s.members for s in covering[x]} for x in cat.objects}
    for x in cat.objects:
        if frozenset(cat.into(x)) not in covered[x]:
            yield TopologyViolation("maximal-sieve", x, Sieve(x, frozenset(cat.into(x))), None)
        for s in covering[x]:
            for f in cat.into(x):
                if _pullback(cat, s.members, f) not in covered[cat.dom(f)]:
                    yield TopologyViolation("stability", x, s, f)
        for r in sieves[x]:
            if r.members not in covered[x] and any(
                    all(_pullback(cat, r.members, f) in covered[cat.dom(f)] for f in s.members)
                    for s in covering[x]):
                yield TopologyViolation("transitivity", x, r, None)


def _axioms_hold(cat, covering, sieves) -> bool:
    return next(_violations(cat, covering, sieves), None) is None


def _from_family(cat, covering) -> GrothendieckTopology:
    """The topology whose least covers are the intersections of the families."""
    return GrothendieckTopology(cat, {x: Sieve(x, frozenset.intersection(
        *(s.members for s in covering[x]))) for x in cat.objects})


def up_closed_families(sieves: list) -> list:
    """Every family of the given sieves that holds the maximal one and is
    closed upwards under inclusion, as index sets in (size, index-lex)
    order. Each is the union of the principal up-sets of its minimal
    members, an antichain, and the antichains are grown one index at a
    time, so the work follows the number of families, not 2^len(sieves)."""
    n = len(sieves)
    up = [frozenset(j for j in range(n) if sieves[i] <= sieves[j]) for i in range(n)]
    comparable = [frozenset(j for j in range(n) if sieves[i] <= sieves[j] or sieves[j] <= sieves[i])
                  for i in range(n)]
    families = set()

    def grow(start, blocked, family):
        for i in range(start, n):
            if i not in blocked:
                families.add(family | up[i])
                grow(i + 1, blocked | comparable[i], family | up[i])
    grow(0, frozenset(), frozenset())
    return sorted(families, key=lambda family: (len(family), sorted(family)))


def product_search_topologies(cat: FiniteCategory):
    """Every topology, as the axiom-checked product of the up-closed sieve
    families per object, in product order: object by object, family size,
    then the positions of its sieves."""
    sieves = {x: subset_scan_sieves(cat, x) for x in cat.objects}
    return [_from_family(cat, covering) for covering in up_closed_products(cat, sieves)
            if _axioms_hold(cat, covering, sieves)]


def up_closed_products(cat: FiniteCategory, sieves: dict):
    """Every covering assignment whose family at each object holds the
    maximal sieve and is closed upwards, in product order, from the
    sieves on each object."""
    per_object = [[frozenset(sieves[x][i] for i in family)
                   for family in up_closed_families([s.members for s in sieves[x]])]
                  for x in cat.objects]
    for combo in itertools.product(*per_object):
        yield dict(zip(cat.objects, combo))


def _isomorphic(cat, x, y) -> bool:
    return any(cat.compose(g, f) == cat.id_of(x) and cat.compose(f, g) == cat.id_of(y)
               for f in cat.hom(x, y) for g in cat.hom(y, x))


def _splits_within(cat, keep) -> bool:
    """Every idempotent on an object of keep splits through an object of keep."""
    for x in keep:
        for e in cat.hom(x, x):
            if cat.compose(e, e) != e:
                continue
            if not any(cat.compose(s, r) == e and cat.compose(r, s) == cat.id_of(y)
                       for y in keep for r in cat.hom(x, y) for s in cat.hom(y, x)):
                return False
    return True


def subset_scan_labels(cat: FiniteCategory) -> dict:
    """Covering data -> "J^{D}" for the first iso-closed object subset D, in
    (size, index-lex) order, whose full subcategory splits its idempotents."""
    sieves = {x: subset_scan_sieves(cat, x) for x in cat.objects}
    labels = {}
    for r in range(len(cat.objects) + 1):
        for keep in itertools.combinations(cat.objects, r):
            if any(_isomorphic(cat, x, y) for x in keep for y in cat.objects
                   if y not in keep):
                continue
            if not _splits_within(cat, keep):
                continue
            covering = []
            for x in cat.objects:
                required = {f for f in cat.into(x) if cat.dom(f) in keep}
                covering.append((x, frozenset(s for s in sieves[x] if required <= s.members)))
            labels.setdefault(tuple(covering), "J^{" + ",".join(keep) + "}")
    return labels


def census_yaml(cat: FiniteCategory) -> str:
    """The `finsite top enumerate` document, from the product-search census."""
    labels = subset_scan_labels(cat)
    tops = product_search_topologies(cat)
    for top in tops:
        key = tuple((x, frozenset(top.sieves_at(x))) for x in cat.objects)
        top.label = labels.get(key, "J?")
    return dump_text({"count": len(tops), "topologies": [topology_to_doc(t) for t in tops]})


def scan_classifying_subcategory(cat: FiniteCategory, top: GrothendieckTopology):
    """The first strictly full Karoubian D, in (size, index-lex) order,
    with J^D equal to top, or None."""
    for sub in strictly_full_karoubian_subcategories(cat):
        if subcategory_topology(cat, sub) == top:
            return sub
    return None


def iso_union_karoubian_subcategories(cat: FiniteCategory) -> list:
    """Every union of isomorphism classes whose full subcategory is
    Karoubian, in (size, index-lex) order. On an EI category every
    idempotent is an identity, so each union qualifies."""
    classes = iso_classes(cat)
    subs = [FullSubcategory(cat, tuple(x for cls in chosen for x in cls))
            for r in range(len(classes) + 1)
            for chosen in itertools.combinations(classes, r)]
    subs.sort(key=lambda sub: (len(sub.objects), [cat.obj_index[x] for x in sub.objects]))
    if is_ei(cat):
        return subs
    return [sub for sub in subs if is_karoubian(sub.category)]


def unpruned_topologies(cat: FiniteCategory):
    """Every covering assignment containing the maximal sieve, filtered by
    the sweep of topology_violations, with no up-closure pruning at all."""
    sieves = {x: subset_scan_sieves(cat, x) for x in cat.objects}
    per_object = []
    for x in cat.objects:
        top_sieve = maximal_sieve(cat, x)
        others = [s for s in sieves[x] if s != top_sieve]
        per_object.append([frozenset(subset) | {top_sieve} for r in range(len(others) + 1)
                           for subset in itertools.combinations(others, r)])
    coverings = (dict(zip(cat.objects, combo)) for combo in itertools.product(*per_object))
    return [_from_family(cat, covering) for covering in coverings
            if _axioms_hold(cat, covering, sieves)]


# -- pointwise coset maps for orbit categories --------------------------------


def orbit_morphism_function(orbit_cat, name: str) -> dict:
    """The actual map on left cosets induced by an orbit-category morphism."""
    group = orbit_cat.group
    src = orbit_cat.object_subgroup[orbit_cat.dom(name)]
    dst = orbit_cat.object_subgroup[orbit_cat.cod(name)]
    coset = orbit_cat.morphism_coset[name]
    g = min(coset, key=lambda a: group.index[a])
    table = {}
    for x in group.elements:
        src_coset = group.coset(x, src)
        image = group.coset(group.mult(x, g), dst)
        key = frozenset(src_coset)
        if key in table:
            assert table[key] == frozenset(image), "map is not well defined"
        table[key] = frozenset(image)
    return table


# -- orbit categories by coset products ----------------------------------------


def coset_orbit_category(group, chosen) -> tuple:
    """The objects, morphisms, identities and composition table of the
    orbit category on the chosen subgroups, each composite the morphism of
    the coset of a product of coset minima, found among the cosets of its
    hom-set."""
    objects = [f"{group.name}/{group.subset_label(h)}" for h in chosen]
    sub = dict(zip(objects, chosen))
    morphisms, identity, coset_of, by_coset = [], {}, {}, {}
    for i, src in enumerate(objects):
        for j, dst in enumerate(objects):
            cosets = {group.coset(g, sub[dst]) for g in group.elements
                      if group.conjugate(sub[src], g) <= sub[dst]}
            for coset in sorted(cosets, key=group.subset_key):
                name = f"c{i}.{j}[{'+'.join(sorted(coset, key=group.index.get))}]"
                morphisms.append(Morphism(name, src, dst))
                coset_of[name] = coset
                by_coset[src, dst, coset] = name
                if src == dst and coset == sub[src]:
                    identity[src] = name
    compose = {}
    for g in morphisms:
        for f in morphisms:
            if g.dom == f.cod:
                f_rep = min(coset_of[f.name], key=group.index.get)
                g_rep = min(coset_of[g.name], key=group.index.get)
                coset = group.coset(group.mult(f_rep, g_rep), sub[g.cod])
                compose[g.name, f.name] = by_coset[f.dom, g.cod, coset]
    return objects, morphisms, identity, compose


# -- every law on every instance: the sweeps Light's test falls back on --------


def category_table_problems(objects, morphisms, identity, compose) -> list:
    """The problems of a raw category table, associativity checked on
    every composable triple."""
    problems = []
    objects = list(objects)
    if len(set(objects)) != len(objects):
        problems.append("duplicate object identifiers")
    names = [m.name for m in morphisms]
    if len(set(names)) != len(names):
        problems.append("duplicate morphism identifiers")
    obj_set = set(objects)
    mor = {m.name: m for m in morphisms}
    for m in morphisms:
        if m.dom not in obj_set:
            problems.append(f"unknown object {m.dom!r} as dom of {m.name!r}")
        if m.cod not in obj_set:
            problems.append(f"unknown object {m.cod!r} as cod of {m.name!r}")
    for x, i in identity.items():
        if x not in obj_set:
            problems.append(f"identity given for unknown object {x!r}")
        elif i not in mor:
            problems.append(f"bad identity at {x!r}: unknown morphism {i!r}")
        elif mor[i].dom != x or mor[i].cod != x:
            problems.append(f"bad identity at {x!r}: {i!r} is not an endomorphism of {x!r}")
    for x in objects:
        if x not in identity:
            problems.append(f"bad identity at {x!r}: none given")
    for (g, f), gf in compose.items():
        if g not in mor or f not in mor:
            problems.append(f"composite ({g!r},{f!r}) names unknown morphisms")
            continue
        if mor[g].dom != mor[f].cod:
            problems.append(f"stray composite ({g!r},{f!r}): pair is not composable")
            continue
        if gf not in mor:
            problems.append(f"composite ({g!r},{f!r}) maps to unknown morphism {gf!r}")
        elif mor[gf].dom != mor[f].dom or mor[gf].cod != mor[g].cod:
            problems.append(f"ill-typed composite ({g!r},{f!r}) -> {gf!r}")
    if problems:
        return problems
    into = {x: [m.name for m in morphisms if m.cod == x] for x in objects}
    for g in morphisms:
        for f in into[g.dom]:
            if (g.name, f) not in compose:
                problems.append(f"missing composite ({g.name!r},{f!r})")
    if problems:
        return problems
    for m in morphisms:
        left = compose[(identity[m.cod], m.name)]
        right = compose[(m.name, identity[m.dom])]
        if left != m.name:
            problems.append(f"bad identity at {m.cod!r}: 1∘{m.name!r} = {left!r}")
        if right != m.name:
            problems.append(f"bad identity at {m.dom!r}: {m.name!r}∘1 = {right!r}")
    for h in morphisms:
        for g in into[h.dom]:
            hg = compose[(h.name, g)]
            for f in into[mor[g].dom]:
                a = compose[(h.name, compose[(g, f)])]
                b = compose[(hg, f)]
                if a != b:
                    problems.append(f"associativity failure ({h.name!r},{g!r},{f!r}): "
                                    f"{a!r} != {b!r}")
    return problems


def group_table_problems(elements, table) -> list:
    """The problems of a raw group table, associativity checked on every
    triple."""
    problems = []
    if len(set(elements)) != len(elements):
        problems.append("duplicate element names")
    elems = set(elements)
    for a in elements:
        for b in elements:
            if (a, b) not in table:
                problems.append(f"missing product ({a!r},{b!r})")
            elif table[(a, b)] not in elems:
                problems.append(f"product ({a!r},{b!r}) leaves the element set")
    if problems:
        return problems
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    problems.append(f"associativity failure ({a!r},{b!r},{c!r})")
    idents = [e for e in elements
              if all(table[(e, b)] == b == table[(b, e)] for b in elements)]
    if len(idents) != 1:
        problems.append("no two-sided identity element")
        return problems
    e = idents[0]
    for a in elements:
        if not any(table[(a, b)] == e and table[(b, a)] == e for b in elements):
            problems.append(f"no inverse for {a!r}")
    return problems


def _cell_sum(field, terms) -> dict:
    out = {}
    for a, cell in terms:
        for t, c in cell:
            out[t] = field.add(out.get(t, field.zero), field.mul(a, c))
    return {t: c for t, c in out.items() if c != field.zero}


def skew_verify_problems(skew) -> list:
    """The problems of a skew category algebra's stored products,
    associativity checked on every composable triple, then the unit laws
    on every basis element through dense vectors."""
    k, cat, prods = skew.field, skew.cat, skew.products
    blocks = {m.name: range(skew.basis_offset[m.name],
                            skew.basis_offset[m.name] + skew.r.algebra(m.dom).dim)
              for m in cat.morphisms}
    problems = []
    for h in cat.morphisms:
        for i in blocks[h.name]:
            for g in cat.into(h.dom):
                for j in blocks[g]:
                    for f in cat.into(cat.dom(g)):
                        for t in blocks[f]:
                            left = _cell_sum(k, ((c, prods[s].get(t, ()))
                                                 for s, c in prods[i].get(j, ())))
                            right = _cell_sum(k, ((c, prods[i].get(s, ()))
                                                  for s, c in prods[j].get(t, ())))
                            if left != right:
                                problems.append(
                                    f"associativity failure on basis triple ({skew.labels[i]!r},"
                                    f"{skew.labels[j]!r},{skew.labels[t]!r})")
    alg = dense_algebra(skew)
    for i in range(skew.dim):
        e = unit_vec(k, skew.dim, i)
        if dense_mul(alg, alg.unit, e) != e or dense_mul(alg, e, alg.unit) != e:
            problems.append(f"unit fails on basis element {skew.labels[i]!r}")
    return problems


def action_failure(algebra, dim: int, actions, where: str = "") -> str | None:
    """The message of the first module axiom actions break, every pair
    of basis elements tried for multiplicativity, or None."""
    k = algebra.field
    if dim < 0:
        return f"negative module dimension {dim}{where}"
    if len(actions) != algebra.dim:
        return f"need one action matrix per basis element{where}"
    if any((a.rows, a.cols) != (dim, dim) for a in actions):
        return f"action matrix{where} has the wrong shape"
    if (dim and not algebra.dim) or \
            mat_combination(k, algebra.unit, actions, dim, dim) != identity_matrix(k, dim):
        return f"unit does not act as identity{where}"
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            lhs = mat_combination(k, algebra.mul_basis(i, j), actions, dim, dim)
            if lhs != mat_mul(k, actions[j], actions[i]):
                return (f"action not multiplicative{where} on basis "
                        f"({algebra.labels[i]!r},{algebra.labels[j]!r})")
    return None


# -- direct category algebra table --------------------------------------------


def category_algebra_table(cat: FiniteCategory, field):
    """Structure constants of the category algebra: basis the morphisms,
    product composition-or-zero."""
    k = field
    n = len(cat.morphisms)
    idx = {m.name: i for i, m in enumerate(cat.morphisms)}
    table = []
    for g in cat.morphisms:
        row = []
        for f in cat.morphisms:
            cell = [k.zero] * n
            if g.dom == f.cod:
                cell[idx[cat.compose(g.name, f.name)]] = k.one
            row.append(tuple(cell))
        table.append(tuple(row))
    unit = [k.zero] * n
    for x in cat.objects:
        unit[idx[cat.id_of(x)]] = k.one
    return tuple(table), tuple(unit)


# -- dense structure constant tables ----------------------------------------------


class DenseAlgebra(NamedTuple):
    """An algebra as its full dim x dim table of dim-long cells, every
    product b_i b_j written out, zeros included."""
    field: object
    table: tuple
    unit: tuple
    labels: tuple

    @property
    def dim(self) -> int:
        return len(self.table)


def table_of(alg) -> tuple:
    """The dense table of a sparse algebra, cell (i, j) being its b_i b_j."""
    return tuple(tuple(alg.mul_basis(i, j) for j in range(alg.dim)) for i in range(alg.dim))


def dense_algebra(alg) -> DenseAlgebra:
    return DenseAlgebra(alg.field, table_of(alg), alg.unit, alg.labels)


def textbook_diagonal_table(field, n: int):
    """k^n: e_i e_j is the pointwise product of the indicator vectors."""
    k = field
    ind = [[k.one if t == i else k.zero for t in range(n)] for i in range(n)]
    table = [[[k.mul(a, b) for a, b in zip(ind[i], ind[j])] for j in range(n)]
             for i in range(n)]
    return table, [k.one] * n


def textbook_matrix_table(field, n: int):
    """M_n(k) on the matrix units E(r,c) in row-major order: each product
    is the matrix product of the two units, read off row by row."""
    k = field
    units = [matrix(k, [[1 if (a, b) == (r, c) else 0 for b in range(n)] for a in range(n)])
             for r in range(n) for c in range(n)]

    def flat(m):
        return [x for row in m.data for x in row]

    table = [[flat(mat_mul(k, u, v)) for v in units] for u in units]
    return table, flat(matrix(k, [[1 if a == b else 0 for b in range(n)] for a in range(n)]))


def textbook_group_table(field, group):
    """k[G]: the product of the basis elements a and b is the basis
    element ab, read off the Cayley table."""
    k = field
    rows = group.to_data()["table"]
    elements = list(group.elements)
    table = [[[k.one if t == rows[a][b] else k.zero for t in elements]
              for b in range(len(elements))] for a in range(len(elements))]
    unit = [k.one if all(rows[a][b] == elements[b] for b in range(len(elements))) else k.zero
            for a in range(len(elements))]
    return table, unit


# -- the dense skew category algebra --------------------------------------------


def dense_skew_category_algebra(cat: FiniteCategory, r) -> DenseAlgebra:
    """The skew category algebra with its full dim x dim table of
    dim-long cells, every product written out, zeros included."""
    k = r.field
    labels = [(m.name, r.algebra(m.dom).labels[j])
              for m in cat.morphisms for j in range(r.algebra(m.dom).dim)]
    offsets, dim = {}, 0
    for m in cat.morphisms:
        offsets[m.name] = dim
        dim += r.algebra(m.dom).dim
    table = [[[k.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for g in cat.morphisms:
        for f in cat.into(g.dom):
            target = r.algebra(cat.dom(f))
            gf = cat.compose(g.name, f)
            for j in range(r.algebra(g.dom).dim):
                moved = r.mat(f).col(j)
                for i in range(target.dim):
                    prod = target.mul(moved, unit_vec(k, target.dim, i))
                    cell = table[offsets[g.name] + j][offsets[f] + i]
                    cell[offsets[gf]:offsets[gf] + target.dim] = prod
    unit = [k.zero] * dim
    for x in cat.objects:
        base = offsets[cat.id_of(x)]
        unit[base:base + r.algebra(x).dim] = r.algebra(x).unit
    return DenseAlgebra(k, tuple(tuple(map(tuple, row)) for row in table), tuple(unit),
                        tuple(labels))


def dense_right_multiplication_matrix(alg, v) -> Matrix:
    """The matrix of u -> u v, column j being b_j v by the dense table."""
    k = alg.field
    return matrix_from_cols(k, [dense_mul(alg, unit_vec(k, alg.dim, j), v)
                                for j in range(alg.dim)], rows=alg.dim)


# -- helpers over the Grothendieck construction and set presheaves ------------


def gr_hom_elements(gr: GrothendieckConstruction, x: str, y: str):
    """Every pair (f, r) from x to y, with r running over R(x) of a finite field."""
    k = gr.r.field
    for f in gr.cat.hom(x, y):
        for coeffs in itertools.product(k.elements(), repeat=gr.r.algebra(x).dim):
            yield GrMorphism(f, coeffs)


def gr_component_base(gr: GrothendieckConstruction, f: str) -> GrMorphism:
    """(f, 1): the free generator of the component at f as a right module
    over the endomorphism algebra of its source."""
    return GrMorphism(f, gr.r.algebra(gr.cat.dom(f)).unit)


def gr_aut_algebra(gr: GrothendieckConstruction, x: str) -> FiniteDimAlgebra:
    """The endomorphism algebra at (x, 1_x), rebuilt from composition of
    pairs, so that comparing it with R(x) checks the composition."""
    k = gr.r.field
    alg = gr.r.algebra(x)
    one = gr.cat.id_of(x)
    table = [[gr.compose(GrMorphism(one, unit_vec(k, alg.dim, i)),
                         GrMorphism(one, unit_vec(k, alg.dim, j))).coeff
              for j in range(alg.dim)] for i in range(alg.dim)]
    return FiniteDimAlgebra.from_table(k, table, alg.unit, labels=alg.labels,
                                       name=f"Aut({x})")


def set_total_size(f: SetPresheaf) -> int:
    """The number of elements of a set presheaf, over all objects."""
    return sum(len(f.at(x)) for x in f.cat.objects)


# -- searched basis change onto the matrix algebra ----------------------------


def _left_mul_matrix(alg, v) -> Matrix:
    k = alg.field
    cols = [alg.mul(v, unit_vec(k, alg.dim, j)) for j in range(alg.dim)]
    return matrix_from_cols(k, cols, rows=alg.dim)


def searched_matrix_algebra_isomorphism(skew, target):
    """Brute-force search for a unital algebra isomorphism from a
    4-dimensional skew algebra onto the target matrix algebra.

    Structure-respecting pruning: the two object summand idempotents must
    land on complementary idempotents, the two twisted basis elements
    square to zero, and the image of the last basis element is solved
    linearly from the products with the committed part before the full
    multiplicative check.
    """
    k = skew.field
    assert skew.dim == 4 and target.dim == 4
    elements = [tuple(c) for c in itertools.product(k.elements(), repeat=4)]
    zero = (k.zero,) * 4
    idempotents = [v for v in elements
                   if target.mul(v, v) == v and v != zero and v != target.unit]
    square_zero = [v for v in elements if target.mul(v, v) == zero and v != zero]

    def committed_ok(images):
        for i in images:
            for j in images:
                prod = skew.mul_basis(i, j)
                if any(c != k.zero and t not in images
                       for t, c in enumerate(prod)):
                    continue  # product leaves the committed span, check later
                lhs = target.mul(images[i], images[j])
                rhs = zero
                for t, c in enumerate(prod):
                    if c != k.zero:
                        rhs = tuple(k.add(a, k.mul(c, b))
                                    for a, b in zip(rhs, images[t]))
                if lhs != rhs:
                    return False
        return True

    def solve_last(images, last):
        """Linear system for phi(b_last) from products with committed parts."""
        rows = []
        rhs = []
        for i in images:
            for (a, b) in ((i, last), (last, i)):
                prod = skew.mul_basis(a, b)
                if prod[last] != k.zero and any(
                        c != k.zero and t != last and t not in images
                        for t, c in enumerate(prod)):
                    return None
                known = zero
                for t, c in enumerate(prod):
                    if t in images and c != k.zero:
                        known = tuple(k.add(u, k.mul(c, v))
                                      for u, v in zip(known, images[t]))
                mult = _left_mul_matrix(target, images[i]) if a == i \
                    else target.right_multiplication_matrix(images[i])
                for rr in range(4):
                    row = list(mult.data[rr])
                    row[rr] = k.sub(row[rr], prod[last])
                    rows.append(row)
                    rhs.append(known[rr])
        sol = solve(k, matrix(k, rows, cols=4), tuple(rhs))
        return sol

    for p in idempotents:
        base = {0: p, 1: tuple(map(k.sub, target.unit, p))}
        if not committed_ok(base):
            continue
        for q in square_zero:
            images = dict(base)
            images[2] = q
            if not committed_ok(images):
                continue
            last = solve_last(images, 3)
            if last is None:
                continue
            images[3] = last
            if not committed_ok(images):
                continue
            change = matrix_from_cols(k, [images[i] for i in range(4)], rows=4)
            if rank(k, change) == 4:
                return change
    return None


# -- scalar-loop matrix kernels and the dense associativity check -----------------


def _scalar_dot(field, x, y):
    acc = field.zero
    for a, b in zip(x, y):
        if a != field.zero and b != field.zero:
            acc = field.add(acc, field.mul(a, b))
    return acc


def scalar_mat_vec(field, a: Matrix, v) -> tuple:
    """A v, one field operation per product of nonzero scalars."""
    assert a.cols == len(v)
    return tuple(_scalar_dot(field, row, v) for row in a.data)


def scalar_mat_mul(field, a: Matrix, b: Matrix) -> Matrix:
    """A B, one scalar-loop dot product per entry."""
    assert a.cols == b.rows
    cols = [tuple(r[j] for r in b.data) for j in range(b.cols)]
    return Matrix(a.rows, b.cols,
                  tuple(tuple(_scalar_dot(field, row, col) for col in cols) for row in a.data))


def scalar_rref(field, a: Matrix):
    """Gauss-Jordan with pivots in column order, entry by entry."""
    rows = [list(r) for r in a.data]
    zero = field.zero
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = next((i for i in range(r, a.rows) if rows[i][c] != zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(a.rows):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return Matrix(a.rows, a.cols, tuple(tuple(x) for x in rows)), tuple(pivots)


def scalar_null_space(field, a: Matrix) -> list:
    """The kernel basis from scalar_rref, one column tuple per free variable."""
    r, pivots = scalar_rref(field, a)
    cols = []
    for j in (j for j in range(a.cols) if j not in pivots):
        v = [field.zero] * a.cols
        v[j] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(r.entry(i, j))
        cols.append(tuple(v))
    return cols


def scalar_inverse(field, a: Matrix) -> Matrix | None:
    """The right half of the scalar_rref of [A | I], or None when A is singular."""
    n = a.rows
    ident = tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))
    reduced, pivots = scalar_rref(field, Matrix(n, 2 * n, tuple(
        row + ident[i] for i, row in enumerate(a.data))))
    if pivots != tuple(range(n)):
        return None
    return Matrix(n, n, tuple(row[n:] for row in reduced.data))


def scalar_solve(field, a: Matrix, v) -> tuple | None:
    """The solution of A x = v with the free variables zero, read off the
    scalar_rref of [A | v], or None when v leaves the column space of A."""
    n = a.cols
    reduced, pivots = scalar_rref(field, Matrix(a.rows, n + 1, tuple(
        row + (x,) for row, x in zip(a.data, v))))
    if n in pivots:
        return None
    x = [field.zero] * n
    for row, c in zip(reduced.data, pivots):
        x[c] = row[n]
    return tuple(x)


def scalar_combination(field, coeffs, mats, rows: int, cols: int) -> Matrix:
    """The sum of c a over the pairs of coeffs and mats, entry by entry."""
    c = Matrix(1, len(coeffs), (tuple(coeffs),))
    return Matrix(rows, cols, tuple(
        tuple(scalar_mat_vec(field, c, tuple(m.entry(i, j) for m in mats))[0]
              for j in range(cols)) for i in range(rows)))


def dense_mul(alg, u, v) -> tuple:
    """u v by the dense structure-constant table."""
    k = alg.field
    out = [k.zero] * alg.dim
    v_nonzero = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in v_nonzero:
            coef = k.mul(a, b)
            for t, c in enumerate(alg.table[i][j]):
                if c:
                    out[t] = k.add(out[t], k.mul(coef, c))
    return tuple(out)


def dense_verify(alg) -> list:
    """Associativity over every basis triple through dense vectors, then
    the unit laws, with the problem texts of FiniteDimAlgebra.verify."""
    k = alg.field
    units = [unit_vec(k, alg.dim, i) for i in range(alg.dim)]
    problems = []
    for i, j, t in itertools.product(range(alg.dim), repeat=3):
        left = dense_mul(alg, alg.table[i][j], units[t])
        right = dense_mul(alg, units[i], alg.table[j][t])
        if left != right:
            problems.append(
                f"associativity failure on basis triple "
                f"({alg.labels[i]!r},{alg.labels[j]!r},{alg.labels[t]!r})")
    for i, e in enumerate(units):
        if dense_mul(alg, alg.unit, e) != e or dense_mul(alg, e, alg.unit) != e:
            problems.append(f"unit fails on basis element {alg.labels[i]!r}")
    return problems


def dense_verify_problems(alg) -> list:
    """The problems of an algebra's stored products by the full sweep of
    dense_verify on its dense table: associativity on every dim^3 basis
    triple, then the unit laws (the library tries generators first)."""
    return dense_verify(dense_algebra(alg))


def greedy_quotient_module(n, vectors) -> AlgebraModule:
    """The quotient of n by the submodule the vectors generate: e_i joins
    the complement when one more column space says it leaves the span so
    far, and each action is multiplied by the inclusion of the complement."""
    k = n.field
    span = fixpoint_span_closure(n, vectors)
    complement = []
    current = span
    for i in range(n.dim):
        grown = col_space(k, hstack(k, [current, matrix_from_cols(k, [unit_vec(k, n.dim, i)],
                                                                  rows=n.dim)]))
        if grown.cols > current.cols:
            complement.append(i)
            current = grown
    t = matrix_from_cols(k, [span.col(c) for c in range(span.cols)]
                         + [unit_vec(k, n.dim, i) for i in complement], rows=n.dim)
    q = len(complement)
    proj = Matrix(q, n.dim, inverse(k, t).data[span.cols:])
    inc = matrix_from_cols(k, [unit_vec(k, n.dim, i) for i in complement], rows=n.dim)
    return AlgebraModule(n.algebra, q, [mat_mul(k, proj, mat_mul(k, a, inc))
                                        for a in n.actions], check=False)


# -- generated substructures grown round by round to a fixpoint -----------------


def fixpoint_span_closure(n, vectors) -> Matrix:
    """Canonical basis of the action-stable span of the vectors, grown one
    round of actions at a time until a round adds nothing."""
    k = n.field
    span = col_space(k, matrix_from_cols(k, [tuple(v) for v in vectors], rows=n.dim))
    while True:
        bigger = col_space(k, hstack(k, [span] + [mat_mul(k, a, span) for a in n.actions]))
        if bigger.cols == span.cols:
            return bigger
        span = bigger


def propagated_set_presheaf(cat: FiniteCategory, rng) -> SetPresheaf:
    """finsite.sampling.random_set_presheaf with the same draws, each
    identification pushed along every morphism into its object, and on from
    there, until the pairs it reaches are already identified."""
    gens = [rng.choice(cat.objects) for _ in range(rng.randint(1, MAX_GENERATORS))]
    constants = rng.randint(0, MAX_CONSTANTS)

    def elements(x):
        out = [("rep", i, u) for i, c in enumerate(gens) for u in cat.hom(x, c)]
        out.extend(("const", s, None) for s in range(constants))
        return out

    def act(f, elem):
        kind, i, u = elem
        if kind == "const":
            return elem
        return ("rep", i, cat.compose(u, f))

    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            a = parent[a]
        return a

    for _ in range(rng.randint(0, MAX_RELATIONS)):
        x = rng.choice(cat.objects)
        pool = elements(x)
        if len(pool) < 2:
            continue
        stack = [(x, *rng.sample(pool, 2))]
        while stack:
            y, p, q = stack.pop()
            rp, rq = find((y, p)), find((y, q))
            if rp == rq:
                continue
            parent[rp] = rq
            stack.extend((v.dom, act(v.name, p), act(v.name, q))
                         for v in cat.morphisms if v.cod == y)

    name_of = {}
    values = {}
    for x in cat.objects:
        reps = []
        for elem in elements(x):
            root = find((x, elem))
            if root not in reps:
                reps.append(root)
            name_of[(x, elem)] = f"{x}#{reps.index(root)}"
        values[x] = tuple(f"{x}#{i}" for i in range(len(reps)))
    maps = {m.name: {name_of[(m.cod, elem)]: name_of[(m.dom, act(m.name, elem))]
                     for elem in elements(m.cod)}
            for m in cat.morphisms}
    return SetPresheaf(cat, values, maps)


def fixpoint_co_ideal(cat: FiniteCategory, objects) -> FullSubcategory:
    """The objects reached from the given ones by receiving a morphism, one
    round at a time until a round adds nothing."""
    keep = set(objects)
    while True:
        grown = keep | {y for x in keep for y in cat.objects if cat.hom(y, x)}
        if grown == keep:
            return FullSubcategory(cat, tuple(x for x in cat.objects if x in keep))
        keep = grown


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- the pure-Python YAML classes ----------------------------------------------


def pure_dump(doc) -> str:
    """doc as PyYAML's pure SafeDumper writes it with finsite's style."""
    return yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False,
                     default_flow_style=None, width=100)


@contextlib.contextmanager
def pure_yaml():
    """finsite.serialize on PyYAML's pure-Python parser, and writing every
    document with the pure SafeDumper instead of its own emitter."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_LOADER", yaml.SafeLoader)
        patch.setattr(serialize, "_emit", lambda doc: None)
        yield
