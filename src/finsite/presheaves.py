"""Set-valued and linear presheaves on a finite category.

A presheaf assigns a value to each object and, contravariantly, a map
F(f): F(cod f) -> F(dom f) to each morphism. Set values are finite
ordered tuples with explicit function tables; linear values are
dimensions with exact matrices over a chosen field. Both flavours are
validated on construction: identities on every object, and
functoriality on the pairs with a generator of the category on the left,
on every composable pair only when one of those fails.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, NamedTuple

from .category import FiniteCategory, FullSubcategory, law_failures
from .errors import EngineError
from .fields import (Matrix, block_offsets, identity_matrix, is_invertible,
                     mat_combination, shared_products, sparse_null_space, zero_matrix)


class PresheafError(EngineError):
    pass


class SetPresheaf:
    """Contravariant functor to finite sets, given by explicit tables."""

    flavor = "set"

    def __init__(self, cat: FiniteCategory, values: dict, maps: dict):
        self.cat = cat
        self.values = {x: tuple(values[x]) for x in cat.objects}
        self.maps = {m.name: dict(maps[m.name]) for m in cat.morphisms}
        self._check()

    def _check(self):
        for x, val in self.values.items():
            if len(set(val)) != len(val):
                raise PresheafError(f"duplicate elements in value at {x!r}")
        for m in self.cat.morphisms:
            table = self.maps[m.name]
            src = set(self.values[m.cod])
            dst = set(self.values[m.dom])
            if set(table) != src:
                raise PresheafError(f"map table of {m.name!r} is not defined on "
                                    f"exactly the value at {m.cod!r}")
            if not set(table.values()) <= dst:
                raise PresheafError(f"map of {m.name!r} leaves the value at {m.dom!r}")
        for x in self.cat.objects:
            ident = self.maps[self.cat.id_of(x)]
            if any(ident[a] != a for a in self.values[x]):
                raise PresheafError(f"identity at {x!r} does not act as identity")
        maps, cat = self.maps, self.cat
        _check_functoriality(cat, lambda g: (f for f in cat.into(g.dom) if any(
            maps[f][maps[g.name][a]] != maps[cat.compose(g.name, f)][a]
            for a in self.values[g.cod])))

    def at(self, x: str) -> tuple:
        return self.values[x]

    def apply(self, f: str, element):
        return self.maps[f][element]

    def restrict(self, sub) -> SetPresheaf:
        sub = _as_subcategory(self.cat, sub)
        d = sub.category
        return SetPresheaf(d, {x: self.values[x] for x in d.objects},
                           {m.name: self.maps[m.name] for m in d.morphisms})

    def __repr__(self):
        sizes = ",".join(str(len(self.values[x])) for x in self.cat.objects)
        return f"<SetPresheaf sizes [{sizes}]>"


class LinearPresheaf:
    """Contravariant functor to finite-dimensional spaces over an exact field.

    The matrix of f: x -> y has shape (dim at x) x (dim at y) and acts on
    column vectors, so functoriality reads mat(gf) = mat(f) @ mat(g).
    """

    flavor = "linear"

    def __init__(self, cat: FiniteCategory, field, dims: dict, mats: dict):
        self.cat = cat
        self.field = field
        self.dims = {x: int(dims[x]) for x in cat.objects}
        self.mats = {m.name: mats[m.name] for m in cat.morphisms}
        self._check()

    def _check(self):
        for x, d in self.dims.items():
            if d < 0:
                raise PresheafError(f"negative dimension at {x!r}")
        for m in self.cat.morphisms:
            a = self.mats[m.name]
            if not isinstance(a, Matrix):
                raise PresheafError(f"map of {m.name!r} is not a Matrix")
            if (a.rows, a.cols) != (self.dims[m.dom], self.dims[m.cod]):
                raise PresheafError(
                    f"map of {m.name!r} has shape {a.rows}x{a.cols}, expected "
                    f"{self.dims[m.dom]}x{self.dims[m.cod]}")
        for x in self.cat.objects:
            if self.mats[self.cat.id_of(x)] != identity_matrix(self.field, self.dims[x]):
                raise PresheafError(f"identity at {x!r} is not the identity matrix")
        mats, cat = self.mats, self.cat

        def failing(g):
            into = cat.into(g.dom)
            got = shared_products(self.field, [mats[f] for f in into], right=mats[g.name])
            return (f for f, gf in zip(into, got) if gf != mats[cat.compose(g.name, f)])

        _check_functoriality(cat, failing)

    def at(self, x: str) -> int:
        return self.dims[x]

    @property
    def rep(self) -> Representation:
        """The morphism matrices as arrows, for the intertwiner kernel."""
        return Representation(self.field, self.dims, tuple(
            (m.dom, m.cod, self.mats[m.name]) for m in self.cat.morphisms))

    def mat(self, f: str) -> Matrix:
        return self.mats[f]

    def restrict(self, sub) -> LinearPresheaf:
        sub = _as_subcategory(self.cat, sub)
        d = sub.category
        return LinearPresheaf(d, self.field, {x: self.dims[x] for x in d.objects},
                              {m.name: self.mats[m.name] for m in d.morphisms})

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __repr__(self):
        dims = ",".join(str(self.dims[x]) for x in self.cat.objects)
        return f"<LinearPresheaf over {self.field.label} dims [{dims}]>"


def _check_functoriality(cat: FiniteCategory, failing):
    """Raise on the first composable pair (g, f), in morphism order, on
    which F(g f) = F(f) F(g) fails, failing(g) giving the f into dom g that
    fail, in order. Only the generators g are tried until one fails, which
    is exact once identities act as identities: if F(hf) = F(f)F(h) for
    every generator h and every f, then for g = hw with h a generator,
    F(gf) = F(wf)F(h) = F(f)F(w)F(h) = F(f)F(g) by induction on the
    length of g as a word in the generators (see law_failures)."""
    def pairs(only):
        return (f"functoriality fails on ({g.name!r},{f!r})"
                for g in cat.morphisms if only is None or g.name in only
                for f in failing(g))
    failure = next(law_failures(pairs, cat.generators), None)
    if failure is not None:
        raise PresheafError(failure)


def _as_subcategory(cat: FiniteCategory, sub) -> FullSubcategory:
    if isinstance(sub, FullSubcategory):
        if not sub.parent.same_as(cat):
            raise EngineError("subcategory belongs to a different category")
        return sub
    return FullSubcategory(cat, tuple(sub))


# -- stock presheaves ---------------------------------------------------


def singleton_presheaf(cat: FiniteCategory) -> SetPresheaf:
    """The terminal presheaf: one fixed point everywhere."""
    values = {x: ("*",) for x in cat.objects}
    maps = {m.name: {"*": "*"} for m in cat.morphisms}
    return SetPresheaf(cat, values, maps)


def constant_set_presheaf(cat: FiniteCategory, elements: Iterable) -> SetPresheaf:
    elements = tuple(elements)
    values = {x: elements for x in cat.objects}
    maps = {m.name: {a: a for a in elements} for m in cat.morphisms}
    return SetPresheaf(cat, values, maps)


def representable_presheaf(cat: FiniteCategory, c: str) -> SetPresheaf:
    """Hom(-, c) with its precomposition action."""
    values = {x: cat.hom(x, c) for x in cat.objects}
    maps = {}
    for m in cat.morphisms:
        maps[m.name] = {u: cat.compose(u, m.name) for u in cat.hom(m.cod, c)}
    return SetPresheaf(cat, values, maps)


def zero_presheaf(cat: FiniteCategory, field) -> LinearPresheaf:
    dims = {x: 0 for x in cat.objects}
    mats = {m.name: zero_matrix(field, 0, 0) for m in cat.morphisms}
    return LinearPresheaf(cat, field, dims, mats)


def constant_linear_presheaf(cat: FiniteCategory, field, dim: int) -> LinearPresheaf:
    dims = {x: dim for x in cat.objects}
    mats = {m.name: identity_matrix(field, dim) for m in cat.morphisms}
    return LinearPresheaf(cat, field, dims, mats)


# -- natural maps and isomorphism checks --------------------------------


def _set_squares_commute(f: SetPresheaf, g: SetPresheaf, components: dict,
                         morphisms) -> bool:
    """The naturality square of every morphism given commutes."""
    return all(components[m.dom][f.apply(m.name, a)] == g.apply(m.name, components[m.cod][a])
               for m in morphisms for a in f.at(m.cod))


def is_natural_set_map(f: SetPresheaf, g: SetPresheaf, components: dict) -> bool:
    """components[x] maps f.at(x) -> g.at(x); checks the naturality squares."""
    cat = f.cat
    for x in cat.objects:
        table = components[x]
        if set(table) != set(f.at(x)) or not set(table.values()) <= set(g.at(x)):
            return False
    return _set_squares_commute(f, g, components, cat.morphisms)


def set_presheaf_isomorphism(f: SetPresheaf, g: SetPresheaf) -> dict | None:
    """A natural objectwise bijection, found by backtracking, or None."""
    cat = f.cat
    if any(len(f.at(x)) != len(g.at(x)) for x in cat.objects):
        return None
    order = list(cat.objects)

    def search(i, assign):
        if i == len(order):
            return dict(assign)
        x = order[i]
        for image in itertools.permutations(g.at(x)):
            assign[x] = dict(zip(f.at(x), image))
            if _set_squares_commute(f, g, assign, [m for m in cat.morphisms
                                                   if m.dom in assign and m.cod in assign]):
                found = search(i + 1, assign)
                if found:
                    return found
        assign.pop(x, None)
        return None

    return search(0, {})


def presheaves_isomorphic(f, g) -> bool:
    if f.flavor != g.flavor:
        return False
    if f.flavor == "set":
        return set_presheaf_isomorphism(f, g) is not None
    return invertible_intertwiner(f.rep, g.rep) is not None


# -- intertwiners: the linear maps of presheaves, modules and their bundles --


class Representation(NamedTuple):
    """Spaces with structure maps: a dimension per key, and arrows (dom key,
    cod key, matrix of shape dims[dom] x dims[cod]). A map to another
    representation with corresponding arrows is an intertwiner: matrices
    phi[x] of shape (its dims[x]) x dims[x] with phi[dom] S = T phi[cod]
    for every pair of arrows S, T."""

    field: object
    dims: dict
    arrows: tuple


# The isomorphism search enumerates the intertwiner space over a prime
# field up to this many elements; beyond it, it tries each basis element
# and then ISO_SAMPLES seeded random combinations.
ISO_ENUM_LIMIT = 200_000
ISO_SAMPLES = 512
ISO_SEED = 20_240_601


def intertwiner_basis(src: Representation, dst: Representation) -> list[dict]:
    """A basis of the intertwiners src -> dst, as component dictionaries.

    The unknowns are the entries of every phi[x], row-major, in key
    order; the equations are held as sparse rows, and the basis is their
    canonical null space.
    """
    k = src.field
    starts, total = block_offsets(dst.dims[x] * d for x, d in src.dims.items())
    offsets = dict(zip(src.dims, starts))
    rows = []
    for (x, y, s), (_, _, t) in zip(src.arrows, dst.arrows):
        dx, dy = src.dims[x], src.dims[y]
        s_cols = [[(c, e) for c, e in enumerate(s.col(j)) if e] for j in range(dy)]
        # rows for phi[x] @ s - t @ phi[y] = 0, entry (i, j)
        for i, t_row in enumerate(t.data):
            lo = offsets[x] + i * dx
            t_terms = [(c, e) for c, e in enumerate(t_row) if e]
            for j, s_col in enumerate(s_cols):
                row = {lo + c: e for c, e in s_col}
                for c, e in t_terms:
                    at = offsets[y] + c * dy + j
                    row[at] = k.sub(row.get(at, k.zero), e)
                rows.append(row)
    basis = sparse_null_space(k, rows, total)
    out = []
    for v in zip(*basis.data):
        comp = {}
        for x, d in src.dims.items():
            lo = offsets[x]
            comp[x] = Matrix(dst.dims[x], d, tuple(tuple(v[lo + i * d: lo + (i + 1) * d])
                                                   for i in range(dst.dims[x])))
        out.append(comp)
    return out


def is_intertwiner(src: Representation, dst: Representation, comps: dict) -> bool:
    """Every component has the right shape and every square commutes: the
    phi[x] S of the arrows out of each key x come from one product, and so
    do the T phi[y] of the arrows into each key y."""
    k = src.field
    if any((comps[x].rows, comps[x].cols) != (dst.dims[x], d) for x, d in src.dims.items()):
        return False
    left, right = {}, {}
    for x in src.dims:
        outs = [t for t, arrow in enumerate(src.arrows) if arrow[0] == x]
        ins = [t for t, arrow in enumerate(src.arrows) if arrow[1] == x]
        left.update(zip(outs, shared_products(k, [src.arrows[t][2] for t in outs], left=comps[x])))
        right.update(zip(ins, shared_products(k, [dst.arrows[t][2] for t in ins], right=comps[x])))
    return all(left[t] == right[t] for t in range(len(src.arrows)))


def all_invertible(field, comps: dict) -> bool:
    return all(is_invertible(field, a) for a in comps.values())


def invertible_intertwiner(src: Representation, dst: Representation) -> dict | None:
    """An intertwiner src -> dst with every component invertible, or None.

    Over a prime field the whole intertwiner space is enumerated when it
    has at most ISO_ENUM_LIMIT elements; otherwise the search is a seeded
    deterministic sample, so a None is only evidence and callers wanting
    certainty should hand in canonical candidates instead.
    """
    k = src.field
    if src.dims != dst.dims:
        return None
    if not any(src.dims.values()):
        return {x: zero_matrix(k, 0, 0) for x in src.dims}
    basis = intertwiner_basis(src, dst)
    if not basis:
        return None

    def combine(coeffs):
        return {x: mat_combination(k, coeffs, [b[x] for b in basis], d, d)
                for x, d in src.dims.items()}

    if k.enumerable and k.char ** len(basis) <= ISO_ENUM_LIMIT:
        candidates = map(combine, itertools.product(k.elements(), repeat=len(basis)))
    else:
        rng = random.Random(ISO_SEED)
        candidates = itertools.chain(
            basis, (combine([k.rand(rng) for _ in basis]) for _ in range(ISO_SAMPLES)))
    return next((comp for comp in candidates if all_invertible(k, comp)), None)
