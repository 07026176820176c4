"""Set-valued and linear presheaves on a finite category.

A presheaf assigns a value to each object and, contravariantly, a map
F(f): F(cod f) -> F(dom f) to each morphism. Set values are finite
ordered tuples with explicit function tables; linear values are
dimensions with exact matrices over a chosen field. Both flavours are
validated exhaustively on construction (identities and functoriality).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .category import FiniteCategory, FullSubcategory
from .errors import EngineError
from .fields import (Matrix, identity_matrix, is_invertible, mat_combination,
                     mat_mul, matrix, null_space, zero_matrix)


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
        for g in self.cat.morphisms:
            for f in self.cat.morphisms:
                if g.dom != f.cod:
                    continue
                gf = self.cat.compose(g.name, f.name)
                for a in self.values[g.cod]:
                    if self.maps[f.name][self.maps[g.name][a]] != self.maps[gf][a]:
                        raise PresheafError(
                            f"functoriality fails on ({g.name!r},{f.name!r})")

    def at(self, x: str) -> tuple:
        return self.values[x]

    def apply(self, f: str, element):
        return self.maps[f][element]

    def restrict(self, sub) -> SetPresheaf:
        sub = _as_subcategory(self.cat, sub)
        d = sub.category
        return SetPresheaf(d, {x: self.values[x] for x in d.objects},
                           {m.name: self.maps[m.name] for m in d.morphisms})

    def total_size(self) -> int:
        return sum(len(v) for v in self.values.values())

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
        for g in self.cat.morphisms:
            for f in self.cat.morphisms:
                if g.dom != f.cod:
                    continue
                gf = self.cat.compose(g.name, f.name)
                lhs = mat_mul(self.field, self.mats[f.name], self.mats[g.name])
                if lhs != self.mats[gf]:
                    raise PresheafError(f"functoriality fails on ({g.name!r},{f.name!r})")

    def at(self, x: str) -> int:
        return self.dims[x]

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


def is_natural_set_map(f: SetPresheaf, g: SetPresheaf, components: dict) -> bool:
    """components[x] maps f.at(x) -> g.at(x); checks the naturality squares."""
    cat = f.cat
    for x in cat.objects:
        table = components[x]
        if set(table) != set(f.at(x)) or not set(table.values()) <= set(g.at(x)):
            return False
    for m in cat.morphisms:
        for a in f.at(m.cod):
            if components[m.dom][f.apply(m.name, a)] != g.apply(m.name, components[m.cod][a]):
                return False
    return True


def is_natural_linear_map(f: LinearPresheaf, g: LinearPresheaf, components: dict) -> bool:
    cat, k = f.cat, f.field
    for x in cat.objects:
        a = components[x]
        if (a.rows, a.cols) != (g.at(x), f.at(x)):
            return False
    for m in cat.morphisms:
        lhs = mat_mul(k, components[m.dom], f.mat(m.name))
        rhs = mat_mul(k, g.mat(m.name), components[m.cod])
        if lhs != rhs:
            return False
    return True


def set_presheaf_isomorphism(f: SetPresheaf, g: SetPresheaf) -> dict | None:
    """A natural objectwise bijection, found by backtracking, or None."""
    cat = f.cat
    if any(len(f.at(x)) != len(g.at(x)) for x in cat.objects):
        return None
    order = list(cat.objects)

    def consistent(assign):
        for m in cat.morphisms:
            if m.dom in assign and m.cod in assign:
                for a in f.at(m.cod):
                    if assign[m.dom][f.apply(m.name, a)] != g.apply(m.name, assign[m.cod][a]):
                        return False
        return True

    def search(i, assign):
        if i == len(order):
            return dict(assign)
        x = order[i]
        for image in itertools.permutations(g.at(x)):
            assign[x] = dict(zip(f.at(x), image))
            if consistent(assign):
                found = search(i + 1, assign)
                if found:
                    return found
        assign.pop(x, None)
        return None

    return search(0, {})


def natural_transformation_space(f: LinearPresheaf, g: LinearPresheaf) -> list[dict]:
    """A basis of the space of natural maps f -> g, as component dictionaries."""
    cat, k = f.cat, f.field
    offsets = {}
    total = 0
    for x in cat.objects:
        offsets[x] = total
        total += g.at(x) * f.at(x)
    rows = []
    for m in cat.morphisms:
        fm, gm = f.mat(m.name), g.mat(m.name)
        dx, dy = f.at(m.dom), f.at(m.cod)
        ex, ey = g.at(m.dom), g.at(m.cod)
        # rows for phi_dom @ F(m) - G(m) @ phi_cod = 0, entry (i, j)
        for i in range(ex):
            for j in range(dy):
                row = [k.zero] * total
                for t in range(dx):
                    row[offsets[m.dom] + i * dx + t] = k.add(
                        row[offsets[m.dom] + i * dx + t], fm.entry(t, j))
                for s in range(ey):
                    row[offsets[m.cod] + s * dy + j] = k.sub(
                        row[offsets[m.cod] + s * dy + j], gm.entry(i, s))
                rows.append(row)
    a = matrix(k, rows, cols=total)
    basis = null_space(k, a)
    out = []
    for c in range(basis.cols):
        vecdata = basis.col(c)
        comp = {}
        for x in cat.objects:
            dx, ex = f.at(x), g.at(x)
            block = vecdata[offsets[x]: offsets[x] + ex * dx]
            comp[x] = Matrix(ex, dx, tuple(tuple(block[i * dx: (i + 1) * dx])
                                           for i in range(ex)))
        out.append(comp)
    return out


def linear_presheaf_isomorphism(f: LinearPresheaf, g: LinearPresheaf,
                                *, enum_limit: int = 200_000,
                                attempts: int = 512) -> dict | None:
    """An invertible natural map f -> g, or None.

    Searches the natural-transformation space for an objectwise invertible
    element: full enumeration over a prime field when the space is small,
    otherwise a seeded deterministic sample. A None from the sampled path
    is only evidence, so callers preferring certainty should hand in
    canonical candidates instead.
    """
    cat, k = f.cat, f.field
    if any(f.at(x) != g.at(x) for x in cat.objects):
        return None
    if all(f.at(x) == 0 for x in cat.objects):
        return {x: zero_matrix(k, 0, 0) for x in cat.objects}
    basis = natural_transformation_space(f, g)
    if not basis:
        return None

    def combine(coeffs):
        return {x: mat_combination(k, coeffs, [b[x] for b in basis], g.at(x), f.at(x))
                for x in cat.objects}

    def invertible(comp):
        return all(is_invertible(k, comp[x]) for x in cat.objects)

    if k.enumerable and k.char ** len(basis) <= enum_limit:
        for coeffs in itertools.product(k.elements(), repeat=len(basis)):
            comp = combine(coeffs)
            if invertible(comp):
                return comp
        return None
    import random
    rng = random.Random(20_240_601)
    for b in basis:
        if invertible(b):
            return b
    for _ in range(attempts):
        coeffs = [k.rand(rng) for _ in basis]
        comp = combine(coeffs)
        if invertible(comp):
            return comp
    return None


def presheaves_isomorphic(f, g) -> bool:
    if f.flavor != g.flavor:
        return False
    if f.flavor == "set":
        return set_presheaf_isomorphism(f, g) is not None
    return linear_presheaf_isomorphism(f, g) is not None
