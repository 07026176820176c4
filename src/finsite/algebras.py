"""Algebra-valued presheaves, the Grothendieck construction with its
hom-set decomposition, and the skew category algebra with exact
structure constants.

The skew category algebra of a presheaf of algebras R on an object-finite
category has basis the pairs (f, b) with f a morphism and b a basis
element of R(dom f). The product is

    (s, g) * (r, f) = (R(f)(s) r, "f then g")   when dom(g) = cod(f),

and zero otherwise; the unit is the sum of the object idempotents
1_{R(x)} 1_x.  For the constant presheaf this is the plain category
algebra, for a one-object category it is a skew group algebra.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .category import FiniteCategory
from .errors import EngineError
from .fields import (Matrix, block_offsets, identity_matrix, mat_vec, matrix,
                     unit_vec, vec, zero_vec)
from .gallery import group_category
from .groups import FiniteGroup
from .presheaves import LinearPresheaf, _as_subcategory


class AlgebraError(EngineError):
    pass


class FiniteDimAlgebra:
    """Unital associative algebra with a distinguished basis.

    ``table[i][j]`` holds the coefficient vector of the product
    ``b_i * b_j``; ``unit`` is the coefficient vector of 1.
    """

    def __init__(self, field, table, unit, *, labels=None, name=None, check=True):
        self.field = field
        self.table = tuple(tuple(vec(field, cell) for cell in row) for row in table)
        self.dim = len(self.table)
        self.unit = vec(field, unit)
        self.labels = tuple(labels) if labels is not None else tuple(range(self.dim))
        self.name = name
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise AlgebraError("basis size mismatch")
        for row in self.table:
            if len(row) != self.dim or any(len(cell) != self.dim for cell in row):
                raise AlgebraError("structure constant table is not dim x dim x dim")
        if check:
            problems = self.verify()
            if problems:
                raise AlgebraError("invalid algebra:\n" +
                                   "\n".join(f"  - {p}" for p in problems))

    def mul_basis(self, i: int, j: int) -> tuple:
        return self.table[i][j]

    def mul(self, u, v) -> tuple:
        k = self.field
        out = list(zero_vec(k, self.dim))
        for i, a in enumerate(u):
            if a == k.zero:
                continue
            for j, b in enumerate(v):
                if b == k.zero:
                    continue
                coef = k.mul(a, b)
                for t, c in enumerate(self.table[i][j]):
                    if c != k.zero:
                        out[t] = k.add(out[t], k.mul(coef, c))
        return tuple(out)

    def verify(self) -> list[str]:
        """Exhaustive associativity over basis triples plus the unit laws."""
        k = self.field
        problems = []
        for i, j, t in itertools.product(range(self.dim), repeat=3):
            left = self.mul(self.mul_basis(i, j), unit_vec(k, self.dim, t))
            right = self.mul(unit_vec(k, self.dim, i), self.mul_basis(j, t))
            if left != right:
                problems.append(
                    f"associativity failure on basis triple "
                    f"({self.labels[i]!r},{self.labels[j]!r},{self.labels[t]!r})")
        for i in range(self.dim):
            e = unit_vec(k, self.dim, i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                problems.append(f"unit fails on basis element {self.labels[i]!r}")
        return problems

    def right_multiplication_matrix(self, v) -> Matrix:
        """Matrix of u -> u * v on coefficient columns."""
        k = self.field
        cols = [self.mul(unit_vec(k, self.dim, j), v) for j in range(self.dim)]
        return Matrix(self.dim, self.dim,
                      tuple(tuple(cols[j][i] for j in range(self.dim))
                            for i in range(self.dim)))

    def __repr__(self):
        label = self.name or "algebra"
        return f"<{label}: dim {self.dim} over {self.field.label}>"


def verify_algebra(a: FiniteDimAlgebra) -> list[str]:
    return a.verify()


def field_algebra(field) -> FiniteDimAlgebra:
    return FiniteDimAlgebra(field, [[[field.one]]], [field.one],
                            labels=("1",), name=field.label)


def diagonal_algebra(field, n: int) -> FiniteDimAlgebra:
    """The split product of n copies of the field, basis the idempotents."""
    k = field
    table = [[[k.one if (i == j and i == t) else k.zero for t in range(n)]
              for j in range(n)] for i in range(n)]
    return FiniteDimAlgebra(k, table, [k.one] * n,
                            labels=tuple(f"e{i}" for i in range(n)),
                            name=f"{k.label}^{n}")


def matrix_algebra(field, n: int) -> FiniteDimAlgebra:
    """Full n x n matrix algebra, basis the matrix units E(r,c)."""
    k = field
    units = [(r, c) for r in range(n) for c in range(n)]
    index = {u: i for i, u in enumerate(units)}
    dim = n * n
    table = []
    for (r1, c1) in units:
        row = []
        for (r2, c2) in units:
            cell = [k.zero] * dim
            if c1 == r2:
                cell[index[(r1, c2)]] = k.one
            row.append(cell)
        table.append(row)
    unit = [k.zero] * dim
    for r in range(n):
        unit[index[(r, r)]] = k.one
    return FiniteDimAlgebra(k, table, unit,
                            labels=tuple(f"E{r}{c}" for r, c in units),
                            name=f"M{n}({k.label})")


def group_algebra(field, group: FiniteGroup) -> FiniteDimAlgebra:
    k = field
    n = group.order()
    table = []
    for a in group.elements:
        row = []
        for b in group.elements:
            cell = [k.zero] * n
            cell[group.index[group.mult(a, b)]] = k.one
            row.append(cell)
        table.append(row)
    unit = [k.zero] * n
    unit[group.index[group.identity]] = k.one
    return FiniteDimAlgebra(k, table, unit, labels=group.elements,
                            name=f"{k.label}[{group.name}]")


class AlgebraPresheaf:
    """Contravariant functor to unital algebras: an algebra per object and
    a unital algebra homomorphism matrix per morphism. The matrices form
    the underlying linear presheaf ``space``, which is validated as such."""

    def __init__(self, cat: FiniteCategory, at: dict, maps: dict, *, name=None):
        self.cat = cat
        self.at = {x: at[x] for x in cat.objects}
        self.name = name
        if len({a.field for a in self.at.values()}) > 1:
            raise AlgebraError("mixed coefficient fields")
        self.field = (self.at[cat.objects[0]].field if cat.objects else None)
        self.space = LinearPresheaf(cat, self.field, {x: a.dim for x, a in self.at.items()},
                                    maps)
        self._check()

    def _check(self):
        """Each map preserves the unit and the products of basis elements."""
        k = self.field
        for m in self.cat.morphisms:
            src = self.at[m.cod]
            dst = self.at[m.dom]
            mat = self.mat(m.name)
            if mat_vec(k, mat, src.unit) != dst.unit:
                raise AlgebraError(f"map of {m.name!r} does not preserve the unit")
            for i in range(src.dim):
                for j in range(src.dim):
                    lhs = mat_vec(k, mat, src.mul_basis(i, j))
                    rhs = dst.mul(mat.col(i), mat.col(j))
                    if lhs != rhs:
                        raise AlgebraError(
                            f"map of {m.name!r} is not multiplicative on basis "
                            f"({src.labels[i]!r},{src.labels[j]!r})")

    def algebra(self, x: str) -> FiniteDimAlgebra:
        return self.at[x]

    def mat(self, f: str) -> Matrix:
        return self.space.mat(f)

    def restrict(self, sub) -> AlgebraPresheaf:
        sub = _as_subcategory(self.cat, sub)
        d = sub.category
        return AlgebraPresheaf(d, {x: self.at[x] for x in d.objects},
                               {m.name: self.mat(m.name) for m in d.morphisms},
                               name=self.name)

    def __repr__(self):
        dims = ",".join(str(self.at[x].dim) for x in self.cat.objects)
        return f"<AlgebraPresheaf dims [{dims}]>"


def constant_algebra_presheaf(cat: FiniteCategory, algebra: FiniteDimAlgebra) -> AlgebraPresheaf:
    at = {x: algebra for x in cat.objects}
    ident = identity_matrix(algebra.field, algebra.dim)
    maps = {m.name: ident for m in cat.morphisms}
    return AlgebraPresheaf(cat, at, maps, name=f"const {algebra.name or ''}".strip())


def swap_action_presheaf(field) -> AlgebraPresheaf:
    """The square of the field with its coordinate swap, on the one-object
    category of the two-element group; its skew algebra is the classic
    crossed product isomorphic to 2x2 matrices."""
    from .gallery import cyclic_group
    cat = group_category(cyclic_group(2))
    alg = diagonal_algebra(field, 2)
    k = field
    ident = identity_matrix(k, 2)
    swap = matrix(k, [[0, 1], [1, 0]])
    return AlgebraPresheaf(cat, {"*": alg}, {"e": ident, "r": swap}, name="swap")


def chain_diagonal_algebra_presheaf(field) -> AlgebraPresheaf:
    """A non-constant presheaf of algebras on the three-object chain:
    the square of the field at the bottom, the field elsewhere, with the
    diagonal embedding along the first step. The underlying linear
    presheaf satisfies descent for the topology classified by the first
    two objects, so this is a sheaf of algebras there."""
    from .gallery import chain_poset
    cat = chain_poset(3)
    k = field
    at = {"x": diagonal_algebra(k, 2), "y": field_algebra(k), "z": field_algebra(k)}
    diag = matrix(k, [[1], [1]])
    one = identity_matrix(k, 1)
    maps = {"1x": identity_matrix(k, 2), "1y": one, "1z": one,
            "f": diag, "g": one, "gf": diag}
    return AlgebraPresheaf(cat, at, maps, name="chain-diagonal")


def involution_group_algebra_presheaf(field) -> AlgebraPresheaf:
    """A non-constant presheaf on the involution category: the group
    algebra of the order-two group at x, acted on by negating the
    generator, and the field at y embedded unitally."""
    from .gallery import cyclic_group, involution_category
    cat = involution_category()
    k = field
    kc2 = group_algebra(k, cyclic_group(2))
    at = {"x": kc2, "y": field_algebra(k)}
    neg = matrix(k, [[1, 0], [0, k.neg(k.one)]])
    embed = matrix(k, [[1], [0]])
    maps = {"1x": identity_matrix(k, 2), "h": neg, "1y": identity_matrix(k, 1),
            "f": embed, "g": embed}
    return AlgebraPresheaf(cat, at, maps, name="involution-group-algebra")


# -- Grothendieck construction -------------------------------------------


class GrMorphism(NamedTuple):
    f: str        # morphism of the base category
    coeff: tuple  # element of R(dom f) in coordinates


class GrothendieckConstruction:
    """The category of pairs over an algebra presheaf.

    Objects are the base objects (each algebra contributes a single
    abstract object); a morphism (f, r) pairs f: x -> y with an element
    r of R(x). Composition twists by restriction:
    (g, s) o (f, r) = (gf, R(f)(s) r).
    """

    def __init__(self, cat: FiniteCategory, r: AlgebraPresheaf):
        self.cat = cat
        self.r = r

    def hom_size(self, x: str, y: str) -> int:
        k = self.r.field
        if not k.enumerable:
            raise AlgebraError("hom sets are infinite over this field")
        return sum(k.char ** self.r.algebra(self.cat.dom(f)).dim
                   for f in self.cat.hom(x, y))

    def hom_elements(self, x: str, y: str):
        k = self.r.field
        if not k.enumerable:
            raise AlgebraError("hom sets are infinite over this field")
        for f in self.cat.hom(x, y):
            d = self.r.algebra(x).dim
            for coeffs in itertools.product(k.elements(), repeat=d):
                yield GrMorphism(f, coeffs)

    def identity(self, x: str) -> GrMorphism:
        return GrMorphism(self.cat.id_of(x), self.r.algebra(x).unit)

    def compose(self, g: GrMorphism, f: GrMorphism) -> GrMorphism:
        cat = self.cat
        if cat.dom(g.f) != cat.cod(f.f):
            raise EngineError("pairs are not composable")
        x = cat.dom(f.f)
        k = self.r.field
        moved = mat_vec(k, self.r.mat(f.f), g.coeff)
        return GrMorphism(cat.compose(g.f, f.f), self.r.algebra(x).mul(moved, f.coeff))

    def component_base(self, f: str) -> GrMorphism:
        """(f, 1): the free generator of the component at f as a right
        module over the endomorphism algebra of its source."""
        return GrMorphism(f, self.r.algebra(self.cat.dom(f)).unit)

    def aut_algebra(self, x: str) -> FiniteDimAlgebra:
        """The endomorphism algebra at (x, 1_x), rebuilt from composition.

        Comes out isomorphic (indeed equal as a table) to R(x); the
        construction goes through composition of pairs so the comparison
        is a real consistency check.
        """
        k = self.r.field
        alg = self.r.algebra(x)
        one = self.cat.id_of(x)
        table = []
        for i in range(alg.dim):
            row = []
            for j in range(alg.dim):
                left = GrMorphism(one, unit_vec(k, alg.dim, i))
                right = GrMorphism(one, unit_vec(k, alg.dim, j))
                row.append(self.compose(left, right).coeff)
            table.append(row)
        return FiniteDimAlgebra(k, table, alg.unit, labels=alg.labels,
                                name=f"Aut({x})")


# -- skew category algebra -----------------------------------------------


def _basis_offsets(cat: FiniteCategory, r: AlgebraPresheaf) -> tuple[dict, int]:
    """Where the block of each morphism f, of size dim R(dom f), starts in
    the skew algebra's basis, and the basis size."""
    starts, dim = block_offsets(r.algebra(m.dom).dim for m in cat.morphisms)
    return {m.name: start for m, start in zip(cat.morphisms, starts)}, dim


class SkewCategoryAlgebra(FiniteDimAlgebra):
    """Skew category algebra with basis labelled by (morphism, coefficient
    basis element of R(dom))."""

    def __init__(self, cat: FiniteCategory, r: AlgebraPresheaf, field,
                 table, unit, labels, *, name=None):
        super().__init__(field, table, unit, labels=labels, name=name, check=False)
        self.cat = cat
        self.r = r
        self.null_ring = self.dim == 0
        self.basis_offset = _basis_offsets(cat, r)[0]

    def element(self, f: str, coeff) -> tuple:
        """The element "coeff f" as a coefficient vector."""
        k = self.field
        out = [k.zero] * self.dim
        for j, c in enumerate(coeff):
            out[self.basis_offset[f] + j] = k.of(c)
        return tuple(out)

    def object_idempotent(self, x: str) -> tuple:
        return self.element(self.cat.id_of(x), self.r.algebra(x).unit)

    def morphism_unit_element(self, f: str) -> tuple:
        return self.element(f, self.r.algebra(self.cat.dom(f)).unit)


def skew_category_algebra(cat: FiniteCategory, r: AlgebraPresheaf) -> SkewCategoryAlgebra:
    """Build the full structure-constant table of the skew category algebra.

    Basis order is lexicographic in (morphism index, coefficient basis
    index). The empty category yields the null ring.
    """
    k = r.field
    if k is None:
        from .fields import RationalField
        k = RationalField()
    labels = []
    for m in cat.morphisms:
        alg = r.algebra(m.dom)
        for j in range(alg.dim):
            labels.append((m.name, alg.labels[j]))
    offsets, dim = _basis_offsets(cat, r)

    zero_cell = [k.zero] * dim
    table = [[list(zero_cell) for _ in range(dim)] for _ in range(dim)]
    for g in cat.morphisms:
        dg = r.algebra(g.dom).dim
        for f in cat.into(g.dom):
            target = r.algebra(cat.dom(f))
            df = target.dim
            gf = cat.compose(g.name, f)
            restr = r.mat(f)  # R(f): R(cod f) -> R(dom f)
            for j in range(dg):
                moved = restr.col(j)
                for i in range(df):
                    prod = target.mul(moved, unit_vec(k, df, i))
                    cell = table[offsets[g.name] + j][offsets[f] + i]
                    base = offsets[gf]
                    for t, c in enumerate(prod):
                        cell[base + t] = c
    unit = [k.zero] * dim
    for x in cat.objects:
        alg = r.algebra(x)
        base = offsets[cat.id_of(x)]
        for t, c in enumerate(alg.unit):
            unit[base + t] = k.add(unit[base + t], c)

    name = f"skew[{cat.name or 'C'}]"
    return SkewCategoryAlgebra(cat, r, k, table, unit, labels, name=name)
