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

Every algebra is stored by its nonzero structure constants only; a dense
table exists only in documents.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .category import FiniteCategory, law_failures
from .errors import EngineError
from .fields import (Matrix, block_offsets, identity_matrix, mat_vec, matrix,
                     unit_vec, vec)
from .gallery import group_category
from .groups import FiniteGroup
from .presheaves import LinearPresheaf, _as_subcategory

# The dense form of a dim-dimensional algebra, an alg skew document's table
# or the regular module's dim right multiplications, holds dim^3 cells.
MAX_SKEW_TABLE_CELLS = 2 ** 22


class AlgebraError(EngineError):
    pass


class FiniteDimAlgebra:
    """Unital associative algebra with a distinguished basis, stored by its
    nonzero structure constants.

    ``products[i]`` maps each j with ``b_i * b_j`` nonzero to the nonzero
    entries of that product, as (index, coefficient) pairs; ``unit`` is
    the coefficient vector of 1. ``mul``, ``verify`` and
    ``right_multiplication_matrix`` walk only these; a dense table exists
    only in documents, read by ``from_table``.
    """

    def __init__(self, field, products, unit, *, labels=None, name=None, check=True):
        self.field = field
        self.products = tuple(products)
        self.dim = len(self.products)
        self.unit = tuple(unit)
        self.labels = tuple(labels) if labels is not None else tuple(range(self.dim))
        self.name = name
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise AlgebraError(f"basis size mismatch: dim {self.dim}, {len(self.labels)} "
                               f"labels, {len(self.unit)} unit coefficients")
        if check:
            problems = self.verify()
            if problems:
                raise AlgebraError("invalid algebra:\n" +
                                   "\n".join(f"  - {p}" for p in problems))

    @staticmethod
    def from_table(field, table, unit, **kwargs) -> FiniteDimAlgebra:
        """The algebra whose product b_i * b_j has the coefficient vector
        ``table[i][j]``; keyword arguments go to the constructor."""
        dim = len(table)
        if any(len(row) != dim or any(len(cell) != dim for cell in row) for row in table):
            raise AlgebraError("structure constant table is not dim x dim x dim")
        zero = field.zero
        products = []
        for row in table:
            cells = ((j, tuple((t, c) for t, c in enumerate(vec(field, cell)) if c != zero))
                     for j, cell in enumerate(row))
            products.append({j: cell for j, cell in cells if cell})
        return FiniteDimAlgebra(field, products, vec(field, unit), **kwargs)

    def mul_basis(self, i: int, j: int) -> tuple:
        out = [self.field.zero] * self.dim
        for t, c in self.products[i].get(j, ()):
            out[t] = c
        return tuple(out)

    def mul(self, u, v) -> tuple:
        k = self.field
        zero = k.zero
        out = [zero] * self.dim
        for i, a in enumerate(u):
            if a == zero:
                continue
            for j, cell in self.products[i].items():
                b = v[j]
                if b != zero:
                    ab = k.mul(a, b)
                    for t, c in cell:
                        out[t] = k.add(out[t], k.mul(ab, c))
        return tuple(out)

    def _sum(self, terms) -> dict:
        """The sum of c * cell over the (c, cell) pairs of terms, as its
        nonzero entries {index: coefficient}."""
        k = self.field
        zero = k.zero
        out = {}
        for a, cell in terms:
            for t, c in cell:
                out[t] = k.add(out.get(t, zero), k.mul(a, c))
        return {t: c for t, c in out.items() if c != zero}

    def _triples(self, middle=None):
        """The basis triples (i, j, t) on which associativity is checked,
        in lexicographic order: every triple, or those with j in middle."""
        n = range(self.dim)
        return itertools.product(n, n if middle is None else sorted(middle), n)

    def generating_basis(self) -> frozenset | None:
        """Basis indices known to generate the algebra, or None when none
        are known; a table read from a document has none."""
        return None

    def verify(self) -> list[str]:
        """Associativity, (b_i b_j) b_t = b_i (b_j b_t) compared through the
        stored products, by Light's test (see law_failures): on the triples
        of ``_triples`` with j in ``generating_basis``, and on a failure, or
        with no generating basis, on all of them. Then the unit laws on
        every basis element, u b_i and b_i u read off the stored products
        over the support of the unit u."""
        k = self.field
        prods = self.products

        def triples(middle):
            for i, j, t in self._triples(middle):
                left = self._sum((c, prods[s].get(t, ())) for s, c in prods[i].get(j, ()))
                right = self._sum((c, prods[i].get(s, ())) for s, c in prods[j].get(t, ()))
                if left != right:
                    yield (f"associativity failure on basis triple "
                           f"({self.labels[i]!r},{self.labels[j]!r},{self.labels[t]!r})")

        problems = list(law_failures(triples, self.generating_basis()))
        support = [(s, c) for s, c in enumerate(self.unit) if c != k.zero]
        for i in range(self.dim):
            e = {i: k.one}
            if (self._sum((c, prods[s].get(i, ())) for s, c in support) != e
                    or self._sum((c, prods[i].get(s, ())) for s, c in support) != e):
                problems.append(f"unit fails on basis element {self.labels[i]!r}")
        return problems

    def right_multiplication_matrix(self, v) -> Matrix:
        """Matrix of u -> u * v on coefficient columns: column j is b_j v."""
        k = self.field
        zero = k.zero
        v_support = [(s, b) for s, b in enumerate(v) if b != zero]
        rows = [[zero] * self.dim for _ in range(self.dim)]
        for j, prods in enumerate(self.products):
            for s, b in v_support:
                for t, c in prods.get(s, ()):
                    rows[t][j] = k.add(rows[t][j], k.mul(b, c))
        return Matrix(self.dim, self.dim, tuple(map(tuple, rows)))

    def __repr__(self):
        label = self.name or "algebra"
        return f"<{label}: dim {self.dim} over {self.field.label}>"


def verify_algebra(a: FiniteDimAlgebra) -> list[str]:
    return a.verify()


def field_algebra(field) -> FiniteDimAlgebra:
    return FiniteDimAlgebra(field, [{0: ((0, field.one),)}], [field.one],
                            labels=("1",), name=field.label)


def diagonal_algebra(field, n: int) -> FiniteDimAlgebra:
    """The split product of n copies of the field, basis the idempotents."""
    k = field
    return FiniteDimAlgebra(k, [{i: ((i, k.one),)} for i in range(n)], [k.one] * n,
                            labels=tuple(f"e{i}" for i in range(n)),
                            name=f"{k.label}^{n}")


def matrix_algebra(field, n: int) -> FiniteDimAlgebra:
    """Full n x n matrix algebra, basis the matrix units E(r,c) in
    row-major order (index r n + c): E(r,c) E(c,s) = E(r,s)."""
    k = field
    units = [(r, c) for r in range(n) for c in range(n)]
    products = [{c * n + s: ((r * n + s, k.one),) for s in range(n)} for r, c in units]
    unit = [k.one if r == c else k.zero for r, c in units]
    return FiniteDimAlgebra(k, products, unit,
                            labels=tuple(f"E{r}{c}" for r, c in units),
                            name=f"M{n}({k.label})")


def group_algebra(field, group: FiniteGroup) -> FiniteDimAlgebra:
    k = field
    idx = group.index
    products = [{idx[b]: ((idx[group.mult(a, b)], k.one),) for b in group.elements}
                for a in group.elements]
    unit = [k.one if a == group.identity else k.zero for a in group.elements]
    return FiniteDimAlgebra(k, products, unit, labels=group.elements,
                            name=f"{k.label}[{group.name}]")


class AlgebraPresheaf:
    """Contravariant functor to unital algebras: an algebra per object and
    a unital algebra homomorphism matrix per morphism. The matrices form
    the underlying linear presheaf ``space``, which is validated as such.
    The coefficient field is that of the algebras, or field, which a
    category without objects needs."""

    def __init__(self, cat: FiniteCategory, at: dict, maps: dict, *, name=None, field=None):
        self.cat = cat
        self.at = {x: at[x] for x in cat.objects}
        self.name = name
        fields = {a.field for a in self.at.values()} | ({field} if field is not None else set())
        if len(fields) > 1:
            raise AlgebraError("mixed coefficient fields")
        if not fields:
            raise AlgebraError("an algebra presheaf on no objects needs its field")
        self.field = fields.pop()
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
                               name=self.name, field=self.field)

    def __repr__(self):
        dims = ",".join(str(self.at[x].dim) for x in self.cat.objects)
        return f"<AlgebraPresheaf dims [{dims}]>"


def constant_algebra_presheaf(cat: FiniteCategory, algebra: FiniteDimAlgebra) -> AlgebraPresheaf:
    at = {x: algebra for x in cat.objects}
    ident = identity_matrix(algebra.field, algebra.dim)
    maps = {m.name: ident for m in cat.morphisms}
    return AlgebraPresheaf(cat, at, maps, name=f"const {algebra.name or ''}".strip(),
                           field=algebra.field)


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


# -- skew category algebra -----------------------------------------------


class SkewCategoryAlgebra(FiniteDimAlgebra):
    """Skew category algebra with basis labelled by (morphism, coefficient
    basis element of R(dom)).

    The product of a basis element at g with one at f is zero unless
    dom g = cod f, and otherwise lies in the block of gf, so ``products``
    holds one entry per composable pair and coefficient pair.
    """

    def __init__(self, cat: FiniteCategory, r: AlgebraPresheaf, field, basis_offset: dict,
                 products, unit, labels, *, name=None):
        self.cat = cat
        self.r = r
        self.basis_offset = basis_offset
        super().__init__(field, products, unit, labels=labels, name=name, check=False)

    def _blocks(self) -> dict:
        """Each morphism's basis indices: its offset, then dim R(dom)."""
        return {m.name: range(self.basis_offset[m.name],
                              self.basis_offset[m.name] + self.r.algebra(m.dom).dim)
                for m in self.cat.morphisms}

    def _triples(self, middle=None):
        """The composable triples only, those with j in middle when given:
        unless the morphisms h, g, f of b_i, b_j, b_t compose as h o g o f,
        both sides of associativity are zero. Walked through the morphisms
        into each domain, which keeps the lexicographic order."""
        cat = self.cat
        blocks = self._blocks()
        for h in cat.morphisms:
            for i in blocks[h.name]:
                for g in cat.into(h.dom):
                    for j in blocks[g]:
                        if middle is not None and j not in middle:
                            continue
                        for f in cat.into(cat.dom(g)):
                            for t in blocks[f]:
                                yield i, j, t

    def generating_basis(self) -> frozenset | None:
        """The basis at the identities and at the generators of the
        category, once the stored products confirm that it generates:
        grown by products with it on either side, every other basis element
        is reached as a nonzero multiple of one product of reached ones.
        None when some element is not reached that way."""
        cat, prods = self.cat, self.products
        blocks = self._blocks()
        gens = [j for m in cat.morphisms
                if m.name in cat.generators or cat.is_identity(m.name) for j in blocks[m.name]]
        reached = set(gens)
        todo = list(gens)
        while todo:
            t = todo.pop()
            for j in gens:
                for cell in (prods[t].get(j), prods[j].get(t)):
                    if cell is not None and len(cell) == 1 and cell[0][0] not in reached:
                        reached.add(cell[0][0])
                        todo.append(cell[0][0])
        return frozenset(gens) if len(reached) == self.dim else None

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
    """Build the skew category algebra from its nonzero products: for each
    composable pair (g, f) and coefficient basis pair (j, i), the support
    of R(f)(b_j) b_i inside the block of gf.

    Basis order is lexicographic in (morphism index, coefficient basis
    index). The empty category yields the null ring.
    """
    k = r.field
    labels = [(m.name, label) for m in cat.morphisms for label in r.algebra(m.dom).labels]
    starts, dim = block_offsets(r.algebra(m.dom).dim for m in cat.morphisms)
    offsets = {m.name: start for m, start in zip(cat.morphisms, starts)}

    products = [{} for _ in range(dim)]
    for g in cat.morphisms:
        for f in cat.into(g.dom):
            target = r.algebra(cat.dom(f))
            df = target.dim
            base = offsets[cat.compose(g.name, f)]
            restr = r.mat(f)  # R(f): R(cod f) -> R(dom f)
            for j in range(r.algebra(g.dom).dim):
                moved = restr.col(j)
                row = products[offsets[g.name] + j]
                for i in range(df):
                    prod = target.mul(moved, unit_vec(k, df, i))
                    cell = tuple((base + t, c) for t, c in enumerate(prod) if c != k.zero)
                    if cell:
                        row[offsets[f] + i] = cell
    unit = [k.zero] * dim
    for x in cat.objects:
        alg = r.algebra(x)
        base = offsets[cat.id_of(x)]
        for t, c in enumerate(alg.unit):
            unit[base + t] = k.add(unit[base + t], c)

    name = f"skew[{cat.name or 'C'}]"
    return SkewCategoryAlgebra(cat, r, k, offsets, products, unit, labels, name=name)
