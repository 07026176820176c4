"""Seeded random instances for the property suites.

Random module-like objects are produced by free generation followed by
closure: start from a free module over the relevant algebra, cut down to
the submodule random vectors generate (or divide by it), and twist the
result by random basis changes. Random set presheaves are congruence
quotients of coproducts of representables. Both closures take one step and
are valid by construction; only the random invertible matrices are
redrawn, until they are invertible.
"""

from __future__ import annotations

import random

from .algebras import MAX_SKEW_TABLE_CELLS, AlgebraPresheaf, FiniteDimAlgebra, \
    constant_algebra_presheaf, field_algebra, skew_category_algebra
from .category import FiniteCategory, FullSubcategory
from .errors import EngineError
from .fields import (Matrix, basis_coordinates, basis_rows, block_diagonal, col_space, hstack,
                     identity_matrix, inverse, mat_mul, matrix,
                     matrix_from_cols, rref, shared_products, unit_vec)
from .modules import AlgebraModule, ModulePresheaf, to_module_presheaf, \
    transport_module_back
from .presheaves import LinearPresheaf, SetPresheaf

# Random modules are cut from free modules of rank 1..MAX_RANK; random set
# presheaves quotient 1..MAX_GENERATORS representables and 0..MAX_CONSTANTS
# constant points by 0..MAX_RELATIONS generating identifications.
MAX_RANK = 1
MAX_GENERATORS = 2
MAX_CONSTANTS = 1
MAX_RELATIONS = 2


def random_invertible_matrix(field, n: int, rng: random.Random) -> Matrix:
    return _random_twist(field, n, rng)[0]


def _random_twist(field, n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random invertible n x n matrix, redrawn until it is one, and its inverse."""
    if n == 0:
        return (identity_matrix(field, 0),) * 2
    while True:
        cand = matrix(field, [[field.rand(rng) for _ in range(n)] for _ in range(n)])
        inv = inverse(field, cand)
        if inv is not None:
            return cand, inv


# -- algebra modules ------------------------------------------------------


def regular_module(algebra: FiniteDimAlgebra) -> AlgebraModule:
    if algebra.dim ** 3 > MAX_SKEW_TABLE_CELLS:
        raise EngineError(f"regular module too large: dim {algebra.dim} gives {algebra.dim ** 3:,} "
                          f"dense action cells, limit {MAX_SKEW_TABLE_CELLS:,}")
    acts = [algebra.right_multiplication_matrix(unit_vec(algebra.field, algebra.dim, j))
            for j in range(algebra.dim)]
    return AlgebraModule(algebra, algebra.dim, acts, check=False)


def free_module(algebra: FiniteDimAlgebra, rank: int) -> AlgebraModule:
    reg = regular_module(algebra)
    if rank == 1:
        return reg
    acts = [block_diagonal(algebra.field, [a] * rank) for a in reg.actions]
    return AlgebraModule(algebra, algebra.dim * rank, acts, check=False)


def _span_closure(n: AlgebraModule, vectors) -> Matrix:
    """Canonical basis of the submodule the vectors generate, the column space
    of [V | a_1 V | ... | a_m V]: a product of basis elements acts as a
    combination of basis actions, so that span is already action-stable."""
    k = n.field
    v = matrix_from_cols(k, [tuple(u) for u in vectors], rows=n.dim)
    return col_space(k, hstack(k, [v] + [mat_mul(k, a, v) for a in n.actions]))


def submodule_closure(n: AlgebraModule, vectors) -> AlgebraModule:
    """The submodule generated by the given vectors, in its canonical basis."""
    k = n.field
    span = _span_closure(n, vectors)
    rows = basis_rows(k, span)
    acts = []
    for a in n.actions:
        sol = basis_coordinates(k, span, mat_mul(k, a, span), rows)
        if sol is None:
            raise EngineError("span closure is not action-stable")
        acts.append(sol)
    return AlgebraModule(n.algebra, span.cols, acts, check=False)


def quotient_module(n: AlgebraModule, vectors) -> AlgebraModule:
    """The quotient of n by the submodule generated by the vectors, on the
    unit vectors that complete a basis of the submodule greedily: the
    pivot columns of [span | I] past the span. That rref is [E span | E],
    E the inverse of the completed basis, whose rows past the span project
    n onto the quotient."""
    k = n.field
    span = _span_closure(n, vectors)
    reduced, pivots = rref(k, hstack(k, [span, identity_matrix(k, n.dim)]))
    complement = [c - span.cols for c in pivots[span.cols:]]
    q = len(complement)
    proj = Matrix(q, n.dim, tuple(row[span.cols:] for row in reduced.data[span.cols:]))
    acts = [mat_mul(k, proj, Matrix(n.dim, q, tuple(tuple(row[i] for i in complement)
                                                     for row in a.data)))
            for a in n.actions]
    return AlgebraModule(n.algebra, q, acts, check=False)


def twist_algebra_module(n: AlgebraModule, p: Matrix, p_inv: Matrix | None = None
                         ) -> AlgebraModule:
    """n in the basis p, p_inv the inverse of p when known."""
    k = n.field
    p_inv = p_inv or inverse(k, p)
    if p_inv is None:
        raise EngineError("twist matrix is not invertible")
    return AlgebraModule(n.algebra, n.dim, shared_products(k, n.actions, p, p_inv), check=False)


def random_algebra_module(algebra: FiniteDimAlgebra, rng: random.Random) -> AlgebraModule:
    k = algebra.field
    rank = rng.randint(1, MAX_RANK)
    free = free_module(algebra, rank)
    if free.dim == 0:
        return free
    mode = rng.choice(("free", "sub", "quot", "sub", "quot"))
    base = free
    if mode != "free":
        count = rng.randint(1, 2) if mode == "sub" else 1
        vectors = [tuple(k.of(k.rand(rng)) for _ in range(free.dim))
                   for _ in range(count)]
        if all(all(c == k.zero for c in v) for v in vectors):
            vectors[0] = unit_vec(k, free.dim, rng.randrange(free.dim))
        base = submodule_closure(free, vectors) if mode == "sub" \
            else quotient_module(free, vectors)
        if base.dim == 0:
            base = free
    return twist_algebra_module(base, *_random_twist(k, base.dim, rng))


# -- module presheaves ----------------------------------------------------


def twist_module_presheaf(m: ModulePresheaf, twists: dict, inverses: dict | None = None
                          ) -> ModulePresheaf:
    """Conjugate every value by an invertible matrix per object; inverses,
    when given, holds their inverses. The maps are taken to the new bases
    with one product per codomain and one per domain, the actions with two
    per object."""
    k = m.field
    invs = {}
    for x, p in twists.items():
        p_inv = inverses[x] if inverses else inverse(k, p)
        if p_inv is None:
            raise EngineError(f"twist at {x!r} is not invertible")
        invs[x] = p_inv
    by_dom, by_cod = ({x: [] for x in m.cat.objects} for _ in range(2))
    for mor in m.cat.morphisms:
        by_dom[mor.dom].append(mor.name)
        by_cod[mor.cod].append(mor.name)
    right, mats = {}, {}
    for y, names in by_cod.items():
        right.update(zip(names, shared_products(k, map(m.space.mat, names), right=invs[y])))
    for x, names in by_dom.items():
        mats.update(zip(names, shared_products(k, map(right.get, names), left=twists[x])))
    space = LinearPresheaf(m.cat, k, dict(m.space.dims), mats)
    actions = {x: tuple(shared_products(k, m.actions[x], twists[x], invs[x]))
               for x in m.cat.objects}
    return ModulePresheaf(m.r, space, actions, check=False)


def _random_twists(m: ModulePresheaf, rng: random.Random) -> ModulePresheaf:
    """m twisted by a random invertible matrix per object, in object order."""
    pairs = {x: _random_twist(m.field, m.dim(x), rng) for x in m.cat.objects}
    return twist_module_presheaf(m, {x: p for x, (p, _) in pairs.items()},
                                 {x: inv for x, (_, inv) in pairs.items()})


def random_module_presheaf(r: AlgebraPresheaf, rng: random.Random,
                           *, skew=None) -> ModulePresheaf:
    if skew is None:
        skew = skew_category_algebra(r.cat, r)
    n = random_algebra_module(skew, rng)
    m = to_module_presheaf(n, check=False)
    return _random_twists(m, rng)


def random_sheaf_module(r: AlgebraPresheaf, sub: FullSubcategory,
                        rng: random.Random) -> ModulePresheaf:
    """A random sheaf of modules for the topology the subcategory induces,
    produced by inverse transport from a random module over the
    subcategory."""
    skew_d = skew_category_algebra(sub.category, r.restrict(sub))
    n = random_algebra_module(skew_d, rng)
    return _random_twists(transport_module_back(n, r, sub), rng)


def random_linear_presheaf(cat: FiniteCategory, field, rng: random.Random) -> LinearPresheaf:
    """Random functorial linear presheaf: the underlying space of a random
    module presheaf over the constant field coefficients."""
    r = constant_algebra_presheaf(cat, field_algebra(field))
    return random_module_presheaf(r, rng).space


# -- set presheaves --------------------------------------------------------


def random_set_presheaf(cat: FiniteCategory, rng: random.Random) -> SetPresheaf:
    """Quotient of a coproduct of representables and constants by a random
    precomposition-closed congruence; functorial by construction."""
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

    # Each identification a ~ b at x is applied as the pairs (F(v)a, F(v)b),
    # v into x; as F(w)F(v) = F(vw), their union-find closure is a congruence.
    # A root is the least element of its class by repr, whatever the union order.
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb, key=repr)] = min(ra, rb, key=repr)

    for _ in range(rng.randint(0, MAX_RELATIONS)):
        x = rng.choice(cat.objects)
        pool = elements(x)
        if len(pool) < 2:
            continue
        a, b = rng.sample(pool, 2)
        for v in cat.into(x):
            y = cat.dom(v)
            union((y, act(v, a)), (y, act(v, b)))

    values = {}
    name_of = {}
    for x in cat.objects:
        names = {}
        for elem in elements(x):
            name_of[(x, elem)] = names.setdefault(find((x, elem)), f"{x}#{len(names)}")
        values[x] = tuple(names.values())
    maps = {}
    for m in cat.morphisms:
        table = {}
        for elem in elements(m.cod):
            table[name_of[(m.cod, elem)]] = name_of[(m.dom, act(m.name, elem))]
        maps[m.name] = table
    return SetPresheaf(cat, values, maps)
