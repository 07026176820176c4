"""Presheaves of modules over an algebra presheaf, finite-dimensional
modules over the skew category algebra, and the equivalences between
them: bundling the values into one module, unbundling through the object
idempotents, transport across a subcategory topology, and the dense-site
block decomposition.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebras import (AlgebraPresheaf, FiniteDimAlgebra,
                       SkewCategoryAlgebra, skew_category_algebra)
from .category import (FiniteCategory, FullSubcategory, _as_subcategory, iso_class_poset,
                       is_ei, law_failures)
from .errors import EngineError
from .fields import (Matrix, basis_coordinates, basis_rows, block_diagonal, block_matrix,
                     block_offsets, col_space, hstack, identity_matrix, is_invertible,
                     mat_combination, mat_mul, unit_vec, vstack, zero_matrix)
from .presheaves import LinearPresheaf, Representation, all_invertible, is_intertwiner
from .sheaves import kan_extension, sheaf_defect
from .topology import GrothendieckTopology, subcategory_topology


class ModuleError(EngineError):
    pass


class ModulePresheaf:
    """A linear presheaf whose value at each object is a unital right
    module over the algebra there, compatibly with restriction:
    M(f)(m . s) = M(f)(m) . R(f)(s)."""

    def __init__(self, r: AlgebraPresheaf, space: LinearPresheaf, actions: dict,
                 *, check: bool = True):
        if not space.cat.same_as(r.cat):
            raise ModuleError("module space lives on a different category")
        if r.cat.objects and space.field != r.field:
            raise ModuleError("module field differs from the coefficient field")
        self.r = r
        self.space = space
        self.actions = {x: tuple(actions[x]) for x in r.cat.objects}
        if check:
            self._check()

    @property
    def cat(self) -> FiniteCategory:
        return self.r.cat

    @property
    def field(self):
        return self.space.field

    def dim(self, x: str) -> int:
        return self.space.at(x)

    def total_dim(self) -> int:
        return self.space.total_dim()

    def act(self, x: str, coeffs) -> Matrix:
        """Matrix of the right action of the algebra element with the given
        coordinates at x."""
        d = self.dim(x)
        return mat_combination(self.field, coeffs, self.actions[x], d, d)

    def _check(self):
        k = self.field
        for x in self.cat.objects:
            check_action(self.r.algebra(x), self.dim(x), self.actions[x], f" at {x!r}")
        for m in self.cat.morphisms:
            x, y = m.dom, m.cod
            mf = self.space.mat(m.name)
            for j in range(self.r.algebra(y).dim):
                lhs = mat_mul(k, mf, self.actions[y][j])
                rhs = mat_mul(k, self.act(x, self.r.mat(m.name).col(j)), mf)
                if lhs != rhs:
                    raise ModuleError(
                        f"restriction along {m.name!r} is not action-compatible")

    @property
    def rep(self) -> Representation:
        """The morphism matrices, then the action matrices at each object."""
        space = self.space.rep
        return space._replace(arrows=space.arrows + tuple(
            (x, x, a) for x in self.cat.objects for a in self.actions[x]))

    def restrict(self, sub) -> ModulePresheaf:
        sub = _as_subcategory(self.cat, sub)
        return ModulePresheaf(self.r.restrict(sub), self.space.restrict(sub),
                              {x: self.actions[x] for x in sub.objects}, check=False)

    def __repr__(self):
        dims = ",".join(str(self.dim(x)) for x in self.cat.objects)
        return f"<ModulePresheaf dims [{dims}]>"


def check_action(algebra: FiniteDimAlgebra, dim: int, actions, where: str = ""):
    """Raise unless actions holds one dim x dim matrix per basis element of
    the algebra, the unit acts as the identity, and b_i b_j acts as the
    action of b_i followed by that of b_j. where ends each message.

    On an associative algebra with a unit acting as the identity, the a
    with act(x a) = act(a) act(x) for every x are closed under sums and
    products, so the law is tried on the j in the algebra's
    ``generating_basis`` first (Light's test, see law_failures): dim x |G|
    products, not dim^2, over any algebra, a document's too. On a failure
    every pair is tried, and the first failing pair is named."""
    k = algebra.field
    if dim < 0:
        raise ModuleError(f"negative module dimension {dim}{where}")
    if len(actions) != algebra.dim:
        raise ModuleError(f"need one action matrix per basis element{where}")
    for a in actions:
        if (a.rows, a.cols) != (dim, dim):
            raise ModuleError(f"action matrix{where} has the wrong shape")
    # The unit of the zero algebra acts as zero: no matrix need be built.
    if (dim and not algebra.dim) or \
            mat_combination(k, algebra.unit, actions, dim, dim) != identity_matrix(k, dim):
        raise ModuleError(f"unit does not act as identity{where}")

    def pairs(middle):
        for i in range(algebra.dim):
            for j in range(algebra.dim) if middle is None else middle:
                lhs = mat_combination(k, algebra.mul_basis(i, j), actions, dim, dim)
                if lhs != mat_mul(k, actions[j], actions[i]):
                    yield (f"action not multiplicative{where} on basis "
                           f"({algebra.labels[i]!r},{algebra.labels[j]!r})")

    failure = next(law_failures(pairs, algebra.generating_basis()), None)
    if failure is not None:
        raise ModuleError(failure)


ALGEBRA_MODULE_KEY = "*"  # the key of the only space of an algebra module's rep


class AlgebraModule:
    """Finite-dimensional right module over a based algebra, one action
    matrix per basis element."""

    def __init__(self, algebra: FiniteDimAlgebra, dim: int, actions, *, check=True):
        self.algebra = algebra
        self.dim = int(dim)
        self.actions = tuple(actions)
        if check:
            check_action(algebra, self.dim, self.actions)

    @property
    def field(self):
        return self.algebra.field

    def act(self, coeffs) -> Matrix:
        return mat_combination(self.field, coeffs, self.actions, self.dim, self.dim)

    @property
    def rep(self) -> Representation:
        """One space, keyed ALGEBRA_MODULE_KEY, with the action matrices as arrows."""
        key = ALGEBRA_MODULE_KEY
        return Representation(self.field, {key: self.dim},
                              tuple((key, key, a) for a in self.actions))

    def __repr__(self):
        return f"<AlgebraModule dim {self.dim} over {self.algebra!r}>"


# -- bundling and unbundling (the two equivalence functors) --------------


def to_algebra_module(m: ModulePresheaf, skew: SkewCategoryAlgebra | None = None,
                      *, check: bool = True) -> AlgebraModule:
    """Bundle a module presheaf into one module over the skew category
    algebra: the direct sum of the values, where the basis element
    "b at f: x -> y" acts by restricting along f and then acting by b."""
    cat = m.cat
    if skew is None:
        skew = skew_category_algebra(cat, m.r)
    k = m.field
    starts, total = block_offsets(m.dim(x) for x in cat.objects)
    offsets = dict(zip(cat.objects, starts))
    actions = []
    for idx, (fname, _blabel) in enumerate(skew.labels):
        j = idx - skew.basis_offset[fname]
        x, y = cat.dom(fname), cat.cod(fname)
        block = mat_mul(k, m.actions[x][j], m.space.mat(fname))
        actions.append(block_matrix(k, total, total, [(offsets[x], offsets[y], block)]))
    return AlgebraModule(skew, total, actions, check=check)


def to_algebra_module_map(m1: ModulePresheaf, m2: ModulePresheaf,
                          comps: dict) -> Matrix:
    """Bundle a componentwise module map into one matrix between the
    bundled modules (the block diagonal of its components)."""
    return block_diagonal(m1.field, [comps[x] for x in m1.cat.objects])


def direct_sum_module_presheaves(m1: ModulePresheaf, m2: ModulePresheaf) -> ModulePresheaf:
    """Objectwise direct sum, with the block-diagonal structure maps and
    actions."""
    if not m1.cat.same_as(m2.cat) or m1.field != m2.field:
        raise ModuleError("direct sum needs a common coefficient presheaf")
    k = m1.field
    cat = m1.cat
    dims = {x: m1.dim(x) + m2.dim(x) for x in cat.objects}
    mats = {mor.name: block_diagonal(k, (m1.space.mat(mor.name), m2.space.mat(mor.name)))
            for mor in cat.morphisms}
    space = LinearPresheaf(cat, k, dims, mats)
    actions = {x: tuple(block_diagonal(k, pair) for pair in zip(m1.actions[x], m2.actions[x]))
               for x in cat.objects}
    return ModulePresheaf(m1.r, space, actions, check=False)


class _OmegaData(NamedTuple):
    presheaf: ModulePresheaf
    value_bases: dict  # object -> column basis of N . e_x inside N


def _unbundle(n: AlgebraModule, *, check: bool = True) -> _OmegaData:
    skew = n.algebra
    if not isinstance(skew, SkewCategoryAlgebra):
        raise ModuleError("unbundling needs a module over a skew category algebra")
    cat, r = skew.cat, skew.r
    k = n.field
    bases = {}
    dims = {}
    for x in cat.objects:
        e = n.act(skew.object_idempotent(x))
        bases[x] = col_space(k, e)
        dims[x] = bases[x].cols
    rows = {x: basis_rows(k, b) for x, b in bases.items()}
    mats = {}
    for mor in cat.morphisms:
        x, y = mor.dom, mor.cod
        t = n.act(skew.morphism_unit_element(mor.name))
        sol = basis_coordinates(k, bases[x], mat_mul(k, t, bases[y]), rows[x])
        if sol is None:
            raise ModuleError("idempotent images are not preserved; "
                              "module data is inconsistent")
        mats[mor.name] = sol
    space = LinearPresheaf(cat, k, dims, mats)
    actions = {}
    for x in cat.objects:
        alg = r.algebra(x)
        acts = []
        for bidx in range(alg.dim):
            elt = skew.element(cat.id_of(x), unit_vec(k, alg.dim, bidx))
            sol = basis_coordinates(k, bases[x], mat_mul(k, n.act(elt), bases[x]), rows[x])
            if sol is None:
                raise ModuleError("object action does not preserve the value")
            acts.append(sol)
        actions[x] = tuple(acts)
    return _OmegaData(ModulePresheaf(r, space, actions, check=check), bases)


def to_module_presheaf(n: AlgebraModule, *, check: bool = True) -> ModulePresheaf:
    """Unbundle a module over a skew category algebra into a presheaf of
    modules: the value at x is the image of the object idempotent, and
    f: x -> y acts by right multiplication with "1 at f"."""
    return _unbundle(n, check=check).presheaf


# -- module maps and isomorphisms ----------------------------------------


def is_module_presheaf_map(m1: ModulePresheaf, m2: ModulePresheaf, comps: dict) -> bool:
    """Natural and actionwise-equivariant componentwise maps m1 -> m2."""
    return is_intertwiner(m1.rep, m2.rep, comps)


def is_module_presheaf_isomorphism(m1, m2, comps) -> bool:
    return is_module_presheaf_map(m1, m2, comps) and all_invertible(m1.field, comps)


def is_algebra_module_map(n1: AlgebraModule, n2: AlgebraModule, t: Matrix) -> bool:
    return is_intertwiner(n1.rep, n2.rep, {ALGEBRA_MODULE_KEY: t})


def is_algebra_module_isomorphism(n1, n2, t) -> bool:
    return is_algebra_module_map(n1, n2, t) and is_invertible(n1.field, t)


# -- canonical round-trip witnesses ---------------------------------------


def unbundle_bundle_witness(m: ModulePresheaf, skew: SkewCategoryAlgebra | None = None):
    """The canonical isomorphism from m onto the unbundling of its bundling.

    Returns (image presheaf, components); the components are verified
    exactly by the caller via is_module_presheaf_isomorphism.
    """
    cat, k = m.cat, m.field
    if skew is None:
        skew = skew_category_algebra(cat, m.r)
    n = to_algebra_module(m, skew, check=False)
    data = _unbundle(n, check=False)
    starts, total = block_offsets(m.dim(x) for x in cat.objects)
    comps = {}
    for x, start in zip(cat.objects, starts):
        d = m.dim(x)
        inc = block_matrix(k, total, d, [(start, 0, identity_matrix(k, d))])
        sol = basis_coordinates(k, data.value_bases[x], inc)
        if sol is None:
            raise ModuleError("value basis does not span the object block")
        comps[x] = sol
    return data.presheaf, comps


def bundle_unbundle_witness(n: AlgebraModule):
    """The canonical isomorphism from the bundling of the unbundling onto n.

    The map sends the coordinates of each value block back through its
    basis inside n; it is an isomorphism exactly because the object
    idempotents sum to the identity.
    """
    k = n.field
    skew = n.algebra
    data = _unbundle(n, check=False)
    n2 = to_algebra_module(data.presheaf, skew, check=False)
    blocks = [data.value_bases[x] for x in skew.cat.objects]
    return n2, hstack(k, blocks) if blocks else zero_matrix(k, n.dim, 0)


class RoundtripReport(NamedTuple):
    seed: int
    count: int
    ok: bool
    instances: tuple  # per instance: dims, flags, and the witness matrices

    def __bool__(self):
        return self.ok


def verify_equivalence_roundtrip(r: AlgebraPresheaf, *, seed: int = 0,
                                 count: int = 10) -> RoundtripReport:
    """Randomised check that bundling and unbundling are mutually inverse.

    For each seeded instance, a random module presheaf and a random
    module over the skew algebra are generated; the canonical round-trip
    witnesses are built and verified exactly. Failures carry the full
    instance data for replay.
    """
    import random

    from .sampling import random_algebra_module, random_module_presheaf

    skew = skew_category_algebra(r.cat, r)
    rng = random.Random(seed)
    instances = []
    ok = True
    for i in range(count):
        m = random_module_presheaf(r, rng, skew=skew)
        m_back, comps = unbundle_bundle_witness(m, skew)
        good_m = is_module_presheaf_isomorphism(m, m_back, comps)
        n = random_algebra_module(skew, rng)
        n_back, t = bundle_unbundle_witness(n)
        good_n = is_algebra_module_isomorphism(n_back, n, t)
        ok = ok and good_m and good_n
        instances.append({
            "instance": i,
            "presheaf_dims": tuple(m.dim(x) for x in r.cat.objects),
            "module_dim": n.dim,
            "unbundle_bundle_ok": good_m,
            "bundle_unbundle_ok": good_n,
            "presheaf_witness": comps,
            "module_witness": t,
        })
    return RoundtripReport(seed, count, ok, tuple(instances))


# -- transport across a subcategory topology ------------------------------


def _check_sheaf_module(m: ModulePresheaf, top: GrothendieckTopology):
    defect = sheaf_defect(m.space, top)
    if defect is not None:
        x, s = defect
        raise ModuleError(
            f"module presheaf is not a sheaf: descent fails at {x!r} for the "
            f"covering sieve {sorted(s.members)}")


def transport_module(m: ModulePresheaf, sub: FullSubcategory) -> AlgebraModule:
    """Carry a sheaf of modules for the topology the subcategory induces
    over to a module over its skew algebra: restrict, then bundle."""
    cat = m.cat
    sub = _as_subcategory(cat, sub)
    top = subcategory_topology(cat, sub)
    defect = sheaf_defect(m.r.space, top)
    if defect is not None:
        raise ModuleError(
            f"coefficient presheaf is not a sheaf of algebras: descent fails "
            f"at {defect[0]!r}")
    _check_sheaf_module(m, top)
    skew_d = skew_category_algebra(sub.category, m.r.restrict(sub))
    return to_algebra_module(m.restrict(sub), skew_d)


def transport_module_back(n: AlgebraModule, r: AlgebraPresheaf,
                          sub: FullSubcategory) -> ModulePresheaf:
    """Inverse transport: unbundle over the subcategory, right Kan extend
    the underlying presheaf, and act on each family componentwise
    (the value of r is restricted along each family member). The result
    is checked to be a sheaf for the topology the subcategory induces."""
    return _transport_back(n, r, sub)[0]


def _transport_back(n: AlgebraModule, r: AlgebraPresheaf, sub):
    """transport_module_back, with the Kan families it is built on."""
    cat = r.cat
    sub = _as_subcategory(cat, sub)
    m_d = to_module_presheaf(n, check=False)
    if not m_d.cat.same_as(sub.category):
        raise ModuleError("module does not live over the chosen subcategory")
    k = n.field
    space, kan = kan_extension(m_d.space, sub)
    actions = {}
    for x in cat.objects:
        fams = kan[x]
        rows = basis_rows(k, fams.basis)
        acts = []
        for bidx in range(r.algebra(x).dim):
            big = block_diagonal(k, [m_d.act(cat.dom(t), r.mat(t).col(bidx))
                                     for t in fams.members])
            sol = basis_coordinates(k, fams.basis, mat_mul(k, big, fams.basis), rows)
            if sol is None:
                raise ModuleError("componentwise action left the family space")
            acts.append(sol)
        actions[x] = tuple(acts)
    out = ModulePresheaf(r, space, actions)
    _check_sheaf_module(out, subcategory_topology(cat, sub))
    return out, kan


def transport_roundtrip_witness(m: ModulePresheaf, sub: FullSubcategory):
    """Canonical isomorphism from a sheaf module onto the inverse
    transport of its transport: evaluate along every family member and
    rewrite through the unbundling bases."""
    cat, k = m.cat, m.field
    sub = _as_subcategory(cat, sub)
    n = transport_module(m, sub)
    back, kan = _transport_back(n, m.r, sub)
    _, unit_comps = unbundle_bundle_witness(m.restrict(sub))
    comps = {}
    for x in cat.objects:
        blocks = [mat_mul(k, unit_comps[cat.dom(t)], m.space.mat(t))
                  for t in kan[x].members]
        stacked = vstack(k, blocks) if blocks else zero_matrix(k, 0, m.dim(x))
        sol = basis_coordinates(k, kan[x].basis, stacked)
        if sol is None:
            raise ModuleError("restriction family left the Kan space")
        comps[x] = sol
    return back, comps


def transport_back_roundtrip_witness(n: AlgebraModule, r: AlgebraPresheaf,
                                     sub: FullSubcategory):
    """Canonical isomorphism from the transport of the inverse transport
    back onto n: evaluate families at identities, then include the value
    bases into n."""
    cat = r.cat
    k = n.field
    sub = _as_subcategory(cat, sub)
    back, kan = _transport_back(n, r, sub)
    forward = transport_module(back, sub)
    data = _unbundle(n, check=False)
    blocks = []
    for w in sub.objects:
        counit = kan[w].block(kan[w].members.index(cat.id_of(w)))
        blocks.append(mat_mul(k, data.value_bases[w], counit))
    t = hstack(k, blocks) if blocks else zero_matrix(k, n.dim, 0)
    return forward, t


# -- dense-site block decomposition ---------------------------------------


class DenseBlock(NamedTuple):
    class_objects: tuple          # the minimal isomorphism class
    rep: str                      # its chosen representative
    automorphisms: tuple          # Aut(rep) as morphism names
    algebra: SkewCategoryAlgebra  # the skew group algebra R(rep)[Aut(rep)]


def dense_block_decomposition(cat: FiniteCategory, r: AlgebraPresheaf) -> list[DenseBlock]:
    """One skew group algebra per minimal isomorphism class of an EI
    category: the full subcategory on a minimal object is a group, and
    under the dense topology the module category splits along these."""
    if not is_ei(cat):
        raise ModuleError("block decomposition needs an EI category")
    poset = iso_class_poset(cat)
    blocks = []
    for ci in poset.minimal_class_indices():
        rep = poset.classes[ci][0]
        sub = FullSubcategory(cat, (rep,))
        alg = skew_category_algebra(sub.category, r.restrict(sub))
        blocks.append(DenseBlock(poset.classes[ci], rep, cat.endos(rep), alg))
    return blocks


def module_block_components(m: ModulePresheaf) -> list[AlgebraModule]:
    """The block components of a module presheaf on an EI category: its
    restriction to each minimal representative, bundled over the block."""
    blocks = dense_block_decomposition(m.cat, m.r)
    out = []
    for block in blocks:
        sub = FullSubcategory(m.cat, (block.rep,))
        out.append(to_algebra_module(m.restrict(sub), block.algebra))
    return out
