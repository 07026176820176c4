import itertools
import random

import pytest

from finsite.algebras import (chain_diagonal_algebra_presheaf,
                              constant_algebra_presheaf, diagonal_algebra, field_algebra,
                              group_algebra, involution_group_algebra_presheaf,
                              skew_category_algebra, swap_action_presheaf)
from finsite.category import FullSubcategory
from finsite.fields import (Matrix, PrimeField, RationalField, identity_matrix, matrix, rank,
                            zero_matrix)
from finsite.modules import (AlgebraModule, ModuleError, ModulePresheaf,
                             ALGEBRA_MODULE_KEY, bundle_unbundle_witness,
                             direct_sum_module_presheaves,
                             is_algebra_module_isomorphism,
                             is_algebra_module_map,
                             is_module_presheaf_isomorphism,
                             is_module_presheaf_map, to_algebra_module,
                             to_algebra_module_map, to_module_presheaf,
                             transport_module, unbundle_bundle_witness,
                             verify_equivalence_roundtrip)
from finsite.presheaves import (LinearPresheaf, constant_linear_presheaf,
                                intertwiner_basis, invertible_intertwiner,
                                zero_presheaf)
from finsite.sampling import (free_module, quotient_module, random_algebra_module,
                              random_module_presheaf, random_sheaf_module, regular_module)

from oracles import greedy_quotient_module


def zero_module_presheaf(r):
    cat = r.cat
    space = zero_presheaf(cat, r.field)
    actions = {x: tuple(zero_matrix(r.field, 0, 0)
                        for _ in range(r.algebra(x).dim))
               for x in cat.objects}
    return ModulePresheaf(r, space, actions)


def test_zero_presheaf_bundles_to_zero_module(chain3, f5):
    r = constant_algebra_presheaf(chain3, field_algebra(f5))
    n = to_algebra_module(zero_module_presheaf(r))
    assert n.dim == 0
    back = to_module_presheaf(n)
    assert all(back.dim(x) == 0 for x in chain3.objects)


def test_bundled_dimension_is_sum(chain3, f5):
    r = chain_diagonal_algebra_presheaf(f5)
    rng = random.Random(0)
    for _ in range(5):
        m = random_module_presheaf(r, rng)
        n = to_algebra_module(m)
        assert n.dim == sum(m.dim(x) for x in chain3.objects)


def test_explicit_two_step_module(chain3, f5):
    """Coefficients constant; the value is the field at the two lower
    objects and zero on top. The bundled module is two dimensional, the
    step basis element acts by the identity into the bottom slot, and the
    top idempotent acts as zero."""
    r = constant_algebra_presheaf(chain3, field_algebra(f5))
    one = identity_matrix(f5, 1)
    space = LinearPresheaf(chain3, f5, {"x": 1, "y": 1, "z": 0},
                           {"1x": one, "1y": one,
                            "1z": zero_matrix(f5, 0, 0),
                            "f": one, "g": zero_matrix(f5, 1, 0),
                            "gf": zero_matrix(f5, 1, 0)})
    actions = {"x": (one,), "y": (one,), "z": (zero_matrix(f5, 0, 0),)}
    m = ModulePresheaf(r, space, actions)
    skew = skew_category_algebra(chain3, r)
    n = to_algebra_module(m, skew)
    assert n.dim == 2
    f_act = n.actions[skew.labels.index(("f", "1"))]
    assert f_act == matrix(f5, [[0, 1], [0, 0]])   # slides y into x
    z_idem = n.act(skew.object_idempotent("z"))
    assert z_idem == zero_matrix(f5, 2, 2)
    gf_act = n.actions[skew.labels.index(("gf", "1"))]
    assert gf_act == zero_matrix(f5, 2, 2)


def test_regular_module_unbundles_with_arrow_counts(chain3, f2):
    r = constant_algebra_presheaf(chain3, field_algebra(f2))
    skew = skew_category_algebra(chain3, r)
    n = regular_module(skew)
    n = AlgebraModule(skew, n.dim, n.actions)   # full validation
    m = to_module_presheaf(n)
    assert [m.dim(x) for x in chain3.objects] == [3, 2, 1]


def test_module_validation_catches_incompatibility(chain3, f5):
    r = constant_algebra_presheaf(chain3, field_algebra(f5))
    one = identity_matrix(f5, 1)
    two = matrix(f5, [[2]])
    space = LinearPresheaf(chain3, f5, {"x": 1, "y": 1, "z": 1},
                           {"1x": one, "1y": one, "1z": one,
                            "f": one, "g": one, "gf": one})
    bad_actions = {"x": (one,), "y": (two,), "z": (one,)}
    with pytest.raises(ModuleError):
        ModulePresheaf(r, space, bad_actions)


def test_non_multiplicative_action_is_refused_by_name(chain3, f5):
    """e0 acting by 2 and e1 by 4 on F5: the unit acts as 2 + 4 = 1, but
    e0 e0 = e0 would need 2 * 2 = 2."""
    alg = diagonal_algebra(f5, 2)
    bad = (matrix(f5, [[2]]), matrix(f5, [[4]]))
    with pytest.raises(ModuleError) as err:
        AlgebraModule(alg, 1, bad)
    assert str(err.value) == "action not multiplicative on basis ('e0','e0')"
    good = (matrix(f5, [[1]]), matrix(f5, [[0]]))
    with pytest.raises(ModuleError) as err:
        ModulePresheaf(constant_algebra_presheaf(chain3, alg),
                       constant_linear_presheaf(chain3, f5, 1),
                       {"x": good, "y": bad, "z": good})
    assert str(err.value) == "action not multiplicative at 'y' on basis ('e0','e0')"


def test_unbundle_bundle_roundtrip_random(chain3, involution, f2, f5):
    rng = random.Random(1)
    fixtures = [constant_algebra_presheaf(chain3, field_algebra(f2)),
                chain_diagonal_algebra_presheaf(f5),
                involution_group_algebra_presheaf(f2),
                constant_algebra_presheaf(involution, field_algebra(f5))]
    for r in fixtures:
        skew = skew_category_algebra(r.cat, r)
        for _ in range(4):
            m = random_module_presheaf(r, rng, skew=skew)
            back, comps = unbundle_bundle_witness(m, skew)
            assert is_module_presheaf_isomorphism(m, back, comps)
            n = random_algebra_module(skew, rng)
            forward, t = bundle_unbundle_witness(n)
            assert is_algebra_module_isomorphism(forward, n, t)


def test_one_object_group_bundling_is_plain_identification(f5):
    """Over a one-object category the bundled module has the same
    dimension and the object action is the skew action itself."""
    r = swap_action_presheaf(f5)
    skew = skew_category_algebra(r.cat, r)
    rng = random.Random(2)
    n = random_algebra_module(skew, rng)
    m = to_module_presheaf(n)
    assert m.dim("*") == n.dim
    n2 = to_algebra_module(m, skew)
    assert n2.dim == n.dim
    _, t = bundle_unbundle_witness(n)
    assert is_algebra_module_isomorphism(n2, n, t)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), RationalField()],
                         ids=["F2", "F5", "Q"])
def test_quotient_module_equals_the_greedy_complement(field):
    """On seeded random modules, free or themselves sampled, divided by
    the submodule of one to three random vectors, the complement read off
    the pivots of [span | I] gives the greedy oracle's quotient."""
    rng = random.Random(f"quotient {field.label}")
    proper = 0
    for make_r in (chain_diagonal_algebra_presheaf, involution_group_algebra_presheaf):
        r = make_r(field)
        skew = skew_category_algebra(r.cat, r)
        for trial in range(12):
            n = (free_module(skew, rng.randint(1, 2)) if trial % 3
                 else random_algebra_module(skew, rng))
            vectors = [tuple(field.rand(rng) if rng.random() < 0.4 else field.zero
                             for _ in range(n.dim)) for _ in range(rng.randint(1, 3))]
            got = quotient_module(n, vectors)
            want = greedy_quotient_module(n, vectors)
            assert (got.dim, got.actions) == (want.dim, want.actions)
            proper += 0 < got.dim < n.dim
    assert proper >= 8


def test_verify_equivalence_roundtrip_report(involution, f2):
    r = involution_group_algebra_presheaf(f2)
    report = verify_equivalence_roundtrip(r, seed=42, count=6)
    assert report.ok
    assert len(report.instances) == 6
    inst = report.instances[0]
    assert "presheaf_witness" in inst and "module_witness" in inst
    # same seed reproduces the same dims
    again = verify_equivalence_roundtrip(r, seed=42, count=6)
    assert [i["presheaf_dims"] for i in again.instances] == \
        [i["presheaf_dims"] for i in report.instances]


def test_bundling_preserves_maps_and_sums(chain3, f5):
    """Bundling is functorial and additive: block-diagonal maps are module
    maps, compose correctly, and split along direct sums."""
    r = chain_diagonal_algebra_presheaf(f5)
    skew = skew_category_algebra(chain3, r)
    rng = random.Random(3)
    m = random_module_presheaf(r, rng, skew=skew)
    back, comps = unbundle_bundle_witness(m, skew)
    n1 = to_algebra_module(m, skew)
    n2 = to_algebra_module(back, skew)
    t = to_algebra_module_map(m, back, comps)
    assert is_algebra_module_map(n1, n2, t)
    # identity goes to identity, composition to composition
    ident = {x: identity_matrix(f5, m.dim(x)) for x in chain3.objects}
    assert to_algebra_module_map(m, m, ident) == identity_matrix(f5, n1.dim)
    from finsite.fields import mat_mul
    back2, comps2 = unbundle_bundle_witness(back, skew)
    composed = {x: mat_mul(f5, comps2[x], comps[x]) for x in chain3.objects}
    assert is_module_presheaf_map(m, back2, composed)
    lhs = to_algebra_module_map(m, back2, composed)
    rhs = mat_mul(f5, to_algebra_module_map(back, back2, comps2), t)
    assert lhs == rhs
    # additivity: bundling the direct sum is the block sum of the bundles,
    # witnessed by the explicit interleaving permutation
    s = direct_sum_module_presheaves(m, m)
    ns = to_algebra_module(s, skew)
    assert ns.dim == 2 * n1.dim
    block_sum = AlgebraModule(
        skew, 2 * n1.dim,
        [Matrix(2 * n1.dim, 2 * n1.dim,
                tuple(tuple(a.entry(i % n1.dim, j % n1.dim)
                            if (i < n1.dim) == (j < n1.dim) else f5.zero
                            for j in range(2 * n1.dim))
                      for i in range(2 * n1.dim)))
         for a in n1.actions], check=False)
    perm = []
    for which in (0, 1):
        for x in chain3.objects:
            base = sum(2 * m.dim(y) for y in chain3.objects
                       if chain3.obj_index[y] < chain3.obj_index[x])
            for i in range(m.dim(x)):
                perm.append(base + which * m.dim(x) + i)
    t_sum = Matrix(2 * n1.dim, 2 * n1.dim,
                   tuple(tuple(f5.one if perm[i] == j else f5.zero
                               for j in range(2 * n1.dim))
                         for i in range(2 * n1.dim)))
    assert is_algebra_module_isomorphism(ns, block_sum, t_sum)


def test_intertwiner_space_detects_isomorphism(f5):
    r = swap_action_presheaf(f5)
    skew = skew_category_algebra(r.cat, r)
    rng = random.Random(4)
    n = random_algebra_module(skew, rng)
    basis = intertwiner_basis(n.rep, n.rep)
    assert basis, "the identity is always an intertwiner"
    iso = invertible_intertwiner(n.rep, n.rep)
    assert iso is not None
    assert is_algebra_module_isomorphism(n, n, iso[ALGEBRA_MODULE_KEY])
    m = random_algebra_module(skew, rng)
    if m.dim != n.dim:
        assert invertible_intertwiner(n.rep, m.rep) is None


def _independent(field, mats) -> bool:
    """The matrices, read as vectors, are linearly independent."""
    rows = [tuple(x for row in a.data for x in row) for a in mats]
    return not rows or rank(field, matrix(field, rows)) == len(rows)


@pytest.mark.parametrize("make_r", [chain_diagonal_algebra_presheaf,
                                    involution_group_algebra_presheaf])
def test_bundling_is_fully_faithful(f5, make_r):
    """The equivalence on morphisms: bundling into a module over the skew
    category algebra keeps dim Hom(M1, M2), and it carries a basis of the
    module-presheaf maps to linearly independent module maps."""
    r = make_r(f5)
    skew = skew_category_algebra(r.cat, r)
    rng = random.Random(21)
    ms = [random_module_presheaf(r, rng, skew=skew) for _ in range(3)]
    dims = []
    for m1 in ms:
        for m2 in ms:
            basis = intertwiner_basis(m1.rep, m2.rep)
            n1, n2 = to_algebra_module(m1, skew), to_algebra_module(m2, skew)
            assert len(intertwiner_basis(n1.rep, n2.rep)) == len(basis)
            images = [to_algebra_module_map(m1, m2, comps) for comps in basis]
            assert all(is_algebra_module_map(n1, n2, t) for t in images)
            assert _independent(f5, images)
            dims.append(len(basis))
    assert max(dims) > 1, "the instances should carry more maps than scalars"


def test_transport_is_fully_faithful_on_sheaf_modules(chain3, f5):
    """Under J^{x,y}, dim Hom between sheaf modules equals dim Hom between
    their transports to modules over the skew algebra of {x, y}."""
    r = chain_diagonal_algebra_presheaf(f5)
    sub = FullSubcategory(chain3, ("x", "y"))
    rng = random.Random(22)
    ms = [random_sheaf_module(r, sub, rng) for _ in range(3)]
    ns = [transport_module(m, sub) for m in ms]
    for m1, n1 in zip(ms, ns):
        for m2, n2 in zip(ms, ns):
            assert (len(intertwiner_basis(m1.rep, m2.rep))
                    == len(intertwiner_basis(n1.rep, n2.rep)))


def test_intertwiner_basis_counts_every_intertwiner(chain3, f2):
    """Over F2 the span of the basis holds exactly the component tuples
    that the checker accepts, found here by trying every tuple."""
    r = chain_diagonal_algebra_presheaf(f2)
    rng = random.Random(23)
    ms = [random_module_presheaf(r, rng) for _ in range(4)]
    tried = 0
    for m1 in ms:
        for m2 in ms:
            shapes = [(m2.dim(x), m1.dim(x)) for x in chain3.objects]
            unknowns = sum(a * b for a, b in shapes)
            if unknowns > 12:
                continue
            accepted = 0
            for bits in itertools.product((0, 1), repeat=unknowns):
                comps, pos = {}, 0
                for x, (a, b) in zip(chain3.objects, shapes):
                    comps[x] = Matrix(a, b, tuple(tuple(bits[pos + i * b: pos + (i + 1) * b])
                                                  for i in range(a)))
                    pos += a * b
                accepted += is_module_presheaf_map(m1, m2, comps)
            assert accepted == 2 ** len(intertwiner_basis(m1.rep, m2.rep))
            tried += 1
    assert tried >= 4
