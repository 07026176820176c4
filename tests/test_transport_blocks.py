import random

import pytest

from finsite.algebras import (chain_diagonal_algebra_presheaf,
                              constant_algebra_presheaf, field_algebra,
                              group_algebra, involution_group_algebra_presheaf,
                              skew_category_algebra)
from finsite.category import FullSubcategory, iso_class_poset
from finsite.gallery import (cyclic_group, group_category, involution_category,
                             reduced_p_orbit_category, symmetric_group)
from finsite.modules import (ModuleError, dense_block_decomposition,
                             is_algebra_module_isomorphism,
                             is_module_presheaf_isomorphism,
                             module_block_components, to_algebra_module,
                             transport_back_roundtrip_witness, transport_module,
                             transport_module_back, transport_roundtrip_witness)
from finsite.sampling import (random_algebra_module, random_module_presheaf,
                              random_sheaf_module)
from finsite.sheaves import is_sheaf
from finsite.topology import minimal_topology, subcategory_topology


def test_transport_dimensions(chain3, f5):
    r = chain_diagonal_algebra_presheaf(f5)
    sub = FullSubcategory(chain3, ("x", "y"))
    rng = random.Random(0)
    for _ in range(5):
        m = random_sheaf_module(r, sub, rng)
        n = transport_module(m, sub)
        assert n.dim == m.dim("x") + m.dim("y")
        # a sheaf for this topology carries equal dimensions at y and z
        assert m.dim("y") == m.dim("z")


def test_transport_roundtrips(chain3, f2, f5):
    rng = random.Random(1)
    sub = FullSubcategory(chain3, ("x", "y"))
    for field in (f2, f5):
        r = chain_diagonal_algebra_presheaf(field)
        skew_d = skew_category_algebra(sub.category, r.restrict(sub))
        for _ in range(4):
            m = random_sheaf_module(r, sub, rng)
            back, comps = transport_roundtrip_witness(m, sub)
            assert is_module_presheaf_isomorphism(m, back, comps)
            n = random_algebra_module(skew_d, rng)
            forward, t = transport_back_roundtrip_witness(n, r, sub)
            assert is_algebra_module_isomorphism(forward, n, t)


def test_transport_back_produces_sheaf_modules(chain3, f5):
    r = chain_diagonal_algebra_presheaf(f5)
    sub = FullSubcategory(chain3, ("x", "y"))
    top = subcategory_topology(chain3, sub)
    skew_d = skew_category_algebra(sub.category, r.restrict(sub))
    rng = random.Random(2)
    n = random_algebra_module(skew_d, rng)
    m = transport_module_back(n, r, sub)
    assert is_sheaf(m.space, top)
    assert m.dim("y") == m.dim("z")


def test_transport_on_whole_category_is_bundling(chain3, f5):
    r = constant_algebra_presheaf(chain3, field_algebra(f5))
    sub = FullSubcategory(chain3, chain3.objects)
    assert subcategory_topology(chain3, sub) == minimal_topology(chain3)
    rng = random.Random(3)
    m = random_module_presheaf(r, rng)
    n1 = transport_module(m, sub)
    n2 = to_algebra_module(m)
    assert n1.dim == n2.dim
    assert n1.actions == n2.actions


def test_transport_rejects_non_sheaf(chain3, f5):
    r = constant_algebra_presheaf(chain3, field_algebra(f5))
    rng = random.Random(4)
    sub = FullSubcategory(chain3, ("x", "y"))
    while True:
        m = random_module_presheaf(r, rng)
        if m.dim("y") != m.dim("z"):
            break
    with pytest.raises(ModuleError, match="covering sieve"):
        transport_module(m, sub)


def test_transport_rejects_non_algebra_sheaf(chain3, f5):
    # the diagonal coefficients are a sheaf for the pair topology but not
    # for the one classified by the bottom object alone
    r = chain_diagonal_algebra_presheaf(f5)
    sub = FullSubcategory(chain3, ("x",))
    rng = random.Random(5)
    m = random_sheaf_module(r, FullSubcategory(chain3, ("x", "y")), rng)
    with pytest.raises(ModuleError):
        transport_module(m, sub)


# -- dense-site blocks ------------------------------------------------------


def test_blocks_reduced_orbit_s3(f5):
    cat = reduced_p_orbit_category(symmetric_group(3), 3)
    r = constant_algebra_presheaf(cat, field_algebra(f5))
    blocks = dense_block_decomposition(cat, r)
    assert len(blocks) == 1
    block = blocks[0]
    assert block.algebra.dim == 2
    assert len(block.automorphisms) == 2
    # the block is the group algebra of the order-two normalizer quotient
    kc2 = group_algebra(f5, cyclic_group(2))
    assert block.algebra.products == kc2.products
    assert block.algebra.unit == kc2.unit


@pytest.mark.parametrize("p", [2, 3])
def test_blocks_reduced_orbit_cp(p, f2):
    cat = reduced_p_orbit_category(cyclic_group(p), p)
    r = constant_algebra_presheaf(cat, field_algebra(f2))
    blocks = dense_block_decomposition(cat, r)
    assert len(blocks) == 1
    assert blocks[0].algebra.dim == 1


def test_blocks_involution(f5):
    cat = involution_category()
    r = involution_group_algebra_presheaf(f5)
    blocks = dense_block_decomposition(cat, r)
    assert len(blocks) == 1
    block = blocks[0]
    assert block.rep == "x"
    assert set(block.automorphisms) == {"1x", "h"}
    assert block.algebra.dim == 2 * r.algebra("x").dim


def test_blocks_group_category(group_c2, f5):
    r = constant_algebra_presheaf(group_c2, field_algebra(f5))
    blocks = dense_block_decomposition(group_c2, r)
    assert len(blocks) == 1
    kc2 = group_algebra(f5, cyclic_group(2))
    assert blocks[0].algebra.products == kc2.products


def test_block_dimension_matches_minimal_skew(chain3, orbit_c2, f5):
    """When every minimal class is a single object, the blocks add up to
    the skew algebra of the minimal subcategory exactly."""
    fixtures = [
        (chain3, chain_diagonal_algebra_presheaf(f5)),
        (orbit_c2, constant_algebra_presheaf(orbit_c2, field_algebra(f5))),
        (involution_category(), involution_group_algebra_presheaf(f5)),
    ]
    for cat, r in fixtures:
        poset = iso_class_poset(cat)
        mins = poset.minimal_objects()
        assert all(len(poset.classes[i]) == 1
                   for i in poset.minimal_class_indices())
        blocks = dense_block_decomposition(cat, r)
        sub = FullSubcategory(cat, mins)
        whole = skew_category_algebra(sub.category, r.restrict(sub))
        assert sum(b.algebra.dim for b in blocks) == whole.dim


def test_blocks_with_conjugate_minimal_objects(f5):
    """Three conjugate subgroups form one minimal class; there is a single
    block, and the class-level skew algebra is larger (the block only
    captures it up to equivalence, not equality)."""
    cat = reduced_p_orbit_category(symmetric_group(3), 2)
    r = constant_algebra_presheaf(cat, field_algebra(f5))
    blocks = dense_block_decomposition(cat, r)
    assert len(blocks) == 1
    assert blocks[0].algebra.dim == 1
    assert len(blocks[0].class_objects) == 3
    whole = skew_category_algebra(cat, r)
    assert whole.dim == 9


def test_module_block_components(f5):
    cat = reduced_p_orbit_category(symmetric_group(3), 3)
    r = constant_algebra_presheaf(cat, field_algebra(f5))
    rng = random.Random(7)
    m = random_module_presheaf(r, rng)
    comps = module_block_components(m)
    assert len(comps) == 1
    assert comps[0].dim == m.dim(cat.objects[0])
    # over a one-object EI category the block transport is the bundling
    n = to_algebra_module(m)
    assert comps[0].dim == n.dim


def test_blocks_reject_non_ei(f5):
    from finsite.gallery import idempotent_pair_category
    cat = idempotent_pair_category()
    r = constant_algebra_presheaf(cat, field_algebra(f5))
    with pytest.raises(ModuleError):
        dense_block_decomposition(cat, r)
