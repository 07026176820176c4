import random

import pytest

from finsite.category import FullSubcategory, strictly_full_karoubian_subcategories
from finsite.errors import EngineError
from finsite.presheaves import (LinearPresheaf, SetPresheaf,
                                constant_linear_presheaf,
                                invertible_intertwiner, is_intertwiner,
                                is_natural_set_map, set_presheaf_isomorphism)
from finsite.sampling import random_linear_presheaf, random_set_presheaf
from finsite.sheaves import (extend_by_default, is_sheaf, rk_counit,
                             right_kan_extension, sheafify)
from finsite.topology import subcategory_topology

from oracles import kan_extension_oracle

GALLERY_PAIRS = [
    ("chain3", ("x",)), ("chain3", ("x", "y")), ("chain3", ("y", "z")),
    ("chain3", ("y",)), ("involution", ("x",)),
    ("involution", ("y",)), ("orbit_c2", 0), ("orbit_c2", 1),
]


def resolve_pair(name, objs, chain3, involution, orbit_c2):
    cat = {"chain3": chain3, "involution": involution, "orbit_c2": orbit_c2}[name]
    if name == "orbit_c2":
        objs = (cat.objects[objs],)
    return cat, FullSubcategory(cat, tuple(objs))


def test_restrict_whole_is_identity(chain3, f5):
    f = constant_linear_presheaf(chain3, f5, 2)
    sub = FullSubcategory(chain3, chain3.objects)
    r = f.restrict(sub)
    assert r.dims == f.dims and r.mats == f.mats


def test_rk_whole_category_is_equivalent(chain3, f5):
    sub = FullSubcategory(chain3, chain3.objects)
    rng = random.Random(0)
    g = random_linear_presheaf(chain3, f5, rng)
    rk = right_kan_extension(g, sub)
    assert invertible_intertwiner(g.rep, rk.rep) is not None


def test_rk_from_bottom_object_is_constant(chain3):
    sub = FullSubcategory(chain3, ("x",))
    g = SetPresheaf(sub.category, {"x": (1, 2)}, {"1x": {1: 1, 2: 2}})
    rk = right_kan_extension(g, sub)
    sizes = [len(rk.at(o)) for o in chain3.objects]
    assert sizes == [2, 2, 2]
    jx = subcategory_topology(chain3, ("x",))
    assert is_sheaf(rk, jx)


def test_rk_lands_in_sheaves_and_restricts_back(chain3, involution, orbit_c2,
                                                f2, f5):
    rng = random.Random(1)
    for name, objs in GALLERY_PAIRS:
        cat, sub = resolve_pair(name, objs, chain3, involution, orbit_c2)
        top = subcategory_topology(cat, sub)
        for field in (f2, f5):
            g = random_linear_presheaf(sub.category, field, rng)
            rk = right_kan_extension(g, sub)
            assert is_sheaf(rk, top)
            back = rk.restrict(sub)
            iso = invertible_intertwiner(back.rep, g.rep)
            assert iso is not None
        gs = random_set_presheaf(sub.category, rng)
        rks = right_kan_extension(gs, sub)
        assert is_sheaf(rks, top)
        assert set_presheaf_isomorphism(rks.restrict(sub), gs) is not None


def test_rk_from_empty_subcategory_is_terminal(chain3, f5):
    """Extending from nothing gives the terminal (or zero) presheaf, the
    unique sheaf for the finest topology."""
    sub = FullSubcategory(chain3, ())
    top = subcategory_topology(chain3, ())
    empty_set = SetPresheaf(sub.category, {}, {})
    rk = right_kan_extension(empty_set, sub)
    assert all(len(rk.at(x)) == 1 for x in chain3.objects)
    assert is_sheaf(rk, top)
    empty_lin = LinearPresheaf(sub.category, f5, {}, {})
    rkl = right_kan_extension(empty_lin, sub)
    assert all(rkl.at(x) == 0 for x in chain3.objects)
    assert is_sheaf(rkl, top)


def test_rk_counit_is_canonical_isomorphism(chain3, f5):
    sub = FullSubcategory(chain3, ("x", "y"))
    rng = random.Random(2)
    g = random_linear_presheaf(sub.category, f5, rng)
    rk, comps = rk_counit(g, sub)
    back = rk.restrict(sub)
    assert is_intertwiner(back.rep, g.rep, comps)
    from finsite.fields import is_invertible
    assert all(is_invertible(f5, comps[w]) for w in sub.objects)

    gs = random_set_presheaf(sub.category, rng)
    rks, comps_s = rk_counit(gs, sub)
    back_s = rks.restrict(sub)
    assert is_natural_set_map(back_s, gs, comps_s)
    for w in sub.objects:
        assert len(set(comps_s[w].values())) == len(gs.at(w))


def test_extend_by_default_whole(chain3, f5):
    sub = FullSubcategory(chain3, chain3.objects)
    g = constant_linear_presheaf(chain3, f5, 2)
    ext = extend_by_default(g, sub)
    assert ext.dims == g.dims and ext.mats == g.mats


def test_extend_by_default_requires_co_ideal(chain3, f5):
    sub = FullSubcategory(chain3, ("y",))
    g = constant_linear_presheaf(sub.category, f5, 1)
    with pytest.raises(EngineError):
        extend_by_default(g, sub)


def test_extension_sheafifies_to_kan_chain(chain3, f5):
    sub = FullSubcategory(chain3, ("x",))
    jx = subcategory_topology(chain3, ("x",))
    rng = random.Random(3)
    g = random_linear_presheaf(sub.category, f5, rng)
    ext = extend_by_default(g, sub)
    assert ext.at("y") == 0 and ext.at("z") == 0
    lhs = sheafify(ext, jx)
    rhs = right_kan_extension(g, sub)
    assert invertible_intertwiner(lhs.rep, rhs.rep) is not None


def test_extension_sheafifies_to_kan_involution(involution):
    sub = FullSubcategory(involution, ("x",))
    jx = subcategory_topology(involution, ("x",))
    g = SetPresheaf(sub.category, {"x": ("p", "q")},
                    {"1x": {"p": "p", "q": "q"},
                     "h": {"p": "q", "q": "p"}})
    ext = extend_by_default(g, sub)
    assert ext.at("y") == ()
    lhs = sheafify(ext, jx)
    rhs = right_kan_extension(g, sub)
    assert set_presheaf_isomorphism(lhs, rhs) is not None
    # the fixed point formula gives the same object count at y:
    # Hom(x, y) is one free orbit, so the value is all of g(x)
    assert len(lhs.at("y")) == 2


def test_extension_on_co_ideals_of_orbit(orbit_c2, f5):
    free, fixed = orbit_c2.objects
    sub = FullSubcategory(orbit_c2, (free,))
    assert sub.is_co_ideal()
    top = subcategory_topology(orbit_c2, sub)
    rng = random.Random(4)
    g = random_linear_presheaf(sub.category, f5, rng)
    ext = extend_by_default(g, sub)
    lhs = sheafify(ext, top)
    rhs = right_kan_extension(g, sub)
    assert invertible_intertwiner(lhs.rep, rhs.rep) is not None


def _tables(f):
    if f.flavor == "set":
        return f.values, f.maps
    return f.dims, f.mats


def test_kan_extension_matches_oracle(chain3, involution, group_c2, orbit_c2, f5):
    """right_kan_extension and rk_counit equal the oracle's separately
    solved route, as tables and matrices, on every strictly full D (these
    categories are EI, so every strictly full D is Karoubian)."""
    rng = random.Random(11)
    for cat in (chain3, involution, group_c2, orbit_c2):
        for sub in strictly_full_karoubian_subcategories(cat):
            if sub.objects:
                gs = (random_set_presheaf(sub.category, rng),
                      random_linear_presheaf(sub.category, f5, rng))
            else:
                gs = (SetPresheaf(sub.category, {}, {}),
                      LinearPresheaf(sub.category, f5, {}, {}))
            for g in gs:
                ref, ref_comps = kan_extension_oracle(g, sub)
                assert _tables(right_kan_extension(g, sub)) == _tables(ref)
                rk, comps = rk_counit(g, sub)
                assert _tables(rk) == _tables(ref)
                assert comps == ref_comps
