import random

import pytest

from finsite.category import iso_class_poset
from finsite.errors import EngineError
from finsite.fields import PrimeField, RationalField
from finsite.gallery import category_by_name, reduced_p_orbit_category, symmetric_group
from finsite.presheaves import (SetPresheaf,
                                constant_linear_presheaf, constant_set_presheaf,
                                invertible_intertwiner, representable_presheaf,
                                set_presheaf_isomorphism, singleton_presheaf)
from finsite.sampling import random_linear_presheaf, random_set_presheaf
from finsite.sheaves import (dense_components, dense_sheafify_fixed_points,
                             half_sheafify, is_sheaf, linear_matching_families,
                             matching_families, member_order, set_matching_families,
                             sheaf_defect, sheafify, unit_into_half_sheafification)
from finsite.sieves import Sieve, maximal_sieve
from finsite.topology import (dense_topology, enumerate_topologies,
                              maximal_topology, minimal_topology,
                              subcategory_topology)

from oracles import (colimit_dimension_linear, colimit_families_set, dense_fixed_points_oracle,
                     least_sieve_defect)
from representables import linearised_representables


def swap_presheaf(involution):
    return SetPresheaf(involution, {"x": ("p", "q"), "y": ("s",)},
                       {"1x": {"p": "p", "q": "q"}, "h": {"p": "q", "q": "p"},
                        "1y": {"s": "s"}, "f": {"s": "p"}, "g": {"s": "q"}})


def test_matching_families_maximal_is_value(chain3):
    f = representable_presheaf(chain3, "z")
    for x in chain3.objects:
        fams = set_matching_families(f, maximal_sieve(chain3, x))
        assert len(fams) == len(f.at(x))


def test_matching_families_empty_sieve(chain3, f5):
    f = representable_presheaf(chain3, "z")
    assert set_matching_families(f, Sieve("x", frozenset())) == ((),)
    g = constant_linear_presheaf(chain3, f5, 2)
    assert linear_matching_families(g, Sieve("x", frozenset())).dim == 0


def test_matching_families_example(chain3):
    f = representable_presheaf(chain3, "y")
    fams = matching_families(f, Sieve("z", frozenset({"g", "gf"})))
    assert len(fams) == 1
    members = member_order(chain3, Sieve("z", frozenset({"g", "gf"})))
    assert members == ("gf", "g")
    # the family picks the one compatible pair: over g the identity arrow,
    # over gf its image under the first step
    assert fams[0] == ("f", "1y")


def test_every_presheaf_is_a_minimal_sheaf(chain3, involution):
    rng = random.Random(0)
    for cat in (chain3, involution):
        for _ in range(3):
            assert is_sheaf(random_set_presheaf(cat, rng), minimal_topology(cat))


def test_sheaf_condition_for_pair_topology(chain3):
    jxy = subcategory_topology(chain3, ("x", "y"))
    good = SetPresheaf(chain3, {"x": ("c",), "y": ("a", "b"), "z": ("a", "b")},
                       {"1x": {"c": "c"}, "1y": {"a": "a", "b": "b"},
                        "1z": {"a": "a", "b": "b"},
                        "f": {"a": "c", "b": "c"},
                        "g": {"a": "a", "b": "b"},
                        "gf": {"a": "c", "b": "c"}})
    assert is_sheaf(good, jxy)
    bad = SetPresheaf(chain3, {"x": ("c",), "y": ("a", "b"), "z": ("a",)},
                      {"1x": {"c": "c"}, "1y": {"a": "a", "b": "b"},
                       "1z": {"a": "a"},
                       "f": {"a": "c", "b": "c"},
                       "g": {"a": "a"},
                       "gf": {"a": "c"}})
    defect = sheaf_defect(bad, jxy)
    assert defect is not None
    assert defect[0] == "z"


def test_terminal_is_sheaf_everywhere(chain3):
    f = singleton_presheaf(chain3)
    for top in enumerate_topologies(chain3):
        assert is_sheaf(f, top)


def test_two_point_constant_fails_maximal(chain3):
    f = constant_set_presheaf(chain3, ("a", "b"))
    assert not is_sheaf(f, maximal_topology(chain3))
    assert is_sheaf(f, minimal_topology(chain3))


def test_half_sheafify_fixes_sheaves(chain3, f5):
    jxy = subcategory_topology(chain3, ("x", "y"))
    rng = random.Random(1)
    for _ in range(10):
        f = random_linear_presheaf(chain3, f5, rng)
        half = half_sheafify(f, jxy)
        if is_sheaf(f, jxy):
            assert invertible_intertwiner(f.rep, half.rep) is not None


def test_sheafify_makes_sheaves_linear(chain3, f2, f5):
    rng = random.Random(2)
    tops = enumerate_topologies(chain3)
    for field in (f2, f5):
        for top in tops:
            f = random_linear_presheaf(chain3, field, rng)
            fa = sheafify(f, top)
            assert is_sheaf(fa, top)
            # idempotent up to isomorphism, with an explicit witness
            again = sheafify(fa, top)
            assert invertible_intertwiner(fa.rep, again.rep) is not None


def test_sheafify_makes_sheaves_set(chain3, involution):
    rng = random.Random(3)
    for cat in (chain3, involution):
        for top in enumerate_topologies(cat):
            f = random_set_presheaf(cat, rng)
            fa = sheafify(f, top)
            assert is_sheaf(fa, top)
            assert set_presheaf_isomorphism(fa, sheafify(fa, top)) is not None


def test_example_diagram_lower_row(chain3):
    """The running three-object example: sheafifying the upper row for the
    topology of the top pair yields the lower row, the unit being the
    structure map at the bottom."""
    jxy = subcategory_topology(chain3, ("x", "y"))
    upper = SetPresheaf(chain3, {"x": ("c",), "y": ("a", "b"), "z": (0, 1)},
                        {"1x": {"c": "c"}, "1y": {"a": "a", "b": "b"},
                         "1z": {0: 0, 1: 1}, "f": {"a": "c", "b": "c"},
                         "g": {0: "a", 1: "a"}, "gf": {0: "c", 1: "c"}})
    lower = SetPresheaf(chain3, {"x": ("c",), "y": ("a", "b"), "z": ("a", "b")},
                        {"1x": {"c": "c"}, "1y": {"a": "a", "b": "b"},
                         "1z": {"a": "a", "b": "b"}, "f": {"a": "c", "b": "c"},
                         "g": {"a": "a", "b": "b"}, "gf": {"a": "c", "b": "c"}})
    result = sheafify(upper, jxy)
    assert is_sheaf(result, jxy)
    assert set_presheaf_isomorphism(result, lower) is not None
    # The half-sheafification unit at the bottom object realises F(g):
    # families over the minimal cover at z are determined by the g slot.
    half = half_sheafify(upper, jxy)
    unit = unit_into_half_sheafification(upper, jxy)
    members = member_order(chain3, jxy.minimal_cover("z"))
    g_slot = members.index("g")
    for a in upper.at("z"):
        assert unit["z"][a][g_slot] == upper.apply("g", a)
    assert is_sheaf(half, jxy)


def test_half_sheafify_agrees_with_colimit_oracle_set(chain3, involution):
    rng = random.Random(4)
    for cat in (chain3, involution):
        for top in enumerate_topologies(cat):
            f = random_set_presheaf(cat, rng)
            half = half_sheafify(f, top)
            for x in cat.objects:
                classes = colimit_families_set(f, top, x)
                assert len(classes) == len(half.at(x))


def test_half_sheafify_agrees_with_colimit_oracle_linear(chain3, involution, f5):
    rng = random.Random(5)
    for cat in (chain3, involution):
        for top in enumerate_topologies(cat):
            f = random_linear_presheaf(cat, f5, rng)
            half = half_sheafify(f, top)
            for x in cat.objects:
                assert colimit_dimension_linear(f, top, x) == half.at(x)


# -- dense-site fixed point formula ---------------------------------------


def test_dense_components_layout(involution, orbit_c2):
    poset = iso_class_poset(involution)
    comps = dense_components(involution, poset, "y")
    assert len(comps) == 1
    assert comps[0].rep_object == "x"
    assert comps[0].stabilizer == ("1x",)   # free orbit of size two
    comps_x = dense_components(involution, poset, "x")
    assert len(comps_x) == 1 and set(comps_x[0].stabilizer) == {"1x"}

    poset2 = iso_class_poset(orbit_c2)
    free, fixed = orbit_c2.objects
    comps2 = dense_components(orbit_c2, poset2, fixed)
    assert len(comps2) == 1
    # the projection is fixed by precomposition with both automorphisms
    assert len(comps2[0].stabilizer) == 2


def test_fixed_point_sheafification_involution(involution):
    f = swap_presheaf(involution)
    den = dense_topology(involution)
    direct = dense_sheafify_fixed_points(f)
    generic = sheafify(f, den)
    assert len(direct.at("y")) == 2   # the free orbit contributes all of F(x)
    assert set_presheaf_isomorphism(direct, generic) is not None


def test_fixed_point_sheafification_orbit(orbit_c2):
    free, fixed = orbit_c2.objects
    sigma = next(m for m in orbit_c2.hom(free, free)
                 if m != orbit_c2.id_of(free))
    f = SetPresheaf(orbit_c2,
                    {free: ("u", "v", "w"), fixed: ("t",)},
                    {orbit_c2.id_of(free): {"u": "u", "v": "v", "w": "w"},
                     sigma: {"u": "v", "v": "u", "w": "w"},
                     orbit_c2.id_of(fixed): {"t": "t"},
                     orbit_c2.hom(free, fixed)[0]: {"t": "w"}})
    direct = dense_sheafify_fixed_points(f)
    # at the fixed object only the swap-invariant points survive
    assert len(direct.at(fixed)) == 1
    assert len(direct.at(free)) == 3
    generic = sheafify(f, dense_topology(orbit_c2))
    assert set_presheaf_isomorphism(direct, generic) is not None


def test_one_object_group_sheafification_trivial(group_c2):
    f = SetPresheaf(group_c2, {"*": ("a", "b")},
                    {"e": {"a": "a", "b": "b"}, "r": {"a": "b", "b": "a"}})
    direct = dense_sheafify_fixed_points(f)
    assert set_presheaf_isomorphism(direct, f) is not None


def test_chain3_dense_collapses_to_bottom(chain3):
    f = SetPresheaf(chain3, {"x": ("c", "d"), "y": ("a",), "z": (0,)},
                    {"1x": {"c": "c", "d": "d"}, "1y": {"a": "a"},
                     "1z": {0: 0}, "f": {"a": "c"}, "g": {0: "a"},
                     "gf": {0: "c"}})
    direct = dense_sheafify_fixed_points(f)
    assert len(direct.at("z")) == len(f.at("x"))
    assert len(direct.at("y")) == len(f.at("x"))
    generic = sheafify(f, dense_topology(chain3))
    assert set_presheaf_isomorphism(direct, generic) is not None


def test_fixed_point_route_matches_generic_on_random(chain3, involution,
                                                     orbit_c2, orbit3_s3, f5):
    rng = random.Random(6)
    for cat in (chain3, involution, orbit_c2, orbit3_s3):
        den = dense_topology(cat)
        for _ in range(3):
            s = random_set_presheaf(cat, rng)
            assert set_presheaf_isomorphism(
                dense_sheafify_fixed_points(s), sheafify(s, den)) is not None
            l = random_linear_presheaf(cat, f5, rng)
            assert invertible_intertwiner(
                dense_sheafify_fixed_points(l).rep, sheafify(l, den).rep) is not None
            # one half pass already lands on a sheaf over a dense EI site
            assert is_sheaf(half_sheafify(l, den), den)
            assert is_sheaf(half_sheafify(s, den), den)


EI_CENSUS = [("chain3",), ("chain4",), ("involution",), ("group", "C2"), ("group", "S3"),
             ("orbit", "C2"), ("orbit", "S3"), ("orbit", "S3", 2), ("orbit-p", "S3", 3)]
FLAVOURS = {"set": None, "F2": PrimeField(2), "F5": PrimeField(5), "Q": RationalField()}


@pytest.mark.parametrize("flavour", FLAVOURS)
@pytest.mark.parametrize("spec", EI_CENSUS, ids=lambda spec: " ".join(map(str, spec)))
def test_fixed_point_formula_equals_the_orbitwise_oracle(spec, flavour):
    """The fixed points solved as linked families and pulled equal, value
    for value and table for table (or dim for dim and matrix for matrix),
    the pools and fixed subspaces solved one orbit at a time."""
    cat = category_by_name(spec[0], group=spec[1] if len(spec) > 1 else None,
                           p=spec[2] if len(spec) > 2 else None)
    k = FLAVOURS[flavour]
    for seed in range(6):
        rng = random.Random(seed)
        f = random_set_presheaf(cat, rng) if k is None else random_linear_presheaf(cat, k, rng)
        got, want = dense_sheafify_fixed_points(f), dense_fixed_points_oracle(f)
        if k is None:
            assert got.values == want.values
            assert {n: list(t.items()) for n, t in got.maps.items()} == \
                {n: list(t.items()) for n, t in want.maps.items()}
        else:
            assert (got.dims, got.mats) == (want.dims, want.mats)


def test_sheafify_at_s4_scale_matches_the_fixed_points(f5):
    """The sum of the linearised representables on O_2*(S4), 19 objects
    and 321 dims, sheafified for the dense topology: 38 family systems,
    the largest 1,404 x 702 with 0.3% of its entries nonzero, checked
    object by object against the fixed-point formula."""
    cat = reduced_p_orbit_category(symmetric_group(4), 2)
    f = linearised_representables(cat, f5)
    assert (len(cat.objects), f.total_dim()) == (19, 321)
    got = sheafify(f, dense_topology(cat))
    assert got.dims == dense_sheafify_fixed_points(f).dims
    assert got.total_dim() == 738


def test_sheafification_over_the_rationals(chain3, rationals):
    rng = random.Random(8)
    jxy = subcategory_topology(chain3, ("x", "y"))
    f = random_linear_presheaf(chain3, rationals, rng)
    fa = sheafify(f, jxy)
    assert is_sheaf(fa, jxy)
    assert invertible_intertwiner(sheafify(fa, jxy).rep, fa.rep) is not None


def test_minimal_only_fast_path_agrees(chain3, involution, group_c2, orbit_c2, f5):
    """The least-sieve check of the oracles and the full sweep agree on
    whether a presheaf is a sheaf, on every census topology of a spread of
    gallery members (the non-Karoubian idem included) and random presheaves."""
    from finsite.gallery import idempotent_pair_category, split_idempotent_category
    rng = random.Random(7)
    cats = (chain3, involution, idempotent_pair_category(), split_idempotent_category(),
            group_c2, orbit_c2)
    for cat in cats:
        for top in enumerate_topologies(cat):
            for _ in range(3):
                for f in (random_set_presheaf(cat, rng), random_linear_presheaf(cat, f5, rng)):
                    assert (sheaf_defect(f, top) is None) == \
                        (least_sieve_defect(f, top) is None)


def test_sheaf_defect_names_the_first_failure_of_the_full_sweep(chain3, involution, orbit_c2,
                                                                f5):
    """Leaving the maximal sieve out of the sweep names the same first
    failing (object, sieve) as trying every covering sieve."""
    from finsite.gallery import idempotent_pair_category
    from finsite.sheaves import _sieve_is_descent

    def full_sweep(f, top):
        return next(((x, s) for x in f.cat.objects for s in top.sieves_at(x)
                     if not _sieve_is_descent(f, s)), None)

    rng = random.Random(9)
    failures = 0
    for cat in (chain3, involution, orbit_c2, idempotent_pair_category()):
        for top in enumerate_topologies(cat):
            for _ in range(3):
                for f in (random_set_presheaf(cat, rng), random_linear_presheaf(cat, f5, rng)):
                    want = full_sweep(f, top)
                    assert sheaf_defect(f, top) == want
                    failures += want is not None
    assert failures > 20


def test_fixed_point_route_rejects_non_ei():
    from finsite.gallery import idempotent_pair_category
    cat = idempotent_pair_category()
    f = constant_set_presheaf(cat, ("a",))
    with pytest.raises(EngineError):
        dense_sheafify_fixed_points(f)
