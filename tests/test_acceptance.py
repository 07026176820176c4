"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime against the stated budget. Everything here is
exact; there are no tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager

import pytest

from finsite.algebras import (chain_diagonal_algebra_presheaf,
                              constant_algebra_presheaf, field_algebra,
                              group_algebra, involution_group_algebra_presheaf,
                              matrix_algebra, skew_category_algebra,
                              swap_action_presheaf, verify_algebra)
from finsite.category import (FullSubcategory,
                              strictly_full_karoubian_subcategories)
from finsite.fields import PrimeField, RationalField, is_invertible
from finsite.gallery import (chain_poset, cyclic_group, group_category,
                             involution_category, orbit_category,
                             reduced_p_orbit_category, symmetric_group)
from finsite.modules import (bundle_unbundle_witness,
                             dense_block_decomposition,
                             is_algebra_module_isomorphism,
                             is_module_presheaf_isomorphism,
                             transport_back_roundtrip_witness, transport_module,
                             transport_roundtrip_witness,
                             unbundle_bundle_witness)
from finsite.presheaves import (SetPresheaf, invertible_intertwiner,
                                is_intertwiner, is_natural_set_map,
                                set_presheaf_isomorphism)
from finsite.sampling import (random_algebra_module, random_linear_presheaf,
                              random_module_presheaf, random_set_presheaf,
                              random_sheaf_module)
from finsite.sheaves import (dense_sheafify_fixed_points, half_sheafify,
                             is_sheaf, member_order, rk_counit,
                             right_kan_extension, set_matching_families,
                             sheafify, unit_into_half_sheafification)
from finsite.sieves import Sieve, maximal_sieve
from finsite.topology import (classify_topology, dense_topology,
                              enumerate_topologies, subcategory_topology)

from oracles import (category_algebra_table, colimit_dimension_linear,
                     colimit_families_set, searched_matrix_algebra_isomorphism, table_of)

F2 = PrimeField(2)
F5 = PrimeField(5)

# Golden data: the minimal covering sieve of each topology on the chain
# x -> y -> z, row-labelled by the classifying subcategory.
CHAIN3_TABLE = {
    ("x", "y", "z"): {"x": "max", "y": "max", "z": "max"},
    ("x",): {"x": "max", "y": {"f"}, "z": {"gf"}},
    ("y",): {"x": set(), "y": "max", "z": {"g", "gf"}},
    ("z",): {"x": set(), "y": set(), "z": "max"},
    ("x", "y"): {"x": "max", "y": "max", "z": {"g", "gf"}},
    ("x", "z"): {"x": "max", "y": {"f"}, "z": "max"},
    ("y", "z"): {"x": set(), "y": "max", "z": "max"},
    (): {"x": set(), "y": set(), "z": set()},
}


@contextmanager
def criterion(number: int, budget: float, description: str):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"criterion {number:02d} {status} {elapsed:6.2f}s "
              f"(budget {budget:g}s): {description}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_chain3_census():
    with criterion(1, 1.0, "chain census of size eight matches the "
                           "minimal-sieve table cell for cell"):
        cat = chain_poset(3)
        tops = enumerate_topologies(cat)
        assert len(tops) == 8
        seen = {}
        for top in tops:
            sub = classify_topology(cat, top)
            seen[sub.objects] = top
        assert set(seen) == set(CHAIN3_TABLE)
        for objs, row in CHAIN3_TABLE.items():
            for x, spec in row.items():
                expected = maximal_sieve(cat, x) if spec == "max" \
                    else Sieve(x, frozenset(spec))
                assert seen[objs].minimal_cover(x) == expected, (objs, x)


def test_criterion_02_involution_census():
    with criterion(2, 1.0, "involution census of size four classified by "
                           "the four strictly full subcategories"):
        cat = involution_category()
        tops = enumerate_topologies(cat)
        assert len(tops) == 4
        subs = strictly_full_karoubian_subcategories(cat)
        assert len(subs) == 4
        classified = set()
        for top in tops:
            sub = classify_topology(cat, top)
            assert subcategory_topology(cat, sub) == top
            classified.add(sub.objects)
        assert classified == {s.objects for s in subs}


def test_criterion_03_group_census():
    with criterion(3, 1.0, "a one-object group carries exactly two topologies"):
        cat = group_category(cyclic_group(2))
        assert len(enumerate_topologies(cat)) == 2


def test_criterion_04_classification():
    with criterion(4, 30.0, "classification round-trips and the census "
                            "equals the induced topologies on six galleries"):
        cats = [chain_poset(n) for n in (1, 2, 3, 4)]
        cats.append(involution_category())
        cats.append(orbit_category(cyclic_group(2)))
        for cat in cats:
            subs = strictly_full_karoubian_subcategories(cat)
            census = set(enumerate_topologies(cat))
            induced = {subcategory_topology(cat, sub) for sub in subs}
            assert census == induced
            assert len(census) == len(subs)
            for sub in subs:
                back = classify_topology(cat, subcategory_topology(cat, sub))
                assert back.objects == sub.objects


def _colimit_matches_half_set(f, top, half, x):
    classes = colimit_families_set(f, top, x)
    minimal = top.minimal_cover(x)
    cat = f.cat
    reps = set()
    for cls in classes:
        images = set()
        for sieve, fam in cls:
            members = member_order(cat, sieve)
            index = {u: i for i, u in enumerate(members)}
            images.add(tuple(fam[index[u]] for u in member_order(cat, minimal)))
        assert len(images) == 1, "a colimit class restricts inconsistently"
        reps.add(images.pop())
    assert len(reps) == len(classes)
    assert reps == set(half.at(x))


def test_criterion_05_sheafification_oracle():
    with criterion(5, 60.0, "half-sheafification matches the long-form "
                            "colimit and sheafification is idempotent on "
                            "over a hundred random presheaves"):
        rng = random.Random(55)
        sites = []
        for cat in (chain_poset(3), involution_category(),
                    group_category(cyclic_group(2)),
                    orbit_category(cyclic_group(2))):
            for top in enumerate_topologies(cat):
                sites.append((cat, top))
        assert len(sites) == 18
        instances = 0
        for cat, top in sites:
            for _ in range(3):
                s = random_set_presheaf(cat, rng)
                half = half_sheafify(s, top)
                for x in cat.objects:
                    _colimit_matches_half_set(s, top, half, x)
                sa = sheafify(s, top)
                assert is_sheaf(sa, top)
                assert set_presheaf_isomorphism(sheafify(sa, top), sa) is not None
                instances += 1
            for _ in range(3):
                l = random_linear_presheaf(cat, F5, rng)
                half = half_sheafify(l, top)
                for x in cat.objects:
                    assert colimit_dimension_linear(l, top, x) == half.at(x)
                la = sheafify(l, top)
                assert is_sheaf(la, top)
                assert invertible_intertwiner(sheafify(la, top).rep, la.rep) is not None
                instances += 1
        assert instances >= 100

        # The running diagram: the non-sheaf upper row sheafifies onto the
        # lower row, the unit at the bottom being the structure map.
        cat = chain_poset(3)
        jxy = subcategory_topology(cat, ("x", "y"))
        upper = SetPresheaf(cat, {"x": ("c",), "y": ("a", "b"), "z": (0, 1)},
                            {"1x": {"c": "c"}, "1y": {"a": "a", "b": "b"},
                             "1z": {0: 0, 1: 1}, "f": {"a": "c", "b": "c"},
                             "g": {0: "a", 1: "a"}, "gf": {0: "c", 1: "c"}})
        lower = SetPresheaf(cat, {"x": ("c",), "y": ("a", "b"), "z": ("a", "b")},
                            {"1x": {"c": "c"}, "1y": {"a": "a", "b": "b"},
                             "1z": {"a": "a", "b": "b"},
                             "f": {"a": "c", "b": "c"},
                             "g": {"a": "a", "b": "b"},
                             "gf": {"a": "c", "b": "c"}})
        result = sheafify(upper, jxy)
        assert not is_sheaf(upper, jxy)
        assert is_sheaf(result, jxy)
        assert set_presheaf_isomorphism(result, lower) is not None
        unit = unit_into_half_sheafification(upper, jxy)
        g_slot = member_order(cat, jxy.minimal_cover("z")).index("g")
        for a in upper.at("z"):
            assert unit["z"][a][g_slot] == upper.apply("g", a)


def test_criterion_06_fixed_point_formula():
    with criterion(6, 30.0, "the dense-site fixed point formula agrees with "
                            "generic sheafification on every EI gallery, in "
                            "one half pass"):
        rng = random.Random(66)
        cats = (chain_poset(3), involution_category(),
                orbit_category(cyclic_group(2)),
                reduced_p_orbit_category(symmetric_group(3), 3))
        for cat in cats:
            den = dense_topology(cat)
            for _ in range(4):
                s = random_set_presheaf(cat, rng)
                direct = dense_sheafify_fixed_points(s)
                generic = sheafify(s, den)
                assert set_presheaf_isomorphism(direct, generic) is not None
                half = half_sheafify(s, den)
                assert is_sheaf(half, den)
                assert set_presheaf_isomorphism(half, generic) is not None
            for field in (F2, F5):
                l = random_linear_presheaf(cat, field, rng)
                direct = dense_sheafify_fixed_points(l)
                generic = sheafify(l, den)
                assert invertible_intertwiner(direct.rep, generic.rep) is not None
                half = half_sheafify(l, den)
                assert is_sheaf(half, den)
                assert invertible_intertwiner(half.rep, generic.rep) is not None


def test_criterion_07_comparison_lemma():
    with criterion(7, 60.0, "restriction after right Kan extension is the "
                            "identity and the extension is a sheaf, on over "
                            "a hundred random instances"):
        rng = random.Random(77)
        chain3 = chain_poset(3)
        involution = involution_category()
        oc2 = orbit_category(cyclic_group(2))
        bc2 = group_category(cyclic_group(2))
        pairs = [(chain3, ("x",)), (chain3, ("x", "y")), (chain3, ("y",)),
                 (chain3, ("y", "z")), (chain3, ("z",)),
                 (involution, ("x",)), (involution, ("y",)),
                 (oc2, (oc2.objects[0],)), (oc2, (oc2.objects[1],)),
                 (bc2, ("*",))]
        instances = 0
        for cat, objs in pairs:
            sub = FullSubcategory(cat, objs)
            top = subcategory_topology(cat, sub)
            for field in (F2, F5):
                for _ in range(3):
                    g = random_linear_presheaf(sub.category, field, rng)
                    rk = right_kan_extension(g, sub)
                    assert is_sheaf(rk, top)
                    _, counit = rk_counit(g, sub)
                    back = rk.restrict(sub)
                    assert is_intertwiner(back.rep, g.rep, counit)
                    assert all(is_invertible(field, counit[w])
                               for w in sub.objects)
                    instances += 1
            for _ in range(5):
                gs = random_set_presheaf(sub.category, rng)
                rks = right_kan_extension(gs, sub)
                assert is_sheaf(rks, top)
                _, counit = rk_counit(gs, sub)
                back = rks.restrict(sub)
                assert is_natural_set_map(back, gs, counit)
                for w in sub.objects:
                    assert len(set(counit[w].values())) == len(gs.at(w)) \
                        == len(back.at(w))
                instances += 1
        assert instances >= 100


def test_criterion_08_bundling_roundtrips():
    with criterion(8, 120.0, "bundling and unbundling are mutually inverse "
                             "with explicit witnesses, fifty instances per "
                             "field, non-constant coefficients included"):
        chain3 = chain_poset(3)
        involution = involution_category()
        for field in (F2, F5):
            fixtures = [
                (constant_algebra_presheaf(chain3, field_algebra(field)), 10),
                (chain_diagonal_algebra_presheaf(field), 15),
                (constant_algebra_presheaf(involution, field_algebra(field)), 10),
                (involution_group_algebra_presheaf(field), 15),
            ]
            rng = random.Random(88 + field.char)
            per_field = 0
            for r, count in fixtures:
                skew = skew_category_algebra(r.cat, r)
                for _ in range(count):
                    m = random_module_presheaf(r, rng, skew=skew)
                    back, comps = unbundle_bundle_witness(m, skew)
                    assert is_module_presheaf_isomorphism(m, back, comps)
                    n = random_algebra_module(skew, rng)
                    forward, t = bundle_unbundle_witness(n)
                    assert is_algebra_module_isomorphism(forward, n, t)
                    per_field += 1
            assert per_field >= 50


def test_criterion_09_skew_algebra_integrity():
    with criterion(9, 30.0, "every constructed skew algebra is associative "
                            "and unital with the right dimension; constant "
                            "coefficients give the category algebra and the "
                            "swap action gives two-by-two matrices"):
        chain3 = chain_poset(3)
        involution = involution_category()
        fixtures = [
            (chain3, constant_algebra_presheaf(chain3, field_algebra(F2))),
            (chain3, constant_algebra_presheaf(chain3, field_algebra(F5))),
            (chain3, constant_algebra_presheaf(chain3,
                                               field_algebra(RationalField()))),
            (chain3, chain_diagonal_algebra_presheaf(F5)),
            (involution, constant_algebra_presheaf(involution,
                                                   field_algebra(F2))),
            (involution, involution_group_algebra_presheaf(F5)),
            (swap_action_presheaf(F5).cat, swap_action_presheaf(F5)),
            (orbit_category(cyclic_group(2)),
             constant_algebra_presheaf(orbit_category(cyclic_group(2)),
                                       field_algebra(F5))),
        ]
        for cat, r in fixtures:
            skew = skew_category_algebra(cat, r)
            assert verify_algebra(skew) == []
            assert skew.dim == sum(r.algebra(m.dom).dim for m in cat.morphisms)
        for field in (F2, F5):
            r = constant_algebra_presheaf(chain3, field_algebra(field))
            skew = skew_category_algebra(chain3, r)
            table, unit = category_algebra_table(chain3, field)
            assert table_of(skew) == table and skew.unit == unit
        swap = swap_action_presheaf(F5)
        skew = skew_category_algebra(swap.cat, swap)
        assert skew.dim == 4
        change = searched_matrix_algebra_isomorphism(skew, matrix_algebra(F5, 2))
        assert change is not None and is_invertible(F5, change)
        # a corrupted structure constant is caught by the verifier
        broken = [list(map(list, row)) for row in table_of(skew)]
        broken[0][0][1] = (broken[0][0][1] + 1) % 5
        from finsite.algebras import FiniteDimAlgebra
        try:
            FiniteDimAlgebra.from_table(F5, broken, skew.unit, labels=skew.labels)
            problems = []
        except Exception as exc:
            problems = [str(exc)]
        assert problems and ("associativity" in problems[0]
                             or "unit" in problems[0])


def test_criterion_10_transport():
    with criterion(10, 60.0, "transport across the pair topology and its "
                             "inverse are mutually inverse on twenty-five "
                             "random sheaf modules over non-constant "
                             "coefficients"):
        chain3 = chain_poset(3)
        sub = FullSubcategory(chain3, ("x", "y"))
        top = subcategory_topology(chain3, sub)
        r = chain_diagonal_algebra_presheaf(F5)
        assert is_sheaf(r.space, top)
        rng = random.Random(1010)
        for _ in range(25):
            m = random_sheaf_module(r, sub, rng)
            n = transport_module(m, sub)
            assert n.dim == m.dim("x") + m.dim("y")
            back, comps = transport_roundtrip_witness(m, sub)
            assert is_module_presheaf_isomorphism(m, back, comps)
            forward, t = transport_back_roundtrip_witness(n, r, sub)
            assert is_algebra_module_isomorphism(forward, n, t)
            # the inverse restores the forced dimension at the removed object
            assert back.dim("z") == m.dim("z") == m.dim("y")


def test_criterion_11_block_decomposition():
    with criterion(11, 10.0, "the dense blocks of the two reduced orbit "
                             "galleries are the expected group algebras"):
        cat = reduced_p_orbit_category(symmetric_group(3), 3)
        r = constant_algebra_presheaf(cat, field_algebra(F5))
        blocks = dense_block_decomposition(cat, r)
        assert len(blocks) == 1
        assert blocks[0].algebra.dim == 2
        kc2 = group_algebra(F5, cyclic_group(2))
        assert blocks[0].algebra.products == kc2.products
        assert blocks[0].algebra.unit == kc2.unit
        for p in (2, 3, 5):
            cp = reduced_p_orbit_category(cyclic_group(p), p)
            rp = constant_algebra_presheaf(cp, field_algebra(F2))
            bs = dense_block_decomposition(cp, rp)
            assert len(bs) == 1 and bs[0].algebra.dim == 1
