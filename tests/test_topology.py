import itertools
import random

import pytest

import finsite.topology as topology
from finsite.category import FiniteCategory, strictly_full_karoubian_subcategories
from finsite.errors import EngineError
from finsite.gallery import (chain_poset, idempotent_pair_category,
                             involution_category, orbit_category,
                             symmetric_group)
from finsite.presheaves import singleton_presheaf
from finsite.sieves import Sieve, maximal_sieve, sieves_on
from finsite.topology import (ClassificationError, GrothendieckTopology, check_topology,
                              classify_topology, dense_topology,
                              enumerate_topologies, finest_topology_for,
                              is_topology, maximal_topology, minimal_topology,
                              subcategory_topology, topology_from_minimal_covers)

from oracles import (census_yaml, iso_union_karoubian_subcategories,
                     product_search_topologies, scan_classifying_subcategory,
                     subset_scan_labels, subset_scan_sieves, topology_violations,
                     unpruned_topologies, up_closed_families, up_closed_products)

# The census members of the benchmark ladder that the guards let through.
CENSUS_MEMBERS = [("chain3",), ("chain4",), ("chain5",), ("chain6",),
                  ("involution",), ("idem",), ("idem-split",),
                  ("group", "C2"), ("group", "S3"), ("orbit", "C2"), ("orbit", "S3"),
                  ("orbit", "S3", 2), ("orbit-p", "S3", 3), ("orbit-p", "S4", 3)]

# The minimal covering sieve of every topology on the three-object chain,
# one row per classifying subcategory ("max" marks the maximal sieve).
CHAIN3_MINIMAL_SIEVES = {
    ("x", "y", "z"): {"x": "max", "y": "max", "z": "max"},
    ("x",): {"x": "max", "y": {"f"}, "z": {"gf"}},
    ("y",): {"x": set(), "y": "max", "z": {"g", "gf"}},
    ("z",): {"x": set(), "y": set(), "z": "max"},
    ("x", "y"): {"x": "max", "y": "max", "z": {"g", "gf"}},
    ("x", "z"): {"x": "max", "y": {"f"}, "z": "max"},
    ("y", "z"): {"x": set(), "y": "max", "z": "max"},
    (): {"x": set(), "y": set(), "z": set()},
}


def expected_sieve(cat, x, spec):
    if spec == "max":
        return maximal_sieve(cat, x)
    return Sieve(x, frozenset(spec))


def test_census_counts(chain3, involution, group_c2, orbit_c2):
    assert len(enumerate_topologies(chain3)) == 8
    assert len(enumerate_topologies(involution)) == 4
    assert len(enumerate_topologies(group_c2)) == 2
    assert len(enumerate_topologies(orbit_c2)) == 4
    # every one-object group admits exactly the two extremes
    from finsite.gallery import cyclic_group, group_category
    for group in (cyclic_group(3), symmetric_group(3)):
        cat = group_category(group)
        tops = enumerate_topologies(cat)
        assert len(tops) == 2
        assert set(tops) == {minimal_topology(cat), maximal_topology(cat)}


def test_chain3_minimal_sieve_table(chain3):
    """Every census topology matches its named row, cell for cell."""
    tops = enumerate_topologies(chain3)
    seen = {}
    for top in tops:
        sub = classify_topology(chain3, top)
        seen[sub.objects] = {x: top.minimal_cover(x) for x in chain3.objects}
    assert set(seen) == set(CHAIN3_MINIMAL_SIEVES)
    for objs, row in CHAIN3_MINIMAL_SIEVES.items():
        for x, spec in row.items():
            assert seen[objs][x] == expected_sieve(chain3, x, spec), (objs, x)


def test_table_rows_are_topologies(chain3):
    """Each row, upward closed, passes the axiom checker."""
    for objs, row in CHAIN3_MINIMAL_SIEVES.items():
        minimal = {x: expected_sieve(chain3, x, spec) for x, spec in row.items()}
        top = topology_from_minimal_covers(chain3, minimal)
        assert is_topology(chain3, top)


def test_minimal_covers_are_closed_under_precomposition(chain3):
    top = topology_from_minimal_covers(chain3, {"x": set(), "y": set(), "z": {"g"}})
    assert top.minimal_cover("z") == Sieve("z", frozenset({"g", "gf"}))
    with pytest.raises(EngineError, match="^generator 'g' does not end at 'y'$"):
        topology_from_minimal_covers(chain3, {"x": set(), "y": {"g"}, "z": set()})


def test_axiom_one_violation_detected(chain3):
    covering = {x: {maximal_sieve(chain3, x)} for x in chain3.objects}
    covering["x"] = set()
    violations = check_topology(chain3, covering)
    assert violations and violations[0].axiom == "maximal-sieve"


def test_non_sieve_member_diagnosed(chain3):
    covering = {x: {maximal_sieve(chain3, x)} for x in chain3.objects}
    covering["z"] = {maximal_sieve(chain3, "z"), Sieve("z", frozenset({"g"}))}
    violations = check_topology(chain3, covering)
    assert violations and violations[0].axiom == "sieve"
    least = {x: maximal_sieve(chain3, x) for x in chain3.objects}
    with pytest.raises(EngineError, match=r"^not a sieve on 'z': \['g'\]$"):
        GrothendieckTopology(chain3, dict(least, z=Sieve("z", frozenset({"g"}))))
    with pytest.raises(EngineError, match=r"^not a sieve on 'y': \['g', 'gf'\]$"):
        GrothendieckTopology(chain3, dict(least, y=Sieve("z", frozenset({"g", "gf"}))))


def test_dense_topology_is_a_topology_even_off_ei(chain3, involution, orbit_c2):
    for cat in (chain3, involution, orbit_c2, idempotent_pair_category()):
        assert is_topology(cat, dense_topology(cat))
    # on the non-Karoubian one-object fixture the dense topology is the
    # middle, unclassifiable one
    cat = idempotent_pair_category()
    den = dense_topology(cat)
    assert len(den.sieves_at("x")) == 2
    with pytest.raises(ClassificationError):
        classify_topology(cat, den)


def test_stability_or_transitivity_violation(chain3):
    covering = {x: {maximal_sieve(chain3, x)} for x in chain3.objects}
    covering["z"] = {maximal_sieve(chain3, "z"), Sieve("z", frozenset({"gf"}))}
    violations = check_topology(chain3, covering)
    assert violations
    assert {v.axiom for v in violations} <= {"stability", "transitivity"}


def test_empty_covering_forces_everything(chain3):
    # Once the empty sieve covers an object, the transitivity axiom forces
    # every sieve on that object to cover; a family that skips one fails.
    covering = {x: {maximal_sieve(chain3, x)} for x in chain3.objects}
    covering["y"] = {maximal_sieve(chain3, "y"), Sieve("y", frozenset())}
    violations = check_topology(chain3, covering)
    assert violations
    missing = Sieve("y", frozenset({"f"}))
    assert any(v.axiom == "transitivity" and v.sieve == missing
               for v in violations)


# The categories on which every product of up-closed families is tried.
PRODUCT_MEMBERS = [("chain3",), ("involution",), ("idem",), ("group", "C2"), ("orbit", "C2")]


def _assert_agrees_with_the_sweep(cat, covering):
    """check_topology gives the sweep's verdict on the assignment, and on
    the topology of its intersections when each family is the set of
    sieves containing its intersection; it names only swept violations."""
    expected = set(topology_violations(cat, covering))
    found = check_topology(cat, covering)
    assert bool(found) == bool(expected) and set(found) <= expected, (cat.name, covering)
    if not all(covering.values()):
        return
    least = {x: Sieve(x, frozenset.intersection(*(s.members for s in covering[x])))
             for x in cat.objects}
    if all(covering[x] == {s for s in subset_scan_sieves(cat, x) if least[x].members <= s.members}
           for x in cat.objects):
        found = check_topology(cat, GrothendieckTopology(cat, least))
        assert bool(found) == bool(expected) and set(found) <= expected, (cat.name, least)


@pytest.mark.parametrize("member", PRODUCT_MEMBERS, ids=lambda m: " ".join(m))
def test_least_cover_check_agrees_with_the_sweep_on_every_product(member):
    from finsite.gallery import category_by_name
    cat = category_by_name(member[0], group=member[1] if len(member) > 1 else None)
    sieves = {x: subset_scan_sieves(cat, x) for x in cat.objects}
    coverings = list(up_closed_products(cat, sieves))
    assert len(coverings) > 1
    for covering in coverings:
        _assert_agrees_with_the_sweep(cat, covering)


def test_least_cover_check_agrees_with_the_sweep_on_random_assignments():
    """Seeded random assignments: at each object a random set of sieves,
    upward closed or not, with the maximal sieve most of the time. Many
    have a family that is not upward closed, and many others an upward
    closed family that is not closed under intersection."""
    from finsite.gallery import category_by_name
    rng = random.Random(16)
    cats = [category_by_name(m[0], group=m[1] if len(m) > 1 else None)
            for m in PRODUCT_MEMBERS] + random_concrete_categories(40, seed=16)
    kinds = {"not up-closed": 0, "not meet-closed": 0}
    for cat in cats:
        sieves = {x: subset_scan_sieves(cat, x) for x in cat.objects}
        for _ in range(25):
            covering = {}
            for x in cat.objects:
                picked = {s for s in sieves[x] if rng.random() < 0.4}
                if rng.random() < 0.9:
                    picked.add(maximal_sieve(cat, x))
                covering[x] = picked if rng.random() < 0.3 else \
                    {r for r in sieves[x] if any(s.members <= r.members for s in picked)}
            if any(s.members <= r.members and r not in covering[x]
                   for x in cat.objects for s in covering[x] for r in sieves[x]):
                kinds["not up-closed"] += 1
            elif any(Sieve(x, s.members & r.members) not in covering[x]
                     for x in cat.objects for s in covering[x] for r in covering[x]):
                kinds["not meet-closed"] += 1
            _assert_agrees_with_the_sweep(cat, covering)
    assert min(kinds.values()) > 20, kinds


def test_enumeration_matches_unpruned_oracle(involution, group_c2, orbit_c2):
    for cat in (chain_poset(2), chain_poset(3), involution, group_c2, orbit_c2,
                idempotent_pair_category()):
        pruned = enumerate_topologies(cat)
        oracle = unpruned_topologies(cat)
        assert len(pruned) == len(set(pruned)) == len(oracle)
        assert set(pruned) == set(oracle)


@pytest.mark.parametrize("member", CENSUS_MEMBERS, ids=lambda m: " ".join(map(str, m)))
def test_top_enumerate_matches_product_search_oracle(member, capsys):
    """The CLI census, labels and order included, byte for byte."""
    from finsite.cli import main
    from finsite.gallery import category_by_name
    group = member[1] if len(member) > 1 else None
    p = member[2] if len(member) > 2 else None
    argv = ["top", "enumerate", "--gallery", member[0]]
    argv += ["--group", group] if group else []
    argv += ["--p", str(p)] if p else []
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == census_yaml(category_by_name(member[0], group=group, p=p))


@pytest.mark.parametrize("member", CENSUS_MEMBERS, ids=lambda m: " ".join(map(str, m)))
def test_classification_matches_the_scan(member):
    """classify_topology reads D off the least covers; the scan tries every
    candidate D. They agree on every census topology, refusals included."""
    from finsite.gallery import category_by_name
    cat = category_by_name(member[0], group=member[1] if len(member) > 1 else None,
                           p=member[2] if len(member) > 2 else None)
    for top in enumerate_topologies(cat):
        expected = scan_classifying_subcategory(cat, top)
        if expected is None:
            with pytest.raises(ClassificationError):
                classify_topology(cat, top)
        else:
            assert classify_topology(cat, top).objects == expected.objects


def test_idempotent_category_census_is_unclassifiable():
    """Three topologies but only the empty subcategory is Karoubian, so the
    classification refuses the middle one instead of absorbing it."""
    cat = idempotent_pair_category()
    tops = enumerate_topologies(cat)
    assert len(tops) == 3
    classified = []
    failures = 0
    for top in tops:
        try:
            classified.append(classify_topology(cat, top).objects)
        except ClassificationError:
            failures += 1
    assert failures == 2 and classified == [()]


def test_subcategory_topology_chain3(chain3):
    jxy = subcategory_topology(chain3, ("x", "y"))
    assert jxy.minimal_cover("x") == maximal_sieve(chain3, "x")
    assert jxy.minimal_cover("y") == maximal_sieve(chain3, "y")
    assert jxy.minimal_cover("z") == Sieve("z", frozenset({"g", "gf"}))
    assert subcategory_topology(chain3, ("x", "y", "z")) == minimal_topology(chain3)
    assert subcategory_topology(chain3, ()) == maximal_topology(chain3)
    assert is_topology(chain3, jxy)


def test_subcategory_topology_requires_strict_fullness():
    cat = orbit_category(symmetric_group(3), lambda h: len(h) <= 2)
    # the three order-two subgroups are conjugate, hence isomorphic objects
    iso_objs = [x for x in cat.objects if len(cat.object_subgroup[x]) == 2]
    with pytest.raises(EngineError):
        subcategory_topology(cat, (iso_objs[0],))
    top = subcategory_topology(cat, tuple(iso_objs))
    assert is_topology(cat, top)


def test_minimal_covering_sieves(chain3):
    jx = subcategory_topology(chain3, ("x",))
    assert jx.minimal_cover("z") == Sieve("z", frozenset({"gf"}))
    jmin = minimal_topology(chain3)
    for x in chain3.objects:
        assert jmin.minimal_cover(x) == maximal_sieve(chain3, x)
    jyz = subcategory_topology(chain3, ("y", "z"))
    assert jyz.minimal_cover("x") == Sieve("x", frozenset())


def test_covering_sieves_are_those_above_the_least(chain3, involution, orbit_c2):
    """sieves_at lists the sieves of the subset scan that contain the
    least cover, in the scan's order, the least cover first."""
    for cat in (chain3, involution, orbit_c2):
        for top in enumerate_topologies(cat):
            for x in cat.objects:
                least = top.minimal_cover(x)
                expected = tuple(s for s in subset_scan_sieves(cat, x)
                                 if least.members <= s.members)
                assert top.sieves_at(x) == expected and expected[0] == least


def test_dense_topology(chain3, involution, group_c2, orbit_c2, orbit3_s3):
    assert dense_topology(chain3) == subcategory_topology(chain3, ("x",))
    assert dense_topology(group_c2) == minimal_topology(group_c2)
    for cat in (chain3, chain_poset(4), involution, group_c2, orbit_c2, orbit3_s3):
        from finsite.category import iso_class_poset
        poset = iso_class_poset(cat)
        assert dense_topology(cat) == subcategory_topology(cat, poset.minimal_objects())


def test_dense_minimal_sieve_via_minimal_objects(chain3, involution, orbit_c2):
    """The least dense cover at x consists of the morphisms from the minimal
    objects below x."""
    from finsite.category import iso_class_poset
    for cat in (chain3, involution, orbit_c2):
        den = dense_topology(cat)
        poset = iso_class_poset(cat)
        for x in cat.objects:
            mins = set(poset.minimal_below(x))
            expected = frozenset(f for f in cat.into(x) if cat.dom(f) in mins)
            assert den.minimal_cover(x).members == expected


def test_classification_round_trip(chain3, involution, orbit_c2):
    for cat in [chain_poset(n) for n in (1, 2, 3, 4)] + [involution, orbit_c2]:
        subs = strictly_full_karoubian_subcategories(cat)
        census = set(enumerate_topologies(cat))
        induced = {subcategory_topology(cat, sub) for sub in subs}
        assert census == induced
        assert len(census) == len(subs)
        for sub in subs:
            back = classify_topology(cat, subcategory_topology(cat, sub))
            assert back.objects == sub.objects


def test_order_reversal(chain3, involution, orbit_c2):
    for cat in (chain3, involution, orbit_c2):
        subs = strictly_full_karoubian_subcategories(cat)
        for a in subs:
            for b in subs:
                if set(a.objects) <= set(b.objects):
                    assert subcategory_topology(cat, b).le(subcategory_topology(cat, a))


def monoid_categories(max_order: int) -> list:
    """Every monoid table on {0, ..., n-1} with 0 as its identity, n <= max_order,
    as a one-object category."""
    cats = []
    for n in range(1, max_order + 1):
        pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
        for values in itertools.product(range(n), repeat=len(pairs)):
            table = {(a, 0): a for a in range(n)} | {(0, b): b for b in range(n)}
            table |= dict(zip(pairs, values))
            if any(table[table[a, b], c] != table[a, table[b, c]]
                   for a in range(n) for b in range(n) for c in range(n)):
                continue
            cats.append(FiniteCategory(
                ["*"], [(f"m{a}", "*", "*") for a in range(n)], {"*": "m0"},
                {(f"m{a}", f"m{b}"): f"m{ab}" for (a, b), ab in table.items()},
                name=f"monoid{len(cats)}"))
    return cats


def random_concrete_category(rng: random.Random, name: str):
    """At most three objects, each a set of at most three points, with random
    functions between them closed under composition; None when more than 12
    morphisms end at one object."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    # A morphism is (dom, cod, the images of the points of dom).
    mors = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(len(sizes)), rng.randrange(len(sizes))
        mors.add((i, j, tuple(rng.randrange(sizes[j]) for _ in range(sizes[i]))))
    grown = None
    while grown != mors:
        grown = set(mors)
        mors |= {(f[0], g[1], tuple(g[2][p] for p in f[2]))
                 for f in grown for g in grown if f[1] == g[0]}
        if any(sum(m[1] == j for m in mors) > 12 for j in range(len(sizes))):
            return None
    label = {m: f"{m[0]}{m[1]}:" + "".join(map(str, m[2])) for m in mors}
    return FiniteCategory(
        [f"o{i}" for i in range(len(sizes))],
        [(label[m], f"o{m[0]}", f"o{m[1]}") for m in sorted(mors)],
        {f"o{i}": label[i, i, tuple(range(n))] for i, n in enumerate(sizes)},
        {(label[g], label[f]): label[f[0], g[1], tuple(g[2][p] for p in f[2])]
         for f in mors for g in mors if f[1] == g[0]}, name=name)


def random_concrete_categories(count: int, seed: int = 7) -> list:
    """Seeded random concrete categories, skipping those with more than 40
    sieves on an object: the product-search oracle lists every up-closed
    family of sieves on each object, and a few objects of 53 to 145 sieves
    have too many of those to list."""
    rng = random.Random(seed)
    cats = []
    while len(cats) < count:
        cat = random_concrete_category(rng, f"concrete{len(cats)}")
        if cat is not None and all(len(sieves_on(cat, x)) <= 40 for x in cat.objects):
            cats.append(cat)
    return cats


ORACLE_FAMILY = monoid_categories(3) + random_concrete_categories(300)


def test_census_matches_product_search_on_small_categories():
    """The census through the Karoubi classes is every topology, once, with
    the label of the strictly full Karoubian subcategory inducing it."""
    for cat in ORACLE_FAMILY:
        census = enumerate_topologies(cat)
        assert len(census) == len(set(census))
        assert set(census) == set(product_search_topologies(cat)), cat.name
        labels = subset_scan_labels(cat)
        for top in census:
            key = tuple((x, frozenset(top.sieves_at(x))) for x in cat.objects)
            assert top.label == labels.get(key), cat.name


def test_up_closed_families_match_the_subset_scan():
    """The antichain enumeration of the oracle against a filter of every
    subset of the sieves, on the objects with at most 12 sieves; the
    family reaches objects with more than 12."""
    largest = 0
    for cat in ORACLE_FAMILY:
        for x in cat.objects:
            sieves = [s.members for s in sieves_on(cat, x)]
            largest = max(largest, len(sieves))
            if len(sieves) > 12:
                continue
            top = sieves.index(frozenset(cat.into(x)))
            scan = [set(subset) for r in range(len(sieves) + 1)
                    for subset in itertools.combinations(range(len(sieves)), r)
                    if top in subset and all(j in subset for i in subset
                                             for j in range(len(sieves))
                                             if sieves[i] <= sieves[j])]
            assert [set(f) for f in up_closed_families(sieves)] == scan, (cat.name, x)
    assert largest > 20


def test_dense_least_covers_match_the_definition():
    """dense_topology finds L_x without listing sieves; by definition the
    dense sieves are those meeting every f into x after a precomposition,
    and they are exactly the sieves containing L_x."""
    for cat in ORACLE_FAMILY:
        den = dense_topology(cat)
        for x in cat.objects:
            dense = [s for s in subset_scan_sieves(cat, x)
                     if all(any(cat.compose(f, g) in s.members for g in cat.into(cat.dom(f)))
                            for f in cat.into(x))]
            assert den.sieves_at(x) == tuple(dense), (cat.name, x)


def test_karoubian_subcategories_match_the_union_scan():
    for cat in ORACLE_FAMILY:
        assert [sub.objects for sub in strictly_full_karoubian_subcategories(cat)] == \
            [sub.objects for sub in iso_union_karoubian_subcategories(cat)]


def test_census_guard(monkeypatch):
    """CENSUS_GUARD bounds the 2^(Karoubi classes) candidate sets; on a
    Karoubian category the classes are the isomorphism classes."""
    assert len(enumerate_topologies(chain_poset(8))) == 2 ** 8
    with pytest.raises(EngineError, match=r"^topology census search space 8589934592 "
                                          r"exceeds the guard 4294967296$"):
        enumerate_topologies(chain_poset(33))
    monkeypatch.setattr(topology, "CENSUS_GUARD", 3)
    with pytest.raises(EngineError, match="^topology census search space 4 "
                                          "exceeds the guard 3$"):
        enumerate_topologies(idempotent_pair_category())


def test_finest_topology_for_terminal(chain3):
    finest = finest_topology_for(singleton_presheaf(chain3))
    assert finest == maximal_topology(chain3)


def test_finest_topology_contains_minimal(chain3):
    from finsite.presheaves import representable_presheaf
    f = representable_presheaf(chain3, "y")
    finest = finest_topology_for(f)
    assert minimal_topology(chain3).le(finest)


def test_finest_topology_nonbijective_map(chain3):
    """A presheaf whose structure maps merge points admits only the
    coarsest topology, which sits strictly below the one classified by
    the first two objects."""
    from finsite.presheaves import SetPresheaf
    f = SetPresheaf(chain3, {"x": ("c", "d"), "y": ("a", "b"), "z": (0, 1)},
                    {"1x": {"c": "c", "d": "d"}, "1y": {"a": "a", "b": "b"},
                     "1z": {0: 0, 1: 1}, "f": {"a": "c", "b": "c"},
                     "g": {0: "a", 1: "a"}, "gf": {0: "c", 1: "c"}})
    finest = finest_topology_for(f)
    jxy = subcategory_topology(chain3, ("x", "y"))
    assert finest.le(jxy) and finest != jxy
    assert finest == minimal_topology(chain3)


def test_finest_topology_with_singleton_bottom(chain3):
    """When the bottom value is a point, the empty sieve may cover there,
    and the finest topology climbs to the one classified by the top pair."""
    from finsite.presheaves import SetPresheaf
    f = SetPresheaf(chain3, {"x": ("c",), "y": ("a", "b"), "z": (0, 1)},
                    {"1x": {"c": "c"}, "1y": {"a": "a", "b": "b"},
                     "1z": {0: 0, 1: 1}, "f": {"a": "c", "b": "c"},
                     "g": {0: "a", 1: "a"}, "gf": {0: "c", 1: "c"}})
    finest = finest_topology_for(f)
    assert finest == subcategory_topology(chain3, ("y", "z"))


def test_empty_category_census():
    from finsite.category import validate_category
    empty = validate_category({"objects": [], "morphisms": [],
                               "identities": {}, "compose": []})
    tops = enumerate_topologies(empty)
    assert len(tops) == 1
    assert classify_topology(empty, tops[0]).objects == ()
