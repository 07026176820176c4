"""The linear family solver on the roots of the link graph, forced on every
system whatever its size, against the solve of the whole link system and
the families compatible under every morphism: basis, dims and offsets."""

import itertools
import random

import pytest

from finsite import sheaves
from finsite.category import FullSubcategory, iso_class_poset
from finsite.fields import Matrix, PrimeField, RationalField, block_offsets, identity_matrix
from finsite.presheaves import LinearPresheaf
from finsite.sampling import random_linear_presheaf
from finsite.sieves import sieves_on

from oracles import all_links_families, link_system_families
from test_generators import label, member

FIELDS = {"F2": PrimeField(2), "F5": PrimeField(5), "F(2^64-59)": PrimeField(2 ** 64 - 59),
          "Q": RationalField()}
MEMBERS = [("chain3",), ("chain5",), ("involution",), ("idem",), ("idem-split",),
           ("group", "C2"), ("group", "S3"), ("orbit", "C2"), ("orbit", "S3", 2)]
EI_MEMBERS = [("chain3",), ("chain4",), ("involution",), ("group", "C2"), ("group", "S3"),
              ("orbit", "C2"), ("orbit", "S3", 2)]


def root_solved(f, members, doms, links):
    dims = tuple(f.at(x) for x in doms)
    return sheaves.FamilySpace(members, dims, block_offsets(dims)[0],
                               sheaves._root_solve(f, dims, links))


def assert_solvers_agree(f, members, doms, links):
    """The root solve, the selecting solver and the whole-system oracle give
    the same FamilySpace; returns it."""
    want = link_system_families(f, members, doms, links)
    assert root_solved(f, members, doms, links) == want, (members, links)
    assert sheaves._linked_families(f, members, doms, links) == want
    return want


def generator_links(f, cat, members):
    """The links sheaves.families solves: u to "v then u" per generator v
    of f.cat into dom u."""
    d = f.cat
    index = {u: i for i, u in enumerate(members)}
    return [(i, v, index[cat.compose(u, v)]) for i, u in enumerate(members)
            for v in d.into(cat.dom(u)) if v in d.generators]


def strictly_full_subcategories(cat):
    for size in range(1, len(cat.objects) + 1):
        for objects in itertools.combinations(cat.objects, size):
            sub = FullSubcategory(cat, objects)
            if sub.is_strictly_full():
                yield sub


# Over Q the oracles take about 4 s on the systems of orbit S3 2; its
# self-links and random links over Q are solved below.
CASES = [(spec, field) for spec in MEMBERS for field in FIELDS
         if (spec, field) != (("orbit", "S3", 2), "Q")]


@pytest.mark.parametrize("spec, field", CASES, ids=[f"{label(s)}-{f}" for s, f in CASES])
def test_root_solve_equals_the_whole_system_on_sieves_and_kan_members(spec, field):
    """Every sieve at each object (the minimal covers among them) and the
    morphisms from every strictly full D into each object, on seeded
    random presheaves."""
    cat, k = member(*spec), FIELDS[field]
    rng = random.Random(f"{label(spec)} {field}")
    f = random_linear_presheaf(cat, k, rng)
    cases = [(f, sheaves.member_order(cat, s)) for x in cat.objects for s in sieves_on(cat, x)]
    for sub in strictly_full_subcategories(cat):
        g = random_linear_presheaf(sub.category, k, rng)
        cases += [(g, sheaves._kan_members(sub, x)) for x in cat.objects]
    rooted = 0
    for f, members in cases:
        links = generator_links(f, cat, members)
        got = assert_solvers_agree(f, members, [cat.dom(u) for u in members], links)
        assert got == all_links_families(f, cat, members)
        assert sheaves.families(f, cat, members) == got
        rooted += len(sheaves._spanning_forest(len(members), links)[0]) < len(members)
    assert rooted, "no system had a member off the roots"


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("spec", EI_MEMBERS, ids=map(label, EI_MEMBERS))
def test_root_solve_equals_the_whole_system_on_fixed_point_self_links(spec, field):
    """The dense fixed-point formula's systems: each orbit representative
    linked to itself by its stabilizer, every member a root."""
    cat, k = member(*spec), FIELDS[field]
    poset = iso_class_poset(cat)
    for seed in range(3):
        f = random_linear_presheaf(cat, k, random.Random(f"{label(spec)} {field} {seed}"))
        for x in cat.objects:
            comps = sheaves.dense_components(cat, poset, x)
            links = [(i, h, i) for i, c in enumerate(comps) for h in c.stabilizer
                     if not cat.is_identity(h)]
            assert_solvers_agree(f, tuple(c.orbit_rep for c in comps),
                                 [c.rep_object for c in comps], links)


def random_links(cat, rng, n_members, n_links):
    """Members at random objects and random links (i, v, j), v: doms[j] ->
    doms[i]; the graph may have cycles, several roots and members that
    several roots reach."""
    doms = [rng.choice(cat.objects) for _ in range(n_members)]
    links = []
    for _ in range(n_links):
        i, j = rng.randrange(n_members), rng.randrange(n_members)
        hom = cat.hom(doms[j], doms[i])
        if hom:
            links.append((i, rng.choice(hom), j))
    return doms, links


@pytest.mark.parametrize("field", FIELDS)
def test_root_solve_equals_the_whole_system_on_random_links(field):
    k = FIELDS[field]
    rng = random.Random(field)
    dims = set()
    for spec in (("chain3",), ("involution",), ("orbit", "C2"), ("group", "S3"),
                 ("orbit", "S3", 2)):
        cat = member(*spec)
        f = random_linear_presheaf(cat, k, rng)
        for _ in range(12):
            n = rng.randint(1, 7)
            doms, links = random_links(cat, rng, n, rng.randint(0, 2 * n))
            dims.add(assert_solvers_agree(f, tuple(range(n)), doms, links).dim)
    assert len(dims) > 3


def test_spanning_forest_roots_are_the_top_components():
    """One root per strongly connected component that no other component
    reaches, and a forest in which each other member is reached once, from
    a root or a member reached before."""
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(0, 9)
        links = [(rng.randrange(n), None, rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))] \
            if n else []
        reach = [{i} for i in range(n)]
        for _ in range(n):
            for i, _, j in links:
                for r in reach:
                    if i in r:
                        r.add(j)
        top = {frozenset(i for i in range(n) if s in reach[i] and i in reach[s])
               for s in range(n) if all(s not in reach[i] or i in reach[s] for i in range(n))}
        roots, tree = sheaves._spanning_forest(n, links)
        assert sorted(roots) == roots and len(roots) == len(top)
        assert all(sum(r in c for r in roots) == 1 for c in top)
        seen = set(roots)
        for t, j in tree:
            assert links[t][2] == j and links[t][0] in seen and j not in seen
            seen.add(j)
        assert seen == set(range(n))


def _two_plus_zero(cat, k):
    """A presheaf on chain3 = x -f-> y -g-> z with F(y) = 0, F(x) = k^2 and
    F(z) = k^2."""
    zero = lambda rows, cols: Matrix(rows, cols, ((k.zero,) * cols,) * rows)  # noqa: E731
    mats = {"1x": identity_matrix(k, 2), "1y": identity_matrix(k, 0), "1z": identity_matrix(k, 2),
            "f": zero(2, 0), "g": zero(0, 2), "gf": zero(2, 2)}
    return LinearPresheaf(cat, k, {"x": 2, "y": 0, "z": 2}, mats)


@pytest.mark.parametrize("field", FIELDS)
def test_root_solve_edge_cases(field, chain3, involution):
    k = FIELDS[field]
    f = random_linear_presheaf(chain3, k, random.Random(field))
    # no members
    assert assert_solvers_agree(f, (), [], []).basis == Matrix(0, 0, ())
    # zero-dim blocks, a root among them, and a zero-dim member reached
    zero = _two_plus_zero(chain3, k)
    for doms, links in ((["y", "x"], [(0, "f", 1)]), (["z", "y", "x"], [(0, "g", 1), (1, "f", 2)]),
                        (["z", "x"], [(0, "gf", 1)]), (["y"], [])):
        assert_solvers_agree(zero, tuple(doms), doms, links)
    # one member linked to itself, by the swap and by the identity
    g = random_linear_presheaf(involution, k, random.Random(field))
    for h in ("h", "1x"):
        assert_solvers_agree(g, ("x",), ["x"], [(0, h, 0)])
    # two roots meeting at one member: y and z both reach x
    links = [(0, "f", 2), (1, "gf", 2)]
    roots, tree = sheaves._spanning_forest(3, links)
    assert (roots, len(tree)) == ([0, 1], 1)
    assert_solvers_agree(f, ("y", "z", "x"), ["y", "z", "x"], links)
