"""Laws checked by Light's test: associativity of category and group
tables and of the stored products of skew category algebras, and the
multiplicativity of module actions, each tried on the instances with a
generator in the middle and swept in full only when one of those fails.

Every check here corrupts one entry of a valid structure: a composite, a
group product, a stored skew product or an action matrix. The problem
list, or the message, must be the one of the full sweep in oracles.py,
and some of the cases of each kind must fail at a non-generator, so that
a check that stops at the generators would report less. The orbit
categories, which compose through a lookup from group element to
morphism, must be the ones the coset products build."""

import ast
import random

import pytest

from finsite import category, groups
from finsite.algebras import (SkewCategoryAlgebra, chain_diagonal_algebra_presheaf,
                              constant_algebra_presheaf, field_algebra,
                              involution_group_algebra_presheaf, skew_category_algebra,
                              swap_action_presheaf)
from finsite.category import FiniteCategory, InvalidCategoryError
from finsite.fields import Matrix, PrimeField
from finsite.gallery import category_by_name, group_by_name
from finsite.groups import FiniteGroup, InvalidGroupError
from finsite.modules import AlgebraModule, ModuleError, check_action
from finsite.sampling import random_algebra_module

from oracles import (action_failure, category_table_problems, coset_orbit_category,
                     group_table_problems, skew_verify_problems)
from test_topology import monoid_categories, random_concrete_categories

F5 = PrimeField(5)


def label(spec) -> str:
    return " ".join(map(str, spec))


def member(*spec):
    return category_by_name(spec[0], group=spec[1] if len(spec) > 1 else None,
                            p=spec[2] if len(spec) > 2 else None)


def failing_middles(problems) -> set:
    """The middle entries of the associativity failures in a problem list."""
    out = set()
    for p in problems:
        if p.startswith("associativity failure"):
            triple = p.removeprefix("associativity failure ").removeprefix("on basis triple ")
            out.add(ast.literal_eval(triple.split(": ")[0])[1])
    return out


# -- categories -----------------------------------------------------------------


def table_generators(cat: FiniteCategory, compose: dict) -> frozenset:
    """The generators the check finds on a table with cat's morphisms."""
    into = {x: [m.name for m in cat.morphisms if m.cod == x] for x in cat.objects}
    return category._generators({m.name: m.dom for m in cat.morphisms},
                                {m.name: m.cod for m in cat.morphisms},
                                cat.identity, compose, into)


def corrupted_composites(cat: FiniteCategory, rng: random.Random, count: int):
    """Tables of cat with the composite of one pair of non-identities moved
    to another morphism with its ends, which keeps the table typed and the
    identity laws true."""
    pairs = [(g, f) for (g, f), gf in cat.compose_table.items()
             if not cat.is_identity(g) and not cat.is_identity(f)
             and len(cat.hom(cat.dom(gf), cat.cod(gf))) > 1]
    for g, f in rng.sample(pairs, min(count, len(pairs))):
        gf = cat.compose_table[g, f]
        others = [h for h in cat.hom(cat.dom(gf), cat.cod(gf)) if h != gf]
        yield cat.compose_table | {(g, f): rng.choice(others)}


def assert_table_checks_match(cats, seed: str, count: int) -> int:
    """Compare the check with the full sweep on corrupted tables of cats;
    the number of tables with a failure at a non-generator."""
    rng = random.Random(seed)
    light = 0
    for cat in cats:
        for compose in corrupted_composites(cat, rng, count):
            args = (cat.objects, cat.morphisms, cat.identity, compose)
            expected = category_table_problems(*args)
            assert category._table_problems(*args) == expected
            light += bool(failing_middles(expected) - table_generators(cat, compose))
    return light


CORRUPT_CATEGORIES = [("involution",), ("idem-split",), ("group", "C3"), ("group", "S3"),
                      ("orbit", "C2"), ("orbit", "C3"), ("orbit", "S3"), ("orbit", "S3", 2),
                      ("orbit-p", "S4", 3), ("orbit", "S4", 3)]


@pytest.mark.parametrize("spec", CORRUPT_CATEGORIES, ids=label)
def test_a_corrupted_composite_is_reported_as_the_full_sweep_does(spec):
    cat = member(*spec)
    light = assert_table_checks_match([cat], label(spec), 6)
    if len(cat.morphisms) > 6:
        assert light, "every corruption was found among the generators"
    for compose in corrupted_composites(cat, random.Random(label(spec)), 6):
        expected = category_table_problems(cat.objects, cat.morphisms, cat.identity, compose)
        if expected:
            with pytest.raises(InvalidCategoryError) as err:
                FiniteCategory(cat.objects, cat.morphisms, cat.identity, compose)
            assert err.value.problems == expected
            break
    else:
        assert len(cat.morphisms) <= 6


def test_corrupted_random_categories_are_reported_as_the_full_sweep_does():
    cats = monoid_categories(3) + random_concrete_categories(60, seed=11)
    assert assert_table_checks_match(cats, "random categories", 3) >= 10


def random_magma_category(rng: random.Random, n: int) -> tuple:
    """One object, n morphisms with m0 the identity, the other products
    drawn at random: a table that is rarely associative."""
    names = [f"m{a}" for a in range(n)]
    compose = {(a, b): a if b == "m0" else b if a == "m0" else rng.choice(names)
               for a in names for b in names}
    return ["*"], [category.Morphism(a, "*", "*") for a in names], {"*": "m0"}, compose


def test_random_tables_are_reported_as_the_full_sweep_does():
    rng = random.Random(3)
    failing = 0
    for _ in range(60):
        args = random_magma_category(rng, rng.randint(1, 6))
        expected = category_table_problems(*args)
        assert category._table_problems(*args) == expected
        failing += bool(expected)
    assert failing >= 30


def test_a_valid_table_keeps_the_generators_its_check_found():
    """A checked build keeps the generators its check found, which are
    those a trusted build finds when asked (group categories are trusted)."""
    for spec in CORRUPT_CATEGORIES:
        cat = member(*spec)
        if spec[0] == "group":
            assert "generators" not in cat.__dict__
            continue
        kept = cat.__dict__["generators"]
        del cat.__dict__["generators"]
        assert cat.generators == kept, spec


# -- groups ---------------------------------------------------------------------


CORRUPT_GROUPS = ["C2", "C3", "C4", "C6", "S3", "S4"]


@pytest.mark.parametrize("name", CORRUPT_GROUPS)
def test_a_corrupted_group_product_is_reported_as_the_full_sweep_does(name):
    group = group_by_name(name)
    rng = random.Random(name)
    light = 0
    entries = sorted(group.table, key=lambda ab: (group.index[ab[0]], group.index[ab[1]]))
    for a, b in rng.sample(entries, min(8, len(entries))):
        table = dict(group.table)
        table[a, b] = rng.choice([c for c in group.elements if c != table[a, b]])
        expected = group_table_problems(group.elements, table)
        with pytest.raises(InvalidGroupError) as err:
            FiniteGroup(group.elements, table, name=name)
        assert err.value.problems == expected
        light += bool(failing_middles(expected)
                      - set(groups._generators(group.elements, table)))
    if len(group.elements) > 2:
        assert light, "every corruption was found among the generators"


def test_random_group_tables_are_reported_as_the_full_sweep_does():
    rng = random.Random(5)
    for _ in range(40):
        elements = [f"g{a}" for a in range(rng.randint(1, 6))]
        table = {(a, b): rng.choice(elements) for a in elements for b in elements}
        expected = group_table_problems(elements, table)
        try:
            FiniteGroup(elements, table)
            problems = []
        except InvalidGroupError as exc:
            problems = exc.problems
        assert problems == expected


# -- skew category algebras -----------------------------------------------------


def skew_algebras():
    for r in (chain_diagonal_algebra_presheaf(F5), involution_group_algebra_presheaf(F5),
              swap_action_presheaf(F5)):
        yield skew_category_algebra(r.cat, r)
    for spec in [("orbit", "C3"), ("orbit", "S3", 2), ("orbit-p", "S4", 3)]:
        cat = member(*spec)
        yield skew_category_algebra(cat, constant_algebra_presheaf(cat, field_algebra(F5)))


def test_a_corrupted_skew_product_is_reported_as_the_full_sweep_does():
    rng = random.Random(31)
    light = 0
    for skew in skew_algebras():
        assert skew.generating_basis() is not None
        assert skew.verify() == skew_verify_problems(skew) == []
        for _ in range(5):
            products = [dict(row) for row in skew.products]
            i = rng.choice([i for i, row in enumerate(products) if row])
            j = rng.choice(sorted(products[i]))
            cell = dict(products[i][j])
            t = rng.choice(sorted(cell))
            cell[t] = F5.add(cell[t], F5.one)
            products[i][j] = tuple((s, c) for s, c in sorted(cell.items()) if c)
            broken = SkewCategoryAlgebra(skew.cat, skew.r, F5, skew.basis_offset, products,
                                         skew.unit, skew.labels)
            expected = skew_verify_problems(broken)
            assert broken.verify() == expected
            gens = broken.generating_basis()
            if gens is not None:
                light += bool(failing_middles(expected) - {skew.labels[j] for j in gens})
    assert light >= 5


# -- module actions -------------------------------------------------------------


def test_a_corrupted_action_matrix_is_refused_as_the_full_sweep_does():
    rng = random.Random(17)
    light = 0
    for skew in skew_algebras():
        gens = skew.generating_basis()
        n = random_algebra_module(skew, rng)
        assert action_failure(skew, n.dim, n.actions) is None
        check_action(skew, n.dim, n.actions)
        for j in rng.sample(range(skew.dim), min(6, skew.dim)):
            a = n.actions[j]
            rows = [list(row) for row in a.data]
            r, c = rng.randrange(n.dim), rng.randrange(n.dim)
            rows[r][c] = F5.add(rows[r][c], F5.one)
            actions = list(n.actions)
            actions[j] = Matrix(a.rows, a.cols, tuple(map(tuple, rows)))
            expected = action_failure(skew, n.dim, actions)
            assert expected is not None
            with pytest.raises(ModuleError) as err:
                AlgebraModule(skew, n.dim, actions)
            assert str(err.value) == expected
            if expected.startswith("action not multiplicative"):
                named = ast.literal_eval(expected[expected.index("basis ") + 6:])
                light += skew.labels.index(named[1]) not in gens
    assert light >= 5


# -- orbit categories -----------------------------------------------------------


ORBIT_MEMBERS = [("orbit", "C2"), ("orbit", "C3"), ("orbit", "C4"), ("orbit", "S3"),
                 ("orbit", "S3", 2), ("orbit", "S3", 3), ("orbit-p", "S3", 3),
                 ("orbit-p", "S4", 3), ("orbit-p", "S4", 2), ("orbit", "S4", 2),
                 ("orbit", "S4", 3), ("orbit", "S4")]


@pytest.mark.parametrize("spec", ORBIT_MEMBERS, ids=label)
def test_orbit_composition_by_lookup_is_the_coset_construction(spec):
    cat = member(*spec)
    objects, morphisms, identity, compose = coset_orbit_category(
        cat.group, [cat.object_subgroup[x] for x in cat.objects])
    assert cat.objects == tuple(objects)
    assert cat.morphisms == tuple(morphisms)
    assert cat.identity == identity
    assert list(cat.compose_table.items()) == list(compose.items())
