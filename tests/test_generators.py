"""The generating set of a category, and what is decided on it: compatible
families and functoriality tried on generators only, and coordinates read
off a null-space or column-space basis instead of solved for."""

import functools
import math
import os
import random
import subprocess
import sys

import pytest

import finsite
from finsite import modules, sampling, sheaves
from finsite.algebras import constant_algebra_presheaf, field_algebra, skew_category_algebra
from finsite.category import FullSubcategory, strictly_full_karoubian_subcategories
from finsite.errors import EngineError
from finsite.fields import (FieldError, Matrix, PrimeField, RationalField, basis_coordinates,
                            basis_rows, col_space, mat_mul, null_space, solve_matrix, unit_vec)
from finsite.gallery import category_by_name
from finsite.presheaves import (LinearPresheaf, PresheafError, SetPresheaf,
                                representable_presheaf)
from finsite.sampling import (free_module, random_algebra_module, random_linear_presheaf,
                              random_module_presheaf, random_set_presheaf,
                              random_sheaf_module)
from finsite.sieves import sieves_on
from finsite.topology import minimal_topology

from oracles import all_links_families, composition_closure, functoriality_scan
from test_topology import monoid_categories, random_concrete_categories

GALLERY = [("chain3",), ("chain4",), ("chain5",), ("chain6",), ("involution",), ("idem",),
           ("idem-split",), ("group", "C2"), ("group", "C3"), ("group", "S3"),
           ("group", "S4"), ("orbit", "C2"), ("orbit", "C3"), ("orbit", "S3"),
           ("orbit", "S3", 2), ("orbit", "S3", 3), ("orbit-p", "S3", 3),
           ("orbit-p", "S4", 3), ("orbit", "S4", 3), ("orbit", "S4", 2), ("orbit", "S4")]
FIELDS = {"F2": PrimeField(2), "F5": PrimeField(5), "Q": RationalField()}


def label(member) -> str:
    return " ".join(map(str, member))


@functools.lru_cache(maxsize=None)
def member(*spec):
    return category_by_name(spec[0], group=spec[1] if len(spec) > 1 else None,
                            p=spec[2] if len(spec) > 2 else None)


def non_identities(cat) -> set:
    return {m.name for m in cat.morphisms if not cat.is_identity(m.name)}


def check_generating_set(cat):
    gens = cat.generators
    rest = non_identities(cat)
    assert gens <= rest, cat.name
    assert composition_closure(cat, gens) & rest == rest, cat.name
    # a morphism that is no composite of two non-identities must be kept
    composites = {gf for (g, f), gf in cat.compose_table.items()
                  if not cat.is_identity(g) and not cat.is_identity(f)}
    assert rest - composites <= gens, cat.name


@pytest.mark.parametrize("spec", GALLERY, ids=map(label, GALLERY))
def test_generators_compose_to_exactly_the_non_identities(spec):
    check_generating_set(member(*spec))


def test_generators_of_small_and_random_categories():
    # monoids of order <= 3 and random concrete categories, most of them not EI
    for cat in monoid_categories(3) + random_concrete_categories(120, seed=11):
        check_generating_set(cat)


SIZES = {("chain5",): (10, 4), ("orbit", "S3"): (28, 11), ("orbit", "S4", 3): (83, 11),
         ("group", "S4"): (23, 3), ("orbit", "S4"): (684, 67)}


@pytest.mark.parametrize("spec", SIZES, ids=map(label, SIZES))
def test_generating_set_sizes(spec):
    cat = member(*spec)
    assert (len(non_identities(cat)), len(cat.generators)) == SIZES[spec]


def test_generators_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(finsite.__file__)))
    script = ("from finsite.gallery import category_by_name as c\n"
              "for cat in (c('orbit', group='S4'), c('orbit', group='S3', p=2), c('idem'),\n"
              "            c('idem-split'), c('group', group='S3'), c('chain6')):\n"
              "    print(sorted(cat.generators, key=cat.mor_index.get))\n")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") == 6


# -- families on generators against families on every link --------------------

FAMILY_MEMBERS = [("chain3",), ("chain5",), ("involution",), ("idem",), ("idem-split",),
                  ("group", "C2"), ("group", "S3"), ("orbit", "C2"), ("orbit", "S3", 2),
                  ("orbit", "S3")]
SET_PRODUCT_LIMIT = 20_000  # the set flavour filters the product of the pools


def family_cases(cat):
    """(presheaf's category owner, members) pairs: every sieve of cat, and
    the morphisms from each strictly full Karoubian D into each object."""
    for x in cat.objects:
        for s in sieves_on(cat, x):
            yield None, sheaves.member_order(cat, s)
    for sub in strictly_full_karoubian_subcategories(cat):
        if sub.objects:
            for x in cat.objects:
                yield sub, sheaves._kan_members(sub, x)


def assert_families_match(f_on, cat, seen):
    for sub, members in family_cases(cat):
        f = f_on(sub)
        if f.flavor == "set" and math.prod(
                len(f.at(cat.dom(u))) for u in members) > SET_PRODUCT_LIMIT:
            continue
        got = sheaves.families(f, cat, members)
        assert got == all_links_families(f, cat, members), (cat.name, members)
        seen.add(len(got) if f.flavor == "set" else got.dim)


# Over Q the all-links systems of orbit S3 take the oracle about 13 s.
LINEAR_FAMILY_CASES = [(spec, field) for spec in FAMILY_MEMBERS for field in FIELDS
                       if (spec, field) != (("orbit", "S3"), "Q")]


@pytest.mark.parametrize("spec, field", LINEAR_FAMILY_CASES,
                         ids=[f"{label(s)}-{f}" for s, f in LINEAR_FAMILY_CASES])
def test_linear_families_match_the_all_links_system(spec, field):
    cat, k = member(*spec), FIELDS[field]
    rng = random.Random(f"{label(spec)} {field}")
    whole = random_linear_presheaf(cat, k, rng)
    on_sub = {}

    def f_on(sub):
        if sub is None:
            return whole
        if sub.objects not in on_sub:
            on_sub[sub.objects] = random_linear_presheaf(sub.category, k, rng)
        return on_sub[sub.objects]

    seen = set()
    assert_families_match(f_on, cat, seen)
    assert seen - {0}, "only zero family spaces were compared"


@pytest.mark.parametrize("spec", FAMILY_MEMBERS, ids=map(label, FAMILY_MEMBERS))
def test_set_families_match_the_all_links_system(spec):
    cat = member(*spec)
    rng = random.Random(label(spec))
    presheaves = [representable_presheaf(cat, c) for c in cat.objects]
    presheaves += [random_set_presheaf(cat, rng) for _ in range(2)]
    seen = set()
    for whole in presheaves:
        assert_families_match(
            lambda sub: whole if sub is None else whole.restrict(sub), cat, seen)
    assert max(seen) > 1


# -- functoriality on generators, refusals named by the full scan ---------------

CORRUPT_MEMBERS = [("chain4",), ("involution",), ("idem-split",), ("group", "S3"),
                   ("orbit", "C3"), ("orbit", "S3", 2)]
# On these the first failing pair of some corruption has a non-generator g,
# so the refusal text needs the full scan.
NAMED_BY_THE_FULL_SCAN = [("chain4",), ("orbit", "S3", 2)]


def _corrupted_matrix(k, a: Matrix) -> Matrix:
    rows = [list(r) for r in a.data]
    rows[0][0] = k.add(rows[0][0], k.one)
    return Matrix(a.rows, a.cols, tuple(map(tuple, rows)))


@pytest.mark.parametrize("spec", CORRUPT_MEMBERS, ids=map(label, CORRUPT_MEMBERS))
def test_corruption_at_a_non_generator_is_refused_with_the_full_scan_text(spec):
    cat = member(*spec)
    targets = sorted(non_identities(cat) - cat.generators, key=cat.mor_index.get)
    assert targets
    targets = targets[::len(targets) // 5 + 1]
    named_by_non_generator = 0
    cases = 0
    for field, k in FIELDS.items():
        f = random_linear_presheaf(cat, k, random.Random(f"{label(spec)} {field}"))
        for h in targets:
            if not (f.mats[h].rows and f.mats[h].cols):
                continue
            mats = dict(f.mats, **{h: _corrupted_matrix(k, f.mats[h])})
            first = functoriality_scan(cat, mats, k)
            with pytest.raises(PresheafError) as err:
                LinearPresheaf(cat, k, f.dims, mats)
            assert str(err.value) == f"functoriality fails on ({first[0]!r},{first[1]!r})"
            named_by_non_generator += first[0] not in cat.generators
            cases += 1
    rng = random.Random(label(spec))
    for f in [representable_presheaf(cat, c) for c in cat.objects] + [
            random_set_presheaf(cat, rng) for _ in range(3)]:
        for h in targets:
            table = dict(f.maps[h])
            pool = f.at(cat.dom(h))
            if not table or len(pool) < 2:
                continue
            a = next(iter(table))
            table[a] = next(b for b in pool if b != table[a])
            maps = dict(f.maps, **{h: table})
            first = functoriality_scan(cat, maps)
            with pytest.raises(PresheafError) as err:
                SetPresheaf(cat, f.values, maps)
            assert str(err.value) == f"functoriality fails on ({first[0]!r},{first[1]!r})"
            named_by_non_generator += first[0] not in cat.generators
            cases += 1
    assert cases
    if spec in NAMED_BY_THE_FULL_SCAN:
        assert named_by_non_generator, "every refusal was found among the generators"


def test_valid_presheaves_pass_the_full_scan():
    for spec in CORRUPT_MEMBERS:
        cat = member(*spec)
        f = random_linear_presheaf(cat, FIELDS["F5"], random.Random(label(spec)))
        assert functoriality_scan(cat, f.mats, f.field) is None
        g = random_set_presheaf(cat, random.Random(label(spec)))
        assert functoriality_scan(cat, g.maps) is None


# -- coordinates in a basis with unit rows -------------------------------------


def _random_matrix(k, rng, rows, cols, density):
    return Matrix(rows, cols, tuple(
        tuple(k.rand(rng) if rng.random() < density else k.zero for _ in range(cols))
        for _ in range(rows)))


COORDINATE_FIELDS = {"F2": PrimeField(2), "F5": PrimeField(5),
                     "F(2^64-59)": PrimeField(2 ** 64 - 59), "Q": RationalField()}


def _with_single_entry_rows(k, rng, basis: Matrix) -> tuple[Matrix, list]:
    """basis with a repeated unit row and a row c e_s, c neither zero nor
    one where the field allows, inserted at random places, and the
    indices of the two rows; basis itself when it has no column."""
    if not basis.cols:
        return basis, []
    scale = k.of(rng.choice((2, 3, -1))) if k.char != 2 else k.one
    rows = [(row, False) for row in basis.data]
    for c in (k.one, scale):
        s = rng.randrange(basis.cols)
        rows.insert(rng.randint(0, len(rows)),
                    (tuple(c if j == s else k.zero for j in range(basis.cols)), True))
    return (Matrix(len(rows), basis.cols, tuple(row for row, _ in rows)),
            [i for i, (_, new) in enumerate(rows) if new])


def _bumped(k, y: Matrix, i: int) -> Matrix:
    """y with one added to the first entry of row i."""
    rows = [list(r) for r in y.data]
    rows[i][0] = k.add(rows[i][0], k.one)
    return Matrix(y.rows, y.cols, tuple(map(tuple, rows)))


@pytest.mark.parametrize("kind", [null_space, col_space], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("field", COORDINATE_FIELDS)
def test_basis_coordinates_equal_the_solver(field, kind):
    """On null_space and col_space bases, and on the same bases with a
    repeated unit row and a scaled unit row put in, whose strays differ
    from a vector of the span in one of those rows; the basis rows read
    once give the same answers."""
    k = COORDINATE_FIELDS[field]
    rng = random.Random(field + kind.__name__)
    outside = inside = moved = 0
    for trial in range(300):
        n = rng.randint(0, 7)
        shape = (rng.randint(0, 6), n)  # a col_space basis has n rows too
        a = _random_matrix(k, rng, *(shape if kind is null_space else shape[::-1]),
                           rng.choice((0.2, 0.5, 0.9)))
        for basis, singles in [(kind(k, a), [])] + [_with_single_entry_rows(k, rng, kind(k, a))]:
            rows = basis_rows(k, basis)
            m = rng.randint(0, 3)
            x = _random_matrix(k, rng, basis.cols, m, 0.7)
            y = mat_mul(k, basis, x)
            assert basis_coordinates(k, basis, y) == solve_matrix(k, basis, y) == x
            assert basis_coordinates(k, basis, y, rows) == x
            strays = [_random_matrix(k, rng, basis.rows, m, 0.6)]
            strays += [_bumped(k, y, i) for i in singles if m]
            for stray in strays:
                want = solve_matrix(k, basis, stray)
                assert basis_coordinates(k, basis, stray) == want
                assert basis_coordinates(k, basis, stray, rows) == want
                outside += want is None
                inside += want is not None and basis.cols < basis.rows
            moved += len(strays) - 1
    assert outside > 50 and inside > 50 and moved > 100


@pytest.mark.parametrize("field", COORDINATE_FIELDS)
def test_a_basis_column_without_a_unit_row_is_refused(field):
    """Column 0 of [[1, 1], [0, 1]] has no row equal to e_0, though the
    solver can still answer."""
    k = COORDINATE_FIELDS[field]
    basis = Matrix(2, 2, ((k.one, k.one), (k.zero, k.one)))
    y = Matrix(2, 1, ((k.one,), (k.zero,)))
    assert solve_matrix(k, basis, y) is not None
    with pytest.raises(FieldError, match="basis column 0 has no unit row"):
        basis_coordinates(k, basis, y)


def _leave_the_span(k, basis: Matrix, y: Matrix) -> Matrix:
    """y with one added to a row at which the unit vector is outside the
    span of basis (a pivot variable), or y when every row is free."""
    for i in range(basis.rows):
        e = Matrix(basis.rows, 1, tuple((k.one if r == i else k.zero,) for r in range(basis.rows)))
        if y.cols and solve_matrix(k, basis, e) is None:
            rows = [list(r) for r in y.data]
            rows[i][0] = k.add(rows[i][0], k.one)
            return Matrix(y.rows, y.cols, tuple(map(tuple, rows)))
    return y


def _sheafify_chain3(k):
    cat = member("chain3")
    f = random_linear_presheaf(cat, k, random.Random(2))  # dims 3, 2, 1
    sheaves.sheafify(f, minimal_topology(cat))


def _unit_chain3(k):
    cat = member("chain3")
    f = random_linear_presheaf(cat, k, random.Random(2))
    sheaves.unit_into_half_sheafification(f, minimal_topology(cat))


def _dense_orbit_c2(k):
    cat = member("orbit", "C2")
    f = random_linear_presheaf(cat, k, random.Random(2))  # dims 3, 1
    sheaves.dense_sheafify_fixed_points(f)


def _transport_back_chain3(k):
    cat = member("chain3")
    r = constant_algebra_presheaf(cat, field_algebra(k))
    sub = FullSubcategory(cat, ("x", "y"))
    skew = skew_category_algebra(sub.category, r.restrict(sub))
    modules.transport_module_back(random_algebra_module(skew, random.Random(2)), r, sub)


def _roundtrip_chain3(k):
    cat = member("chain3")
    r = constant_algebra_presheaf(cat, field_algebra(k))
    sub = FullSubcategory(cat, ("x", "y"))
    modules.transport_roundtrip_witness(random_sheaf_module(r, sub, random.Random(2)), sub)


def _skew_chain3(k):
    cat = member("chain3")
    r = constant_algebra_presheaf(cat, field_algebra(k))
    return r, skew_category_algebra(cat, r)


def _unbundle_chain3(k):
    _, skew = _skew_chain3(k)
    modules.to_module_presheaf(random_algebra_module(skew, random.Random(2)))


def _unbundle_witness_chain3(k):
    r, skew = _skew_chain3(k)
    modules.unbundle_bundle_witness(random_module_presheaf(r, random.Random(2), skew=skew), skew)


def _submodule_chain3(k):
    _, skew = _skew_chain3(k)
    sampling.submodule_closure(free_module(skew, 1), [unit_vec(k, skew.dim, 0)])


SITES = {
    "_pull/sheafify": (sheaves, _sheafify_chain3, "pulled family left the family space"),
    "_pull/dense": (sheaves, _dense_orbit_c2, "pulled family left the family space"),
    "_unit": (sheaves, _unit_chain3, "restriction family left the family space"),
    "_transport_back": (modules, _transport_back_chain3,
                        "componentwise action left the family space"),
    "transport_roundtrip_witness": (modules, _roundtrip_chain3,
                                    "restriction family left the Kan space"),
    "_unbundle/morphisms": (modules, _unbundle_chain3, "idempotent images are not preserved; "
                            "module data is inconsistent"),
    "_unbundle/actions": (modules, _unbundle_chain3,
                          "object action does not preserve the value"),
    "unbundle_bundle_witness": (modules, _unbundle_witness_chain3,
                                "value basis does not span the object block"),
    "submodule_closure": (sampling, _submodule_chain3, "span closure is not action-stable"),
}


def _called_from(site: str, frame) -> bool:
    """site names a function, or _unbundle/morphisms and _unbundle/actions
    the two loops of _unbundle, told apart by the action loop's bidx. In
    _pull/sheafify and _pull/dense the part after the slash names the
    route that reaches _pull, which only the run tells apart."""
    name, _, loop = site.partition("/")
    return frame.f_code.co_name == name and (
        not loop or ("bidx" in frame.f_locals) == (loop == "actions"))


@pytest.mark.parametrize("field", ["F5", "Q"])
@pytest.mark.parametrize("site", SITES)
def test_a_vector_leaving_the_span_gives_the_error_line(site, field, monkeypatch):
    """Each call site hands the helper its y; moved out of the span by one
    entry (only when the call comes from that site), the helper answers
    None and the site raises its own error line."""
    module, run, message = SITES[site]
    k = FIELDS[field]
    real = basis_coordinates
    moved = []

    def leaving(field, basis, y, *rows):
        if _called_from(site, sys._getframe(1)) and not moved:
            stray = _leave_the_span(field, basis, y)
            if stray is not y:
                moved.append(stray)
                assert real(field, basis, stray) is None
                return real(field, basis, stray, *rows)
        return real(field, basis, y, *rows)

    run(k)  # the site succeeds untouched
    monkeypatch.setattr(module, "basis_coordinates", leaving)
    with pytest.raises(EngineError) as err:
        run(k)
    assert moved and str(err.value) == message
