"""sheafify on the dense site of an EI category, read off the fixed points,
equals two half-sheafification passes exactly: dims and every matrix, or
values and every map table in order, and the bytes of the document.

The members are the EI gallery members and two categories whose minimal
classes hold several objects, where a member u out of an object other
than its class's first is moved there by an isomorphism first: O(S3) on
its non-trivial subgroups, whose minimal classes are the three subgroups
of order two and A3, and a groupoid of two objects. O_2*(S3) and
O_3*(S4), groupoids of three and four objects, reach that branch too, but
on the orbit categories here the output does not change when that
isomorphism is left out; on the two-object groupoid the set output does.
"""

import random

import pytest

from finsite import sheaves
from finsite.category import FiniteCategory, FullSubcategory, Morphism, iso_class_poset
from finsite.fields import PrimeField, RationalField
from finsite.gallery import (category_by_name, idempotent_pair_category, orbit_category,
                             split_idempotent_category, symmetric_group)
from finsite.sampling import random_linear_presheaf, random_set_presheaf
from finsite.serialize import dump_text, presheaf_to_doc
from finsite.sheaves import half_sheafify, kan_extension, sheafify
from finsite.topology import (dense_topology, enumerate_topologies, minimal_topology,
                              subcategory_topology)

EI_MEMBERS = [("chain3",), ("chain4",), ("involution",), ("group", "C2"), ("group", "S3"),
              ("orbit", "C2"), ("orbit", "S3"), ("orbit", "S3", 2), ("orbit-p", "S3", 2),
              ("orbit-p", "S3", 3), ("orbit-p", "S4", 3), ("nontrivial", "S3"),
              ("groupoid",)]
FIELDS = {"set": None, "F2": PrimeField(2), "F5": PrimeField(5), "Q": RationalField(),
          "F(2^64-59)": PrimeField(2 ** 64 - 59)}
# Two seeds per case, one over Q, whose entries grow: about 6 s in all,
# 6-8% of the suite.
SEEDS = {"Q": 1}


def two_object_groupoid() -> FiniteCategory:
    """The connected groupoid on p and q with vertex group C2: a morphism
    (x, y, a) for each pair of objects and a in C2, composing by adding
    the a's. The last morphism into q is its identity, and the last into
    p is not the first from q, so the isomorphism from q to p shows in
    the entries moved from q."""
    names = [f"{x}{y}{a}" for x, y, a in ("pp0", "pp1", "qp0", "qp1", "pq0", "pq1", "qq1", "qq0")]
    morphisms = [Morphism(n, n[0], n[1]) for n in names]
    compose = {(g.name, f.name): f"{f.dom}{g.cod}{(int(f.name[2]) + int(g.name[2])) % 2}"
               for f in morphisms for g in morphisms if f.cod == g.dom}
    return FiniteCategory(("p", "q"), morphisms, {"p": "pp0", "q": "qq0"}, compose,
                          name="groupoid")


def member(spec):
    if spec[0] == "nontrivial":
        return orbit_category(symmetric_group(3), lambda h: len(h) > 1)
    if spec[0] == "groupoid":
        return two_object_groupoid()
    return category_by_name(spec[0], group=spec[1] if len(spec) > 1 else None,
                            p=spec[2] if len(spec) > 2 else None)


def assert_equal_exactly(got, want):
    if got.flavor == "set":
        assert got.values == want.values
        assert {n: list(t.items()) for n, t in got.maps.items()} == \
            {n: list(t.items()) for n, t in want.maps.items()}
    else:
        assert (got.dims, got.mats) == (want.dims, want.mats)
    assert dump_text(presheaf_to_doc(got)) == dump_text(presheaf_to_doc(want))


@pytest.mark.parametrize("flavour", FIELDS)
@pytest.mark.parametrize("spec", EI_MEMBERS, ids=lambda spec: " ".join(map(str, spec)))
def test_dense_sheafify_equals_two_passes(spec, flavour):
    cat, k = member(spec), FIELDS[flavour]
    top = dense_topology(cat)
    assert sheaves._dense_poset(cat, top) is not None
    for seed in range(SEEDS.get(flavour, 2)):
        rng = random.Random(seed)
        f = random_set_presheaf(cat, rng) if k is None else random_linear_presheaf(cat, k, rng)
        assert_equal_exactly(sheafify(f, top), half_sheafify(half_sheafify(f, top), top))


@pytest.mark.parametrize("spec,sizes", [(("nontrivial", "S3"), [1, 3]), (("groupoid",), [2])],
                         ids=["nontrivial S3", "groupoid"])
def test_the_transport_branch_is_reached(spec, sizes):
    """Minimal classes of several objects: the members out of their other
    objects are moved to the first by an isomorphism."""
    poset = iso_class_poset(member(spec))
    assert sorted(len(poset.classes[i]) for i in poset.minimal_class_indices()) == sizes


@pytest.mark.parametrize("flavour", ["set", "F5"])
def test_the_subcategory_topology_of_the_minimal_objects_takes_the_route(flavour):
    """J^D for D the minimal objects is the dense topology, whichever way
    it is chosen."""
    cat, k = member(("orbit", "S3")), FIELDS[flavour]
    top = subcategory_topology(cat, iso_class_poset(cat).minimal_objects())
    assert sheaves._dense_poset(cat, top) is not None
    rng = random.Random(4)
    f = random_set_presheaf(cat, rng) if k is None else random_linear_presheaf(cat, k, rng)
    assert_equal_exactly(sheafify(f, top), sheafify(f, dense_topology(cat)))


@pytest.mark.parametrize("spec", [("chain3",), ("involution",), ("orbit", "C2")],
                         ids=lambda spec: " ".join(spec))
def test_only_the_dense_topology_takes_the_route(spec):
    cat = member(spec)
    dense = dense_topology(cat)
    for top in enumerate_topologies(cat):
        assert (sheaves._dense_poset(cat, top) is not None) == (top == dense)


@pytest.mark.parametrize("make", [idempotent_pair_category, split_idempotent_category],
                         ids=["idem", "idem-split"])
def test_non_ei_members_keep_two_passes(make, monkeypatch, f5):
    def refuse(*args):
        raise AssertionError("the fixed-point route was taken")

    monkeypatch.setattr(sheaves, "_dense_sheafify", refuse)
    cat = make()
    rng = random.Random(5)
    for top in enumerate_topologies(cat):
        assert sheaves._dense_poset(cat, top) is None
        for f in (random_set_presheaf(cat, rng), random_linear_presheaf(cat, f5, rng)):
            sheafify(f, top)


RAN_MEMBERS = [("chain3",), ("chain4",), ("involution",), ("idem",), ("idem-split",),
               ("group", "C2"), ("group", "S3"), ("orbit", "C2"), ("orbit", "S3"),
               ("orbit", "S3", 2), ("orbit-p", "S3", 2)]


@pytest.mark.parametrize("flavour", ["set", "F5", "Q"])
def test_sheafify_is_the_right_kan_extension_of_the_restriction(flavour):
    """For D the objects x with 1_x in L_x, a topology whose least covers
    hold only morphisms out of D sheafifies F to Ran_D(F|_D), F|_D laid out
    as families over the maximal sieves of D, on sets and over F5 and Q.
    34 of the 64 topologies on these members qualify."""
    k = FIELDS[flavour]
    qualify = 0
    for spec in RAN_MEMBERS:
        cat = member(spec)
        for top in enumerate_topologies(cat):
            d = [x for x in cat.objects if cat.id_of(x) in top.least[x].members]
            if not all(cat.dom(u) in d for x in cat.objects for u in top.least[x].members):
                continue
            qualify += 1
            sub = FullSubcategory(cat, tuple(d))
            rng = random.Random(1)
            f = random_set_presheaf(cat, rng) if k is None else random_linear_presheaf(cat, k, rng)
            g = half_sheafify(f.restrict(sub), minimal_topology(sub.category))
            assert_equal_exactly(sheafify(f, top), kan_extension(g, sub)[0])
    assert qualify == 34
