"""Generated substructures reached in one step, against the oracles that
grow them round by round until nothing grows: the submodule a set of
vectors generates, the congruence of a random set presheaf, and the
co-ideal a set of objects generates."""

import itertools
import random

import pytest

from finsite import sampling
from finsite.algebras import (chain_diagonal_algebra_presheaf, constant_algebra_presheaf,
                              field_algebra, involution_group_algebra_presheaf,
                              skew_category_algebra, swap_action_presheaf)
from finsite.category import co_ideal_generated_by
from finsite.fields import mat_mul, solve_matrix
from finsite.sampling import (_span_closure, free_module, random_algebra_module,
                              random_set_presheaf, submodule_closure)
from finsite.serialize import presheaf_to_doc

from oracles import fixpoint_co_ideal, fixpoint_span_closure, propagated_set_presheaf
from test_generators import FAMILY_MEMBERS, FIELDS, label, member


def o2_s3_constant(k):
    return constant_algebra_presheaf(member("orbit", "S3", 2), field_algebra(k))


ALGEBRA_PRESHEAVES = {
    "chain3 diagonal": chain_diagonal_algebra_presheaf,
    "involution group algebra": involution_group_algebra_presheaf,
    "swap action": swap_action_presheaf,
    "O_2(S3) constant": o2_s3_constant,
}
# Twisted modules of the 24-dimensional O_2(S3) algebra over Q carry entries
# of about 70 digits, and the oracles take minutes on them; the small
# algebras cover Q.
SPAN_CASES = [(algebra, field) for algebra in ALGEBRA_PRESHEAVES for field in FIELDS
              if (algebra, field) != ("O_2(S3) constant", "Q")]


@pytest.mark.parametrize("algebra,field", SPAN_CASES)
def test_span_closure_in_one_step_equals_the_fixpoint(algebra, field):
    """On free and on sampled (twisted, so dense) modules, the column space
    of [V | a_1 V | ... | a_m V] is the span the oracle grows round by
    round, and submodule_closure's actions are the solutions on that span.
    quotient_module is compared with the greedy complement in test_modules."""
    k = FIELDS[field]
    r = ALGEBRA_PRESHEAVES[algebra](k)
    skew = skew_category_algebra(r.cat, r)
    rng = random.Random(f"span {field} {algebra}")
    proper = 0
    for trial in range(8):
        n = free_module(skew, 1) if trial % 2 else random_algebra_module(skew, rng)
        vectors = [tuple(k.rand(rng) if rng.random() < 0.3 else k.zero for _ in range(n.dim))
                   for _ in range(rng.randint(1, 2))]
        want = fixpoint_span_closure(n, vectors)
        assert _span_closure(n, vectors) == want
        sub = submodule_closure(n, vectors)
        assert sub.dim == want.cols
        assert list(sub.actions) == [solve_matrix(k, want, mat_mul(k, a, want))
                                     for a in n.actions]
        proper += 0 < want.cols < n.dim
    assert proper, "no proper submodule was generated"


# Over Q the random vectors of random_algebra_module are generic and
# generate the whole free module, so only the prime fields draw proper
# submodules and quotients here.
@pytest.mark.parametrize("field", ["F2", "F5"])
def test_sampled_modules_are_the_same_on_the_fixpoint_span(field, monkeypatch):
    """random_algebra_module draws free, sub and quot modules; with the
    oracle's span closure in place of the one step, every draw is equal."""
    r = o2_s3_constant(FIELDS[field])
    skew = skew_category_algebra(r.cat, r)
    seeds = range(12)
    got = [random_algebra_module(skew, random.Random(s)) for s in seeds]
    monkeypatch.setattr(sampling, "_span_closure", fixpoint_span_closure)
    want = [random_algebra_module(skew, random.Random(s)) for s in seeds]
    assert [(n.dim, n.actions) for n in got] == [(n.dim, n.actions) for n in want]
    assert len({n.dim for n in got}) > 2


@pytest.mark.parametrize("spec", FAMILY_MEMBERS, ids=map(label, FAMILY_MEMBERS))
def test_set_presheaf_congruence_in_one_step_equals_the_propagated_one(spec):
    cat = member(*spec)
    for seed in range(300):
        got = random_set_presheaf(cat, random.Random(seed))
        want = propagated_set_presheaf(cat, random.Random(seed))
        assert presheaf_to_doc(got) == presheaf_to_doc(want)


@pytest.mark.parametrize("spec", FAMILY_MEMBERS, ids=map(label, FAMILY_MEMBERS))
def test_co_ideal_in_one_pass_equals_the_fixpoint_on_every_object_subset(spec):
    cat = member(*spec)
    for size in range(len(cat.objects) + 1):
        for objects in itertools.combinations(cat.objects, size):
            assert co_ideal_generated_by(cat, objects) == fixpoint_co_ideal(cat, objects)
