"""The four workloads: their members, the documents made at set-up, and the
command list of one pass.

Set-up calls finsite's own samplers and serialisers, because making the
inputs is part of what ``setup_s`` measures. Every random document is
drawn from ``random.Random("<seed>/<tag>")`` and has a size fixed by the
workload, not by the draw, so that runs at different seeds do the same
amount of work on different inputs.
"""

from __future__ import annotations

import os
import random
from typing import Callable, NamedTuple

import yaml

import checks
from checks import Cat, Coefficients

WORKLOADS = ("census", "bundle", "sheafify", "rational")

# Gallery members as tuples (name, group, p), written as the CLI takes them.
CENSUS_MEMBERS = [("chain3",), ("chain4",), ("chain5",), ("chain6",),
                  ("involution",), ("idem",), ("idem-split",),
                  ("group", "C2"), ("group", "S3"), ("orbit", "C2"), ("orbit", "S3"),
                  ("orbit", "S3", 2), ("orbit-p", "S3", 3), ("orbit-p", "S4", 3),
                  # Refused today by the sieve guard (2^24 subsets); kept as
                  # operations that fail on every run.
                  ("group", "S4"), ("orbit", "S4", 3)]

BUNDLE_MEMBERS = [("chain4",), ("chain6",), ("involution",), ("orbit", "S3", 2),
                  ("orbit", "S3"), ("orbit-p", "S4", 3)]
RATIONAL_MEMBERS = [("chain3",), ("chain4",), ("involution",), ("orbit", "C2"),
                    ("group", "S3")]

# Linear presheaves are twisted sums of representables Hom(-, c), one per
# generator object c listed here (None: every object). Set presheaves are
# finsite's random quotients of representables, redrawn until their
# sizes per object equal the vector listed here.
SHEAFIFY_MEMBERS = {
    ("chain5",): (None, (2, 1, 1, 1, 1)),
    ("involution",): (None, (3, 1)),
    ("orbit", "C2"): (None, (3, 1)),
    ("orbit", "S3", 2): (("S3/{e,(23)}", "S3/{e,(12)}"), (3, 1, 1, 1)),
    ("orbit", "S3"): (("S3/{e,(23)}", "S3/S3"), (3, 1, 1, 1, 0, 0)),
}
LARGEST_RUNG = ("orbit", "S3", 2)

# mod roundtrip draws its instances inside finsite from --seed. Their sizes
# swing by 2.8x from seed to seed on O(S3), so its CLI seed is fixed.
ROUNDTRIP_SEED = 1
ROUNDTRIP_COUNT = {"F5": 2, "Q": 1}


class Op(NamedTuple):
    name: str
    argv: list
    check: Callable  # check(parsed stdout, context) raises CheckError


def source_args(member) -> list:
    out = ["--gallery", member[0]]
    if len(member) > 1:
        out += ["--group", member[1]]
    if len(member) > 2:
        out += ["--p", str(member[2])]
    return out


def member_label(member) -> str:
    return " ".join(str(m) for m in member)


def show_args(member) -> list:
    return ["gallery", "show", member[0]] + source_args(member)[2:]


class Builder:
    """Makes the documents of one workload in a work directory."""

    def __init__(self, workdir: str, seed: int):
        import finsite.gallery
        import finsite.serialize
        self.workdir = workdir
        self.seed = seed
        self.ser = finsite.serialize
        self.gallery = finsite.gallery
        self.files = {}

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{tag}")

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name + ".yaml")
        text = self.ser.dump_text(doc)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.files[name] = text
        return path

    def category(self, member):
        return self.gallery.category_by_name(member[0], group=member[1] if len(member) > 1 else None,
                                             p=member[2] if len(member) > 2 else None)

    def fixed_module(self, cat, r, gens, rng):
        """A random basis of the submodule of the free skew-algebra module
        generated by the object idempotents at the generators."""
        from finsite.algebras import skew_category_algebra
        from finsite.sampling import (free_module, random_invertible_matrix,
                                      submodule_closure, twist_algebra_module)
        skew = skew_category_algebra(cat, r)
        gens = cat.objects if gens is None else gens
        n = submodule_closure(free_module(skew, 1),
                              [skew.object_idempotent(c) for c in gens])
        return twist_algebra_module(n, random_invertible_matrix(skew.field, n.dim, rng))

    def fixed_module_presheaf(self, cat, r, gens, rng):
        from finsite.modules import to_module_presheaf
        from finsite.sampling import random_invertible_matrix, twist_module_presheaf
        m = to_module_presheaf(self.fixed_module(cat, r, gens, rng), check=False)
        twists = {x: random_invertible_matrix(r.field, m.dim(x), rng) for x in cat.objects}
        return twist_module_presheaf(m, twists)

    def linear_presheaf(self, cat, field, gens, rng):
        from finsite.algebras import constant_algebra_presheaf, field_algebra
        r = constant_algebra_presheaf(cat, field_algebra(field))
        return self.fixed_module_presheaf(cat, r, gens, rng).space

    def set_presheaf(self, cat, sizes, rng):
        from finsite.sampling import random_set_presheaf
        while True:
            f = random_set_presheaf(cat, rng)
            if tuple(len(f.at(x)) for x in cat.objects) == tuple(sizes):
                return f

    def sheaf_module(self, r, objects, rng):
        """A sheaf of modules for J^D: inverse transport of a fixed-size
        random module over R|_D[D], in a random basis per object."""
        from finsite.category import FullSubcategory
        from finsite.modules import transport_module_back
        from finsite.sampling import random_invertible_matrix, twist_module_presheaf
        cat = r.cat
        sub = FullSubcategory(cat, objects)
        n = self.fixed_module(sub.category, r.restrict(sub), None, rng)
        m = transport_module_back(n, r, sub)
        twists = {x: random_invertible_matrix(r.field, m.dim(x), rng) for x in cat.objects}
        return twist_module_presheaf(m, twists)


# -- checks shared by the op lists -------------------------------------------


def parse(text: str):
    return yaml.safe_load(text)


def topology_doc(cat: Cat, d) -> dict:
    """J^D as a topology document, from the checkers' own construction."""
    index = {m: i for i, m in enumerate(cat.morphisms)}
    covering = {}
    for x, sieves in cat.table(d).items():
        rows = [sorted(s, key=index.__getitem__) for s in sieves]
        covering[x] = sorted(rows, key=lambda r: (len(r), [index[m] for m in r]))
    return {"format": "finsite/1", "kind": "topology", "covering": covering}


def d_label(cat: Cat, d) -> str:
    return "D={" + "+".join(x for x in cat.objects if x in d) + "}"


def subcategory_selector(b: Builder, cat: Cat, d, tag: str) -> list:
    """--objects D where the names allow it, else a J^D topology document
    (object names such as S3/{e,(23)} hold commas, which --objects splits on)."""
    names = [x for x in cat.objects if x in d]
    if not any("," in x for x in names):
        return ["--objects", ",".join(names)]
    return ["--topology", b.write(tag, topology_doc(cat, d))]


# -- census ------------------------------------------------------------------


def census_ops(b: Builder) -> list:
    ops = []
    for member in CENSUS_MEMBERS:
        def check(out, ctx, member=member):
            checks.check_census(out, ctx.cat(member), member[0])
        ops.append(Op(f"top enumerate {member_label(member)}",
                      ["top", "enumerate"] + source_args(member), check))
    return ops


# -- sheafify and the sheaf half of rational -----------------------------------


def sheafify_op(member, cat: Cat, flavor: str, path: str, doc: dict, d, sel: list) -> Op:
    def check(out, ctx):
        checks.check_sheafify(out, doc, ctx.cat(member), d)
    dense = " dense" if sel == ["--dense"] else ""
    return Op(f"sheaf sheafify {flavor} {member_label(member)} {d_label(cat, d)}{dense}",
              ["sheaf", "sheafify"] + source_args(member) + ["--presheaf", path] + sel, check)


def sheaf_ops(b: Builder, member, field, gens, set_sizes, every_d: bool,
              fresh_docs: bool = False) -> list:
    """sheaf sheafify for every D (linear flavour with every_d) or for the
    first, middle and last D, and for the dense topology; sheaf check for
    the middle D; sheaf kan. On a linear presheaf and, when set sizes are
    given, a set presheaf. With
    fresh_docs every linear command gets a presheaf of its own, so that
    the costs of the commands, which over Q depend on the entries drawn,
    vary independently from seed to seed."""
    from finsite.category import FullSubcategory
    from finsite.serialize import category_to_doc, presheaf_to_doc
    tag = "-".join(str(m) for m in member)
    real = b.category(member)
    cat = Cat(category_to_doc(real))
    src = source_args(member)
    linear = {}

    def linear_doc(i: int):
        key = i if fresh_docs else 0
        if key not in linear:
            f = b.linear_presheaf(real, field, gens, b.rng(f"lin/{tag}/{field.label}/{key}"))
            doc = presheaf_to_doc(f)
            linear[key] = (b.write(f"lin-{tag}-{field.label}-{key}", doc), doc)
        return linear[key]

    sources = [("lin", linear_doc)]
    if set_sizes is not None:
        set_doc = presheaf_to_doc(b.set_presheaf(real, set_sizes, b.rng(f"set/{tag}")))
        set_file = (b.write(f"set-{tag}", set_doc), set_doc)
        sources.append(("set", lambda i: set_file))
    subsets = [d for d in cat.iso_closed_subsets() if cat.karoubian_within(d)]
    selectors = [(d, subcategory_selector(b, cat, d, f"top-{tag}-{i}"))
                 for i, d in enumerate(subsets)]
    picked = [selectors[i] for i in sorted({0, len(subsets) // 2, len(subsets) - 1})]
    dense = (checks.dense_subcategory(cat), ["--dense"])
    ops = []
    for flavor, source in sources:
        chosen = selectors if every_d and flavor == "lin" else picked
        for d, sel in chosen + [dense]:
            path, doc = source(len(ops))
            ops.append(sheafify_op(member, cat, flavor, path, doc, d, sel))
        d, sel = picked[1 if len(picked) > 1 else 0]
        path, doc = source(len(ops))

        def check(out, ctx, doc=doc, d=d):
            checks.check_sheaf_verdict(out, doc, ctx.cat(member), d)
        ops.append(Op(f"sheaf check {flavor} {member_label(member)} {d_label(cat, d)}",
                      ["sheaf", "check"] + src + ["--presheaf", path] + sel, check))
    # Right Kan extension from the iso class of the first object.
    first = cat.classes[0]
    sub = FullSubcategory(real, tuple(first))
    g = b.linear_presheaf(sub.category, field, None, b.rng(f"kan/{tag}/{field.label}"))
    gdoc = presheaf_to_doc(g)
    path = b.write(f"kan-{tag}-{field.label}", gdoc)

    def check(out, ctx, d=frozenset(first)):
        checks.check_kan(out, gdoc, ctx.cat(member), d)
    ops.append(Op(f"sheaf kan lin {member_label(member)} {d_label(cat, first)}",
                  ["sheaf", "kan"] + src + ["--presheaf", path, "--objects", ",".join(first)],
                  check))
    return ops


def sheafify_ops(b: Builder) -> list:
    from finsite.fields import PrimeField
    from finsite.serialize import category_to_doc, presheaf_to_doc
    k = PrimeField(5)
    ops = []
    for member, (gens, sizes) in SHEAFIFY_MEMBERS.items():
        ops += sheaf_ops(b, member, k, gens, sizes, every_d=True)
    # The largest rung: the free presheaf on O_2(S3), dims (15, 3, 3, 3),
    # sheafified for the dense topology.
    real = b.category(LARGEST_RUNG)
    cat = Cat(category_to_doc(real))
    doc = presheaf_to_doc(b.linear_presheaf(real, k, None, b.rng("lin-free")))
    path = b.write("lin-free", doc)
    ops.append(sheafify_op(LARGEST_RUNG, cat, "lin-free", path, doc,
                           checks.dense_subcategory(cat), ["--dense"]))
    return ops


# -- bundle and the module half of rational --------------------------------------


def module_ops(b: Builder, field, members) -> list:
    """mod roundtrip on constant and non-constant coefficients, mod theta
    and mod omega on random documents, mod transport of a random sheaf
    module across J^{x,y} on the chain of three."""
    from finsite.algebras import (chain_diagonal_algebra_presheaf,
                                  involution_group_algebra_presheaf)
    from finsite.serialize import (algebra_module_to_doc, algebra_presheaf_to_doc,
                                   module_presheaf_to_doc)
    ops = []
    count = ROUNDTRIP_COUNT[field.label]
    flag = "Q" if field.label == "Q" else str(field.char)

    def roundtrip_check(member):
        def check(out, ctx):
            checks.check_roundtrip(out, ctx.cat(member), count, ROUNDTRIP_SEED)
        return check

    for member in members:
        ops.append(Op(f"mod roundtrip {member_label(member)}",
                      ["mod", "roundtrip"] + source_args(member) +
                      ["--constant-field", flag, "--seed", str(ROUNDTRIP_SEED),
                       "--count", str(count)], roundtrip_check(member)))
    coefficients = [(("chain3",), chain_diagonal_algebra_presheaf(field), "chain-diagonal"),
                    (("involution",), involution_group_algebra_presheaf(field), "involution-kc2")]
    written = {}
    for member, r, name in coefficients:
        rdoc = algebra_presheaf_to_doc(r)
        rpath = written[name] = b.write(f"alg-{name}-{field.label}", rdoc)
        src = source_args(member) + ["--algebra", rpath]
        ops.append(Op(f"mod roundtrip {member_label(member)} {name}",
                      ["mod", "roundtrip"] + src + ["--seed", str(ROUNDTRIP_SEED),
                                                   "--count", str(count)],
                      roundtrip_check(member)))
        mdoc = module_presheaf_to_doc(
            b.fixed_module_presheaf(r.cat, r, None, b.rng(f"theta/{name}/{field.label}")))
        mpath = b.write(f"modpre-{name}-{field.label}", mdoc)
        ops.append(Op(f"mod theta {member_label(member)} {name}",
                      ["mod", "theta"] + src + ["--module", mpath],
                      module_check(member, rdoc, checks.check_bundled, mdoc)))
        ndoc = algebra_module_to_doc(
            b.fixed_module(r.cat, r, None, b.rng(f"omega/{name}/{field.label}")))
        npath = b.write(f"algmod-{name}-{field.label}", ndoc)
        ops.append(Op(f"mod omega {member_label(member)} {name}",
                      ["mod", "omega"] + src + ["--algebra-module", npath],
                      module_check(member, rdoc, checks.check_unbundled, ndoc)))
    # Transport across J^{x,y}: the chain-diagonal coefficients are a sheaf
    # of algebras there.
    member, r, name = coefficients[0]
    rdoc = algebra_presheaf_to_doc(r)
    objects = ("x", "y")
    for i in range(2):
        mdoc = module_presheaf_to_doc(
            b.sheaf_module(r, objects, b.rng(f"transport/{i}/{field.label}")))
        mpath = b.write(f"sheafmod-{i}-{field.label}", mdoc)
        ops.append(Op(f"mod transport {member_label(member)} {name} {i}",
                      ["mod", "transport"] + source_args(member) +
                      ["--algebra", written[name], "--module", mpath,
                       "--objects", ",".join(objects)],
                      module_check(member, rdoc, checks.check_bundled, mdoc, objects)))
    return ops


def module_check(member, rdoc: dict, checker, doc: dict, *rest) -> Callable:
    """A module checker run against the coefficient document rdoc."""
    def check(out, ctx):
        cat = ctx.cat(member)
        coeffs = Coefficients(rdoc, cat, checks.Field.from_label(rdoc["field"]))
        checker(out, doc, cat, coeffs, *rest)
    return check


def bundle_ops(b: Builder) -> list:
    from finsite.fields import PrimeField
    ops = module_ops(b, PrimeField(5), BUNDLE_MEMBERS)
    member = ("orbit", "S3")

    def check(out, ctx):
        checks.check_alg_verify(out, ctx.cat(member))
    ops.append(Op("alg verify orbit S3", ["alg", "verify"] + source_args(member) +
                  ["--constant-field", "5"], check))
    return ops


def rational_ops(b: Builder) -> list:
    from finsite.fields import RationalField
    q = RationalField()
    ops = module_ops(b, q, RATIONAL_MEMBERS)
    for member in RATIONAL_MEMBERS:
        ops += sheaf_ops(b, member, q, None, None, every_d=False, fresh_docs=True)
    return ops


BUILDERS = {"census": census_ops, "bundle": bundle_ops, "sheafify": sheafify_ops,
            "rational": rational_ops}
