"""Command-line front end.

Every command is a thin adapter over the library: select a category
(gallery generator or file), load any further artifacts, call one
operation, and emit either the canonical structured document or a
human-readable summary. Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import gallery
from .algebras import (GrothendieckConstruction, constant_algebra_presheaf,
                       field_algebra, skew_category_algebra, verify_algebra)
from .category import (FullSubcategory, InvalidCategoryError, is_ei, is_karoubian,
                       validate_category)
from .errors import EngineError
from .fields import field_by_label
from .modules import (dense_block_decomposition, to_algebra_module,
                      to_module_presheaf, transport_module,
                      verify_equivalence_roundtrip)
from .serialize import (DocumentError, algebra_module_from_doc,
                        algebra_module_to_doc, algebra_presheaf_from_doc,
                        category_from_doc, category_to_doc, dump_text,
                        group_from_doc, load_text, module_presheaf_from_doc,
                        module_presheaf_to_doc, presheaf_from_doc,
                        presheaf_to_doc, skew_algebra_to_doc, topology_from_doc,
                        topology_to_doc)
from .sheaves import right_kan_extension, sheaf_defect, sheafify
from .topology import (classify_topology, dense_topology, enumerate_topologies,
                       maximal_topology, minimal_topology, subcategory_topology)


def _read(path: str, kind: str) -> dict:
    """The document in the file, which must be of the given kind."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = load_text(handle.read())
    except OSError as exc:
        raise EngineError(f"cannot read {path}: {exc}") from None
    if doc["kind"] != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise EngineError(f"{path} holds a {doc['kind']!r}, expected {article} {kind}")
    return doc


def _load_category(args):
    if getattr(args, "category", None):
        return category_from_doc(_read(args.category, "category"))
    if getattr(args, "gallery", None):
        group = getattr(args, "group", None)
        group_file = getattr(args, "group_file", None)
        if group_file:
            group = group_from_doc(_read(group_file, "group"))
            if args.gallery.strip().lower() not in ("group", "orbit", "orbit-p"):
                raise EngineError("--group-file only applies to the group "
                                  "and orbit galleries")
        return gallery.category_by_name(args.gallery, group=group,
                                        p=getattr(args, "p", None))
    raise EngineError("select a category with --gallery or --category")


def _load_presheaf(args, cat):
    return presheaf_from_doc(_read(args.presheaf, "presheaf"), cat)


def _load_algebra_presheaf(args, cat):
    if getattr(args, "algebra", None):
        return algebra_presheaf_from_doc(_read(args.algebra, "algebra-presheaf"), cat)
    field = field_by_label(args.constant_field)
    return constant_algebra_presheaf(cat, field_algebra(field))


def _select_topology(args, cat):
    chosen = [bool(getattr(args, "topology", None)),
              bool(getattr(args, "objects", None) is not None),
              bool(getattr(args, "dense", False)),
              bool(getattr(args, "minimal", False)),
              bool(getattr(args, "maximal", False))]
    if sum(chosen) != 1:
        raise EngineError("select exactly one topology: --topology FILE, "
                          "--objects LIST, --dense, --minimal, or --maximal")
    if getattr(args, "topology", None):
        return topology_from_doc(_read(args.topology, "topology"), cat)
    if getattr(args, "objects", None) is not None:
        return subcategory_topology(cat, _parse_objects(args.objects))
    if getattr(args, "dense", False):
        return dense_topology(cat)
    if getattr(args, "minimal", False):
        return minimal_topology(cat)
    return maximal_topology(cat)


def _parse_objects(text: str) -> tuple:
    """Split on the commas outside braces: orbit-category objects such as
    S3/{e,(23)} hold commas of their own."""
    if text.strip() == "":
        return ()
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return tuple(part.strip() for part in parts)


def _emit(doc_or_text):
    if isinstance(doc_or_text, str):
        sys.stdout.write(doc_or_text)
        if not doc_or_text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        sys.stdout.write(dump_text(doc_or_text))


def _sieve_cell(cat, sieve) -> str:
    if not sieve.members:
        return "{}"
    if sieve.members == frozenset(cat.into(sieve.target)):
        return "max"
    return "{" + ",".join(sorted(sieve.members, key=lambda m: cat.mor_index[m])) + "}"


def _topology_table(cat, tops) -> str:
    """A minimal-covering-sieve grid, one row per topology."""
    labels = []
    rows = []
    for top in tops:
        labels.append(top.label or "J?")
        rows.append([_sieve_cell(cat, top.minimal_cover(x)) for x in cat.objects])
    headers = ["topology"] + list(cat.objects)
    table = [headers] + [[lab] + row for lab, row in zip(labels, rows)]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- command handlers -----------------------------------------------------


def _cmd_cat_validate(args):
    doc = _read(args.category, "category")
    body = {k: v for k, v in doc.items() if k not in ("format", "kind")}
    try:
        cat = validate_category(body)
    except InvalidCategoryError as exc:
        _emit({"valid": False, "problems": exc.problems})
        return 1
    _emit({"valid": True, "objects": len(cat.objects), "morphisms": len(cat.morphisms)})
    return 0


def _cmd_cat_info(args):
    cat = _load_category(args)
    info = {"objects": list(cat.objects),
            "morphisms": len(cat.morphisms),
            "ei": is_ei(cat),
            "karoubian": is_karoubian(cat)}
    if args.format == "summary":
        _emit("\n".join(f"{k}: {v}" for k, v in info.items()))
    else:
        _emit(info)
    return 0


def _cmd_gallery_list(args):
    _emit({"gallery": list(gallery.GALLERY_NAMES),
           "groups": ["trivial", "C<n>", "S<n> (n<=4)"]})
    return 0


def _cmd_gallery_show(args):
    cat = gallery.category_by_name(args.name, group=args.group, p=args.p)
    _emit(category_to_doc(cat))
    return 0


def _cmd_top_enumerate(args):
    cat = _load_category(args)
    tops = enumerate_topologies(cat)
    for top in tops:
        top.label = top.label or "J?"
    if args.format == "summary":
        _emit(f"{len(tops)} topologies\n" + _topology_table(cat, tops))
    else:
        _emit({"count": len(tops),
               "topologies": [topology_to_doc(t) for t in tops]})
    return 0


def _cmd_top_subcat(args):
    cat = _load_category(args)
    top = subcategory_topology(cat, _parse_objects(args.objects))
    if args.format == "summary":
        _emit(_topology_table(cat, [top]))
    else:
        _emit(topology_to_doc(top))
    return 0


def _cmd_top_classify(args):
    cat = _load_category(args)
    sub = classify_topology(cat, topology_from_doc(_read(args.topology, "topology"), cat))
    _emit({"objects": list(sub.objects)})
    return 0


def _cmd_top_dense(args):
    cat = _load_category(args)
    top = dense_topology(cat)
    if args.format == "summary":
        _emit(_topology_table(cat, [top]))
    else:
        _emit(topology_to_doc(top))
    return 0


def _cmd_sheaf_check(args):
    cat = _load_category(args)
    f = _load_presheaf(args, cat)
    top = _select_topology(args, cat)
    defect = sheaf_defect(f, top)
    if defect is None:
        _emit({"sheaf": True})
    else:
        x, s = defect
        _emit({"sheaf": False, "object": x,
               "sieve": sorted(s.members, key=lambda m: cat.mor_index[m])})
    return 0


def _cmd_sheaf_sheafify(args):
    cat = _load_category(args)
    f = _load_presheaf(args, cat)
    top = _select_topology(args, cat)
    _emit(presheaf_to_doc(sheafify(f, top)))
    return 0


def _cmd_sheaf_kan(args):
    cat = _load_category(args)
    sub = FullSubcategory(cat, _parse_objects(args.objects))
    g = presheaf_from_doc(_read(args.presheaf, "presheaf"), sub.category)
    _emit(presheaf_to_doc(right_kan_extension(g, sub)))
    return 0


def _cmd_alg_skew(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    _emit(skew_algebra_to_doc(skew_category_algebra(cat, r)))
    return 0


def _cmd_alg_verify(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    problems = verify_algebra(skew_category_algebra(cat, r))
    _emit({"valid": not problems, "problems": problems})
    return 0 if not problems else 1


def _cmd_alg_gr(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    gr = GrothendieckConstruction(cat, r)
    sizes = {}
    for x in cat.objects:
        for y in cat.objects:
            sizes[f"{x}->{y}"] = gr.hom_size(x, y)
    _emit({"hom_sizes": sizes})
    return 0


def _cmd_mod_theta(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    m = module_presheaf_from_doc(_read(args.module, "module-presheaf"), r)
    _emit(algebra_module_to_doc(to_algebra_module(m)))
    return 0


def _cmd_mod_omega(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    skew = skew_category_algebra(cat, r)
    n = algebra_module_from_doc(_read(args.algebra_module, "algebra-module"), skew)
    _emit(module_presheaf_to_doc(to_module_presheaf(n)))
    return 0


def _cmd_mod_roundtrip(args):
    if args.count < 1:
        raise EngineError(f"--count must be at least 1, got {args.count}")
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    report = verify_equivalence_roundtrip(r, seed=args.seed, count=args.count)
    results = [{"instance": inst["instance"],
                "presheaf_dims": list(inst["presheaf_dims"]),
                "module_dim": inst["module_dim"],
                "unbundle_bundle": inst["unbundle_bundle_ok"],
                "bundle_unbundle": inst["bundle_unbundle_ok"]}
               for inst in report.instances]
    _emit({"seed": report.seed, "count": report.count, "ok": report.ok,
           "results": results})
    return 0 if report.ok else 1


def _cmd_mod_transport(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    m = module_presheaf_from_doc(_read(args.module, "module-presheaf"), r)
    if (args.objects is None) == (args.topology is None):
        raise EngineError("select the target with exactly one of --objects "
                          "or --topology")
    if args.topology:
        top = topology_from_doc(_read(args.topology, "topology"), cat)
        sub = classify_topology(cat, top)
    else:
        sub = FullSubcategory(cat, _parse_objects(args.objects))
        top = None
    n = transport_module(m, sub, top)
    _emit(algebra_module_to_doc(n))
    return 0


def _cmd_mod_blocks(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    blocks = dense_block_decomposition(cat, r)
    out = []
    for b in blocks:
        out.append({"class": list(b.class_objects),
                    "representative": b.rep,
                    "automorphisms": len(b.automorphisms),
                    "dim": b.algebra.dim})
    if args.format == "summary":
        lines = [f"{len(blocks)} block(s), total dim "
                 f"{sum(b.algebra.dim for b in blocks)}"]
        for entry in out:
            lines.append(f"  [{','.join(entry['class'])}] rep {entry['representative']}: "
                         f"skew group algebra of dim {entry['dim']}")
        _emit("\n".join(lines))
    else:
        _emit({"blocks": out})
    return 0


def _add_source(parser):
    parser.add_argument("--gallery", help="gallery category name, e.g. chain3")
    parser.add_argument("--group", help="group name for group/orbit galleries")
    parser.add_argument("--group-file", help="group document file, an "
                                             "alternative to --group")
    parser.add_argument("--p", type=int, help="prime for p-orbit galleries")
    parser.add_argument("--category", help="category document file")


def _add_field(parser):
    parser.add_argument("--constant-field", default="Q",
                        help="field token (Q, or a prime like 5) for constant "
                             "coefficients")
    parser.add_argument("--algebra", help="algebra-presheaf document file")


def _add_topology_selectors(parser):
    parser.add_argument("--topology", help="topology document file")
    parser.add_argument("--objects", help="comma-separated subcategory objects "
                                          "(commas inside braces are part of a name)")
    parser.add_argument("--dense", action="store_true")
    parser.add_argument("--minimal", action="store_true")
    parser.add_argument("--maximal", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsite",
        description="Exact computations with topologies, sheaves, and skew "
                    "category algebras on finite categories.")
    parser.add_argument("--format", choices=("structured", "summary"),
                        default="structured")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("cat", help="category validation and info")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    v = cat_sub.add_parser("validate")
    v.add_argument("--category", required=True)
    v.set_defaults(handler=_cmd_cat_validate)
    i = cat_sub.add_parser("info")
    _add_source(i)
    i.set_defaults(handler=_cmd_cat_info)

    gal = sub.add_parser("gallery", help="stock categories")
    gal_sub = gal.add_subparsers(dest="subcommand", required=True)
    gl = gal_sub.add_parser("list")
    gl.set_defaults(handler=_cmd_gallery_list)
    gs = gal_sub.add_parser("show")
    gs.add_argument("name")
    gs.add_argument("--group")
    gs.add_argument("--p", type=int)
    gs.set_defaults(handler=_cmd_gallery_show)

    top = sub.add_parser("top", help="Grothendieck topologies")
    top_sub = top.add_subparsers(dest="subcommand", required=True)
    te = top_sub.add_parser("enumerate")
    _add_source(te)
    te.set_defaults(handler=_cmd_top_enumerate)
    ts = top_sub.add_parser("subcat")
    _add_source(ts)
    ts.add_argument("--objects", required=True)
    ts.set_defaults(handler=_cmd_top_subcat)
    tc = top_sub.add_parser("classify")
    _add_source(tc)
    tc.add_argument("--topology", required=True)
    tc.set_defaults(handler=_cmd_top_classify)
    td = top_sub.add_parser("dense")
    _add_source(td)
    td.set_defaults(handler=_cmd_top_dense)

    sheaf = sub.add_parser("sheaf", help="sheaf condition and sheafification")
    sheaf_sub = sheaf.add_subparsers(dest="subcommand", required=True)
    sc = sheaf_sub.add_parser("check")
    _add_source(sc)
    sc.add_argument("--presheaf", required=True)
    _add_topology_selectors(sc)
    sc.set_defaults(handler=_cmd_sheaf_check)
    ss = sheaf_sub.add_parser("sheafify")
    _add_source(ss)
    ss.add_argument("--presheaf", required=True)
    _add_topology_selectors(ss)
    ss.set_defaults(handler=_cmd_sheaf_sheafify)
    sk = sheaf_sub.add_parser("kan")
    _add_source(sk)
    sk.add_argument("--presheaf", required=True,
                    help="presheaf document on the chosen full subcategory")
    sk.add_argument("--objects", required=True)
    sk.set_defaults(handler=_cmd_sheaf_kan)

    alg = sub.add_parser("alg", help="skew category algebras")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    ak = alg_sub.add_parser("skew")
    _add_source(ak)
    _add_field(ak)
    ak.set_defaults(handler=_cmd_alg_skew)
    av = alg_sub.add_parser("verify")
    _add_source(av)
    _add_field(av)
    av.set_defaults(handler=_cmd_alg_verify)
    ag = alg_sub.add_parser("gr")
    _add_source(ag)
    _add_field(ag)
    ag.set_defaults(handler=_cmd_alg_gr)

    mod = sub.add_parser("mod", help="modules and equivalences")
    mod_sub = mod.add_subparsers(dest="subcommand", required=True)
    mt = mod_sub.add_parser("theta")
    _add_source(mt)
    _add_field(mt)
    mt.add_argument("--module", required=True)
    mt.set_defaults(handler=_cmd_mod_theta)
    mo = mod_sub.add_parser("omega")
    _add_source(mo)
    _add_field(mo)
    mo.add_argument("--algebra-module", required=True)
    mo.set_defaults(handler=_cmd_mod_omega)
    mr = mod_sub.add_parser("roundtrip")
    _add_source(mr)
    _add_field(mr)
    mr.add_argument("--seed", type=int, default=0)
    mr.add_argument("--count", type=int, default=5)
    mr.set_defaults(handler=_cmd_mod_roundtrip)
    mtr = mod_sub.add_parser("transport")
    _add_source(mtr)
    _add_field(mtr)
    mtr.add_argument("--module", required=True)
    mtr.add_argument("--objects", help="subcategory objects, or use --topology")
    mtr.add_argument("--topology", help="topology document; the classifying "
                                        "subcategory is computed")
    mtr.set_defaults(handler=_cmd_mod_transport)
    mb = mod_sub.add_parser("blocks")
    _add_source(mb)
    _add_field(mb)
    mb.set_defaults(handler=_cmd_mod_blocks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (EngineError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
