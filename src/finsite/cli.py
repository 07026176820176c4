"""Command-line front end.

Every command is a thin adapter over the library: select a category
(gallery generator or file), load any further artifacts, call one
operation, and return its result to ``main``, which alone writes it
out, as the canonical structured document or, where the command has
one, a human-readable summary. Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import gallery
from .algebras import (MAX_SKEW_TABLE_CELLS, GrothendieckConstruction,
                       constant_algebra_presheaf, field_algebra, skew_category_algebra,
                       verify_algebra)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise EngineError(f"cannot read {path}: {exc}") from None
    if doc["kind"] != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise EngineError(f"{path} holds a {doc['kind']!r}, expected {article} {kind}")
    return doc


def _load_category(args):
    if args.category:
        return category_from_doc(_read(args.category, "category"))
    if args.gallery:
        group = args.group
        if args.group_file:
            group = group_from_doc(_read(args.group_file, "group"))
            if args.gallery.strip().lower() not in ("group", "orbit", "orbit-p"):
                raise EngineError("--group-file only applies to the group "
                                  "and orbit galleries")
        return gallery.category_by_name(args.gallery, group=group, p=args.p)
    raise EngineError("select a category with --gallery or --category")


def _load_algebra_presheaf(args, cat):
    if args.algebra:
        return algebra_presheaf_from_doc(_read(args.algebra, "algebra-presheaf"), cat)
    field = field_by_label(args.constant_field)
    return constant_algebra_presheaf(cat, field_algebra(field))


def _select_topology(args, cat):
    chosen = [bool(args.topology), args.objects is not None,
              args.dense, args.minimal, args.maximal]
    if sum(chosen) != 1:
        raise EngineError("select exactly one topology: --topology FILE, "
                          "--objects LIST, --dense, --minimal, or --maximal")
    if args.topology:
        return topology_from_doc(_read(args.topology, "topology"), cat)
    if args.objects is not None:
        return subcategory_topology(cat, _parse_objects(args.objects))
    if args.dense:
        return dense_topology(cat)
    if args.minimal:
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


def _sieve_cell(cat, sieve) -> str:
    if not sieve.members:
        return "{}"
    if sieve.members == frozenset(cat.into(sieve.target)):
        return "max"
    return "{" + ",".join(sorted(sieve.members, key=lambda m: cat.mor_index[m])) + "}"


def _topology_table(cat, tops) -> str:
    """A minimal-covering-sieve grid, one row per topology."""
    table = [["topology", *cat.objects]] + [
        [top.label or "J?"] + [_sieve_cell(cat, top.minimal_cover(x)) for x in cat.objects]
        for top in tops]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- options shared by several commands, as (flags, keywords) -------------


def _opt(*flags, **keywords):
    return flags, keywords


SOURCE = (_opt("--gallery", help="gallery category name, e.g. chain3"),
          _opt("--group", help="group name for group/orbit galleries"),
          _opt("--group-file", help="group document file, an alternative to --group"),
          _opt("--p", type=int, help="prime for p-orbit galleries"),
          _opt("--category", help="category document file"))
FIELD = (_opt("--constant-field", default="Q",
              help="field token (Q, or a prime like 5) for constant coefficients"),
         _opt("--algebra", help="algebra-presheaf document file"))
TOPOLOGY = (_opt("--topology", help="topology document file"),
            _opt("--objects", help="comma-separated subcategory objects "
                                   "(commas inside braces are part of a name)"),
            _opt("--dense", action="store_true"),
            _opt("--minimal", action="store_true"),
            _opt("--maximal", action="store_true"))
PRESHEAF = _opt("--presheaf", required=True)

GROUPS = {"cat": "category validation and info",
          "gallery": "stock categories",
          "top": "Grothendieck topologies",
          "sheaf": "sheaf condition and sheafification",
          "alg": "skew category algebras",
          "mod": "modules and equivalences"}
COMMANDS = {}  # (group, name) -> (options, handler), in declaration order


def _command(group, name, *options):
    """Declare the command `finsite GROUP NAME` with its options.

    The handler returns a document; a document and a function giving its
    summary text, for --format summary; or a document and an exit status.
    """
    def declare(handler):
        COMMANDS[group, name] = options, handler
        return handler
    return declare


# -- command handlers -----------------------------------------------------


@_command("cat", "validate", _opt("--category", required=True))
def _cmd_cat_validate(args):
    doc = _read(args.category, "category")
    body = {k: v for k, v in doc.items() if k not in ("format", "kind")}
    try:
        cat = validate_category(body)
    except InvalidCategoryError as exc:
        return {"valid": False, "problems": exc.problems}, 1
    return {"valid": True, "objects": len(cat.objects), "morphisms": len(cat.morphisms)}, 0


@_command("cat", "info", *SOURCE)
def _cmd_cat_info(args):
    cat = _load_category(args)
    info = {"objects": list(cat.objects),
            "morphisms": len(cat.morphisms),
            "ei": is_ei(cat),
            "karoubian": is_karoubian(cat)}
    return info, lambda: "\n".join(f"{k}: {v}" for k, v in info.items())


@_command("gallery", "list")
def _cmd_gallery_list(args):
    return {"gallery": list(gallery.GALLERY_NAMES),
            "groups": ["trivial", "C<n>", "S<n> (n<=4)"]}


@_command("gallery", "show", _opt("name"), _opt("--group"), _opt("--p", type=int))
def _cmd_gallery_show(args):
    return category_to_doc(gallery.category_by_name(args.name, group=args.group, p=args.p))


@_command("top", "enumerate", *SOURCE)
def _cmd_top_enumerate(args):
    cat = _load_category(args)
    tops = enumerate_topologies(cat)
    for top in tops:
        top.label = top.label or "J?"
    return ({"count": len(tops), "topologies": [topology_to_doc(t) for t in tops]},
            lambda: f"{len(tops)} topologies\n" + _topology_table(cat, tops))


@_command("top", "subcat", *SOURCE, _opt("--objects", required=True))
def _cmd_top_subcat(args):
    cat = _load_category(args)
    top = subcategory_topology(cat, _parse_objects(args.objects))
    return topology_to_doc(top), lambda: _topology_table(cat, [top])


@_command("top", "classify", *SOURCE, _opt("--topology", required=True))
def _cmd_top_classify(args):
    cat = _load_category(args)
    sub = classify_topology(cat, topology_from_doc(_read(args.topology, "topology"), cat))
    return {"objects": list(sub.objects)}


@_command("top", "dense", *SOURCE)
def _cmd_top_dense(args):
    cat = _load_category(args)
    top = dense_topology(cat)
    return topology_to_doc(top), lambda: _topology_table(cat, [top])


@_command("sheaf", "check", *SOURCE, PRESHEAF, *TOPOLOGY)
def _cmd_sheaf_check(args):
    cat = _load_category(args)
    f = presheaf_from_doc(_read(args.presheaf, "presheaf"), cat)
    defect = sheaf_defect(f, _select_topology(args, cat))
    if defect is None:
        return {"sheaf": True}
    x, s = defect
    return {"sheaf": False, "object": x,
            "sieve": sorted(s.members, key=lambda m: cat.mor_index[m])}


@_command("sheaf", "sheafify", *SOURCE, PRESHEAF, *TOPOLOGY)
def _cmd_sheaf_sheafify(args):
    cat = _load_category(args)
    f = presheaf_from_doc(_read(args.presheaf, "presheaf"), cat)
    return presheaf_to_doc(sheafify(f, _select_topology(args, cat)))


@_command("sheaf", "kan", *SOURCE,
          _opt("--presheaf", required=True,
               help="presheaf document on the chosen full subcategory"),
          _opt("--objects", required=True))
def _cmd_sheaf_kan(args):
    cat = _load_category(args)
    sub = FullSubcategory(cat, _parse_objects(args.objects))
    g = presheaf_from_doc(_read(args.presheaf, "presheaf"), sub.category)
    return presheaf_to_doc(right_kan_extension(g, sub))


@_command("alg", "skew", *SOURCE, *FIELD)
def _cmd_alg_skew(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    dim = sum(r.algebra(m.dom).dim for m in cat.morphisms)
    if dim ** 3 > MAX_SKEW_TABLE_CELLS:
        raise EngineError(f"skew algebra document too large: dim {dim} gives "
                          f"{dim ** 3:,} table cells, limit {MAX_SKEW_TABLE_CELLS:,}")
    return skew_algebra_to_doc(skew_category_algebra(cat, r))


@_command("alg", "verify", *SOURCE, *FIELD)
def _cmd_alg_verify(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    problems = verify_algebra(skew_category_algebra(cat, r))
    return {"valid": not problems, "problems": problems}, 0 if not problems else 1


@_command("alg", "gr", *SOURCE, *FIELD)
def _cmd_alg_gr(args):
    cat = _load_category(args)
    gr = GrothendieckConstruction(cat, _load_algebra_presheaf(args, cat))
    return {"hom_sizes": {f"{x}->{y}": gr.hom_size(x, y)
                          for x in cat.objects for y in cat.objects}}


@_command("mod", "theta", *SOURCE, *FIELD, _opt("--module", required=True))
def _cmd_mod_theta(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    m = module_presheaf_from_doc(_read(args.module, "module-presheaf"), r)
    return algebra_module_to_doc(to_algebra_module(m))


@_command("mod", "omega", *SOURCE, *FIELD, _opt("--algebra-module", required=True))
def _cmd_mod_omega(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    skew = skew_category_algebra(cat, r)
    n = algebra_module_from_doc(_read(args.algebra_module, "algebra-module"), skew)
    return module_presheaf_to_doc(to_module_presheaf(n))


@_command("mod", "roundtrip", *SOURCE, *FIELD,
          _opt("--seed", type=int, default=0), _opt("--count", type=int, default=5))
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
    return ({"seed": report.seed, "count": report.count, "ok": report.ok,
             "results": results}, 0 if report.ok else 1)


@_command("mod", "transport", *SOURCE, *FIELD, _opt("--module", required=True),
          _opt("--objects", help="subcategory objects, or use --topology"),
          _opt("--topology", help="topology document; the classifying "
                                  "subcategory is computed"))
def _cmd_mod_transport(args):
    cat = _load_category(args)
    r = _load_algebra_presheaf(args, cat)
    m = module_presheaf_from_doc(_read(args.module, "module-presheaf"), r)
    if (args.objects is None) == (args.topology is None):
        raise EngineError("select the target with exactly one of --objects "
                          "or --topology")
    if args.topology:
        sub = classify_topology(cat, topology_from_doc(_read(args.topology, "topology"), cat))
    else:
        sub = FullSubcategory(cat, _parse_objects(args.objects))
    return algebra_module_to_doc(transport_module(m, sub))


@_command("mod", "blocks", *SOURCE, *FIELD)
def _cmd_mod_blocks(args):
    cat = _load_category(args)
    blocks = dense_block_decomposition(cat, _load_algebra_presheaf(args, cat))
    out = [{"class": list(b.class_objects),
            "representative": b.rep,
            "automorphisms": len(b.automorphisms),
            "dim": b.algebra.dim} for b in blocks]

    def summary():
        return "\n".join(
            [f"{len(blocks)} block(s), total dim {sum(b.algebra.dim for b in blocks)}"]
            + [f"  [{','.join(entry['class'])}] rep {entry['representative']}: "
               f"skew group algebra of dim {entry['dim']}" for entry in out])
    return {"blocks": out}, summary


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call to ``main``
    and shared by later calls: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="finsite",
        description="Exact computations with topologies, sheaves, and skew "
                    "category algebras on finite categories.")
    parser.add_argument("--format", choices=("structured", "summary"),
                        default="structured")
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {group: commands.add_parser(group, help=help_text)
              .add_subparsers(dest="subcommand", required=True)
              for group, help_text in GROUPS.items()}
    for (group, name), (options, handler) in COMMANDS.items():
        command = groups[group].add_parser(name)
        for flags, keywords in options:
            command.add_argument(*flags, **keywords)
        command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        doc, extra = result if isinstance(result, tuple) else (result, 0)
        summary = extra if callable(extra) else None
        if summary and args.format == "summary":
            sys.stdout.write(summary() + "\n")
        else:
            sys.stdout.write(dump_text(doc))
    except (EngineError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if summary else extra


if __name__ == "__main__":
    sys.exit(main())
