"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions and constructors of finsite's
modules, in every finsite module that imported the name, so that each
call records a span: which bucket (layer metric) it belongs to, its
start and end, the span it nested in, and the command it served. Spans
are kept in compact arrays in memory until the end of the run. A
bucket's time is self time: the span minus the part its nested spans
cover, at reference speed (normalised by the kernel runs around the
command). Counts marked "computed" are derived from argument and result
shapes at the wrapped boundary, never from inside the program.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from array import array


def _prod_pool_sizes(args):
    f, s = args[0], args[1]
    out = 1
    for u in s.members:
        out *= len(f.at(f.cat.dom(u)))
    return out


# Computed counters: name -> fn(args, result) giving the increment.
COUNTERS = {
    "category.morphisms_built": lambda a, r: len(a[0].morphisms),
    "category.builds": lambda a, r: 1,
    "category.karoubian_subcats_calls": lambda a, r: 1,
    "topology.census_kept": lambda a, r: len(r),
    "serialize.load_kb": lambda a, r: len(a[0]) / 1024,
    "serialize.dump_kb": lambda a, r: len(r) / 1024,
    "sheaves.set_candidates": lambda a, r: _prod_pool_sizes(a),
    "sheaves.set_found": lambda a, r: len(r),
    "sheaves.defect_calls": lambda a, r: 1,
    "algebras.skew_calls": lambda a, r: 1,
    "algebras.skew_entries": lambda a, r: r.dim ** 3,
    "modules.bundled_entries": lambda a, r: len(r.actions) * r.dim * r.dim,
    "fields.mat_mul_madds": lambda a, r: a[1].rows * a[1].cols * a[2].cols,
    "fields.rref_cells": lambda a, r: a[1].rows * a[1].cols,
}

_CATEGORY_BUILD = ["validate_category", "category_problems", "FiniteCategory.__init__",
                   "FiniteCategory.full_subcategory"]
_KAROUBIAN = ["strictly_full_karoubian_subcategories", "is_karoubian", "karoubian_report",
              "is_ei", "iso_class_poset"]
_FIELDS_MATRIX = ["matrix", "matrix_from_cols", "identity_matrix", "zero_matrix", "mat_vec",
                  "mat_add", "mat_sub", "mat_scale", "transpose", "hstack", "vstack", "rank",
                  "null_space", "col_space", "solve_matrix", "solve", "inverse",
                  "is_invertible", "in_column_span"]

# (module, function or Class.method, bucket, counters)
SPECS = [
    ("cli", "main", "cli.self", ()),
    ("serialize", "load_text", "serialize.load", ("serialize.load_kb",)),
    ("serialize", "dump_text", "serialize.dump", ("serialize.dump_kb",)),
] + [("serialize", name, "serialize.doc", ()) for name in (
    "category_to_doc", "category_from_doc", "group_to_doc", "group_from_doc",
    "topology_to_doc", "topology_from_doc", "presheaf_to_doc", "presheaf_from_doc",
    "algebra_presheaf_to_doc", "algebra_presheaf_from_doc", "module_presheaf_to_doc",
    "module_presheaf_from_doc", "algebra_module_to_doc", "algebra_module_from_doc",
    "skew_algebra_to_doc")
] + [("gallery", name, "gallery.build", ()) for name in (
    "category_by_name", "chain_poset", "involution_category", "idempotent_pair_category",
    "split_idempotent_category", "group_category", "orbit_category", "p_orbit_category",
    "reduced_p_orbit_category", "cyclic_group", "symmetric_group", "group_by_name")
] + [("category", name, "category.build",
      ("category.builds", "category.morphisms_built") if name == "FiniteCategory.__init__"
      else ()) for name in _CATEGORY_BUILD
] + [("category", name, "category.karoubian_subcats",
      ("category.karoubian_subcats_calls",)
      if name == "strictly_full_karoubian_subcategories" else ()) for name in _KAROUBIAN
] + [
    ("sieves", "sieves_on", "sieves.enumerate", ()),
    ("sieves", "pullback_sieve", "sieves.pullback", ()),
    ("topology", "enumerate_topologies", "topology.census", ("topology.census_kept",)),
    ("topology", "check_topology", "topology.check", ()),
    ("topology", "classify_topology", "topology.classify", ()),
] + [("topology", name, "topology.induced", ()) for name in (
    "subcategory_topology", "dense_topology", "minimal_topology", "maximal_topology",
    "topology_from_minimal_covers")
] + [
    ("presheaves", "LinearPresheaf.__init__", "presheaves.build", ()),
    ("presheaves", "SetPresheaf.__init__", "presheaves.build", ()),
    ("sheaves", "set_matching_families", "sheaves.families",
     ("sheaves.set_candidates", "sheaves.set_found")),
    ("sheaves", "linear_matching_families", "sheaves.families", ()),
    ("sheaves", "sheafify", "sheaves.sheafify", ()),
    ("sheaves", "half_sheafify", "sheaves.sheafify", ()),
    ("sheaves", "unit_into_half_sheafification", "sheaves.sheafify", ()),
    ("sheaves", "dense_sheafify_fixed_points", "sheaves.sheafify", ()),
    ("sheaves", "right_kan_extension", "sheaves.kan", ()),
    ("sheaves", "rk_counit", "sheaves.kan", ()),
    ("sheaves", "extend_by_default", "sheaves.kan", ()),
    ("sheaves", "sheaf_defect", "sheaves.defect", ("sheaves.defect_calls",)),
    ("sheaves", "is_sheaf", "sheaves.defect", ()),
    ("algebras", "skew_category_algebra", "algebras.skew",
     ("algebras.skew_calls", "algebras.skew_entries")),
    ("algebras", "FiniteDimAlgebra.verify", "algebras.verify", ()),
    ("algebras", "verify_algebra", "algebras.verify", ()),
    ("algebras", "AlgebraPresheaf.__init__", "algebras.presheaf_check", ()),
    ("modules", "to_algebra_module", "modules.bundle", ("modules.bundled_entries",)),
    ("modules", "to_module_presheaf", "modules.unbundle", ()),
] + [("modules", name, "modules.witness", ()) for name in (
    "unbundle_bundle_witness", "bundle_unbundle_witness", "verify_equivalence_roundtrip",
    "transport_roundtrip_witness", "transport_back_roundtrip_witness")
] + [("modules", name, "modules.check", ()) for name in (
    "ModulePresheaf.__init__", "AlgebraModule.__init__", "is_module_presheaf_map",
    "is_module_presheaf_isomorphism", "is_algebra_module_map",
    "is_algebra_module_isomorphism")
] + [
    ("modules", "transport_module", "modules.transport", ()),
    ("modules", "transport_module_back", "modules.transport", ()),
] + [("sampling", name, "sampling.module", ()) for name in (
    "random_module_presheaf", "random_algebra_module", "random_sheaf_module",
    "twist_module_presheaf", "twist_algebra_module", "free_module", "regular_module",
    "submodule_closure", "quotient_module", "random_invertible_matrix")
] + [
    ("sampling", "random_linear_presheaf", "sampling.presheaf", ()),
    ("sampling", "random_set_presheaf", "sampling.presheaf", ()),
    ("fields", "mat_mul", "fields.mat_mul", ("fields.mat_mul_madds",)),
    ("fields", "rref", "fields.rref", ("fields.rref_cells",)),
] + [("fields", name, "fields.matrix", ()) for name in _FIELDS_MATRIX]

# Buckets whose every span counts as one call of the named metric.
CALL_METRICS = {
    "sieves.enumerate": "sieves.enumerate_calls", "sieves.pullback": "sieves.pullback_calls",
    "topology.check": "topology.check_calls", "topology.classify": "topology.classify_calls",
    "topology.induced": "topology.induced_calls", "sheaves.families": "sheaves.families_calls",
    "modules.bundle": "modules.bundle_calls", "modules.unbundle": "modules.unbundle_calls",
    "fields.mat_mul": "fields.mat_mul_calls", "fields.rref": "fields.rref_calls",
    "presheaves.build": "presheaves.builds",
}

SETUP = -1


class Tracer:
    """Installs the span wrappers and turns the spans into per-layer metrics."""

    def __init__(self):
        self.buckets = sorted({spec[2] for spec in SPECS})
        self.bucket_id = {b: i for i, b in enumerate(self.buckets)}
        self.span_bucket = array("i")
        self.span_parent = array("i")
        self.span_cmd = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.cmd = SETUP
        self.counters = {}  # (cmd, counter) -> total
        self.installed = []
        self.last = {}

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, orig, bucket: int, counters: tuple):
        starts, ends = self.span_start, self.span_end
        buckets, parents, cmds = self.span_bucket, self.span_parent, self.span_cmd
        stack = self.stack
        clock = time.perf_counter
        totals = self.counters
        fns = [(name, COUNTERS[name]) for name in counters]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            buckets.append(bucket)
            parents.append(stack[-1] if stack else -1)
            cmds.append(tracer.cmd)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for name, fn in fns:
                key = (tracer.cmd, name)
                totals[key] = totals.get(key, 0) + fn(args, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self):
        """Wrap every listed callable wherever finsite holds a reference to it."""
        for modname in {spec[0] for spec in SPECS}:
            importlib.import_module("finsite." + modname)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "finsite" or name.startswith("finsite.")}
        for modname, qualname, bucket, counters in SPECS:
            mod = mods["finsite." + modname]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, self.bucket_id[bucket], counters))
                self.installed.append((cls, attr, orig))
                continue
            orig = getattr(mod, qualname)
            wrapper = self._wrap(orig, self.bucket_id[bucket], counters)
            for holder in mods.values():
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapper)
                        self.installed.append((holder, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self.installed):
            setattr(holder, attr, orig)
        self.installed = []

    def on_command(self, op):
        self.cmd = self.cmd + 1 if self.cmd >= 0 else 0

    # -- results -----------------------------------------------------------------

    def metrics(self, passes: list, untraced_pass_s: float, setup) -> dict:
        """Per-layer metrics, each the median over the traced passes.

        passes holds, per traced pass, the kernel.Interval of every command
        in the order they were traced; setup is the traced set-up's."""
        n_ops = len(passes[0])
        factor = {SETUP: setup.s / setup.raw_s}
        for p, intervals in enumerate(passes):
            for i, t in enumerate(intervals):
                factor[p * n_ops + i] = t.s / t.raw_s if t.raw_s > 0 else 1.0
        per = {p: {} for p in list(range(len(passes))) + [SETUP]}

        def add(cmd, name, value):
            bucket = per[cmd // n_ops if cmd >= 0 else SETUP]
            bucket[name] = bucket.get(name, 0) + value

        names = self.buckets
        check_id = self.bucket_id["topology.check"]
        census_id = self.bucket_id["topology.census"]
        sampling_ids = {self.bucket_id["sampling.module"], self.bucket_id["sampling.presheaf"]}
        starts, ends = self.span_start, self.span_end
        n = len(starts)
        covered = [0.0] * n
        for i in range(n):
            par = self.span_parent[i]
            if par >= 0:
                covered[par] += ends[i] - starts[i]
        for i in range(n):
            cmd = self.span_cmd[i]
            f = factor[cmd]
            b = self.span_bucket[i]
            dur = ends[i] - starts[i]
            add(cmd, names[b] + "_s", (dur - covered[i]) * f)
            if names[b] in CALL_METRICS:
                add(cmd, CALL_METRICS[names[b]], 1)
            par = self.span_parent[i]
            if par < 0:
                add(cmd, "covered_s", dur * f)
            if b == check_id and par >= 0 and self.span_bucket[par] == census_id:
                add(cmd, "topology.census_tried", 1)
            if b in sampling_ids and (par < 0 or self.span_bucket[par] not in sampling_ids):
                add(cmd, "sampling.calls", 1)
        for (cmd, name), value in self.counters.items():
            add(cmd, name, value)
        pass_s = [sum(t.s for t in intervals) for intervals in passes]
        # Spans include the kernel samples taken inside them; intervals do not.
        sampled_s = [sum(t.sampling_s * factor[p * n_ops + i] for i, t in enumerate(intervals))
                     for p, intervals in enumerate(passes)]
        values = {name: [] for name, _unit, _better in METRICS}
        for p in range(len(passes)):
            got = per[p]
            got["trace.uncovered_s"] = pass_s[p] + sampled_s[p] - got.get("covered_s", 0.0)
            got["trace.overhead"] = pass_s[p] / untraced_pass_s
            got["topology.census_yield"] = ratio(got.get("topology.census_kept", 0),
                                                 got.get("topology.census_tried", 0))
            got["sheaves.set_yield"] = ratio(got.get("sheaves.set_found", 0),
                                             got.get("sheaves.set_candidates", 0))
            got["setup.sampling_s"] = per[SETUP].get("sampling.module_s", 0.0) + \
                per[SETUP].get("sampling.presheaf_s", 0.0)
            got["setup.serialize_s"] = sum(per[SETUP].get(f"serialize.{b}_s", 0.0)
                                           for b in ("load", "dump", "doc"))
            for name in values:
                values[name].append(got.get(name, 0))
        self.last = per
        return {name: {"value": statistics.median(values[name]), "unit": unit}
                for name, unit, _better in METRICS}

    def write(self, directory: str, workload: str, seed: int) -> str:
        """Per-pass totals of every bucket and counter, for diagnosis."""
        out_dir = os.path.join(directory, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({str(k): v for k, v in self.last.items()}, handle, indent=1,
                      sort_keys=True)
        return os.path.relpath(path, os.path.dirname(directory))


def ratio(a, b) -> float:
    return a / b if b else 1.0


def _metric(name: str):
    if name.endswith("_s"):
        return name, "s", "lower"
    if name.endswith("_kb"):
        return name, "KiB", "lower"
    if name.endswith("_yield"):
        return name, "ratio", "higher"
    if name == "trace.overhead":
        return name, "ratio", "lower"
    return name, "count", "lower"


METRICS = [_metric(name) for name in (
    "cli.self_s",
    "serialize.load_s", "serialize.load_kb", "serialize.dump_s", "serialize.dump_kb",
    "serialize.doc_s",
    "gallery.build_s",
    "category.build_s", "category.builds", "category.morphisms_built",
    "category.karoubian_subcats_s", "category.karoubian_subcats_calls",
    "sieves.enumerate_s", "sieves.enumerate_calls", "sieves.pullback_s",
    "sieves.pullback_calls",
    "topology.census_s", "topology.check_s", "topology.check_calls", "topology.census_yield",
    "topology.classify_s", "topology.classify_calls", "topology.induced_s",
    "topology.induced_calls",
    "presheaves.build_s", "presheaves.builds",
    "sheaves.families_s", "sheaves.families_calls", "sheaves.set_candidates",
    "sheaves.set_yield", "sheaves.sheafify_s", "sheaves.kan_s", "sheaves.defect_s",
    "sheaves.defect_calls",
    "algebras.skew_s", "algebras.skew_calls", "algebras.skew_entries", "algebras.verify_s",
    "algebras.presheaf_check_s",
    "modules.bundle_s", "modules.bundle_calls", "modules.bundled_entries",
    "modules.unbundle_s", "modules.unbundle_calls", "modules.witness_s", "modules.check_s",
    "modules.transport_s",
    "sampling.module_s", "sampling.presheaf_s", "sampling.calls",
    "fields.mat_mul_s", "fields.mat_mul_calls", "fields.mat_mul_madds", "fields.rref_s",
    "fields.rref_calls", "fields.rref_cells", "fields.matrix_s",
    "setup.sampling_s", "setup.serialize_s",
    "trace.uncovered_s", "trace.overhead")]
