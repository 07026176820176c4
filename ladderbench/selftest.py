"""Self-tests of the benchmark.

    python3 ladderbench/selftest.py            # checkers and BENCHMARK.json
    python3 ladderbench/selftest.py --determinism

The checker tests take a genuine output of each kind from finsite, show
that its checker accepts it, then corrupt it (a dropped topology, one
changed matrix entry, one wrong dimension, a flipped verdict) and show
that the checker rejects every corruption. The determinism guard runs
one pass of every workload under two PYTHONHASHSEED values and compares
the generated inputs and every command's stdout byte for byte.
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

FAILURES = []


def expect_pass(name, fn):
    try:
        fn()
    except CheckError as exc:
        FAILURES.append(f"{name}: a genuine output was rejected: {exc}")
        return
    print(f"ok   accepts  {name}")


def expect_reject(name, fn):
    try:
        fn()
    except (CheckError, KeyError, ValueError, IndexError) as exc:
        print(f"ok   rejects  {name}: {exc}")
        return
    FAILURES.append(f"{name}: a corrupted output was accepted")


def cli_out(argv):
    import finsite.cli
    code, out, err = run.run_command(finsite.cli, argv)
    assert code == 0, (argv, err)
    return workloads.parse(out)


def bump(matrix_rows):
    """Change one entry of a non-empty matrix."""
    for row in matrix_rows:
        if row:
            row[0] = row[0] + 1 if isinstance(row[0], int) else 0
            return True
    return False


def pad_object(doc, cat, x):
    """Direct sum with a one-dimensional value at x and zero maps: still a
    functor on a poset, but with a wrong dimension at x."""
    doc = copy.deepcopy(doc)
    doc["dims"][x] += 1
    for m in cat.morphisms:
        rows = doc["maps"][m]
        if cat.cod[m] == x:
            for r in rows:
                r.append(0)
        if cat.dom[m] == x:
            rows.append([0] * doc["dims"][cat.cod[m]])
        if m == cat.ident[x]:
            rows[-1][-1] = 1
    return doc


def doubled_module(doc):
    """The direct sum of an algebra module with itself."""
    doc = copy.deepcopy(doc)
    n = doc["dim"]
    doc["dim"] = 2 * n
    doc["actions"] = [[r + [0] * n for r in a] + [[0] * n + r for r in a]
                      for a in doc["actions"]]
    return doc


def test_census():
    cat = checks.Cat(cli_out(["gallery", "show", "chain3"]))
    out = cli_out(["top", "enumerate", "--gallery", "chain3"])
    expect_pass("census chain3", lambda: checks.check_census(out, cat, "chain3"))
    dropped = copy.deepcopy(out)
    dropped["topologies"].pop(3)
    dropped["count"] -= 1
    expect_reject("census chain3, a dropped topology",
                  lambda: checks.check_census(dropped, cat, "chain3"))
    relabelled = copy.deepcopy(out)
    relabelled["topologies"][2]["label"] = relabelled["topologies"][5]["label"]
    expect_reject("census chain3, a wrong label",
                  lambda: checks.check_census(relabelled, cat, "chain3"))
    orbit = checks.Cat(cli_out(["gallery", "show", "orbit", "--group", "C2"]))
    out = cli_out(["top", "enumerate", "--gallery", "orbit", "--group", "C2"])
    expect_pass("census orbit C2", lambda: checks.check_census(out, orbit, "orbit"))
    shrunk = copy.deepcopy(out)
    shrunk["topologies"][0]["covering"]["C2/C2"].pop()
    expect_reject("census orbit C2, a dropped covering sieve",
                  lambda: checks.check_census(shrunk, orbit, "orbit"))
    idem = checks.Cat(cli_out(["gallery", "show", "idem"]))
    out = cli_out(["top", "enumerate", "--gallery", "idem"])
    expect_pass("census idem", lambda: checks.check_census(out, idem, "idem"))
    dropped = copy.deepcopy(out)
    dropped["topologies"].pop(1)
    dropped["count"] -= 1
    expect_reject("census idem, a dropped topology",
                  lambda: checks.check_census(dropped, idem, "idem"))


def test_sheaves(b):
    from finsite.fields import PrimeField, RationalField
    from finsite.serialize import presheaf_to_doc
    member = ("chain3",)
    cat = checks.Cat(cli_out(["gallery", "show", "chain3"]))
    real = b.category(member)
    for field in (PrimeField(5), RationalField()):
        doc = presheaf_to_doc(b.linear_presheaf(real, field, None, b.rng(f"t/{field.label}")))
        path = b.write(f"lin-{field.label}", doc)
        d = frozenset({"x"})
        out = cli_out(["sheaf", "sheafify", "--gallery", "chain3", "--presheaf", path,
                       "--objects", "x"])
        name = f"sheafify {field.label} chain3 D={{x}}"
        expect_pass(name, lambda: checks.check_sheafify(out, doc, cat, d))
        changed = copy.deepcopy(out)
        assert bump(changed["maps"]["f"])
        expect_reject(name + ", one changed matrix entry",
                      lambda: checks.check_sheafify(changed, doc, cat, d))
        expect_reject(name + ", one wrong dimension",
                      lambda: checks.check_sheafify(pad_object(out, cat, "z"), doc, cat, d))
        expect_reject(name + ", input not sheafified",
                      lambda: checks.check_sheafify(doc, doc, cat, d))
        verdict = cli_out(["sheaf", "check", "--gallery", "chain3", "--presheaf", path,
                           "--objects", "x"])
        expect_pass(f"sheaf check {field.label}",
                    lambda: checks.check_sheaf_verdict(verdict, doc, cat, d))
        flipped = {"sheaf": not verdict["sheaf"], "object": "z", "sieve": ["gf"]}
        expect_reject(f"sheaf check {field.label}, a flipped verdict",
                      lambda: checks.check_sheaf_verdict(flipped, doc, cat, d))
    sub_real = real.full_subcategory(("x", "y"))
    g = presheaf_to_doc(b.linear_presheaf(sub_real, PrimeField(5), None, b.rng("kan")))
    path = b.write("kan", g)
    d = frozenset({"x", "y"})
    out = cli_out(["sheaf", "kan", "--gallery", "chain3", "--presheaf", path, "--objects", "x,y"])
    expect_pass("kan chain3 D={x,y}", lambda: checks.check_kan(out, g, cat, d))
    changed = copy.deepcopy(out)
    assert bump(changed["maps"]["gf"])
    expect_reject("kan, one changed matrix entry", lambda: checks.check_kan(changed, g, cat, d))
    expect_reject("kan, one wrong dimension",
                  lambda: checks.check_kan(pad_object(out, cat, "z"), g, cat, d))
    set_doc = presheaf_to_doc(b.set_presheaf(real, (2, 1, 1), b.rng("set")))
    path = b.write("set", set_doc)
    out = cli_out(["sheaf", "sheafify", "--gallery", "chain3", "--presheaf", path,
                   "--objects", "x"])
    d = frozenset({"x"})
    expect_pass("sheafify set chain3 D={x}", lambda: checks.check_sheafify(out, set_doc, cat, d))
    grown = copy.deepcopy(out)
    extra = "extra"
    first = grown["values"]["z"][0]
    grown["values"]["z"].append(extra)
    for m in cat.morphisms:
        if cat.cod[m] == "z":
            table = grown["maps"][m]
            table[extra] = extra if m == cat.ident["z"] else table[first]
    expect_reject("sheafify set, one wrong size",
                  lambda: checks.check_sheafify(grown, set_doc, cat, d))
    moved = copy.deepcopy(out)
    table = moved["maps"]["f"]
    key = next(iter(table))
    choices = [v for v in moved["values"]["x"] if v != table[key]]
    if choices:
        table[key] = choices[0]
        expect_reject("sheafify set, one changed map entry",
                      lambda: checks.check_sheafify(moved, set_doc, cat, d))


def test_modules(b):
    from finsite.algebras import chain_diagonal_algebra_presheaf
    from finsite.fields import PrimeField, RationalField
    from finsite.serialize import (algebra_module_to_doc, algebra_presheaf_to_doc,
                                   module_presheaf_to_doc)
    cat = checks.Cat(cli_out(["gallery", "show", "chain3"]))
    for field in (PrimeField(5), RationalField()):
        r = chain_diagonal_algebra_presheaf(field)
        rdoc = algebra_presheaf_to_doc(r)
        rpath = b.write(f"alg-{field.label}", rdoc)
        coeffs = checks.Coefficients(rdoc, cat, checks.Field.from_label(rdoc["field"]))
        src = ["--gallery", "chain3", "--algebra", rpath]
        mdoc = module_presheaf_to_doc(b.fixed_module_presheaf(r.cat, r, None, b.rng("m")))
        mpath = b.write(f"m-{field.label}", mdoc)
        out = cli_out(["mod", "theta"] + src + ["--module", mpath])
        name = f"theta {field.label}"
        expect_pass(name, lambda: checks.check_bundled(out, mdoc, cat, coeffs))
        changed = copy.deepcopy(out)
        assert bump(changed["actions"][0])
        expect_reject(name + ", one changed matrix entry",
                      lambda: checks.check_bundled(changed, mdoc, cat, coeffs))
        expect_reject(name + ", one wrong dimension",
                      lambda: checks.check_bundled(doubled_module(out), mdoc, cat, coeffs))
        ndoc = algebra_module_to_doc(b.fixed_module(r.cat, r, None, b.rng("n")))
        npath = b.write(f"n-{field.label}", ndoc)
        out = cli_out(["mod", "omega"] + src + ["--algebra-module", npath])
        name = f"omega {field.label}"
        expect_pass(name, lambda: checks.check_unbundled(out, ndoc, cat, coeffs))
        changed = copy.deepcopy(out)
        assert bump(changed["maps"]["f"])
        expect_reject(name + ", one changed matrix entry",
                      lambda: checks.check_unbundled(changed, ndoc, cat, coeffs))
        expect_reject(name + ", one wrong dimension",
                      lambda: checks.check_unbundled(out, doubled_module(ndoc), cat, coeffs))
        changed = copy.deepcopy(out)
        assert bump(changed["actions"]["x"][1])
        expect_reject(name + ", one changed action entry",
                      lambda: checks.check_unbundled(changed, ndoc, cat, coeffs))
        sdoc = module_presheaf_to_doc(b.sheaf_module(r, ("x", "y"), b.rng("s")))
        spath = b.write(f"s-{field.label}", sdoc)
        out = cli_out(["mod", "transport"] + src + ["--module", spath, "--objects", "x,y"])
        name = f"transport {field.label}"
        check = lambda o: checks.check_bundled(o, sdoc, cat, coeffs, ("x", "y"))  # noqa: E731
        expect_pass(name, lambda: check(out))
        changed = copy.deepcopy(out)
        assert bump(changed["actions"][2])
        expect_reject(name + ", one changed matrix entry", lambda: check(changed))
        expect_reject(name + ", one wrong dimension", lambda: check(doubled_module(out)))
    out = cli_out(["mod", "roundtrip", "--gallery", "chain3", "--constant-field", "5",
                   "--seed", "1", "--count", "2"])
    expect_pass("roundtrip", lambda: checks.check_roundtrip(out, cat, 2, 1))
    flipped = copy.deepcopy(out)
    flipped["results"][1]["bundle_unbundle"] = False
    expect_reject("roundtrip, a failed witness",
                  lambda: checks.check_roundtrip(flipped, cat, 2, 1))
    out = cli_out(["alg", "verify", "--gallery", "chain3", "--constant-field", "5"])
    expect_pass("alg verify", lambda: checks.check_alg_verify(out, cat))
    expect_reject("alg verify, reported invalid",
                  lambda: checks.check_alg_verify({"valid": False, "problems": ["x"]}, cat))
    broken = copy.deepcopy(cat)
    broken.comp[("g", "f")] = "g"
    expect_reject("alg verify, a table that is not associative",
                  lambda: checks.check_alg_verify(out, broken))


def test_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != spans.METRICS:
        FAILURES.append("BENCHMARK.json per_layer differs from spans.METRICS")
    else:
        print(f"ok   BENCHMARK.json lists the {len(declared)} traced metrics")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        FAILURES.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def test_determinism():
    """Inputs and stdout are byte-identical under two hash seeds."""
    base = tempfile.mkdtemp(dir=os.path.join(HERE, "work"))
    try:
        for workload in workloads.WORKLOADS:
            dirs = []
            for hash_seed in ("0", "1"):
                d = os.path.join(base, f"{workload}-{hash_seed}")
                subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                "--workload", workload, "--seed", "1", "--seconds", "1",
                                "--hash-seed", hash_seed, "--dump", d], check=True)
                dirs.append(d)
            names = sorted(os.listdir(dirs[0]))
            match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
            if mismatch or errors or sorted(os.listdir(dirs[1])) != names:
                FAILURES.append(f"determinism {workload}: differs in {mismatch + errors}")
            else:
                print(f"ok   {workload}: {len(match)} inputs and outputs byte-identical "
                      "under PYTHONHASHSEED 0 and 1")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main() -> int:
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    if "--determinism" in sys.argv[1:]:
        test_determinism()
    else:
        workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "work"))
        try:
            b = workloads.Builder(workdir, 7)
            test_census()
            test_sheaves(b)
            test_modules(b)
            test_benchmark_json()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for failure in FAILURES:
        print(f"FAIL {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
