import copy
import functools
import hashlib
import time

import pytest
import yaml

from finsite.cli import build_parser, main
from finsite.gallery import chain_poset
from finsite.serialize import (category_to_doc, dump_text, presheaf_to_doc,
                               topology_to_doc)
from finsite.presheaves import representable_presheaf, singleton_presheaf
from finsite.topology import dense_topology, subcategory_topology

from oracles import pure_yaml


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every command with a summary form, and one without (alg gr), which
# prints its YAML document under --format summary as well.
SUMMARIES = {
    "cat info": (["cat", "info", "--gallery", "involution"],
                 "objects: ['x', 'y']\nmorphisms: 5\nei: True\nkaroubian: True\n"),
    "top enumerate": (["top", "enumerate", "--gallery", "chain3"],
                      "8 topologies\n"
                      "topology   x    y    z\n"
                      "---------  ---  ---  ------\n"
                      "J^{x,y,z}  max  max  max\n"
                      "J^{x,y}    max  max  {gf,g}\n"
                      "J^{x,z}    max  {f}  max\n"
                      "J^{x}      max  {f}  {gf}\n"
                      "J^{y,z}    {}   max  max\n"
                      "J^{y}      {}   max  {gf,g}\n"
                      "J^{z}      {}   {}   max\n"
                      "J^{}       {}   {}   {}\n"),
    "top subcat": (["top", "subcat", "--gallery", "chain3", "--objects", "x,y"],
                   "topology  x    y    z\n"
                   "--------  ---  ---  ------\n"
                   "J^{x,y}   max  max  {gf,g}\n"),
    "top dense": (["top", "dense", "--gallery", "involution"],
                  "topology  x    y\n"
                  "--------  ---  -----\n"
                  "J_den     max  {f,g}\n"),
    "mod blocks": (["mod", "blocks", "--gallery", "orbit-p", "--group", "S3", "--p", "3",
                    "--constant-field", "5"],
                   "1 block(s), total dim 2\n"
                   "  [S3/{e,(123),(132)}] rep S3/{e,(123),(132)}: "
                   "skew group algebra of dim 2\n"),
    "alg gr": (["alg", "gr", "--gallery", "involution", "--constant-field", "2"],
               "hom_sizes: {x->x: 4, x->y: 4, y->x: 0, y->y: 2}\n"),
}


@pytest.mark.parametrize("command", SUMMARIES)
def test_top_enumerate_summary(capsys, command):
    argv, expected = SUMMARIES[command]
    assert run_cli(capsys, "--format", "summary", *argv) == (0, expected, "")


def test_top_enumerate_structured_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "top", "enumerate", "--gallery", "chain3")
    assert code == 0
    code, out2, _ = run_cli(capsys, "top", "enumerate", "--gallery", "chain3")
    assert out1 == out2
    doc = yaml.safe_load(out1)
    assert doc["count"] == 8


def test_alg_skew_dimension(capsys):
    code, out, _ = run_cli(capsys, "alg", "skew", "--gallery", "chain3",
                           "--constant-field", "5")
    assert code == 0
    doc = yaml.safe_load(out)
    assert doc["dim"] == 6


def test_mod_blocks_orbit(capsys):
    code, out, _ = run_cli(capsys, "mod", "blocks", "--gallery", "orbit-p",
                           "--group", "S3", "--p", "3", "--constant-field", "5")
    assert code == 0
    doc = yaml.safe_load(out)
    assert len(doc["blocks"]) == 1
    assert doc["blocks"][0]["dim"] == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["top", "explode"])
    assert exc.value.code == 2


def test_missing_category_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "top", "enumerate")
    assert code == 1
    assert "select a category" in err


def test_cat_validate_files(tmp_path, capsys):
    good = tmp_path / "cat.yaml"
    good.write_text(dump_text(category_to_doc(chain_poset(3))))
    code, out, _ = run_cli(capsys, "cat", "validate", "--category", str(good))
    assert code == 0
    assert yaml.safe_load(out)["valid"] is True

    doc = category_to_doc(chain_poset(3))
    doc["compose"] = [c for c in doc["compose"]
                      if not (c["g"] == "g" and c["f"] == "f")]
    bad = tmp_path / "bad.yaml"
    bad.write_text(dump_text(doc))
    code, out, _ = run_cli(capsys, "cat", "validate", "--category", str(bad))
    assert code == 1
    report = yaml.safe_load(out)
    assert report["valid"] is False
    assert any("missing composite" in p for p in report["problems"])


def test_malformed_file_diagnosed(tmp_path, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text("format: finsite/1\nkind: category\nobjects: [x\n")
    code, _, err = run_cli(capsys, "cat", "validate", "--category", str(broken))
    assert code == 1
    assert "YAML" in err or "error" in err


def test_sheaf_check_and_sheafify(tmp_path, capsys, chain3):
    cat_file = tmp_path / "cat.yaml"
    cat_file.write_text(dump_text(category_to_doc(chain3)))
    ps_file = tmp_path / "ps.yaml"
    ps_file.write_text(dump_text(presheaf_to_doc(representable_presheaf(chain3, "z"))))
    code, out, _ = run_cli(capsys, "sheaf", "check", "--category", str(cat_file),
                           "--presheaf", str(ps_file), "--objects", "x,y")
    assert code == 0
    first = yaml.safe_load(out)
    code, out, _ = run_cli(capsys, "sheaf", "sheafify",
                           "--category", str(cat_file),
                           "--presheaf", str(ps_file), "--objects", "x,y")
    assert code == 0
    doc = yaml.safe_load(out)
    assert doc["kind"] == "presheaf"


def test_topology_file_classify(tmp_path, capsys, chain3):
    cat_file = tmp_path / "cat.yaml"
    cat_file.write_text(dump_text(category_to_doc(chain3)))
    top_file = tmp_path / "top.yaml"
    top_file.write_text(dump_text(topology_to_doc(
        subcategory_topology(chain3, ("y", "z")))))
    code, out, _ = run_cli(capsys, "top", "classify", "--category", str(cat_file),
                           "--topology", str(top_file))
    assert code == 0
    assert yaml.safe_load(out)["objects"] == ["y", "z"]


def test_roundtrip_seeded_deterministic(capsys):
    args = ("mod", "roundtrip", "--gallery", "involution",
            "--constant-field", "2", "--seed", "9", "--count", "3")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert yaml.safe_load(out1)["ok"] is True


def test_gallery_show_and_list(capsys):
    code, out, _ = run_cli(capsys, "gallery", "show", "chain2")
    assert code == 0
    assert yaml.safe_load(out)["kind"] == "category"
    code, out, _ = run_cli(capsys, "gallery", "list")
    assert code == 0


def test_sheaf_kan_cli(tmp_path, capsys, chain3):
    cat_file = tmp_path / "cat.yaml"
    cat_file.write_text(dump_text(category_to_doc(chain3)))
    sub = chain3.full_subcategory(("x",))
    ps_file = tmp_path / "g.yaml"
    ps_file.write_text(dump_text(presheaf_to_doc(singleton_presheaf(sub))))
    code, out, _ = run_cli(capsys, "sheaf", "kan", "--category", str(cat_file),
                           "--presheaf", str(ps_file), "--objects", "x")
    assert code == 0
    doc = yaml.safe_load(out)
    assert all(len(v) == 1 for v in doc["values"].values())


def test_sheaf_kan_refuses_a_presheaf_on_more_than_the_subcategory(tmp_path, capsys, chain3):
    ps_file = tmp_path / "g.yaml"
    ps_file.write_text(dump_text(presheaf_to_doc(singleton_presheaf(chain3))))
    code, out, err = run_cli(capsys, "sheaf", "kan", "--gallery", "chain3",
                             "--presheaf", str(ps_file), "--objects", "x")
    assert (code, out) == (1, "")
    assert err == "error: presheaf: field 'values' names no object: 'y'\n"


def test_dense_topology_cli(capsys):
    code, out, _ = run_cli(capsys, "top", "dense", "--gallery", "chain3")
    assert code == 0
    doc = yaml.safe_load(out)
    assert doc["covering"]["z"][0] == ["gf"]


def test_group_file_input(tmp_path, capsys, c2):
    from finsite.serialize import group_to_doc
    group_file = tmp_path / "c2.yaml"
    group_file.write_text(dump_text(group_to_doc(c2)))
    code, out, _ = run_cli(capsys, "cat", "info", "--gallery", "orbit",
                           "--group-file", str(group_file))
    assert code == 0
    doc = yaml.safe_load(out)
    assert doc["morphisms"] == 4 and doc["ei"] is True


def test_group_file_refused_outside_group_galleries(tmp_path, capsys, c2):
    from finsite.serialize import group_to_doc
    group_file = tmp_path / "c2.yaml"
    group_file.write_text(dump_text(group_to_doc(c2)))
    code, out, err = run_cli(capsys, "cat", "info", "--gallery", "chain3",
                             "--group-file", str(group_file))
    assert code == 1 and out == ""
    assert err == "error: --group-file only applies to the group and orbit galleries\n"


def test_module_pipeline_through_files(tmp_path, capsys, chain3, f5):
    """theta, omega, and transport drive the library through documents."""
    import random

    from finsite.algebras import chain_diagonal_algebra_presheaf, \
        skew_category_algebra
    from finsite.category import FullSubcategory
    from finsite.sampling import random_sheaf_module
    from finsite.serialize import (algebra_module_to_doc,
                                   algebra_presheaf_to_doc,
                                   module_presheaf_to_doc)

    r = chain_diagonal_algebra_presheaf(f5)
    sub = FullSubcategory(chain3, ("x", "y"))
    top = subcategory_topology(chain3, sub)
    m = random_sheaf_module(r, sub, random.Random(12))

    cat_file = tmp_path / "cat.yaml"
    cat_file.write_text(dump_text(category_to_doc(chain3)))
    alg_file = tmp_path / "alg.yaml"
    alg_file.write_text(dump_text(algebra_presheaf_to_doc(r)))
    mod_file = tmp_path / "mod.yaml"
    mod_file.write_text(dump_text(module_presheaf_to_doc(m)))

    code, out, _ = run_cli(capsys, "mod", "theta", "--category", str(cat_file),
                           "--algebra", str(alg_file), "--module", str(mod_file))
    assert code == 0
    theta_doc = yaml.safe_load(out)
    assert theta_doc["dim"] == sum(m.dim(x) for x in chain3.objects)

    nm_file = tmp_path / "nm.yaml"
    nm_file.write_text(dump_text(theta_doc))
    code, out, _ = run_cli(capsys, "mod", "omega", "--category", str(cat_file),
                           "--algebra", str(alg_file),
                           "--algebra-module", str(nm_file))
    assert code == 0
    omega_doc = yaml.safe_load(out)
    assert omega_doc["dims"] == {x: m.dim(x) for x in chain3.objects}

    code, out, _ = run_cli(capsys, "mod", "transport", "--category", str(cat_file),
                           "--algebra", str(alg_file), "--module", str(mod_file),
                           "--objects", "x,y")
    assert code == 0
    assert yaml.safe_load(out)["dim"] == m.dim("x") + m.dim("y")

    # the same transport driven by a topology document instead
    from finsite.serialize import topology_to_doc as top_doc
    top_file = tmp_path / "jxy.yaml"
    top_file.write_text(dump_text(top_doc(top)))
    code, out2, _ = run_cli(capsys, "mod", "transport", "--category", str(cat_file),
                            "--algebra", str(alg_file), "--module", str(mod_file),
                            "--topology", str(top_file))
    assert code == 0
    assert out2 == out

    code, out, _ = run_cli(capsys, "alg", "gr", "--category", str(cat_file),
                           "--algebra", str(alg_file))
    assert code == 0
    sizes = yaml.safe_load(out)["hom_sizes"]
    assert sizes["x->z"] == 25      # one morphism with a two-dimensional fibre
    assert sizes["z->x"] == 0

    code, out, _ = run_cli(capsys, "alg", "verify", "--category", str(cat_file),
                           "--algebra", str(alg_file))
    assert code == 0
    assert yaml.safe_load(out)["valid"] is True


def test_objects_split_outside_braces(tmp_path, capsys):
    """Orbit-category object names hold commas; --objects keeps them whole."""
    from finsite.cli import _parse_objects
    from finsite.gallery import category_by_name
    assert _parse_objects("x, y") == ("x", "y")
    assert _parse_objects("") == ()
    d = "S3/{e,(23)},S3/{e,(12)},S3/{e,(13)}"
    objects = ("S3/{e,(23)}", "S3/{e,(12)}", "S3/{e,(13)}")
    assert _parse_objects(d) == objects
    cat = category_by_name("orbit", group="S3")
    jd = dump_text(topology_to_doc(subcategory_topology(cat, objects)))
    code, out, _ = run_cli(capsys, "top", "subcat", "--gallery", "orbit",
                           "--group", "S3", "--objects", d)
    assert code == 0
    assert out == jd
    top_file = tmp_path / "jd.yaml"
    top_file.write_text(jd)
    ps_file = tmp_path / "ps.yaml"
    ps_file.write_text(dump_text(presheaf_to_doc(
        representable_presheaf(cat, "S3/{e,(23)}"))))
    outs = []
    for selector in (["--objects", d], ["--topology", str(top_file)]):
        code, out, _ = run_cli(capsys, "sheaf", "sheafify", "--gallery", "orbit",
                               "--group", "S3", "--presheaf", str(ps_file), *selector)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_bad_scalar_is_one_error_line(tmp_path, capsys, chain3, f5):
    from finsite.presheaves import constant_linear_presheaf
    doc = presheaf_to_doc(constant_linear_presheaf(chain3, f5, 1))
    doc["maps"]["f"] = [["1/0"]]
    ps_file = tmp_path / "ps.yaml"
    ps_file.write_text(dump_text(doc))
    code, out, err = run_cli(capsys, "sheaf", "check", "--gallery", "chain3",
                             "--presheaf", str(ps_file), "--minimal")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'1/0'" in err


def test_cat_validate_checks_the_table_once(tmp_path, capsys, monkeypatch):
    import finsite.category
    good = tmp_path / "cat.yaml"
    good.write_text(dump_text(category_to_doc(chain_poset(3))))
    calls = []
    check = finsite.category._table_problems
    monkeypatch.setattr(finsite.category, "_table_problems",
                        lambda *a: calls.append(1) or check(*a))
    code, _, _ = run_cli(capsys, "cat", "validate", "--category", str(good))
    assert code == 0 and len(calls) == 1
    code, _, _ = run_cli(capsys, "cat", "info", "--category", str(good))
    assert code == 0 and len(calls) == 2


S3_F5 = ["--gallery", "orbit", "--group", "S3", "--constant-field", "5"]
S3 = ["--gallery", "orbit", "--group", "S3"]
# Documents named in braces are written once by the fixture s3_f5_documents.
HASH_SEED_ARGV = {"orbit S3": ["top", "enumerate", "--gallery", "orbit", "--group", "S3"],
                  "idem": ["top", "enumerate", "--gallery", "idem"],
                  "alg skew": ["alg", "skew", *S3_F5],
                  "alg verify": ["alg", "verify", *S3_F5],
                  "mod blocks": ["mod", "blocks", *S3_F5],
                  "sheaf sheafify": ["sheaf", "sheafify", *S3, "--presheaf", "{presheaf}",
                                     "--objects", "{objects}"],
                  "sheaf sheafify dense": ["sheaf", "sheafify", *S3, "--presheaf", "{presheaf}",
                                           "--dense"],
                  "sheaf kan": ["sheaf", "kan", *S3, "--presheaf", "{on_d}",
                                "--objects", "{objects}"],
                  "sheaf check": ["sheaf", "check", *S3, "--presheaf", "{presheaf}",
                                  "--objects", "{objects}"],
                  "mod transport": ["mod", "transport", *S3_F5, "--module", "{module}",
                                    "--objects", "{objects}"],
                  "cat validate": ["cat", "validate", "--category", "{category}"],
                  "cat info": ["cat", "info", *S3],
                  "gallery list": ["gallery", "list"],
                  "gallery show": ["gallery", "show", "orbit", "--group", "S3"],
                  "top subcat": ["top", "subcat", *S3, "--objects", "{objects}"],
                  "top classify": ["top", "classify", *S3, "--topology", "{topology}"],
                  "top dense": ["top", "dense", *S3],
                  "alg gr": ["alg", "gr", *S3_F5],
                  "mod theta": ["mod", "theta", *S3_F5, "--module", "{module}"],
                  "mod omega": ["mod", "omega", *S3_F5, "--algebra-module", "{algebra_module}"],
                  "mod roundtrip": ["mod", "roundtrip", *S3_F5, "--seed", "1", "--count", "1"]}


@pytest.fixture(scope="module")
def s3_f5_documents(tmp_path_factory):
    """The category orbit S3, an F5 presheaf on it, one on D = S3/1 and the
    subgroups of order 2, J^D, and a sheaf module for J^D with its bundled
    module."""
    import random

    from finsite.algebras import constant_algebra_presheaf, field_algebra
    from finsite.category import FullSubcategory
    from finsite.fields import PrimeField
    from finsite.gallery import orbit_category, symmetric_group
    from finsite.modules import to_algebra_module
    from finsite.sampling import random_linear_presheaf, random_sheaf_module
    from finsite.serialize import algebra_module_to_doc, module_presheaf_to_doc
    cat, k = orbit_category(symmetric_group(3)), PrimeField(5)
    sub = FullSubcategory(cat, ("S3/1", "S3/{e,(23)}", "S3/{e,(12)}", "S3/{e,(13)}"))
    rng = random.Random(3)
    module = random_sheaf_module(constant_algebra_presheaf(cat, field_algebra(k)), sub, rng)
    docs = {"category": category_to_doc(cat),
            "presheaf": presheaf_to_doc(random_linear_presheaf(cat, k, rng)),
            "on_d": presheaf_to_doc(random_linear_presheaf(sub.category, k, rng)),
            "topology": topology_to_doc(subcategory_topology(cat, sub.objects)),
            "module": module_presheaf_to_doc(module),
            "algebra_module": algebra_module_to_doc(to_algebra_module(module))}
    out = tmp_path_factory.mktemp("s3-f5")
    paths = {"objects": ",".join(sub.objects)}
    for name, doc in docs.items():
        (out / f"{name}.yaml").write_text(dump_text(doc))
        paths[name] = str(out / f"{name}.yaml")
    return paths


@pytest.mark.parametrize("argv", HASH_SEED_ARGV.values(), ids=HASH_SEED_ARGV.keys())
def test_top_enumerate_independent_of_hash_seed(argv, s3_f5_documents):
    import os
    import subprocess
    import sys

    import finsite
    argv = [arg.format(**s3_f5_documents) if arg.startswith("{") else arg for arg in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(finsite.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-m", "finsite.cli", *argv],
                             env=env, capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1] and outs[0]


@pytest.mark.parametrize("argv", [["top", "enumerate", "--gallery", "orbit", "--group", "S3"],
                                  ["gallery", "show", "orbit-p", "--group", "S3"]],
                         ids=["orbit", "orbit-p"])
@pytest.mark.parametrize("p", ["1", "0", "-2", "4", "1000"])
def test_non_prime_p_is_one_error_line(argv, p):
    # in a process of its own with a timeout, since p = 1 used to loop for ever
    run = run_cli_process(*argv, "--p", p)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == f"error: p-orbit categories need a prime p, and {p} is not prime\n"


def test_large_prime_p_answers_at_once():
    # p is tested by Miller-Rabin, not by trial division up to its square
    # root; above the group order only the trivial subgroup is a p-group
    argv = ("top", "enumerate", "--gallery", "orbit", "--group", "S3", "--p")
    large = run_cli_process(*argv, "1000000000000000003")
    assert (large.returncode, large.stderr) == (0, "")
    assert large.stdout == run_cli_process(*argv, "7").stdout


@pytest.mark.parametrize("source", [["orbit", "--group", "C180"],
                                    ["orbit-p", "--group", "C120", "--p", "2"]],
                         ids=["orbit C180", "orbit-p C120"])
def test_oversized_orbit_groups_are_refused_before_they_are_built(source):
    # building and checking C180 took 2.4 s before subgroups() refused it
    from finsite.groups import MAX_SUBGROUP_ORDER
    start = time.perf_counter()
    run = run_cli_process("cat", "info", "--gallery", *source)
    elapsed = time.perf_counter() - start
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert f"|G| <= {MAX_SUBGROUP_ORDER}," in run.stderr
    assert elapsed < 1.0


def test_group_gallery_is_not_held_to_the_subgroup_limit(capsys):
    # C25 rather than C180, whose group check of all 180^3 triples takes 2.5-3.5 s
    code, out, err = run_cli(capsys, "cat", "info", "--gallery", "group", "--group", "C25")
    assert (code, err) == (0, "") and yaml.safe_load(out)["morphisms"] == 25


@pytest.mark.parametrize("argv", [["top", "enumerate", "--gallery", "orbit", "--group", "S3"],
                                  ["gallery", "show", "orbit-p", "--group", "S3"]],
                         ids=["orbit", "orbit-p"])
def test_p_from_2_to_the_64_is_one_error_line(argv):
    p = "18446744073709551629"  # 2^64 + 13
    run = run_cli_process(*argv, "--p", p)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == f"error: p-orbit categories need p below the limit 2^64, and {p} is not\n"


def test_large_characteristic_answers_at_once(tmp_path, chain3):
    # the characteristic is tested by Miller-Rabin, not by trial division
    from finsite.fields import PrimeField
    from finsite.presheaves import constant_linear_presheaf
    big = "1000000000000000003"
    run = run_cli_process("mod", "roundtrip", "--gallery", "chain3",
                          "--constant-field", big, "--count", "1")
    assert (run.returncode, run.stderr) == (0, "")
    assert yaml.safe_load(run.stdout)["ok"] is True
    ps_file = tmp_path / "ps.yaml"
    ps_file.write_text(dump_text(presheaf_to_doc(
        constant_linear_presheaf(chain3, PrimeField(int(big)), 1))))
    run = run_cli_process("sheaf", "check", "--gallery", "chain3",
                          "--presheaf", str(ps_file), "--dense")
    assert (run.returncode, run.stderr) == (0, "")
    assert yaml.safe_load(run.stdout) == {"sheaf": True}


def test_characteristic_from_two_to_the_64_is_one_error_line(capsys):
    code, out, err = run_cli(capsys, "mod", "roundtrip", "--gallery", "chain3",
                             "--constant-field", "18446744073709551629")
    assert (code, out) == (1, "")
    assert err == "error: characteristic 18446744073709551629 is not below the limit 2^64\n"


# Name tokens with a digit that int() refuses ("²" is a digit to
# str.isdigit), and gallery members above the limit of 2^15 composable pairs,
# which are refused before anything is built (chain999999999 used to run
# for ever).
BAD_NAMES = {
    "field ²": (["alg", "verify", "--gallery", "chain3", "--constant-field", "²"],
                "error: unrecognised field label '²'\n"),
    "field F²": (["alg", "verify", "--gallery", "chain3", "--constant-field", "F²"],
                 "error: unrecognised field label 'F²'\n"),
    "chain²": (["cat", "info", "--gallery", "chain²"], "error: unknown gallery name 'chain²'\n"),
    "C²": (["cat", "info", "--gallery", "group", "--group", "C²"],
           "error: unknown group name 'C²' (use trivial, C<n>, or S<n>)\n"),
    "S²": (["cat", "info", "--gallery", "group", "--group", "S²"],
           "error: unknown group name 'S²' (use trivial, C<n>, or S<n>)\n"),
    "chain58": (["gallery", "show", "chain58"],
                "error: chain58 too large: 34,220 composable pairs, limit 32,768\n"),
    "chain999999999": (["gallery", "show", "chain999999999"],
                       "error: chain999999999 too large: 166,666,666,666,666,666,500,000,000 "
                       "composable pairs, limit 32,768\n"),
    "C182": (["cat", "info", "--gallery", "orbit", "--group", "C182"],
             "error: C182 too large: 33,124 composable pairs, limit 32,768\n"),
}


@pytest.mark.parametrize("case", BAD_NAMES)
def test_bad_name_is_one_error_line(capsys, case):
    argv, expected = BAD_NAMES[case]
    assert run_cli(capsys, *argv) == (1, "", expected)


def run_python(*argv):
    """A Python process of its own that imports this finsite, stopped after 60 s."""
    import os
    import subprocess
    import sys

    import finsite
    src = os.path.dirname(os.path.dirname(os.path.abspath(finsite.__file__)))
    path = [src] + [extra for extra in [os.environ.get("PYTHONPATH")] if extra]
    return subprocess.run([sys.executable, *argv],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=60)


def run_cli_process(*argv):
    """The finsite CLI in a process of its own."""
    return run_python("-m", "finsite.cli", *argv)


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("dim,message", [(-1, "negative module dimension -1"),
                                         (1000000, "unit does not act as identity")])
def test_module_over_the_zero_algebra_is_refused_by_its_dim(tmp_path, capsys, dim, message,
                                                            field):
    """Over the empty category the skew algebra has dim 0, over the field
    asked for, and a module document lists no action: a negative dim is
    refused by name, and a positive one before any dim x dim matrix is
    built."""
    cat = tmp_path / "empty.yaml"
    cat.write_text("format: finsite/1\nkind: category\nobjects: []\nmorphisms: []\n"
                   "identities: {}\ncompose: []\n")
    module = tmp_path / "module.yaml"
    module.write_text(f"format: finsite/1\nkind: algebra-module\nfield: {field}\ndim: {dim}\n"
                      "actions: []\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mod", "omega", "--category", str(cat),
                             "--algebra-module", str(module), "--constant-field", field)
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_roundtrip_count_below_one_is_one_error_line(capsys, count):
    code, out, err = run_cli(capsys, "mod", "roundtrip", "--gallery", "chain3",
                             "--constant-field", "5", "--count", count)
    assert (code, out) == (1, "")
    assert err == f"error: --count must be at least 1, got {count}\n"


# Each document-reading path of the CLI, with the file it reads under
# "WRONG" and the kind it expects; the other files are genuine.
KIND_CASES = [
    (["cat", "validate", "--category", "WRONG"], "a category"),
    (["cat", "info", "--category", "WRONG"], "a category"),
    (["cat", "info", "--gallery", "orbit", "--group-file", "WRONG"], "a group"),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "WRONG", "--dense"],
     "a presheaf"),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "PRESHEAF",
      "--topology", "WRONG"], "a topology"),
    (["sheaf", "kan", "--gallery", "chain3", "--presheaf", "WRONG", "--objects", "x"],
     "a presheaf"),
    (["top", "classify", "--gallery", "chain3", "--topology", "WRONG"], "a topology"),
    (["alg", "skew", "--gallery", "chain3", "--algebra", "WRONG"], "an algebra-presheaf"),
    (["mod", "theta", "--gallery", "chain3", "--algebra", "ALGEBRA", "--module", "WRONG"],
     "a module-presheaf"),
    (["mod", "omega", "--gallery", "chain3", "--algebra", "ALGEBRA",
      "--algebra-module", "WRONG"], "an algebra-module"),
    (["mod", "transport", "--gallery", "chain3", "--algebra", "ALGEBRA",
      "--module", "WRONG", "--objects", "x,y"], "a module-presheaf"),
    (["mod", "transport", "--gallery", "chain3", "--algebra", "ALGEBRA",
      "--module", "MODULE", "--topology", "WRONG"], "a topology"),
]


@pytest.mark.parametrize("argv,expected", KIND_CASES)
def test_wrong_document_kind_is_one_error_line(tmp_path, capsys, chain3, f5, c2,
                                               argv, expected):
    import random

    from finsite.algebras import chain_diagonal_algebra_presheaf
    from finsite.sampling import random_module_presheaf
    from finsite.serialize import (algebra_presheaf_to_doc, group_to_doc,
                                   module_presheaf_to_doc)

    r = chain_diagonal_algebra_presheaf(f5)
    wrong_doc, wrong_kind = group_to_doc(c2), "group"
    if expected == "a group":
        wrong_doc, wrong_kind = category_to_doc(chain3), "category"
    files = {"WRONG": wrong_doc,
             "PRESHEAF": presheaf_to_doc(representable_presheaf(chain3, "y")),
             "ALGEBRA": algebra_presheaf_to_doc(r),
             "MODULE": module_presheaf_to_doc(random_module_presheaf(r, random.Random(3)))}
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.yaml"
        paths[name].write_text(dump_text(doc))
    code, out, err = run_cli(capsys, *[str(paths.get(a, a)) for a in argv])
    assert (code, out) == (1, "")
    assert err == f"error: {paths['WRONG']} holds a {wrong_kind!r}, expected {expected}\n"


@pytest.mark.parametrize("argv,obj", [(["--gallery", "group", "--group", "S4"], "'*'"),
                                      (["--gallery", "orbit", "--group", "S4", "--p", "3"],
                                       "'S4/1'")])
def test_s4_census_is_refused_by_the_sieve_guard(capsys, argv, obj):
    code, out, err = run_cli(capsys, "top", "enumerate", *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: sieve enumeration refused at {obj}: 24 morphisms into it, "
                   "above the limit 20\n")


def test_skew_document_of_orbit_s4_is_refused_by_name_and_verify_answers(capsys):
    """The dense table of O(S4) would hold 714^3 cells: alg skew refuses
    before building the algebra, while alg verify walks the composable
    triples of the stored products and answers."""
    source = ["--gallery", "orbit", "--group", "S4", "--constant-field", "5"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "alg", "skew", *source)
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == ("error: skew algebra document too large: dim 714 gives "
                   "363,994,344 table cells, limit 4,194,304\n")
    code, out, err = run_cli(capsys, "alg", "verify", *source)
    assert (code, out, err) == (0, "valid: true\nproblems: []\n", "")


def test_roundtrip_of_orbit_s4_is_refused_before_any_dense_action(capsys):
    """The regular module of the skew algebra of O(S4) would be 714 dense
    714x714 actions: the round trip refuses before sampling, by the limit
    alg skew uses."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mod", "roundtrip", "--gallery", "orbit", "--group", "S4",
                             "--constant-field", "5", "--seed", "1", "--count", "1")
    assert time.perf_counter() - start < 5
    assert (code, out) == (1, "")
    assert err == ("error: regular module too large: dim 714 gives 363,994,344 "
                   "dense action cells, limit 4,194,304\n")


def test_skew_document_keeps_the_bytes_of_the_dense_builder(capsys):
    """The document of O_3*(S4), dim 32, read off the products stored per
    composable pair, has the bytes the dense builder wrote."""
    code, out, _ = run_cli(capsys, "alg", "skew", "--gallery", "orbit-p", "--group", "S4",
                           "--p", "3", "--constant-field", "5")
    assert code == 0 and len(out) == 104736
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9178e8065fb57ff517da4f197ac4cabf71405697c18ab297d270561b75534915"


# Each malformed document: the CLI call reading it as "BAD", the kind of
# genuine document it is cut from, and the field given a wrong type.
MALFORMED_CASES = [
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "BAD", "--dense"],
     "presheaf", "dims", [1, 2]),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "BAD", "--dense"],
     "presheaf", "maps", [1, 2]),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "BAD", "--dense"],
     "presheaf", "dims", {"x": "two"}),
    (["top", "classify", "--gallery", "chain3", "--topology", "BAD"],
     "topology", "covering", [["x"]]),
    (["cat", "info", "--category", "BAD"], "category", "identities", ["1x"]),
    (["cat", "validate", "--category", "BAD"], "category", "identities", ["1x"]),
    (["cat", "info", "--gallery", "group", "--group-file", "BAD"], "group", "table", 5),
    (["mod", "theta", "--gallery", "chain3", "--algebra", "ALGEBRA", "--module", "BAD"],
     "module-presheaf", "actions", [1]),
    (["mod", "omega", "--gallery", "chain3", "--algebra", "ALGEBRA",
      "--algebra-module", "BAD"], "algebra-module", "actions", 5),
    (["alg", "skew", "--gallery", "chain3", "--algebra", "BAD"],
     "algebra-presheaf", "algebras", ["x", "y", "z"]),
    (["cat", "info", "--category", "BAD"], "category", "objects", [["x"]]),
    (["cat", "validate", "--category", "BAD"], "category", "objects", [["x"]]),
    (["cat", "info", "--category", "BAD"], "category", "morphisms",
     [{"id": ["1x"], "dom": "x", "cod": "x"}]),
    (["cat", "validate", "--category", "BAD"], "category", "morphisms",
     [{"id": ["1x"], "dom": "x", "cod": "x"}]),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "BAD", "--dense"],
     "set-presheaf", "values", {"x": [["a"]], "y": [], "z": []}),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "BAD", "--dense"],
     "set-presheaf", "maps", {"1x": {"*": "*"}, "f": {"*": ["*"]}, "gf": {"*": "*"},
                              "1y": {"*": "*"}, "g": {"*": "*"}, "1z": {"*": "*"}}),
    (["top", "enumerate", "--gallery", "group", "--group-file", "BAD"],
     "group", "elements", ["e", ["r"]]),
    (["top", "enumerate", "--gallery", "group", "--group-file", "BAD"],
     "group", "table", [["e", "r"], ["r", ["e"]]]),
    (["alg", "skew", "--gallery", "chain3", "--algebra", "BAD"],
     "algebra-presheaf", "algebras.x.table", [[[1, 0], [0]], [[0, 0], [0, 1]]]),
    (["alg", "verify", "--gallery", "chain3", "--algebra", "BAD"],
     "algebra-presheaf", "algebras.x.unit", [1]),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "BAD", "--dense"],
     "presheaf", "field", "F²"),
    (["top", "classify", "--gallery", "chain3", "--topology", "BAD"],
     "topology", "covering.x", [[["1x"]]]),
    (["top", "classify", "--gallery", "chain3", "--topology", "BAD"],
     "topology", "covering.x", [[{"a": "b"}]]),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "PRESHEAF", "--topology", "BAD"],
     "topology", "covering.x", [[["1x"]]]),
    (["sheaf", "check", "--gallery", "chain3", "--presheaf", "PRESHEAF", "--topology", "BAD"],
     "topology", "covering.x", [[{"a": "b"}]]),
]


@pytest.mark.parametrize("argv,kind,field,value", MALFORMED_CASES,
                         ids=[f"{c[0][0]} {c[0][1]} {c[1]} {c[2]}={c[3]!r}"
                              for c in MALFORMED_CASES])
def test_malformed_field_is_one_error_line(tmp_path, capsys, chain3, f5, c2,
                                           argv, kind, field, value):
    import random

    from finsite.algebras import chain_diagonal_algebra_presheaf
    from finsite.modules import to_algebra_module
    from finsite.presheaves import constant_linear_presheaf
    from finsite.sampling import random_module_presheaf
    from finsite.serialize import (algebra_module_to_doc, algebra_presheaf_to_doc,
                                   group_to_doc, module_presheaf_to_doc)

    r = chain_diagonal_algebra_presheaf(f5)
    m = random_module_presheaf(r, random.Random(3))
    genuine = {"presheaf": presheaf_to_doc(constant_linear_presheaf(chain3, f5, 1)),
               "set-presheaf": presheaf_to_doc(singleton_presheaf(chain3)),
               "topology": topology_to_doc(subcategory_topology(chain3, ("x",))),
               "category": category_to_doc(chain3),
               "group": group_to_doc(c2),
               "module-presheaf": module_presheaf_to_doc(m),
               "algebra-module": algebra_module_to_doc(to_algebra_module(m)),
               "algebra-presheaf": algebra_presheaf_to_doc(r)}
    # a dotted field names an entry inside the document
    bad = copy.deepcopy(genuine[kind])
    *path, key = field.split(".")
    functools.reduce(dict.__getitem__, path, bad)[key] = value
    paths = {"BAD": tmp_path / "bad.yaml", "ALGEBRA": tmp_path / "algebra.yaml",
             "PRESHEAF": tmp_path / "presheaf.yaml"}
    paths["BAD"].write_text(dump_text(bad))
    paths["ALGEBRA"].write_text(dump_text(genuine["algebra-presheaf"]))
    paths["PRESHEAF"].write_text(dump_text(genuine["presheaf"]))
    code, out, err = run_cli(capsys, *[str(paths.get(a, a)) for a in argv])
    assert code == 1
    if argv[:2] == ["cat", "validate"]:
        assert err == "" and yaml.safe_load(out)["valid"] is False
        assert key in out
    else:
        assert out == "" and err.startswith("error: ")
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            [err.splitlines()[0]]
        assert key in err


# Topology documents on chain3 that are no topology: a covering "sieve"
# that is not closed under precomposition, and a covering at y without
# the maximal sieve.
NOT_TOPOLOGIES = {"non-sieve": ({"z": [["g"], ["gf", "g", "1z"]]},
                                "sieve fails at 'z' for sieve ['g']"),
                  "no maximal sieve": ({"y": [["f"]]},
                                       "maximal-sieve fails at 'y' for sieve ['1y', 'f']")}
TOPOLOGY_READERS = [
    ["sheaf", "check", "--gallery", "chain3", "--presheaf", "PRESHEAF", "--topology", "TOP"],
    ["sheaf", "sheafify", "--gallery", "chain3", "--presheaf", "PRESHEAF", "--topology", "TOP"],
    ["top", "classify", "--gallery", "chain3", "--topology", "TOP"],
    ["mod", "transport", "--gallery", "chain3", "--algebra", "ALGEBRA", "--module", "MODULE",
     "--topology", "TOP"],
]


@pytest.mark.parametrize("argv", TOPOLOGY_READERS, ids=lambda a: " ".join(a[:2]))
@pytest.mark.parametrize("case", NOT_TOPOLOGIES)
def test_topology_document_must_be_a_topology(tmp_path, capsys, chain3, f5, argv, case):
    import random

    from finsite.algebras import chain_diagonal_algebra_presheaf
    from finsite.sampling import random_module_presheaf
    from finsite.serialize import algebra_presheaf_to_doc, module_presheaf_to_doc
    from finsite.topology import minimal_topology

    r = chain_diagonal_algebra_presheaf(f5)
    covering, violation = NOT_TOPOLOGIES[case]
    top = topology_to_doc(minimal_topology(chain3))
    del top["label"]
    files = {"TOP": dict(top, covering=dict(top["covering"], **covering)),
             "PRESHEAF": presheaf_to_doc(representable_presheaf(chain3, "y")),
             "ALGEBRA": algebra_presheaf_to_doc(r),
             "MODULE": module_presheaf_to_doc(random_module_presheaf(r, random.Random(3)))}
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.yaml"
        paths[name].write_text(dump_text(doc))
    code, out, err = run_cli(capsys, *[str(paths.get(a, a)) for a in argv])
    assert (code, out) == (1, "")
    assert err == f"error: topology: not a Grothendieck topology: {violation}\n"


# Topology documents on the cospan x -> z <- y whose families hold only
# sieves and the maximal sieve, but are not the sieves containing their
# intersection: each names a violation of the document itself.
NOT_CLOSED = {"not upward closed": ([["a"], ["1z", "a", "b"]],
                                    "transitivity fails at 'z' for sieve ['a', 'b']"),
              "not closed under intersection": ([["a"], ["b"], ["a", "b"], ["1z", "a", "b"]],
                                                "stability fails at 'z' for sieve ['b'] "
                                                "along 'a'")}


@pytest.mark.parametrize("argv", [["top", "classify"],
                                  ["sheaf", "check", "--presheaf", "PRESHEAF"]],
                         ids=lambda a: " ".join(a[:2]))
@pytest.mark.parametrize("case", NOT_CLOSED)
def test_topology_document_must_be_the_sieves_above_a_least_one(tmp_path, capsys, argv, case):
    from finsite.category import FiniteCategory

    cospan = FiniteCategory(
        ["x", "y", "z"], [("1x", "x", "x"), ("1y", "y", "y"), ("1z", "z", "z"),
                          ("a", "x", "z"), ("b", "y", "z")], {"x": "1x", "y": "1y", "z": "1z"},
        {("1x", "1x"): "1x", ("1y", "1y"): "1y", ("1z", "1z"): "1z", ("a", "1x"): "a",
         ("1z", "a"): "a", ("b", "1y"): "b", ("1z", "b"): "b"}, name="cospan")
    covering, violation = NOT_CLOSED[case]
    files = {"CAT": category_to_doc(cospan),
             "PRESHEAF": presheaf_to_doc(singleton_presheaf(cospan)),
             "TOP": {"format": "finsite/1", "kind": "topology",
                     "covering": {"x": [["1x"]], "y": [["1y"]], "z": covering}}}
    paths = {}
    for name, doc in files.items():
        paths[name] = tmp_path / f"{name}.yaml"
        paths[name].write_text(dump_text(doc))
    argv = argv + ["--category", "CAT", "--topology", "TOP"]
    code, out, err = run_cli(capsys, *[str(paths.get(a, a)) for a in argv])
    assert (code, out) == (1, "")
    assert err == f"error: topology: not a Grothendieck topology: {violation}\n"


# Documents that are no YAML, or that PyYAML's constructors or composer
# cannot take; each must end in one diagnostic and exit 1 on both backends.
HOSTILE_DOCUMENTS = {
    "unclosed list": ("format: finsite/1\nkind: category\nobjects: [x\n", None),
    "month 13": ("name: 2001-13-45\n", "error: not valid YAML: month must be in 1..12\n"),
    "!!int 0x": ('name: !!int "0x"\n',
                 "error: not valid YAML: invalid literal for int() with base 16: ''\n"),
    "3,000 levels": ("[" * 3000 + "\n", "error: document nests collections deeper than "
                                          "the limit of 100 levels\n"),
    "tab in a flow sequence": ("format: finsite/1\nkind: category\nobjects: [x,\ty]\n", None),
    "non-specific tag": ("format: finsite/1\nkind: category\nname: !\n",
                         "error: not valid YAML: the non-specific tag '!' on a scalar, "
                         "at line 3, column 7\n"),
}


@pytest.mark.parametrize("case", HOSTILE_DOCUMENTS)
def test_hostile_document_is_one_error_on_both_backends(tmp_path, capsys, case):
    text, expected = HOSTILE_DOCUMENTS[case]
    path = tmp_path / "hostile.yaml"
    path.write_text(text)
    argv = ["cat", "validate", "--category", str(path)]
    code, out, err = run_cli(capsys, *argv)
    with pure_yaml():
        assert run_cli(capsys, *argv) == (code, out, err)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err
    if expected is not None:
        assert err == expected


def test_undecodable_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("objects: [\xe9]\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "cat", "validate", "--category", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


def test_document_100000_levels_deep_exits_1_in_a_subprocess(tmp_path):
    """libyaml's composer would overflow the C stack here (exit 139)."""
    path = tmp_path / "deep.yaml"
    path.write_text("[" * 100_000 + "\n")
    done = run_cli_process("cat", "validate", "--category", str(path))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: document nests collections deeper than the limit of 100 levels\n"


def test_one_parser_serves_many_calls_without_carrying_state(capsys, involution):
    """main builds its parser once; a usage error or a --format summary call
    leaves nothing behind for the calls after it."""
    assert build_parser() is build_parser()
    dense = ["top", "dense", "--gallery", "involution"]
    structured = dump_text(topology_to_doc(dense_topology(involution)))
    for usage_error in (["top", "explode"], ["mod", "roundtrip", "--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(usage_error)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert run_cli(capsys, *dense) == (0, structured, "")
    assert run_cli(capsys, "--format", "summary", *dense) == (0, SUMMARIES["top dense"][1], "")
    assert run_cli(capsys, *dense) == (0, structured, "")


@pytest.mark.parametrize("argv", [["--help"], ["mod", "--help"], ["mod", "roundtrip", "--help"],
                                  ["top", "explode"], ["mod", "roundtrip", "--seed", "x"],
                                  ["--format", "yaml", "gallery", "list"]])
def test_the_shared_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def printed(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    assert run_cli(capsys, "gallery", "list")[0] == 0
    shared = printed(main)
    assert shared == printed(build_parser.__wrapped__().parse_args)
    assert shared[0] == (0 if "--help" in argv else 2)
    assert shared[1].out.startswith("usage: finsite") == ("--help" in argv)


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    run = run_python("-c", "import sys, finsite.cli; "
                           "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
