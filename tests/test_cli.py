"""End-to-end command-line tests: output formats, exit codes, caching."""
import hashlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import grid_sizes
from discdeg import catalog, cli, permgroup
from discdeg.catalog import ProductCatalog

CUBE_PROBLEM = {"cube": {"c": 4, "d": 1},
                "growth": {"alpha": 0.5, "beta": 2.0}}
SWAP = os.path.join(os.path.dirname(__file__), "..", "examples_local",
                    "swap.json")


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("discdeg-cache"))


@pytest.fixture(scope="session")
def run(cache_dir):
    def _run(*argv, cache=True, timeout=600):
        env = dict(os.environ)
        if cache:
            env["DISCDEG_CACHE_DIR"] = cache_dir
        else:
            env.pop("DISCDEG_CACHE_DIR", None)
        return subprocess.run(
            [sys.executable, "-m", "discdeg.cli", *argv],
            capture_output=True, text=True, env=env, timeout=timeout)
    return _run


def jlines(out):
    recs = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert all(r["schema"] == 1 for r in recs)
    return recs


@pytest.fixture(scope="session")
def cube_solution(run, tmp_path_factory):
    """One shared cube solve; several tests inspect the same output."""
    d = tmp_path_factory.mktemp("cube")
    prob = d / "cube.json"
    prob.write_text(json.dumps(CUBE_PROBLEM))
    r = run("--format", "json", "solve", str(prob))
    assert r.returncode == 0, r.stderr
    return r.stdout


# -- lightweight subcommands ----------------------------------------------------

def test_ccs_finite_json(run):
    r = run("--format", "json", "ccs", "S4*Z2")
    assert r.returncode == 0
    recs = jlines(r.stdout)
    assert len(recs) == 33
    assert all(r_["record"] == "class" and r_["name"] for r_ in recs)
    assert sum(r_["size"] for r_ in recs) == 284   # total subgroup count


def test_ccs_finite_text(run):
    r = run("ccs", "S4")
    assert r.returncode == 0
    assert len(r.stdout.splitlines()) == 11
    assert "(S4)" in r.stdout


def test_ccs_product_catalog(run):
    r = run("--format", "json", "ccs", "Z2*Z2", "--heads", "1,2")
    assert r.returncode == 0
    recs = jlines(r.stdout)
    kinds = {r_["kind"] for r_ in recs}
    assert kinds == {"D", "SO2", "O2", "O2amalg"}
    assert any(r_["name"].startswith("O(2) x ") for r_ in recs)
    assert any(r_["name"].startswith("D2 ") or r_["name"].startswith("D2 x")
               for r_ in recs)


def test_chartab(run):
    r = run("--format", "json", "chartab", "S4")
    recs = jlines(r.stdout)
    assert r.returncode == 0
    rows = [tuple(r_["values"]) for r_ in recs]
    assert rows == [(1, 1, 1, 1, 1), (1, -1, 1, 1, -1), (2, 0, 2, -1, 0),
                    (3, 1, -1, 0, -1), (3, -1, -1, 0, 1)]


def test_bessel_zeros_text_and_determinism(run):
    r1 = run("bessel-zeros", "0", "10")
    r2 = run("bessel-zeros", "0", "10")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout          # byte-identical reruns
    vals = [float(x) for x in r1.stdout.split()]
    assert len(vals) == 3
    assert abs(vals[0] - 2.404825557695773) < 1e-9


def test_fold(run):
    r = run("--format", "json", "fold", "3", "D6 x_{D6} D3p")
    assert r.returncode == 0, r.stderr
    rec = jlines(r.stdout)[0]
    assert rec["result"].startswith("D18")
    assert rec["result"].endswith("D3p")


def test_basic_degree_trivial_mode1(run):
    r = run("--format", "json", "basic-degree", "1", "0", "-1")
    assert r.returncode == 0, r.stderr
    terms = {rec["name"]: rec["coeff"] for rec in jlines(r.stdout)}
    assert terms == {"O(2) x S4p": 1, "D2^{D1} x_{Z2}^{S4} S4p": -1}


def test_basic_degree_trivial_rep(run):
    # the full class is the only orbit type; counting it twice cancelled it
    r = run("--format", "json", "basic-degree", "0", "0", "1")
    assert r.returncode == 0, r.stderr
    terms = {rec["name"]: rec["coeff"] for rec in jlines(r.stdout)}
    assert terms == {"O(2) x S4p": -1}


def test_burnside_mul(run):
    r = run("--format", "json", "burnside-mul",
            "O(2) x S4p", "D6 x_{D6} D3p")
    assert r.returncode == 0, r.stderr
    terms = {rec["name"]: rec["coeff"] for rec in jlines(r.stdout)}
    assert terms == {"D6 x_{D6} D3p": 1}   # (G) is the identity


# -- error paths -----------------------------------------------------------------

def test_unknown_group_exits_2(run):
    r = run("ccs", "Q8")
    assert r.returncode == 2
    assert r.stderr.strip()


def test_non_divisor_closed_heads_exit_2(run):
    r = run("ccs", "Z2*Z2", "--heads", "4")
    assert r.returncode == 2
    assert "divisor" in r.stderr


@pytest.mark.parametrize("heads", ["", ",", "0"],
                         ids=["empty", "comma", "zero"])
def test_head_list_without_a_positive_head_exits_2(heads, capsys):
    """An empty head list is refused in one line, as one of no positive
    integer is, and not read as no head list (the subgroup table)."""
    assert cli.main(["ccs", "S3*Z2", "--heads", heads]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and "positive integers" in err


def test_unknown_class_name_exits_2(run):
    r = run("fold", "2", "no such class")
    assert r.returncode == 2
    assert "no such class" in r.stderr


@pytest.mark.parametrize("atom",
                         [f"{k}{n}" for k in "SAZD" for n in range(1, 6)])
def test_every_group_atom_exits_with_a_documented_status(atom, tmp_path):
    n_gens = len(permgroup.build_group(atom).generators)
    prob = tmp_path / "trivial.json"
    prob.write_text(json.dumps({"group": atom,
                                "action_generators": [[0]] * n_gens,
                                "matrix": [["-1"]]}))
    assert cli.main(["chartab", atom]) in (0, 2, 3)
    assert cli.main(["solve", str(prob)]) in (0, 2, 3)


@pytest.mark.parametrize("argv", [["ccs", "S4*Z0"], ["ccs", "D0"],
                                  ["chartab", "Z0"]])
def test_order_zero_group_atoms_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "order 0" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n, classes", [(1, 2), (2, 5), (3, 4), (4, 8)])
def test_dihedral_atoms_have_order_2n(n, classes, capsys):
    """D1 is Z2 and D2 is Z2 x Z2 (every subgroup its own class)."""
    assert cli.main(["--format", "json", "ccs", f"D{n}"]) == 0
    recs = jlines(capsys.readouterr().out)
    assert len(recs) == classes
    assert max(r["order"] for r in recs) == 2 * n


@pytest.mark.parametrize("nu, name", [("0", "O(2) x H0o1"),
                                      ("-3", "SO(2) x H0o1"),
                                      ("0", "D1 x H0o1"), ("-2", "D2 x H0o1")])
def test_fold_index_below_1_exits_2(nu, name, capsys):
    assert cli.main(["fold", nu, name, "--group", "S3*Z2",
                     "--heads", "1,2,3,6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "positive" in err
    assert len(err.splitlines()) == 1


def test_unsupported_character_table_exits_2(capsys):
    assert cli.main(["chartab", "D4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("rep", [("2", "3", "-1"), ("1", "-1", "1"),
                                 ("-1", "0", "1")])
def test_basic_degree_outside_the_character_table_exits_2(rep, capsys):
    """S3 has irreducibles j = 0, 1, 2, and modes start at m = 0."""
    assert cli.main(["basic-degree", *rep, "--group", "S3*Z2",
                     "--heads", "1,2,3,6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_s2_transposition_listed_once_and_legacy_form_accepted(tmp_path,
                                                                capsys):
    assert permgroup.symmetric_group(2).generators == [(1, 0)]
    with open(SWAP) as fh:
        doc = json.load(fh)
    out = []
    for i, images in enumerate(([[1, 0]], [[1, 0], [1, 0]], [[1, 0], [0, 1]])):
        prob = tmp_path / f"s2_{i}.json"
        prob.write_text(json.dumps({**doc, "action_generators": images}))
        out.append((cli.main(["--format", "json", "solve", str(prob)]),
                    capsys.readouterr().out))
    assert out[0] == out[1] and out[0][0] == 0
    assert out[2] == (2, "")        # two different images for one generator


PRIMES_TO_53 = "1,2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53"


@pytest.mark.parametrize("argv", [
    ["ccs", "S4*Z2"], ["basic-degree", "1", "0", "-1"],
    ["fold", "2", "D1 x Z1"]])
@pytest.mark.parametrize("heads", ["1,2,4,8,16,32,64,128,256,512",
                                   PRIMES_TO_53 + ",367"])
def test_head_list_beyond_the_grid_cap_exits_2(argv, heads, monkeypatch,
                                               capsys):
    """A largest head above the bound of 360 (512, or the prime 367 on top
    of heads whose P = 2 lcm(heads) passes 2^63): the catalog refuses
    before it builds any grid model."""
    from discdeg import o2model

    def no_grid(*args, **kwargs):
        raise AssertionError("grid model allocated")
    monkeypatch.setattr(o2model.O2Model, "__init__", no_grid)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert cli.main([*argv, "--heads", heads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, rc, want", [
    (["ccs", "S4*Z2"], 0, "D17 x S4p"),
    (["basic-degree", "1", "0", "-1"], 2, "needs catalog heads [2]"),
    (["fold", "7", "D1 x Z1"], 0, "D7 x Z1")],
    ids=["ccs", "basic-degree", "fold"])
def test_head_list_with_a_large_grid_period_answers(argv, rc, want, capsys):
    """P = 2 lcm(1, 7, 11, 13, 17) = 34,034: each count runs on the grid
    of its own head, at most D_34 here, so no table grows with P; the
    basic degree of W1 (x) U0- still needs head 2."""
    assert cli.main([*argv, "--heads", "1,7,11,13,17"]) == rc
    out, err = capsys.readouterr()
    assert want in (err if rc else out)


def test_head_list_whose_grid_period_passes_2_to_the_63_answers(
        monkeypatch, capsys):
    """Heads 1, 2 and the primes up to 53 have P = 2 lcm(heads) of about
    6.5e19, past 2^63, but no size, count or generator is taken on D_P:
    the catalog answers, its ids ascend with the sizes on D_P, its Weyl
    orders are those of the catalog on heads 1, 2, 3, 5, name for name,
    and D1 x Z1 folds 53 times onto D53 x Z1."""
    heads = [int(h) for h in PRIMES_TO_53.split(",")]
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert cli.main(["--format", "json", "ccs", "S4*Z2", "--heads",
                     PRIMES_TO_53]) == 0
    recs = jlines(capsys.readouterr().out)
    K = permgroup.build_group("S4*Z2")
    cat, small = ProductCatalog(K, heads), ProductCatalog(K, [1, 2, 3, 5])
    assert cat.P == 65_178_316_954_380_089_460 > 2 ** 63
    assert [(r["name"], r["weyl"]) for r in recs] == list(zip(
        cat.names, cat.weyl_orders))
    assert grid_sizes(cat) == sorted(grid_sizes(cat))
    assert [cat.weyl_orders[cat.by_name[n]] for n in small.names] == \
        small.weyl_orders
    assert cli.main(["fold", "53", "D1 x Z1", "--heads", PRIMES_TO_53]) == 0
    assert capsys.readouterr().out.strip() == "D53 x Z1"


@pytest.mark.parametrize("group, images, matrix", [
    ("S3", [[0, 1, 2], [1, 0, 2]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]]),
    ("S3", [[1, 2, 0], [0, 1, 2]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]]),
    ("S2", [[0, 0]], [[3, 3], [3, 3]]),
])
def test_action_generators_that_define_no_action_exit_2(group, images,
                                                         matrix, tmp_path,
                                                         capsys):
    """Images that are no permutation, or whose extension to the group is
    inconsistent (a transposition sent to the identity and a 3-cycle to a
    transposition; a transposition sent to a 3-cycle)."""
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps({"group": group, "action_generators": images,
                                "matrix": matrix}))
    assert cli.main(["solve", str(prob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("doc", [
    [1],
    {"growth": {"zz": 1}, "cube": {"c": 4, "d": 1}},
    {"group": "S2", "action_generators": [[1, 0]], "matrix": 5},
    {"group": 5, "action_generators": [[1, 0]], "matrix": [[1]]},
    {"cube": 5},
    {"group": "S2", "action_generators": [[1, 0]],
     "matrix": [["1/0", "0"], ["0", "1"]]},
    {"cube": {"c": "1/0", "d": 1}},
    {"cube": {"d": 1}},
    {"cube": {"c": 4}},
    {"action_generators": [[1, 0]], "matrix": [[1, 0], [0, 1]]},
    {"group": "S2", "matrix": [[1, 0], [0, 1]]},
    {"group": "S2", "action_generators": [[1, 0]]},
], ids=["not-an-object", "growth-key", "matrix", "group", "cube",
        "matrix-zero-denominator", "cube-zero-denominator", "no-cube-c",
        "no-cube-d", "no-group", "no-action-generators", "no-matrix"])
def test_malformed_problem_file_exits_2(doc, tmp_path, capsys):
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps(doc))
    assert cli.main(["solve", str(prob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed problem file:")
    assert len(err.splitlines()) == 1


def test_basic_degree_refuses_heads_missing_its_orbit_types(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    """Each rep names the heads of its fixed-point classes that the catalog
    lacks: the mode-2 reps of S3 x Z2 fix vectors on D4-headed classes, and
    W2 (x) U2- also on D12-headed ones."""
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    for rep, missing in ((("2", "0", "-1"), "[4]"), (("2", "1", "-1"), "[4]"),
                         (("2", "1", "1"), "[4]"), (("2", "2", "-1"), "[4, 12]"),
                         (("2", "2", "1"), "[4]")):
        argv = ["basic-degree", *rep, "--group", "S3*Z2", "--heads"]
        assert cli.main([*argv, "1,2,3,6"]) == 2, rep
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, rep
        assert f"needs catalog heads {missing}," in err, rep
        assert cli.main([*argv, "1,2,3,4,6,12"]) == 0, rep
        capsys.readouterr()
    assert cli.main(["basic-degree", "4", "2", "-1"]) == 2
    assert "needs catalog heads [24]," in capsys.readouterr().err


@pytest.mark.parametrize("m", ["361", "100000000000"])
def test_basic_degree_of_a_mode_beyond_the_largest_head_exits_2_at_once(
        m, run):
    """W_m (x) U always needs head m (Psi_m of D1 x Z1 fixes U), so a mode
    above 360 is refused before its divisors are walked, within seconds."""
    r = run("basic-degree", m, "0", "-1", timeout=20)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (f"error: W{m} (x) U0- needs head D{m}, beyond the "
                        f"largest supported head D360\n")


def test_basic_degree_needing_a_head_beyond_the_largest_exits_2(run):
    """W360 (x) U0- fixes vectors on D720, a head no catalog can hold: it
    is refused with the bound and that head, not told to add heads."""
    r = run("basic-degree", "360", "0", "-1")
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == ("error: W360 (x) U0- needs head D720, beyond the "
                        "largest supported head D360\n")


@pytest.mark.parametrize("rep, extra", [
    (("3", "0", "1"), "9,18"), (("3", "0", "-1"), "9,18"),
    (("3", "1", "1"), "9,18"), (("3", "1", "-1"), "9,18"),
    (("2", "0", "1"), "4,12")])
def test_basic_degree_needs_only_the_heads_of_its_fixed_points(
        rep, extra, tmp_path, monkeypatch, capsys):
    """Heads 1,2,3,6 of S3 x Z2 hold every class on which these reps fix a
    nonzero vector, so they answer there, and more heads change nothing."""
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    argv = ["--format", "json", "basic-degree", *rep, "--group", "S3*Z2",
            "--heads"]
    assert cli.main([*argv, "1,2,3,6"]) == 0
    out = capsys.readouterr().out
    assert cli.main([*argv, "1,2,3,6," + extra]) == 0
    assert capsys.readouterr().out == out and out


@pytest.mark.parametrize("argv", [
    ["ccs", "S7"], ["ccs", "S6*Z2", "--heads", "1,2"],
    ["basic-degree", "1", "0", "-1", "--group", "S6*Z2", "--heads", "1,2"],
    ["fold", "2", "D1 x Z1", "--group", "S6*Z2", "--heads", "1,2"],
    ["solve", "S6"]])
def test_group_above_the_lattice_bound_exits_2(argv, tmp_path, monkeypatch,
                                               capsys):
    """|K| = 5,040 and 1,440 are above the lattice bound of 720; the
    commands refuse before the Cayley table of K is allocated."""
    def no_table(*args, **kwargs):
        raise AssertionError("Cayley table allocated")
    monkeypatch.setattr(permgroup, "_cayley_table", no_table)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    if argv[0] == "solve":
        prob = tmp_path / "s6.json"
        prob.write_text(json.dumps({"group": argv[1],
                                    "action_generators": [[0], [0]],
                                    "matrix": [["3"]]}))
        argv = ["solve", str(prob)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"up to order {permgroup.MAX_LATTICE_ORDER}" in err


@pytest.mark.parametrize("argv", [
    ["ccs", "S3*Z2"], ["ccs", "S3*Z2", "--heads", "1,2"],
    ["basic-degree", "1", "0", "-1", "--group", "S3*Z2", "--heads", "1,2"]])
def test_lattice_beyond_the_subgroup_cap_exits_2(argv, monkeypatch, capsys):
    """S3 x Z2 has 16 subgroups; with the cap lowered to 15 the lattice
    search refuses before it returns, so no subgroup table is built; at
    16 the same command answers."""
    lattice, returned = permgroup._lattice, []

    def traced(G):
        out = lattice(G)
        returned.append(len(out))
        return out
    monkeypatch.setattr(permgroup, "_lattice", traced)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setattr(permgroup, "MAX_SUBGROUPS", 15)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "more than 15 subgroups" in err and returned == []
    monkeypatch.setattr(permgroup, "MAX_SUBGROUPS", 16)
    assert cli.main(argv) == 0 and returned == [16]


def test_character_table_of_s7_needs_no_cayley_table(monkeypatch, capsys):
    """S7 (order 5,040) is above the lattice bound; its character table
    needs only the element classes."""
    def no_table(*args, **kwargs):
        raise AssertionError("Cayley table allocated")
    monkeypatch.setattr(permgroup, "_cayley_table", no_table)
    assert cli.main(["--format", "json", "chartab", "S7"]) == 0
    recs = jlines(capsys.readouterr().out)
    assert len(recs) == 15 and recs[0]["values"] == [1] * 15


def test_solve_imports_no_scipy():
    code = ("import sys\nfrom discdeg.cli import main\nrc = main(['solve', "
            "sys.argv[1]])\nprint(rc, [m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'])")
    r = subprocess.run([sys.executable, "-c", code, SWAP],
                       capture_output=True, text=True, timeout=600)
    assert r.stdout.splitlines()[-1] == "0 []", r.stderr


def test_closed_output_pipe_exits_0_quietly(cache_dir):
    """A reader that stops early (``| head -1``) ends the command with exit
    0, no ``error:`` line and no traceback.  The listing (about 200 KB) is
    larger than a pipe buffer, so the command is still writing."""
    env = dict(os.environ, DISCDEG_CACHE_DIR=cache_dir)
    p = subprocess.Popen(
        [sys.executable, "-m", "discdeg.cli", "--format", "json", "ccs",
         "S4*Z2", "--heads", "1,2,3,4,6,8,9,12,18"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(p.stdout.readline())["record"] == "class"
    p.stdout.close()
    err = p.stderr.read()
    assert p.wait(timeout=600) == 0 and err == b""


def test_non_integral_generator_product_refused_exit_3(run):
    r = run("burnside-mul", "D1 x_{Z2}^{D4d} D4p", "D4 x_{D4}^{Z2m} D4p")
    assert r.returncode == 3
    assert r.stderr.startswith("refused:") and len(r.stderr.splitlines()) == 1


def test_missing_problem_file_exits_2(run, tmp_path):
    r = run("solve", str(tmp_path / "absent.json"))
    assert r.returncode == 2


def test_resonant_problem_refused_exit_3(run, tmp_path):
    # c chosen so that c + 3d hits the first zero of J_0 exactly
    prob = tmp_path / "resonant.json"
    prob.write_text(json.dumps(
        {"cube": {"c": "-0.595174442304227", "d": 1}}))
    r = run("--format", "json", "solve", str(prob))
    assert r.returncode == 3
    assert "condition (D)" in r.stderr
    recs = jlines(r.stdout)
    cond = next(r_ for r_ in recs if r_["record"] == "condition")
    assert cond["ok"] is False


@pytest.mark.parametrize("c, want", [
    (62, "error: largest eigenvalue mu = 65.0 needs Bessel modes 0..65, "
         "beyond the supported 0..64 (mu <= sqrt(64*66) = 64.99)"),
    (61, "not supported: it needs heads up to 335")], ids=["modes", "heads"])
def test_cube_beyond_the_supported_bounds_exits_2(c, want, tmp_path,
                                                  monkeypatch, capsys):
    """cube(62, 1) has mu = 65 > sqrt(64 * 66), so it needs Bessel mode 65,
    beyond the evaluator: it is refused before any zero is walked, with
    the bound, not by the evaluator's order check.  cube(61, 1) fits the
    modes and needs heads up to 336, within the bound of 360; with the
    head bound set to 335 its solve is refused by that bound, in one line,
    before the catalog is built."""
    from discdeg import bessel, catalog
    prob = tmp_path / "cube.json"
    prob.write_text(json.dumps({"cube": {"c": c, "d": 1}}))
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    if c == 62:
        monkeypatch.setattr(bessel, "_zero_levels", None)
    else:
        monkeypatch.setattr(catalog, "MAX_HEAD", 335)
    assert cli.main(["solve", str(prob)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and want in err
    assert "order must be" not in err and len(err.splitlines()) == 1


def _solve_cube(c: str, tmp_path, monkeypatch, capsys):
    """(exit code, JSON records, stderr) of solving cube(c, 1)."""
    prob = tmp_path / "cube.json"
    prob.write_text(json.dumps({"cube": {"c": c, "d": 1}}))
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    rc = cli.main(["--format", "json", "solve", str(prob)])
    out, err = capsys.readouterr()
    return rc, jlines(out), err


@pytest.mark.parametrize("c, shown, M", [
    ("1e10", "10000000003.0", 10 ** 10 + 3),
    ("1e400", str(10 ** 400 + 3), 10 ** 400 + 3)], ids=["1e10", "1e400"])
def test_a_huge_eigenvalue_is_refused_for_its_modes_at_once(
        c, shown, M, tmp_path, monkeypatch, capsys):
    """mu = c + 3 needs Bessel modes 0..mu, found in integers: refused with
    the bound at once, neither by walking the modes up to mu nor by a float
    overflow, and shown as a float where it fits one."""
    rc, recs, err = _solve_cube(c, tmp_path, monkeypatch, capsys)
    assert rc == 2 and recs == []
    assert err == (f"error: largest eigenvalue mu = {shown} needs Bessel "
                   f"modes 0..{M}, beyond the supported 0..64 (mu <= "
                   f"sqrt(64*66) = 64.99)\n")


def test_no_positive_eigenvalue_beyond_any_float_reports_as_small_ones(
        tmp_path, monkeypatch, capsys):
    """With c = -10^400 no eigenvalue is positive: the report is that of
    c = -4, each eigenvalue shifted by c."""
    def shifted(c):
        rc, recs, err = _solve_cube(c, tmp_path, monkeypatch, capsys)
        assert rc == 0 and err == ""
        return [r | {"mu": str(Fraction(r["mu"]) - Fraction(c))} if "mu" in r
                else r for r in recs]
    assert shifted("-1e400") == shifted("-4")


def test_a_huge_negative_eigenvalue_beside_a_positive_one_exits_0(
        tmp_path, monkeypatch, capsys):
    """[[a, b], [b, a]] with a = -5 10^399 + 1 and b = 5 10^399 + 2 has the
    eigenvalues 3 and -10^400 - 1, beyond any float: every record but the
    eigenvalues is that of [[1, 2], [2, 1]] (3 and -1, one radial type)."""
    def solve(a, b):
        prob = tmp_path / "swap.json"
        prob.write_text(json.dumps({"group": "S2", "action_generators": [
            [1, 0]], "matrix": [[a, b], [b, a]]}))
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        rc = cli.main(["--format", "json", "solve", str(prob)])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        return [r for r in jlines(out) if r["record"] != "eigenvalue"]
    big, small = solve(-5 * 10 ** 399 + 1, 5 * 10 ** 399 + 2), solve(1, 2)
    assert big == small
    assert [r["record"] for r in small].count("radial") == 1


# -- the full solve --------------------------------------------------------------

def test_solve_cube_report(cube_solution):
    recs = jlines(cube_solution)
    cond = next(r for r in recs if r["record"] == "condition")
    assert cond["ok"] is True
    expansion = [r for r in recs if r["record"] == "expansion"]
    assert len(expansion) == 85
    nonradial = {r["family"] for r in recs if r["record"] == "nonradial"}
    assert nonradial == {
        "D6m^{Zm} x_{D6} D3p", "D4m^{Zm} x_{D4}^{Z2m} D4p",
        "D2m^{Dm} x_{Z2}^{D2d} D2p", "D2m^{Dm} x_{Z2}^{D4z} D4p",
        "D2m^{Dm} x_{Z2}^{S4} S4p"}
    radial = {r["name"] for r in recs if r["record"] == "radial"}
    assert radial == {"O(2) x D3", "O(2) x D3z", "O(2) x D4z", "O(2) x D4d"}


def test_solve_text_format(run, tmp_path):
    prob = tmp_path / "cube.json"
    prob.write_text(json.dumps(CUBE_PROBLEM))
    r = run("solve", str(prob))
    assert r.returncode == 0
    assert "condition (D): satisfied" in r.stdout
    assert "non-radial families (5):" in r.stdout
    assert "radial types (4):" in r.stdout


def test_solve_is_deterministic(run, tmp_path, cube_solution):
    prob = tmp_path / "cube.json"
    prob.write_text(json.dumps(CUBE_PROBLEM))
    r = run("--format", "json", "solve", str(prob))
    assert r.returncode == 0
    assert r.stdout == cube_solution


def test_solve_explicit_group_problem(run, tmp_path):
    """A two-component system with swap symmetry, given explicitly."""
    prob = tmp_path / "swap.json"
    prob.write_text(json.dumps({
        "group": "S2",
        "action_generators": [[1, 0], [1, 0]],
        "matrix": [["4", "0"], ["0", "4"]],
        "growth": {"alpha": 0.25, "beta": 3.0}}))
    r = run("--format", "json", "solve", str(prob))
    assert r.returncode == 0, r.stderr
    recs = jlines(r.stdout)
    eig = [r_ for r_ in recs if r_["record"] == "eigenvalue"]
    assert {e["mu"] for e in eig} == {"4"}
    assert any(r_["record"] == "expansion" for r_ in recs)


def test_golden_check(run, tmp_path, cube_solution):
    report = tmp_path / "report.jsonl"
    report.write_text(cube_solution)
    ok = run("golden-check", str(report), str(report))
    assert ok.returncode == 0
    assert "85 terms match" in ok.stdout
    # tamper with one coefficient
    lines = cube_solution.splitlines()
    idx = next(i for i, l in enumerate(lines)
               if json.loads(l).get("record") == "expansion")
    rec = json.loads(lines[idx])
    rec["coeff"] += 1
    lines[idx] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines))
    r = run("golden-check", str(bad), str(report))
    assert r.returncode == 2
    assert "mismatch" in r.stderr


def test_catalog_cache_roundtrip(run, cache_dir):
    assert any(f.endswith(".pkl") for f in os.listdir(cache_dir))
    # a cached rerun must give identical bytes
    r1 = run("--format", "json", "basic-degree", "1", "0", "-1")
    r2 = run("--format", "json", "basic-degree", "1", "0", "-1")
    assert r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0


# -- the catalog cache ----------------------------------------------------------

def test_the_benchmark_tracer_sees_builds_loads_and_stores(tmp_path):
    """``perfbench/tracer.py`` reads each catalog built (its class count
    and ``P``) and the cache's loads and stores through ``cli.pickle``:
    on ``ccs S2*Z2 --heads 1,2`` a cold run records one build of 47
    classes with P = 4 and one store, and a warm run one load and no
    build or store."""
    tracer = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                          "tracer.py")
    env = dict(os.environ, DISCDEG_CACHE_DIR=str(tmp_path / "cache"))
    runs = []
    for run in ("cold", "warm"):
        prefix = str(tmp_path / run)
        r = subprocess.run([sys.executable, tracer, prefix, "ccs", "S2*Z2",
                            "--heads", "1,2"], capture_output=True,
                           text=True, env=env, timeout=600)
        assert r.returncode == 0, r.stderr
        with open(prefix + ".json") as fh:
            doc = json.load(fh)
        runs.append((doc["catalogs"], doc["calls"].get("cli.cache_load", 0),
                     doc["calls"].get("cli.cache_store", 0)))
    assert runs == [([[47, 4]], 0, 1), ([], 1, 0)]


def test_cache_key_is_versioned_and_write_leaves_no_temp_file(tmp_path,
                                                              monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    # a file under the key of the layout without a format version
    unversioned = hashlib.sha256(f"tag|v{cli.SCHEMA}".encode()).hexdigest()
    (tmp_path / f"{unversioned}.pkl").write_bytes(pickle.dumps("stale"))
    assert cli._cached("tag", lambda: "fresh") == "fresh"
    assert cli._cached("tag", lambda: "rebuilt") == "fresh"
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".pkl", ".pkl"]



@pytest.mark.parametrize("garble", [
    lambda b: b[:100], lambda b: b"",
    lambda b: b"\x80\x04X\x01\x00\x00\x00\xff.",      # a string not in UTF-8
], ids=["truncated", "empty", "bad-utf8"])
def test_unreadable_cache_file_exits_2_naming_it(garble, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    argv = ["ccs", "S3*Z2", "--heads", "1,2"]
    assert cli.main(argv) == 0
    [path] = tmp_path.iterdir()
    path.write_bytes(bad := garble(path.read_bytes()))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable cache file") and path.name in err
    assert len(err.splitlines()) == 1
    assert path.read_bytes() == bad              # left as it was, not rebuilt


def _full_class_as_so2(classes):
    """The columns with the kind of O(2) x K, K's class being the last of
    its table, set to SO(2)."""
    c, kinds = classes.copy(), catalog.KINDS
    c["kind"][(c["kind"] == kinds.index("O2"))
              & (c["kp_cid"] == c["kp_cid"].max())] = kinds.index("SO2")
    return c


@pytest.mark.parametrize("column, garble, why", [
    ("gluings", lambda g: g | {1: g[1][:-1]}, "columns do not fit"),
    ("gluings", lambda g: g | {3: g[3][:-1]}, "columns do not fit"),
    ("gluings", lambda g: g | {6: g[6][:-1]}, "columns do not fit"),
    ("tails", None, "'tails'"), ("nk", None, "'nk'"),
    ("tails", lambda t: t[:-1], "columns do not fit"),
    ("classes", _full_class_as_so2, "columns do not fit")],
    ids=["gluing-dropped", "unused-period-3-gluing-dropped",
         "unused-period-6-gluing-dropped", "tails-missing", "nk-missing",
         "tail-dropped", "full-class-as-so2"])
def test_stored_catalog_whose_columns_do_not_fit_exits_2(
        column, garble, why, tmp_path, monkeypatch, capsys):
    """A stored catalog state with the last gluing of period 1 dropped, or
    of period 3 or 6, which no class on heads 1, 2 uses but whose tables
    choose the heads a rep needs, with a column missing, with one name
    tail short, or with no O(2) x K class to be the ring's identity, is
    refused on load as an unreadable cache file, and the file is left as
    it was."""
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    argv = ["ccs", "S3*Z2", "--heads", "1,2"]
    assert cli.main(argv) == 0
    [path] = tmp_path.iterdir()
    state = pickle.loads(path.read_bytes()).__getstate__()
    if garble:
        state[column] = garble(state[column])
    else:
        del state[column]
    bad = ProductCatalog.__new__(ProductCatalog)
    bad.__getstate__ = lambda: state     # pickled as a catalog with this state
    path.write_bytes(planted := pickle.dumps(bad))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable cache file") and path.name in err
    assert why in err and len(err.splitlines()) == 1
    assert path.read_bytes() == planted


@pytest.mark.parametrize("argv, kind, planted", [
    (["ccs", "S3*Z2", "--heads", "1,2"], "ProductCatalog", [1, 2]),
    (["solve", SWAP], "list", "x")], ids=["list-as-catalog", "str-as-heads"])
def test_cache_file_holding_another_object_exits_2(argv, kind, planted,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    """A cache file that unpickles to another object than its key names (a
    catalog, or a head list) is refused on load as an unreadable cache
    file, and the file is left as it was."""
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    assert cli.main(argv) == 0
    [path] = [p for p in tmp_path.iterdir()
              if type(pickle.loads(p.read_bytes())).__name__ == kind]
    path.write_bytes(bad := pickle.dumps(planted))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable cache file") and path.name in err
    assert len(err.splitlines()) == 1
    assert path.read_bytes() == bad


def test_catalog_shared_by_commands_and_warm_solve_skips_subgroup_table(
        tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    prob = os.path.join(os.path.dirname(__file__), "..", "examples_local",
                        "swap.json")
    assert cli.main(["--format", "json", "solve", prob]) == 0
    cold = capsys.readouterr().out
    stored = sorted(os.listdir(cache))
    assert len(stored) == 2                    # the head list and the catalog
    # the solve needed heads 1,2: the same catalog serves the other commands
    assert cli.main(["ccs", "S2*Z2", "--heads", "1,2"]) == 0
    assert cli.main(["basic-degree", "1", "0", "-1", "--group", "S2*Z2",
                     "--heads", "1,2"]) == 0
    assert sorted(os.listdir(cache)) == stored

    def no_table(*args, **kwargs):
        raise AssertionError("subgroup table built on a warm solve")
    monkeypatch.setattr(permgroup.SubgroupClassTable, "__init__", no_table)
    capsys.readouterr()
    assert cli.main(["--format", "json", "solve", prob]) == 0
    assert capsys.readouterr().out == cold
