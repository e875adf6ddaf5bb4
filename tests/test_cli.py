import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tworoots
from tworoots import cli, forms, verify
from tworoots.cli import build_parser, main
from tworoots.diagram import y_diagram
from tworoots.orbits import orbit_tables


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--y", "1", "2", "4")
    assert code == 0
    assert out == "Y(1,2,4): finite (n = 8)\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--path", "6", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["type"] == "finite"
    assert data["diagram"] == {"kind": "Path", "n": 6}


def test_roots_listing(capsys):
    code, out, _ = run(capsys, "roots", "--path", "3")
    assert code == 0
    assert out.splitlines()[-1] == "total 6"
    assert "a0+a1+a2" in out


def test_roots_infinite_without_bound(capsys):
    code, _, err = run(capsys, "roots", "--y", "2", "2", "2")
    assert code == 2
    assert "height bound" in err


def test_roots_json_round_trip(capsys):
    code, out, _ = run(capsys, "roots", "--y", "1", "1", "1", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["total"] == 12
    assert [2, 1, 1, 1] in data["roots"]


def test_basis_with_classical_numbering(capsys):
    code, out, _ = run(capsys, "basis", "--y", "1", "1", "1",
                       "--paper-numbering", "d")
    assert code == 0
    assert out.splitlines()[-1] == "total 9"
    assert "a1+2a2+a3+a4" in out  # the top root in classical labels


def test_orbits_json_matches_tables(capsys):
    code, out, _ = run(capsys, "orbits", "--y", "1", "1", "2", "--json",
                       "--members")
    data = json.loads(out)
    assert code == 0
    tabs = orbit_tables(y_diagram(1, 1, 2))
    assert data["total"] == sum(t.size for t in tabs)
    by_id = {t.id: t for t in tabs}
    for rec in data["orbits"]:
        t = by_id[rec["id"]]
        assert rec["size"] == t.size
        assert rec["height"] == t.height
        got = {(tuple(a), tuple(b)) for a, b in rec["members"]}
        assert got == set(t.members)


@pytest.mark.parametrize("n", ["1", "2"])
def test_orbits_of_a_path_without_2_roots(capsys, n):
    code, out, _ = run(capsys, "orbits", "--path", n)
    assert code == 0
    assert out == "total 0 positive 2-roots\n"


@pytest.mark.parametrize("command, n, want", [
    ("kernel", "1", "no orbits (group order 2)\n"),
    ("kernel", "2", "no orbits (group order 6)\n"),
    ("highest", "1", "no 2-roots, so no highest 2-roots\n"),
    ("highest", "2", "no 2-roots, so no highest 2-roots\n"),
])
def test_paths_without_2_roots_answer_in_one_line(capsys, command, n, want):
    code, out, _ = run(capsys, command, "--path", n)
    assert (code, out) == (0, want)
    code, out, _ = run(capsys, command, "--path", n, "--json")
    assert code == 0
    assert json.loads(out)["kernels" if command == "kernel" else
                           "highest"] == []


def test_highest_heights(capsys):
    code, out, _ = run(capsys, "highest", "--y", "1", "2", "2")
    assert code == 0
    assert "(height 28)" in out


def test_highest_takes_any_arm_order(capsys):
    """Y(2,1,1) is D5 numbered with its long arm first: D5's two tops, in
    its own vertex numbers."""
    code, out, _ = run(capsys, "highest", "--y", "2", "1", "1")
    assert code == 0
    assert out == ("a0+a1+a2+a4 v a0+a1+a2+a3 (height 4)\n"
                   "a0+a1+a2+a3+a4 v 2a0+a1+a3+a4 (height 11)\n")


def test_expand_golden(capsys):
    code, out, _ = run(capsys, "expand", "--path", "3",
                       "--components", "1,1,0;0,1,1")
    assert code == 0
    assert out.endswith("height 2\n")
    assert out.count("1 * ") == 2


def test_expand_rejects_bad_vector(capsys):
    code, _, err = run(capsys, "expand", "--path", "3",
                       "--components", "1,1;0,1")
    assert code == 2
    assert "length" in err


@pytest.mark.parametrize("command", ["expand", "skein"])
@pytest.mark.parametrize("diagram,components", [
    (["--path", "3"], "2,0,0;0,0,1"),
    (["--y", "2", "2", "3"], "1,0,0,0,0,0,0,0;0,0,0,0,0,0,0,3"),
])
def test_expand_rejects_non_roots(capsys, command, diagram, components):
    code, out, err = run(capsys, command, *diagram, "--components", components)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "not a root" in err


@pytest.mark.parametrize("command", ["expand", "skein"])
def test_expand_rejects_non_orthogonal_roots(capsys, command):
    code, out, err = run(capsys, command, "--path", "3",
                         "--components", "1,0,0;0,1,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "orthogonal" in err


def test_matrix_involution(capsys):
    code, out, _ = run(capsys, "matrix", "--path", "3",
                       "--word", "1 1", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["matrix"] == [[1, 0], [0, 1]]


@pytest.mark.parametrize("word", ["-1", "7"])
def test_matrix_rejects_letters_outside_the_diagram(capsys, word):
    code, out, err = run(capsys, "matrix", "--path", "3", "--word", word)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--y", "1", "1", "2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["complement_dim"] == 0
    assert len(data["orbit_summands"]) == 2


def test_decompose_indefinite(capsys):
    """An indefinite fork has no orbit summands: one module radical."""
    code, out, _ = run(capsys, "decompose", "--y", "2", "2", "3")
    assert code == 0
    assert out == ("Y(2,2,3): indefinite\ndim S^2(V) = 36\n"
                   "invariant line: 1\nmodule dim: 35\n"
                   "module radical dim: 0\n")
    code, out, _ = run(capsys, "decompose", "--y", "2", "2", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["module_radical_dim"] == 0 and data["type"] == "indefinite"
    assert "orbit_summands" not in data


def test_basis_with_path_labels(capsys):
    code, out, _ = run(capsys, "basis", "--path", "4",
                       "--paper-numbering", "a")
    assert code == 0
    assert out.splitlines()[0] == "  0  a1 v a4"
    assert out.splitlines()[-1] == "total 5"


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--y", "2", "2", "2", "--prime", "3"],
     "--prime is not supported for affine diagrams"),
    (["expand", "--path", "3", "--components", "1,1,0"],
     "expected two coefficient vectors separated by ';'"),
    (["kernel", "--y", "2", "2", "2"],
     "group order is only defined for finite diagrams"),
    (["kernel", "--y", "2", "2", "3"],
     "group order is only defined for finite diagrams"),
], ids=["affine-prime", "one-vector", "kernel-affine", "kernel-indefinite"])
def test_refusals_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 291. MiB for an array with shape (127512, 299) "
     "and data type int64", None),
    ("", "out of memory"),
], ids=["numpy", "empty"])
def test_out_of_memory_exits_2(capsys, monkeypatch, message, shown):
    """Running out of memory is not a failed check: one error line, exit
    2.  The stand-in for orbit_tables raises without allocating."""
    def exhausted(d):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "orbit_tables", exhausted)
    code, out, err = run(capsys, "orbits", "--y", "1", "1", "21")
    assert (code, out, err) == (2, "", "error: %s\n" % (shown or message))


def test_decompose_affine(capsys):
    code, out, _ = run(capsys, "decompose", "--y", "2", "2", "2")
    assert code == 0
    assert "degenerate" in out
    assert "dimension 7" in out


def test_kernel_d4(capsys):
    code, out, _ = run(capsys, "kernel", "--y", "1", "1", "1", "--orbit", "2")
    assert code == 0
    assert "kernel order 8 (group order 192)" in out


def test_kernel_d7_small_orbit(capsys):
    code, out, _ = run(capsys, "kernel", "--y", "1", "1", "4", "--orbit", "2")
    assert code == 0
    assert "kernel order 64 (group order 322560)" in out


def test_kernel_walks_no_group(capsys):
    # The kernels are counted by the backtrack; W is never walked.
    tworoots.clear_caches()
    code, out, _ = run(capsys, "kernel", "--y", "1", "1", "2")
    assert code == 0
    assert len(out.splitlines()) == 2  # D5 has two orbits
    assert forms._weyl_walk.cache_info().misses == 0


def test_kernel_d16_builds_no_orbit_table(capsys):
    # |W(D16)| = 2**15 16!; orbit k is summand k of the canonical basis.
    tworoots.clear_caches()
    code, out, _ = run(capsys, "kernel", "--y", "1", "1", "13")
    assert code == 0
    assert out.splitlines() == [
        "orbit 1: kernel order 2 (group order 685597979049984000)",
        "orbit 2: kernel order 32768 (group order 685597979049984000)"]
    assert cli.orbit_tables.cache_info().misses == 0


def test_kernel_unknown_orbit(capsys):
    code, _, err = run(capsys, "kernel", "--y", "1", "1", "1", "--orbit", "9")
    assert code == 2
    assert "no orbit" in err


@pytest.mark.parametrize("flag", [["--group-order", "384"],
                                  ["--max-order", "5"]],
                         ids=["group-order", "max-order"])
def test_kernel_has_no_group_order_override(flag):
    with pytest.raises(SystemExit) as e:
        main(["kernel", "--y", "1", "1", "1", *flag])
    assert e.value.code == 2


def test_skein_golden(capsys):
    code, out, _ = run(capsys, "skein", "--path", "3",
                       "--components", "1,1,0;0,1,1")
    assert code == 0
    assert out.startswith("input: (e1-e3)(e2-e4)\n")
    assert out.count(" * ") == 2


def test_witness_json(capsys):
    code, out, _ = run(capsys, "witness", "--y", "2", "2", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["norm"] == 2
    assert data["sign_coherent"] is True


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "skein")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].endswith("0 failed")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "tworoots", "verify",
                           "--suite", "skein"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("0 failed")


def test_matrix_sign_coherence_flag(capsys):
    code, out, _ = run(capsys, "matrix", "--y", "1", "2", "4",
                       "--word", "0 3 5 1", "--check-sign-coherence")
    assert code == 0
    assert out.splitlines()[-1] == "sign coherent: True"


def test_decompose_mod_two(capsys):
    code, out, _ = run(capsys, "decompose", "--path", "4", "--prime", "2",
                       "--json")
    data = json.loads(out)
    assert code == 0
    assert data["prime"] == 2
    assert data["orbit_summands"] == [{"id": 1, "dim": 5, "radical_dim": 1}]
    code, out, _ = run(capsys, "decompose", "--path", "3", "--prime", "2",
                       "--json")
    data = json.loads(out)
    assert code == 0
    # the whole summand dies mod 2
    assert data["orbit_summands"][0]["radical_dim"] == 2


@pytest.mark.parametrize("prime", ["0", "1", "4", "1000000000000000003"])
def test_decompose_rejects_non_prime_modulus(capsys, prime):
    code, _, err = run(capsys, "decompose", "--y", "1", "1", "1",
                       "--prime", prime)
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_roots_rejects_height_bound_below_one(capsys):
    code, out, err = run(capsys, "roots", "--path", "3",
                         "--height-bound", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("arms, want", [
    (("1", "2", "3"), ["orbit 1: kernel order 2 (group order 2903040)"]),
    (("1", "2", "4"), ["orbit 1: kernel order 2 (group order 696729600)"]),
    (("1", "1", "5"), ["orbit 1: kernel order 2 (group order 5160960)",
                       "orbit 2: kernel order 128 (group order 5160960)"]),
], ids=["E7", "E8", "D8"])
def test_kernel_answers_large_groups_by_default(capsys, arms, want):
    # The search never lists W, so the default call answers whatever its
    # order.
    code, out, err = run(capsys, "kernel", "--y", *arms)
    assert (code, out.splitlines(), err) == (0, want, "")


def test_verify_seed_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--suite", "forms",
                           "--seed", "5")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_verify_accepts_all(capsys):
    args = build_parser().parse_args(["verify", "--suite", "all"])
    assert args.suite == ["all"]
    code, out, _ = run(capsys, "verify", "--suite", "skein",
                       "--suite", "witness")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 failed")


def test_plain_verify_is_suite_all_in_suites_order(capsys, monkeypatch):
    """Two cheap generator suites stand in for the real ones: plain verify
    prints what --suite all prints, in SUITES order (b before a), and
    repeated --suite flags keep the order given."""
    def suite_b(seed=0):
        yield verify.Check("b: first", True, "seed %d" % seed)
        yield verify.Check("b: second", True)

    def suite_a(seed=0):
        yield verify.Check("a: only", False, "1 failures")

    fake = {"b": suite_b, "a": suite_a}
    monkeypatch.setattr(verify, "SUITES", fake)
    monkeypatch.setattr(cli, "SUITES", fake)
    plain = run(capsys, "verify", "--seed", "3")
    assert plain == run(capsys, "verify", "--suite", "all", "--seed", "3")
    assert plain == (1, "PASS b: first: seed 3\nPASS b: second\n"
                        "FAIL a: only: 1 failures\n3 checks, 1 failed\n", "")
    code, out, _ = run(capsys, "verify", "--suite", "a", "--suite", "b")
    assert [l.split(":")[0] for l in out.splitlines()[:-1]] \
        == ["FAIL a", "PASS b", "PASS b"]
    code, out, _ = run(capsys, "verify", "--suite", "b", "--suite", "a",
                       "--suite", "b")
    assert [l.split(":")[0] for l in out.splitlines()[:-1]] \
        == ["PASS b", "PASS b", "FAIL a"]


def test_unknown_suite_runs_nothing(monkeypatch):
    ran = []

    def suite(seed=0):
        ran.append(seed)
        yield verify.Check("ran", True)

    monkeypatch.setitem(verify.SUITES, "basis", suite)
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites(["basis", "nope"])
    assert ran == []


def test_verify_has_no_max_order(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--max-order", "5"])
    assert e.value.code == 2
    assert "--max-order" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["roots"])
    assert e.value.code == 2
