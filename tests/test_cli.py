import gc
import hashlib
import os
import subprocess
import sys
import time
from ast import literal_eval
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qtoric import AffineSemigroup, cli, lattice_geometry
from qtoric.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
MODEL = str(GOLDEN / "demo.model")

GOLDEN_CASES = [
    ("analyze.txt", ["analyze", "A1"]),
    ("facets.txt", ["facets", "A1"]),
    ("regularity.txt", ["regularity", "A1"]),
    ("decompose.txt", ["decompose", "A1"]),
    ("embed_torus.txt", ["embed-torus", "A1", "qplane"]),
    ("twist_check.txt", ["twist-check", "A1", "qplane"]),
    ("cohomologous.txt", ["cohomologous", "upper", "shifted"]),
    ("multiply.txt", ["multiply", "A1", "qplane", "1,1", "1,0"]),
    ("straighten.txt", ["straighten", "D", "tri3", "y,x"]),
    ("lattice.txt", ["lattice", "D", "--cocycle", "tri3"]),
]


# every command on corpus.model, with each optional report line both present
# and omitted, and refusals with exit codes 2, 3 and 4
CORPUS_MODEL = str(GOLDEN / "corpus.model")
CORPUS_CASES = [
    ["analyze", "N23"], ["analyze", "P2h"], ["analyze", "U1"], ["analyze", "L"],
    ["analyze", "A1", "--bound", "2"], ["analyze", "NOPE"],
    ["analyze", "A1", "--self-check-corrupt"],
    ["normal", "A1"], ["normal", "N23"], ["normal", "L"],
    ["facets", "U1"], ["facets", "P2h"], ["facets"],
    ["decompose", "U1"], ["decompose", "P2h"], ["decompose", "N23"],
    ["regularity", "N23"], ["regularity", "U1"], ["regularity", "P2h"],
    ["embed-torus", "P2h", "qplane"], ["embed-torus", "U1", "upper"],
    ["twist-check", "U1", "qplane"], ["twist-check", "A1", "upper", "--bound", "1"],
    ["twist-check", "A1", "qplane", "--bound", "-1"],
    ["cohomologous", "upper", "upper"], ["cohomologous", "qplane", "upper"],
    ["cohomologous", "upper2", "shifted2"], ["cohomologous", "upper", "triv"],
    ["cohomologous", "upper", "upper2"],
    ["multiply", "U1", "qplane", "-2,1", "1,0"], ["multiply", "A1", "upper", "[1,2]", "[1,0]"],
    ["multiply", "L", "qplane", "0,1", "1,0"], ["multiply", "A1", "qplane", "x,1", "1,0"],
    ["straighten", "D", "tri3", "top,x,y"], ["straighten", "D", "tri3", "x,zz"],
    ["lattice", "D"], ["lattice", "D", "--cocycle", "tri3"],
    ["lattice", "D", "--cocycle", "upper"],
]


@pytest.fixture(autouse=True)
def _clear_bound_env(monkeypatch):
    monkeypatch.delenv("QTORIC_BOUND", raising=False)


def run(capsys, argv, model=MODEL):
    rc = main(list(argv) + ["--model", model])
    out, err = capsys.readouterr()
    return rc, out, err


def test_golden_outputs(capsys):
    for fname, argv in GOLDEN_CASES:
        rc, out, err = run(capsys, argv)
        assert rc == 0, (fname, err)
        assert out == (GOLDEN / fname).read_text(), fname


def render_corpus(capsys) -> str:
    """Each corpus command with its exit code, stdout and stderr."""
    blocks = []
    for argv in CORPUS_CASES:
        try:
            rc, out, err = run(capsys, argv, CORPUS_MODEL)
        except SystemExit as exc:  # argparse refuses before main returns
            rc, (out, err) = exc.code, capsys.readouterr()
        blocks.append(f"$ qtoric {' '.join(argv)}\n--- exit {rc}\n"
                      f"--- stdout\n{out}--- stderr\n{err}")
    return "\n".join(blocks)


def test_report_corpus(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert render_corpus(capsys) == (GOLDEN / "corpus.txt").read_text(encoding="utf-8")


def test_every_command_has_a_golden_report():
    covered = {argv[0] for _, argv in GOLDEN_CASES} | {argv[0] for argv in CORPUS_CASES}
    assert set(cli._COMMANDS) <= covered


def test_report_header_and_digest(capsys):
    rc, out, _ = run(capsys, ["normal", "N23"])
    assert rc == 0
    digest = hashlib.sha256(Path(MODEL).read_bytes()).hexdigest()
    lines = out.splitlines()
    assert lines[0] == "command = normal"
    assert lines[1] == f"model_sha256 = {digest}"
    assert "normal = false" in out
    assert "witness_g = [1]" in out
    assert "witness_p = 2" in out
    assert "saturation_hilbert_basis = [[1]]" in out


def test_subprocess_runs_are_byte_identical():
    # distinct hash seeds force distinct dict iteration orders per process
    for fname, argv in [("lattice.txt", ["lattice", "D", "--cocycle", "tri3"]),
                        ("embed_torus.txt", ["embed-torus", "A1", "qplane"])]:
        outs = []
        for seed in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k != "QTORIC_BOUND"}
            env["PYTHONHASHSEED"] = seed
            r = subprocess.run(
                [sys.executable, "-m", "qtoric"] + argv + ["--model", MODEL],
                capture_output=True, env=env)
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1]
        assert outs[0] == (GOLDEN / fname).read_bytes()


def test_bound_resolution(capsys, monkeypatch, tmp_path):
    rc, out, _ = run(capsys, ["analyze", "A1"])
    assert "hilbert_bound = 5" in out  # the model's bound line
    rc, out, _ = run(capsys, ["analyze", "A1", "--bound", "7"])
    assert "hilbert_bound = 7" in out
    monkeypatch.setenv("QTORIC_BOUND", "8")
    rc, out, _ = run(capsys, ["analyze", "A1"])
    assert "hilbert_bound = 8" in out
    rc, out, _ = run(capsys, ["analyze", "A1", "--bound", "7"])
    assert "hilbert_bound = 7" in out  # flag beats environment
    monkeypatch.delenv("QTORIC_BOUND")
    bare = tmp_path / "bare.model"
    bare.write_text("semigroup B gens=[[1]]\n", encoding="utf-8")
    rc, out, _ = run(capsys, ["analyze", "B"], model=str(bare))
    assert "hilbert_bound = 6" in out  # built-in default


def test_bad_bound_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QTORIC_BOUND", "soon")
    rc, out, err = run(capsys, ["analyze", "A1"])
    assert rc == 2
    assert "QTORIC_BOUND must be an integer" in err
    monkeypatch.setenv("QTORIC_BOUND", "-1")
    rc, out, err = run(capsys, ["analyze", "A1"])
    assert rc == 2
    assert "nonnegative" in err
    # regularity uses no bound, so like normal and facets it never reads one
    monkeypatch.setenv("QTORIC_BOUND", "soon")
    rc, out, err = run(capsys, ["regularity", "A1"])
    assert rc == 0, err
    assert out == (GOLDEN / "regularity.txt").read_text()


def test_unknown_name_exits_2(capsys):
    rc, out, err = run(capsys, ["analyze", "NOPE"])
    assert rc == 2
    assert "no semigroup named 'NOPE'" in err
    rc, out, err = run(capsys, ["cohomologous", "upper", "NOPE"])
    assert rc == 2
    assert "no cocycle named 'NOPE'" in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("semigroup A gens=%\n", encoding="utf-8")
    rc, out, err = run(capsys, ["analyze", "A"], model=str(bad))
    assert rc == 2
    assert "line 1, column 18" in err
    bad.write_text("bound " + "1" * 5000 + "\n", encoding="utf-8")
    rc, out, err = run(capsys, ["analyze", "A"], model=str(bad))
    assert rc == 2 and err == "error: line 1, column 7: number has too many digits\n"


def test_missing_model_exits_2(capsys, tmp_path):
    rc, out, err = run(capsys, ["analyze", "A1"], model=str(tmp_path / "no.model"))
    assert rc == 2
    assert "cannot read model file" in err


def test_bad_vector_argument_exits_2(capsys):
    rc, out, err = run(capsys, ["multiply", "A1", "qplane", "a,b", "1,0"])
    assert rc == 2
    assert "integer vector" in err
    # an empty entry, or an empty vector, is refused, not dropped
    for left in ("1,,1", "1,1,", ",1,1", ",", "[]", "", "[1,,1]"):
        rc, out, err = run(capsys, ["multiply", "A1", "qplane", left, "1,0"])
        assert (rc, out, err) == (
            2, "", f"error: expected a comma-separated integer vector, got {left!r}\n"), left


def test_unknown_label_exits_2(capsys):
    rc, out, err = run(capsys, ["straighten", "D", "tri3", "y,zz"])
    assert rc == 2
    assert "zz" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--model", MODEL])
    assert exc.value.code == 2
    capsys.readouterr()


def test_not_normal_decompose_exits_3(capsys):
    rc, out, err = run(capsys, ["decompose", "N23"])
    assert rc == 3
    assert "is not normal" in err
    assert "[1]" in err and "2 times" in err


def test_monomial_outside_semigroup_exits_3(capsys):
    rc, out, err = run(capsys, ["multiply", "A1", "qplane", "0,1", "1,0"])
    assert rc == 3
    assert "outside the monomial domain" in err


def test_non_member_near_the_cone_exits_3():
    # refuted by a negative facet height; the search once hit Python's
    # recursion limit here and the command ended in a traceback
    rc, out, err = run_fresh(["multiply", "A1", "qplane", "1001,2003", "1,0", "--model", MODEL])
    assert (rc, out) == (3, "")
    assert err == "error: support vector [1001, 2003] lies outside the monomial domain\n"


def test_dimension_mismatch_exits_3(capsys):
    rc, out, err = run(capsys, ["embed-torus", "A1", "tri3"])
    assert rc == 3


def test_self_check_corruption_exits_4(capsys):
    rc, out, err = run(capsys, ["analyze", "A1", "--self-check-corrupt"])
    assert rc == 4
    assert "internal verification failure" in err
    assert "corruption detected at triple" in err


def test_twenty_element_chain_is_cheap(capsys, tmp_path):
    # straightening needs no staircase scan and the Birkhoff data no subset
    # enumeration, so a 20-element chain (19 irreducibles) is quick; the
    # regularity report is refused by the cone dimension limit
    labels = [f"c{i}" for i in range(20)]
    covers = ",".join(f"[c{i},c{i + 1}]" for i in range(19))
    path = tmp_path / "chain.model"
    path.write_text(f"lattice C elements=[{','.join(labels)}] covers=[{covers}]\n"
                    "cocycle t dim=20 params=[q]\n", encoding="utf-8")
    start = time.monotonic()
    rc, out, err = run(capsys, ["straighten", "C", "t", "c19,c3,c7"], model=str(path))
    assert rc == 0, err
    assert "standard = [c3,c7,c19]" in out
    assert time.monotonic() - start < 2.0
    start = time.monotonic()
    rc, out, err = run(capsys, ["lattice", "C"], model=str(path))
    assert rc == 3 and out == ""
    assert err == "error: dimension 20 exceeds the supported limit of 7\n"
    assert time.monotonic() - start < 2.0


def test_large_degree_bound_is_refused_first(capsys):
    start = time.monotonic()
    rc, out, err = run(capsys, ["analyze", "A1", "--bound", "100000"])
    assert rc == 3 and out == ""
    assert err.startswith("error: degree 100000 in dimension 2 bounds the enumeration")
    assert "limit of 1000000" in err
    assert time.monotonic() - start < 1.0


def test_deeply_nested_model_value_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.model"
    path.write_text("semigroup A gens=" + "[" * 5000 + "1" + "]" * 5000 + "\n",
                    encoding="utf-8")
    rc, out, err = run(capsys, ["analyze", "A"], model=str(path))
    assert rc == 2 and out == ""
    assert err == "error: line 1, column 13: gens entries must be integers\n"


# -- in-process reuse of the parser and the model ------------------------------

# a second model with other bytes: another bound and one more declaration
SECOND_MODEL_TEXT = (Path(MODEL).read_text(encoding="utf-8").replace("bound 5", "bound 4")
                     + "semigroup N5711 gens=[[5],[7],[11]]\n")
BROKEN_MODEL_TEXT = "semigroup A gens=%\n"

# (model, argv): every golden command on both models, the extra declaration,
# a parse error and an unknown name
STEPS = ([("demo", argv) for _, argv in GOLDEN_CASES]
         + [("second", argv) for _, argv in GOLDEN_CASES]
         + [("second", ["analyze", "N5711"]), ("broken", ["analyze", "A"]),
            ("demo", ["analyze", "NOPE"])])


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {"demo": MODEL}
    for key, text in (("second", SECOND_MODEL_TEXT), ("broken", BROKEN_MODEL_TEXT)):
        (root / f"{key}.model").write_text(text, encoding="utf-8")
        paths[key] = str(root / f"{key}.model")
    return paths


_FRESH_RUNS: dict = {}


def run_fresh(argv):
    """(exit code, stdout, stderr) of argv as the first call of a new interpreter."""
    key = tuple(argv)
    if key not in _FRESH_RUNS:
        env = {k: v for k, v in os.environ.items() if k != "QTORIC_BOUND"}
        r = subprocess.run([sys.executable, "-m", "qtoric", *argv],
                           capture_output=True, env=env)
        _FRESH_RUNS[key] = (r.returncode, r.stdout.decode(), r.stderr.decode())
    return _FRESH_RUNS[key]


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(0, len(STEPS) - 1), min_size=1, max_size=8))
def test_reused_model_answers_as_a_fresh_interpreter(capsys, model_paths, sequence):
    for index in sequence:
        model, argv = STEPS[index]
        path = model_paths[model]
        assert run(capsys, argv, path) == run_fresh(argv + ["--model", path]), argv


def test_model_rewritten_in_place_is_read_again(capsys, tmp_path):
    path = tmp_path / "demo.model"
    text = Path(MODEL).read_text(encoding="utf-8")
    versions = [text, text.replace("bound 5", "bound 4"), BROKEN_MODEL_TEXT, text]
    reports = []
    for version in versions:
        path.write_text(version, encoding="utf-8")
        reports.append(run(capsys, ["analyze", "A1"], model=str(path)))
    digests = [hashlib.sha256(v.encode()).hexdigest() for v in versions]
    for (rc, out, err), digest in zip(reports[:2], digests):
        assert rc == 0 and out.splitlines()[1] == f"model_sha256 = {digest}"
    assert "hilbert_bound = 5" in reports[0][1] and "hilbert_bound = 4" in reports[1][1]
    assert reports[2] == (2, "", "error: line 1, column 18: unexpected character '%'\n")
    assert reports[3] == reports[0]


def test_one_parser_per_process(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for i in range(20):
        rc, out, err = run(capsys, GOLDEN_CASES[i % len(GOLDEN_CASES)][1])
        assert rc == 0, err
    assert built == [1]


def test_help_and_usage_errors_match_a_fresh_parser(capsys):
    run(capsys, ["normal", "N23"])  # the process's parser is built and used
    for argv in (["--help"], ["analyze", "--help"], ["frobnicate", "--model", MODEL],
                 ["analyze", "A1"], ["multiply", "A1", "--model", MODEL], []):
        with pytest.raises(SystemExit) as reused:
            main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as fresh:
            build_parser().parse_args(argv)
        assert (reused.value.code, got) == (fresh.value.code, capsys.readouterr()), argv


def test_warm_call_leaves_no_cyclic_garbage(capsys):
    # the lattice report computes normality, whose full embedding of S must
    # not point back at S
    for argv in (["analyze", "A1"], ["lattice", "D", "--cocycle", "tri3"]):
        run(capsys, argv)
        gc.collect()
        gc.disable()
        try:
            rc = main(argv + ["--model", MODEL])
            assert gc.collect() == 0, argv
        finally:
            gc.enable()
        assert rc == 0
        capsys.readouterr()


def test_deep_numerical_multiplies_answer(capsys, tmp_path):
    # the support check decides the last generator in closed form, so these
    # need a handful of nested calls instead of thousands; with the bilinear
    # cocycle q^(s*t) the product of X[a] and X[b] is q^(a*b)*X[a+b]
    path = tmp_path / "numerical.model"
    path.write_text("semigroup N23 gens=[[2],[3]]\n"
                    "semigroup N5711 gens=[[5],[7],[11]]\n"
                    "cocycle c1 dim=1 params=[q] bichar:q=[[1]]\n", encoding="utf-8")
    for name, a, b in [("N23", 3000, 3), ("N23", 10000, 3), ("N5711", 10000, 7)]:
        rc, out, err = run(capsys, ["multiply", name, "c1", str(a), str(b)], model=str(path))
        assert (rc, err) == (0, ""), (name, a)
        assert out.splitlines()[-1] == f"product = q^{a * b}*X[{a + b}]"


def test_lattice_commands_reuse_the_straightening_semigroup(capsys, monkeypatch):
    # the model keeps one straightening semigroup per lattice, so a second
    # lattice report on it repeats no facet search and prints the same bytes
    calls = []
    real = lattice_geometry._double_description

    def counting(rays, d):
        calls.append(rays)
        return real(rays, d)

    monkeypatch.setattr(lattice_geometry, "_double_description", counting)
    monkeypatch.setattr(cli, "_model", None)
    argv = ["lattice", "D", "--cocycle", "tri3"]
    first = run(capsys, argv)
    assert calls
    calls.clear()
    assert run(capsys, argv) == first
    assert run(capsys, ["straighten", "D", "tri3", "y,x"])[0] == 0
    assert calls == []
    _, model = cli._read_model(MODEL)
    assert model.straightening("D") is model.straightening("D")


def test_each_semigroup_runs_one_cone_pass(capsys, monkeypatch, tmp_path):
    # pointedness, normality, facets, the regularity report and decompose all
    # read one double-description pass per semigroup, refusals included: A1,
    # a unimodular image of A1 (pointed, not positive), a non-full semigroup
    # and the cone over a square
    path = tmp_path / "cones.model"
    path.write_text("semigroup A1 gens=[[1,0],[1,1],[1,2]]\n"
                    "semigroup U1 gens=[[1,0],[-2,1],[-5,2]]\n"
                    "semigroup P2h gens=[[2,0],[1,1],[0,2]]\n"
                    "semigroup S4 gens=[[1,0,0,0],[1,1,0,0],[1,0,1,0],[1,0,0,1],[1,1,1,1]]\n"
                    "bound 3\n", encoding="utf-8")
    passes = []
    real = lattice_geometry._double_description

    def counting(rays, d):
        passes.append(rays)
        return real(rays, d)

    monkeypatch.setattr(lattice_geometry, "_double_description", counting)
    monkeypatch.setattr(cli, "_model", None)
    commands = ["analyze", "normal", "facets", "regularity", "decompose"]
    expected = {"A1": [0, 0, 0, 0, 0], "U1": [0, 0, 0, 0, 0], "P2h": [0, 0, 3, 0, 3],
                "S4": [0, 0, 0, 0, 0]}
    for name, codes in expected.items():
        passes.clear()
        assert [run(capsys, [c, name], model=str(path))[0] for c in commands] == codes
        assert len(passes) == 1, (name, passes)


def test_answers_on_the_group_of_fractions(capsys, tmp_path):
    # the torus of a non-full S runs over the basis of G(S); the regularity
    # report and decompose of a pointed S need no positivity
    path = tmp_path / "groups.model"
    path.write_text("semigroup P2h gens=[[2,0],[1,1],[0,2]]\n"
                    "semigroup U1 gens=[[1,0],[-2,1],[-5,2]]\n"
                    "cocycle qplane dim=2 params=[q] bichar:q=[[0,0],[-1,0]]\n", encoding="utf-8")
    rc, out, err = run(capsys, ["embed-torus", "P2h", "qplane"], model=str(path))
    assert (rc, err) == (0, "")
    p2h = AffineSemigroup([(2, 0), (1, 1), (0, 2)])
    pairs = [literal_eval(line.split(" = ")[1]) for line in out.splitlines()
             if line.startswith("pair_")]
    assert len(pairs) == len(p2h.group.basis) == 2
    for (s, t), b in zip(pairs, p2h.group.basis):
        assert tuple(x - y for x, y in zip(s, t)) == b
        assert p2h.contains(s) and p2h.contains(t)
    reports = {c: run(capsys, [c, "U1"], model=str(path)) for c in ("regularity", "decompose")}
    assert all((rc, err) == (0, "") for rc, _, err in reports.values()), reports
    assert "gorenstein_witness = [-2,1]" in reports["regularity"][1]
    assert "facet_count = 2" in reports["decompose"][1]


def test_negative_bound_flag_is_usage_error(capsys):
    for argv in (["analyze", "A1"], ["decompose", "A1"], ["twist-check", "A1", "qplane"]):
        rc, out, err = run(capsys, argv + ["--bound", "-3"])
        assert (rc, out, err) == (2, "", "error: --bound must be nonnegative\n"), argv


def test_witness_beyond_the_summand_limit_exits_3(capsys):
    rc, out, err = run(capsys, ["multiply", "A1", "qplane", "99999999999999999999,0", "1,0"])
    assert (rc, out) == (3, "")
    assert err == ("error: a witness of 99999999999999999998 summands exceeds the "
                   "supported limit of 1000000\n")


def test_membership_on_a_line_exits_3(capsys, tmp_path):
    # multiply asks whether its factors lie in S; a cone with a line is
    # refused with one error line, as normality refuses it
    path = tmp_path / "line.model"
    path.write_text("semigroup L gens=[[1,0],[-1,0],[0,1]]\n"
                    "cocycle qplane dim=2 params=[q] bichar:q=[[0,0],[-1,0]]\n",
                    encoding="utf-8")
    rc, out, err = run(capsys, ["multiply", "L", "qplane", "0,1", "1,0"], model=str(path))
    assert (rc, out) == (3, "")
    assert err == "error: membership needs a pointed cone: cone contains a line\n"


def test_twist_check_answers_on_a_non_positive_semigroup(capsys, tmp_path):
    # a unimodular image of A1 is not positive; its twisting system needs no
    # degree enumeration, so twist-check answers as it does on A1
    path = tmp_path / "u1.model"
    path.write_text("semigroup U1 gens=[[1,0],[-2,1],[-5,2]]\n"
                    "cocycle qplane dim=2 params=[q] bichar:q=[[0,0],[-1,0]]\n"
                    "bound 3\n", encoding="utf-8")
    rc, out, err = run(capsys, ["twist-check", "U1", "qplane"], model=str(path))
    assert (rc, err) == (0, "")
    assert out.splitlines()[2:] == ["semigroup = U1", "cocycle = qplane",
                                    "axiom_verified_degree = 3",
                                    "product_verified_degree = 3", "twisting_system = ok"]


def test_invalid_utf8_model_exits_2(capsys, tmp_path):
    # a parse error with its line and byte column, as any bad line is
    path = tmp_path / "latin.model"
    path.write_bytes(b"semigroup A gens=[[1]]\n\xff\n")
    rc, out, err = run(capsys, ["analyze", "A"], model=str(path))
    assert (rc, out) == (2, "")
    assert err == "error: line 2, column 1: model file is not valid UTF-8\n"


def test_normality_multiple_beyond_the_limit_exits_3(capsys, tmp_path):
    # the least p with p * (1,) in S is 10001, beyond the normality limit: a
    # size refusal (exit 3), not an internal verification failure (exit 4)
    path = tmp_path / "far.model"
    path.write_text("semigroup F gens=[[10001],[10002]]\n", encoding="utf-8")
    rc, out, err = run(capsys, ["normal", "F"], model=str(path))
    assert (rc, out) == (3, "")
    assert err == ("error: no multiple p * [1] with p <= 10000 lies in S; the least p "
                   "exceeds the supported limit of 10000\n")


def test_negative_vectors_parse_as_their_bracket_form(capsys, tmp_path):
    # a vector that starts with "-" is a vector, not an option
    path = tmp_path / "negative.model"
    path.write_text("semigroup U1 gens=[[1,0],[-2,1],[-5,2]]\n"
                    "semigroup M gens=[[-1,0],[0,-1]]\n"
                    "cocycle qplane dim=2 params=[q] bichar:q=[[0,0],[-1,0]]\n",
                    encoding="utf-8")
    for name, left, right in (("U1", "1,0", "-2,1"), ("M", "-2,-1", "-1,0"),
                              ("U1", "-2,-1", "1,0")):
        plain = run(capsys, ["multiply", name, "qplane", left, right], model=str(path))
        bracket = run(capsys, ["multiply", name, "qplane", f"[{left}]", f"[{right}]"],
                      model=str(path))
        assert plain == bracket, (name, left, right)
    assert run(capsys, ["multiply", "M", "qplane", "-2,-1", "-1,0"], model=str(path))[:2] == (
        0, "command = multiply\n"
        f"model_sha256 = {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        "semigroup = M\ncocycle = qplane\nleft = [-2,-1]\nright = [-1,0]\n"
        "product = q^-1*X[-3, -1]\n")
    rc, out, err = run(capsys, ["multiply", "U1", "qplane", "-2,-1", "1,0"], model=str(path))
    assert (rc, out) == (3, "")
