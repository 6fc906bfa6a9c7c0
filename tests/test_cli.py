import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qtoric.cli import main

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
