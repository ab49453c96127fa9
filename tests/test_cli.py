import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sympeq import io, random_symplectic
from sympeq.cli import run


def gen(tmp_path, name, *args):
    path = tmp_path / name
    rc = run(["gen", "--output", str(path), *args])
    assert rc == 0
    return path


def analyze(tmp_path, command, inp, name, *args):
    out = tmp_path / name
    rc = run([command, "--input", str(inp), "--output", str(out), *args])
    return rc, out


def load(path):
    return json.loads(path.read_text())


def test_gen_identity_then_decompose(tmp_path):
    inp = gen(tmp_path, "id.json", "--kind", "identity", "--n", "2")
    rc, out = analyze(tmp_path, "decompose", inp, "dec.json")
    assert rc == 0
    doc = load(out)
    n_mat = io.matrix_from_doc(doc["result"]["n_matrix"])
    assert np.allclose(n_mat, np.eye(4), atol=1e-10)
    assert doc["result"]["recon_residual"] <= 1e-10
    assert doc["result"]["s1_residual"] <= 1e-10
    assert doc["command"] == "decompose"
    assert list(doc["tolerances"]) == ["residual_tol", "degeneracy_gap", "psd_tol"]
    assert all(v.startswith("sha256:") for v in doc["inputs"].values())


def test_gen_tmss_then_condense(tmp_path):
    inp = gen(tmp_path, "tmss.json", "--kind", "tmss", "--r", "0.5")
    rc, out = analyze(tmp_path, "condense", inp, "cond.json")
    assert rc == 0
    doc = load(out)
    lam = doc["result"]["blocks"]["blocks"][0]["re"]
    assert lam == pytest.approx(-math.sinh(1.0) ** 2, rel=1e-9)


def test_gen_attenuator_then_normalize_and_validate(tmp_path):
    inp = gen(tmp_path, "att.json", "--kind", "attenuator", "--eta", "0.36")
    rc, out = analyze(tmp_path, "channel-normalize", inp, "norm.json")
    assert rc == 0
    x_out = io.matrix_from_doc(load(out)["result"]["channel"]["x"])
    assert np.allclose(x_out, np.diag([1.0, 0.36]), atol=1e-10)

    rc, out = analyze(tmp_path, "validate-channel", inp, "val.json")
    assert rc == 0
    assert load(out)["result"]["valid"] is True


def test_gen_passive_round_trip(tmp_path):
    inp = gen(tmp_path, "p.json", "--kind", "passive", "--n", "2", "--env-modes", "2", "--seed", "5")
    rc, out = analyze(tmp_path, "witness", inp, "w.json")
    assert rc == 0
    assert load(out)["result"]["verdict"] == "inconclusive"
    rc, _ = analyze(tmp_path, "validate-channel", inp, "vc.json")
    assert rc == 0


def test_gen_random_kinds_parse_back(tmp_path):
    x = gen(tmp_path, "x.json", "--kind", "random-x", "--n", "2", "--seed", "3")
    rc, _ = analyze(tmp_path, "invariants", x, "ix.json")
    assert rc == 0
    rc, _ = analyze(tmp_path, "decompose", x, "dx.json")
    assert rc == 0
    s = gen(tmp_path, "s.json", "--kind", "random-symplectic", "--n", "2", "--seed", "3")
    rc, _ = analyze(tmp_path, "invariants", s, "is.json")
    assert rc == 0


def test_validate_state_accepts_state_and_matrix(tmp_path):
    tm = gen(tmp_path, "tmss.json", "--kind", "tmss", "--r", "0.3")
    rc, out = analyze(tmp_path, "validate-state", tm, "vs.json")
    assert rc == 0
    assert load(out)["result"]["valid"] is True
    idm = gen(tmp_path, "id.json", "--kind", "identity", "--n", "1")
    rc, out = analyze(tmp_path, "validate-state", idm, "vi.json")
    assert rc == 0
    assert load(out)["result"]["valid"] is True


def test_williamson_subcommand(tmp_path):
    path = tmp_path / "thermal.json"
    io.save_document(io.matrix_to_doc(np.diag([2.0, 2.0])), str(path))
    rc, out = analyze(tmp_path, "williamson", path, "w.json")
    assert rc == 0
    doc = load(out)
    assert doc["result"]["nu"] == pytest.approx([2.0], rel=1e-12)
    assert doc["result"]["occupations"] == pytest.approx([0.5], abs=1e-12)


def test_exit_code_2_on_singular_input(tmp_path, capsys):
    path = tmp_path / "singular.json"
    io.save_document(io.matrix_to_doc(np.diag([1.0, 0.0])), str(path))
    rc = run(["decompose", "--input", str(path)])
    assert rc == 2
    assert "SingularInput" in capsys.readouterr().err


def test_exit_code_2_on_not_positive_definite(tmp_path, capsys):
    path = tmp_path / "indef.json"
    io.save_document(io.matrix_to_doc(np.diag([1.0, -1.0])), str(path))
    rc = run(["williamson", "--input", str(path)])
    assert rc == 2
    assert "NotPositiveDefinite" in capsys.readouterr().err


def test_exit_code_2_on_eigensolve_failure(tmp_path, capsys, monkeypatch):
    import scipy.linalg

    def failing(*args, **kwargs):
        raise scipy.linalg.LinAlgError("The algorithm failed to converge.")

    monkeypatch.setattr(scipy.linalg, "eigh", failing)
    path = tmp_path / "thermal.json"
    io.save_document(io.matrix_to_doc(np.diag([2.0, 2.0])), str(path))
    rc = run(["williamson", "--input", str(path)])
    assert rc == 2
    assert "EigenFailure" in capsys.readouterr().err


def test_exit_code_1_on_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run(["decompose", "--input", str(path)]) == 1


def test_exit_code_1_on_missing_file(tmp_path):
    assert run(["decompose", "--input", str(tmp_path / "absent.json")]) == 1


def test_unknown_flag_rejected():
    assert run(["decompose", "--frobnicate", "x"]) != 0


def test_machine_output_byte_stable(tmp_path):
    kinds = [
        ("identity", ["--n", "2"], "decompose"),
        ("tmss", ["--r", "0.5"], "condense"),
        ("attenuator", ["--eta", "0.36"], "channel-normalize"),
        ("passive", ["--n", "2", "--env-modes", "1", "--seed", "11"], "witness"),
        ("random-x", ["--n", "3", "--seed", "7"], "invariants"),
    ]
    for kind, args, command in kinds:
        p1 = gen(tmp_path, f"{kind}-1.json", "--kind", kind, *args)
        p2 = gen(tmp_path, f"{kind}-2.json", "--kind", kind, *args)
        assert p1.read_bytes() == p2.read_bytes()
        rc1, o1 = analyze(tmp_path, command, p1, f"{kind}-r1.json", "--seed", "1")
        rc2, o2 = analyze(tmp_path, command, p1, f"{kind}-r2.json", "--seed", "1")
        assert rc1 == 0 and rc2 == 0
        assert o1.read_bytes() == o2.read_bytes()


def test_human_format(tmp_path, capsys):
    inp = gen(tmp_path, "id.json", "--kind", "identity", "--n", "1")
    rc = run(["invariants", "--input", str(inp), "--format", "human"])
    assert rc == 0
    assert "lambda" in capsys.readouterr().out


def test_console_entry_point(tmp_path):
    inp = gen(tmp_path, "id.json", "--kind", "identity", "--n", "1")
    proc = subprocess.run(
        [sys.executable, "-m", "sympeq", "invariants", "--input", str(inp)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["values"][0]["re"] == 1.0


COLD_CHILD = """
import json, sys
import sympeq, sympeq.cli
files, thermal, out = json.loads(sys.argv[1])
codes = [sympeq.cli.run([cmd, "--input", path, "--output", path + ".out"])
         for cmd, path in zip(("invariants", "decompose", "witness"), files)]
scipy_before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
codes.append(sympeq.cli.run(["williamson", "--input", thermal, "--output", out]))
print(json.dumps({"codes": codes, "scipy_before_williamson": scipy_before}))
"""


def test_cold_path_loads_scipy_only_for_williamson(tmp_path):
    files = [
        str(gen(tmp_path, f"x{seed}.json", "--kind", "random-x", "--n", "2", "--seed", str(seed)))
        for seed in (3, 4, 5)
    ]
    s = random_symplectic(2, seed=9)
    g = s @ np.diag([3.0, 1.5, 3.0, 1.5]) @ s.T
    thermal = tmp_path / "thermal.json"
    io.save_document(io.matrix_to_doc((g + g.T) / 2), str(thermal))
    child_out = tmp_path / "w-child.json"

    proc = subprocess.run(
        [sys.executable, "-c", COLD_CHILD, json.dumps([files, str(thermal), str(child_out)])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["scipy_before_williamson"] == []
    assert doc["codes"] == [0, 0, 0, 0]

    rc, parent_out = analyze(tmp_path, "williamson", thermal, "w-parent.json")
    assert rc == 0
    assert child_out.read_bytes() == parent_out.read_bytes()
