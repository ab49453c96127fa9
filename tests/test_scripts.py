"""The scripts under scripts/, each run as a child process on this tree."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def script(name, *args, **env):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )


def test_apps_outcomes_of_a_tree_against_itself():
    proc = script("apps_outcomes.py", "--parent", str(ROOT), "--change", str(ROOT), "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    assert "0 different outcome" in proc.stdout


def test_decompose_timing_prints_a_row_per_operation_and_n():
    proc = script(
        "decompose_timing.py", "--parent", str(ROOT), "--change", str(ROOT),
        "--rounds", "1", "--inputs", "1", "--repeat", "1",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    ops = (
        "decompose",
        "decompose_repeated",
        "decompose_passive",
        "decompose_channel",
        "decompose_mixed",
        "invariants",
        "spectrum_from_eigenvalues",
        "hermitian_min_eig",
        "williamson",
    )
    ns = ("1", "2", "3", "4", "5", "6", "7", "8", "16", "24", "32")
    assert [tuple(row[:2]) for row in rows] == [(op, n) for op in ops for n in ns]
    assert all(len(row) == 6 and row[5] in ("0/1", "1/1") for row in rows)


def test_decompose_timing_prints_the_stages_of_one_tree_per_n():
    proc = script("decompose_timing.py", "--stages", str(ROOT), "--rounds", "1", "--inputs", "1", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()[1:]
    assert header.split() == ["n", "gate", "sigma_eig", "classify", "stage1", "blocks", "finish", "sum"]
    rows = [[float(cell) for cell in line.split()] for line in rows]
    assert [row[0] for row in rows] == [2, 3, 4, 5, 6, 7, 8, 16, 24, 32]
    for row in rows:
        ms, shares = row[1:13:2], row[2:13:2]
        assert len(row) == 14 and min(ms) > 0
        assert sum(ms) == pytest.approx(row[13], rel=1e-3, abs=1e-4)
        assert sum(shares) == pytest.approx(100, abs=0.5)


def test_decompose_timing_refuses_stage_marks_out_of_order(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import decompose_timing

    names = list(decompose_timing.STAGES.values())[1:]
    marks = [(name, float(i)) for i, name in enumerate(names, 1)]
    times = decompose_timing.stage_times(0.0, marks, 9.0)
    assert list(times) == list(decompose_timing.STAGES) and sum(times.values()) == 9.0
    assert decompose_timing.stage_times(0.0, marks[:2], 9.0) is None  # raised before the last mark
    for bad in ([marks[1], marks[0], *marks[2:]], [*marks, marks[-1]], marks[1:]):
        with pytest.raises(ValueError, match="out of order"):
            decompose_timing.stage_times(0.0, bad, 9.0)


def test_decompose_timing_takes_the_geometric_mean_of_both_load_orders(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import decompose_timing

    # the change reads 10% faster with the parent loaded first and 10%
    # slower the other way round: the geometric mean of the two ratios
    first = {"parent": {"op": {"2": [1.0, 1.0, 1.0]}}, "change": {"op": {"2": [0.9, 0.9, 0.9]}}}
    second = {"parent": {"op": {"2": [2.0, 2.0, 1.0]}}, "change": {"op": {"2": [2.2, 2.3, 1.0]}}}
    parent, change, wins = decompose_timing.combine(first, second, "op", 2)
    assert parent == pytest.approx(2.0**0.5) and change == pytest.approx((0.9 * 2.2) ** 0.5)
    assert change / parent == pytest.approx((0.9 * 1.1) ** 0.5)
    assert wins == 2  # 0.9 * 2.2 < 2.0 and 0.9 * 1.0 < 1.0, but not 0.9 * 2.3


def test_loader_refuses_a_tree_that_imports_sympeq_by_absolute_name(tmp_path):
    package = tmp_path / "src" / "sympeq"
    shutil.copytree(ROOT / "src" / "sympeq", package, ignore=shutil.ignore_patterns("__pycache__"))
    errors = package / "errors.py"
    errors.write_text("import sympeq  # noqa: F401\n" + errors.read_text())
    proc = script(
        "stress_compare.py", "--parent", str(ROOT), "--change", str(tmp_path),
        PYTHONPATH=str(ROOT / "src"),
    )
    assert proc.returncode == 1
    assert "by absolute name" in proc.stderr
    assert proc.stdout == ""


def test_stress_compare_reads_the_williamson_gap_against_its_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import stress_compare

    def gap(value):
        return {"williamson_invariant_gap": {"gap": value, "gap_ok": value <= 1e-6}}

    assert stress_compare.compare(gap(1.6e-15), gap(2.8e-15))[0] == "digits"
    assert stress_compare.compare(gap(1e-15), gap(1e-3))[0] == "different"


def test_stress_compare_counts_the_decompose_calls_that_ran_a_full_size_svd(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import stress_compare

    import sympeq

    x = np.random.default_rng(4).standard_normal((8, 8))
    singular = x.copy()
    singular[:, 0] = singular[:, 1]
    # stress input 2021 (split_reals), verified with recon 4.2e-9
    i = 421
    near = stress_compare._dressed_form(sympeq, "split_reals", np.random.default_rng(3_000_000 + i), 3_000_000 + 2 * i)
    records = stress_compare.evaluate(sympeq, [{"family": "random", "x": a} for a in (x, singular, near)])
    assert records[1]["ops"]["decompose"]["error"] == "SingularInput"
    assert [rec["full_svd"] for rec in records] == [False, True, False]
    assert records[2]["ops"]["decompose"]["verdict"]
    assert [rec["recon_tail"] for rec in records] == [False, False, True]


def test_stress_compare_counts_the_decompose_calls_that_ran_a_stage1_svd(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import stress_compare

    import sympeq

    # every cluster of a Gaussian X is a 2-plane, whose basis stage 1 takes
    # in closed form; the repeated family has clusters of four eigenvalues,
    # which take the SVD
    x = np.random.default_rng(4).standard_normal((8, 8))
    i = 0
    repeated = stress_compare._dressed_form(sympeq, "repeated", np.random.default_rng(3_000_000 + i), 3_000_000 + 2 * i)
    records = stress_compare.evaluate(sympeq, [{"family": "random", "x": a} for a in (x, repeated)])
    assert all(rec["ops"]["decompose"]["verdict"] for rec in records)
    assert [rec["stage1_svd"] for rec in records] == [False, True]
    assert [rec["full_svd"] for rec in records] == [False, False]


def test_stress_compare_counts_the_decompose_calls_that_ran_a_batched_eigh(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import stress_compare

    import sympeq

    # repeated inputs 0 and 5 hold their real invariant three and two times:
    # a real cluster of six eigenvalues is paired by a batched Hermitian
    # eigensolve, one of four by Gram-Schmidt
    x = np.random.default_rng(4).standard_normal((8, 8))
    repeated = [
        stress_compare._dressed_form(sympeq, "repeated", np.random.default_rng(3_000_000 + i), 3_000_000 + 2 * i)
        for i in (0, 5)
    ]
    records = stress_compare.evaluate(sympeq, [{"family": "random", "x": a} for a in (x, *repeated)])
    assert all(rec["ops"]["decompose"]["verdict"] for rec in records)
    assert [rec["stage1_eigh"] for rec in records] == [False, True, False]
    assert [rec["stage1_svd"] for rec in records] == [False, True, True]


def test_stress_compare_counts_the_closed_form_svd_of_a_passive_channel(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import stress_compare

    import sympeq

    # the interaction block of a number-preserving channel is passive: its
    # one SVD is of the complex n x n Z, counted apart from a real rcond
    x = np.random.default_rng(4).standard_normal((8, 8))
    passive = sympeq.random_valid_channel(4, 2, squeezing=False, seed=9).x
    singular = passive.copy()
    singular[:, [0, 4]] = 0.0  # still passive, with a zero singular value
    records = stress_compare.evaluate(sympeq, [{"family": "random", "x": a} for a in (x, passive, singular)])
    assert records[1]["ops"]["decompose"]["verdict"]
    assert records[2]["ops"]["decompose"]["error"] == "SingularInput"
    assert [rec["passive_svd"] for rec in records] == [False, True, True]
    assert [rec["full_svd"] for rec in records] == [False, False, False]


def test_roundtrip_sweep_prints_a_summary_per_dimension():
    proc = script("roundtrip_sweep.py", "--trials", "2", "--dims", "1,2", PYTHONPATH=str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    summaries = re.findall(r"^n=(\d+): (\d+) ok, (\d+) rejected \| worst recon ", proc.stdout, re.M)
    assert [n for n, _, _ in summaries] == ["1", "2"]
    assert all(int(ok) + int(rejected) == 2 for _, ok, rejected in summaries)
    assert proc.stdout.splitlines()[-1].startswith("total time ")


def test_tmss_pipeline_matches_the_analytic_invariant_and_frequency():
    proc = script("tmss_pipeline.py", "--r", "0.5", PYTHONPATH=str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
    assert "admissible: True" in proc.stdout
    for name in ("invariant lambda", "local frequency nu"):
        got, want = re.search(rf"^{name} = (\S+)  \(analytic .* = (\S+)\)$", proc.stdout, re.M).groups()
        assert float(got) == pytest.approx(float(want), rel=1e-10)
    assert re.search(r"^nu = sqrt\(1 - lambda\) relative error: \S+$", proc.stdout, re.M)
