"""The tree-comparison scripts, each run as a child process on this tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

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
    ops = ("decompose", "invariants", "spectrum_from_eigenvalues", "hermitian_min_eig", "williamson")
    ns = ("1", "2", "3", "4", "5", "6", "7", "8", "16", "24", "32")
    assert [tuple(row[:2]) for row in rows] == [(op, n) for op in ops for n in ns]
    assert all(len(row) == 6 and row[5] in ("0/1", "1/1") for row in rows)


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
