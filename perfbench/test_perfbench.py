"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the
repository root. Each workload runs end to end at a tiny size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sympeq  # noqa: E402

import loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload, untraced and traced, with a tiny time budget."""
    results = {}
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                         "--trace", trace)
            results[workload, trace] = proc
    return results


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_each_workload_runs_at_a_tiny_size(tiny_runs, workload, trace):
    proc = tiny_runs[workload, trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_emitted_metric_is_declared(tiny_runs, workload, trace):
    section = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    metrics = json.loads(tiny_runs[workload, trace].stdout.strip().splitlines()[-1])["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_workload_names_match_the_declaration():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_same_seed_gives_same_inputs(tmp_path):
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        workdir = tmp_path / sub
        workdir.mkdir()
        inputs = workloads.generate(sympeq, "apps-small", seed, workdir)
        digests.append(workloads.input_digest(inputs, workdir))
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = bench("--workload", "apps-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _runner(ops):
    return loop.Runner(sympeq, "apps-small", {"ops": ops, "cli_ops": []}, seed=0)


def _op(kind, x, scale=1.0, expect=None):
    return {"kind": kind, "n": x.shape[0] // 2, "args": (x,), "scale": scale,
            "expect": expect or {}}


def test_right_results_are_not_counted_as_failed():
    x = np.random.default_rng(1).standard_normal((6, 6))
    runner = _runner([_op("invariants", x), _op("decompose", x)])
    stats = runner.loop(0.05, runner.call)
    assert stats["failure"] == [None, None] and not runner.violations
    assert all(len(reps) >= 1 for reps in stats["latency_ns"])


def test_injected_wrong_result_is_counted_as_failed(monkeypatch):
    x = np.random.default_rng(2).standard_normal((6, 6))
    right = sympeq.invariants
    monkeypatch.setattr(sympeq, "invariants", lambda a: right(2.0 * a))
    runner = _runner([_op("invariants", x), _op("decompose", x)])
    summary = loop.summarize(runner.loop(0.05, runner.call))
    assert summary["failures"] == {"wrong_result": 1}
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert not runner.violations  # a wrong answer, not a broken contract


def test_injected_contract_violation_is_failed_and_fatal(monkeypatch):
    x = np.random.default_rng(3).standard_normal((6, 6))
    right = sympeq.decompose

    def broken(a):
        d = right(a)
        d.s1 = d.s1 * 1.001  # no longer symplectic, no longer reconstructs
        return d

    monkeypatch.setattr(sympeq, "decompose", broken)
    runner = _runner([_op("decompose", x)])
    stats = runner.loop(0.05, runner.call)
    assert stats["failure"] == ["contract_violation"]
    assert runner.violations


def test_failure_counts_do_not_depend_on_the_run_length(monkeypatch):
    x = np.random.default_rng(5).standard_normal((4, 4))
    right = sympeq.invariants
    monkeypatch.setattr(sympeq, "invariants", lambda a: right(2.0 * a))
    ops = [_op("invariants", x), _op("decompose", x)]
    short_runner, long_runner = _runner(ops), _runner(ops)
    short = loop.summarize(short_runner.loop(0.0, short_runner.call))
    long = loop.summarize(long_runner.loop(0.1, long_runner.call))
    assert long["samples"] > short["samples"] == 2
    assert (long["attempted"], long["failed"]) == (short["attempted"], short["failed"]) == (2, 1)


def test_each_repeat_is_scaled_by_the_calibration_around_it():
    # the machine runs at reference speed (calibration 2 ms), then at a
    # quarter of it (8 ms); input 0 ran once in each spell, input 1 in the second
    stats = {"latency_ns": [[1_000_000, 4_000_000], [8_000_000]], "failure": [None, None],
             "calibration_ns": [2_000_000] * 6 + [8_000_000] * 6, "calibrated_at": [[0, 11], [9]]}
    raw = loop.summarize(stats)
    assert (raw["latency_p50_ms"], raw["ops_per_s"]) == (5.25, 2 / 0.0105)
    scaled = loop.summarize(stats, reference_ms=2.0)
    assert (scaled["latency_p50_ms"], scaled["ops_per_s"]) == (1.5, 2 / 0.003)
    assert scaled["calibration_ms"] == 5.0


def test_scaled_input_is_checked_against_the_unscaled_answer():
    x = np.random.default_rng(4).standard_normal((4, 4))
    c = 10.0
    ref = workloads._reference(sympeq, _op("invariants", x))
    op = _op("invariants", c * x, scale=c, expect={"ref": ref})
    assert workloads.check(sympeq, op, sympeq.invariants(c * x))
    assert not workloads.check(sympeq, op, sympeq.invariants(x))


def test_importtime_parser_attributes_nested_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        10 |         60 |     scipy",
        "import time:        30 |        200 |     scipy.linalg",
        "import time:        20 |        480 |   sympeq.canonical",
        "import time:         5 |        585 | sympeq",
    ])
    assert run.parse_importtime(log) == (0.585, 0.26)
