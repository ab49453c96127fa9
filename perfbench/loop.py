"""Closed-loop execution of one workload's operations, with output checks."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import workloads
from spans import PROBE, WORK, Tracer
from workloads import ContractViolation

# typed errors of the library, counted one by one in a traced run; a new
# subclass is counted under its nearest listed base class
ERROR_NAMES = (
    "SympeqError",
    "DimensionError",
    "InvalidInput",
    "SingularInput",
    "EigenFailure",
    "DegenerateSpectrum",
    "IsotropicEigenspace",
    "NoNonsingularFactor",
    "ClusteringAmbiguous",
    "NotSkewHamiltonian",
    "NotPositiveDefinite",
    "NotSymmetric",
    "NotPure",
)
# failures that are not a typed error: a wrong answer, a result that breaks
# its own contract, an exception outside the typed hierarchy, and a CLI exit
# status that names no typed error
OTHER_FAILURES = ("wrong_result", "contract_violation", "untyped_error", "exit_status")
FAILURE_NAMES = ERROR_NAMES + OTHER_FAILURES

_CLI_ERROR = re.compile(r"error\[(\w+)\]")

# Calibration: fixed work that calls no sympeq code, timed every
# CALIBRATION_EVERY_S of operation time through a measured loop. The host of
# a small VM slows its vCPUs by tens of percent, in spells of a second to
# minutes, and a spell slows the calibration taken beside an operation as it
# slows the operation. Each operation's time is scaled to the reference
# machine speed: raw time x reference / (median of the calibration samples
# around it). A change to the program does not move the calibration. The
# references are the calibrations' times on the baseline machine (2 vCPU
# Xeon, OpenBLAS 0.3.31 at 2 threads) when idle, so that times there read
# as wall times.
CALIBRATION_REF_MS = {"decompose-large": 29.0, "apps-small": 0.53, "cli-cold": 125.0}
CALIBRATION_EVERY_S = {"decompose-large": 0.5, "apps-small": 0.1, "cli-cold": 0.5}
CALIBRATION_NEIGHBOURS = 2  # a repeat is scaled by the median of the 2h+1 samples around it


def calibration(workload: str):
    """The calibration of a workload: work of the same kind as its operations.

    ``decompose-large``: one SVD of a fixed 512x256 matrix (BLAS-bound, at
    the default thread count, like stage 2). ``apps-small``: eigenvalues,
    SVDs and Python-level element access on fixed matrices of n = 1..8
    (per-call overhead and small LAPACK calls). ``cli-cold``: one
    ``python -c "import numpy"`` child (interpreter start and imports).
    """
    rng = np.random.default_rng(20070704)
    if workload == "decompose-large":
        big = rng.standard_normal((512, 256))
        return lambda: np.linalg.svd(big, full_matrices=False)
    if workload == "apps-small":
        small = [rng.standard_normal((2 * n, 2 * n)) for n in range(1, 9)]

        def calibrate() -> float:
            acc = 0.0
            for m in small:
                acc += float(np.abs(np.linalg.eigvals(m @ m.T)).sum())
                acc += float(np.linalg.svd(m)[1][0])
                acc += sum(float(v) for v in m.ravel()[:16])
            return acc

        return calibrate
    cmd = [sys.executable, "-c", "import numpy"]
    return lambda: subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)


def _typed_name(names) -> str:
    for name in names:
        if name in ERROR_NAMES:
            return name
    return "exit_status"


class Runner:
    """One workload's operations, run one at a time in this process.

    Library operations are called in-process. ``cli-cold`` operations are
    ``python -m sympeq`` child processes when measured, and in-process
    ``sympeq.cli.run`` calls in the warm-up and the traced run.
    """

    def __init__(self, sp, workload: str, inputs: dict, seed: int):
        self.sp = sp
        self.workload = workload
        self.ops = inputs["ops"]
        self.cli_ops = inputs["cli_ops"]
        self.rng = np.random.default_rng([seed, 1])
        self.checker = workloads.Checker(sp)
        self.reports: dict[tuple, bytes] = {}
        self.violations: list[str] = []
        src = str(Path(sp.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        self.child_env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    # -- calls -------------------------------------------------------------

    def call(self, op: dict):
        if op["kind"] != "cli":
            return workloads.call(self.sp, op)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = self.sp.cli.run(list(op["args"][0]))
        return rc, stderr.getvalue()

    def call_child(self, op: dict):
        proc = subprocess.run(
            [sys.executable, "-m", "sympeq", *op["args"][0]],
            env=self.child_env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stderr

    def warm_up(self) -> None:
        """One in-process call per operation kind (apps-small), size
        (decompose-large) or subcommand (cli-cold)."""
        done = set()
        for op in self.ops:
            if op["kind"] == "cli":
                key = op["args"][0][0]
            else:
                key = op["kind"] if self.workload == "apps-small" else op["n"]
            if key not in done:
                done.add(key)
                with contextlib.suppress(self.sp.SympeqError):
                    self.call(op)

    # -- checks ------------------------------------------------------------

    def _check_report(self, op: dict, result) -> str | None:
        """A CLI run succeeded if it exited 0 and its report is byte-identical
        to every earlier report for the same arguments."""
        rc, stderr = result
        if rc != 0:
            return _typed_name(_CLI_ERROR.findall(stderr))
        argv = op["args"][0]
        report = Path(argv[argv.index("--output") + 1]).read_bytes()
        key = tuple(argv)
        if key not in self.reports:
            doc = json.loads(report)
            if doc["command"] != argv[0]:
                raise ContractViolation(f"report of {argv[0]} names command {doc['command']}")
            if argv[0].startswith("validate-") and doc["result"]["valid"] is not True:
                return "wrong_result"  # every generated state and channel is valid
            self.reports[key] = report
        elif report != self.reports[key]:
            raise ContractViolation(f"report of {' '.join(argv)} is not byte-identical")
        return None

    def check(self, index: int, op: dict, result) -> str | None:
        """None if the result is right, else the failure's name."""
        try:
            if op["kind"] == "cli":
                return self._check_report(op, result)
            return None if self.checker(index, op, result) else "wrong_result"
        except ContractViolation as exc:
            self.violations.append(f"{op['kind']} (n={op['n']}): {exc}")
            return "contract_violation"

    # -- the closed loop ---------------------------------------------------

    def loop(self, seconds: float, call, tracer: Tracer | None = None,
             calibrate=None) -> dict:
        """Run shuffled passes over the inputs until the operations' summed
        wall time reaches ``seconds``, finishing the first pass in any case;
        check each result after its clock stops. ``calibrate``, when given,
        is timed at the start and after every ``CALIBRATION_EVERY_S`` of
        operation time."""
        latency: list[list[int]] = [[] for _ in self.ops]
        # per repeat, the index of the calibration sample taken last before it
        calibrated_at: list[list[int]] = [[] for _ in self.ops]
        failure: list[str | None] = [None] * len(self.ops)
        calibration: list[int] = []
        every = CALIBRATION_EVERY_S[self.workload] * 1e9
        busy = 0
        next_calibration = 0.0
        order: list[int] = []
        passes = 0
        while busy < seconds * 1e9 or (order and passes == 1) or not passes:
            if not order:
                order = self.rng.permutation(len(self.ops)).tolist()
                passes += 1
            if calibrate and busy >= next_calibration:
                start = perf_counter_ns()
                calibrate()
                calibration.append(perf_counter_ns() - start)
                next_calibration = busy + every
            index = order.pop()
            op = self.ops[index]
            failed = None
            if tracer:
                tracer.begin_op(WORK)
            start = perf_counter_ns()
            try:
                result = call(op)
            except self.sp.SympeqError as exc:
                failed = _typed_name(c.__name__ for c in type(exc).__mro__)
            except Exception as exc:  # outside the typed contract: counted, and fatal
                failed = "untyped_error"
                self.violations.append(f"{op['kind']} (n={op['n']}) raised {exc!r}")
            elapsed = perf_counter_ns() - start
            if tracer:
                tracer.end_op()
            busy += elapsed
            latency[index].append(elapsed)
            calibrated_at[index].append(len(calibration) - 1)
            if failed is None:
                failed = self.check(index, op, result)
            if failed and failure[index] is None:
                failure[index] = failed
        return {"latency_ns": latency, "failure": failure, "calibration_ns": calibration,
                "calibrated_at": calibrated_at}

    # -- modes -------------------------------------------------------------

    def _reference_reports(self) -> None:
        """Run every CLI input once in-process; later reports must match."""
        for op in self.cli_ops:
            self.check(-1, op, self.call(op))

    def measure(self, seconds: float) -> dict:
        cli = self.workload == "cli-cold"
        if cli:
            self._reference_reports()
        stats = self.loop(seconds, self.call_child if cli else self.call,
                          calibrate=calibration(self.workload))
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        raw = summarize(stats)
        return {
            **summarize(stats, CALIBRATION_REF_MS[self.workload]),
            "raw": {name: raw[name] for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")},
            "peak_rss_mb": peak_rss_mb,
            "violations": self.violations,
        }

    def trace(self, seconds: float, path: Path) -> dict:
        """Half the time untraced, half traced; the difference in ops_per_s
        is the tracing overhead. Library workloads add one traced in-process
        pass over the CLI inputs, the source of the ``io.*`` metrics."""
        importlib.import_module("sympeq.cli")  # the probe and cli-cold trace cli.run
        self._reference_reports()
        untraced_stats = self.loop(seconds / 2, self.call)
        tracer = Tracer()
        tracer.install()
        try:
            traced_stats = self.loop(seconds / 2, self.call, tracer)
            if self.workload != "cli-cold":
                for op in self.cli_ops:
                    tracer.begin_op(PROBE)
                    result = self.call(op)
                    tracer.end_op()
                    self.check(-1, op, result)
        finally:
            tracer.uninstall()
        tracer.save(path)
        untraced, traced = summarize(untraced_stats), summarize(traced_stats)
        metrics = tracer.layer_metrics()
        metrics["trace.ops"] = traced["samples"]
        metrics["trace.op_ms"] = traced["latency_mean_ms"]
        metrics["trace.overhead_ops_per_s"] = traced["ops_per_s"] - untraced["ops_per_s"]
        for name in FAILURE_NAMES:
            metrics[f"failed.{name}"] = traced["failures"].get(name, 0)
        failed = [a or b for a, b in zip(untraced_stats["failure"], traced_stats["failure"])]
        return {
            "attempted": len(failed),
            "failed": sum(map(bool, failed)),
            "layers": metrics,
            "spans": str(path),
            "violations": self.violations,
        }


def summarize(stats: dict, reference_ms: float | None = None) -> dict:
    """The figures of one loop, per input.

    ``attempted`` counts the distinct inputs run and ``failed`` those whose
    operation failed at least once, so both depend on the seed alone, not on
    how many passes fitted in the time. With ``reference_ms``, each repeat
    is first scaled to the reference machine speed by the calibration taken
    around it. An input's latency is the median of its repeats, which are
    spread over the whole loop; the percentiles and ``ops_per_s``
    (successful inputs per second of one pass at these latencies) are taken
    over the inputs. ``samples`` and ``samples_above_p90`` count single
    operations.
    """
    ran = [i for i, reps in enumerate(stats["latency_ns"]) if reps]
    reps_ms = [np.asarray(stats["latency_ns"][i], dtype=float) / 1e6 for i in ran]
    calibration_ms = np.asarray(stats["calibration_ns"], dtype=float) / 1e6
    if reference_ms and len(calibration_ms):
        h = CALIBRATION_NEIGHBOURS
        local = np.array([np.median(calibration_ms[max(0, j - h):j + h + 1])
                          for j in range(len(calibration_ms))])
        scale = reference_ms / local
        reps_ms = [reps * scale[stats["calibrated_at"][i]] for reps, i in zip(reps_ms, ran)]
    per_input_ms = np.array([np.median(reps) for reps in reps_ms])
    every_ms = np.concatenate(reps_ms)
    failures = Counter(stats["failure"][i] for i in ran if stats["failure"][i])
    attempted, failed = len(ran), sum(failures.values())
    p50, p90 = np.percentile(per_input_ms, [50, 90])
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "samples": len(every_ms),
        "samples_above_p90": int(np.sum(every_ms > p90)),
        "ops_per_s": (attempted - failed) / (float(per_input_ms.sum()) / 1e3),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "latency_mean_ms": float(np.mean(every_ms)),
        "ops_ok_ratio": (attempted - failed) / attempted,
        "calibration_ms": float(np.median(calibration_ms)) if len(calibration_ms) else None,
    }
