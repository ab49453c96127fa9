"""The sympeq benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a sympeq source tree::

    python3 perfbench/run.py --workload decompose-large --seed 1 --seconds 30 --trace 0

Workloads: ``decompose-large``, ``apps-small``, ``cli-cold`` (see README.md).
Inputs are generated from ``--seed`` alone and handed to a fresh worker
process as arrays or files. With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones. The run header goes to standard output as ``# key: value`` lines,
the last line is the result object. The exit status is non-zero when a
returned result breaks its own contract or the benchmark cannot run.
"""

import argparse
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("decompose-large", "apps-small", "cli-cold")

SETUP_RUNS = 5  # fresh processes whose set-up time is measured; median reported
PROBE_RUNS = 5  # children per start-up probe of a traced run; median reported
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# per-layer metrics besides failed.<name>, one count per name in loop.FAILURE_NAMES
PER_LAYER = {
    "canonical.stage1.ms": "ms",
    "canonical.stage2.ms": "ms",
    "canonical.decompose.self_ms": "ms",
    "canonical.williamson.ms": "ms",
    "invariants.invariants.ms": "ms",
    "invariants.invariants.calls_per_op": "calls/op",
    "gaussian.self_ms": "ms",
    "core.reciprocal_condition.calls_per_op": "calls/op",
    "core.reciprocal_condition.ms": "ms",
    "core.is_symplectic.ms": "ms",
    "linalg.ms": "ms",
    "linalg.svd_calls_per_op": "calls/op",
    "linalg.eig_calls_per_op": "calls/op",
    "linalg.svd_bytes_per_op": "B/op_computed",
    "io.load_ms": "ms",
    "io.dumps_ms": "ms",
    "io.report_bytes": "B",
    "cli.interpreter_ms": "ms",
    "cli.import_sympeq_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "trace.ops": "count",
    "trace.op_ms": "ms",
    "trace.overhead_ops_per_s": "1/s",
}


def run_child(cmd: list, env=None, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group
    and wait for it, so nothing outlives the benchmark."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker(args, workdir: Path, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--workdir", str(workdir), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    proc = run_child(cmd)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# start-up probes of a traced run
# ---------------------------------------------------------------------------


def parse_importtime(text: str) -> tuple[float, float]:
    """(ms to import sympeq, ms of that spent importing scipy) from the
    ``-X importtime`` log of ``import sympeq``.

    The log lists each module after the modules it imported, one level
    deeper. scipy's share is the cumulative time of every scipy module
    imported by a non-scipy module.
    """
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        node = (field.strip(), int(cumulative), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)

    def scipy_us(node) -> int:
        name, cumulative, kids = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative
        return sum(scipy_us(kid) for kid in kids)

    root = next(node for node in pending.get(0, []) if node[0] == "sympeq")
    return root[1] / 1e3, scipy_us(root) / 1e3


def startup_probes(env: dict) -> dict:
    interpreter, sympeq_ms, scipy_ms = [], [], []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interpreter.append((time.perf_counter() - start) * 1e3)
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import sympeq"], env=env)
        total, scipy_part = parse_importtime(proc.stderr)
        sympeq_ms.append(total)
        scipy_ms.append(scipy_part)
    return {
        "cli.interpreter_ms": statistics.median(interpreter),
        "cli.import_sympeq_ms": statistics.median(sympeq_ms),
        "cli.import_scipy_ms": statistics.median(scipy_ms),
    }


# ---------------------------------------------------------------------------
# run header
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    """BLAS build and thread count, read from the loaded OpenBLAS itself."""
    import ctypes

    import numpy as np

    info = {"blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name", "unknown"),
            "blas_threads": "unknown", "blas_config": "unknown"}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads and get_config:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["blas_threads"] = get_threads()
                    info["blas_config"] = get_config().decode()
                    return info
    return info


def header(args, inputs: dict, digest: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one operation at a time",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "commit": git_commit(),
        "inputs": len(inputs["ops"]),
        "inputs_sha256": digest,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "sympeq" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no sympeq sources under {SRC}; "
                         "run from the root of a sympeq source tree\n")
        return 2
    sys.path.insert(0, str(SRC))
    import sympeq

    import loop
    import workloads

    per_layer = {**PER_LAYER, **{f"failed.{name}": "count" for name in loop.FAILURE_NAMES}}

    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        inputs = workloads.generate(sympeq, args.workload, args.seed, workdir)
        digest = workloads.input_digest(inputs, workdir)
        with open(workdir / "inputs.pkl", "wb") as fh:
            pickle.dump(inputs, fh)
        head = header(args, inputs, digest)
        if args.trace:
            result = worker(args, workdir, "trace")
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
            values = {**result["layers"], **startup_probes(env)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in per_layer.items()}
            head["spans"] = os.path.relpath(result["spans"], ROOT)
        else:
            # set-up workers before and after the measuring one, so that a
            # slow spell of the machine meets few of them; each set-up time is
            # scaled by a calibration child run just before its worker
            calibrate = loop.calibration("cli-cold")
            raw_setups, setups = [], []

            def timed_worker(mode: str) -> dict:
                start = time.perf_counter()
                calibrate()
                calibration_ms = (time.perf_counter() - start) * 1e3
                out = worker(args, workdir, mode)
                raw_setups.append(out["setup_s"])
                setups.append(out["setup_s"] * loop.CALIBRATION_REF_MS["cli-cold"] / calibration_ms)
                return out

            for _ in range(SETUP_RUNS // 2):
                timed_worker("setup")
            result = timed_worker("measure")
            for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2):
                timed_worker("setup")
            values = {**result, "setup_s": statistics.median(setups)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            head["samples"] = result["samples"]
            head["samples_above_p90"] = result["samples_above_p90"]
            head["failures"] = json.dumps(result["failures"], sort_keys=True)
            head["setup_samples_s"] = " ".join(f"{s:.4f}" for s in setups)
            head["setup_samples_unscaled_s"] = " ".join(f"{s:.4f}" for s in raw_setups)
            head["calibration_ms"] = f"{result['calibration_ms']:.4f}"
            head["unscaled"] = json.dumps(result["raw"], sort_keys=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in head.items():
        print(f"# {key}: {value}")
    for name, metric in metrics.items():
        print(f"# metric {name} = {metric['value']:.6g} {metric['unit']}")
    for violation in result["violations"]:
        print(f"# CONTRACT VIOLATION: {violation}")
    correct = not result["violations"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
