"""Time ``decompose``, ``invariants`` and two kernels of two sympeq trees per n.

Usage: python scripts/decompose_timing.py --parent TREE --change TREE
       [--rounds 10] [--inputs 8] [--repeat 5]

TREE is a source tree (its ``src`` directory holds ``sympeq``) or the
``src`` directory itself. Each round starts one child process per tree,
alternating which tree runs first. A child imports the tree with its ``src``
on PYTHONPATH, builds the same seeded Gaussian X (``--inputs`` of them per
n, for n = 1..8, 16, 24, 32), warms up on each, then times every call
(``--repeat`` per input) and reports the median per n of:

* ``decompose`` and ``invariants`` of X;
* ``spectrum_from_eigenvalues`` on the eigenvalues of Sigma(X), which
  classifies them;
* ``hermitian_min_eig`` of (X X^T + I, the antisymmetric part of X), the
  kernel of the validity checks.

A call that raises a typed error is timed like any other.

The table gives, per n and operation, the median over rounds of the child
medians for each tree and the change/parent ratio; a ratio above 1 means
the change is slower. The count of rounds in which the change was faster
is printed beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

NS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32)
OPS = ("decompose", "invariants", "spectrum_from_eigenvalues", "hermitian_min_eig")


def _calls(sp, np, x) -> dict:
    """Each operation on X as a function of no arguments."""
    from sympeq.invariants import sigma_matrix, spectrum_from_eigenvalues

    w = np.linalg.eigvals(sigma_matrix(x))
    r = x @ x.T + np.eye(x.shape[0])
    a = (x - x.T) / 2
    return {
        "decompose": lambda: sp.decompose(x),
        "invariants": lambda: sp.invariants(x),
        "spectrum_from_eigenvalues": lambda: spectrum_from_eigenvalues(w, sp.DEFAULT_TOL),
        "hermitian_min_eig": lambda: sp.hermitian_min_eig(r, a),
    }


def measure(inputs: int, repeat: int) -> dict:
    """Median time per call in ms, by operation and n, in this process."""
    import numpy as np

    import sympeq as sp

    out: dict = {op: {} for op in OPS}
    for n in NS:
        xs = [
            np.random.default_rng(1000 * n + i).standard_normal((2 * n, 2 * n))
            for i in range(inputs)
        ]
        calls = [_calls(sp, np, x) for x in xs]
        for op in OPS:
            times = []
            for call in calls:
                fn = call[op]
                for timed in range(repeat + 1):
                    start = time.perf_counter()
                    try:
                        fn()
                    except sp.SympeqError:
                        pass
                    if timed:  # the first call per input warms up
                        times.append(time.perf_counter() - start)
            out[op][str(n)] = 1e3 * statistics.median(times)
    return out


def _src(tree: str) -> Path:
    path = Path(tree).resolve()
    for cand in (path / "src", path):
        if (cand / "sympeq" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"no sympeq package under {tree}")


def _child(src: Path, inputs: int, repeat: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, __file__, "--worker", "--inputs", str(inputs), "--repeat", str(repeat)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"child on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", help="source tree of the reference")
    parser.add_argument("--change", help="source tree compared against it")
    parser.add_argument("--rounds", type=int, default=10, help="child pairs, alternating order")
    parser.add_argument("--inputs", type=int, default=8, help="seeded Gaussian X per n")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per input")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(measure(args.inputs, args.repeat), sys.stdout)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")

    trees = {"parent": _src(args.parent), "change": _src(args.change)}
    runs: dict = {"parent": [], "change": []}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_child(trees[side], args.inputs, args.repeat))

    print(f"{args.rounds} rounds, {args.inputs} inputs x {args.repeat} calls per n; median ms per call")
    print(f"{'op':25s} {'n':>3s} {'parent':>9s} {'change':>9s} {'ratio':>7s} {'faster':>7s}")
    for op in OPS:
        for n in map(str, NS):
            old = [run[op][n] for run in runs["parent"]]
            new = [run[op][n] for run in runs["change"]]
            med_old, med_new = statistics.median(old), statistics.median(new)
            wins = sum(b < a for a, b in zip(old, new))
            print(f"{op:25s} {n:>3s} {med_old:9.4f} {med_new:9.4f} {med_new / med_old:7.3f} "
                  f"{wins:>3d}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
