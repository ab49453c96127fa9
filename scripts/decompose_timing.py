"""Time ``decompose``, ``invariants`` and two kernels of two sympeq trees per n.

Usage: python scripts/decompose_timing.py --parent TREE --change TREE
       [--rounds 10] [--inputs 8] [--repeat 5]

TREE is a source tree (its ``src`` directory holds ``sympeq``) or the
``src`` directory itself. Both trees are loaded in this process
(``trees.py``) and timed call by call in alternation, so a drift of the
host's speed reaches both alike. Each round is one pass over the same
seeded Gaussian X (``--inputs`` of them per n, for n = 1..8, 16, 24, 32):
per operation and input, each tree warms up once, then the two trees take
turns for ``--repeat`` timed calls each, the round alternating which tree
goes first. The operations are:

* ``decompose`` and ``invariants`` of X;
* ``spectrum_from_eigenvalues`` on the eigenvalues of Sigma(X), which
  classifies them;
* ``hermitian_min_eig`` of (X X^T + I, the antisymmetric part of X), the
  kernel of the validity checks.

A call that raises a typed error is timed like any other.

The table gives, per n and operation, the median over rounds of each
round's median time per call for each tree and the change/parent ratio; a
ratio above 1 means the change is slower. The count of rounds in which the
change was faster is printed beside it.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time

import numpy as np

import trees

NS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32)
OPS = ("decompose", "invariants", "spectrum_from_eigenvalues", "hermitian_min_eig")


def _calls(sp, x) -> dict:
    """Each operation on X as a function of no arguments."""
    inv = importlib.import_module(f"{sp.__name__}.invariants")
    w = np.linalg.eigvals(inv.sigma_matrix(x))
    r = x @ x.T + np.eye(x.shape[0])
    a = (x - x.T) / 2
    return {
        "decompose": lambda: sp.decompose(x),
        "invariants": lambda: sp.invariants(x),
        "spectrum_from_eigenvalues": lambda: inv.spectrum_from_eigenvalues(w, sp.DEFAULT_TOL),
        "hermitian_min_eig": lambda: sp.hermitian_min_eig(r, a),
    }


def _time(sp, fn) -> float:
    start = time.perf_counter()
    try:
        fn()
    except sp.SympeqError:
        pass
    return time.perf_counter() - start


def measure(pkgs: dict, rounds: int, inputs: int, repeat: int) -> dict:
    """Per tree, operation and n: one median time per call in ms per round."""
    out = {side: {op: {n: [] for n in NS} for op in OPS} for side in pkgs}
    for n in NS:
        xs = [np.random.default_rng(1000 * n + i).standard_normal((2 * n, 2 * n)) for i in range(inputs)]
        calls = {side: [_calls(sp, x) for x in xs] for side, sp in pkgs.items()}
        for r in range(rounds):
            order = list(pkgs) if r % 2 == 0 else list(pkgs)[::-1]
            for op in OPS:
                times: dict = {side: [] for side in order}
                for i in range(inputs):
                    for timed in range(repeat + 1):
                        for side in order:
                            t = _time(pkgs[side], calls[side][i][op])
                            if timed:  # the first call per input and tree warms up
                                times[side].append(t)
                for side in order:
                    out[side][op][n].append(1e3 * statistics.median(times[side]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="source tree of the reference")
    parser.add_argument("--change", required=True, help="source tree compared against it")
    parser.add_argument("--rounds", type=int, default=10, help="passes, alternating which tree goes first")
    parser.add_argument("--inputs", type=int, default=8, help="seeded Gaussian X per n")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per input and tree")
    args = parser.parse_args(argv)

    pkgs = {"parent": trees.load(args.parent, "sympeq_parent"), "change": trees.load(args.change, "sympeq_change")}
    runs = measure(pkgs, args.rounds, args.inputs, args.repeat)

    print(f"{args.rounds} rounds, {args.inputs} inputs x {args.repeat} calls per n; median ms per call")
    print(f"{'op':25s} {'n':>3s} {'parent':>9s} {'change':>9s} {'ratio':>7s} {'faster':>7s}")
    for op in OPS:
        for n in NS:
            old, new = runs["parent"][op][n], runs["change"][op][n]
            med_old, med_new = statistics.median(old), statistics.median(new)
            wins = sum(b < a for a, b in zip(old, new))
            print(f"{op:25s} {n:>3d} {med_old:9.4f} {med_new:9.4f} {med_new / med_old:7.3f} "
                  f"{wins:>3d}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
