"""Time ``decompose``, ``invariants``, ``williamson`` and two kernels of two
sympeq trees per n, or the stages of ``decompose`` in one tree.

Usage: python scripts/decompose_timing.py --parent TREE --change TREE
       [--rounds 10] [--inputs 8] [--repeat 5]
       python scripts/decompose_timing.py --stages TREE
       [--rounds 10] [--inputs 8] [--repeat 5]

TREE is a source tree (its ``src`` directory holds ``sympeq``) or the
``src`` directory itself. The comparison runs twice, each time in a child
process of its own that loads both trees (``trees.py``): once the parent
first, once the change first, since which tree a process loads first
moves its per-call times by 2-3%. In each child the two trees are timed
call by call in alternation, so a drift of the host's speed reaches both
alike. Each round is one pass over the same seeded Gaussian X
(``--inputs`` of them per n, for n = 1..8, 16, 24, 32): per operation and
input, each tree warms up once, then the two trees take turns for
``--repeat`` timed calls each, the round alternating which tree goes
first. The operations are:

* ``decompose`` and ``invariants`` of X;
* ``decompose_repeated``: ``decompose`` of a dressed
  S_a (I_n (+) r I_n) S_b with seeded ``random_symplectic`` S_a, S_b and
  r in [0.5, 3], one real invariant n times, which a Gaussian X never has;
* ``decompose_passive``: ``decompose`` of the interaction block of a seeded
  number-preserving channel, ``random_valid_channel(n, env,
  squeezing=False).x`` with env = 1..3 in turn, a passive X, which takes
  the closed form of one n x n complex SVD;
* ``decompose_channel``: ``decompose`` of the interaction block of a seeded
  channel with squeezing, ``random_valid_channel(n, env,
  squeezing=True).x`` with env = 1..3 in turn, the general-path input of
  ``normalize_channel`` and ``condense_correlations``;
* ``decompose_mixed``: ``decompose`` of a dressed S_a (I_n (+) J) S_b, J
  built like the ``repeated`` family of ``stress_compare.py``: a complex
  pair twice and a real invariant two or three times, then simple real
  invariants, each block kept where it still fits in n slots, so that
  stage 1 pairs a complex cluster of four from n = 4 on;
* ``spectrum_from_eigenvalues`` on the eigenvalues of Sigma(X), which
  classifies them;
* ``hermitian_min_eig`` of (X X^T + I, the antisymmetric part of X), the
  kernel of the validity checks;
* ``williamson`` of the positive definite X X^T + I.

A call that raises a typed error is timed like any other.

Per child, n and operation, each tree's time is the median over rounds of
each round's median time per call. The table gives the geometric mean of
the two children's times for each tree and their ratio change/parent,
which is the geometric mean of the two children's ratios; a ratio above 1
means the change is slower. Beside it is the count of rounds in which the
change was faster, a round counting as faster where the product of the
change's two times of that round is below the parent's.

With ``--stages``, one tree's ``decompose`` is timed on the same inputs for
n >= 2, ``--repeat`` calls per input and round after one warm-up, split
into six stages by marks taken on entry to functions of its ``canonical``
module (a 2 x 2 X takes the one-mode closed form, which runs none of them):

* ``gate``: from the call to ``sigma_of_checked``, i.e. the X gate;
* ``sigma_eig``: Sigma(X) with its eig, up to ``spectrum_from_eigenvalues``;
* ``classify``: the classification, up to
  ``block_diagonalize_skew_hamiltonian``;
* ``stage1``: stage 1, up to ``canonical_from_invariants``;
* ``blocks``: the canonical blocks and signs, up to ``_finish``;
* ``finish``: the finish, then ``_decomposition`` with its steps onto the
  group where they run, its residuals and the contract, up to the return.

The table gives, per n, the median over rounds of each round's median time
of every stage in ms with its percentage of their sum, and the sum of the
stage times as printed, rounded to 1e-4 ms. Calls that raise before the
last mark are left out. The marks are taken through the tree's module
attributes, so ``--stages`` needs a tree whose ``decompose`` calls each of
these names once, in this order; marks in any other order are refused with
an error, since they would give one stage's time to another. On a tree
whose stage 1 has another name, no call reaches the last mark and every
row reads "every call raised before its last stage".
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import trees

NS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32)
STAGE_NS = NS[1:]  # n = 1 has no stages
OPS = (
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
# each stage after the first starts on entry to this function of canonical
STAGES = {
    "gate": None,
    "sigma_eig": "sigma_of_checked",
    "classify": "spectrum_from_eigenvalues",
    "stage1": "block_diagonalize_skew_hamiltonian",
    "blocks": "canonical_from_invariants",
    "finish": "_finish",
}


def _calls(sp, x, repeated, passive, channel, mixed) -> dict:
    """Each operation on X (or the repeated invariant's, the passive, the
    channel's or the mixed clusters' input) as a function of no arguments."""
    inv = importlib.import_module(f"{sp.__name__}.invariants")
    w = np.linalg.eigvals(inv.sigma_matrix(x))
    r = x @ x.T + np.eye(x.shape[0])
    a = (x - x.T) / 2
    return {
        "decompose": lambda: sp.decompose(x),
        "decompose_repeated": lambda: sp.decompose(repeated),
        "decompose_passive": lambda: sp.decompose(passive),
        "decompose_channel": lambda: sp.decompose(channel),
        "decompose_mixed": lambda: sp.decompose(mixed),
        "invariants": lambda: sp.invariants(x),
        "spectrum_from_eigenvalues": lambda: inv.spectrum_from_eigenvalues(w, sp.DEFAULT_TOL),
        "hermitian_min_eig": lambda: sp.hermitian_min_eig(r, a),
        "williamson": lambda: sp.williamson(r),
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
        xs = _gaussians(n, inputs)
        parent = pkgs["parent"]
        reps, passives = _repeated(parent, n, inputs), _channels(parent, n, inputs, squeezing=False)
        channels, mixed = _channels(parent, n, inputs, squeezing=True), _mixed(parent, n, inputs)
        calls = {
            side: [_calls(sp, *args) for args in zip(xs, reps, passives, channels, mixed)]
            for side, sp in pkgs.items()
        }
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


def measure_in_order(trees_in_order: list, rounds: int, inputs: int, repeat: int) -> dict:
    """``measure`` of the trees given as (side, tree) pairs, loaded in this
    order: the work of one child process of the comparison."""
    pkgs = {side: trees.load(tree, f"sympeq_{side}") for side, tree in trees_in_order}
    return measure(pkgs, rounds, inputs, repeat)


def _measure_in_child(trees_in_order: list, rounds: int, inputs: int, repeat: int) -> dict:
    code = (
        "import json, sys; import decompose_timing as t; "
        "print(json.dumps(t.measure_in_order(*json.loads(sys.argv[1]))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([trees_in_order, rounds, inputs, repeat])],
        cwd=Path(__file__).resolve().parent,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(proc.stderr)
    return json.loads(proc.stdout)


def combine(first: dict, second: dict, op: str, n) -> tuple:
    """(parent ms, change ms, wins) of one row from the runs of the two load
    orders, as JSON returns them (n keys as strings): the geometric means of
    the children's median times, and the rounds whose product of the
    change's two times is below the parent's."""
    runs = [(run["parent"][op][str(n)], run["change"][op][str(n)]) for run in (first, second)]
    parent = math.prod(statistics.median(old) for old, _ in runs) ** 0.5
    change = math.prod(statistics.median(new) for _, new in runs) ** 0.5
    (old_a, new_a), (old_b, new_b) = runs
    wins = sum(na * nb < oa * ob for oa, ob, na, nb in zip(old_a, old_b, new_a, new_b))
    return parent, change, wins


def _gaussians(n: int, inputs: int) -> list:
    return [np.random.default_rng(1000 * n + i).standard_normal((2 * n, 2 * n)) for i in range(inputs)]


def _repeated(sp, n: int, inputs: int) -> list:
    out = []
    for i in range(inputs):
        seed = 1000 * n + i
        r = np.random.default_rng(seed).uniform(0.5, 3.0)
        form = np.diag(np.r_[np.ones(n), np.full(n, r)])
        out.append(sp.random_symplectic(n, 2 * seed) @ form @ sp.random_symplectic(n, 2 * seed + 1))
    return out


def _channels(sp, n: int, inputs: int, squeezing: bool) -> list:
    return [
        sp.random_valid_channel(n, 1 + i % 3, squeezing=squeezing, seed=1000 * n + i).x
        for i in range(inputs)
    ]


def _mixed(sp, n: int, inputs: int) -> list:
    out = []
    for i in range(inputs):
        seed = 1000 * n + i
        rng = np.random.default_rng(seed)
        a, b, r = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
        pair = np.array([[a, b], [-b, a]])
        reals = [[[r]]] * int(rng.integers(2, 4)) + [[[3.5 + k / 4]] for k in range(n)]
        j = np.zeros((0, 0))
        for block in [pair, pair, *reals]:
            if j.shape[0] + len(block) <= n:
                j = sp.direct_sum(j, block)
        out.append(sp.random_symplectic(n, 2 * seed) @ sp.direct_sum(np.eye(n), j) @ sp.random_symplectic(n, 2 * seed + 1))
    return out


def _marked(sp) -> list:
    """Make each stage's function in the tree's ``canonical`` record its
    name and the time of its entry; returns the list the marks go to."""
    canonical = importlib.import_module(f"{sp.__name__}.canonical")
    marks = []
    for name in list(STAGES.values())[1:]:
        def entry(*args, _name=name, _fn=getattr(canonical, name), **kwargs):
            marks.append((_name, time.perf_counter()))
            return _fn(*args, **kwargs)

        setattr(canonical, name, entry)
    return marks


def stage_times(start: float, marks: list, stop: float) -> dict | None:
    """Each stage's time in one call from its (name, time) marks, or None
    where the call raised before the last mark. Marks that are not in the
    order of ``STAGES`` raise ValueError."""
    names = [name for name, _ in marks]
    order = list(STAGES.values())[1:]
    if names != order[: len(names)]:
        raise ValueError(f"stage marks out of order: got {names}, expected {order}")
    if len(names) < len(order):
        return None
    bounds = [start, *(t for _, t in marks), stop]
    return {stage: b - a for stage, a, b in zip(STAGES, bounds, bounds[1:])}


def measure_stages(sp, rounds: int, inputs: int, repeat: int) -> dict:
    """Per n and stage of ``decompose``: one median time in ms per round."""
    marks = _marked(sp)
    out = {n: {stage: [] for stage in STAGES} for n in STAGE_NS}
    for n in STAGE_NS:
        xs = _gaussians(n, inputs)
        for _ in range(rounds):
            times: dict = {stage: [] for stage in STAGES}
            for x in xs:
                for timed in range(repeat + 1):
                    marks.clear()
                    start = time.perf_counter()
                    try:
                        sp.decompose(x)
                    except sp.SympeqError:
                        pass
                    stop = time.perf_counter()
                    call = stage_times(start, marks, stop)
                    if timed and call:
                        for stage, t in call.items():
                            times[stage].append(t)
            for stage in STAGES:
                if times[stage]:
                    out[n][stage].append(1e3 * statistics.median(times[stage]))
    return out


def report_stages(runs: dict, rounds: int, inputs: int, repeat: int) -> None:
    print(f"decompose by stage, {rounds} rounds, {inputs} inputs x {repeat} calls per n; "
          "median ms per call and % of their sum")
    print(f"{'n':>3s} " + " ".join(f"{stage:>15s}" for stage in STAGES) + f" {'sum':>9s}")
    for n in STAGE_NS:
        med = {stage: statistics.median(runs[n][stage]) for stage in STAGES if runs[n][stage]}
        if len(med) < len(STAGES):
            print(f"{n:>3d} every call raised before its last stage")
            continue
        total = sum(med.values())
        cells = " ".join(f"{med[stage]:9.4f} {100 * med[stage] / total:5.1f}" for stage in STAGES)
        # the sum of the printed cells, so that the printed numbers add up
        printed = sum(float(f"{med[stage]:.4f}") for stage in STAGES)
        print(f"{n:>3d} {cells} {printed:9.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", help="source tree of the reference")
    parser.add_argument("--change", help="source tree compared against it")
    parser.add_argument("--stages", metavar="TREE", help="time the stages of decompose in this tree alone")
    parser.add_argument("--rounds", type=int, default=10, help="passes, alternating which tree goes first")
    parser.add_argument("--inputs", type=int, default=8, help="seeded Gaussian X per n")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per input and tree")
    args = parser.parse_args(argv)

    if args.stages:
        sp = trees.load(args.stages, "sympeq_stages")
        try:
            runs = measure_stages(sp, args.rounds, args.inputs, args.repeat)
        except ValueError as exc:  # stage marks out of order
            parser.error(str(exc))
        report_stages(runs, args.rounds, args.inputs, args.repeat)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required without --stages")
    sides = [["parent", str(Path(args.parent).resolve())], ["change", str(Path(args.change).resolve())]]
    first, second = (
        _measure_in_child(order, args.rounds, args.inputs, args.repeat) for order in (sides, sides[::-1])
    )

    print(f"{args.rounds} rounds in each load order, {args.inputs} inputs x {args.repeat} calls per n; "
          "geometric mean of the two orders' median ms per call")
    print(f"{'op':25s} {'n':>3s} {'parent':>9s} {'change':>9s} {'ratio':>7s} {'faster':>7s}")
    for op in OPS:
        for n in NS:
            parent, change, wins = combine(first, second, op, n)
            print(f"{op:25s} {n:>3d} {parent:9.4f} {change:9.4f} {change / parent:7.3f} "
                  f"{wins:>3d}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
