"""Compare two sympeq source trees input by input on the apps-small inputs.

Usage: python scripts/apps_outcomes.py --parent TREE --change TREE --seeds A-B

TREE is a source tree (its ``src`` directory holds ``sympeq``) or the
``src`` directory itself. Each tree runs in its own child process with that
tree's ``src`` on PYTHONPATH. For every seed, the child generates the
apps-small inputs with the benchmark's own generator
(``perfbench/workloads.py`` of this checkout, read and not modified), so the
references of the scaled inputs come from that tree, as in a benchmark run
of it. It calls every operation once and checks the result with the
benchmark's checker. It also runs the eight CLI subcommands in-process on
that seed's CLI input files.

Each operation's outcome is one of:

* ``ok``;
* ``wrong`` (a wrong answer);
* the class name of a typed error;
* ``ContractViolation`` (a returned result that breaks its own contract);
* ``untyped:NAME`` (an exception outside the typed hierarchy).

Each CLI run's outcome is its exit status and the error name it printed.

The report lists every input whose outcome differs, then the failures per
outcome on each side. The exit status is 1 on any differing outcome, any
contract violation or untyped error in either tree, or inputs that differ
between the trees (their sha256 digests are compared); 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_CLI_ERROR = re.compile(r"error\[(\w+)\]")


# ---------------------------------------------------------------------------
# evaluation (one child per tree)
# ---------------------------------------------------------------------------


def _outcome(sp, workloads, op: dict) -> str:
    try:
        result = workloads.call(sp, op)
    except sp.SympeqError as exc:
        return type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - an untyped error is an outcome
        return f"untyped:{type(exc).__name__}"
    try:
        return "ok" if workloads.check(sp, op, result) else "wrong"
    except workloads.ContractViolation:
        return "ContractViolation"


def _cli_outcome(sp, op: dict) -> str:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = sp.cli.run(list(op["args"][0]))
    names = _CLI_ERROR.findall(stderr.getvalue())
    return f"exit {rc}" + (f" {names[0]}" if names else "")


def evaluate(seeds: list[int]) -> None:
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    import sympeq as sp
    import sympeq.cli  # noqa: F401 - run through sp.cli

    out = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            inputs = workloads.generate(sp, "apps-small", seed, workdir)
            digest = workloads.input_digest(inputs, workdir)
            here = os.getcwd()
            os.chdir(workdir)  # CLI paths are relative to the work directory
            try:
                cli = [_cli_outcome(sp, op) for op in inputs["cli_ops"]]
            finally:
                os.chdir(here)
            ops = [_outcome(sp, workloads, op) for op in inputs["ops"]]
        labels = [f"{op['kind']} n={op['n']}" for op in inputs["ops"]]
        labels += [f"cli {op['args'][0][0]}" for op in inputs["cli_ops"]]
        out[seed] = {"digest": digest, "labels": labels, "outcomes": ops + cli}
    json.dump(out, sys.stdout)


# ---------------------------------------------------------------------------
# comparison (in the calling process)
# ---------------------------------------------------------------------------


def _src(tree: str) -> Path:
    path = Path(tree).resolve()
    for cand in (path / "src", path):
        if (cand / "sympeq" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"no sympeq package under {tree}")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    lo = int(first)
    hi = int(last) if last else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def _child(src: Path, seeds: list[int]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [sys.executable, __file__, "--worker", f"{seeds[0]}-{seeds[-1]}"]
    proc = subprocess.run(args, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"child on {src} failed:\n{proc.stderr}")
    return {int(seed): rec for seed, rec in json.loads(proc.stdout).items()}


def _bad(outcome: str) -> bool:
    return outcome == "ContractViolation" or outcome.startswith("untyped:")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="source tree of the reference")
    parser.add_argument("--change", help="source tree compared against it")
    parser.add_argument("--seeds", type=_seeds, help="apps-small seeds, A-B inclusive or one seed")
    parser.add_argument("--worker", type=_seeds, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        evaluate(args.worker)
        return 0
    if not (args.parent and args.change and args.seeds):
        parser.error("--parent, --change and --seeds are required")

    old = _child(_src(args.parent), args.seeds)
    new = _child(_src(args.change), args.seeds)

    status = 0
    differ = 0
    failures = {"parent": Counter(), "change": Counter()}
    for seed in args.seeds:
        a, b = old[seed], new[seed]
        if a["digest"] != b["digest"]:
            print(f"seed {seed}: inputs differ ({a['digest']} against {b['digest']})")
            status = 1
            continue
        for i, (label, x, y) in enumerate(zip(a["labels"], a["outcomes"], b["outcomes"])):
            for side, outcome in (("parent", x), ("change", y)):
                if outcome not in ("ok", "exit 0"):
                    failures[side][outcome] += 1
                if _bad(outcome):
                    print(f"seed {seed} input {i} ({label}): {side} gives {outcome}")
                    status = 1
            if x != y:
                print(f"seed {seed} input {i} ({label}): {x} -> {y}")
                differ += 1
                status = 1

    total = sum(len(old[seed]["outcomes"]) for seed in args.seeds)
    print(f"seeds {args.seeds[0]}-{args.seeds[-1]}: {total} inputs, {differ} different outcome")
    for side, counts in failures.items():
        detail = ", ".join(f"{name} {k}" for name, k in sorted(counts.items()))
        print(f"  {side}: {sum(counts.values())} failures ({detail or 'none'})")
    return status


if __name__ == "__main__":
    sys.exit(main())
