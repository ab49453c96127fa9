"""Compare two sympeq source trees input by input on the apps-small inputs.

Usage: python scripts/apps_outcomes.py --parent TREE --change TREE --seeds A-B

TREE is a source tree (its ``src`` directory holds ``sympeq``) or the
``src`` directory itself. Both trees are loaded in this process
(``trees.py``), and each is evaluated in turn with its package mapped to the
name ``sympeq``, which the benchmark's CLI input generator imports. For
every seed, each tree generates the apps-small inputs with the benchmark's
own generator (``perfbench/workloads.py`` of this checkout, read and not
modified), so the references of the scaled inputs come from that tree, as
in a benchmark run of it. It calls every operation once and checks the
result with the benchmark's checker. It also runs the eight CLI subcommands
in-process on that seed's CLI input files.

Each operation's outcome is one of:

* ``ok``;
* ``wrong`` (a wrong answer);
* the class name of a typed error;
* ``ContractViolation`` (a returned result that breaks its own contract);
* ``untyped:NAME`` (an exception outside the typed hierarchy).

Each CLI run's outcome is its exit status and the error name it printed.

The report lists every input whose outcome differs, then the failures per
outcome on each side. Where a seed's inputs differ between the trees (their
sha256 digests are compared), it names what differs: the operations whose
arrays or parameters differ, the CLI input files, and for a JSON file the
keys (dotted paths through its objects) whose values differ; the outcomes
are still compared unless the lists of operations differ. The exit status
is 1 on any differing outcome, any contract violation or untyped error in
either tree, or inputs that differ between the trees; 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

import trees

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_CLI_ERROR = re.compile(r"error\[(\w+)\]")


# ---------------------------------------------------------------------------
# evaluation (once per tree)
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _op_digest(op: dict) -> str:
    parts = [repr((op["kind"], op["n"], op["scale"])).encode()]
    for arg in op["args"]:
        if isinstance(arg, np.ndarray):
            parts.append(repr((arg.dtype.str, arg.shape)).encode() + np.ascontiguousarray(arg).tobytes())
        else:
            parts.append(repr(arg).encode())
    return _sha(b"\0".join(parts))


def _key_digests(value, path: str, out: dict) -> dict:
    # one digest per leaf of the JSON objects, keyed by its dotted path
    if isinstance(value, dict):
        for key, item in value.items():
            _key_digests(item, f"{path}.{key}" if path else key, out)
    else:
        out[path] = _sha(json.dumps(value).encode())
    return out


def _parts(inputs: dict, workdir: Path) -> dict:
    """Digests of each generated operation and of each input file."""
    parts = {group: [_op_digest(op) for op in inputs[group]] for group in ("ops", "cli_ops")}
    parts["files"] = {}
    for path in sorted(workdir.glob("*.json")):
        if not path.name.startswith("out-"):
            data = path.read_bytes()
            parts["files"][path.name] = {"sha": _sha(data), "keys": _key_digests(json.loads(data), "", {})}
    return parts


def _input_differences(a: dict, b: dict) -> list[str]:
    """What differs between two seeds' inputs, one line per part."""
    lines = []
    for group in ("ops", "cli_ops"):
        old, new = a["parts"][group], b["parts"][group]
        if len(old) != len(new):
            lines.append(f"{group}: {len(old)} against {len(new)} operations")
        differ = [i for i, (x, y) in enumerate(zip(old, new)) if x != y]
        if differ:
            lines.append(f"{group} arrays or parameters of {len(differ)}: {', '.join(map(str, differ[:10]))}"
                         + (" ..." if len(differ) > 10 else ""))
    old, new = a["parts"]["files"], b["parts"]["files"]
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"file {name}: only in the {'change' if name in new else 'parent'}")
        elif old[name]["sha"] != new[name]["sha"]:
            x, y = old[name]["keys"], new[name]["keys"]
            keys = sorted(k for k in x.keys() | y.keys() if x.get(k) != y.get(k))
            lines.append(f"file {name}: keys {', '.join(keys)}" if keys else f"file {name}: bytes only")
    return lines


def evaluate(sp, workloads, seeds: list[int]) -> dict:
    """Per seed: the inputs' digests, the labels and the outcomes."""
    out = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            inputs = workloads.generate(sp, "apps-small", seed, workdir)
            digest = workloads.input_digest(inputs, workdir)
            parts = _parts(inputs, workdir)
            here = os.getcwd()
            os.chdir(workdir)  # CLI paths are relative to the work directory
            try:
                cli = [_cli_outcome(sp, op) for op in inputs["cli_ops"]]
            finally:
                os.chdir(here)
            ops = [_outcome(sp, workloads, op) for op in inputs["ops"]]
        labels = [f"{op['kind']} n={op['n']}" for op in inputs["ops"]]
        labels += [f"cli {op['args'][0][0]}" for op in inputs["cli_ops"]]
        out[seed] = {"digest": digest, "parts": parts, "labels": labels, "outcomes": ops + cli}
    return out


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    lo = int(first)
    hi = int(last) if last else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def _bad(outcome: str) -> bool:
    return outcome == "ContractViolation" or outcome.startswith("untyped:")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="source tree of the reference")
    parser.add_argument("--change", required=True, help="source tree compared against it")
    parser.add_argument("--seeds", type=_seeds, required=True, help="apps-small seeds, A-B inclusive or one seed")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(PERFBENCH))
    import workloads

    parent, change = trees.load(args.parent, "sympeq_parent"), trees.load(args.change, "sympeq_change")
    with trees.as_sympeq(parent):
        old = evaluate(parent, workloads, args.seeds)
    with trees.as_sympeq(change):
        new = evaluate(change, workloads, args.seeds)

    status = 0
    differ = 0
    failures = {"parent": Counter(), "change": Counter()}
    for seed in args.seeds:
        a, b = old[seed], new[seed]
        if a["digest"] != b["digest"]:
            print(f"seed {seed}: inputs differ ({a['digest']} against {b['digest']})")
            for line in _input_differences(a, b):
                print(f"    {line}")
            status = 1
            if a["labels"] != b["labels"]:
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
