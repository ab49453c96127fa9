"""Compare two sympeq source trees on a fixed set of 2100 stress inputs.

Usage: python scripts/stress_compare.py --parent TREE --change TREE

TREE is a source tree (its ``src`` directory holds ``sympeq``) or the
``src`` directory itself. Both trees are loaded in this process
(``trees.py``). The inputs are generated once, with the parent tree; then
each tree evaluates them:

* 1200 random X at n = 1..8, a third scaled by 10^U(-4, 4);
* 400 ``random_valid_channel`` inputs, squeezing on every other one;
* 500 symplectically dressed near-degenerate canonical forms I (+) J in five
  families (repeated real and pair clusters, reals split by 1e-8..1e-4,
  near-real pairs, tied real parts, near-coincident pairs), every seventh
  scaled.

Every input goes through ``invariants`` and ``decompose`` (with
``verify_decomposition``); the channels also through ``normalize_channel``
and ``williamson_invariant_gap`` of X X^T + I. Each input is reported as
bit-identical, last digits only (same outcome, some number differs), or a
different outcome: another error type or message, other kinds, block order
or verdict, the Williamson gap on the other side of its 1e-6 bound, or
contractual values (invariants, blocks) apart by more than 1e-9 of their
scale. For every input with a different outcome the report prints each
operation's outcome on both trees (``ok``, the error name, or the kinds of
the blocks), and at the end it counts the transitions per family, operation
and (parent, change) outcome, with the totals of success -> failure and
failure -> success. The exit status is 1 on any different outcome.

Per family and tree, the report also counts the ``decompose`` calls that
ran a full-size singular-value decomposition, i.e. called
``numpy.linalg.svd`` on a real 2-D array, as an rcond does; those that ran
the closed form of a passive or anti-passive X, i.e. called it on a
complex 2-D array, the n x n matrix Z whose real form X is; those that ran a
stage-1 SVD, i.e. called it on a 3-D stack, as the general path for
clusters of four or more eigenvalues does (2-planes take their bases in
closed form); and those that ran a batched Hermitian eigensolve, i.e.
called ``numpy.linalg.eigh`` on a 3-D stack, as the pairing of a real
invariant repeated three or more times does. The evaluation wraps these
functions, so the counts need nothing from the tree. Beside them stands
the count of ``decompose`` results that ``verify_decomposition`` accepts
with a reconstruction residual above 1e-9, a tenth of the contract's
bound, so that a change moving results toward that bound shows.
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import sys
from collections import Counter
from unittest import mock

import numpy as np

import trees

FAMILIES = ("repeated", "split_reals", "near_real_pair", "tied_real_parts", "near_pairs")
# fields whose values are contractual; other numbers (factors, residuals,
# the Williamson gap) may move in their last digits without changing the
# outcome
CONTRACTUAL = ("values",)
CONTRACT_RTOL = 1e-9
RECON_TAIL = 1e-9  # verified results above this reconstruction residual are counted
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_SVD = np.linalg.svd
_EIGH = np.linalg.eigh


# ---------------------------------------------------------------------------
# inputs (generated with the parent tree)
# ---------------------------------------------------------------------------


def _pair(a: float, b: float) -> np.ndarray:
    return np.array([[a, b], [-b, a]])


def _dressed_form(sp, family: str, rng: np.random.Generator, seed: int):
    if family == "repeated":
        a, b, r = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
        blocks = [_pair(a, b), _pair(a, b)] + [np.array([[r]])] * int(rng.integers(2, 4))
    elif family == "split_reals":
        r = rng.uniform(0.5, 3.0)
        delta = r * 10.0 ** rng.uniform(-8, -4)
        blocks = [np.array([[r]]), np.array([[r + delta]]), np.array([[rng.uniform(-3.0, -0.5)]])]
    elif family == "near_real_pair":
        a = rng.uniform(0.5, 3.0)
        blocks = [_pair(a, a * 10.0 ** rng.uniform(-10, -5)), np.array([[rng.uniform(-3.0, -0.5)]])]
    elif family == "tied_real_parts":
        a = rng.uniform(0.5, 3.0)
        blocks = [np.array([[a]]), _pair(a, rng.uniform(1e-4, 1.0)), np.array([[rng.uniform(-3.0, 0.4)]])]
    else:  # near_pairs
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        delta = 10.0 ** rng.uniform(-8, -4)
        blocks = [_pair(a, b), _pair(a + delta, b + delta), np.array([[rng.uniform(0.5, 3.0)]])]
    j = blocks[0]
    for blk in blocks[1:]:
        j = sp.direct_sum(j, blk)
    n = j.shape[0]
    form = sp.direct_sum(np.eye(n), j)
    return sp.random_symplectic(n, seed) @ form @ sp.random_symplectic(n, seed + 1)


def generate(sp) -> list[dict]:
    inputs = []
    for i in range(1200):
        rng = np.random.default_rng(1_000_000 + i)
        n = 1 + i % 8
        x = rng.standard_normal((2 * n, 2 * n))
        if i % 3 == 0:
            x = x * 10.0 ** rng.uniform(-4, 4)
        inputs.append({"family": "random", "x": x})
    for i in range(400):
        n = 1 + i % 6
        ch = sp.random_valid_channel(n, 1 + i % 3, squeezing=bool(i % 2), seed=2_000_000 + i)
        inputs.append({"family": "channel", "x": ch.x, "y": ch.y})
    for i in range(500):
        family = FAMILIES[i % len(FAMILIES)]
        rng = np.random.default_rng(3_000_000 + i)
        x = _dressed_form(sp, family, rng, seed=3_000_000 + 2 * i)
        if i % 7 == 0:
            x = x * 10.0 ** rng.uniform(-4, 4)
        inputs.append({"family": family, "x": x})
    return inputs


# ---------------------------------------------------------------------------
# evaluation (once per tree)
# ---------------------------------------------------------------------------


def _values(values) -> dict:
    return {"kinds": [v.kind for v in values], "values": [[v.re, v.im] for v in values]}


def _flat(a) -> list:
    return np.asarray(a, dtype=float).ravel().tolist()


def _run(sp, fn) -> dict:
    try:
        return fn()
    except sp.SympeqError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _decompose(sp, x, calls: Counter) -> dict:
    # calls counts the real and the complex 2-D svd calls, the 3-D svd calls
    # and the 3-D eigh calls of decompose, also when it raises
    def svd(a, *args, **kwargs):
        calls["svd"] += np.ndim(a) == 2 and not np.iscomplexobj(a)
        calls["passive_svd"] += np.ndim(a) == 2 and np.iscomplexobj(a)
        calls["stack_svd"] += np.ndim(a) == 3
        return _SVD(a, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        calls["stack_eigh"] += np.ndim(a) == 3
        return _EIGH(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "svd", svd), mock.patch.object(np.linalg, "eigh", eigh):
        d = sp.decompose(x)
    rep = sp.verify_decomposition(x, d)
    return {
        **_values(d.blocks.blocks),
        "s1": _flat(d.s1),
        "s2": _flat(d.s2),
        "residuals": [d.recon_residual, d.s1_residual, d.s2_residual],
        "verify": [rep.recon, rep.s1, rep.s2, rep.spectrum_match],
        "verdict": rep.verdict,
    }


def _invariants(sp, x) -> dict:
    spec = sp.invariants(x)
    return {**_values(spec.values), "pairing_residual": spec.pairing_residual, "has_zero": spec.has_zero}


def _normalize(sp, item) -> dict:
    n = item["x"].shape[0] // 2
    res = sp.normalize_channel(sp.GaussianChannel(n, item["x"], item["y"]))
    return {
        **_values(res.blocks.blocks),
        "s1": _flat(res.s1),
        "s2": _flat(res.s2),
        "y_out": _flat(res.ch_out.y),
        "validity_residual": res.ch_out.validity_residual,
        "valid": sp.channel_validity(res.ch_out).valid,
    }


def _gap(sp, x) -> dict:
    # the gap is a rounding-level residual; its outcome is whether it stays
    # within the 1e-6 bound of acceptance criterion 4
    gap = sp.williamson_invariant_gap(x)
    return {"gap": gap, "gap_ok": gap <= 1e-6}


def evaluate(sp, inputs: list[dict]) -> list[dict]:
    """Each input's records, through one JSON round trip, as the
    comparison reads them."""
    out = []
    for item in inputs:
        x = item["x"]
        calls: Counter = Counter()
        rec = {
            "invariants": _run(sp, lambda: _invariants(sp, x)),
            "decompose": _run(sp, lambda: _decompose(sp, x, calls)),
        }
        if item["family"] == "channel":
            rec["normalize_channel"] = _run(sp, lambda: _normalize(sp, item))
            rec["williamson_invariant_gap"] = _run(sp, lambda: _gap(sp, x @ x.T + np.eye(x.shape[0])))
        dec = rec["decompose"]
        out.append({
            "family": item["family"],
            "ops": rec,
            "full_svd": calls["svd"] > 0,
            "passive_svd": calls["passive_svd"] > 0,
            "stage1_svd": calls["stack_svd"] > 0,
            "stage1_eigh": calls["stack_eigh"] > 0,
            "recon_tail": dec.get("verdict", False) and dec["verify"][0] > RECON_TAIL,
        })
    return json.loads(json.dumps(out))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _split(value, path: str, shape: list, numbers: dict) -> None:
    """Separate a record into its outcome (shape) and its numbers by field."""
    if isinstance(value, bool) or value is None:
        shape.append((path, value))
    elif isinstance(value, (int, float)):
        numbers.setdefault(path, []).append(float(value))
    elif isinstance(value, str):
        if path.endswith("message"):
            numbers.setdefault(path, []).extend(float(t) for t in _NUMBER.findall(value))
            value = _NUMBER.sub("#", value)
        shape.append((path, value))
    elif isinstance(value, dict):
        for key in sorted(value):
            _split(value[key], f"{path}.{key}", shape, numbers)
    else:
        shape.append((path, len(value)))
        for item in value:
            _split(item, path, shape, numbers)


def _relative_gap(a: list, b: list) -> float:
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
    diff[np.isnan(a) & np.isnan(b)] = 0.0
    diff[np.isnan(diff)] = np.inf
    scale = max(1e-300, float(np.nanmax(np.abs(np.concatenate([a, b])))))
    return float(np.max(diff)) / scale


def compare(old: dict, new: dict) -> tuple[str, str, float]:
    """Classify one input: ('identical' | 'digits' | 'different', detail, worst gap)."""
    shape_old, shape_new, num_old, num_new = [], [], {}, {}
    _split(old, "", shape_old, num_old)
    _split(new, "", shape_new, num_new)
    if shape_old != shape_new:
        first = next((a for a, b in zip(shape_old, shape_new) if a != b), shape_old[-1:])
        return "different", f"outcome at {first}", np.inf
    worst, detail = 0.0, ""
    for field, a in num_old.items():
        b = num_new[field]
        if [x.hex() for x in a] == [x.hex() for x in b]:
            continue
        gap = _relative_gap(a, b)
        if field.split(".")[-1] in CONTRACTUAL and gap > CONTRACT_RTOL:
            return "different", f"{field} apart by {gap:.2e}", gap
        if gap >= worst:
            worst, detail = gap, field
    return ("digits", detail, worst) if detail else ("identical", "", 0.0)


def _outcome(rec: dict) -> str:
    """One operation's outcome: its error name, the kinds of its blocks
    (marked when ``has_zero`` is set), or ok."""
    if "error" in rec:
        return rec["error"]
    if "kinds" not in rec:
        return "ok"
    kinds = ", ".join("pair" if k == "complex_pair" else k for k in rec["kinds"])
    return f"({kinds})" + (" has_zero" if rec.get("has_zero") else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="source tree of the reference")
    parser.add_argument("--change", required=True, help="source tree compared against it")
    args = parser.parse_args(argv)

    parent, change = trees.load(args.parent, "sympeq_parent"), trees.load(args.change, "sympeq_change")
    inputs = generate(parent)
    # each tree gets its own copy of the inputs, so neither sees what the
    # other may have written into them
    old, new = (evaluate(sp, copy.deepcopy(inputs)) for sp in (parent, change))

    counts: Counter = Counter()
    by_family: dict[str, Counter] = {}
    errors: Counter = Counter()
    transitions: Counter = Counter()  # (family, op, parent outcome, change outcome)
    flips: Counter = Counter()  # (parent failed, change failed) of the changed operations
    worst = (0.0, "", -1)
    for i, (a, b) in enumerate(zip(old, new)):
        verdict, detail, gap = compare(a["ops"], b["ops"])
        counts[verdict] += 1
        family = by_family.setdefault(a["family"], Counter())
        family[verdict] += 1
        for side, rec in (("parent", a), ("change", b)):
            family[f"{side} full_svd"] += rec["full_svd"]
            family[f"{side} passive_svd"] += rec["passive_svd"]
            family[f"{side} stage1_svd"] += rec["stage1_svd"]
            family[f"{side} stage1_eigh"] += rec["stage1_eigh"]
            family[f"{side} recon_tail"] += rec["recon_tail"]
        for op, rec in b["ops"].items():
            if "error" in rec:
                errors[(op, rec["error"])] += 1
        if verdict == "different":
            moves = []
            for op, old_rec in a["ops"].items():
                new_rec = b["ops"][op]
                move = (_outcome(old_rec), _outcome(new_rec))
                moves.append(f"{op} {move[0]} -> {move[1]}")
                if compare(old_rec, new_rec)[0] == "different":
                    transitions[(a["family"], op, *move)] += 1
                    flips[("error" in old_rec, "error" in new_rec)] += 1
            print(f"input {i} ({a['family']}): different outcome: {detail}")
            print("    " + "; ".join(moves))
        elif verdict == "digits" and gap >= worst[0]:
            worst = (gap, detail, i)

    print(f"{len(old)} inputs: {counts['identical']} bit-identical, "
          f"{counts['digits']} last digits only, {counts['different']} different outcome")
    for family, c in by_family.items():
        print(f"  {family:16s} {c['identical']:5d} identical {c['digits']:5d} digits {c['different']:5d} different")
    if counts["digits"]:
        print(f"  largest number difference: {worst[0]:.2e} relative, in {worst[1]} of input {worst[2]}")
    print("  decompose calls that ran a real full-size SVD | a passive closed-form (complex n x n) SVD "
          "| a stage-1 (3-D) SVD | a batched (3-D) eigh "
          f"| verified decompose results with recon above {RECON_TAIL:g}, parent -> change:")
    for family, c in by_family.items():
        print(f"  {family:16s} {c['parent full_svd']:5d} -> {c['change full_svd']:5d}"
              f" | {c['parent passive_svd']:5d} -> {c['change passive_svd']:5d}"
              f" | {c['parent stage1_svd']:5d} -> {c['change stage1_svd']:5d}"
              f" | {c['parent stage1_eigh']:5d} -> {c['change stage1_eigh']:5d}"
              f" | {c['parent recon_tail']:5d} -> {c['change recon_tail']:5d}")
    for (op, name), k in sorted(errors.items()):
        print(f"  change: {op} raised {name} on {k} inputs")
    if transitions:
        print("  changed operations per family (parent -> change):")
        for (family, op, before, after), k in sorted(transitions.items()):
            print(f"  {family:16s} {op:24s} {before} -> {after}: {k}")
    print(f"  operations success -> failure: {flips[(False, True)]}, "
          f"failure -> success: {flips[(True, False)]}")
    return 1 if counts["different"] else 0


if __name__ == "__main__":
    sys.exit(main())
