"""File-in/file-out command line surface.

Every analysis subcommand reads JSON documents, runs one library operation
and emits a report; ``gen`` writes test inputs. Machine-mode reports echo the
seed, the tolerances and the SHA-256 of every input file, and print all
floats with 17 significant digits, so reruns are byte-identical.

Exit codes: 0 success, 2 contract-violating input (singular, degenerate,
not positive definite, ...), 1 I/O or document-parse errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .canonical import decompose, williamson
from .core import DEFAULT_TOL, Tolerances, frobenius, random_symplectic
from .errors import SympeqError
from .gaussian import (
    attenuator,
    channel_validity,
    condense_correlations,
    normalize_channel,
    random_valid_channel,
    squeezing_witness,
    state_validity,
    two_mode_squeezed,
)
from .invariants import invariants

GEN_KINDS = ("identity", "tmss", "attenuator", "passive", "random-x", "random-symplectic")


def _add_common(parser: argparse.ArgumentParser, needs_input: bool) -> None:
    if needs_input:
        parser.add_argument("--input", required=True, help="input document path")
    parser.add_argument("--output", default=None, help="output path (default: stdout)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL.residual_tol,
                        help="residual tolerance")
    parser.add_argument("--gap", type=float, default=DEFAULT_TOL.degeneracy_gap,
                        help="relative degeneracy gap")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for `gen`; analysis commands are deterministic")
    parser.add_argument("--format", choices=("human", "machine"), default="machine",
                        dest="fmt", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympeq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in (
        "invariants",
        "decompose",
        "williamson",
        "condense",
        "channel-normalize",
        "validate-channel",
        "validate-state",
        "witness",
    ):
        p = sub.add_parser(name)
        _add_common(p, needs_input=True)

    g = sub.add_parser("gen")
    _add_common(g, needs_input=False)
    g.add_argument("--kind", required=True, choices=GEN_KINDS)
    g.add_argument("--n", type=int, default=1, help="mode count (or pairs for tmss)")
    g.add_argument("--r", type=float, default=0.5, help="squeezing parameter for tmss")
    g.add_argument("--eta", type=float, default=0.5, help="attenuator transmissivity")
    g.add_argument("--env-modes", type=int, default=1, dest="env_modes")
    return parser


def _tolerances(args) -> Tolerances:
    return Tolerances(residual_tol=args.tol, degeneracy_gap=args.gap,
                      psd_tol=DEFAULT_TOL.psd_tol)


def _envelope(args, tol: Tolerances, inputs: list[str], result: dict) -> dict:
    return {
        "command": args.command,
        "seed": args.seed,
        "tolerances": tol.as_dict(),
        "inputs": {path: io.sha256_path(path) for path in inputs},
        "result": result,
    }


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _matrix_text(a: np.ndarray) -> str:
    return np.array2string(a, precision=8, suppress_small=True)


def _load_matrix_like(doc: dict) -> np.ndarray:
    # accept a raw matrix document or anything carrying an interaction block
    if "data" in doc:
        return io.matrix_from_doc(doc)
    if "x" in doc:
        return io.matrix_from_doc(doc["x"], "x")
    raise io.FormatError("document holds neither a matrix nor an 'x' block")


def _run_analysis(args) -> dict:
    tol = _tolerances(args)
    doc = io.load_document(args.input)
    cmd = args.command

    if cmd == "invariants":
        spectrum = invariants(_load_matrix_like(doc), tol)
        return io.spectrum_to_doc(spectrum)

    if cmd == "decompose":
        d = decompose(io.matrix_from_doc(doc), tol=tol)
        return io.decomposition_to_doc(d)

    if cmd == "williamson":
        x = io.matrix_from_doc(doc)
        res = williamson(x, tol)
        target = np.diag(np.concatenate([res.nu, res.nu]))
        residual = frobenius(res.s @ x @ res.s.T - target)
        return {
            "s": io.matrix_to_doc(res.s),
            "nu": [float(v) for v in res.nu],
            "occupations": [float(v) for v in res.occupations],
            "residual": residual,
        }

    if cmd == "condense":
        g = io.bipartite_from_doc(doc)
        res = condense_correlations(g, tol=tol)
        return {
            "s_a": io.matrix_to_doc(res.s_a),
            "s_b": io.matrix_to_doc(res.s_b),
            "state": io.bipartite_to_doc(res.g_out),
            "blocks": io.blocks_to_doc(res.blocks),
        }

    if cmd == "channel-normalize":
        ch = io.channel_from_doc(doc)
        res = normalize_channel(ch, tol=tol)
        return {
            "s1": io.matrix_to_doc(res.s1),
            "s2": io.matrix_to_doc(res.s2),
            "channel": io.channel_to_doc(res.ch_out),
            "blocks": io.blocks_to_doc(res.blocks),
        }

    if cmd == "validate-channel":
        ch = io.channel_from_doc(doc)
        report = channel_validity(ch, tol)
        return {"min_eig": report.min_eig, "valid": report.valid}

    if cmd == "validate-state":
        target = io.bipartite_from_doc(doc) if "gamma_a" in doc else io.matrix_from_doc(doc)
        report = state_validity(target, tol)
        return {"min_eig": report.min_eig, "valid": report.valid}

    if cmd == "witness":
        report = squeezing_witness(_load_matrix_like(doc), tol)
        return {
            "spectrum": io.spectrum_to_doc(report.spectrum),
            "complex_found": report.complex_found,
            "verdict": report.verdict,
        }

    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


def _human_analysis(args, result: dict) -> str:
    cmd = args.command
    if cmd == "invariants":
        lines = [f"n = {result['n']}, pairing residual = {result['pairing_residual']:.3e}"]
        for v in result["values"]:
            if v["kind"] == "real":
                lines.append(f"  lambda = {v['re']:.10g}")
            else:
                lines.append(f"  lambda = {v['re']:.10g} +/- {v['im']:.10g}i (pair)")
        return "\n".join(lines)
    if cmd == "decompose":
        n_mat = io.matrix_from_doc(result["n_matrix"])
        return (
            f"canonical matrix:\n{_matrix_text(n_mat)}\n"
            f"recon residual {result['recon_residual']:.3e}, "
            f"s1 {result['s1_residual']:.3e}, s2 {result['s2_residual']:.3e}"
        )
    if cmd == "williamson":
        nu = ", ".join(f"{v:.10g}" for v in result["nu"])
        occ = ", ".join(f"{v:.10g}" for v in result["occupations"])
        return f"nu = [{nu}]\noccupations = [{occ}]\nresidual = {result['residual']:.3e}"
    if cmd == "condense":
        x_out = io.matrix_from_doc(result["state"]["x"])
        return f"condensed correlation block:\n{_matrix_text(x_out)}"
    if cmd == "channel-normalize":
        x_out = io.matrix_from_doc(result["channel"]["x"])
        return f"normalized interaction block:\n{_matrix_text(x_out)}"
    if cmd in ("validate-channel", "validate-state"):
        verdict = "valid" if result["valid"] else "INVALID"
        return f"min Hermitian eigenvalue: {result['min_eig']:.10g}\nverdict: {verdict}"
    if cmd == "witness":
        return f"verdict: {result['verdict']}"
    return io.dumps(result)


def _run_gen(args) -> dict:
    tol = _tolerances(args)
    kind = args.kind
    if args.n < 1:
        raise io.FormatError("--n must be a positive integer")
    params: dict = {"n": args.n}
    if kind == "identity":
        doc = io.matrix_to_doc(np.eye(2 * args.n))
    elif kind == "tmss":
        params["r"] = args.r
        doc = io.bipartite_to_doc(two_mode_squeezed(args.r, pairs=args.n))
    elif kind == "attenuator":
        params["eta"] = args.eta
        doc = io.channel_to_doc(attenuator(args.eta, n=args.n))
    elif kind == "passive":
        params["env_modes"] = args.env_modes
        doc = io.channel_to_doc(
            random_valid_channel(args.n, args.env_modes, squeezing=False, seed=args.seed)
        )
    elif kind == "random-x":
        rng = np.random.default_rng(args.seed)
        doc = io.matrix_to_doc(rng.standard_normal((2 * args.n, 2 * args.n)))
    elif kind == "random-symplectic":
        doc = io.matrix_to_doc(random_symplectic(args.n, args.seed))
    else:  # pragma: no cover
        raise AssertionError(kind)
    doc["generator"] = {
        "kind": kind,
        "seed": args.seed,
        "params": params,
        "tolerances": tol.as_dict(),
    }
    return doc


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "gen":
            doc = _run_gen(args)
            _emit(args, io.dumps(doc))
            return 0
        result = _run_analysis(args)
        if args.fmt == "machine":
            tol = _tolerances(args)
            _emit(args, io.dumps(_envelope(args, tol, [args.input], result)))
        else:
            _emit(args, _human_analysis(args, result))
        return 0
    except SympeqError as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        return 2
    except (io.FormatError, OSError) as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error[ValueError]: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
