"""File-in/file-out command line surface.

Every analysis subcommand reads JSON documents, runs one library operation
and emits a report; ``gen`` writes test inputs. ``--input`` and ``--format``
apply to analysis subcommands only. Machine-mode reports echo the seed, the
tolerances and the SHA-256 of every input file, and print all floats with 17
significant digits, so reruns are byte-identical.

Exit codes: 0 success, 2 contract-violating input (singular, degenerate, not
positive definite, ...), 1 I/O or document errors, a document whose matrices
do not fit its ``n`` or whose entries are not finite numbers among them.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import canonical, core, gaussian, io
from .errors import SympeqError
from .invariants import invariants


def _matrix_text(doc: dict) -> str:
    return np.array2string(io.matrix_from_doc(doc), precision=8, suppress_small=True)


def _load_matrix_like(doc: dict) -> np.ndarray:
    # accept a raw matrix document or anything carrying an interaction block
    if "data" in doc:
        return io.matrix_from_doc(doc)
    if "x" in doc:
        return io.matrix_from_doc(doc["x"], "x")
    raise io.FormatError("document holds neither a matrix nor an 'x' block")


def _invariants(doc: dict, tol: core.Tolerances) -> dict:
    return io.spectrum_to_doc(invariants(_load_matrix_like(doc), tol))


def _invariants_text(result: dict) -> str:
    lines = [f"n = {result['n']}, pairing residual = {result['pairing_residual']:.3e}"]
    for v in result["values"]:
        pair = "" if v["kind"] == "real" else f" +/- {v['im']:.10g}i (pair)"
        lines.append(f"  lambda = {v['re']:.10g}{pair}")
    return "\n".join(lines)


def _decompose(doc: dict, tol: core.Tolerances) -> dict:
    return io.decomposition_to_doc(canonical.decompose(io.matrix_from_doc(doc), tol=tol))


def _decompose_text(result: dict) -> str:
    return (
        f"canonical matrix:\n{_matrix_text(result['n_matrix'])}\n"
        f"recon residual {result['recon_residual']:.3e}, "
        f"s1 {result['s1_residual']:.3e}, s2 {result['s2_residual']:.3e}"
    )


def _williamson(doc: dict, tol: core.Tolerances) -> dict:
    x = io.matrix_from_doc(doc)
    res = canonical.williamson(x, tol)
    return {
        "s": io.matrix_to_doc(res.s),
        "nu": [float(v) for v in res.nu],
        "occupations": [float(v) for v in res.occupations],
        "residual": core.frobenius(res.s @ x @ res.s.T - np.diag(np.tile(res.nu, 2))),
    }


def _williamson_text(result: dict) -> str:
    nu, occ = (", ".join(f"{v:.10g}" for v in result[key]) for key in ("nu", "occupations"))
    return f"nu = [{nu}]\noccupations = [{occ}]\nresidual = {result['residual']:.3e}"


def _condense(doc: dict, tol: core.Tolerances) -> dict:
    res = gaussian.condense_correlations(io.bipartite_from_doc(doc), tol=tol)
    return {
        "s_a": io.matrix_to_doc(res.s_a),
        "s_b": io.matrix_to_doc(res.s_b),
        "state": io.bipartite_to_doc(res.g_out),
        "blocks": io.blocks_to_doc(res.blocks),
    }


def _condense_text(result: dict) -> str:
    return f"condensed correlation block:\n{_matrix_text(result['state']['x'])}"


def _normalize(doc: dict, tol: core.Tolerances) -> dict:
    res = gaussian.normalize_channel(io.channel_from_doc(doc), tol=tol)
    return {
        "s1": io.matrix_to_doc(res.s1),
        "s2": io.matrix_to_doc(res.s2),
        "channel": io.channel_to_doc(res.ch_out),
        "blocks": io.blocks_to_doc(res.blocks),
    }


def _normalize_text(result: dict) -> str:
    return f"normalized interaction block:\n{_matrix_text(result['channel']['x'])}"


def _validate_channel(doc: dict, tol: core.Tolerances) -> dict:
    report = gaussian.channel_validity(io.channel_from_doc(doc), tol)
    return {"min_eig": report.min_eig, "valid": report.valid}


def _validate_state(doc: dict, tol: core.Tolerances) -> dict:
    target = io.bipartite_from_doc(doc) if "gamma_a" in doc else io.matrix_from_doc(doc)
    report = gaussian.state_validity(target, tol)
    return {"min_eig": report.min_eig, "valid": report.valid}


def _validity_text(result: dict) -> str:
    verdict = "valid" if result["valid"] else "INVALID"
    return f"min Hermitian eigenvalue: {result['min_eig']:.10g}\nverdict: {verdict}"


def _witness(doc: dict, tol: core.Tolerances) -> dict:
    report = gaussian.squeezing_witness(_load_matrix_like(doc), tol)
    return {
        "spectrum": io.spectrum_to_doc(report.spectrum),
        "complex_found": report.complex_found,
        "verdict": report.verdict,
    }


# subcommand -> (document and tolerances -> result dict, result dict -> human text)
ANALYSES = {
    "invariants": (_invariants, _invariants_text),
    "decompose": (_decompose, _decompose_text),
    "williamson": (_williamson, _williamson_text),
    "condense": (_condense, _condense_text),
    "channel-normalize": (_normalize, _normalize_text),
    "validate-channel": (_validate_channel, _validity_text),
    "validate-state": (_validate_state, _validity_text),
    "witness": (_witness, lambda result: f"verdict: {result['verdict']}"),
}


def _identity(args) -> dict:
    return io.matrix_to_doc(np.eye(2 * args.n))


def _tmss(args) -> dict:
    return io.bipartite_to_doc(gaussian.two_mode_squeezed(args.r, pairs=args.n))


def _attenuator(args) -> dict:
    return io.channel_to_doc(gaussian.attenuator(args.eta, n=args.n))


def _passive(args) -> dict:
    ch = gaussian.random_valid_channel(args.n, args.env_modes, squeezing=False, seed=args.seed)
    return io.channel_to_doc(ch)


def _random_x(args) -> dict:
    rng = np.random.default_rng(args.seed)
    return io.matrix_to_doc(rng.standard_normal((2 * args.n, 2 * args.n)))


def _random_symplectic(args) -> dict:
    return io.matrix_to_doc(core.random_symplectic(args.n, args.seed))


# gen kind -> (parameters echoed beside n, parsed arguments -> document)
GENERATORS = {
    "identity": ((), _identity),
    "tmss": (("r",), _tmss),
    "attenuator": (("eta",), _attenuator),
    "passive": (("env_modes",), _passive),
    "random-x": ((), _random_x),
    "random-symplectic": ((), _random_symplectic),
}
GEN_KINDS = tuple(GENERATORS)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, help="output path (default: stdout)")
    parser.add_argument("--tol", type=float, default=core.DEFAULT_TOL.residual_tol,
                        help="residual tolerance")
    parser.add_argument("--gap", type=float, default=core.DEFAULT_TOL.degeneracy_gap,
                        help="relative degeneracy gap")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for `gen`; analysis commands are deterministic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympeq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ANALYSES:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input document path")
        _add_common(p)
        p.add_argument("--format", choices=("human", "machine"), default="machine",
                       dest="fmt", help="report format")
    g = sub.add_parser("gen")
    _add_common(g)
    g.add_argument("--kind", required=True, choices=GEN_KINDS)
    g.add_argument("--n", type=int, default=1, help="mode count (or pairs for tmss)")
    g.add_argument("--r", type=float, default=0.5, help="squeezing parameter for tmss")
    g.add_argument("--eta", type=float, default=0.5, help="attenuator transmissivity")
    g.add_argument("--env-modes", type=int, default=1, dest="env_modes")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        tol = core.Tolerances(residual_tol=args.tol, degeneracy_gap=args.gap)
        if args.command == "gen":
            if args.n < 1:
                raise io.FormatError("--n must be a positive integer")
            echoed, build = GENERATORS[args.kind]
            text = io.dumps({**build(args), "generator": {
                "kind": args.kind,
                "seed": args.seed,
                "params": {"n": args.n, **{name: getattr(args, name) for name in echoed}},
                "tolerances": tol.as_dict(),
            }})
        else:
            compute, render = ANALYSES[args.command]
            result = compute(io.load_document(args.input), tol)
            text = render(result) if args.fmt == "human" else io.dumps({
                "command": args.command,
                "seed": args.seed,
                "tolerances": tol.as_dict(),
                "inputs": {args.input: io.sha256_path(args.input)},
                "result": result,
            })
        # neither a report nor a human text ends in a newline
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return 0
    except (SympeqError, io.FormatError, OSError) as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        return 2 if isinstance(exc, SympeqError) else 1
    except ValueError as exc:
        sys.stderr.write(f"error[ValueError]: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
