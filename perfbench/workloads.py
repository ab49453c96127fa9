"""Seeded inputs, operations and output checks for the three workloads.

Inputs are generated in the benchmark's parent process (``generate``) and
handed to the measured process as plain arrays or files; the library sees
nothing else. Every operation is one public call, and every result is
checked outside the timed region (``Checker``).

An operation fails when it raises a typed error or returns a wrong answer.
A returned result that breaks its own contract (a decomposition that fails
``verify_decomposition``, a condensed or normalized block that is not
``I (+) J``, lost validity, a non-symplectic factor, a CLI report that is
not byte-identical across runs) is a ``ContractViolation``: it also counts
as failed, and it makes the whole run exit non-zero.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import numpy as np

WORKLOADS = ("decompose-large", "apps-small", "cli-cold")

LARGE_SIZES = (16, 24, 32)
LARGE_PER_SIZE = 4

SMALL_SIZES = tuple(range(1, 9))
SMALL_PER_CELL = 16  # inputs per (operation, n), four of them scaled
SMALL_KINDS = (
    "invariants",
    "squeezing_witness",
    "decompose",
    "williamson",
    "condense_correlations",
    "normalize_channel",
    "state_validity",
    "channel_validity",
)
# algebraic operations, whose right answer under X -> cX is known; the
# validity checks are physical (the vacuum fixes the unit) and stay unscaled
SCALED_KINDS = ("invariants", "squeezing_witness", "decompose", "williamson")
LOG10_SCALE_RANGE = (-4.0, 4.0)

CLI_COMMANDS = (
    "invariants",
    "decompose",
    "williamson",
    "condense",
    "channel-normalize",
    "validate-channel",
    "validate-state",
    "witness",
)

# checker tolerances, relative to the natural scale of each quantity
SPECTRUM_RTOL = 1e-5
NU_RTOL = 1e-6
RESIDUAL_TOL = 1e-8
MIN_EIG_ATOL = 1e-8


class ContractViolation(Exception):
    """A returned result fails the contract of the call that produced it."""


# ---------------------------------------------------------------------------
# input generation (parent process, untimed)
# ---------------------------------------------------------------------------


def _form(n: int) -> np.ndarray:
    sig = np.zeros((2 * n, 2 * n))
    sig[:n, n:] = -np.eye(n)
    sig[n:, :n] = np.eye(n)
    return sig


def _tmss_global(r: float, pairs: int) -> np.ndarray:
    """TMSS covariance in global (P_1..P_2m, Q_1..Q_2m) mode order."""
    m = 2 * pairs
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    g = ch * np.eye(2 * m)
    for k in range(pairs):
        a, b = k, pairs + k  # mode a of party A, mode b of party B
        g[a, b] = g[b, a] = sh  # P_a P_b
        g[m + a, m + b] = g[m + b, m + a] = -sh  # Q_a Q_b
    return g


def _state_from_channel(ch, r: float):
    """Arrays of the bipartite state made by sending party A of a TMSS
    through the channel: (gamma_a, gamma_b, x), party-major."""
    n = ch.n
    ch_, sh = np.cosh(2 * r), np.sinh(2 * r)
    z = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    gamma_a = ch.x.T @ (ch_ * np.eye(2 * n)) @ ch.x + ch.y
    gamma_a = (gamma_a + gamma_a.T) / 2
    return gamma_a, ch_ * np.eye(2 * n), ch.x.T @ (sh * z)


def _sigma_eigvals(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of X sigma X^T sigma^T, computed without the library."""
    sig = _form(x.shape[0] // 2)
    return np.linalg.eigvals(x @ sig @ x.T @ sig.T)


def _spectrum_ref(spectrum) -> dict:
    return {
        "kinds": tuple(v.kind for v in spectrum.values),
        "values": np.asarray(spectrum.as_multiset()),
    }


def _generate_large(rng: np.random.Generator) -> list[dict]:
    ops = []
    for n in LARGE_SIZES:
        for _ in range(LARGE_PER_SIZE):
            x = rng.standard_normal((2 * n, 2 * n))
            ops.append({"kind": "decompose", "n": n, "args": (x,), "scale": 1.0, "expect": {}})
    return ops


def _small_input(sp, kind: str, n: int, k: int, rng: np.random.Generator) -> dict:
    sub_seed = int(rng.integers(2**31))
    squeezing = bool(k % 2)
    expect: dict = {}
    if kind in ("invariants", "decompose"):
        args = (rng.standard_normal((2 * n, 2 * n)),)
    elif kind == "squeezing_witness":
        env = 1 + int(rng.integers(n))
        ch = sp.random_valid_channel(n, env, squeezing=squeezing, seed=sub_seed)
        args = (ch.x,)
        expect["passive"] = not squeezing
    elif kind == "williamson":
        if squeezing:  # dressed two-mode squeezed state: every nu is 1
            pairs = max(1, n // 2)
            g = _tmss_global(float(rng.uniform(0.1, 1.0)), pairs)
            nu = np.ones(2 * pairs)
            s = sp.random_symplectic(2 * pairs, seed=sub_seed)
        else:  # dressed thermal state with distinct frequencies
            nu = np.sort(1.0 + rng.exponential(2.0, size=n))[::-1]
            g = np.diag(np.concatenate([nu, nu]))
            s = sp.random_symplectic(n, seed=sub_seed)
        g = s @ g @ s.T
        args = ((g + g.T) / 2,)
        expect["nu"] = nu
    else:
        env = 1 + int(rng.integers(n))
        ch = sp.random_valid_channel(n, env, squeezing=squeezing, seed=sub_seed)
        if kind in ("condense_correlations", "state_validity"):
            args = (n, *_state_from_channel(ch, float(rng.uniform(0.1, 1.0))))
        else:
            args = (n, ch.x, ch.y)
    return {"kind": kind, "n": n, "args": args, "scale": 1.0, "expect": expect}


def _reference(sp, op: dict) -> dict:
    """The library's answer on the unscaled input, for checking scaled runs."""
    kind, arg = op["kind"], op["args"][0]
    try:
        if kind == "invariants":
            return _spectrum_ref(sp.invariants(arg))
        if kind == "squeezing_witness":
            rep = sp.squeezing_witness(arg)
            return {**_spectrum_ref(rep.spectrum), "verdict": rep.verdict}
        if kind == "decompose":
            blocks = sp.decompose(arg).blocks
            return {"kinds": tuple(b.kind for b in blocks.blocks), "values": blocks.eigenvalues()}
    except sp.SympeqError:
        pass  # no reference: the unscaled input fails too, so the scaled one counts as failed
    return {}


def _generate_small(sp, rng: np.random.Generator) -> list[dict]:
    ops = []
    lo, hi = LOG10_SCALE_RANGE
    cells = SMALL_PER_CELL // 4 * len(SMALL_SIZES)
    for kind in SMALL_KINDS:
        # log10(c) is stratified over the range per operation kind, so every
        # seed sees the same spread of scales
        strata = iter(rng.permutation(cells))
        for i, n in enumerate(SMALL_SIZES):
            # in each eight k, one even k (passive) and one odd k (squeezing)
            scaled = {i % 4 + j + d for j in range(0, SMALL_PER_CELL, 8) for d in (0, 3)}
            for k in range(SMALL_PER_CELL):
                op = _small_input(sp, kind, n, k, rng)
                if kind in SCALED_KINDS and k in scaled:
                    c = float(10.0 ** (lo + (hi - lo) * (next(strata) + rng.uniform()) / cells))
                    op["expect"]["ref"] = _reference(sp, op)
                    op["args"] = (c * op["args"][0],)
                    op["scale"] = c
                ops.append(op)
    return ops


def _cli_gen(cli, workdir: Path, name: str, *args) -> None:
    rc = cli.run(["gen", "--output", str(workdir / name), *args])
    if rc != 0:
        raise RuntimeError(f"sympeq gen {' '.join(args)} exited {rc}")


def generate_cli_files(sp, rng: np.random.Generator, workdir: Path) -> list[dict]:
    """One small input file per subcommand, written by ``sympeq gen`` where
    it has a generator.

    ``gen`` has no positive definite matrix kind, so the ``williamson``
    input is a dressed thermal state written through ``io.save_document``
    in the same file format. Each op is one (subcommand, file) pair; paths
    are relative to ``workdir``, the cwd of every invocation. One file per
    subcommand gives each input several repeats within a run, so its median
    time is steady.
    """
    from sympeq import cli, io

    ops = []
    for cmd in CLI_COMMANDS:
        seed = str(int(rng.integers(2**31)))
        name = f"{cmd}-input.json"
        if cmd in ("invariants", "decompose", "witness"):
            _cli_gen(cli, workdir, name, "--kind", "random-x", "--n", "2", "--seed", seed)
        elif cmd in ("condense", "validate-state"):
            r = f"{rng.uniform(0.1, 1.0):.6f}"
            _cli_gen(cli, workdir, name, "--kind", "tmss", "--r", r, "--n", "2")
        elif cmd == "channel-normalize":
            env = str(1 + int(rng.integers(2)))
            _cli_gen(cli, workdir, name, "--kind", "passive", "--n", "2",
                     "--env-modes", env, "--seed", seed)
        elif cmd == "validate-channel":
            eta = f"{rng.uniform(0.1, 0.9):.6f}"
            _cli_gen(cli, workdir, name, "--kind", "attenuator", "--eta", eta, "--n", "2")
        else:  # williamson
            nu = 1.0 + rng.exponential(2.0, size=2)
            s = sp.random_symplectic(2, seed=int(seed))
            g = s @ np.diag(np.concatenate([nu, nu])) @ s.T
            io.save_document(io.matrix_to_doc((g + g.T) / 2), str(workdir / name))
        argv = [cmd, "--input", name, "--output", f"out-{cmd}.json", "--format", "machine"]
        ops.append({"kind": "cli", "n": 2, "args": (argv,), "scale": 1.0, "expect": {}})
    return ops


def generate(sp, workload: str, seed: int, workdir: Path) -> dict:
    """All inputs of one run, derived from ``seed`` alone.

    Returns ``{"ops": [...], "cli_ops": [...]}``; ``cli_ops`` are the CLI
    inputs, used by ``cli-cold`` and by the in-process ``io`` probe of a
    traced run.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cli_ops = generate_cli_files(sp, rng, workdir)
    if workload == "decompose-large":
        ops = _generate_large(rng)
    elif workload == "apps-small":
        ops = _generate_small(sp, rng)
    else:
        ops = cli_ops
    return {"ops": ops, "cli_ops": cli_ops}


def input_digest(inputs: dict, workdir: Path) -> str:
    """sha256 over every generated array, parameter and input file."""
    h = hashlib.sha256()
    for group in ("ops", "cli_ops"):
        for op in inputs[group]:
            h.update(repr((group, op["kind"], op["n"], op["scale"])).encode())
            for arg in op["args"]:
                if isinstance(arg, np.ndarray):
                    h.update(repr((arg.dtype.str, arg.shape)).encode())
                    h.update(np.ascontiguousarray(arg).tobytes())
                else:
                    h.update(repr(arg).encode())
    for path in sorted(workdir.glob("*.json")):
        if not path.name.startswith("out-"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------------------
# operations (measured process, timed)
# ---------------------------------------------------------------------------


def call(sp, op: dict):
    """Run one operation through the public API.

    Names are looked up on the package at call time, so a traced run sees
    the wrapped attributes. Objects are built from the generated arrays with
    their plain constructors, as a caller holding arrays would.
    """
    kind, args = op["kind"], op["args"]
    if kind == "invariants":
        return sp.invariants(args[0])
    if kind == "squeezing_witness":
        return sp.squeezing_witness(args[0])
    if kind == "decompose":
        return sp.decompose(args[0])
    if kind == "williamson":
        return sp.williamson(args[0])
    if kind == "condense_correlations":
        return sp.condense_correlations(sp.BipartiteCovariance(*args))
    if kind == "state_validity":
        return sp.state_validity(sp.BipartiteCovariance(*args))
    if kind == "normalize_channel":
        return sp.normalize_channel(sp.GaussianChannel(*args))
    if kind == "channel_validity":
        return sp.channel_validity(sp.GaussianChannel(*args))
    raise ValueError(f"unknown operation {kind!r}")


# ---------------------------------------------------------------------------
# output checks (measured process, untimed)
# ---------------------------------------------------------------------------


def multiset_gap(a, b) -> float:
    """Largest distance in a greedy nearest matching of two complex multisets
    of equal size (inf when the sizes differ)."""
    a = np.asarray(a, dtype=complex)
    free = list(np.asarray(b, dtype=complex))
    if a.shape[0] != len(free):
        return float("inf")
    worst = 0.0
    for z in a:
        dists = np.abs(np.asarray(free) - z)
        j = int(np.argmin(dists))
        worst = max(worst, float(dists[j]))
        free.pop(j)
    return worst


def _spectrum_ok(values, kinds, op: dict) -> bool:
    """Invariants right: eigenvalues of Sigma(X) for an unscaled input; the
    unscaled reference's kinds, values times c^2, for a scaled one."""
    c = op["scale"]
    if c == 1.0:
        w = _sigma_eigvals(op["args"][0])
        doubled = np.repeat(np.asarray(values, dtype=complex), 2)
        scale = max(float(np.max(np.abs(w))), 1e-300)
        return multiset_gap(doubled, w) <= SPECTRUM_RTOL * scale
    ref = op["expect"]["ref"]
    if not ref or tuple(kinds) != ref["kinds"]:
        return False
    expected = c * c * ref["values"]
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return multiset_gap(values, expected) <= SPECTRUM_RTOL * scale


def _symplectic(sp, s) -> bool:
    return bool(sp.is_symplectic(s).verdict)


def _block_residual(out, target, left, mid, right) -> float:
    norm = np.linalg.norm(left) * np.linalg.norm(mid) * np.linalg.norm(right)
    return float(np.linalg.norm(out - target)) / max(norm, 1e-300)


def _hermitian_min_eig(sym, skew) -> float:
    return float(np.linalg.eigvalsh(sym + 1j * skew)[0])


def check(sp, op: dict, result) -> bool:
    """True if ``result`` is the right answer for ``op``, False if it is a
    wrong answer; raises ContractViolation if it breaks its own contract."""
    kind = op["kind"]
    if kind == "invariants":
        if result.slots() != op["n"]:
            raise ContractViolation(f"invariants cover {result.slots()} slots, n={op['n']}")
        return _spectrum_ok(result.as_multiset(), [v.kind for v in result.values], op)

    if kind == "squeezing_witness":
        kinds = [v.kind for v in result.spectrum.values]
        if result.complex_found != (sp.COMPLEX_PAIR in kinds) or result.verdict != (
            sp.SQUEEZING_WITNESSED if result.complex_found else sp.INCONCLUSIVE
        ):
            raise ContractViolation("witness verdict disagrees with its own spectrum")
        if op["expect"].get("passive") and op["scale"] == 1.0 and result.complex_found:
            return False  # number-preserving couplings have real invariants
        if op["scale"] != 1.0 and result.verdict != op["expect"]["ref"].get("verdict"):
            return False
        return _spectrum_ok(result.spectrum.as_multiset(), kinds, op)

    if kind == "decompose":
        x = op["args"][0]
        report = sp.verify_decomposition(x, result)
        if not report.verdict:
            raise ContractViolation(f"decomposition fails verify_decomposition: {report}")
        kinds = [b.kind for b in result.blocks.blocks]
        return _spectrum_ok(result.blocks.eigenvalues(), kinds, op)

    if kind == "williamson":
        g = op["args"][0]
        nu2 = np.concatenate([result.nu, result.nu])
        residual = _block_residual(result.s @ g @ result.s.T, np.diag(nu2), result.s, g, result.s)
        if residual > RESIDUAL_TOL or not _symplectic(sp, result.s):
            raise ContractViolation(f"williamson result fails S X S^T = D (residual {residual:.3e})")
        expected = op["scale"] * op["expect"]["nu"]
        return bool(np.max(np.abs(result.nu - expected) / expected) <= NU_RTOL)

    if kind == "condense_correlations":
        n, gamma_a, gamma_b, x = op["args"]
        residual = _block_residual(result.g_out.x, result.blocks.assembled, result.s_a, x, result.s_b)
        if residual > RESIDUAL_TOL:
            raise ContractViolation(f"condensed block is not I (+) J (residual {residual:.3e})")
        if not (_symplectic(sp, result.s_a) and _symplectic(sp, result.s_b)):
            raise ContractViolation("condensing factors are not symplectic")
        if not sp.state_validity(result.g_out).valid:
            raise ContractViolation("condensing lost state validity")
        return True

    if kind == "normalize_channel":
        n, x, y = op["args"]
        residual = _block_residual(result.ch_out.x, result.blocks.assembled, result.s1, x, result.s2)
        if residual > RESIDUAL_TOL:
            raise ContractViolation(f"normalized block is not I (+) J (residual {residual:.3e})")
        if not (_symplectic(sp, result.s1) and _symplectic(sp, result.s2)):
            raise ContractViolation("normalizing factors are not symplectic")
        if not sp.channel_validity(result.ch_out).valid:
            raise ContractViolation("normalizing lost channel validity")
        return True

    if kind == "state_validity":
        n, gamma_a, gamma_b, x = op["args"]
        gamma = np.block([[gamma_a, x], [x.T, gamma_b]])
        omega = np.kron(np.eye(2), _form(n))
        expected = _hermitian_min_eig(gamma, omega)
        return result.valid and abs(result.min_eig - expected) <= MIN_EIG_ATOL * max(
            1.0, np.linalg.norm(gamma)
        )

    if kind == "channel_validity":
        n, x, y = op["args"]
        sig = _form(n)
        skew = x.T @ sig @ x - sig
        expected = _hermitian_min_eig(y, skew)
        scale = max(1.0, float(np.hypot(np.linalg.norm(y), np.linalg.norm(skew))))
        return result.valid and abs(result.min_eig - expected) <= MIN_EIG_ATOL * scale

    raise ValueError(f"unknown operation {kind!r}")


class Checker:
    """Checks every result, re-running the check only for a result it has
    not seen for that input.

    A check is a pure function of (input, result), so a result whose pickled
    bytes equal an already checked result for the same input has the same
    verdict. Inputs repeat many times in a run; this keeps the untimed
    checking cost near one pass over the input set.
    """

    def __init__(self, sp):
        self.sp = sp
        self.seen: dict[tuple[int, bytes], bool] = {}

    def __call__(self, index: int, op: dict, result) -> bool:
        key = (index, hashlib.blake2b(pickle.dumps(result, protocol=5)).digest())
        if key not in self.seen:
            self.seen[key] = check(self.sp, op, result)
        return self.seen[key]
