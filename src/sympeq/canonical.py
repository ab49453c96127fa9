"""Canonical form of a nonsingular real matrix under symplectic equivalence.

The main entry point ``decompose`` produces symplectic S1, S2 with
``S1 @ X @ S2 = I_n (+) J`` where J is block diagonal: one scalar per real
invariant and one 2x2 rotation-scaling block [[a, b], [-b, a]] per complex
conjugate invariant pair. One eigendecomposition of the skew-Hamiltonian
Sigma(X) serves both the invariants (its eigenvalues) and stage 1 (its
eigenvectors). The construction has two stages:

1. symplectic block-diagonalization of Sigma(X) to -(M (+) M^T), exposed as
   ``block_diagonalize_skew_hamiltonian``. The invariant clusters are
   grouped by kind and size; each group is one stack, with one batched SVD,
   one phase gauge and one symplectic Gram-Schmidt run on all its members
   at once, so a generic input costs two such passes whatever its size.
   Its columns follow the canonical order of the invariants, so M equals
   -J to rounding;
2. the symmetric factors of M in closed form, with no search and no random
   draw, read off M as stage 1 leaves it. Only when that result misses the
   residual contract (off-block mass in M, as near a real/complex or a
   clustering threshold or where stage 1 is ill-conditioned) is stage 1
   re-based by the GL embedding of a real eigenbasis R of -M, which brings
   R^{-1} M R to real block form, and the factors read again. R comes from
   one eigendecomposition of -M: each eigenvector goes to the cluster whose
   run of M's columns holds most of its mass, and takes its kind and
   position from that run, so the spectrum is classified once, on
   Sigma(X). An ill-conditioned basis of a repeated eigenvalue is replaced
   by an orthonormal one. A generic input thus costs one eigendecomposition
   in all.

The general factorization of a real matrix into two real symmetric factors
(``factor_two_symmetric``) remains a standalone operation.

The classical normal-mode decomposition of a positive definite matrix
(``williamson``) is included; its frequencies nu_k relate to the invariants
by lambda_k = nu_k**2. It runs one Hermitian eigensolve
(``scipy.linalg.eigh``), the package's only use of scipy, imported on first
use, so importing this module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerances,
    as_even_square,
    as_matrix,
    block_diag,
    direct_sum,
    frobenius,
    is_symplectic,
    readonly_form,
    reciprocal_condition,
    symmetric_part,
    symplectic_residual,
)
from .errors import (
    ClusteringAmbiguous,
    DegenerateSpectrum,
    DimensionError,
    EigenFailure,
    IsotropicEigenspace,
    NoNonsingularFactor,
    NotPositiveDefinite,
    NotSkewHamiltonian,
    SingularInput,
)
from .invariants import (
    COMPLEX_PAIR,
    REAL,
    Invariant,
    InvariantSpectrum,
    invariant_multiset,
    invariants,
    sigma_of_checked,
    spectral_scale,
    spectrum_from_eigenvalues,
)

__all__ = [
    "CanonicalBlocks",
    "Decomposition",
    "WilliamsonResult",
    "TwoSymmetricFactors",
    "VerificationReport",
    "canonical_from_invariants",
    "block_diagonalize_skew_hamiltonian",
    "factor_two_symmetric",
    "decompose",
    "williamson",
    "verify_decomposition",
    "williamson_invariant_gap",
]

# rcond floors: inputs below these are treated as singular / near-defective
_X_RCOND_MIN = 1e-12
_FACTOR_RCOND_MIN = 1e-10
_FACTOR_RCOND_GOOD = 1e-3  # stop drawing once a factor this well-conditioned appears
_JORDAN_RCOND_MIN = 1e-10
_REPEAT_SPREAD = 1e-11  # eigenvalues of -M this close (relative) are one repeated eigenvalue
_PAIRING_MIN = 1e-10
# signs e of the closed-form factor A = diag(e), per slot of each invariant kind
_SIGNS = {REAL: (1.0,), COMPLEX_PAIR: (1.0, -1.0)}


@dataclass(eq=False)
class CanonicalBlocks:
    """The canonical matrix I_n (+) J together with its block list.

    ``blocks`` follows the invariant-spectrum canonical order; every
    complex-pair entry has positive imaginary part (sign gauge b > 0).
    """

    n: int
    blocks: tuple[Invariant, ...]
    assembled: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalue multiset of J as a sorted complex n-vector."""
        return invariant_multiset(self.blocks)


@dataclass(eq=False)
class Decomposition:
    s1: np.ndarray
    s2: np.ndarray
    blocks: CanonicalBlocks
    recon_residual: float
    s1_residual: float
    s2_residual: float


@dataclass(eq=False)
class WilliamsonResult:
    s: np.ndarray
    nu: np.ndarray
    occupations: np.ndarray


@dataclass(eq=False)
class TwoSymmetricFactors:
    a: np.ndarray
    b: np.ndarray
    residual: float


@dataclass(frozen=True)
class VerificationReport:
    recon: float
    s1: float
    s2: float
    spectrum_match: float
    verdict: bool


def canonical_from_invariants(spectrum: InvariantSpectrum) -> CanonicalBlocks:
    """Assemble N = I_n (+) J from an invariant spectrum.

    Real entries become scalar diagonal slots of J, complex pairs become
    [[a, b], [-b, a]] with b > 0, in the spectrum's canonical order.
    """
    n = spectrum.n
    j = np.zeros((n, n))
    pos = 0
    for v in spectrum.values:
        if v.kind == REAL:
            j[pos, pos] = v.re
            pos += 1
        else:
            j[pos : pos + 2, pos : pos + 2] = [[v.re, v.im], [-v.im, v.re]]
            pos += 2
    if pos != n:
        raise DimensionError(f"blocks fill {pos} slots, expected {n}")
    return CanonicalBlocks(n=n, blocks=spectrum.values, assembled=block_diag(np.eye(n), j))


# ---------------------------------------------------------------------------
# stage 1: symplectic block-diagonalization of a skew-Hamiltonian matrix
# ---------------------------------------------------------------------------


def _fix_phase(cols: np.ndarray) -> np.ndarray:
    # gauge per column: the largest-magnitude entry is made real and positive
    pivot = cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])]
    if not np.iscomplexobj(cols):
        return np.where(pivot < 0, -cols, cols)
    mag = np.hypot(pivot.real, pivot.imag)  # abs() of each pivot, bit for bit
    mag[mag == 0] = 1.0  # a zero column stays zero
    # scaling the rows of the transpose multiplies each column by a broadcast
    # scalar, which rounds exactly as col * phase does column by column
    return (cols.T * (pivot.conj() / mag)[:, None]).T


def _orthonormal_spans(stack: np.ndarray, dim: int) -> np.ndarray:
    """Gauged orthonormal bases of the column spans of a (k, rows, cols) stack.

    One batched SVD serves all k members; raises if any rank falls short.
    """
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    if any(sv[dim - 1] <= 1e-8 * sv[0] for sv in s.tolist()):
        raise DegenerateSpectrum(
            "invariant subspace is rank deficient (defective or near-defective input)"
        )
    # the gauge acts column by column, so the k bases are gauged side by side
    k, rows, _ = u.shape
    side_by_side = _fix_phase(u[:, :, :dim].transpose(1, 0, 2).reshape(rows, k * dim))
    return side_by_side.reshape(rows, k, dim).transpose(1, 0, 2)


def _symplectic_pairs(basis: np.ndarray, sig: np.ndarray):
    """Split each of a (k, 2n, d) stack of invariant subspaces into pairs (u, w)
    with u^T sig w = -c.

    Gram-Schmidt with respect to the bilinear form u^T sig w, run on all k
    members at once: each step pairs the first remaining vector u with the
    first remaining v of largest |u^T sig v|, and projects the others onto
    the form-complement of the pair. Every vector entering a step has unit
    length (a column of an orthonormal basis, or renormalised after the
    projection), so the pairing score is |u^T sig v| itself. c = 1 for a real
    basis. A complex basis gets c = 2, which makes the real and imaginary
    parts of its pairs assemble into a symplectic basis. Returns the u- and
    w-vectors as (k, d/2, 2n) stacks.
    """
    c = 2.0 if np.iscomplexobj(basis) else 1.0
    k, dim, d = basis.shape
    us = np.empty((k, d // 2, dim), dtype=basis.dtype)
    ws = np.empty_like(us)
    cols = basis.transpose(0, 2, 1)  # one basis vector per row
    for step in range(d):
        u, rest = cols[:, 0], cols[:, 1:]
        form = (rest @ (u @ sig)[:, :, None])[:, :, 0]  # u^T sig v for every v
        if rest.shape[1] == 1:  # the only candidate; basic indexing is cheaper
            f, v = form[:, 0], rest[:, 0]
        else:
            members, j = np.arange(k), np.abs(form).argmax(axis=1)  # first maximum
            f, v = form[members, j], rest[members, j]
        score = np.abs(f)
        if score.min() < _PAIRING_MIN:
            raise IsotropicEigenspace(
                "symplectic form degenerates on an invariant subspace"
            )
        # w = v / (-f / c) has u^T sig w = -c and length c / |f|; the balance
        # sqrt(c / |f|) scales u up and w down to equal lengths
        balance = np.sqrt(c / score)
        us[:, step] = u * balance[:, None]
        ws[:, step] = v * (-c / (f * balance))[:, None]
        if rest.shape[1] == 1:
            break
        keep = np.ones(form.shape, dtype=bool)
        keep[members, j] = False
        cols = rest[keep].reshape(k, -1, dim)
        u, w = us[:, step, :, None], ws[:, step, :, None]
        # v - (w^T sig v / c) u + (u^T sig v / c) w, renormalised; each
        # v^T sig x = -x^T sig v
        along_u, along_w = cols @ (sig @ w / c), cols @ (sig @ u / c)
        cols = cols + along_u * u.transpose(0, 2, 1) - along_w * w.transpose(0, 2, 1)
        nv = np.linalg.norm(cols, axis=2)
        if nv.min() < 1e-10:
            raise DegenerateSpectrum("collapsed basis vector in symplectic pairing")
        cols = cols / nv[:, :, None]
    return us, ws


def _split_parts(z: np.ndarray) -> np.ndarray:
    # (k, p, m) complex vectors -> (k, p, 2, m): the rows Re z_i, Im z_i
    k, p, m = z.shape
    return np.ascontiguousarray(z).view(float).reshape(k, p, m, 2).transpose(0, 1, 3, 2)


def block_diagonalize_skew_hamiltonian(sigma_mat, tol: Tolerances = DEFAULT_TOL):
    """Symplectic similarity bringing a skew-Hamiltonian matrix to -(M (+) M^T).

    Returns ``(S, M)`` with S symplectic and ``S Sigma S^{-1} = -(M (+) M^T)``.
    The eigenspaces of distinct invariants are orthogonal with respect to the
    symplectic form, so each cluster's basis is built on its own eigenspace.
    The clusters, and the canonical order of their columns, come from
    ``spectrum_from_eigenvalues``; an ambiguous clustering raises
    DegenerateSpectrum. Clusters of one kind and size are processed together
    as one stack: one batched SVD gives orthonormal bases of their
    eigenspaces, and a symplectic Gram-Schmidt run on all of them at once
    produces vectors u, w with u^T sig w = -1; u-vectors fill the first-half
    columns of S^{-1} and w-vectors the second half. Complex conjugate
    clusters are handled through the real and imaginary parts of a
    bilinearly paired basis.
    """
    sig_h = as_even_square(sigma_mat, "Sigma")
    sig = readonly_form(sig_h.shape[0] // 2)
    skew = sig_h @ sig
    if frobenius(skew.T + skew) > 1e-10 * max(1.0, frobenius(sig_h)):
        raise NotSkewHamiltonian("(Sigma sigma)^T != -(Sigma sigma) within tolerance")

    try:
        w, v = np.linalg.eig(sig_h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(f"eigensolver failed: {exc}") from exc

    try:
        clusters = spectrum_from_eigenvalues(w, tol)[1]
    except ClusteringAmbiguous as exc:
        raise DegenerateSpectrum(str(exc)) from exc
    return _block_diagonalize(sig_h, v, clusters, tol)


def _block_diagonalize(sig_h: np.ndarray, v: np.ndarray, clusters, tol: Tolerances):
    """Stage 1 from one eigendecomposition of the skew-Hamiltonian sig_h.

    ``v`` holds its eigenvectors and ``clusters`` the classification of its
    eigenvalues by ``spectrum_from_eigenvalues``.
    """
    n = sig_h.shape[0] // 2
    sig = readonly_form(n)
    # Clusters of one kind and size are paired as one stack. A cluster of
    # size d owns a run of u-columns of T from its offset in canonical order,
    # d/2 for a real cluster and d for a complex one (Re z, Im z of each
    # pair), and the same run of w-columns n further on.
    groups: dict = {}
    offset = 0
    for inv, idx in clusters:
        key = (inv.kind, len(idx))
        if key not in groups:
            groups[key] = ([], [])
        members, columns = groups[key]
        members.extend(idx)
        width = len(idx) // 2 if inv.kind == REAL else len(idx)
        columns.extend(range(offset, offset + width))
        offset += width

    pieces, order = [], []
    for (kind, d), (members, columns) in groups.items():
        raw = v[:, members].reshape(2 * n, -1, d).transpose(1, 0, 2)  # (k, 2n, d)
        if kind == REAL and np.iscomplexobj(raw):
            raw = np.concatenate((raw.real, raw.imag), axis=2)
        u, w = _symplectic_pairs(_orthonormal_spans(raw, d), sig)
        if kind != REAL:
            # a complex pair (z, y) gives the columns Re z, Im z and Re y, -Im y
            u, w = _split_parts(u), _split_parts(w.conj())
        pieces += [u.reshape(-1, 2 * n), w.reshape(-1, 2 * n)]
        order += columns + [col + n for col in columns]
    rows = np.empty((2 * n, 2 * n))  # the columns of T
    rows[order] = np.concatenate(pieces)
    t = rows.T
    rc = reciprocal_condition(t)
    if rc < _JORDAN_RCOND_MIN:
        raise DegenerateSpectrum("symplectic eigenbasis is numerically singular")
    s = np.linalg.inv(t)
    similar = s @ sig_h @ t
    m = -(similar[:n, :n] + similar[n:, n:].T) / 2
    # m is computed and can overflow; direct_sum keeps its finiteness check here
    residual = frobenius(similar + direct_sum(m, m.T))
    if residual > tol.residual_tol * max(1.0, 1.0 / rc) * max(1.0, frobenius(sig_h)):
        raise DegenerateSpectrum(
            f"block-diagonalization residual {residual:.3e} exceeds tolerance"
        )
    return s, m


# ---------------------------------------------------------------------------
# factorization of a general real matrix into two real symmetric matrices
# ---------------------------------------------------------------------------


def factor_two_symmetric(m, seed: int = 0, max_draws: int = 64) -> TwoSymmetricFactors:
    """Write M = A B with A = A^T nonsingular and B = B^T.

    A standalone operation for any real square M; ``decompose`` does not use
    it, since its reduced block has closed-form factors. Solves the
    intertwining equation ``M^T T = T M`` over symmetric T (the kernel of a
    small linear system), then draws seeded random combinations of
    the kernel basis until T is nonsingular. A = T^{-1} and B = T M; B is
    symmetric because T intertwines M with its transpose. A nonsingular
    symmetric intertwiner exists for every real square M, so the draw loop
    fails only for pathological conditioning.
    """
    m = as_matrix(m, "M")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"M must be square, got {m.shape[0]}x{m.shape[1]}")
    n = m.shape[0]

    # M^T T - T M on the symmetric T = sum t_ij (E_ij + E_ji), i <= j, as a
    # linear map of the coefficients: the row-major vec of M^T E - E M is
    # (M^T (x) I - I (x) M^T) vec(E)
    rows, cols = np.triu_indices(n)
    k = np.kron(m.T, np.eye(n)) - np.kron(np.eye(n), m.T)
    op = k[:, rows * n + cols]
    off = rows != cols
    op[:, off] += k[:, (cols * n + rows)[off]]
    u, s, vt = np.linalg.svd(op)
    dim = rows.size
    if s.size:
        cutoff = s[0] * max(op.shape) * np.finfo(float).eps
        null_dim = int(np.sum(s <= cutoff)) + (dim - s.size)
    else:
        null_dim = dim
    if null_dim == 0:
        raise NoNonsingularFactor("intertwining equation has no symmetric solution")
    null_vecs = vt[dim - null_dim :, :]

    rng = np.random.default_rng(seed)
    best = None
    best_rc = -1.0
    for _ in range(max_draws):
        coeffs = rng.standard_normal(null_dim)
        t = np.zeros((n, n))
        t[rows, cols] = t[cols, rows] = coeffs @ null_vecs
        nt = frobenius(t)
        if nt == 0.0:
            continue
        t = t / nt
        rc = reciprocal_condition(t)
        if rc > best_rc:
            best, best_rc = t, rc
        if rc >= _FACTOR_RCOND_GOOD:
            break
    if best is None or best_rc < _FACTOR_RCOND_MIN:
        raise NoNonsingularFactor(
            f"no nonsingular symmetric intertwiner after {max_draws} draws "
            f"(best rcond {best_rc:.2e})"
        )
    t = best
    a = np.linalg.inv(t)
    a = (a + a.T) / 2
    b = t @ m
    b = (b + b.T) / 2
    residual = frobenius(a @ b - m) / max(frobenius(m), 1e-300)
    return TwoSymmetricFactors(a=a, b=b, residual=residual)


# ---------------------------------------------------------------------------
# re-basing stage 1 on a real eigenbasis of -M, where M is not in block form
# ---------------------------------------------------------------------------


def _real_jordan_basis(k: np.ndarray, clusters):
    """Real basis R and column signs e with R^{-1} K R in real block form.

    Diagonalizable K = -M only. Stage 1 built M's columns cluster by cluster
    in canonical order, so each of ``clusters`` owns a run of columns: one
    per real slot, two per complex pair. Each eigenvector of K goes to the
    run holding most of its mass (conjugates share one, as |conj(v)| = |v|)
    and takes its kind and position from it; nothing is classified here.
    Within a run, unit real eigenvectors come first with the sign +1, then
    per pair the raw (Re v, Im v) of its b > 0 member with the signs
    (+1, -1), which makes diag(e) R^{-1} K R symmetric; a snapped near-real
    pair keeps those columns in a real run. A run must receive as many
    columns as it is wide, a pair run no real eigenvalue. Where a run of
    several eigenvalues agrees to rounding (1e-11 of the spectral scale),
    ``eig`` may return any, possibly ill-conditioned, basis of one
    eigenspace, and the run takes an orthonormal basis of its span instead
    (a real run then takes the signs +1, a pair run keeps (+1, -1)).
    """
    try:
        w, v = np.linalg.eig(k)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(f"eigensolver failed: {exc}") from exc
    n = k.shape[0]

    # the runs of M's columns, one per cluster in canonical order
    starts, widths, pair_runs = [], [], []
    col = 0
    for inv, idx in clusters:
        starts.append(col)
        pair_runs.append(inv.kind == COMPLEX_PAIR)
        widths.append(len(idx) if pair_runs[-1] else len(idx) // 2)
        col += widths[-1]
    owners = np.add.reduceat(np.abs(v) ** 2, starts, axis=0).argmax(axis=0).tolist()

    # the bookkeeping runs over plain Python numbers, which cost a fraction
    # of numpy scalars; a pair is represented by its b > 0 member
    vals = w.tolist()
    reals = [[] for _ in starts]
    pairs = [[] for _ in starts]
    for j, lam in enumerate(vals):
        if lam.imag == 0:
            reals[owners[j]].append(j)
        elif lam.imag > 0:
            pairs[owners[j]].append(j)

    real_cols, real_pos, pair_cols, pair_pos = [], [], [], []
    for first, width, cplx, rs, ps in zip(starts, widths, pair_runs, reals, pairs):
        if len(rs) + 2 * len(ps) != width or (cplx and rs):
            raise DegenerateSpectrum(
                "invariant classification differs between Sigma(X) and the reduced block"
            )
        real_cols += rs
        real_pos += range(first, first + len(rs))
        pair_cols += ps
        pair_pos += range(first + len(rs), first + width, 2)

    r = np.empty((n, n))
    e = np.ones(n)
    if real_cols:
        vecs = _fix_phase(v[:, real_cols].real)
        r[:, real_pos] = vecs / np.sqrt(np.einsum("ij,ij->j", vecs, vecs))
    if pair_cols:
        vecs = _fix_phase(v[:, pair_cols])
        pos = np.array(pair_pos)
        r[:, pos] = vecs.real
        r[:, pos + 1] = vecs.imag
        e[pos + 1] = -1.0

    # eig may return any basis of the eigenspace of a repeated eigenvalue,
    # however ill-conditioned; take an orthonormal basis of its span. A run
    # whose eigenvalues differ by more than rounding keeps its eigenvectors,
    # which diagonalize K within the run.
    scale = spectral_scale(w)
    for first, width, cplx, rs, ps in zip(starts, widths, pair_runs, reals, pairs):
        lams = [vals[j] for j in rs + ps]
        if len(lams) == 1:
            continue
        if max(abs(a - b) for a in lams for b in lams) > _REPEAT_SPREAD * scale:
            continue
        run = r[:, first : first + width]  # a view
        basis = run[:, ::2] + 1j * run[:, 1::2] if cplx else run
        u, s, _ = np.linalg.svd(basis, full_matrices=False)
        if s[-1] < _JORDAN_RCOND_MIN * s[0]:
            raise DegenerateSpectrum("eigenvector basis is near-singular (defective input)")
        if cplx:  # pairs keep the (Re v, Im v) layout and the signs (+1, -1)
            run[:, ::2] = u.real
            run[:, 1::2] = u.imag
        else:
            run[:] = u
            e[first : first + width] = 1.0

    if reciprocal_condition(r) < _JORDAN_RCOND_MIN:
        raise DegenerateSpectrum("eigenvector basis is near-singular (defective input)")
    return r, e


# ---------------------------------------------------------------------------
# the full decomposition
# ---------------------------------------------------------------------------


def _recon_residual(x: np.ndarray, s1: np.ndarray, s2: np.ndarray, blocks) -> float:
    """||S1 X S2 - I (+) J|| / (||S1|| ||X|| ||S2||)."""
    recon = frobenius(s1 @ x @ s2 - blocks.assembled)
    return recon / max(frobenius(s1) * frobenius(x) * frobenius(s2), 1e-300)


def _finish(x: np.ndarray, s: np.ndarray, b: np.ndarray, e: np.ndarray, blocks) -> Decomposition:
    """S1 and S2 from a stage-1 similarity S whose reduced block Mb has e Mb = B.

    W = [[0, diag(e)], [sym(B), 0]], S2 = (S X)^{-1} W sigma and
    S1 = (e (+) e) S; the residuals are those ``verify_decomposition``
    recomputes.
    """
    n = e.shape[0]
    w_mat = np.zeros((2 * n, 2 * n))
    w_mat[:n, n:] = np.diag(e)
    w_mat[n:, :n] = (b + b.T) / 2
    try:
        s_prime = np.linalg.solve(s @ x, w_mat)
    except np.linalg.LinAlgError as exc:
        raise SingularInput(f"S X is singular: {exc}") from exc

    s1 = np.concatenate([e, e])[:, None] * s  # gl_embed(diag(e)) @ S
    s2 = s_prime @ readonly_form(n)
    return Decomposition(
        s1=s1,
        s2=s2,
        blocks=blocks,
        recon_residual=_recon_residual(x, s1, s2, blocks),
        s1_residual=symplectic_residual(s1),
        s2_residual=symplectic_residual(s2),
    )


def _meets_contract(d: Decomposition, tol: Tolerances) -> bool:
    """The residual contract: recon, s1 and s2 each within residual_tol."""
    return not (
        d.recon_residual > tol.residual_tol
        or d.s1_residual > tol.residual_tol
        or d.s2_residual > tol.residual_tol
    )


def decompose(
    x,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
    debug: bool = False,
) -> Decomposition:
    """Symplectic equivalence normal form S1 @ X @ S2 = I_n (+) J.

    Pipeline: one eigendecomposition of Sigma(X) serves the invariants and
    stage 1. Its eigenvalues give the invariant spectrum, the blocks of J,
    equal to ``invariants(x).values``; its eigenvectors block-diagonalize
    Sigma(X) symplectically to -(M (+) M^T), with M = -J to rounding in the
    canonical block order. Writing Mb for M, or for its re-based form below,
    Mb = A B in closed form with A = diag(e) and B = e Mb (e = +1 per real
    slot, (+1, -1) per complex pair); then W = [[0, A], [B, 0]],
    S2 = (S X)^{-1} W sigma and S1 = (A (+) A) S.

    The first attempt takes Mb = M as stage 1 leaves it. Only if that result
    misses the residual contract (stage 1 ill-conditioned, or a near-real
    or near-coincident spectrum, leaving off-block mass in M) is stage 1
    re-based by the GL embedding of a real eigenbasis R of -M, so that
    Mb = R^{-1} M R is in real block form, and the contract checked again;
    each eigenvector of -M takes its slot from the cluster run of stage 1
    that holds most of its mass.
    The construction is deterministic: ``seed`` and ``debug`` are accepted
    for compatibility and ignored. The returned factors are one valid
    choice; only the canonical matrix, the residuals, and symplecticity are
    contractual.

    Raises SingularInput for singular X, DegenerateSpectrum (or subclasses)
    when the spectrum is too degenerate or ill-conditioned for a trustworthy
    result, never returning a silently bad decomposition.
    """
    x = as_even_square(x, "X")
    if reciprocal_condition(x) < _X_RCOND_MIN:
        raise SingularInput("X is singular within tolerance (rcond < 1e-12)")

    # one eigendecomposition of Sigma(X) serves the invariants and stage 1
    sig_x = sigma_of_checked(x)
    try:
        w, v = np.linalg.eig(sig_x)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(f"eigensolver failed on Sigma(X): {exc}") from exc
    spectrum, clusters = spectrum_from_eigenvalues(w, tol)
    if spectrum.has_zero:
        raise SingularInput("zero invariant detected; canonical form requires nonsingular X")

    s, m = _block_diagonalize(sig_x, v, clusters, tol)
    blocks = canonical_from_invariants(spectrum)
    # stage 1 orders M's blocks as the spectrum orders J's: read M as it is
    e = np.array([sign for val in spectrum.values for sign in _SIGNS[val.kind]])
    d = _finish(x, s, e[:, None] * m, e, blocks)
    if _meets_contract(d, tol):
        return d

    r, e = _real_jordan_basis(-m, clusters)
    # S Sigma S^{-1} = -(Mb (+) Mb^T) after re-basing, even where M has off-block
    # mass; R^{-1} (+) R^T is the GL embedding of R, whose rcond is checked above
    s = block_diag(np.linalg.inv(r), r.T) @ s
    d = _finish(x, s, e[:, None] * np.linalg.solve(r, m @ r), e, blocks)
    if not _meets_contract(d, tol):
        raise DegenerateSpectrum(
            "decomposition failed its own residual contract "
            f"(recon {d.recon_residual:.3e}, s1 {d.s1_residual:.3e}, s2 {d.s2_residual:.3e})"
        )
    return d


def verify_decomposition(x, d: Decomposition, tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Recompute every residual of a decomposition from scratch.

    Nothing stored in ``d`` is trusted: the reconstruction residual, both
    symplecticity residuals and the distance between the block eigenvalues
    and the invariants of X are all evaluated anew.
    """
    x = as_even_square(x, "X")
    if d.s1.shape != x.shape or d.s2.shape != x.shape:
        raise DimensionError("decomposition factors do not match the input dimension")
    recon = _recon_residual(x, d.s1, d.s2, d.blocks)
    s1_res = is_symplectic(d.s1, tol).residual
    s2_res = is_symplectic(d.s2, tol).residual

    spectrum = invariants(x, tol)
    block_vals = d.blocks.eigenvalues()
    spectrum_vals = spectrum.as_multiset()
    if block_vals.shape != spectrum_vals.shape:
        match = float("inf")
    else:
        match = float(np.max(np.abs(block_vals - spectrum_vals))) / spectral_scale(spectrum_vals)

    verdict = (
        recon <= tol.residual_tol
        and s1_res <= tol.residual_tol
        and s2_res <= tol.residual_tol
        and match <= tol.degeneracy_gap
    )
    return VerificationReport(recon=recon, s1=s1_res, s2=s2_res, spectrum_match=match, verdict=verdict)


# ---------------------------------------------------------------------------
# the classical normal-mode decomposition
# ---------------------------------------------------------------------------


def williamson(x, tol: Tolerances = DEFAULT_TOL) -> WilliamsonResult:
    """Normal-mode decomposition S X S^T = diag(nu_1..nu_n, nu_1..nu_n).

    X must be symmetric positive definite; S is symplectic and the
    frequencies nu are returned in descending order together with the mode
    occupations (nu - 1) / 2.

    With Y = X^{-1/2} sigma X^{-1/2}, one Hermitian eigensolve of i Y gives
    the pairs +-kappa_k = +-1/nu_k. An eigenvector u of +kappa and its
    conjugate belong to distinct eigenvalues, so u^T u = 0 and sqrt(2) Re u,
    sqrt(2) Im u are orthonormal for every basis of a repeated frequency.

    scipy is imported here, on first use, and nowhere else in the package.
    """
    # Imported at call time so that ``import sympeq`` and every CLI command
    # but this one skip the cost of loading scipy.linalg. scipy's eigh rather
    # than numpy's keeps scipy.linalg loaded for the tracer of perfbench/spans.py.
    from scipy.linalg import eigh

    x = as_even_square(x, "X")
    xs = symmetric_part(x, "X must be symmetric for the normal-mode decomposition")
    n = xs.shape[0] // 2

    evals, evecs = np.linalg.eigh(xs)
    if evals[0] <= tol.psd_tol * max(1.0, frobenius(x)):
        raise NotPositiveDefinite(f"minimal eigenvalue {evals[0]:.3e} is not positive")
    inv_sqrt = (evecs * (evals**-0.5)) @ evecs.T

    sig = readonly_form(n)
    y = inv_sqrt @ sig @ inv_sqrt
    y = (y - y.T) / 2
    try:
        kappa, u = eigh(1j * y, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"Hermitian eigensolve failed: {exc}") from exc
    kappa, u = kappa[n:], u[:, n:]
    if kappa[0] <= tol.psd_tol:
        raise NotPositiveDefinite("degenerate frequency pair; X is not definite")

    nu = 1.0 / kappa
    q = np.sqrt(2.0) * np.concatenate([u.real, u.imag], axis=1)
    d_sqrt = np.sqrt(np.concatenate([nu, nu]))
    s = (d_sqrt[:, None] * q.T) @ inv_sqrt
    return WilliamsonResult(s=s, nu=nu, occupations=(nu - 1.0) / 2.0)


def williamson_invariant_gap(x, tol: Tolerances = DEFAULT_TOL) -> float:
    """Worst relative gap between sorted invariants and squared frequencies.

    For positive definite X the invariants equal nu_k**2; this evaluates both
    sides independently and reports max |lambda_k - nu_k^2| / scale.
    """
    res = williamson(x, tol)
    spectrum = invariants(x, tol)
    if any(v.kind != REAL for v in spectrum.values):
        raise NotPositiveDefinite("positive definite input must have real invariants")
    lam = np.asarray(sorted((v.re for v in spectrum.values), reverse=True))
    nu_sq = np.sort(res.nu**2)[::-1]
    if lam.shape != nu_sq.shape:
        return float("inf")
    return float(np.max(np.abs(lam - nu_sq))) / spectral_scale(lam)
