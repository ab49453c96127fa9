"""Canonical form of a nonsingular real matrix under symplectic equivalence.

The main entry point ``decompose`` produces symplectic S1, S2 with
``S1 @ X @ S2 = I_n (+) J`` where J is block diagonal: one scalar per real
invariant and one 2x2 rotation-scaling block [[a, b], [-b, a]] per complex
conjugate invariant pair. One eigendecomposition of the skew-Hamiltonian
Sigma(X) serves both the invariants (its eigenvalues) and stage 1 (its
eigenvectors). The construction has two stages:

1. symplectic block-diagonalization of Sigma(X) to -(M (+) M^T), exposed as
   ``block_diagonalize_skew_hamiltonian``;
2. a real eigenbasis R of -M, whose GL embedding re-bases stage 1 so that
   R^{-1} M R is in real block form; its symmetric factors then follow in
   closed form, with no search and no random draw.

The general factorization of a real matrix into two real symmetric factors
(``factor_two_symmetric``) remains a standalone operation.

The classical normal-mode decomposition of a positive definite matrix
(``williamson``) is included; its frequencies nu_k relate to the invariants
by lambda_k = nu_k**2. It is the only user of scipy (``scipy.linalg.schur``),
which it imports on first use, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
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
    NotSymmetric,
    SingularInput,
)
from .invariants import (
    COMPLEX_PAIR,
    REAL,
    Invariant,
    InvariantSpectrum,
    classify_doubled_spectrum,
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
_PAIRING_MIN = 1e-10


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


def _orthonormal_span(cols: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the column span; raises if the rank falls short."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size < dim or s[dim - 1] <= 1e-8 * s[0]:
        raise DegenerateSpectrum(
            "invariant subspace is rank deficient (defective or near-defective input)"
        )
    return _fix_phase(u[:, :dim])


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a contiguous 1-D vector: the same dot products and
    # square root, without the dispatch that dominates at these sizes
    if np.iscomplexobj(v):
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


def _symplectic_pairs(basis: np.ndarray, sig: np.ndarray):
    """Split an invariant subspace into pairs (u, w) with u^T sig w = -k.

    Gram-Schmidt with respect to the bilinear form u^T sig w; remaining
    vectors are projected onto the form-complement of each extracted pair.
    k = 1 for a real basis. A complex basis gets k = 2, which makes the real
    and imaginary parts of its pairs assemble into a symplectic basis.
    """
    k = 2.0 if np.iscomplexobj(basis) else 1.0
    cols = [basis[:, i].copy() for i in range(basis.shape[1])]
    pairs = []
    while cols:
        u = cols.pop(0)
        nu = _norm(u)
        if nu < 1e-10:
            raise DegenerateSpectrum("collapsed basis vector in symplectic pairing")
        u = u / nu
        if not cols:
            raise IsotropicEigenspace("odd leftover vector in symplectic pairing")
        # u @ sig @ c evaluates as (u @ sig) @ c, so the row is formed once
        us = u @ sig
        scores = [abs(us @ c) / max(_norm(c), 1e-300) for c in cols]
        j = max(range(len(scores)), key=scores.__getitem__)  # first maximum
        if scores[j] < _PAIRING_MIN:
            raise IsotropicEigenspace(
                "symplectic form degenerates on an invariant subspace"
            )
        w = cols.pop(j)
        w = w / (-(us @ w) / k)  # now u^T sig w = -k
        balance = math.sqrt(_norm(w))
        u, w = u * balance, w / balance
        us, ws = u @ sig, w @ sig
        for i, vec in enumerate(cols):
            vec = vec - ((ws @ vec) / k) * u + ((us @ vec) / k) * w
            nv = _norm(vec)
            if nv < 1e-10:
                raise DegenerateSpectrum("collapsed basis vector in symplectic pairing")
            cols[i] = vec / nv
        pairs.append((u, w))
    return pairs


def block_diagonalize_skew_hamiltonian(sigma_mat, tol: Tolerances = DEFAULT_TOL):
    """Symplectic similarity bringing a skew-Hamiltonian matrix to -(M (+) M^T).

    Returns ``(S, M)`` with S symplectic and ``S Sigma S^{-1} = -(M (+) M^T)``.
    The eigenspaces of distinct invariants are orthogonal with respect to the
    symplectic form, which is exploited to build the basis cluster by cluster.
    The clusters, and the canonical order they are processed in, come from
    ``classify_doubled_spectrum``; an ambiguous clustering raises
    DegenerateSpectrum. Within each invariant subspace a symplectic
    Gram-Schmidt produces vectors u, w with u^T sig w = -1; u-vectors fill the
    first-half columns of S^{-1} and w-vectors the second half. Complex
    conjugate clusters are handled through the real and imaginary parts of a
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
        clusters, _, _ = classify_doubled_spectrum(w, tol)
    except ClusteringAmbiguous as exc:
        raise DegenerateSpectrum(str(exc)) from exc
    return _block_diagonalize(sig_h, v, clusters, tol)


def _block_diagonalize(sig_h: np.ndarray, v: np.ndarray, clusters, tol: Tolerances):
    """Stage 1 from one eigendecomposition of the skew-Hamiltonian sig_h.

    ``v`` holds its eigenvectors and ``clusters`` the classification of its
    eigenvalues by ``classify_doubled_spectrum``.
    """
    n = sig_h.shape[0] // 2
    sig = readonly_form(n)
    u_cols: list[np.ndarray] = []
    w_cols: list[np.ndarray] = []
    for inv, idx in clusters:
        if inv.kind == REAL:
            raw = v[:, idx]
            real_stack = np.column_stack([raw.real, raw.imag]) if np.iscomplexobj(raw) else raw
            basis = _orthonormal_span(np.asarray(real_stack, dtype=float), len(idx))
            for u, wv in _symplectic_pairs(basis, sig):
                u_cols.append(u)
                w_cols.append(wv)
        else:
            basis = _orthonormal_span(v[:, idx].astype(complex), len(idx))
            for z, y in _symplectic_pairs(basis, sig):
                u_cols.append(z.real)
                u_cols.append(z.imag)
                w_cols.append(y.real)
                w_cols.append(-y.imag)

    t = np.column_stack(u_cols + w_cols)
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


def _sym_basis(n: int) -> list[np.ndarray]:
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            e[j, i] = 1.0
            basis.append(e)
    return basis


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

    basis = _sym_basis(n)
    op = np.column_stack([(m.T @ e - e @ m).reshape(-1) for e in basis])
    u, s, vt = np.linalg.svd(op)
    if s.size:
        cutoff = s[0] * max(op.shape) * np.finfo(float).eps
        null_dim = int(np.sum(s <= cutoff)) + (len(basis) - s.size)
    else:
        null_dim = len(basis)
    if null_dim == 0:
        raise NoNonsingularFactor("intertwining equation has no symmetric solution")
    null_vecs = vt[len(basis) - null_dim :, :]

    rng = np.random.default_rng(seed)
    best = None
    best_rc = -1.0
    for _ in range(max_draws):
        coeffs = rng.standard_normal(null_dim)
        t = sum(c * e for c, e in zip(coeffs @ null_vecs, basis))
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
# stage 2: real eigenbasis of M and the closed-form symmetric factors
# ---------------------------------------------------------------------------


def _real_jordan_basis(k: np.ndarray, spectrum: InvariantSpectrum, tol: Tolerances):
    """Real basis R, column signs e and slot kinds with R^{-1} K R in real block form.

    Diagonalizable K only: real eigenvalues contribute their (real)
    eigenvector, complex pairs the raw real and imaginary parts (Re v, Im v)
    of the b > 0 member's eigenvector. Those column pairs carry the signs
    (+1, -1), which makes diag(e) R^{-1} K R symmetric; a snapped near-real
    pair keeps its raw columns for that reason and fills two real slots.
    Slots follow the canonical order of ``spectrum``: each is ranked by the
    index of the nearest entry of its kind in ``spectrum.values``, so rounding
    cannot swap a real slot and a complex pair whose real parts tie.
    """
    try:
        w, v = np.linalg.eig(k)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(f"eigensolver failed: {exc}") from exc
    w = w.astype(complex)
    v = v.astype(complex)
    scale = spectral_scale(w)
    gap_abs = tol.degeneracy_gap * scale

    lams, kinds, real_idx, pair_idx = [], [], [], []  # per slot
    i = 0
    n = k.shape[0]
    while i < n:
        lam = w[i]
        if abs(lam.imag) > 0:
            # conjugate partner is adjacent for real input matrices
            if i + 1 >= n or abs(np.conj(lam) - w[i + 1]) > max(gap_abs, 1e-8 * scale):
                raise DegenerateSpectrum("conjugate eigenvalue pairing broken")
            lam_up = lam if lam.imag > 0 else np.conj(lam)
            lams.append(lam_up)
            kinds.append((REAL, REAL) if abs(lam_up.imag) <= gap_abs else (COMPLEX_PAIR,))
            pair_idx.append(i if lam.imag > 0 else i + 1)
            i += 2
        else:
            lams.append(lam)
            kinds.append((REAL,))
            real_idx.append(i)
            i += 1

    # columns per slot, in eigenvalue order: a unit real eigenvector, or the
    # raw (Re v, Im v) of a pair
    real_vecs = iter(_fix_phase(v[:, real_idx].real).T if real_idx else ())
    pair_vecs = iter(_fix_phase(v[:, pair_idx]).T if pair_idx else ())
    cols = []
    for kind in kinds:
        if kind == (REAL,):
            vec = next(real_vecs)
            nv = np.linalg.norm(vec)
            if nv < 1e-12:
                raise DegenerateSpectrum("vanishing eigenvector for a real eigenvalue")
            cols.append([vec / nv])
        else:
            vec = next(pair_vecs)
            cols.append([vec.real, vec.imag])

    # rank each slot by the index of the nearest entry of its kind in
    # spectrum.values (the first of equals; 0 when its kind is absent); hypot
    # gives the distances that abs() of each complex difference gives
    values = spectrum.values
    d = np.array([val.as_complex() for val in values])[None, :] - np.array(lams)[:, None]
    same = np.array([val.kind for val in values])[None, :] == np.array([kd[0] for kd in kinds])[:, None]
    ranks = np.argmin(np.where(same, np.hypot(d.real, d.imag), np.inf), axis=1)
    slots = [(kinds[j], cols[j]) for j in np.argsort(ranks, kind="stable")]
    r = np.column_stack([col for slot in slots for col in slot[1]])
    if reciprocal_condition(r) < _JORDAN_RCOND_MIN:
        raise DegenerateSpectrum("eigenvector basis is near-singular (defective input)")
    e = np.concatenate([[1.0] if len(slot[1]) == 1 else [1.0, -1.0] for slot in slots])
    return r, e, tuple(kind for slot in slots for kind in slot[0])


# ---------------------------------------------------------------------------
# the full decomposition
# ---------------------------------------------------------------------------


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
    Sigma(X) symplectically to -(M (+) M^T). Re-base that similarity by the
    GL embedding of a real eigenbasis R of -M, so that Mb = R^{-1} M R is in
    real block form, and factor Mb = A B in closed form with A = diag(e) and
    B = e Mb (e = +1 per real column, (+1, -1) per complex column pair).
    Then W = [[0, A], [B, 0]],
    S2 = (S X)^{-1} W sigma and S1 = (A (+) A) S. The construction is
    deterministic: ``seed`` and ``debug`` are accepted for compatibility and
    ignored. The returned factors are one valid choice; only the canonical
    matrix, the residuals, and symplecticity are contractual.

    Raises SingularInput for singular X, DegenerateSpectrum (or subclasses)
    when the spectrum is too degenerate or ill-conditioned for a trustworthy
    result, never returning a silently bad decomposition.
    """
    x = as_even_square(x, "X")
    n = x.shape[0] // 2
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
    r, e, kinds = _real_jordan_basis(-m, spectrum, tol)
    if kinds != tuple(v.kind for v in spectrum.values):
        raise DegenerateSpectrum(
            "invariant classification differs between Sigma(X) and the reduced block"
        )
    # S Sigma S^{-1} = -(Mb (+) Mb^T) after re-basing, even where M has off-block
    # mass; R^{-1} (+) R^T is the GL embedding of R, whose rcond is checked above
    s = block_diag(np.linalg.inv(r), r.T) @ s
    b = e[:, None] * np.linalg.solve(r, m @ r)

    w_mat = np.zeros((2 * n, 2 * n))
    w_mat[:n, n:] = np.diag(e)
    w_mat[n:, :n] = (b + b.T) / 2
    try:
        s_prime = np.linalg.solve(s @ x, w_mat)
    except np.linalg.LinAlgError as exc:
        raise SingularInput(f"S X is singular: {exc}") from exc

    s1 = np.concatenate([e, e])[:, None] * s  # gl_embed(diag(e)) @ S
    s2 = s_prime @ readonly_form(n)

    blocks = canonical_from_invariants(spectrum)
    recon = frobenius(s1 @ x @ s2 - blocks.assembled)
    recon /= max(frobenius(s1) * frobenius(x) * frobenius(s2), 1e-300)
    s1_res = symplectic_residual(s1)
    s2_res = symplectic_residual(s2)
    if recon > tol.residual_tol or s1_res > tol.residual_tol or s2_res > tol.residual_tol:
        raise DegenerateSpectrum(
            "decomposition failed its own residual contract "
            f"(recon {recon:.3e}, s1 {s1_res:.3e}, s2 {s2_res:.3e})"
        )
    return Decomposition(
        s1=s1,
        s2=s2,
        blocks=blocks,
        recon_residual=recon,
        s1_residual=s1_res,
        s2_residual=s2_res,
    )


def verify_decomposition(x, d: Decomposition, tol: Tolerances = DEFAULT_TOL) -> VerificationReport:
    """Recompute every residual of a decomposition from scratch.

    Nothing stored in ``d`` is trusted: the reconstruction residual, both
    symplecticity residuals and the distance between the block eigenvalues
    and the invariants of X are all evaluated anew.
    """
    x = as_even_square(x, "X")
    if d.s1.shape != x.shape or d.s2.shape != x.shape:
        raise DimensionError("decomposition factors do not match the input dimension")
    recon = frobenius(d.s1 @ x @ d.s2 - d.blocks.assembled)
    recon /= max(frobenius(d.s1) * frobenius(x) * frobenius(d.s2), 1e-300)
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

    scipy is imported here, on first use, and nowhere else in the package.
    """
    # Imported at call time so that ``import sympeq`` and every CLI command
    # but this one skip the cost of loading scipy.linalg.
    from scipy.linalg import schur

    x = as_even_square(x, "X")
    nrm = frobenius(x)
    if frobenius(x - x.T) > 1e-10 * max(nrm, 1e-300):
        raise NotSymmetric("X must be symmetric for the normal-mode decomposition")
    xs = (x + x.T) / 2
    n = xs.shape[0] // 2

    evals, evecs = np.linalg.eigh(xs)
    if evals[0] <= tol.psd_tol * max(1.0, nrm):
        raise NotPositiveDefinite(f"minimal eigenvalue {evals[0]:.3e} is not positive")
    inv_sqrt = (evecs * (evals**-0.5)) @ evecs.T

    sig = readonly_form(n)
    y = inv_sqrt @ sig @ inv_sqrt
    y = (y - y.T) / 2
    t, z = schur(y, output="real")

    p_cols, q_cols, kappa = [], [], []
    for i in range(n):
        r0, r1 = 2 * i, 2 * i + 1
        tt = (t[r0, r1] - t[r1, r0]) / 2
        if abs(tt) <= tol.psd_tol:
            raise NotPositiveDefinite("degenerate antisymmetric block; X is not definite")
        if tt < 0:
            p_cols.append(z[:, r0])
            q_cols.append(z[:, r1])
        else:
            p_cols.append(z[:, r1])
            q_cols.append(z[:, r0])
        kappa.append(abs(tt))

    nu = 1.0 / np.asarray(kappa)
    order = np.argsort(-nu)
    nu = nu[order]
    q = np.column_stack([p_cols[i] for i in order] + [q_cols[i] for i in order])
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
