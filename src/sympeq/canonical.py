"""Canonical form of a nonsingular real matrix under symplectic equivalence.

The main entry point ``decompose`` produces symplectic S1, S2 with
``S1 @ X @ S2 = I_n (+) J`` where J is block diagonal: one scalar per real
invariant and one 2x2 rotation-scaling block [[a, b], [-b, a]] per complex
conjugate invariant pair. One eigendecomposition of the skew-Hamiltonian
Sigma(X) serves both the invariants (its eigenvalues) and stage 1 (its
eigenvectors). The construction has two stages:

1. symplectic block-diagonalization of Sigma(X) to -(M (+) M^T)
   (``block_diagonalize_skew_hamiltonian``, a step of ``decompose`` and
   not part of the package's API). Every invariant is doubled, so a
   simple invariant's cluster is a 2-plane, on which the symplectic form
   is nondegenerate. The basis T comes from one table of stacks keyed by
   cluster size: the 2-planes, real and complex alike and all of a generic
   input's clusters, are one stack, paired in closed form straight from
   their eigenvectors, with no SVD; larger clusters (repeated invariants)
   are one stack per size and kind, with one batched SVD each. A real
   cluster of any size spans the real rows Re z + Im z of its
   eigenvectors z. A real invariant repeated three or more times is paired
   in closed form by one batched Hermitian eigensolve of i Q^T sigma Q, on
   the null space of Sigma - lambda I where eig's vectors of it are nearly
   dependent; other clusters run one symplectic Gram-Schmidt on all members
   of a stack at once. One scatter writes every stack's pairs into T's
   columns in the canonical order of the invariants, so M equals -J to
   rounding;
2. the symmetric factors of M in closed form, with no search and no random
   draw, read off M as stage 1 leaves it. Where off-block mass in M (near a
   real/complex or a clustering threshold, or where stage 1 is
   ill-conditioned) carries S2 off the symplectic group by more than the
   residual contract allows, one first-order step in closed form moves S2
   back onto it, and likewise S1 where an ill-conditioned stage-1 basis
   carries S1 off the group. The decomposition thus costs one full-size
   eigendecomposition in all.

A passive X (X sigma = sigma X, a number-preserving coupling) or an
anti-passive one (X sigma = -sigma X) is the real form of an n x n complex
matrix Z, and the orthogonal symplectic matrices are the real forms of the
unitaries. Such an X, recognised by an exact test, costs one complex SVD
Z = U diag(s) V^H instead of the eigendecomposition, stage 1 and both
inverses: its invariants are +-s^2, J is diagonal, and S1 and S2 are read
off U, s and V in closed form. Its factors then take the same steps onto
the group and face the same residual contract.

A 2 x 2 X that is neither passive nor anti-passive (one mode) needs no
eigendecomposition at all: X sigma X^T = det(X) sigma, so Sigma(X) = d I
with d = det X, the one invariant, real and exactly doubled. S1 = I and
S2 = X^{-1} diag(1, d) = [[x11 / d, -x01], [-x10 / d, x00]], whose
determinant is 1, so S1 X S2 = I_1 (+) d with no inverse and no stage 1.
The passive test runs first, so a passive 2 x 2 X keeps its complex SVD.

X and the stage-1 basis T must be invertible, judged by a 2-norm rcond
floor each. Both gates read ``core.gated_inverse``: the bound
rcond_2 >= 1 / (||A||_F ||A^{-1}||_F) from the inverse decides wherever it
clears the floor tenfold, and a singular-value decomposition only where it
does not, so an input that clears both bounds runs no full-size SVD. T's
inverse is stage 1's S, and X's inverse finishes S2 = X^{-1} T W sigma
(W from the closed-form factors), so X and T are factored once each. A
passive or anti-passive X is judged by s_min / s_max of its SVD instead,
which is rcond_2(X) exactly, and is not inverted; a one-mode X by its
exact rcond_2 in closed form, from det X and ||X||_F. Within ``decompose``
one numerical verdict judges the construction: the residual contract on
S1, S2 and the reconstruction.

The general factorization of a real matrix into two real symmetric factors
(``factor_two_symmetric``) remains a standalone operation.

The classical normal-mode decomposition of a positive definite matrix
(``williamson``) is included; its frequencies nu_k relate to the invariants
by lambda_k = nu_k**2. It runs one Hermitian eigensolve
(``scipy.linalg.eigh``), the package's only use of scipy, imported on first
use, so importing this module loads no scipy.
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
    frobenius,
    gated_inverse,
    is_symplectic,
    readonly_form,
    reciprocal_condition,
    symmetric_part,
    symplectic_residual,
)
from .errors import (
    DegenerateSpectrum,
    DimensionError,
    EigenFailure,
    IsotropicEigenspace,
    NoNonsingularFactor,
    NotPositiveDefinite,
    SingularInput,
)
from .invariants import (
    COMPLEX_PAIR,
    REAL,
    Invariant,
    InvariantSpectrum,
    invariant_multiset,
    invariants,
    one_mode_spectrum,
    passive_svd,
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
_MAX_DRAWS = 64  # seeded draws of a symmetric intertwiner before giving up
_JORDAN_RCOND_MIN = 1e-10
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
    assembled = np.zeros((2 * n, 2 * n))
    np.fill_diagonal(assembled[:n, :n], 1.0)
    pos = n  # J fills the lower right block, entry by entry
    for v in spectrum.values:
        if v.kind == REAL:
            assembled[pos, pos] = v.re
            pos += 1
        else:
            assembled[pos, pos] = assembled[pos + 1, pos + 1] = v.re
            assembled[pos, pos + 1], assembled[pos + 1, pos] = v.im, -v.im
            pos += 2
    if pos != 2 * n:
        raise DimensionError(f"blocks fill {pos - n} slots, expected {n}")
    return CanonicalBlocks(n=n, blocks=spectrum.values, assembled=assembled)


# ---------------------------------------------------------------------------
# stage 1: symplectic block-diagonalization of a skew-Hamiltonian matrix
# ---------------------------------------------------------------------------


def _orthonormal_spans(stack: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal bases of the spans of the rows of a (k, d, 2n) stack, as
    (k, dim, 2n) rows.

    One batched SVD of the (k, 2n, d) column stacks serves all k members;
    raises if any rank falls short.
    """
    u, s, _ = np.linalg.svd(stack.transpose(0, 2, 1), full_matrices=False)
    if any(sv[dim - 1] <= 1e-8 * sv[0] for sv in s.tolist()):
        raise DegenerateSpectrum(
            "invariant subspace is rank deficient (defective or near-defective input)"
        )
    return u[:, :, :dim].transpose(0, 2, 1)


def _null_spaces(sig_h: np.ndarray, shifts, d: int) -> np.ndarray:
    """Orthonormal bases of the null spaces of sig_h - lambda I, one per
    shift lambda, as (k, d, 2n) rows: the last d right singular vectors of
    one batched SVD.

    For a repeated invariant of a far from normal sig_h, eig may return
    nearly dependent vectors of an eigenspace of full dimension. The rank
    rule reads the d smallest singular values against 1e-8 ||sig_h||, not
    against the largest of sig_h - lambda I, which vanishes where the
    cluster fills the whole space; beyond it the input is defective.
    """
    shifted = sig_h - np.asarray(shifts)[:, None, None] * np.eye(sig_h.shape[0])
    _, sv, vt = np.linalg.svd(shifted)
    if not (sv[:, -d] <= 1e-8 * frobenius(sig_h)).all():  # nan refuses too
        raise DegenerateSpectrum(
            "invariant subspace is rank deficient (defective or near-defective input)"
        )
    return vt[:, -d:]


def _pair_scales(f: np.ndarray, c, score: np.ndarray, ratio=1.0):
    """The scales alpha, beta of the pairs u = alpha a, w = beta b of k
    vector pairs, for f = a^T sig b, the pairing score |f| / (|a| |b|) and
    ratio = |b| / |a| (1 for unit vectors, whose score is |f|), each a (k,)
    array. c is given per member, 1 for a real and 2 for a complex one, as
    a (k,) array or, for a stack of one kind, as one scalar.

    u^T sig w = -c and |u| = |w| give alpha^2 = c ratio / |f| and
    beta = -c / (f alpha). Below ``_PAIRING_MIN`` the score says the
    symplectic form degenerates on the span of a and b, and
    IsotropicEigenspace is raised.
    """
    if score.min() < _PAIRING_MIN:
        raise IsotropicEigenspace("symplectic form degenerates on an invariant subspace")
    alpha = np.sqrt(c * ratio / np.abs(f))
    return alpha, -c / (f * alpha)


def _symplectic_pairs(basis: np.ndarray, sig: np.ndarray):
    """Split each of k invariant subspaces, with orthonormal bases in the
    rows of a (k, d, 2n) stack, into pairs (u, w) with u^T sig w = -c.

    Gram-Schmidt with respect to the bilinear form u^T sig w, run on all k
    members at once: each step pairs the first remaining vector u with the
    first remaining v of largest |u^T sig v|, and projects the others onto
    the form-complement of the pair. Every vector entering a step has unit
    length (a basis vector, or renormalised after the projection), so the
    pairing score is |u^T sig v| itself, and ``_pair_scales`` judges it and
    scales the pair. c = 1 for a real basis. A complex basis gets c = 2,
    which makes the real and imaginary parts of its pairs assemble into a
    symplectic basis. Returns the u- and w-vectors as (k, d/2, 2n) stacks.

    Stage 1 runs it on clusters of four eigenvalues, real or complex, and on
    complex clusters of any size, for which a Hermitian eigensolve gives no
    basis that is symplectic for the complex bilinear form; real clusters
    of six or more take ``_eigh_pairs``.
    """
    c = 2.0 if np.iscomplexobj(basis) else 1.0
    k, d, dim = basis.shape
    us = np.empty((k, d // 2, dim), dtype=basis.dtype)
    ws = np.empty_like(us)
    for step in range(d):
        u, rest = basis[:, 0], basis[:, 1:]
        form = (rest @ (u @ sig)[:, :, None])[:, :, 0]  # u^T sig v for every v
        if rest.shape[1] == 1:  # the only candidate; basic indexing is cheaper
            f, v = form[:, 0], rest[:, 0]
        else:
            members, j = np.arange(k), np.abs(form).argmax(axis=1)  # first maximum
            f, v = form[members, j], rest[members, j]
        alpha, beta = _pair_scales(f, c, np.abs(f))
        us[:, step], ws[:, step] = u * alpha[:, None], v * beta[:, None]
        if rest.shape[1] == 1:
            break
        keep = np.ones(form.shape, dtype=bool)
        keep[members, j] = False
        basis = rest[keep].reshape(k, -1, dim)
        u, w = us[:, step, :, None], ws[:, step, :, None]
        # v - (w^T sig v / c) u + (u^T sig v / c) w, renormalised; each
        # v^T sig x = -x^T sig v
        along_u, along_w = basis @ (sig @ w / c), basis @ (sig @ u / c)
        basis = basis + along_u * u.transpose(0, 2, 1) - along_w * w.transpose(0, 2, 1)
        nv = np.linalg.norm(basis, axis=2)
        if nv.min() < 1e-10:
            raise DegenerateSpectrum("collapsed basis vector in symplectic pairing")
        basis = basis / nv[:, :, None]
    return us, ws


def _eigh_pairs(basis: np.ndarray, sig: np.ndarray):
    """Split each of k real orthonormal bases Q, the rows of a (k, d, 2n)
    stack, into pairs (u, w) with u^T sig w = -1, from one batched Hermitian
    eigensolve.

    F = Q^T sig Q is real skew, so i F is Hermitian with eigenvalues
    +-kappa. An eigenvector y of kappa > 0 and its conjugate belong to
    distinct eigenvalues, so y_i^T y_j = 0 and the vectors sqrt(2) Re y_i,
    sqrt(2) Im y_i are orthonormal (as in ``williamson``). Since
    F Re y = kappa Im y, u = Q sqrt(2 / kappa) Re y and
    w = Q sqrt(2 / kappa) Im y give u_i^T sig w_j = -delta_ij, with the u's
    and the w's isotropic. The least kappa is the pairing score; below
    ``_PAIRING_MIN`` the symplectic form degenerates on the subspace and
    IsotropicEigenspace is raised. Returns the u- and w-vectors as
    (k, d/2, 2n) stacks. Q spans the cluster's eigenvectors
    (``_orthonormal_spans``) or, where those are nearly dependent, the null
    space of sig_h - lambda I (``_null_spaces``).
    """
    d = basis.shape[1]
    try:
        kappa, y = np.linalg.eigh(1j * (basis @ sig @ basis.transpose(0, 2, 1)))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"Hermitian eigensolve failed: {exc}") from exc
    kappa, y = kappa[:, d // 2 :], y[:, :, d // 2 :]  # ascending: the d/2 kappa > 0
    if kappa.min() < _PAIRING_MIN:
        raise IsotropicEigenspace(
            "symplectic form degenerates on an invariant subspace"
        )
    y = (y * np.sqrt(2.0 / kappa)[:, None, :]).transpose(0, 2, 1)
    return y.real @ basis, y.imag @ basis


def _plane_pairs(planes: np.ndarray, sig: np.ndarray, c):
    """The pairs (u, w) with u^T sig w = -c of k 2-planes, plane i spanned
    by the rows a_i, b_i of a (k, 2, 2n) stack, in closed form with no SVD.
    c is given per member, 1 for a real and 2 for a complex one, as a (k,)
    array or, for a stack of one kind, as one scalar.

    Gram-Schmidt under the Hermitian product replaces b by
    b' = b - proj_a b. The rank rule s2 <= 1e-8 s1 of ``_orthonormal_spans``
    reads the singular values of the original (a, b) off its 2x2 Gram
    matrix: s1^2 s2^2 = |a|^2 |b'|^2 and s1^2 + s2^2 = |a|^2 + |b|^2. With
    q = (s2 / s1)^2 <= 1 their quotient s1^2 s2^2 / (s1^2 + s2^2)^2 =
    q / (1 + q)^2 grows with q, so the rule refuses where it is at most
    1e-16 / (1 + 1e-16)^2, which rounds to 1e-16. |b'| is summed from the
    projected vector itself, since |b|^2 - |a^H b|^2 / |a|^2 cancels to
    rounding exactly where the rule decides.

    The pair needs no normalised vectors: f = a^T sig b' = a^T sig b, since
    a^T sig a = 0, so f is read off the rows as given, and ``_pair_scales``
    judges the pairing score |f| / (|a| |b'|) and scales the pair
    u = alpha a, w = beta b'. Returns u and w as two (k, 2n) stacks.
    """
    a, b = planes[:, 0], planes[:, 1]
    gram = planes.conj() @ planes.transpose(0, 2, 1)
    aa, bb = gram[:, 0, 0].real, gram[:, 1, 1].real
    f = np.add.reduce(a @ sig * b, axis=1)
    b = b - (gram[:, 0, 1] / aa)[:, None] * a
    rr = np.add.reduce(b.conj() * b, axis=1).real
    if not (aa * rr > 1e-16 * (aa + bb) ** 2).all():  # nan refuses too
        raise DegenerateSpectrum(
            "invariant subspace is rank deficient (defective or near-defective input)"
        )
    ratio = np.sqrt(rr / aa)  # |b'| / |a|
    alpha, beta = _pair_scales(f, c, np.abs(f) / (aa * ratio), ratio)
    return a * alpha[:, None], b * beta[:, None]


def block_diagonalize_skew_hamiltonian(sig_h: np.ndarray, v: np.ndarray, clusters):
    """Stage 1 of ``decompose``: a symplectic similarity S bringing the
    skew-Hamiltonian sig_h to -(M (+) M^T), from one eigendecomposition.

    ``v`` holds its eigenvectors and ``clusters`` the classification of its
    eigenvalues by ``spectrum_from_eigenvalues``. Returns S, M off the
    diagonal blocks of S sig_h T, and the basis T, which ``gated_inverse``
    refuses below rcond 1e-10 while it computes S = T^{-1}. Off-block mass
    is left to the caller to judge. The eigenspaces of distinct invariants
    are orthogonal with respect to the symplectic form, so each cluster's
    basis is built on its own eigenspace: its u-vectors fill first-half
    columns of T and its w-vectors, with u^T sig w = -c, the same columns
    n further on. A complex cluster's pairs (z, y), with c = 2, give the
    columns Re z, Im z and Re y, -Im y; a real cluster's, with c = 1, one
    column each.

    The clusters form one table of stacks: the 2-planes of both kinds in
    one, larger clusters in one per size and kind. Each stack runs in one
    batch, and one scatter writes Re u, Im u, Re w and -Im w of every
    stack's pairs into T's columns (a stack in float64 has no Im parts). A
    real cluster spans the real rows Re z + Im z of its eigenvectors z: the
    real vectors themselves, or Re z + Im z and Re z - Im z of a snapped
    pair z, z-bar, which span the same real space as Re z and Im z, with
    the same ratios of singular values, which the rank rule reads. The
    2-planes are paired in closed form straight from their eigenvector rows
    by ``_plane_pairs``, in complex128 only where a complex cluster is
    among them, with c per member. Larger clusters take their bases from
    the batched SVD of ``_orthonormal_spans``, under the same rank rule.
    Real clusters of six or more eigenvalues take their pairs from
    ``_eigh_pairs``; clusters of four, real or complex, and larger complex
    clusters from the Gram-Schmidt of ``_symplectic_pairs``.

    Where eig's vectors of a stack of real clusters of six or more fail the
    rank rule, that stack takes its bases from ``_null_spaces`` of sig_h
    less each cluster's mean instead. Only there: on a cluster that merges
    nearly equal invariants the smallest singular vectors of
    sig_h - lambda I span no invariant subspace, so taking them on every
    such cluster would refuse merged inputs that the eigenvectors' span
    passes. Clusters of four keep Gram-Schmidt: where one merges two nearly
    equal invariants, the reconstruction residual measures the merge and
    moves with the choice of basis, and the eigensolve's basis moves
    verdicts there. On an exactly repeated invariant any symplectic basis
    gives the same M.
    """
    n = sig_h.shape[0] // 2
    sig = readonly_form(n)
    # The table: every 2-plane under the key 2, larger clusters under their
    # size and kind. An entry holds its stack's eigenvector columns of v, and
    # per cluster its c, and per pair the columns of T that take Re u and
    # Im u. A real cluster owns d/2 columns from its offset in canonical
    # order, and its pairs' Im parts, zero, go to the spare row 2n of T^T; a
    # complex cluster owns d, Re u and Im u of each pair side by side. Re w
    # and -Im w take the columns n further on (or the spare row 3n); the spare
    # rows are dropped.
    table: dict = {}
    spare, offset = 2 * n, 0
    for inv, idx in clusters:
        d, real = len(idx), inv.kind == REAL
        key = d if d == 2 else (d, real)
        members, c, re_u, im_u = table.get(key) or table.setdefault(key, ([], [], [], []))
        members += idx
        c.append(1.0 if real else 2.0)
        re_u.append(offset)
        im_u.append(spare if real else offset + 1)
        if d > 2:  # the later pairs follow the first, c columns apart
            re_u += range(offset + 1, offset + d // 2) if real else range(offset + 2, offset + d, 2)
            im_u += [spare] * (d // 2 - 1) if real else range(offset + 3, offset + d, 2)
        offset += d // 2 if real else d

    pieces, order = [], []
    for members, c, re_u, im_u in table.values():
        d = len(members) // len(c)
        z = v.T[members].reshape(-1, d, 2 * n)
        has_real, has_complex = 1.0 in c, 2.0 in c
        c = np.array(c) if has_real and has_complex else c[0]  # a scalar for one kind
        if has_real and np.iscomplexobj(z):
            # a real cluster spans the real rows Re z + Im z
            real_rows = z.real + z.imag
            z = np.where((c == 1.0)[:, None, None], real_rows, z) if has_complex else real_rows
        if d == 2:
            u, w = _plane_pairs(z, sig, c)
        else:
            if d == 4 or has_complex:
                u, w = _symplectic_pairs(_orthonormal_spans(z, d), sig)
            else:
                try:
                    basis = _orthonormal_spans(z, d)
                except DegenerateSpectrum:
                    shifts = [inv.re for inv, idx in clusters if inv.kind == REAL and len(idx) == d]
                    basis = _null_spaces(sig_h, shifts, d)
                u, w = _eigh_pairs(basis, sig)
            u, w = u.reshape(-1, 2 * n), w.reshape(-1, 2 * n)
        if np.iscomplexobj(u):
            pieces += [u.real, u.imag, w.real, -w.imag]
            cols = re_u + im_u
        else:
            pieces += [u, w]
            cols = re_u
        order += cols + [col + n for col in cols]
    t_rows = np.empty((3 * n + 1, 2 * n))  # the columns of T, and the spare rows
    t_rows[order] = np.concatenate(pieces)
    t = t_rows[:spare].T
    s = gated_inverse(t, _JORDAN_RCOND_MIN)[0]
    if s is None:
        raise DegenerateSpectrum("symplectic eigenbasis is numerically singular")
    similar = s @ sig_h @ t
    return s, -(similar[:n, :n] + similar[n:, n:].T) / 2, t


# ---------------------------------------------------------------------------
# factorization of a general real matrix into two real symmetric matrices
# ---------------------------------------------------------------------------


def factor_two_symmetric(m, seed: int = 0) -> TwoSymmetricFactors:
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
    for _ in range(_MAX_DRAWS):
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
            f"no nonsingular symmetric intertwiner after {_MAX_DRAWS} draws "
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
# the full decomposition
# ---------------------------------------------------------------------------


def _recon_residual(x: np.ndarray, s1: np.ndarray, s2: np.ndarray, blocks) -> float:
    """||S1 X S2 - I (+) J|| / (||S1|| ||X|| ||S2||)."""
    recon = frobenius(s1 @ x @ s2 - blocks.assembled)
    return recon / max(frobenius(s1) * frobenius(x) * frobenius(s2), 1e-300)


def _decomposition(x: np.ndarray, s1: np.ndarray, s2: np.ndarray, blocks, tol: Tolerances) -> Decomposition:
    """The decomposition (S1, S2) of either route, judged by the residual
    contract, with the residuals ``verify_decomposition`` recomputes.

    Off-block mass in M (stage 1 ill-conditioned, or a near-real or
    near-coincident spectrum) carries S2 off the symplectic group. Only
    where its residual E = S2 sigma S2^T - sigma exceeds the contract, S2 is
    replaced by (I + E sigma / 2) S2, which is symplectic to O(||E||^2). An
    ill-conditioned stage-1 basis T can likewise carry S1 = (e (+) e) T^{-1}
    off the group; only where S1's residual exceeds the contract, S1 takes
    the same step. The reconstruction is then read once, off the factors
    returned, and the residual contract is checked: it is the one numerical
    verdict on the construction, since stage 1 judges no residual of its own.
    """
    s2_res = symplectic_residual(s2)
    if s2_res > tol.residual_tol:
        s2 = _symplectic_step(s2)
        s2_res = symplectic_residual(s2)
    s1_res = symplectic_residual(s1)
    if s1_res > tol.residual_tol:
        s1 = _symplectic_step(s1)
        s1_res = symplectic_residual(s1)
    recon = _recon_residual(x, s1, s2, blocks)
    if not _meets_contract(recon, s1_res, s2_res, tol):
        raise DegenerateSpectrum(
            "decomposition failed its own residual contract "
            f"(recon {recon:.3e}, s1 {s1_res:.3e}, s2 {s2_res:.3e})"
        )
    return Decomposition(
        s1=s1, s2=s2, blocks=blocks, recon_residual=recon, s1_residual=s1_res, s2_residual=s2_res
    )


def _finish(x_inv: np.ndarray, s: np.ndarray, t: np.ndarray, m: np.ndarray, e: np.ndarray):
    """S1 and S2 from X^{-1}, stage 1's similarity S = T^{-1} and reduced block M.

    With B = e M and W = [[0, diag(e)], [sym(B), 0]], S2 = (S X)^{-1} W sigma
    = X^{-1} T W sigma, and S1 = (e (+) e) S. X^{-1} is the inverse the X
    gate computed, so X is factored once. W sigma = diag(e) (+) -sym(B), so
    T W sigma takes one n-column product.
    """
    n = e.shape[0]
    b = e[:, None] * m
    t_w = np.empty_like(t)  # T W sigma
    t_w[:, :n] = t[:, :n] * e
    t_w[:, n:] = t[:, n:] @ (-(b + b.T) / 2)

    s1 = np.concatenate([e, e])[:, None] * s  # gl_embed(diag(e)) @ S
    return s1, x_inv @ t_w


def _passive_finish(sign: float, u: np.ndarray, sv: np.ndarray, vh: np.ndarray):
    """S1 and S2 of a passive (sign +1) or anti-passive (sign -1) X from the
    SVD Z = U diag(s) V^H of ``passive_svd``.

    With R(Z) = [[Re Z, Im Z], [-Im Z, Re Z]], X = R(Z) for sign +1 and
    X = R(Z) F for sign -1, F = diag(I, -I). S1 = R(U^H), and
    S2 = R(V) D or F R(V) F D = R(conj V) D with D = diag(1/s, s), so that
    R(U^H) X R(V) (or F R(V) F) = diag(s, sign s) and
    S1 X S2 = I (+) diag(sign s^2): both symplectic, with no inverse.
    D scales S2's columns, as the general path's X^{-1} T W sigma does: in
    S2 sigma S2^T = R (D sigma D) R^T the scales cancel pairwise, whereas
    diag(1/s, s) R(U^H) as S1 would carry R's rounding into S1's residual
    times s_max^2 or 1/s_min^2.
    """
    n = sv.shape[0]
    ur, ui = u.real.T, u.imag.T  # R(U^H) = [[ur, -ui], [ui, ur]]
    s1 = np.empty((2 * n, 2 * n))
    s1[:n, :n] = s1[n:, n:] = ur
    s1[:n, n:], s1[n:, :n] = -ui, ui
    vr, vi = vh.real.T, -sign * vh.imag.T  # Re and Im of V, or of conj V
    s2 = np.empty((2 * n, 2 * n))
    s2[:n, :n] = s2[n:, n:] = vr
    s2[:n, n:], s2[n:, :n] = vi, -vi
    s2[:, :n] /= sv
    s2[:, n:] *= sv
    return s1, s2


def _one_mode_rcond(x: np.ndarray) -> float:
    """rcond_2 of a 2 x 2 X, exactly, with no SVD and no inverse.

    s_min s_max = |d| and s_min^2 + s_max^2 = f for d = det X and
    f = ||X||_F^2, so s_max^2 = (f + sqrt(f^2 - 4 d^2)) / 2 and
    s_min / s_max = |d| / s_max^2. d and f are read off X / max|x|, where
    neither overflows nor underflows short of rcond itself doing so: an
    unscaled X of Gaussian entries at scale 1e100 has d = inf.
    """
    (a, b), (c, e) = x.tolist()
    m = max(abs(a), abs(b), abs(c), abs(e))
    if m == 0.0:
        return 0.0
    a, b, c, e = a / m, b / m, c / m, e / m
    d, f = abs(a * e - b * c), a * a + b * b + c * c + e * e
    # f^2 - 4 d^2 >= 0, as a product that keeps its precision where it is
    # small; rounding may leave f - 2d a little below 0
    return 2.0 * d / (f + math.sqrt(max(f - 2.0 * d, 0.0) * (f + 2.0 * d)))


def _symplectic_step(s: np.ndarray) -> np.ndarray:
    """One first-order step of S back onto the symplectic group.

    With E = S sigma S^T - sigma, returns (I + F) S for F = E sigma / 2.
    Since F sigma + sigma F^T = -E, its residual is O(||E||^2).
    """
    sig = readonly_form(s.shape[0] // 2)
    e = s @ sig @ s.T - sig
    return s + (e @ sig / 2) @ s


def _refuse_zero_invariant(spectrum: InvariantSpectrum, scale: float, tol: Tolerances) -> None:
    """Raise SingularInput where the spectrum has an invariant at zero.

    ``scale`` is the spectral scale the spectrum was clustered against.
    """
    if spectrum.has_zero:
        smallest = min(abs(val.as_complex()) for val in spectrum.values) / scale
        raise SingularInput(
            f"zero invariant detected: smallest |invariant| {smallest:.3e} of the spectral "
            f"scale, within degeneracy_gap {tol.degeneracy_gap:g}"
        )


def _meets_contract(recon: float, s1: float, s2: float, tol: Tolerances) -> bool:
    """The residual contract: recon, s1 and s2 each within residual_tol.

    A nan residual (from a non-finite factor) fails it.
    """
    return recon <= tol.residual_tol and s1 <= tol.residual_tol and s2 <= tol.residual_tol


def decompose(x, tol: Tolerances = DEFAULT_TOL) -> Decomposition:
    """Symplectic equivalence normal form S1 @ X @ S2 = I_n (+) J.

    Pipeline: one eigendecomposition of Sigma(X) serves the invariants and
    stage 1. Its eigenvalues give the invariant spectrum, the blocks of J,
    equal to ``invariants(x).values``; its eigenvectors block-diagonalize
    Sigma(X) symplectically to -(M (+) M^T), with M = -J to rounding in the
    canonical block order. M = A B in closed form with A = diag(e) and
    B = e M (e = +1 per real slot, (+1, -1) per complex pair); then
    W = [[0, A], [B, 0]], S2 = (S X)^{-1} W sigma = X^{-1} T W sigma with
    T = S^{-1} stage 1's basis, and S1 = (A (+) A) S. X^{-1} is the inverse
    the X gate computes, so no system in S X is solved.

    A passive X (X sigma = sigma X) or an anti-passive one
    (X sigma = -sigma X), recognised exactly by ``passive_svd``, takes one
    n x n complex SVD Z = U diag(s) V^H in place of the eigendecomposition,
    stage 1 and both inverses: the invariants are sign s^2, J is diagonal,
    and S1 = R(U^H), S2 = R(V) diag(1/s, s) or F R(V) F diag(1/s, s) in
    closed form (``_passive_finish``).

    Any other 2 x 2 X (one mode) has Sigma(X) = det(X) I: its one invariant
    is d = det X, J = d, S1 = I and S2 = [[x11 / d, -x01], [-x10 / d, x00]],
    with no eigendecomposition, inverse or stage 1
    (``_one_mode_decomposition``).

    All routes end alike (``_decomposition``): a factor off the symplectic
    group by more than the residual contract allows takes one first-order
    step back onto it, and the residual contract, the one numerical verdict
    on the construction, is checked on the factors returned. The
    construction is deterministic. The returned factors are one valid
    choice; only the canonical matrix, the residuals, and symplecticity are
    contractual.

    X is refused as singular where rcond_2(X) < 1e-12. The gate reads the
    bound 1 / (||X||_F ||X^{-1}||_F) and computes the singular values of X
    only where that bound does not clear the floor tenfold; the verdict is
    the one the singular values give. For a passive or anti-passive X it
    reads s_min / s_max, which is rcond_2(X) exactly, and for a one-mode X
    the exact rcond_2 from det X and ||X||_F (``_one_mode_rcond``).

    Raises SingularInput for singular X, DegenerateSpectrum (or subclasses)
    when the spectrum is too degenerate or ill-conditioned for a trustworthy
    result, never returning a silently bad decomposition.
    """
    x = as_even_square(x, "X")
    passive = passive_svd(x)
    if passive is None and x.shape[0] == 2:
        return _one_mode_decomposition(x, tol)
    if passive is None:
        x_inv = gated_inverse(x, _X_RCOND_MIN)[0]
        singular = x_inv is None
    else:
        w, sign, u, sv, vh = passive
        lo, hi = sorted((sv[0], sv[-1]))  # X's singular values are Z's, each twice
        singular = not (hi > 0.0 and lo / hi >= _X_RCOND_MIN)
    if singular:
        raise SingularInput("X is singular within tolerance (rcond < 1e-12)")

    if passive is None:
        # one eigendecomposition of Sigma(X) serves the invariants and stage 1
        sig_x = sigma_of_checked(x)
        try:
            w, v = np.linalg.eig(sig_x)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigenFailure(f"eigensolver failed on Sigma(X): {exc}") from exc
    spectrum, clusters = spectrum_from_eigenvalues(w, tol)
    _refuse_zero_invariant(spectrum, spectral_scale(w), tol)

    if passive is None:
        s, m, t = block_diagonalize_skew_hamiltonian(sig_x, v, clusters)
        blocks = canonical_from_invariants(spectrum)
        # stage 1 orders M's blocks as the spectrum orders J's: read M as it is
        e = np.array([e_k for val in spectrum.values for e_k in _SIGNS[val.kind]])
        s1, s2 = _finish(x_inv, s, t, m, e)
    else:
        # the columns of the SVD follow the canonical order of sign s^2
        blocks = canonical_from_invariants(spectrum)
        s1, s2 = _passive_finish(sign, u, sv, vh)
    return _decomposition(x, s1, s2, blocks, tol)


def _one_mode_decomposition(x: np.ndarray, tol: Tolerances) -> Decomposition:
    """``decompose`` of a 2 x 2 X that is neither passive nor anti-passive.

    Sigma(X) = d I with d = det X (``one_mode_spectrum``), so J = d and
    S1 = I, S2 = X^{-1} diag(1, d) = [[x11 / d, -x01], [-x10 / d, x00]]:
    det S2 = 1, so S2 is symplectic, and X S2 = diag(1, d). Only the
    entries of the first column are divided by d, so S2 overflows only
    where X^{-1} itself would. The X gate reads the exact rcond_2
    (``_one_mode_rcond``), which reads X / max|x|, so a well-conditioned X
    of entries near 1e-170 passes it while d underflows to 0; such an X is
    refused as having a zero invariant, as on the general route. No
    inverse, eigensolve or stage 1 runs; the residual contract judges the
    result as on the other routes. Past the gate, S2's symplectic residual
    carries rounding of order eps / rcond_2(X), as the general route's
    does, so the contract may still refuse an X close to the gate.
    """
    if not _one_mode_rcond(x) >= _X_RCOND_MIN:
        raise SingularInput("X is singular within tolerance (rcond < 1e-12)")
    spectrum = one_mode_spectrum(x)
    d = spectrum.values[0].re
    _refuse_zero_invariant(spectrum, abs(d) or 1.0, tol)
    (a, b), (c, e) = x.tolist()
    s2 = np.array([[e / d, -b], [-c / d, a]])
    return _decomposition(x, np.eye(2), s2, canonical_from_invariants(spectrum), tol)


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

    verdict = _meets_contract(recon, s1_res, s2_res, tol) and match <= tol.degeneracy_gap
    return VerificationReport(recon=recon, s1=s1_res, s2=s2_res, spectrum_match=match, verdict=verdict)


# ---------------------------------------------------------------------------
# the classical normal-mode decomposition
# ---------------------------------------------------------------------------


def williamson(x, tol: Tolerances = DEFAULT_TOL) -> WilliamsonResult:
    """Normal-mode decomposition S X S^T = diag(nu_1..nu_n, nu_1..nu_n).

    X must be symmetric positive definite; S is symplectic and the
    frequencies nu are returned in descending order together with the mode
    occupations (nu - 1) / 2. Definiteness is judged relative to the scale of
    X (least eigenvalue above psd_tol ||X||), so nu(cX) = c nu(X) for c > 0.

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
    sig = readonly_form(n)

    evals, evecs = np.linalg.eigh(xs)
    if evals[0] <= tol.psd_tol * frobenius(x):
        raise NotPositiveDefinite(f"minimal eigenvalue {evals[0]:.3e} is not positive")
    inv_sqrt = (evecs * (evals**-0.5)) @ evecs.T

    y = inv_sqrt @ sig @ inv_sqrt
    y = (y - y.T) / 2
    try:
        kappa, u = eigh(1j * y, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"Hermitian eigensolve failed: {exc}") from exc
    kappa, u = kappa[n:], u[:, n:]

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
    return float(np.max(np.abs(lam - nu_sq))) / spectral_scale(lam)
