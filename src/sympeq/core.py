"""Dense real matrices, the symplectic form, and symplectic-group helpers.

Conventions fixed once here and inherited by every other module:

* phase-space coordinates are ordered block-wise as (P_1..P_n, Q_1..Q_n);
* the symplectic form on n modes is ``sigma = [[0, -I_n], [I_n, 0]]``;
* the Frobenius norm is the canonical residual norm;
* covariance matrices transform as ``G -> S G S^T``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, InvalidInput, NotSymmetric, SingularInput

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SymplecticCheck",
    "as_matrix",
    "as_even_square",
    "frobenius",
    "reciprocal_condition",
    "symplectic_form",
    "is_symplectic",
    "gl_embed",
    "direct_sum",
    "mode_direct_sum",
    "random_symplectic",
    "hermitian_min_eig",
]

# Invertibility cutoff for GL(n) embeddings; exact invertibility is assumed
# upstream, numerics need a hard floor.
_GL_RCOND_MIN = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by all operations.

    residual_tol bounds Frobenius residuals of reconstructions and
    symplecticity checks, degeneracy_gap is the relative clustering gap for
    doubled spectra, psd_tol the slack for positive-semidefiniteness verdicts.
    """

    residual_tol: float = 1e-8
    degeneracy_gap: float = 1e-6
    psd_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")

    def as_dict(self) -> dict:
        return dict(vars(self))


DEFAULT_TOL = Tolerances()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return m


def as_even_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a nonempty square float matrix of even dimension."""
    m = as_matrix(a, name)
    rows, cols = m.shape
    if rows != cols:
        raise DimensionError(f"{name} must be square, got {rows}x{cols}")
    if rows % 2 != 0 or rows == 0:
        raise DimensionError(f"{name} must have positive even dimension, got {rows}")
    return m


def frobenius(a) -> float:
    """Frobenius norm of a real array; rescaled by max|a| where the sum of
    squares overflows or underflows.

    The norm is the square root of the flattened array dotted with itself,
    which is what ``np.linalg.norm`` computes, bit for bit. When that
    overflows although every entry is finite, or falls below 2^-485 (about
    1e-146), the norm is recomputed as m * ||a / m|| with m = max|a|,
    unless every entry is 0 (an exact zero residual, the common case).
    """
    flat = np.asarray(a, dtype=float).ravel(order="K")
    nrm = math.sqrt(flat.dot(flat))
    # from 2^-485 up the sum of squares is at least float_min / eps = 2^-970,
    # so squares lost to underflow move it by less than its rounding
    if not 2.0**-485 <= nrm < math.inf and flat.any():
        m = float(np.abs(flat).max())
        if m < math.inf:
            flat = flat / m
            nrm = m * math.sqrt(flat.dot(flat))
    return nrm


def symmetric_part(a: np.ndarray, message: str) -> np.ndarray:
    """(A + A^T) / 2 of a matrix symmetric to within 1e-10 of its norm.

    Raises NotSymmetric with ``message`` otherwise.
    """
    if frobenius(a - a.T) > 1e-10 * max(frobenius(a), 1e-300):
        raise NotSymmetric(message)
    return (a + a.T) / 2


def reciprocal_condition(a) -> float:
    """1/cond_2(a) from singular values; 0.0 for the zero matrix.

    A gate that also needs the inverse reads it through ``gated_inverse``,
    which calls this only where a cheaper bound cannot decide.
    """
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


# The computed inverse Z of a has a Z = I + E with ||E|| of order
# n eps ||a|| ||Z||, so the true ||a^{-1}|| is at most ||Z|| / (1 - ||E||).
# Where the bound read from Z clears a floor of 1e-12 or more tenfold,
# ||a|| ||Z|| <= 1e11 and ||E|| is of order n * 1e-5, far below 0.9, so the
# exact bound, and rcond_2 above it, still clear the floor: the verdict is
# the one the singular values would give.
_BOUND_MARGIN = 10.0


def gated_inverse(a: np.ndarray, floor: float) -> tuple[np.ndarray | None, float]:
    """inv(a), or None where rcond_2(a) < floor, and the rcond value decided on.

    rcond_2(a) >= 1 / (||a||_F ||a^{-1}||_F), so a square a whose computed
    inverse clears the floor by ``_BOUND_MARGIN`` under this bound passes
    without a singular-value decomposition, and the bound is returned. Where
    it does not, where the inverse or a norm is not finite, or where ``inv``
    raises LinAlgError, the verdict and the value are those of
    ``reciprocal_condition``; a LinAlgError is raised again only if that
    rcond clears the floor, as ``inv`` after the gate would have raised it.
    """
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        rc = reciprocal_condition(a)
        if rc < floor:
            return None, rc
        raise
    # false for a nan or inf product, and for a norm that underflowed to 0
    norms = frobenius(a) * frobenius(inv)
    if 0.0 < norms <= 1.0 / (_BOUND_MARGIN * floor):
        return inv, 1.0 / norms
    rc = reciprocal_condition(a)
    return (inv if rc >= floor else None), rc


def symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n symplectic form [[0, -I], [I, 0]] (P block first)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionError(f"mode count must be a positive integer, got {n!r}")
    return readonly_form(int(n)).copy()


@lru_cache(maxsize=64)
def readonly_form(n: int) -> np.ndarray:
    """The symplectic form for an integer mode count n, built once per n.

    The array is shared between callers and therefore read-only; the public
    ``symplectic_form`` hands out writable copies of it.
    """
    if n < 1:
        raise DimensionError(f"mode count must be a positive integer, got {n!r}")
    sig = np.zeros((2 * n, 2 * n))
    sig[:n, n:] = -np.eye(n)
    sig[n:, :n] = np.eye(n)
    sig.flags.writeable = False
    return sig


@dataclass(frozen=True)
class SymplecticCheck:
    residual: float
    verdict: bool


def is_symplectic(s, tol: Tolerances = DEFAULT_TOL) -> SymplecticCheck:
    """Residual ||S sigma S^T - sigma||_F and a scaled pass/fail verdict.

    The verdict threshold scales with max(1, ||S||_F^2) because the residual
    of an exactly symplectic S evaluated in floating point grows with the
    squared norm. A norm whose square overflows makes the threshold
    infinite; a residual that is not finite fails.
    """
    s = as_even_square(s, "S")
    residual = symplectic_residual(s)
    norm = frobenius(s)
    scale = max(1.0, norm * norm)
    return SymplecticCheck(
        residual=residual, verdict=residual <= tol.residual_tol * scale and residual < math.inf
    )


def symplectic_residual(s: np.ndarray) -> float:
    """||S sigma S^T - sigma||_F for a checked even square S."""
    sig = readonly_form(s.shape[0] // 2)
    return frobenius(s @ sig @ s.T - sig)


def gl_embed(g) -> np.ndarray:
    """Embed an invertible n x n matrix G as the symplectic G^{-1} (+) G^T."""
    g = as_matrix(g, "G")
    if g.shape[0] != g.shape[1]:
        raise DimensionError(f"G must be square, got {g.shape[0]}x{g.shape[1]}")
    g_inv = gated_inverse(g, _GL_RCOND_MIN)[0]
    if g_inv is None:
        raise SingularInput("G is singular within tolerance (rcond < 1e-12)")
    return direct_sum(g_inv, g.T)


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal assembly diag(A, B); dimensions add."""
    return block_diag(as_matrix(a, "A"), as_matrix(b, "B"))


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``direct_sum`` of two checked 2-D float arrays."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def mode_direct_sum(a, b) -> np.ndarray:
    """Direct sum of two phase-space matrices in (P.., Q..) block ordering.

    Unlike ``direct_sum`` this interleaves at the level of modes, so the
    result is again (P_1..P_m, Q_1..Q_m)-ordered.
    """
    a = as_even_square(a, "A")
    b = as_even_square(b, "B")
    na, nb = a.shape[0] // 2, b.shape[0] // 2
    # diag(A, B) is (P_a, Q_a, P_b, Q_b)-ordered; move P_b ahead of Q_a
    order = np.r_[0:na, 2 * na : 2 * na + nb, na : 2 * na, 2 * na + nb : 2 * (na + nb)]
    return block_diag(a, b)[np.ix_(order, order)]


def _random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    # orthogonal x lognormal-spectrum x orthogonal: dense in GL(n) yet
    # well-conditioned, so composed group elements stay numerically tame
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.exp(rng.uniform(-0.7, 0.7, size=n))
    return q1 @ (spectrum[:, None] * q2)


def _shear(z: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    out = np.eye(2 * n)
    out[n:, :n] = z
    return out


def random_symplectic(n: int, seed: int = 0) -> np.ndarray:
    """Seeded random element of Sp(2n).

    Composed from GL embeddings, symmetric-generator shears [[I,0],[Z,I]] and
    the form itself; together these families generate the full group, so the
    sample is not confined to any proper subgroup.
    """
    rng = np.random.default_rng(seed)
    sig = symplectic_form(n)
    g1 = _random_invertible(rng, n)
    z1 = 0.35 * rng.standard_normal((n, n))
    z1 = (z1 + z1.T) / 2
    g2 = _random_invertible(rng, n)
    z2 = 0.35 * rng.standard_normal((n, n))
    z2 = (z2 + z2.T) / 2
    return gl_embed(g1) @ _shear(z1) @ sig @ gl_embed(g2) @ _shear(z2)


def hermitian_min_eig(sym_part, skew_part) -> float:
    """Minimal eigenvalue of the Hermitian matrix R + iA.

    One complex Hermitian eigensolve of R + iA, of the size of R. R must be
    symmetric and A antisymmetric; small structural dust is projected out.
    """
    r = as_matrix(sym_part, "R")
    a = as_matrix(skew_part, "A")
    if r.shape != a.shape or r.shape[0] != r.shape[1] or r.size == 0:
        raise DimensionError("R and A must be nonempty square matrices of equal shape")
    return min_eig_of_checked(r, a)


def min_eig_of_checked(r: np.ndarray, a: np.ndarray) -> float:
    """``hermitian_min_eig`` of nonempty square float arrays of equal shape.

    For callers that built R and A from arrays they have checked. A
    non-finite entry makes the eigenvalue nan; only then are R and A checked
    for finiteness, so that such an entry raises what ``hermitian_min_eig``
    raises.
    """
    value = float(np.linalg.eigvalsh((r + r.T) / 2 + 1j * ((a - a.T) / 2))[0])
    if not math.isfinite(value):
        as_matrix(r, "R")
        as_matrix(a, "A")
    return value
