"""Gaussian-state and Gaussian-channel applications of the canonical form.

Two uses of the equivalence normal form are implemented here:

* condensing the correlations of a bipartite covariance matrix into
  elementary single-mode and mode-pair units by local symplectic
  transformations of the two parties, and
* decoupling the interaction part of a Gaussian channel by symplectic
  encoding/decoding, with a squeezing witness read off the invariants.

Layout conventions: bipartite objects are party-major, each party internally
(P.., Q..)-ordered, so the global symplectic form is sigma_n (+) sigma_n.
The vacuum covariance matrix is the identity, so a state is admissible iff
Gamma + i sigma >= 0 and the mode occupation is (nu - 1) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalBlocks, decompose, williamson
from .core import (
    DEFAULT_TOL,
    Tolerances,
    as_even_square,
    as_matrix,
    block_diag,
    direct_sum,
    frobenius,
    hermitian_min_eig,
    mode_direct_sum,
    random_symplectic,
    reciprocal_condition,
    symmetric_part,
    symplectic_form,
)
from .errors import DimensionError, InvalidInput, NotPure, SingularInput
from .invariants import COMPLEX_PAIR, REAL, InvariantSpectrum, invariants, sigma_matrix

__all__ = [
    "SQUEEZING_WITNESSED",
    "INCONCLUSIVE",
    "BipartiteCovariance",
    "GaussianChannel",
    "PassiveInteraction",
    "WitnessReport",
    "ValidityReport",
    "CondenseResult",
    "NormalizeResult",
    "SchmidtReport",
    "transform_bipartite",
    "bipartite_mode_sum",
    "condense_correlations",
    "state_validity",
    "schmidt_relation_check",
    "apply_channel",
    "channel_validity",
    "normalize_channel",
    "passive_interaction",
    "squeezing_witness",
    "random_valid_channel",
    "two_mode_squeezed",
    "attenuator",
    "vacuum",
]

SQUEEZING_WITNESSED = "squeezing_witnessed"
INCONCLUSIVE = "inconclusive"


@dataclass(eq=False)
class BipartiteCovariance:
    """Covariance matrix of n + n modes, partitioned into party blocks.

    ``x`` is the cross-party correlation block; ``gamma_a`` and ``gamma_b``
    the local covariance matrices, all 2n x 2n in (P.., Q..) ordering.
    """

    n: int
    gamma_a: np.ndarray
    gamma_b: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        dim = 2 * self.n
        for name in ("gamma_a", "gamma_b", "x"):
            mat = as_even_square(getattr(self, name), name)
            if mat.shape != (dim, dim):
                raise DimensionError(f"{name} must be {dim}x{dim}, got {mat.shape}")
            setattr(self, name, mat)

    def assembled(self) -> np.ndarray:
        d = 2 * self.n
        out = np.empty((2 * d, 2 * d))
        out[:d, :d] = self.gamma_a
        out[:d, d:] = self.x
        out[d:, :d] = self.x.T
        out[d:, d:] = self.gamma_b
        return out

    def form(self) -> np.ndarray:
        sig = symplectic_form(self.n)
        return block_diag(sig, sig)

    @classmethod
    def from_assembled(cls, n: int, gamma) -> "BipartiteCovariance":
        gamma = as_even_square(gamma, "Gamma")
        if gamma.shape[0] != 4 * n:
            raise DimensionError(f"Gamma must be {4 * n}x{4 * n} for n={n}")
        d = 2 * n
        return cls(n=n, gamma_a=gamma[:d, :d], gamma_b=gamma[d:, d:], x=gamma[:d, d:])


@dataclass(eq=False)
class GaussianChannel:
    """Covariance map Gamma -> X^T Gamma X + Y with symmetric noise Y.

    X and Y must be finite, 2n x 2n and of equal shape, and Y symmetric to
    within 1e-10 of its norm; Y is stored as its symmetric part.
    ``validity_residual`` is the amount by which the complete-positivity
    constraint is violated (0.0 for a valid channel).
    """

    n: int
    x: np.ndarray
    y: np.ndarray
    validity_residual: float = 0.0

    def __post_init__(self) -> None:
        self.x = as_even_square(self.x, "X")
        y = as_even_square(self.y, "Y")
        if self.x.shape != y.shape:
            raise DimensionError("X and Y must have equal shape")
        if self.x.shape[0] != 2 * self.n:
            raise DimensionError(f"X and Y must be {2 * self.n}x{2 * self.n} for n={self.n}")
        self.y = symmetric_part(y, "channel noise block Y must be symmetric")

    @classmethod
    def from_xy(cls, x, y, tol: Tolerances = DEFAULT_TOL) -> "GaussianChannel":
        # n from the rows of X; __post_init__ checks X and Y themselves
        ch = cls(n=np.shape(x)[0] // 2 if np.ndim(x) else 0, x=x, y=y)
        report = channel_validity(ch, tol)
        ch.validity_residual = max(0.0, -report.min_eig)
        return ch


@dataclass(eq=False)
class PassiveInteraction:
    """Interaction block [[c, d], [-d, c]] of a number-preserving coupling."""

    n: int
    c: np.ndarray
    d: np.ndarray
    x: np.ndarray


@dataclass(eq=False)
class WitnessReport:
    spectrum: InvariantSpectrum
    complex_found: bool
    verdict: str


@dataclass(frozen=True)
class ValidityReport:
    min_eig: float
    valid: bool


@dataclass(eq=False)
class CondenseResult:
    s_a: np.ndarray
    s_b: np.ndarray
    g_out: BipartiteCovariance
    blocks: CanonicalBlocks


@dataclass(eq=False)
class NormalizeResult:
    s1: np.ndarray
    s2: np.ndarray
    ch_out: GaussianChannel
    blocks: CanonicalBlocks


@dataclass(eq=False)
class SchmidtReport:
    nu_local: np.ndarray
    lam: np.ndarray
    max_relative_error: float


def transform_bipartite(g: BipartiteCovariance, s_a, s_b) -> BipartiteCovariance:
    """Apply the local symplectic pair: Gamma -> (S_A (+) S_B) Gamma (...)^T."""
    local = block_diag(as_even_square(s_a, "S_A"), as_even_square(s_b, "S_B"))
    full = local @ g.assembled() @ local.T
    return BipartiteCovariance.from_assembled(g.n, full)


def bipartite_mode_sum(g1: BipartiteCovariance, g2: BipartiteCovariance) -> BipartiteCovariance:
    """Uncorrelated union of two bipartite states, party by party."""
    return BipartiteCovariance(
        n=g1.n + g2.n,
        gamma_a=mode_direct_sum(g1.gamma_a, g2.gamma_a),
        gamma_b=mode_direct_sum(g1.gamma_b, g2.gamma_b),
        x=mode_direct_sum(g1.x, g2.x),
    )


def condense_correlations(
    g: BipartiteCovariance,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
) -> CondenseResult:
    """Condense cross-party correlations into single modes and mode pairs.

    The correlation block transforms as x -> S_A x S_B^T under local
    symplectics, so the equivalence normal form of x applies directly. The
    returned state is recomputed in full; its correlation block equals
    I (+) J within the residual tolerance, while the local blocks transform
    covariantly and are not constrained to be diagonal. ``seed`` is accepted
    for compatibility and ignored: the decomposition is deterministic.
    """
    d = decompose(g.x, tol=tol)
    s_a = d.s1
    s_b = d.s2.T
    g_out = transform_bipartite(g, s_a, s_b)
    return CondenseResult(s_a=s_a, s_b=s_b, g_out=g_out, blocks=d.blocks)


def state_validity(g, tol: Tolerances = DEFAULT_TOL) -> ValidityReport:
    """Admissibility of a covariance matrix: Gamma + i sigma >= 0.

    Accepts a BipartiteCovariance (party-major form, sigma_n (+) sigma_n) or
    a plain matrix (single collection of modes).
    """
    if isinstance(g, BipartiteCovariance):
        gamma = g.assembled()
        omega = g.form()
    else:
        gamma = as_even_square(g, "Gamma")
        omega = symplectic_form(gamma.shape[0] // 2)
    min_eig = hermitian_min_eig(symmetric_part(gamma, "covariance matrix must be symmetric"), omega)
    return ValidityReport(
        min_eig=min_eig,
        valid=min_eig >= -tol.psd_tol * max(1.0, frobenius(gamma)),
    )


def schmidt_relation_check(g: BipartiteCovariance, tol: Tolerances = DEFAULT_TOL) -> SchmidtReport:
    """Pure-state consistency between local frequencies and invariants.

    For a globally pure state the local normal-mode frequencies satisfy
    nu_k = sqrt(1 - lambda_k) with all invariants of the correlation block
    real and non-positive. Both sides are computed independently, sorted
    descending, and the worst relative error is reported.
    """
    # The assembled state is party-major (P_A, Q_A, P_B, Q_B) with the form
    # sigma (+) sigma; williamson reads the single-collection order, so rows
    # and columns go to (P_A, P_B, Q_A, Q_B) first.
    n = g.n
    order = np.r_[0:n, 2 * n : 3 * n, n : 2 * n, 3 * n : 4 * n]
    nu_global = williamson(g.assembled()[np.ix_(order, order)], tol).nu
    if float(np.max(np.abs(nu_global - 1.0))) > tol.degeneracy_gap:
        raise NotPure("global normal-mode frequencies differ from 1")
    if reciprocal_condition(g.x) < 1e-12:
        raise SingularInput("correlation block is singular within tolerance")

    spectrum = invariants(g.x, tol)
    if any(v.kind != REAL for v in spectrum.values):
        raise NotPure("pure states have real correlation invariants")
    lam = np.asarray(sorted((v.re for v in spectrum.values), reverse=True))
    if np.any(lam > tol.psd_tol):
        raise NotPure("pure states have non-positive correlation invariants")

    nu_local = williamson(g.gamma_a, tol).nu
    target = np.sort(np.sqrt(1.0 - lam))[::-1]
    err = float(np.max(np.abs(nu_local - target) / np.maximum(np.abs(target), 1e-300)))
    return SchmidtReport(nu_local=nu_local, lam=lam, max_relative_error=err)


def apply_channel(gamma, ch: GaussianChannel) -> np.ndarray:
    """Evolve a covariance matrix through the channel: X^T Gamma X + Y."""
    gamma = as_even_square(gamma, "Gamma")
    if gamma.shape != ch.x.shape:
        raise DimensionError(
            f"state dimension {gamma.shape[0]} does not match channel dimension {ch.x.shape[0]}"
        )
    return ch.x.T @ gamma @ ch.x + ch.y


def channel_validity(ch: GaussianChannel, tol: Tolerances = DEFAULT_TOL) -> ValidityReport:
    """Complete-positivity check: Y + i (X^T sigma X - sigma) >= 0."""
    sig = symplectic_form(ch.n)
    skew = ch.x.T @ sig @ ch.x - sig
    min_eig = hermitian_min_eig(ch.y, skew)
    scale = max(1.0, float(np.hypot(frobenius(ch.y), frobenius(skew))))
    return ValidityReport(min_eig=min_eig, valid=min_eig >= -tol.psd_tol * scale)


def normalize_channel(
    ch: GaussianChannel,
    tol: Tolerances = DEFAULT_TOL,
    seed: int = 0,
) -> NormalizeResult:
    """Decouple the interaction part of a channel by encoding and decoding.

    Symplectic transformations before and after the channel act as
    X -> S1 X S2 and Y -> S2^T Y S2; choosing the equivalence normal form of
    X reduces the interaction to single-mode and mode-pair units. Validity is
    preserved exactly in theory (the constraint transforms by congruence).
    ``seed`` is accepted for compatibility and ignored.
    """
    d = decompose(ch.x, tol=tol)
    x_out = d.s1 @ ch.x @ d.s2
    y_out = d.s2.T @ ch.y @ d.s2
    ch_out = GaussianChannel.from_xy(x_out, (y_out + y_out.T) / 2, tol)
    return NormalizeResult(s1=d.s1, s2=d.s2, ch_out=ch_out, blocks=d.blocks)


def passive_interaction(c, d) -> PassiveInteraction:
    """Assemble the interaction block of a number-preserving coupling.

    For x = [[c, d], [-d, c]] the invariant matrix has the closed form
    [[d d^T + c c^T, d c^T - c d^T], [c d^T - d c^T, d d^T + c c^T]], which is
    symmetric, hence all invariants are real. The closed form is checked
    against the direct product before returning.
    """
    c = as_matrix(c, "c")
    d = as_matrix(d, "d")
    if c.shape != d.shape or c.shape[0] != c.shape[1]:
        raise DimensionError("c and d must be square matrices of equal shape")
    x = np.block([[c, d], [-d, c]])
    closed = np.block(
        [
            [d @ d.T + c @ c.T, d @ c.T - c @ d.T],
            [c @ d.T - d @ c.T, d @ d.T + c @ c.T],
        ]
    )
    direct = sigma_matrix(x)
    gap = frobenius(closed - direct)
    if gap > 1e-10 * max(1.0, frobenius(closed)):
        raise InvalidInput(f"structured invariant identity violated at {gap:.3e}")
    return PassiveInteraction(n=c.shape[0], c=c, d=d, x=x)


def squeezing_witness(x, tol: Tolerances = DEFAULT_TOL) -> WitnessReport:
    """Flag squeezing-type system-environment coupling from the invariants.

    Complex invariants witness squeezing in the global evolution; real
    invariants are inconclusive (the witness is one-directional).
    """
    spectrum = invariants(x, tol)
    complex_found = any(v.kind == COMPLEX_PAIR for v in spectrum.values)
    return WitnessReport(
        spectrum=spectrum,
        complex_found=complex_found,
        verdict=SQUEEZING_WITNESSED if complex_found else INCONCLUSIVE,
    )


def _mode_indices(modes: list[int], total: int) -> list[int]:
    return list(modes) + [total + m for m in modes]


def random_valid_channel(
    n: int,
    env_modes: int,
    squeezing: bool,
    seed: int = 0,
) -> GaussianChannel:
    """Seeded valid channel from a global dilation with a vacuum environment.

    With ``squeezing=False`` the global transformation is number-preserving,
    built from a random unitary C + i D, and the reduced interaction block
    keeps the [[c, d], [-d, c]] structure (real invariants). With
    ``squeezing=True`` a general random symplectic dilation is used.
    """
    if env_modes < 1:
        raise DimensionError("env_modes must be at least 1")
    total = n + env_modes
    if squeezing:
        s_glob = random_symplectic(total, seed)
    else:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        cc, dd = q.real, q.imag
        s_glob = np.block([[cc, dd], [-dd, cc]])

    sys_idx = _mode_indices(list(range(n)), total)
    env_idx = _mode_indices(list(range(n, total)), total)
    x = s_glob[np.ix_(sys_idx, sys_idx)].T
    s_se = s_glob[np.ix_(sys_idx, env_idx)]
    y = s_se @ s_se.T  # vacuum environment
    return GaussianChannel.from_xy(x, (y + y.T) / 2)


def two_mode_squeezed(r: float, pairs: int = 1) -> BipartiteCovariance:
    """Two-mode squeezed state(s): local blocks cosh(2r) I, correlations
    sinh(2r) diag(+1.., -1..). ``pairs`` independent copies share one r."""
    if pairs < 1:
        raise DimensionError("pairs must be at least 1")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    eye = np.eye(pairs)
    return BipartiteCovariance(
        n=pairs,
        gamma_a=ch * np.eye(2 * pairs),
        gamma_b=ch * np.eye(2 * pairs),
        x=sh * direct_sum(eye, -eye),
    )


def attenuator(eta: float, n: int = 1) -> GaussianChannel:
    """Beam-splitter loss channel: X = sqrt(eta) I, Y = (1 - eta) I."""
    if not 0.0 < eta <= 1.0:
        raise InvalidInput(f"transmissivity must lie in (0, 1], got {eta}")
    dim = 2 * n
    return GaussianChannel.from_xy(np.sqrt(eta) * np.eye(dim), (1.0 - eta) * np.eye(dim))


def vacuum(n: int) -> np.ndarray:
    """Vacuum covariance matrix (identity in these units)."""
    if n < 1:
        raise DimensionError("mode count must be positive")
    return np.eye(2 * n)
