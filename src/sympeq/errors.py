"""Typed errors raised when an input violates an operation's contract."""


class SympeqError(Exception):
    """Base class for all contract violations raised by this package."""


class DimensionError(SympeqError):
    """Wrong shape: not square, odd dimension, or mismatched operands."""


class InvalidInput(SympeqError):
    """Entries violate a basic input contract (e.g. non-finite values)."""


class SingularInput(SympeqError):
    """A matrix required to be invertible is singular within tolerance."""


class EigenFailure(SympeqError):
    """The underlying eigensolver did not converge."""


class DegenerateSpectrum(SympeqError):
    """Spectrum too degenerate or ill-conditioned for a reliable construction."""


class IsotropicEigenspace(DegenerateSpectrum):
    """The symplectic form degenerates on an invariant subspace."""


class NoNonsingularFactor(DegenerateSpectrum):
    """No nonsingular symmetric factor found within the draw budget."""


class ClusteringAmbiguous(SympeqError):
    """Eigenvalues cannot be grouped into doubles within the degeneracy gap."""


class NotPositiveDefinite(SympeqError):
    """Input matrix is not strictly positive definite."""


class NotSymmetric(SympeqError):
    """Input matrix is not symmetric within tolerance."""


class NotPure(SympeqError):
    """Covariance matrix does not describe a pure state."""
