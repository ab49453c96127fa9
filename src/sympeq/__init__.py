"""Canonical forms of real matrices under symplectic equivalence.

Computes the invariants and the normal form I_n (+) J of a real 2n x 2n
matrix under two-sided symplectic transformations, the classical
normal-mode (Williamson) decomposition, and their applications to bipartite
Gaussian correlations and Gaussian channels.
"""

from .canonical import (
    CanonicalBlocks,
    Decomposition,
    TwoSymmetricFactors,
    VerificationReport,
    WilliamsonResult,
    canonical_from_invariants,
    decompose,
    factor_two_symmetric,
    verify_decomposition,
    williamson,
    williamson_invariant_gap,
)
from .core import (
    DEFAULT_TOL,
    SymplecticCheck,
    Tolerances,
    direct_sum,
    gl_embed,
    hermitian_min_eig,
    is_symplectic,
    mode_direct_sum,
    random_symplectic,
    symplectic_form,
)
from .errors import (
    ClusteringAmbiguous,
    DegenerateSpectrum,
    DimensionError,
    EigenFailure,
    InvalidInput,
    IsotropicEigenspace,
    NoNonsingularFactor,
    NotPositiveDefinite,
    NotPure,
    NotSymmetric,
    SingularInput,
    SympeqError,
)
from .gaussian import (
    INCONCLUSIVE,
    SQUEEZING_WITNESSED,
    BipartiteCovariance,
    CondenseResult,
    GaussianChannel,
    NormalizeResult,
    PassiveInteraction,
    SchmidtReport,
    ValidityReport,
    WitnessReport,
    apply_channel,
    attenuator,
    bipartite_mode_sum,
    channel_validity,
    condense_correlations,
    normalize_channel,
    passive_interaction,
    random_valid_channel,
    schmidt_relation_check,
    squeezing_witness,
    state_validity,
    transform_bipartite,
    two_mode_squeezed,
    vacuum,
)
from .invariants import (
    COMPLEX_PAIR,
    REAL,
    Invariant,
    InvariantSpectrum,
    invariants,
    multiset_distance,
    sigma_matrix,
)

__version__ = "0.1.0"
