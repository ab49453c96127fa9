import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympeq import (
    COMPLEX_PAIR,
    REAL,
    ClusteringAmbiguous,
    DimensionError,
    Tolerances,
    invariants,
    multiset_distance,
    random_symplectic,
    sigma_matrix,
    squeezing_witness,
    symplectic_form,
    williamson,
)
from sympeq.invariants import (
    _group_means,
    _group_spread,
    _linkage_groups,
    spectral_scale,
    spectrum_from_eigenvalues,
)

seeds = st.integers(min_value=0, max_value=10**6)
log_scales = st.floats(min_value=-6.0, max_value=6.0)


def canonical_block(a, b):
    return np.array([[a, b], [-b, a]])


def embed_blocks(*mats):
    mats = [np.asarray(m, dtype=float) for m in mats]
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim))
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return out


# --- sigma_matrix -----------------------------------------------------------


def test_sigma_matrix_identity():
    assert np.allclose(sigma_matrix(np.eye(4)), np.eye(4))


def test_sigma_matrix_scalar():
    # direct multiplication oracle: (3I) sigma (3I) sigma^T = 9 I
    assert np.allclose(sigma_matrix(3 * np.eye(2)), 9 * np.eye(2))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_sigma_matrix_of_symplectic_is_identity(seed):
    s = random_symplectic(3, seed=seed)
    scale = np.linalg.norm(s) ** 2
    assert np.linalg.norm(sigma_matrix(s) - np.eye(6)) <= 1e-8 * scale


@given(seeds, st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_sigma_matrix_exactly_skew_hamiltonian(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    sig_x = sigma_matrix(x)
    skew = sig_x @ symplectic_form(n)
    assert np.linalg.norm(skew.T + skew) <= 1e-12 * max(1.0, np.linalg.norm(sig_x))


def test_sigma_matrix_rejects_odd():
    with pytest.raises(DimensionError):
        sigma_matrix(np.eye(3))


# --- invariants -------------------------------------------------------------


def test_invariants_identity():
    spectrum = invariants(np.eye(2))
    assert spectrum.n == 1
    assert len(spectrum.values) == 1
    assert spectrum.values[0].kind == REAL
    assert spectrum.values[0].re == pytest.approx(1.0)


def test_invariants_attenuation_block():
    spectrum = invariants(np.sqrt(0.36) * np.eye(2))
    assert spectrum.values[0].re == pytest.approx(0.36, abs=1e-14)


def test_invariants_complex_pair_block():
    x = embed_blocks(np.eye(2), canonical_block(1.0, 2.0))
    spectrum = invariants(x)
    assert [v.kind for v in spectrum.values] == [COMPLEX_PAIR]
    assert spectrum.values[0].re == pytest.approx(1.0, abs=1e-12)
    assert spectrum.values[0].im == pytest.approx(2.0, abs=1e-12)
    # independent oracle: eigensolve the invariant matrix directly
    eig = np.sort_complex(np.linalg.eigvals(sigma_matrix(x)))
    want = np.sort_complex(np.array([1 + 2j, 1 + 2j, 1 - 2j, 1 - 2j]))
    assert np.max(np.abs(eig - want)) <= 1e-10


def test_invariants_match_squared_frequencies():
    x = np.diag([2.0, 2.0])
    spectrum = invariants(x)
    res = williamson(x)
    assert spectrum.values[0].re == pytest.approx(4.0, abs=1e-12)
    assert res.nu[0] == pytest.approx(2.0, abs=1e-12)
    assert spectrum.values[0].re == pytest.approx(res.nu[0] ** 2, rel=1e-12)


def test_invariants_zero_flag_for_singular_input():
    x = np.diag([1.0, 0.0])
    spectrum = invariants(x)
    assert spectrum.has_zero


def test_invariants_repeated_values_reported_not_rejected():
    spectrum = invariants(np.eye(4))
    assert [v.re for v in spectrum.values] == [1.0, 1.0]


def test_canonical_order_real_before_pair_on_tied_real_part():
    # I_3 (+) J with J = diag(1, [[1,2],[-2,1]]): invariants 1 and 1 +/- 2i
    x = embed_blocks(np.eye(3), embed_blocks([[1.0]], canonical_block(1.0, 2.0)))
    spectrum = invariants(x)
    kinds = [v.kind for v in spectrum.values]
    assert kinds == [REAL, COMPLEX_PAIR]


# --- properties -------------------------------------------------------------


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_equivalence_invariance(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    s1 = random_symplectic(n, seed=seed + 1)
    s2 = random_symplectic(n, seed=seed + 2)
    assert multiset_distance(invariants(x), invariants(s1 @ x @ s2)) <= 1e-6


@given(seeds, st.integers(min_value=1, max_value=6), log_scales)
@settings(max_examples=50, deadline=None)
def test_scaling_scales_invariants_by_c_squared(seed, n, log_c):
    x = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
    c = 10.0**log_c
    want = c**2 * invariants(x).as_multiset()
    got = invariants(c * x).as_multiset()
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-8 * spectral_scale(want)


@given(seeds, st.integers(min_value=1, max_value=6), log_scales)
@settings(max_examples=50, deadline=None)
def test_scaling_changes_no_kind_order_or_verdict(seed, n, log_c):
    # the spectral gap is relative, so X and cX are classified alike
    x = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
    c = 10.0**log_c
    before, after = squeezing_witness(x), squeezing_witness(c * x)
    assert [v.kind for v in after.spectrum.values] == [v.kind for v in before.spectrum.values]
    want = c**2 * np.array([v.as_complex() for v in before.spectrum.values])
    got = np.array([v.as_complex() for v in after.spectrum.values])
    assert np.max(np.abs(got - want)) <= 1e-8 * spectral_scale(want)  # same block order
    assert after.spectrum.has_zero == before.spectrum.has_zero
    assert after.verdict == before.verdict


@given(seeds, st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_similarity_transport(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    s1 = random_symplectic(n, seed=seed + 1)
    s2 = random_symplectic(n, seed=seed + 2)
    lhs = sigma_matrix(s1 @ x @ s2)
    rhs = s1 @ sigma_matrix(x) @ np.linalg.inv(s1)
    cond = np.linalg.cond(s1)
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * cond * max(1.0, np.linalg.norm(rhs))


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_doubling(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    spectrum = invariants(x)
    assert spectrum.pairing_residual <= 1e-6
    assert spectrum.slots() == n


@given(seeds, st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_conjugate_closure(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    w = np.linalg.eigvals(sigma_matrix(x))
    scale = max(1.0, np.max(np.abs(w)))
    diff = np.sort_complex(w) - np.sort_complex(np.conj(w))
    assert np.max(np.abs(diff)) <= 1e-10 * scale


# --- clustering edge cases --------------------------------------------------


def test_cluster_rejects_odd_real_group():
    w = np.array([1.0, 1.0, 2.0], dtype=complex)
    with pytest.raises(ClusteringAmbiguous):
        spectrum_from_eigenvalues(w, Tolerances())


def test_cluster_rejects_unbalanced_conjugates():
    w = np.array([1 + 1j, 1 + 1j, 1 - 1j, 2.0], dtype=complex)
    with pytest.raises(ClusteringAmbiguous):
        spectrum_from_eigenvalues(w, Tolerances())


def test_cluster_groups_exact_repeats():
    w = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    spectrum, clusters = spectrum_from_eigenvalues(w, Tolerances())
    assert len(clusters) == 1 and len(clusters[0][1]) == 4
    assert clusters[0][0].kind == REAL and spectrum.pairing_residual == 0.0


def _spectra(count: int):
    # conjugation-free stress values: clustered and scattered, real and
    # complex, at scales 1e-8..1e8
    rng = np.random.default_rng(4)
    for _ in range(count):
        k = int(rng.integers(1, 12))
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k) * (rng.random() < 0.5)
        if rng.random() < 0.5:
            w = np.repeat(w[: (k + 1) // 2], 2)[:k] + 1e-7 * rng.standard_normal(k)
        yield w * 10.0 ** rng.uniform(-8, 8)


def test_group_spread_equals_pairwise_loop_bit_for_bit():
    # pairing_residual is reported, so the spread must equal the reference
    # loop exactly, not within a tolerance
    for w in _spectra(2000):
        group = list(range(w.size))
        reference = float(max(abs(a - b) for a in w for b in w))
        assert _group_spread(w, group).hex() == reference.hex()


def test_group_means_equal_per_group_means_bit_for_bit():
    # the invariant values are reported, so groups reduced together as one
    # array must give each group's own mean and spread exactly
    rng = np.random.default_rng(5)
    for w in _spectra(2000):
        cuts = sorted(set(rng.integers(1, w.size, size=w.size // 2).tolist())) if w.size > 1 else []
        order = rng.permutation(w.size).tolist()
        groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [w.size])]
        means, worst = _group_means(w, groups)
        for group, mean in zip(groups, means.tolist()):
            assert mean.real.hex() == float(w[group].real.mean()).hex()
            assert mean.imag.hex() == float(w[group].imag.mean()).hex()
        real_means, _ = _group_means(w.real, groups)
        reference = [float(w[g].real.mean()).hex() for g in groups]
        assert reference == [m.hex() for m in real_means.tolist()]
        assert worst == max(_group_spread(w, group) for group in groups)


def test_linkage_groups_equal_sequential_loop():
    for w in _spectra(2000):
        order = np.argsort(w.real)
        gap = 1e-6 * max(1.0, float(np.max(np.abs(w))))
        reference = [[int(order[0])]]
        for idx in order[1:]:
            if abs(w[idx] - w[reference[-1][-1]]) <= gap:
                reference[-1].append(int(idx))
            else:
                reference.append([int(idx)])
        assert _linkage_groups(order, w, gap) == reference


def test_loose_gap_merges_near_degenerate_invariants():
    # diagonal X = diag(p1, p2, q1, q2) has invariants {p1 q1, p2 q2}
    x = np.diag([1.0, 1.0 + 1e-7, 1.0, 1.0])
    spectrum = invariants(x, Tolerances(degeneracy_gap=1e-6))
    assert len(spectrum.values) == 2
    assert spectrum.values[0].re == pytest.approx(spectrum.values[1].re)
    tight = invariants(x, Tolerances(degeneracy_gap=1e-9))
    assert abs(tight.values[0].re - tight.values[1].re) == pytest.approx(1e-7, rel=1e-4)


def test_multiset_distance_dimension_mismatch_is_inf():
    a = invariants(np.eye(2))
    b = invariants(np.eye(4))
    assert multiset_distance(a, b) == float("inf")
