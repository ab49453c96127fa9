import re
from collections import Counter
from unittest import mock

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
from sympeq.core import direct_sum
from sympeq.invariants import (
    Invariant,
    InvariantSpectrum,
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


@given(seeds, st.integers(min_value=2, max_value=6), st.sampled_from([1.0, -1.0]))
@settings(max_examples=40, deadline=None)
def test_passive_x_takes_its_invariants_from_one_complex_svd(seed, n, sign):
    # X sigma = sign sigma X: Sigma(X) = sign X X^T, whose eigenvalues are
    # sign s^2 of the singular values of Z = C + i sign D, each twice (a
    # 2 x 2 X, passive or not, takes its one invariant det X in closed form)
    c, d = np.random.default_rng(seed).standard_normal((2, n, n))
    x = np.block([[c, d], [-d, c]]) if sign > 0 else np.block([[c, d], [d, -c]])
    with (
        mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals,
        mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd,
    ):
        spectrum = invariants(x)
    assert eigvals.call_count == 0 and svd.call_count == 1
    assert np.iscomplexobj(svd.call_args.args[0])
    assert [v.kind for v in spectrum.values] == [REAL] * n
    want = np.sort_complex(np.linalg.eigvals(sigma_matrix(x)))[::2]
    got = np.sort_complex(spectrum.as_multiset())
    assert np.max(np.abs(got - want)) <= 1e-10 * spectral_scale(want)


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


# --- the classification against a frozen numpy reference ---------------------
#
# The reported values, pairing_residual, kinds and cluster indices must stay
# bit-identical to this earlier numpy implementation of the same policy,
# kept here verbatim.


def _ref_modulus(z):
    return np.hypot(z.real, z.imag)


def _ref_linkage_groups(order, w, gap_abs):
    vals = w[order]
    joins = (_ref_modulus(vals[1:] - vals[:-1]) <= gap_abs).tolist()
    idx = order.tolist()
    groups = [[idx[0]]]
    for i, join in zip(idx[1:], joins):
        if join:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _ref_group_spread(w, groups):
    vals = w[groups]
    return float(_ref_modulus(vals[..., :, None] - vals[..., None, :]).max())


def _ref_group_means(w, groups):
    by_size = {}
    for i, group in enumerate(groups):
        by_size.setdefault(len(group), []).append(i)
    means = np.empty(len(groups), dtype=w.dtype)
    worst = 0.0
    for size, members in by_size.items():
        stack = [groups[i] for i in members]
        vals = w[stack]
        if np.iscomplexobj(vals):
            means.real[members] = np.add.reduce(vals.real, axis=1) / size
            means.imag[members] = np.add.reduce(vals.imag, axis=1) / size
        else:
            means[members] = np.add.reduce(vals, axis=1) / size
        worst = max(worst, _ref_group_spread(w, stack))
    return means, worst


def _ref_tie_key(cluster):
    inv = cluster[0]
    return (False, -inv.re) if inv.kind == REAL else (True, inv.im)


def _reference_spectrum(w, tol):
    n = w.shape[0] // 2
    scale = spectral_scale(w)
    gap_abs = tol.degeneracy_gap * scale
    w = w.astype(complex)
    w.imag[np.abs(w.imag) <= gap_abs] = 0.0
    reals = np.where(w.imag == 0.0)[0]
    ups = np.where(w.imag > 0.0)[0]
    downs = np.where(w.imag < 0.0)[0]
    if len(ups) != len(downs):
        raise ClusteringAmbiguous(
            "conjugate closure violated: unequal counts above/below the real axis"
        )
    clusters, worst = [], 0.0
    runs = (
        (REAL, reals[np.argsort(w[reals].real)], w.real),
        (COMPLEX_PAIR, ups[np.lexsort((w[ups].imag, w[ups].real))], w),
    )
    for kind, order, vals in runs:
        if not len(order):
            continue
        groups = _ref_linkage_groups(order, w, gap_abs)
        for group in groups:
            if len(group) % 2 != 0:
                name = "real" if kind == REAL else "complex"
                raise ClusteringAmbiguous(
                    f"{name} eigenvalue cluster of odd size {len(group)} cannot be doubled"
                )
        means, spread = _ref_group_means(vals, groups)
        worst = max(worst, spread)
        clusters += [
            (Invariant(a, b, kind), group)
            for a, b, group in zip(means.real.tolist(), means.imag.tolist(), groups)
        ]
    if len(ups):
        up_sorted = np.sort_complex(w[ups])
        down_sorted = np.sort_complex(np.conj(w[downs]))
        if np.abs(up_sorted - down_sorted).max() > gap_abs:
            raise ClusteringAmbiguous("conjugate partners do not match within the gap")
    clusters.sort(key=lambda c: (-c[0].re, c[0].im))
    start = 0
    for end in range(1, len(clusters) + 1):
        if end == len(clusters) or clusters[end - 1][0].re - clusters[end][0].re > gap_abs:
            if end - start > 1:
                clusters[start:end] = sorted(clusters[start:end], key=_ref_tie_key)
            start = end
    values = tuple(v for v, group in clusters for _ in range(len(group) // 2))
    spectrum = InvariantSpectrum(
        n=n,
        values=values,
        pairing_residual=worst / scale,
        has_zero=any(abs(v.as_complex()) <= gap_abs for v in values),
    )
    return spectrum, clusters


def _dressed(rng, j):
    # I (+) J between two random symplectic matrices: Sigma of it has the
    # entries of J as invariants, each doubled
    k = j.shape[0]
    x = direct_sum(np.eye(k), j)
    return random_symplectic(k, int(rng.integers(10**6))) @ x @ random_symplectic(k, int(rng.integers(10**6)))


def _classification_inputs():
    # Sigma(X) spectra for n = 1..12 scaled by 10^U(-6, 6): Gaussian X,
    # singular X, and dressed forms whose 4-fold repeated real or pair
    # invariant makes a cluster of 8 members; each spectrum also once with
    # jitter near the gap, so that the refusals are compared too
    rng = np.random.default_rng(12)
    pair = np.array([[1.0, 0.5], [-0.5, 1.0]])
    for n in range(1, 13):
        for _ in range(40):
            yield rng.standard_normal((2 * n, 2 * n))
        for _ in range(4):
            x = rng.standard_normal((2 * n, 2 * n))
            x[:, : n // 2 + 1] = 0.0
            yield x
    for _ in range(60):
        rest = rng.standard_normal(int(rng.integers(0, 4)))
        yield _dressed(rng, direct_sum(np.diag([1.5] * 4), np.diag(rest)))
        blocks = direct_sum(direct_sum(pair, pair), direct_sum(pair, pair))
        yield _dressed(rng, direct_sum(blocks, np.diag(rest)))
        yield _dressed(rng, direct_sum(blocks, np.diag([-0.7] * 4)))


def _classification_spectra():
    rng = np.random.default_rng(13)
    for x in _classification_inputs():
        w = np.linalg.eigvals(sigma_matrix(x)) * 10.0 ** rng.uniform(-6, 6)
        yield w
        jitter = rng.uniform(-1, 1, w.size) + 2j * rng.uniform(-1, 1, w.size)
        yield w * (1.0 + 1e-6 * jitter)


def _classified(w):
    try:
        spectrum, clusters = spectrum_from_eigenvalues(w.copy(), Tolerances())
    except ClusteringAmbiguous as exc:
        return str(exc)
    values = [(v.re.hex(), v.im.hex(), v.kind) for v in spectrum.values]
    groups = [(c[0].re.hex(), c[0].im.hex(), c[0].kind, c[1]) for c in clusters]
    return spectrum.pairing_residual.hex(), spectrum.has_zero, spectrum.n, values, groups


_REFUSALS = (
    "conjugate closure violated: unequal counts above/below the real axis",
    "real eigenvalue cluster of odd size N cannot be doubled",
    "complex eigenvalue cluster of odd size N cannot be doubled",
    "conjugate partners do not match within the gap",
)


def test_classification_equals_numpy_reference_bit_for_bit():
    refusals = Counter()
    planes = repeats = 0
    for w in _classification_spectra():
        got = _classified(w)
        try:
            spectrum, clusters = _reference_spectrum(w.copy(), Tolerances())
        except ClusteringAmbiguous as exc:
            assert got == str(exc)
            refusals[re.sub(r"\d+", "N", str(exc))] += 1
            continue
        values = [(v.re.hex(), v.im.hex(), v.kind) for v in spectrum.values]
        groups = [(c[0].re.hex(), c[0].im.hex(), c[0].kind, c[1]) for c in clusters]
        want = spectrum.pairing_residual.hex(), spectrum.has_zero, spectrum.n, values, groups
        assert got == want
        planes += any(len(c[1]) == 2 for c in clusters)
        repeats += any(len(c[1]) >= 8 for c in clusters)
    # the inputs reach every refusal, each many times, the two-member
    # clusters and the pairwise-summed ones
    assert set(refusals) == set(_REFUSALS) and min(refusals.values()) >= 30, refusals
    assert planes > 100 and repeats > 100


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
