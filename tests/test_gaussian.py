import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympeq import (
    COMPLEX_PAIR,
    INCONCLUSIVE,
    REAL,
    SQUEEZING_WITNESSED,
    BipartiteCovariance,
    DimensionError,
    GaussianChannel,
    InvalidInput,
    NotPure,
    NotSymmetric,
    SingularInput,
    Tolerances,
    apply_channel,
    attenuator,
    bipartite_mode_sum,
    channel_validity,
    condense_correlations,
    invariants,
    multiset_distance,
    normalize_channel,
    passive_interaction,
    random_symplectic,
    random_valid_channel,
    schmidt_relation_check,
    sigma_matrix,
    squeezing_witness,
    state_validity,
    transform_bipartite,
    two_mode_squeezed,
    vacuum,
)

seeds = st.integers(min_value=0, max_value=10**6)


# --- states -------------------------------------------------------------------


def test_tmss_is_valid_and_pure():
    g = two_mode_squeezed(0.5)
    report = state_validity(g)
    assert report.valid
    assert report.min_eig == pytest.approx(0.0, abs=1e-10)


def test_vacuum_saturates_validity():
    report = state_validity(vacuum(2))
    assert report.valid
    assert report.min_eig == pytest.approx(0.0, abs=1e-12)


def test_squeezed_below_vacuum_is_invalid():
    # oracle: eigenvalues of 0.5 I + i sigma are 0.5 +/- 1
    report = state_validity(0.5 * np.eye(2))
    assert not report.valid
    assert report.min_eig == pytest.approx(-0.5, abs=1e-12)


def test_condense_tmss():
    r = 0.5
    g = two_mode_squeezed(r)
    res = condense_correlations(g, seed=1)
    lam_expect = -math.sinh(2 * r) ** 2
    want = np.diag([1.0, lam_expect])
    assert np.allclose(res.g_out.x, want, atol=1e-9 * abs(lam_expect))
    assert res.blocks.blocks[0].re == pytest.approx(lam_expect, rel=1e-9)


def test_condense_recomputed_state_consistency():
    g = two_mode_squeezed(0.7)
    res = condense_correlations(g, seed=3)
    rebuilt = transform_bipartite(g, res.s_a, res.s_b)
    scale = max(1.0, np.linalg.norm(rebuilt.assembled()))
    assert np.linalg.norm(rebuilt.assembled() - res.g_out.assembled()) <= 1e-10 * scale


def test_condense_two_pairs_under_local_scrambling():
    r1, r2 = 0.3, 0.9
    g = bipartite_mode_sum(two_mode_squeezed(r1), two_mode_squeezed(r2))
    ra = random_symplectic(2, seed=5)
    rb = random_symplectic(2, seed=6)
    scrambled = transform_bipartite(g, ra, rb)
    res = condense_correlations(scrambled, seed=7)
    lam = sorted(v.re for v in res.blocks.blocks)
    want = sorted([-math.sinh(2 * r1) ** 2, -math.sinh(2 * r2) ** 2])
    assert np.allclose(lam, want, rtol=1e-8)
    assert all(v.kind == REAL for v in res.blocks.blocks)
    # invariants of the condensed block equal those of the input block
    assert multiset_distance(invariants(scrambled.x), invariants(res.g_out.x)) <= 1e-6


def test_condense_fixed_point():
    x = np.zeros((4, 4))
    x[:2, :2] = np.eye(2)
    x[2:, 2:] = [[0.5, 1.5], [-1.5, 0.5]]
    g = BipartiteCovariance(n=2, gamma_a=3 * np.eye(4), gamma_b=3 * np.eye(4), x=x)
    res = condense_correlations(g, seed=2)
    assert res.blocks.blocks[0].re == pytest.approx(0.5, abs=1e-9)
    assert res.blocks.blocks[0].im == pytest.approx(1.5, abs=1e-9)


def test_condense_rejects_product_state():
    g = BipartiteCovariance(n=1, gamma_a=np.eye(2), gamma_b=np.eye(2), x=np.zeros((2, 2)))
    with pytest.raises(SingularInput):
        condense_correlations(g)


# --- schmidt relation -----------------------------------------------------------


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
def test_schmidt_relation_tmss(r):
    g = two_mode_squeezed(r)
    rep = schmidt_relation_check(g)
    assert rep.max_relative_error <= 1e-8
    assert rep.nu_local[0] == pytest.approx(math.cosh(2 * r), rel=1e-9)
    assert rep.lam[0] == pytest.approx(-math.sinh(2 * r) ** 2, rel=1e-9)


def test_schmidt_relation_specific_values():
    rep = schmidt_relation_check(two_mode_squeezed(0.5))
    assert rep.nu_local[0] == pytest.approx(1.5430806348152437, rel=1e-9)
    assert rep.lam[0] == pytest.approx(-1.3810978455418157, rel=1e-9)
    rep2 = schmidt_relation_check(two_mode_squeezed(1.0))
    assert rep2.nu_local[0] == pytest.approx(3.7621956910836314, rel=1e-9)
    assert rep2.lam[0] == pytest.approx(-math.sinh(2.0) ** 2, rel=1e-9)


def test_schmidt_relation_tensor_product():
    g = bipartite_mode_sum(two_mode_squeezed(0.4), two_mode_squeezed(1.1))
    rep = schmidt_relation_check(g)
    assert rep.max_relative_error <= 1e-8
    want_nu = sorted([math.cosh(0.8), math.cosh(2.2)], reverse=True)
    assert np.allclose(rep.nu_local, want_nu, rtol=1e-9)


@pytest.mark.parametrize("pairs", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_schmidt_relation_dressed_pure_state(pairs, seed):
    rng = np.random.default_rng(seed)
    rs = rng.uniform(0.1, 1.0, size=pairs)
    g = two_mode_squeezed(float(rs[0]))
    for r in rs[1:]:
        g = bipartite_mode_sum(g, two_mode_squeezed(float(r)))
    dressed = transform_bipartite(
        g, random_symplectic(pairs, seed=2 * seed), random_symplectic(pairs, seed=2 * seed + 1)
    )
    rep = schmidt_relation_check(dressed)
    assert rep.max_relative_error <= 1e-8
    assert np.allclose(rep.nu_local, np.sort(np.cosh(2 * rs))[::-1], rtol=1e-9)


def test_schmidt_rejects_dressed_mixed_state():
    g = two_mode_squeezed(0.5)
    mixed = BipartiteCovariance(n=1, gamma_a=g.gamma_a + 0.3 * np.eye(2), gamma_b=g.gamma_b, x=g.x)
    dressed = transform_bipartite(mixed, random_symplectic(1, seed=3), random_symplectic(1, seed=4))
    with pytest.raises(NotPure):
        schmidt_relation_check(dressed)


def test_schmidt_rejects_mixed_state():
    g = two_mode_squeezed(0.5)
    mixed = BipartiteCovariance(n=1, gamma_a=1.5 * g.gamma_a, gamma_b=1.5 * g.gamma_b, x=1.5 * g.x)
    with pytest.raises(NotPure):
        schmidt_relation_check(mixed)


# --- channels -------------------------------------------------------------------


def test_apply_identity_channel():
    ch = GaussianChannel.from_xy(np.eye(2), np.zeros((2, 2)))
    gamma = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.allclose(apply_channel(gamma, ch), gamma)


def test_apply_attenuator_vacuum_fixed_point():
    ch = attenuator(0.36)
    assert np.allclose(apply_channel(vacuum(1), ch), np.eye(2), atol=1e-14)


def test_apply_amplifier():
    ch = GaussianChannel(n=1, x=np.sqrt(2.0) * np.eye(2), y=np.eye(2))
    assert np.allclose(apply_channel(vacuum(1), ch), 3 * np.eye(2), atol=1e-14)


def test_apply_channel_output_symmetric():
    rng = np.random.default_rng(4)
    ch = random_valid_channel(2, 2, squeezing=True, seed=4)
    gamma = rng.standard_normal((4, 4))
    gamma = gamma @ gamma.T + np.eye(4)
    out = apply_channel(gamma, ch)
    assert np.linalg.norm(out - out.T) <= 1e-12 * max(1.0, np.linalg.norm(out))


def test_apply_channel_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_channel(np.eye(4), attenuator(0.5, n=1))


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_channel_composition(seed):
    rng = np.random.default_rng(seed)
    ch1 = random_valid_channel(2, 1, squeezing=True, seed=seed)
    ch2 = random_valid_channel(2, 1, squeezing=False, seed=seed + 1)
    gamma = rng.standard_normal((4, 4))
    gamma = gamma @ gamma.T + np.eye(4)
    seq = apply_channel(apply_channel(gamma, ch1), ch2)
    composed = GaussianChannel(
        n=2, x=ch1.x @ ch2.x, y=ch2.x.T @ ch1.y @ ch2.x + ch2.y
    )
    direct = apply_channel(gamma, composed)
    assert np.linalg.norm(seq - direct) <= 1e-10 * max(1.0, np.linalg.norm(direct))


def test_channel_validity_identity():
    rep = channel_validity(GaussianChannel.from_xy(np.eye(2), np.zeros((2, 2))))
    assert rep.valid
    assert rep.min_eig == pytest.approx(0.0, abs=1e-12)


def test_channel_validity_attenuator():
    rep = channel_validity(attenuator(0.36))
    assert rep.valid


def test_channel_validity_noiseless_amplifier():
    # oracle: Y + i(2 sigma - sigma) = i sigma has eigenvalues +/- 1
    ch = GaussianChannel(n=1, x=np.sqrt(2.0) * np.eye(2), y=np.zeros((2, 2)))
    rep = channel_validity(ch)
    assert not rep.valid
    assert rep.min_eig == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize(
    "n, x, y, error",
    [
        (2, np.eye(3), np.eye(4), DimensionError),  # odd X
        (1, np.eye(4), np.eye(4), DimensionError),  # X and Y disagree with n
        (1, np.eye(2), np.array([[1.0, np.inf], [0.0, 1.0]]), InvalidInput),
        (1, np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), NotSymmetric),
    ],
)
def test_malformed_channel_is_refused_at_construction(n, x, y, error):
    with pytest.raises(error):
        GaussianChannel(n=n, x=x, y=y)


def test_normalize_identity_channel():
    res = normalize_channel(GaussianChannel.from_xy(np.eye(2), np.zeros((2, 2))))
    assert np.allclose(res.ch_out.x, np.eye(2), atol=1e-10)
    assert res.blocks.blocks[0].re == pytest.approx(1.0, abs=1e-10)


def test_normalize_attenuator():
    res = normalize_channel(attenuator(0.36), seed=1)
    assert np.allclose(res.ch_out.x, np.diag([1.0, 0.36]), atol=1e-10)
    assert res.blocks.blocks[0].re == pytest.approx(0.36, abs=1e-10)
    assert is_symp_ok(res.s1) and is_symp_ok(res.s2)


def is_symp_ok(s):
    from sympeq import is_symplectic

    return is_symplectic(s).residual <= 1e-8


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_normalize_preserves_validity_verdicts(seed):
    base = random_valid_channel(2, 2, squeezing=bool(seed % 2), seed=seed)
    noise = 0.05 * max(1.0, np.linalg.norm(base.y))
    dim = 2 * base.n
    valid_ch = GaussianChannel.from_xy(base.x, base.y + noise * np.eye(dim))
    invalid_ch = GaussianChannel(n=base.n, x=base.x, y=base.y - noise * np.eye(dim))
    assert channel_validity(valid_ch).valid
    assert not channel_validity(invalid_ch).valid
    res_v = normalize_channel(valid_ch, seed=seed)
    res_i = normalize_channel(invalid_ch, seed=seed)
    assert channel_validity(res_v.ch_out).valid
    assert not channel_validity(res_i.ch_out).valid


# --- passive interactions and the witness ----------------------------------------


def test_passive_trivial():
    pi = passive_interaction(np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(pi.x, np.eye(4))
    assert np.allclose(sigma_matrix(pi.x), np.eye(4))


def test_passive_beam_splitter_angles():
    theta, phi = 0.3, 1.1
    c = np.diag([math.cos(theta), math.cos(phi)])
    d = np.diag([math.sin(theta), math.sin(phi)])
    pi = passive_interaction(c, d)
    assert np.allclose(sigma_matrix(pi.x), np.eye(4), atol=1e-14)
    spectrum = invariants(pi.x)
    assert [v.re for v in spectrum.values] == pytest.approx([1.0, 1.0], abs=1e-12)


@given(seeds, st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_passive_closed_form_matches_direct(seed, n):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n))
    d = rng.standard_normal((n, n))
    pi = passive_interaction(c, d)
    closed = np.block(
        [
            [d @ d.T + c @ c.T, d @ c.T - c @ d.T],
            [c @ d.T - d @ c.T, d @ d.T + c @ c.T],
        ]
    )
    direct = sigma_matrix(pi.x)
    scale = max(1.0, np.linalg.norm(closed))
    assert np.linalg.norm(closed - direct) <= 1e-10 * scale
    assert np.linalg.norm(direct - direct.T) <= 1e-10 * scale
    eig_im = np.abs(np.linalg.eigvals(direct).imag)
    assert np.max(eig_im) <= 1e-10 * scale


def test_witness_passive_is_inconclusive():
    pi = passive_interaction(np.diag([0.8, 0.6]), np.diag([0.1, 0.2]))
    rep = squeezing_witness(pi.x)
    assert rep.verdict == INCONCLUSIVE
    assert not rep.complex_found


def test_witness_complex_block():
    x = np.zeros((4, 4))
    x[:2, :2] = np.eye(2)
    x[2:, 2:] = [[1.0, 2.0], [-2.0, 1.0]]
    rep = squeezing_witness(x)
    assert rep.verdict == SQUEEZING_WITNESSED
    assert rep.spectrum.values[0].kind == COMPLEX_PAIR


def test_witness_one_directional_on_squeezer():
    rep = squeezing_witness(np.diag([2.0, 0.5]))
    assert rep.verdict == INCONCLUSIVE
    assert rep.spectrum.values[0].re == pytest.approx(1.0, abs=1e-12)


# --- channel generator --------------------------------------------------------


def test_random_channel_deterministic():
    a = random_valid_channel(2, 2, squeezing=False, seed=3)
    b = random_valid_channel(2, 2, squeezing=False, seed=3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


@given(seeds, st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_channel_is_valid(seed, squeezing):
    ch = random_valid_channel(2, 2, squeezing=squeezing, seed=seed)
    rep = channel_validity(ch)
    assert rep.valid
    assert ch.validity_residual <= 1e-10


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_passive_channel_has_real_invariants(seed):
    ch = random_valid_channel(2, 2, squeezing=False, seed=seed)
    tight = Tolerances(degeneracy_gap=1e-8)
    rep = squeezing_witness(ch.x, tight)
    assert rep.verdict == INCONCLUSIVE
    # structure check: the reduced block keeps the passive form
    n = ch.n
    c, d = ch.x[:n, :n], ch.x[:n, n:]
    assert np.array_equal(ch.x[n:, :n], -d)
    assert np.array_equal(ch.x[n:, n:], c)
