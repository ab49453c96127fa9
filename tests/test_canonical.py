import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympeq import canonical
from sympeq import (
    COMPLEX_PAIR,
    REAL,
    ClusteringAmbiguous,
    DegenerateSpectrum,
    Decomposition,
    EigenFailure,
    Invariant,
    InvariantSpectrum,
    NotPositiveDefinite,
    NotSymmetric,
    SingularInput,
    SympeqError,
    block_diagonalize_skew_hamiltonian,
    canonical_from_invariants,
    channel_validity,
    decompose,
    direct_sum,
    factor_two_symmetric,
    invariants,
    is_symplectic,
    multiset_distance,
    normalize_channel,
    random_symplectic,
    random_valid_channel,
    sigma_matrix,
    verify_decomposition,
    williamson,
    williamson_invariant_gap,
)
from sympeq.invariants import spectrum_from_eigenvalues

seeds = st.integers(min_value=0, max_value=10**6)


def spectrum_of(*entries) -> InvariantSpectrum:
    values = []
    slots = 0
    for e in entries:
        if isinstance(e, tuple):
            values.append(Invariant(e[0], e[1], COMPLEX_PAIR))
            slots += 2
        else:
            values.append(Invariant(float(e), 0.0, REAL))
            slots += 1
    values.sort(key=lambda v: (-v.re, v.im))
    return InvariantSpectrum(n=slots, values=tuple(values), pairing_residual=0.0, has_zero=False)


# --- stage-1 helpers against their per-column references --------------------


def _fix_phase_column(col):
    k = int(np.argmax(np.abs(col)))
    pivot = col[k]
    if pivot == 0:
        return col
    if np.iscomplexobj(col):
        return col * (np.conj(pivot) / abs(pivot))
    return col if pivot > 0 else -col


def test_fix_phase_equals_per_column_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    for trial in range(2000):
        rows, k = int(rng.integers(1, 17)), int(rng.integers(1, 9))
        cols = rng.standard_normal((rows, k)) * 10.0 ** rng.uniform(-8, 8)
        if trial % 2:
            cols = cols + 1j * rng.standard_normal((rows, k))
        cols = np.asarray(cols, order="CF"[trial % 4 // 2])
        reference = np.column_stack([_fix_phase_column(cols[:, j]) for j in range(k)])
        assert canonical._fix_phase(cols).tobytes() == reference.tobytes()


# --- stage 1 against the per-cluster Gram-Schmidt -----------------------------


def _reference_pairs(basis, sig):
    # symplectic Gram-Schmidt on one cluster, vector by vector
    c = 2.0 if np.iscomplexobj(basis) else 1.0
    cols = [basis[:, i].copy() for i in range(basis.shape[1])]
    pairs = []
    while cols:
        u = cols.pop(0)
        u = u / np.linalg.norm(u)
        us = u @ sig
        scores = [abs(us @ v) / np.linalg.norm(v) for v in cols]
        w = cols.pop(int(np.argmax(scores)))
        w = w / (-(us @ w) / c)
        balance = math.sqrt(np.linalg.norm(w))
        u, w = u * balance, w / balance
        us, ws = u @ sig, w @ sig
        cols = [v - ((ws @ v) / c) * u + ((us @ v) / c) * w for v in cols]
        cols = [v / np.linalg.norm(v) for v in cols]
        pairs.append((u, w))
    return pairs


def _reference_stage1_basis(v, clusters, n):
    """T = S^{-1} built cluster by cluster, one SVD and one pairing each."""
    sig = canonical.readonly_form(n)
    u_cols, w_cols = [], []
    for inv, idx in clusters:
        raw = v[:, idx]
        if inv.kind == REAL:
            stack = np.column_stack([raw.real, raw.imag]) if np.iscomplexobj(raw) else raw
            basis = np.linalg.svd(stack, full_matrices=False)[0][:, : len(idx)]
            for u, w in _reference_pairs(basis, sig):
                u_cols.append(u)
                w_cols.append(w)
        else:
            basis = np.linalg.svd(raw, full_matrices=False)[0][:, : len(idx)]
            for z, y in _reference_pairs(basis, sig):
                u_cols += [z.real, z.imag]
                w_cols += [y.real, -y.imag]
    return np.column_stack(u_cols + w_cols)


def _projector(cols):
    q = np.linalg.svd(cols, full_matrices=False)[0]
    return q @ q.T


@pytest.mark.parametrize("t", range(3))
def test_stacked_stage1_spans_the_per_cluster_eigenspaces(t):
    # real and complex clusters of sizes 2, 4 and 6 in one call
    p = lambda a, b: np.array([[a, b], [-b, a]])
    blocks = [[[1.5]], *[[[2.5]]] * 2, *[[[3.5]]] * 3]
    blocks += [p(0.5, 1.0), *[p(-1.0, 0.7)] * 2, *[p(0.3, 2.0)] * 3]
    j = blocks[0]
    for blk in blocks[1:]:
        j = direct_sum(j, blk)
    n = j.shape[0]
    x = random_symplectic(n, 80 + t) @ direct_sum(np.eye(n), j) @ random_symplectic(n, 90 + t)
    sig_h = sigma_matrix(x)
    w, v = np.linalg.eig(sig_h)
    clusters = spectrum_from_eigenvalues(w, canonical.DEFAULT_TOL)[1]
    assert {(inv.kind, len(idx)) for inv, idx in clusters} == {
        (kind, d) for kind in (REAL, COMPLEX_PAIR) for d in (2, 4, 6)
    }

    s, m = canonical._block_diagonalize(sig_h, v, clusters, canonical.DEFAULT_TOL)
    sig = canonical.readonly_form(n)
    assert np.linalg.norm(s @ sig @ s.T - sig) <= 1e-13 * max(1.0, np.linalg.norm(s) ** 2)
    t_new, t_ref = np.linalg.inv(s), _reference_stage1_basis(v, clusters, n)
    offset = 0
    for inv, idx in clusters:
        width = len(idx) // 2 if inv.kind == REAL else len(idx)
        cols = np.r_[offset : offset + width, n + offset : n + offset + width]
        gap = np.linalg.norm(_projector(t_new[:, cols]) - _projector(t_ref[:, cols]))
        assert gap <= 1e-8, (inv, gap)
        offset += width


@pytest.mark.parametrize("n", [4, 8, 16])
def test_stage1_svds_do_not_grow_with_n(monkeypatch, n):
    # one stage-1 SVD per (kind, size) group of clusters, plus the three of
    # reciprocal_condition (X, the stage-1 basis T and R)
    x = np.random.default_rng(n).standard_normal((2 * n, 2 * n))
    w = np.linalg.eigvals(sigma_matrix(x))
    clusters = spectrum_from_eigenvalues(w, canonical.DEFAULT_TOL)[1]
    groups = {(inv.kind, len(idx)) for inv, idx in clusters}
    assert groups <= {(REAL, 2), (COMPLEX_PAIR, 2)} and len(clusters) >= n // 2
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    decompose(x)
    assert len(calls) <= len(groups) + 3, calls


def test_real_jordan_basis_orthonormalises_an_ill_conditioned_repeat(monkeypatch):
    # a fourfold invariant: -M has a fourfold eigenvalue 2.0, and eig may
    # return any basis of its eigenspace, here one with rcond about 1e-7.
    # decompose finishes this input on its first attempt, so that attempt is
    # rejected here to drive the re-basing
    j = np.diag([2.0, 2.0, 2.0, 2.0, -1.0])
    x = random_symplectic(5, 70) @ direct_sum(np.eye(5), j) @ random_symplectic(5, 71)
    eig = np.linalg.eig
    skewed = []

    def skewing(a):
        w, v = eig(a)
        if a.shape[0] != 5:
            return w, v
        rep = np.flatnonzero(np.abs(w - 2.0) < 1e-6)
        assert rep.size == 4 and not np.iscomplexobj(v)
        mix = np.eye(4)
        mix[0, 1:] = 1.0
        mix[1:, 1:] *= 1e-6
        v = v.copy()
        v[:, rep] = v[:, rep] @ mix
        v[:, rep] /= np.linalg.norm(v[:, rep], axis=0)
        skewed.append(np.linalg.cond(v[:, rep]))
        return w, v

    jordan = canonical._real_jordan_basis
    bases = []

    def recording(*args):
        out = jordan(*args)
        bases.append(out[0])
        return out

    monkeypatch.setattr(np.linalg, "eig", skewing)
    monkeypatch.setattr(canonical, "_real_jordan_basis", recording)
    attempts = _reject_first_attempt(monkeypatch)
    d = decompose(x)
    assert len(attempts) == 2 and len(bases) == 1
    assert skewed and skewed[0] > 1e6
    assert verify_decomposition(x, d).verdict
    assert canonical.reciprocal_condition(bases[0]) >= 1e-3


@pytest.mark.parametrize("p", [86, 90, 120])
def test_decompose_survives_an_overflowing_residual_norm(p):
    # the rounding residue of S1 X S2 - I (+) J is about |X|^2 1e-16, whose
    # square overflows past |X| ~ 1e85
    x = 10.0**p * np.random.default_rng(0).standard_normal((4, 4))
    d = decompose(x)
    assert verify_decomposition(x, d).verdict


def test_overflow_safe_norm_leaves_finite_results_bit_identical(monkeypatch):
    x = 1e84 * np.random.default_rng(0).standard_normal((4, 4))
    d = decompose(x)
    monkeypatch.setattr(canonical, "frobenius", lambda a: float(np.linalg.norm(a)))
    plain = decompose(x)
    assert d.s1.tobytes() == plain.s1.tobytes() and d.s2.tobytes() == plain.s2.tobytes()
    assert (d.recon_residual, d.s1_residual, d.s2_residual) == (
        plain.recon_residual,
        plain.s1_residual,
        plain.s2_residual,
    )


# --- canonical_from_invariants ----------------------------------------------


def test_assemble_single_unit_invariant():
    assert np.array_equal(canonical_from_invariants(spectrum_of(1.0)).assembled, np.eye(2))


def test_assemble_single_real_invariant():
    blocks = canonical_from_invariants(spectrum_of(9.0))
    assert np.array_equal(blocks.assembled, np.diag([1.0, 9.0]))


def test_assemble_complex_pair():
    blocks = canonical_from_invariants(spectrum_of((1.0, 2.0)))
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 2],
            [0, 0, -2, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(blocks.assembled, want)


# --- factor_two_symmetric ----------------------------------------------------


def check_factors(m, fact, rtol=1e-8):
    assert np.linalg.norm(fact.a - fact.a.T) <= 1e-12 * max(1.0, np.linalg.norm(fact.a))
    assert np.linalg.norm(fact.b - fact.b.T) <= 1e-12 * max(1.0, np.linalg.norm(fact.b))
    assert np.linalg.norm(fact.a @ fact.b - m) <= rtol * max(1.0, np.linalg.norm(m))
    assert np.linalg.cond(fact.a) < 1e12


def test_factor_symmetric_input():
    # (I, M) is trivially valid for symmetric M; any valid pair is accepted
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3))
    m = m + m.T
    assert np.allclose(np.eye(3) @ m, m)  # the trivial pair really is valid
    check_factors(m, factor_two_symmetric(m, seed=1))


def test_factor_quarter_rotation():
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    # frozen witness pair from direct multiplication
    a_ref = np.diag([1.0, -1.0])
    b_ref = np.array([[0.0, -1.0], [-1.0, 0.0]])
    assert np.array_equal(a_ref @ b_ref, m)
    check_factors(m, factor_two_symmetric(m, seed=0))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_factor_random_8x8(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((8, 8))
    check_factors(m, factor_two_symmetric(m, seed=seed))


def test_factor_determinism():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((5, 5))
    f1 = factor_two_symmetric(m, seed=7)
    f2 = factor_two_symmetric(m, seed=7)
    assert np.array_equal(f1.a, f2.a) and np.array_equal(f1.b, f2.b)


def test_factor_singular_input_still_factors():
    m = np.diag([1.0, 0.0, 2.0])
    check_factors(m, factor_two_symmetric(m, seed=0))


# --- block_diagonalize_skew_hamiltonian --------------------------------------


def block_diag_residual(sig_h, s, m):
    n = m.shape[0]
    return np.linalg.norm(s @ sig_h @ np.linalg.inv(s) + direct_sum(m, m.T))


def test_block_diagonalize_identity():
    s, m = block_diagonalize_skew_hamiltonian(np.eye(2))
    assert np.allclose(m, [[-1.0]])
    assert np.allclose(s, np.eye(2))


def test_block_diagonalize_complex_pair_spectrum():
    x = np.zeros((4, 4))
    x[:2, :2] = np.eye(2)
    x[2:, 2:] = [[1.0, 2.0], [-2.0, 1.0]]
    sig_h = sigma_matrix(x)
    s, m = block_diagonalize_skew_hamiltonian(sig_h)
    got = np.sort_complex(np.linalg.eigvals(m))
    want = np.sort_complex(np.array([-(1 + 2j), -(1 - 2j)]))
    assert np.max(np.abs(got - want)) <= 1e-10
    assert is_symplectic(s).verdict
    assert block_diag_residual(sig_h, s, m) <= 1e-8 * max(1.0, np.linalg.norm(sig_h))


@given(seeds, st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_block_diagonalize_random(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    sig_h = sigma_matrix(x)
    try:
        s, m = block_diagonalize_skew_hamiltonian(sig_h)
    except DegenerateSpectrum:
        return  # near-degenerate draws may be rejected with a typed error
    assert is_symplectic(s).verdict
    cond = np.linalg.cond(s)
    assert block_diag_residual(sig_h, s, m) <= 1e-8 * cond * max(1.0, np.linalg.norm(sig_h))


def test_block_diagonalize_rejects_non_skew_hamiltonian():
    from sympeq import NotSkewHamiltonian

    bad = np.arange(16.0).reshape(4, 4)
    with pytest.raises(NotSkewHamiltonian):
        block_diagonalize_skew_hamiltonian(bad)


# --- williamson ---------------------------------------------------------------


def test_williamson_vacuum():
    res = williamson(np.eye(2))
    assert res.nu[0] == pytest.approx(1.0, abs=1e-12)
    assert res.occupations[0] == pytest.approx(0.0, abs=1e-12)


def test_williamson_thermal():
    res = williamson(np.diag([2.0, 2.0]))
    assert res.nu[0] == pytest.approx(2.0, abs=1e-12)
    assert res.occupations[0] == pytest.approx(0.5, abs=1e-12)
    # S = I satisfies the contract for a matrix commuting with the form
    assert np.allclose(res.s @ np.diag([2.0, 2.0]) @ res.s.T, np.diag([2.0, 2.0]))


def test_williamson_scalar_cosh():
    c = math.cosh(1.0)
    res = williamson(c * np.eye(2))
    assert res.nu[0] == pytest.approx(c, rel=1e-12)


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_williamson_random_spd(seed, n):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((2 * n, 2 * n))
    x = r @ r.T + np.eye(2 * n)
    res = williamson(x)
    d = np.diag(np.concatenate([res.nu, res.nu]))
    scale = max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(res.s @ x @ res.s.T - d) <= 1e-8 * scale
    assert is_symplectic(res.s).verdict
    assert np.all(np.diff(res.nu) <= 1e-12)  # descending
    assert np.all(res.nu > 0)


def test_williamson_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        williamson(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_williamson_eigensolve_failure_is_typed(monkeypatch):
    import scipy.linalg

    def failing(*args, **kwargs):
        raise scipy.linalg.LinAlgError("The algorithm failed to converge.")

    monkeypatch.setattr(scipy.linalg, "eigh", failing)
    with pytest.raises(EigenFailure, match="eigensolve"):
        williamson(np.diag([2.0, 2.0]))


def test_williamson_dressed_tmss_with_all_frequencies_one():
    # A dressed two-mode squeezed state: i Y has a fourfold +-1, on which
    # LAPACK's real Schur form of Y does not converge.
    x = np.array([
        [0.57183959375093496, -0.31629377870669784, 0.46004549994980537, -0.39563118826770893],
        [-0.31629377870669784, 0.48833092166011166, -0.23896613306990699, 0.63883069952139082],
        [0.46004549994980537, -0.23896613306990699, 3.0958547885961489, 1.4674586054595284],
        [-0.39563118826770893, 0.63883069952139082, 1.4674586054595284, 4.0275867408997739],
    ])
    res = williamson(x)
    assert np.allclose(res.nu, [1.0, 1.0], rtol=0.0, atol=1e-9)
    assert is_symplectic(res.s).verdict


@pytest.mark.parametrize("nu", [(3.0, 3.0, 3.0, 1.5), (1.0, 1.0, 1.0, 1.0), (2.0, 2.0), (1.0, 1.0, 1.0)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_williamson_repeated_frequencies(nu, seed):
    n = len(nu)
    s0 = random_symplectic(n, seed=seed)
    x = s0 @ np.diag(np.concatenate([nu, nu])) @ s0.T
    res = williamson(x)
    d = np.diag(np.concatenate([res.nu, res.nu]))
    assert is_symplectic(res.s).verdict
    assert np.linalg.norm(res.s @ x @ res.s.T - d) <= 1e-10 * np.linalg.norm(d)
    assert np.allclose(res.nu, sorted(nu, reverse=True), rtol=1e-10, atol=0.0)
    assert np.all(np.diff(res.nu) <= 0.0)  # descending


def test_williamson_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        williamson(np.diag([1.0, -1.0]))


@given(seeds, st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_invariants_are_squared_frequencies(seed, n):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((2 * n, 2 * n))
    x = r @ r.T + np.eye(2 * n)
    assert williamson_invariant_gap(x) <= 1e-6


# --- decompose ----------------------------------------------------------------


def test_decompose_identity():
    d = decompose(np.eye(4))
    assert np.allclose(d.blocks.assembled, np.eye(4), atol=1e-10)
    assert all(v.re == pytest.approx(1.0, abs=1e-10) for v in d.blocks.blocks)
    assert d.recon_residual <= 1e-10


def test_decompose_scalar():
    d = decompose(3 * np.eye(2))
    assert np.allclose(d.blocks.assembled, np.diag([1.0, 9.0]), atol=1e-10)
    # the hand-built witness pair also satisfies the contract
    witness = Decomposition(
        s1=np.diag([1.0 / 3.0, 3.0]),
        s2=np.eye(2),
        blocks=d.blocks,
        recon_residual=0.0,
        s1_residual=0.0,
        s2_residual=0.0,
    )
    assert verify_decomposition(3 * np.eye(2), witness).verdict


def test_decompose_squeezed_correlation_block():
    s = math.sinh(1.0)  # 2r with r = 0.5
    x = s * np.diag([1.0, -1.0])
    # oracle: diag(1/s, s) @ x = diag(1, -s^2) by direct arithmetic
    assert np.allclose(np.diag([1.0 / s, s]) @ x, np.diag([1.0, -s * s]))
    d = decompose(x, seed=4)
    assert np.allclose(d.blocks.assembled, np.diag([1.0, -s * s]), atol=1e-10)


def test_decompose_canonical_fixed_point_complex():
    x = np.zeros((4, 4))
    x[:2, :2] = np.eye(2)
    x[2:, 2:] = [[1.0, 2.0], [-2.0, 1.0]]
    d = decompose(x, seed=9)
    assert np.allclose(d.blocks.assembled, x, atol=1e-9)
    assert [v.kind for v in d.blocks.blocks] == [COMPLEX_PAIR]
    assert d.blocks.blocks[0].im > 0


def test_decompose_rejects_singular():
    with pytest.raises(SingularInput):
        decompose(np.diag([1.0, 0.0]))


def test_decompose_debug_mode_runs():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((6, 6))
    d = decompose(x, seed=21, debug=True)
    assert verify_decomposition(x, d).verdict


def test_decompose_ill_conditioned_stage1_channel():
    # stage 1 is ill-conditioned here (rcond of its basis about 6e-5) and
    # leaves off-block mass in M; the first attempt, which reads M as block
    # diagonal, still meets the contract (s2 6.1e-9, against 2.6e-9 after
    # re-basing on an eigenbasis of -M)
    ch = random_valid_channel(8, 4, squeezing=True, seed=2)
    normalize_channel(ch)
    d = decompose(ch.x)
    assert verify_decomposition(ch.x, d).verdict


@pytest.mark.parametrize("t", [0, 1, 2])
def test_decompose_snapped_near_real_pair(t):
    near_real = direct_sum(np.array([[1.0, 1e-9], [-1e-9, 1.0]]), np.array([[3.0]]))
    n_mat = direct_sum(np.eye(3), near_real)
    x = random_symplectic(3, 10 + t) @ n_mat @ random_symplectic(3, 20 + t)
    d = decompose(x)
    assert verify_decomposition(x, d).verdict
    blocks = d.blocks.blocks
    assert [v.kind for v in blocks] == [REAL, REAL, REAL]
    assert blocks[1].re == blocks[2].re == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize(
    "t, c",
    [
        pytest.param(t, c, id=str(t) if c == 1.0 else f"{t}-c{c:g}")
        for c in (1.0, 1e-3, 1e3)
        for t in range(16)
    ],
)
def test_decompose_real_and_pair_with_tied_real_parts(t, c):
    # the real invariant 2 and the pair 2 +- 1e-3 i tie in their real part;
    # rounding in the eigensolve must not swap their slots, at any scale
    x = c * _tied_real_parts(t)
    d = decompose(x)
    assert verify_decomposition(x, d).verdict
    assert [v.kind for v in d.blocks.blocks] == [REAL, COMPLEX_PAIR, REAL]


@pytest.mark.parametrize("t", range(8))
def test_decompose_repeated_real_and_pair_clusters(t):
    # a threefold real invariant and a twofold pair: symplectic pairing must
    # project within each repeated cluster, in the real and the complex case
    p = [[1.0, 2.0], [-2.0, 1.0]]
    j = direct_sum(direct_sum(p, p), np.diag([3.0, 3.0, 3.0]))
    x = random_symplectic(7, 50 + t) @ direct_sum(np.eye(7), j) @ random_symplectic(7, 60 + t)
    d = decompose(x)
    assert verify_decomposition(x, d).verdict
    assert [v.kind for v in d.blocks.blocks] == [REAL, REAL, REAL, COMPLEX_PAIR, COMPLEX_PAIR]


def test_decompose_eigensolves_sigma_once(monkeypatch):
    # one eig of Sigma(X) serves the invariants and stage 1, and a generic X
    # is finished from stage 1's block form with no eigensolve of -M
    calls = {"eig": 0, "eigvals": 0, "invariants": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    spy = counting("invariants", invariants)
    monkeypatch.setattr(importlib.import_module("sympeq.invariants"), "invariants", spy)
    monkeypatch.setattr(canonical, "invariants", spy)
    x = np.random.default_rng(5).standard_normal((8, 8))
    decompose(x)
    assert calls == {"eig": 1, "eigvals": 0, "invariants": 0}


def _tied_real_parts(t):
    j = direct_sum(direct_sum([[2.0]], [[2.0, 1e-3], [-1e-3, 2.0]]), [[1.0]])
    return random_symplectic(4, 30 + t) @ direct_sum(np.eye(4), j) @ random_symplectic(4, 40 + t)


def _repeated_clusters(t):
    p = [[1.0, 2.0], [-2.0, 1.0]]
    j = direct_sum(direct_sum(p, p), np.diag([3.0, 3.0, 3.0]))
    return random_symplectic(7, 50 + t) @ direct_sum(np.eye(7), j) @ random_symplectic(7, 60 + t)


def _near_real_pair(t):
    near_real = direct_sum(np.array([[1.0, 1e-9], [-1e-9, 1.0]]), np.array([[3.0]]))
    return random_symplectic(3, 10 + t) @ direct_sum(np.eye(3), near_real) @ random_symplectic(3, 20 + t)


def _mass_between_clusters():
    # every cluster is a singleton, but stage 1's basis has rcond 2.7e-4 and
    # leaves 7.3e-12 of mass between clusters in M; the first attempt misses
    # the contract (s2 2.47e-8), and only an eigensolve of all of -M, not one
    # per cluster block, removes that mass
    return random_valid_channel(7, 6, squeezing=True, seed=519043367)


def _scaled_gaussian(seed, n, power):
    return 10.0**power * np.random.default_rng(seed).standard_normal((2 * n, 2 * n))


@pytest.mark.parametrize(
    "x",
    [_scaled_gaussian(s, 1 + s % 6, p) for s in range(6) for p in (-4, -2, 0, 4)]
    + [_repeated_clusters(t) for t in range(2)]
    + [_near_real_pair(t) for t in range(2)]
    + [_tied_real_parts(t) for t in range(4)],
)
def test_decompose_blocks_equal_invariants_exactly(x):
    # decompose reads its blocks off the same eigenvalues that invariants
    # computes separately: equal to the last bit, with no tolerance
    spectrum = invariants(x)
    if spectrum.has_zero:
        # an invariant within the relative gap of zero (X near singular):
        # decompose refuses the same input
        with pytest.raises(SingularInput):
            decompose(x)
        return
    assert decompose(x).blocks.blocks == spectrum.values


def _reject_first_attempt(monkeypatch):
    """Make decompose's contract gate refuse its first attempt; returns the
    list of decompositions the gate has seen."""
    meets = canonical._meets_contract
    attempts = []

    def rejecting(d, tol):
        attempts.append(d)
        return len(attempts) > 1 and meets(d, tol)

    monkeypatch.setattr(canonical, "_meets_contract", rejecting)
    return attempts


def _counting_rebases(monkeypatch):
    jordan = canonical._real_jordan_basis
    calls = []

    def counting(*args):
        calls.append(args[0].shape[0])
        return jordan(*args)

    monkeypatch.setattr(canonical, "_real_jordan_basis", counting)
    return calls


@pytest.mark.parametrize("n", [4, 8, 16])
def test_decompose_finishes_gaussian_input_without_rebasing(monkeypatch, n):
    calls = _counting_rebases(monkeypatch)
    x = np.random.default_rng(n).standard_normal((2 * n, 2 * n))
    d = decompose(x)
    assert calls == []
    assert verify_decomposition(x, d).verdict


@pytest.mark.parametrize("t", [2, 21])
def test_decompose_rebases_a_near_real_pair_that_misses_the_contract(monkeypatch, t):
    # the snapped pair 1 +- 1e-9 i leaves e M asymmetric by about 2.5e-9; on
    # these dressings that puts the first attempt's S2 off the contract
    # (s2 1.1e-8 and 2.6e-8), and the re-based one on it (1.3e-9 and 2.6e-9)
    calls = _counting_rebases(monkeypatch)
    x = _near_real_pair(t)
    d = decompose(x)
    assert calls == [3]
    assert verify_decomposition(x, d).verdict


def test_rebasing_rescues_mass_between_clusters(monkeypatch):
    calls = _counting_rebases(monkeypatch)
    ch = _mass_between_clusters()
    d = decompose(ch.x)
    assert calls == [7]
    assert verify_decomposition(ch.x, d).verdict
    res = normalize_channel(ch)
    assert calls == [7, 7]
    assert verify_decomposition(ch.x, Decomposition(res.s1, res.s2, res.blocks, 0.0, 0.0, 0.0)).verdict
    assert channel_validity(res.ch_out).valid


@pytest.mark.parametrize(
    "x",
    [_scaled_gaussian(s, 1 + s % 6, p) for s in range(6) for p in (0, 3)]
    + [_tied_real_parts(t) for t in range(4)]
    + [_repeated_clusters(t) for t in range(4)]
    + [_near_real_pair(t) for t in range(4)]
    + [_tied_real_parts(t) for t in range(4, 16)]
    + [_mass_between_clusters().x],
)
def test_rebasing_alone_verifies(monkeypatch, x):
    # the fallback path must stand on its own, although generic inputs
    # almost never reach it
    attempts = _reject_first_attempt(monkeypatch)
    d = decompose(x)
    assert len(attempts) == 2 and d is attempts[1]
    assert verify_decomposition(x, d).verdict


def test_decompose_is_deterministic_and_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose must not search for symmetric factors")

    monkeypatch.setattr(canonical, "factor_two_symmetric", refuse)
    x = np.random.default_rng(5).standard_normal((8, 8))
    d0 = decompose(x, seed=0)
    d1 = decompose(x, seed=12345, debug=True)
    assert np.array_equal(d0.s1, d1.s1)
    assert np.array_equal(d0.s2, d1.s2)


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_decompose_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    try:
        d = decompose(x, seed=seed)
    except (DegenerateSpectrum, ClusteringAmbiguous):
        return  # typed rejection is an allowed outcome
    report = verify_decomposition(x, d)
    assert report.verdict, report


def _decomposes(x) -> bool:
    try:
        decompose(x)
    except SympeqError:
        return False
    return True


@given(seeds, st.integers(min_value=1, max_value=6), st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=50, deadline=None)
def test_decompose_of_cx_succeeds_exactly_when_of_x(seed, n, log_c):
    x = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
    assert _decomposes(10.0**log_c * x) == _decomposes(x)


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_decompose_fixed_point_of_canonical_forms(seed):
    rng = np.random.default_rng(seed)
    # distinct invariants: two reals and one complex pair, n = 4
    reals = sorted(rng.uniform(0.5, 3.0, size=2))
    spec = spectrum_of(reals[0], reals[1] + 1.0, (float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0))))
    n_mat = canonical_from_invariants(spec).assembled
    d = decompose(n_mat, seed=seed)
    assert multiset_distance(invariants(n_mat), invariants(d.blocks.assembled)) <= 1e-8
    got = d.blocks.eigenvalues()
    want = canonical_from_invariants(spec).eigenvalues()
    assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def test_verify_detects_perturbation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4))
    d = decompose(x, seed=2)
    assert verify_decomposition(x, d).verdict
    bad = Decomposition(
        s1=d.s1 + 1e-3,
        s2=d.s2,
        blocks=d.blocks,
        recon_residual=d.recon_residual,
        s1_residual=d.s1_residual,
        s2_residual=d.s2_residual,
    )
    assert not verify_decomposition(x, bad).verdict


def test_verify_trivial_decomposition():
    blocks = canonical_from_invariants(spectrum_of(1.0, 1.0))
    d = Decomposition(
        s1=np.eye(4),
        s2=np.eye(4),
        blocks=blocks,
        recon_residual=0.0,
        s1_residual=0.0,
        s2_residual=0.0,
    )
    report = verify_decomposition(np.eye(4), d)
    assert report.verdict
    assert report.recon == 0.0 and report.s1 == 0.0 and report.s2 == 0.0
