import ast
import importlib
import math
from pathlib import Path

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
    DimensionError,
    EigenFailure,
    Invariant,
    InvariantSpectrum,
    IsotropicEigenspace,
    NotPositiveDefinite,
    NotSymmetric,
    SingularInput,
    SympeqError,
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
from sympeq.core import reciprocal_condition
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


@pytest.mark.parametrize(
    "t, snapped",
    [pytest.param(t, False, id=str(t)) for t in range(3)]
    + [pytest.param(t, True, id=f"snapped-{t}") for t in (10, 19, 30)],
)
def test_stacked_stage1_spans_the_per_cluster_eigenspaces(t, snapped):
    # real and complex clusters of sizes 2, 4 and 6 in one call; on the
    # snapped dressings eig returns the doubled real invariant 1.5 as a
    # near-real pair z, z-bar, so its real cluster of size 2 is built from
    # complex eigenvectors
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
    (plane,) = [idx for inv, idx in clusters if inv.kind == REAL and len(idx) == 2]
    assert (np.abs(v[:, plane].imag).max() > 0) == snapped

    s, _, t_new = canonical.block_diagonalize_skew_hamiltonian(sig_h, v, clusters)
    sig = canonical.readonly_form(n)
    assert np.linalg.norm(s @ sig @ s.T - sig) <= 1e-13 * max(1.0, np.linalg.norm(s) ** 2)
    t_ref = _reference_stage1_basis(v, clusters, n)
    offset = 0
    for inv, idx in clusters:
        width = len(idx) // 2 if inv.kind == REAL else len(idx)
        cols = np.r_[offset : offset + width, n + offset : n + offset + width]
        gap = np.linalg.norm(_projector(t_new[:, cols]) - _projector(t_ref[:, cols]))
        assert gap <= 1e-8, (inv, gap)
        offset += width


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_a_real_cluster_given_as_conjugate_pairs_spans_their_real_and_imaginary_parts(seed, m):
    # a real invariant m times beside a simple one, its cluster handed to
    # stage 1 as conjugate pairs z, z-bar, the way eig returns a snapped
    # pair: T's columns for it, built on the rows Re z + Im z, span the
    # same space as Re z and Im z
    n = m + 1
    form = direct_sum(np.eye(n), np.diag([1.7] * m + [0.6]))
    x = random_symplectic(n, 60 + seed) @ form @ random_symplectic(n, 70 + seed)
    sig_h = sigma_matrix(x)
    w, v = np.linalg.eig(sig_h)
    clusters = spectrum_from_eigenvalues(w, canonical.DEFAULT_TOL)[1]
    offset, idx = 0, None
    for _, members in clusters:
        if len(members) == 2 * m:
            idx = members
            break
        offset += len(members) // 2
    raw = v[:, idx]
    q = np.linalg.svd(np.column_stack([raw.real, raw.imag]))[0][:, : 2 * m]  # its real space
    z = q[:, 0::2] + 1j * q[:, 1::2]  # span(Re z, Im z) = span(q)
    v = v.astype(complex)
    v[:, idx] = np.column_stack([z, z.conj()]).reshape(2 * n, 2, m).transpose(0, 2, 1).reshape(2 * n, 2 * m)
    assert np.abs(v[:, idx].imag).max() > 0.1
    t = canonical.block_diagonalize_skew_hamiltonian(sig_h, v, clusters)[2]
    cols = np.r_[offset : offset + m, n + offset : n + offset + m]
    assert np.linalg.norm(_projector(t[:, cols]) - q @ q.T) <= 1e-12


def _plane(ratio, n, seed, complex_=False):
    # (a, b) rows spanning a 2-plane in R^2n or C^2n with s2 / s1 = ratio
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((2 * n, 2))
    if complex_:
        cols = cols + 1j * rng.standard_normal((2 * n, 2))
    q = np.linalg.qr(cols)[0]
    mix = rng.standard_normal((2, 2))
    rot = np.linalg.qr(mix + 1j * rng.standard_normal((2, 2)) if complex_ else mix)[0]
    raw = (q * [2.0, 2.0 * ratio]) @ rot  # a^H b complex in the complex case
    return raw[:, 0][None], raw[:, 1][None]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("offset, refused", [(-1e-3, True), (1e-3, False)])
def test_closed_form_planes_apply_the_rank_rule_of_the_svd(offset, refused, seed, complex_):
    # s2 / s1 = 1e-8 (1 +- 1e-3): the closed form refuses the plane exactly
    # where _orthonormal_spans refuses it
    a, b = _plane(1e-8 * (1 + offset), 3, seed, complex_)
    verdicts = []
    for span in (
        lambda: canonical._plane_pairs(np.stack((a, b), axis=1), canonical.readonly_form(3), 1.0 + complex_),
        lambda: canonical._orthonormal_spans(np.stack((a, b), axis=1), 2),
    ):
        try:
            span()
            verdicts.append(False)
        except DegenerateSpectrum as exc:
            assert "rank deficient" in str(exc)
            verdicts.append(True)
    assert verdicts == [refused, refused]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("seed", range(4))
def test_closed_form_planes_are_orthonormal_bases_of_their_spans(seed, complex_):
    # the pair (u, w) of a plane spanned by (a, b) is its Gram-Schmidt basis
    # a / |a|, b' / |b'| scaled to equal lengths with u^T sig w = -c
    n, c = 3, 1.0 + complex_
    a, b = _plane(0.3, n, seed, complex_)
    sig = canonical.readonly_form(n)
    (u,), (w,) = canonical._plane_pairs(np.stack((a, b), axis=1), sig, c)
    assert u.shape == w.shape == (2 * n,) and u.dtype == w.dtype == a.dtype
    assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(w), rel=1e-14)
    assert u @ sig @ w == pytest.approx(-c, rel=1e-14)
    q = np.vstack([u / np.linalg.norm(u), w / np.linalg.norm(w)])
    assert np.linalg.norm(q.conj() @ q.T - np.eye(2)) <= 1e-15
    assert np.linalg.norm(q[0] - a[0] / np.linalg.norm(a[0])) <= 1e-15
    span = np.linalg.svd(np.column_stack([a[0], b[0]]), full_matrices=False)[0]
    assert np.linalg.norm(q.T @ q.conj() - span @ span.conj().T) <= 1e-14


@pytest.mark.parametrize("kind", [REAL, COMPLEX_PAIR])
def test_stage1_refuses_an_isotropic_plane(kind):
    # span(e1, e2) of R^4 is isotropic, e1^T sig e2 = 0, and so is the
    # complex plane span(e1 + i e2, e2); either as a cluster's eigenvectors
    # fails the pairing
    e = np.eye(4)
    if kind == REAL:
        v = e
        clusters = [(Invariant(1.0, 0.0, REAL), [0, 1]), (Invariant(2.0, 0.0, REAL), [2, 3])]
    else:
        v = np.column_stack([e[0] + 1j * e[1], e[1], e[2], e[3]])
        clusters = [(Invariant(1.0, 1.0, COMPLEX_PAIR), [0, 1])]
    with pytest.raises(IsotropicEigenspace, match="symplectic form degenerates"):
        canonical.block_diagonalize_skew_hamiltonian(np.zeros((4, 4)), v, clusters)


@pytest.mark.parametrize("d", [6, 8])
def test_eigh_pairs_are_symplectic_and_span_their_basis(d):
    n, k = 5, 3
    q = np.linalg.qr(np.random.default_rng(d).standard_normal((k, 2 * n, d)))[0]
    sig = canonical.readonly_form(n)
    u, w = canonical._eigh_pairs(q.transpose(0, 2, 1), sig)
    assert u.shape == w.shape == (k, d // 2, 2 * n)
    for qi, ui, wi in zip(q, u, w):
        scale = np.linalg.norm(ui) * np.linalg.norm(wi)
        assert np.linalg.norm(ui @ sig @ wi.T + np.eye(d // 2)) <= 1e-14 * scale
        assert np.linalg.norm(ui @ sig @ ui.T) <= 1e-14 * scale
        assert np.linalg.norm(wi @ sig @ wi.T) <= 1e-14 * scale
        assert np.linalg.norm(_projector(np.vstack([ui, wi]).T) - qi @ qi.T) <= 1e-13


@pytest.mark.parametrize("coords", [range(6), [0, 1, 2, 3, 6, 7]], ids=["isotropic", "rank-4"])
def test_eigh_pairs_refuse_a_subspace_on_which_the_form_degenerates(coords):
    # in R^12, span(q1..q6) is isotropic, and on span(q1..q4, p1, p2) the
    # form has rank 4; either as a real cluster of six eigenvalues fails the
    # pairing
    e = np.eye(12)
    coords = list(coords)
    rest = [i for i in range(12) if i not in coords]
    clusters = [(Invariant(1.0, 0.0, REAL), [0, 1, 2, 3, 4, 5]), (Invariant(2.0, 0.0, REAL), list(range(6, 12)))]
    with pytest.raises(IsotropicEigenspace, match="symplectic form degenerates"):
        canonical.block_diagonalize_skew_hamiltonian(np.zeros((12, 12)), e[:, coords + rest], clusters)


def _repeated_real(n, r, seed):
    # I (+) r I_n, dressed: one real cluster of 2n eigenvalues
    return random_symplectic(n, seed) @ direct_sum(np.eye(n), r * np.eye(n)) @ random_symplectic(n, seed + 1)


def test_eigh_pairs_surface_an_eigensolve_failure_as_eigen_failure(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(EigenFailure, match="Hermitian eigensolve failed"):
        decompose(_repeated_real(3, 2.0, 5))


def _counting_null_spaces(monkeypatch):
    null_spaces = canonical._null_spaces
    calls = []

    def counting(sig_h, shifts, d):
        calls.append((len(shifts), d))
        return null_spaces(sig_h, shifts, d)

    monkeypatch.setattr(canonical, "_null_spaces", counting)
    return calls


def test_dependent_eigenvectors_of_a_repeated_invariant_take_the_null_space(monkeypatch):
    # the interaction block of a squeezing channel (input 721 of seed 46 of
    # the benchmark's apps-small workload) with the invariant 1 five times:
    # eig's ten vectors of its eigenspace fail the rank rule of their span,
    # and the null space of Sigma - I gives the basis instead
    calls = _counting_null_spaces(monkeypatch)
    x = random_valid_channel(6, 1, squeezing=True, seed=664279645).x
    assert verify_decomposition(x, decompose(x)).verdict
    assert calls == [(1, 10)]


def test_a_passive_channel_with_a_repeated_invariant_takes_the_closed_form(monkeypatch):
    # input 744 of seed 43 of the benchmark's apps-small workload: a passive
    # interaction block with the invariant 1 five times, whose eig vectors
    # once failed the rank rule of their span; it takes the complex SVD,
    # with no eigensolve and no null space
    calls = _counting_null_spaces(monkeypatch)
    eigs = _counting_linalg(monkeypatch, "eig")
    x = random_valid_channel(7, 2, squeezing=False, seed=752694768).x
    d = decompose(x)
    assert verify_decomposition(x, d).verdict
    assert calls == [] and eigs == []
    assert [v.re for v in d.blocks.blocks[:5]] == pytest.approx([1.0] * 5, rel=1e-12)


def test_a_defective_cluster_of_six_is_refused_by_the_null_space_rule(monkeypatch):
    # J = 2 I_3 + 1e-3 N with N nilpotent: the invariant 2 thrice, with one
    # eigenvector. eig's vectors fail the rank rule, and so does the null
    # space of Sigma - 2 I, whose dimension is short
    calls = _counting_null_spaces(monkeypatch)
    j = 2.0 * np.eye(3) + 1e-3 * np.diag([1.0, 1.0], 1)
    x = random_symplectic(3, 5) @ direct_sum(np.eye(3), j) @ random_symplectic(3, 6)
    with pytest.raises(DegenerateSpectrum, match="rank deficient"):
        decompose(x)
    assert calls == [(1, 6)]


@pytest.mark.parametrize("eps", [1e-8, 1e-7])
def test_merged_invariants_keep_the_basis_of_their_eigenvectors(monkeypatch, eps):
    # I (+) r diag(1, 1 + eps, 1 + 2 eps, ...) at n = 3..5, dressed: the n
    # invariants merge into one real cluster whose eigenvectors pass the
    # rank rule. The d smallest singular vectors of Sigma - lambda-bar I
    # span no invariant subspace of a merged cluster, and with them as its
    # basis 29 and 40 of these 40 inputs were refused
    calls = _counting_null_spaces(monkeypatch)
    for seed in range(40):
        n = 3 + seed % 3
        r = np.random.default_rng(seed).uniform(0.5, 3.0)
        form = direct_sum(np.eye(n), r * np.diag(1.0 + eps * np.arange(n)))
        x = random_symplectic(n, 2 * seed) @ form @ random_symplectic(n, 2 * seed + 1)
        assert verify_decomposition(x, decompose(x)).verdict, seed
    assert calls == []


def _counting_linalg(monkeypatch, name):
    # the shapes and dtypes of the arrays passed to numpy.linalg.<name>
    fn = getattr(np.linalg, name)
    calls = []

    def counting(a, *args, **kwargs):
        calls.append((np.shape(a), np.asarray(a).dtype.kind))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _counting_calls(monkeypatch, name):
    fn = getattr(canonical, name)
    calls = []

    def counting(stack, *args):
        calls.append(stack.shape)
        return fn(stack, *args)

    monkeypatch.setattr(canonical, name, counting)
    return calls


@pytest.mark.parametrize("n", range(3, 9))
def test_a_real_cluster_of_six_or_more_is_paired_by_the_eigensolve(monkeypatch, n):
    eigh = _counting_calls(monkeypatch, "_eigh_pairs")
    gram_schmidt = _counting_calls(monkeypatch, "_symplectic_pairs")
    x = _repeated_real(n, 1.5 + n / 10, 10 * n)
    assert verify_decomposition(x, decompose(x)).verdict
    assert eigh == [(1, 2 * n, 2 * n)] and gram_schmidt == []


@pytest.mark.parametrize("kind", [REAL, COMPLEX_PAIR])
def test_a_cluster_of_four_is_paired_by_gram_schmidt(monkeypatch, kind):
    eigh = _counting_calls(monkeypatch, "_eigh_pairs")
    gram_schmidt = _counting_calls(monkeypatch, "_symplectic_pairs")
    if kind == REAL:  # one real invariant twice
        x = _repeated_real(2, 1.7, 3)
    else:  # one complex pair twice
        p = np.array([[0.8, 1.3], [-1.3, 0.8]])
        x = random_symplectic(4, 3) @ direct_sum(np.eye(4), direct_sum(p, p)) @ random_symplectic(4, 4)
    assert verify_decomposition(x, decompose(x)).verdict
    assert eigh == [] and gram_schmidt == [(1, 4, x.shape[0])]


def test_stage1_takes_one_stack_per_cluster_size_and_kind(monkeypatch):
    # 2-planes of both kinds, a real and a complex cluster of four and a
    # real cluster of six: the planes are one stack, and each larger
    # cluster is the stack of its size and kind
    p = lambda a, b: np.array([[a, b], [-b, a]])
    blocks = [[[0.4]], p(0.5, 1.0), *[[[2.5]]] * 2, *[p(-1.0, 0.7)] * 2, *[[[3.5]]] * 3]
    j = blocks[0]
    for blk in blocks[1:]:
        j = direct_sum(j, blk)
    n = j.shape[0]
    x = random_symplectic(n, 81) @ direct_sum(np.eye(n), j) @ random_symplectic(n, 91)
    names = ("_plane_pairs", "_orthonormal_spans", "_eigh_pairs", "_symplectic_pairs")
    planes, spans, eigh, gram_schmidt = (_counting_calls(monkeypatch, name) for name in names)
    assert verify_decomposition(x, decompose(x)).verdict
    assert planes == [(2, 2, 2 * n)]
    assert sorted(spans) == [(1, 4, 2 * n), (1, 4, 2 * n), (1, 6, 2 * n)]
    assert eigh == [(1, 6, 2 * n)]
    assert gram_schmidt == [(1, 4, 2 * n)] * 2


def _mixed_gaussian(n):
    # the first seeded Gaussian X whose clusters are all 2-planes, of both
    # kinds: real invariants and complex pairs
    for seed in range(100 * n, 100 * n + 100):
        x = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
        clusters = spectrum_from_eigenvalues(np.linalg.eigvals(sigma_matrix(x)), canonical.DEFAULT_TOL)[1]
        if all(len(idx) == 2 for _, idx in clusters) and {inv.kind for inv, _ in clusters} == {REAL, COMPLEX_PAIR}:
            return x
    raise AssertionError("no Gaussian X with both kinds of 2-plane")


@pytest.mark.parametrize("n", range(5, 9))
def test_real_and_complex_planes_are_paired_as_one_stack(monkeypatch, n):
    x = _mixed_gaussian(n)
    calls = {}
    for name in ("_plane_pairs", "_orthonormal_spans"):
        def counting(*args, _name=name, _fn=getattr(canonical, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(canonical, name, counting)
    d = decompose(x)
    assert calls == {"_plane_pairs": 1}
    assert verify_decomposition(x, d).verdict


def _repeated_invariants(n, seed):
    # n / 4 units, in turns of two either a real invariant twice and a
    # simple complex pair, or a complex pair twice: n / 4 clusters of four
    # eigenvalues
    p = lambda a, b: np.array([[a, b], [-b, a]])
    j = np.zeros((0, 0))
    for i in range(n // 4):
        if i // 2 % 2 == 0:
            units = [[[1.5 + i]], [[1.5 + i]], p(0.5 + i, 1.0)]
        else:
            units = [p(-1.0 - i, 0.7)] * 2
        for blk in units:
            j = direct_sum(j, np.asarray(blk, dtype=float))
    return random_symplectic(n, seed) @ direct_sum(np.eye(n), j) @ random_symplectic(n, seed + 1)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_stage1_svds_do_not_grow_with_n(monkeypatch, n):
    # the n / 4 clusters of four eigenvalues take at most one batched
    # stage-1 SVD per (kind, size) group (2-planes take their bases in
    # closed form, with no SVD); the rcond gates of X and of the stage-1
    # basis T are settled by the bound from their inverses, so no full-size
    # (2-D) SVD runs
    x = _repeated_invariants(n, 7 * n)
    w = np.linalg.eigvals(sigma_matrix(x))
    clusters = spectrum_from_eigenvalues(w, canonical.DEFAULT_TOL)[1]
    large = [(inv.kind, len(idx)) for inv, idx in clusters if len(idx) >= 4]
    assert len(large) == n // 4 and set(large) <= {(REAL, 4), (COMPLEX_PAIR, 4)}
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert verify_decomposition(x, decompose(x)).verdict
    assert 0 < len(calls) <= len(set(large)), calls
    assert all(len(shape) == 3 for shape in calls), calls


@pytest.mark.parametrize("n", [4, 8, 16])
def test_decompose_of_a_well_conditioned_x_runs_no_full_size_svd(monkeypatch, n):
    # every cluster of a Gaussian X is a 2-plane, whose basis stage 1 takes
    # in closed form, and the rcond gates of X and of the stage-1 basis T are
    # settled by the bound from their inverses: no SVD runs at all
    x = np.random.default_rng(n).standard_normal((2 * n, 2 * n))
    shapes = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    d = decompose(x)
    assert verify_decomposition(x, d).verdict
    assert shapes == []


_X_GATE = "X is singular within tolerance (rcond < 1e-12)"


def _with_singular_values(sv: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((sv.size, sv.size)))[0]
    q2 = np.linalg.qr(rng.standard_normal((sv.size, sv.size)))[0]
    return (q1 * sv) @ q2


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("smin, refused", [(5e-13, True), (2e-12, False)])
def test_x_gate_reads_the_2_norm_rcond(smin, refused, n, scale):
    # rcond(X) = smin sits within a factor 2.5 of the 1e-12 floor, where the
    # bound from X^{-1} cannot decide; inputs past the gate are refused by a
    # later stage here, never with the gate's message or a LinAlgError
    rng = np.random.default_rng(n)
    x = scale * _with_singular_values(np.r_[1.0, rng.uniform(0.1, 1.0, 2 * n - 2), smin], n)
    try:
        decompose(x)
        message = None
    except SympeqError as exc:
        message = str(exc)
    assert (message == _X_GATE) == refused, message


@given(
    seeds,
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=-11.0, max_value=0.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_decompose_of_an_ill_conditioned_x_verifies_or_is_refused(seed, n, log_rcond, log_scale):
    # X = Q1 diag(s) Q2 with rcond(X) = 10^log_rcond, past the X gate: S2 is
    # finished from the gate's X^{-1}, so an ill-conditioned X must still
    # give a typed refusal or a result verify_decomposition accepts
    rng = np.random.default_rng(seed)
    sv = 10.0 ** np.r_[0.0, rng.uniform(log_rcond, 0.0, 2 * n - 2), log_rcond]
    x = 10.0**log_scale * _with_singular_values(sv, seed)
    try:
        d = decompose(x)
    except SympeqError:
        return
    assert verify_decomposition(x, d).verdict


def test_x_with_a_zero_column_is_singular_input():
    x = np.random.default_rng(3).standard_normal((4, 4))
    x[:, 2] = 0.0
    with pytest.raises(SingularInput) as err:
        decompose(x)
    assert str(err.value) == _X_GATE


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
def test_a_zero_invariant_is_refused_with_its_size_and_the_gap(scale):
    # rcond(X) = 1e-7 clears the X gate, but the invariant 1e-7 of the
    # spectral scale falls within degeneracy_gap; the message names both
    x = scale * np.diag([1.0, 1e-7, 1.0, 1.0])
    with pytest.raises(SingularInput) as err:
        decompose(x)
    assert str(err.value) == (
        "zero invariant detected: smallest |invariant| 1.000e-07 of the spectral scale, "
        "within degeneracy_gap 1e-06"
    )


@pytest.mark.parametrize("p", [86, 90, 120])
def test_decompose_survives_an_overflowing_residual_norm(p):
    # the rounding residue of S1 X S2 - I (+) J is about |X|^2 1e-16, whose
    # square overflows past |X| ~ 1e85
    x = 10.0**p * np.random.default_rng(0).standard_normal((4, 4))
    d = decompose(x)
    assert verify_decomposition(x, d).verdict


@pytest.mark.parametrize("kind", ["gaussian", "passive"])
def test_verify_decomposition_survives_a_factor_whose_squared_norm_overflows(kind):
    # X scaled by 1e-154 gives an S2 of norm above 1.3e154, whose square
    # overflows in the scale of the symplecticity verdict
    rng = np.random.default_rng(0)
    if kind == "gaussian":
        x = rng.standard_normal((6, 6))
    else:
        c, d = rng.standard_normal((2, 3, 3))
        x = np.block([[c, d], [-d, c]])
    x = 1e-154 * x
    with np.errstate(over="ignore"):
        report = verify_decomposition(x, decompose(x))
    assert report.verdict


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


# --- stage 1: block_diagonalize_skew_hamiltonian -----------------------------


def _stage1(sig_h):
    # decompose's stage 1 on its own: one eig, the classification, the pairing
    w, v = np.linalg.eig(sig_h)
    clusters = spectrum_from_eigenvalues(w, canonical.DEFAULT_TOL)[1]
    return canonical.block_diagonalize_skew_hamiltonian(sig_h, v, clusters)[:2]


def block_diag_residual(sig_h, s, m):
    return np.linalg.norm(s @ sig_h @ np.linalg.inv(s) + direct_sum(m, m.T))


def test_block_diagonalize_identity():
    s, m = _stage1(np.eye(2))
    assert np.allclose(m, [[-1.0]])
    assert np.allclose(s, np.eye(2))


def test_block_diagonalize_complex_pair_spectrum():
    x = np.zeros((4, 4))
    x[:2, :2] = np.eye(2)
    x[2:, 2:] = [[1.0, 2.0], [-2.0, 1.0]]
    sig_h = sigma_matrix(x)
    s, m = _stage1(sig_h)
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
        s, m = _stage1(sig_h)
    except (DegenerateSpectrum, ClusteringAmbiguous):
        return  # near-degenerate draws may be rejected with a typed error
    assert is_symplectic(s).verdict
    cond = np.linalg.cond(s)
    assert block_diag_residual(sig_h, s, m) <= 1e-8 * cond * max(1.0, np.linalg.norm(sig_h))


def test_decompose_runs_stage1_through_its_module_name(monkeypatch):
    # stage 1 is looked up as canonical.block_diagonalize_skew_hamiltonian on
    # every call, so a wrapper of that name (as a span tracer installs) sees it
    stage1 = canonical.block_diagonalize_skew_hamiltonian
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return stage1(*args)

    monkeypatch.setattr(canonical, "block_diagonalize_skew_hamiltonian", counting)
    x = np.random.default_rng(4).standard_normal((6, 6))
    assert verify_decomposition(x, decompose(x)).verdict
    assert calls == [(6, 6)]


def test_every_traced_sympeq_name_resolves():
    # the benchmark's tracer wraps each (module, attribute) of TRACED in
    # perfbench/spans.py and fails on a name the library no longer has; the
    # table is read from the file, not imported
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "spans.py").read_text())
    (traced,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    ]
    pairs = [pair for pair in ast.literal_eval(traced).values() if pair[0].split(".")[0] == "sympeq"]
    assert ("sympeq.canonical", "block_diagonalize_skew_hamiltonian") in pairs
    missing = [pair for pair in pairs if not hasattr(importlib.import_module(pair[0]), pair[1])]
    assert missing == []


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


@pytest.mark.parametrize("x", [np.zeros((2, 2)), np.diag([1.0, 1e-12, 1.0, 1.0])])
def test_williamson_rejects_singular(x):
    with pytest.raises(NotPositiveDefinite):
        williamson(x)


@given(seeds, st.integers(min_value=1, max_value=4), st.sampled_from([1e-12, 1e-6, 1e6, 1e12]))
@settings(max_examples=30, deadline=None)
def test_williamson_frequencies_scale_with_x(seed, n, c):
    # definiteness is judged relative to ||X||, so nu(cX) = c nu(X)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((2 * n, 2 * n))
    x = r @ r.T + np.eye(2 * n)
    nu = williamson(x).nu
    res = williamson(c * x)
    assert np.allclose(res.nu, c * nu, rtol=1e-12, atol=0.0)
    assert is_symplectic(res.s).verdict


def test_williamson_rejects_an_empty_matrix():
    with pytest.raises(DimensionError):
        williamson(np.zeros((0, 0)))


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
    d = decompose(x)
    assert np.allclose(d.blocks.assembled, np.diag([1.0, -s * s]), atol=1e-10)


def test_decompose_canonical_fixed_point_complex():
    x = np.zeros((4, 4))
    x[:2, :2] = np.eye(2)
    x[2:, 2:] = [[1.0, 2.0], [-2.0, 1.0]]
    d = decompose(x)
    assert np.allclose(d.blocks.assembled, x, atol=1e-9)
    assert [v.kind for v in d.blocks.blocks] == [COMPLEX_PAIR]
    assert d.blocks.blocks[0].im > 0


def test_decompose_rejects_singular():
    with pytest.raises(SingularInput):
        decompose(np.diag([1.0, 0.0]))


def test_decompose_stores_the_residuals_verify_recomputes(monkeypatch):
    # every residual is read off the factors returned, after any step onto
    # the group, so verify_decomposition recomputes each bit for bit: on a
    # Gaussian and a passive X (no step), a snapped near-real pair (S2's
    # step) and an ill-conditioned stage 1 (S2's step, then S1's)
    rng = np.random.default_rng(21)
    gaussian = rng.standard_normal((6, 6))
    c, d = rng.standard_normal((2, 3, 3))
    cases = [
        ("gaussian", gaussian, []),
        ("passive", _real_form(c, d, 1), []),
        ("near_real_pair(2)", _near_real_pair(2), [6]),
        ("near_real_pair(21)", _near_real_pair(21), [6]),
        ("seed120-593", _seed120_593(), [12, 12]),
    ]
    steps = _counting_steps(monkeypatch)
    for name, x, want in cases:
        steps.clear()
        d = decompose(x)
        report = verify_decomposition(x, d)
        assert steps == want, name
        assert report.verdict, name
        stored = (d.recon_residual, d.s1_residual, d.s2_residual)
        assert stored == (report.recon, report.s1, report.s2), name


def test_decompose_ill_conditioned_stage1_channel():
    # stage 1 is ill-conditioned here (rcond of its basis about 6e-5) and
    # leaves off-block mass in M; the closed form, which reads M as block
    # diagonal, still meets the contract (s2 4.5e-9), so no step runs
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


@pytest.mark.parametrize("n", [4, 8, 16])
def test_decompose_factors_x_once(monkeypatch, n):
    # the X gate's inverse finishes S2 = X^{-1} T W sigma: the only
    # factorizations are the inverses of X and of the stage-1 basis T
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    x = np.random.default_rng(n).standard_normal((2 * n, 2 * n))
    d = decompose(x)
    assert calls == ["inv", "inv"]
    assert verify_decomposition(x, d).verdict


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
    # leaves 9.3e-12 of mass between clusters in M; the closed form's S2
    # misses the contract (s2 1.8e-8), and the step back onto the group
    # brings it within (1.7e-13)
    return random_valid_channel(7, 6, squeezing=True, seed=519043367)


def _seed120_593():
    # the correlation block of input 593 of seed 120 of the benchmark's
    # apps-small workload: stage 1's basis has rcond about 1e-4, and both
    # factors of the closed form miss the contract until their steps
    ch = random_valid_channel(6, 4, squeezing=True, seed=39223194)
    s = np.sinh(2 * 0.12493407934793756)
    return ch.x.T @ (s * np.diag([1.0] * 6 + [-1.0] * 6))


def _scaled_gaussian(seed, n, power):
    return 10.0**power * np.random.default_rng(seed).standard_normal((2 * n, 2 * n))


def _real_form(c, d, sign):
    # X sigma = sign sigma X: [[C, D], [-D, C]] for sign +1, [[C, D], [D, -C]]
    # for sign -1, the real form of Z = C + i sign D (times diag(I, -I))
    return np.block([[c, d], [-d, c]]) if sign > 0 else np.block([[c, d], [d, -c]])


def _passive(n, seed, sign=1.0):
    return _real_form(*np.random.default_rng(seed).standard_normal((2, n, n)), sign)


@pytest.mark.parametrize(
    "x",
    [_scaled_gaussian(s, 1 + s % 6, p) for s in range(6) for p in (-4, -2, 0, 4)]
    + [_repeated_clusters(t) for t in range(2)]
    + [_near_real_pair(t) for t in range(2)]
    + [_tied_real_parts(t) for t in range(4)]
    + [_passive(1 + s % 4, s, sign) for s in range(4) for sign in (1.0, -1.0)]
    + [np.eye(4), np.sqrt(0.36) * np.eye(2), random_valid_channel(3, 1, squeezing=False, seed=8).x],
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


# --- passive and anti-passive X: one complex SVD -----------------------------


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["passive", "anti_passive"])
@pytest.mark.parametrize("n", range(1, 9))
def test_passive_x_takes_one_complex_svd_and_verifies(monkeypatch, n, sign):
    # the invariants are sign s^2 of the singular values s of Z, in canonical
    # order, from one n x n complex SVD: no eig, no inverse, no other SVD
    x = _passive(n, 100 + n, sign)
    z = x[:n, :n] + 1j * sign * x[:n, n:]
    want = sorted(sign * np.linalg.svd(z, compute_uv=False) ** 2, reverse=True)
    svds = _counting_linalg(monkeypatch, "svd")
    eigs = _counting_linalg(monkeypatch, "eig")
    invs = _counting_linalg(monkeypatch, "inv")
    d = decompose(x)
    assert svds == [((n, n), "c")] and eigs == [] and invs == []
    assert [v.kind for v in d.blocks.blocks] == [REAL] * n
    assert [v.re for v in d.blocks.blocks] == pytest.approx(want, rel=1e-12)
    assert verify_decomposition(x, d).verdict


@pytest.mark.parametrize("entry", ["first", "last", "interior"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["passive", "anti_passive"])
def test_a_one_ulp_perturbation_of_a_passive_x_takes_the_general_path(monkeypatch, sign, entry):
    # the predicate is exact: one entry one ulp off the structure sends X
    # through the eigendecomposition of Sigma(X), which verifies as well
    n = 3
    x = _passive(n, 7, sign)
    i, j = {"first": (0, 0), "last": (2 * n - 1, 2 * n - 1), "interior": (n + 1, 2)}[entry]
    x[i, j] = np.nextafter(x[i, j], np.inf)
    eigs = _counting_linalg(monkeypatch, "eig")
    d = decompose(x)
    assert len(eigs) == 1
    assert verify_decomposition(x, d).verdict
    assert [v.kind for v in d.blocks.blocks] == [REAL] * n


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["passive", "anti_passive"])
@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_dressing_a_passive_x_changes_neither_kinds_nor_values(n, seed, sign):
    # S_a X S_b takes the general path; its kinds and values agree with the
    # closed form's within 1e-9 of the spectral scale
    x = _passive(n, seed, sign)
    dressed = random_symplectic(n, 2 * seed) @ x @ random_symplectic(n, 2 * seed + 1)
    d = decompose(dressed)
    assert verify_decomposition(dressed, d).verdict
    closed, general = decompose(x).blocks.blocks, d.blocks.blocks
    assert [v.kind for v in general] == [v.kind for v in closed]
    scale = max(abs(v.re) for v in closed)
    assert max(abs(a.re - b.re) for a, b in zip(closed, general)) <= 1e-9 * scale


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6, -2.0])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["passive", "anti_passive"])
def test_scaling_a_passive_x_scales_its_blocks_by_c_squared(sign, c):
    # S2 carries the scales 1/s and s on its columns, where they cancel in
    # S2 sigma S2^T; on S1's rows they would put S1 off the contract at
    # |c| = 1e6 and 1e-6
    x = _passive(4, 11, sign)
    base, scaled = decompose(x), decompose(c * x)
    assert verify_decomposition(c * x, scaled).verdict
    assert [v.kind for v in scaled.blocks.blocks] == [v.kind for v in base.blocks.blocks]
    want = [c * c * v.re for v in base.blocks.blocks]
    assert [v.re for v in scaled.blocks.blocks] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("smin, refused", [(0.0, True), (5e-13, True), (2e-12, False)])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["passive", "anti_passive"])
def test_a_singular_passive_x_is_refused_by_the_x_gate(sign, smin, refused):
    # the gate reads rcond_2(X) = s_min / s_max of Z exactly; past it the
    # invariant smin^2 is refused as zero, never with the gate's message
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    z = (u * [1.0, 0.5, smin]) @ v.conj().T
    x = _real_form(z.real, sign * z.imag, sign)
    with pytest.raises(SingularInput) as err:
        decompose(x)
    assert (str(err.value) == _X_GATE) == refused, str(err.value)


def test_the_zero_matrix_is_refused_by_the_x_gate():
    # 0 is passive and anti-passive alike; s_max = 0 is read as rcond 0
    with pytest.raises(SingularInput) as err:
        decompose(np.zeros((4, 4)))
    assert str(err.value) == _X_GATE


# --- one mode: a 2 x 2 X in closed form ------------------------------------


def _one_mode_xs(count, seed):
    # seeded Gaussian 2 x 2 X at scales 10^U(-150, 150)
    rng = np.random.default_rng(seed)
    return [10.0 ** rng.uniform(-150, 150) * rng.standard_normal((2, 2)) for _ in range(count)]


def test_a_general_2x2_x_takes_the_closed_form_and_verifies(monkeypatch):
    # Sigma(X) = det(X) I: no eigensolve, inverse, SVD or stage 1, and every
    # result verifies over 3000 inputs; a gate read off X unscaled refused
    # Gaussian X at scale 1e100 as singular
    xs = _one_mode_xs(3000, 33)
    counts = [_counting_linalg(monkeypatch, name) for name in ("eig", "eigvals", "inv", "svd")]
    stage1 = _counting_calls(monkeypatch, "block_diagonalize_skew_hamiltonian")
    ds = [decompose(x) for x in xs]
    assert counts == [[], [], [], []] and stage1 == []
    assert all(verify_decomposition(x, d).verdict for x, d in zip(xs, ds))


def test_a_general_2x2_x_has_the_blocks_of_its_invariants_bit_for_bit():
    # both read the one invariant det X off the same closed form
    for x in _one_mode_xs(3000, 34):
        assert invariants(x).values == decompose(x).blocks.blocks


def test_the_one_mode_x_gate_agrees_with_the_singular_values():
    # X with rcond_2 = 10^U(-14, -10) at scales 10^U(-150, 150) is refused
    # by the gate exactly where the SVD reads rcond below 1e-12, away from
    # the floor. Past the gate S2's residual carries rounding of order
    # eps / rcond, so the contract may still refuse it, as on the general
    # path
    rng = np.random.default_rng(35)
    refusals = 0
    for seed in range(2000):
        scale, smin = 10.0 ** rng.uniform(-150, 150), 10.0 ** rng.uniform(-14, -10)
        x = scale * _with_singular_values(np.array([1.0, smin]), seed)
        rc = reciprocal_condition(x)
        if abs(rc / 1e-12 - 1.0) < 1e-6:  # too close to the floor to call
            continue
        try:
            decompose(x)
            refused = False
        except SingularInput as exc:
            refused = str(exc) == _X_GATE
        except DegenerateSpectrum as exc:
            refused = "residual contract" not in str(exc)
        assert refused == (rc < 1e-12), rc
        refusals += refused
    assert 800 < refusals < 1200


@pytest.mark.parametrize("entry", [decompose, invariants], ids=["decompose", "invariants"])
def test_a_2x2_x_whose_determinant_overflows_raises_eigen_failure(entry):
    # det X = inf: Sigma(X) = det(X) I is not finite, as the eigensolve of the
    # overflowing Sigma(X) found before
    x = 1e160 * np.random.default_rng(1).standard_normal((2, 2))
    with pytest.raises(EigenFailure):
        entry(x)


def test_a_2x2_x_whose_determinant_underflows_is_refused_as_singular():
    # X is well conditioned (rcond_2 about 0.019, so the X gate passes), but
    # a * e - b * c rounds to 0: the one invariant is 0, as the eigensolve of
    # the underflowing Sigma(X) found before, and X is refused, not divided by 0
    x = 1e-170 * np.array([[1.0, 2.0], [3.0, 4.0]])
    assert reciprocal_condition(x) > 1e-2
    assert invariants(x).has_zero
    with pytest.raises(SingularInput, match="zero invariant"):
        decompose(x)


def _counting_steps(monkeypatch):
    step = canonical._symplectic_step
    calls = []

    def counting(s):
        calls.append(s.shape[0])
        return step(s)

    monkeypatch.setattr(canonical, "_symplectic_step", counting)
    return calls


@pytest.mark.parametrize("n", [4, 8, 16])
def test_decompose_returns_the_closed_form_s2_of_a_gaussian_input(monkeypatch, n):
    # a generic input meets the contract as the closed form leaves it: its
    # S2 is returned untouched
    finish = canonical._finish
    first = []

    def recording(*args):
        first.append(finish(*args))
        return first[-1]

    monkeypatch.setattr(canonical, "_finish", recording)
    x = np.random.default_rng(n).standard_normal((2 * n, 2 * n))
    d = decompose(x)
    assert len(first) == 1 and d.s2 is first[0][1]
    assert verify_decomposition(x, d).verdict


@pytest.mark.parametrize("t", [2, 21])
def test_decompose_steps_the_s2_of_a_snapped_near_real_pair_onto_the_group(monkeypatch, t):
    # the snapped pair 1 +- 1e-9 i leaves e M asymmetric by about 2.5e-9; on
    # these dressings that puts the closed form's S2 off the contract
    # (s2 1.1e-8 and 2.6e-8), and the step back onto the group within it
    # (3.1e-16 and 1.5e-15)
    steps = _counting_steps(monkeypatch)
    x = _near_real_pair(t)
    d = decompose(x)
    assert steps == [6]
    assert verify_decomposition(x, d).verdict


def test_symplectic_step_rescues_mass_between_clusters(monkeypatch):
    steps = _counting_steps(monkeypatch)
    ch = _mass_between_clusters()
    d = decompose(ch.x)
    assert steps == [14]
    assert verify_decomposition(ch.x, d).verdict
    res = normalize_channel(ch)
    assert steps == [14, 14]
    assert verify_decomposition(ch.x, Decomposition(res.s1, res.s2, res.blocks, 0.0, 0.0, 0.0)).verdict
    assert channel_validity(res.ch_out).valid


def _stress_form(i, family):
    # dressed form i of the near-degenerate families of
    # scripts/stress_compare.py (its input 1600 + i), drawn the same way
    rng = np.random.default_rng(3_000_000 + i)
    if family == "split_reals":
        r = rng.uniform(0.5, 3.0)
        delta = r * 10.0 ** rng.uniform(-8, -4)
        j = np.diag([r, r + delta, rng.uniform(-3.0, -0.5)])
    elif family == "near_real_pair":
        a = rng.uniform(0.5, 3.0)
        b = a * 10.0 ** rng.uniform(-10, -5)
        j = direct_sum(np.array([[a, b], [-b, a]]), np.array([[rng.uniform(-3.0, -0.5)]]))
    else:  # near_pairs
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        delta = 10.0 ** rng.uniform(-8, -4)
        pairs = direct_sum(np.array([[a, b], [-b, a]]), np.array([[a + delta, b + delta], [-b - delta, a + delta]]))
        j = direct_sum(pairs, np.array([[rng.uniform(0.5, 3.0)]]))
    n, seed = j.shape[0], 3_000_000 + 2 * i
    return random_symplectic(n, seed) @ direct_sum(np.eye(n), j) @ random_symplectic(n, seed + 1)


@pytest.mark.parametrize("i, family", [(451, "split_reals"), (444, "near_pairs")])
def test_decompose_steps_s2_back_onto_the_group(i, family):
    # the closed form's S2 misses the contract here (s2 1.6e-8 and 3.6e-8,
    # with recon and s1 within it); the step brings it back
    x = _stress_form(i, family)
    assert verify_decomposition(x, decompose(x)).verdict


@pytest.mark.parametrize("i, family", [(394, "near_pairs"), (421, "split_reals"), (387, "near_real_pair")])
def test_decompose_judges_a_near_degenerate_input_by_its_contract_alone(i, family):
    # stage 1's block residual here exceeds residual_tol ||Sigma|| / rcond(T),
    # yet the factors built from it meet the residual contract (recon
    # 1.6e-9, 4.2e-9 and 2.3e-9): decompose returns them
    x = _stress_form(i, family)
    assert verify_decomposition(x, decompose(x)).verdict


def test_residual_contract_refuses_nan():
    tol = canonical.DEFAULT_TOL
    assert canonical._meets_contract(0.0, 0.0, 0.0, tol)
    for residuals in ((math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan), (math.inf, 0.0, 0.0)):
        assert not canonical._meets_contract(*residuals, tol)


@given(st.sampled_from(["split_reals", "near_real_pair", "near_pairs"]), seeds)
@settings(max_examples=60, deadline=None)
def test_decompose_of_a_near_degenerate_form_verifies_or_is_refused(family, i):
    # the residual contract is decompose's only numerical verdict on its
    # construction: whatever it returns verify_decomposition accepts
    x = _stress_form(i, family)
    try:
        d = decompose(x)
    except DegenerateSpectrum:
        return
    assert verify_decomposition(x, d).verdict


@pytest.mark.parametrize("n, seed", [(2, 1), (4, 3), (6, 5)])
def test_symplectic_step_squares_the_residual(n, seed):
    s = random_symplectic(n, seed)
    norm = np.linalg.norm(s)
    floor = 16 * np.finfo(float).eps * norm**2  # rounding of S sigma S^T
    # on the group to rounding, S moves by at most ||E|| ||S|| / 2
    res = is_symplectic(s).residual
    assert np.linalg.norm(canonical._symplectic_step(s) - s) <= res * norm
    for delta in (1e-6, 1e-8, 1e-10):
        perturbed = s + delta * np.random.default_rng(seed).standard_normal(s.shape)
        before = is_symplectic(perturbed).residual
        after = is_symplectic(canonical._symplectic_step(perturbed)).residual
        # what remains is F E + E F^T + F sigma F^T + F E F^T with
        # ||F|| = ||E|| / 2: at most 1.25 ||E||^2 (1 + ||E||)
        assert after <= 1.25 * before**2 * (1 + before) + floor


def test_decompose_is_deterministic_and_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose must not search for symmetric factors")

    monkeypatch.setattr(canonical, "factor_two_symmetric", refuse)
    x = np.random.default_rng(5).standard_normal((8, 8))
    d0 = decompose(x)
    d1 = decompose(x)
    assert np.array_equal(d0.s1, d1.s1)
    assert np.array_equal(d0.s2, d1.s2)


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_decompose_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 2 * n))
    try:
        d = decompose(x)
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
    d = decompose(n_mat)
    assert multiset_distance(invariants(n_mat), invariants(d.blocks.assembled)) <= 1e-8
    got = d.blocks.eigenvalues()
    want = canonical_from_invariants(spec).eigenvalues()
    assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def test_verify_detects_perturbation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4))
    d = decompose(x)
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
