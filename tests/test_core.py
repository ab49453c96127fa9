import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympeq import (
    BipartiteCovariance,
    DimensionError,
    GaussianChannel,
    InvalidInput,
    SingularInput,
    Tolerances,
    decompose,
    direct_sum,
    gl_embed,
    hermitian_min_eig,
    invariants,
    is_symplectic,
    mode_direct_sum,
    random_symplectic,
    squeezing_witness,
    symplectic_form,
)
from sympeq.core import gated_inverse, min_eig_of_checked, readonly_form, reciprocal_condition

seeds = st.integers(min_value=0, max_value=10**6)
small_n = st.integers(min_value=1, max_value=4)


def test_symplectic_form_n1():
    assert symplectic_form(1).tolist() == [[0.0, -1.0], [1.0, 0.0]]


def test_symplectic_form_n2_layout():
    sig = symplectic_form(2)
    assert np.array_equal(sig[:2, 2:], -np.eye(2))
    assert np.array_equal(sig[2:, :2], np.eye(2))
    assert np.array_equal(sig[:2, :2], np.zeros((2, 2)))
    assert np.array_equal(sig[2:, 2:], np.zeros((2, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_form_algebraic_identities_exact(n):
    sig = symplectic_form(n)
    assert np.array_equal(sig @ sig, -np.eye(2 * n))
    assert np.array_equal(sig @ sig.T, np.eye(2 * n))
    assert np.array_equal(sig.T, -sig)


def test_form_rejects_bad_n():
    with pytest.raises(DimensionError):
        symplectic_form(0)


def test_symplectic_form_copies_survive_mutation():
    # internal callers share one read-only form per n; callers of the public
    # function get their own writable copy
    first = symplectic_form(2)
    assert first.flags.writeable
    first[:] = 7.0
    assert np.array_equal(symplectic_form(2), [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    squeezer = np.diag([2.0, 3.0, 0.5, 1 / 3])
    check = is_symplectic(squeezer)
    assert check.residual == 0.0 and check.verdict
    assert not is_symplectic(np.diag([2.0, 3.0, 0.5, 0.5])).verdict
    with pytest.raises(ValueError):
        readonly_form(2)[0, 0] = 1.0


def test_is_symplectic_identity():
    check = is_symplectic(np.eye(2))
    assert check.residual == 0.0
    assert check.verdict


def test_is_symplectic_form_itself():
    assert is_symplectic(symplectic_form(2)).verdict


def test_is_symplectic_squeezer_and_counterexample():
    # oracle: S sigma S^T evaluated by hand for 2x2 diagonals
    sig = symplectic_form(1)
    s_good = np.diag([2.0, 0.5])
    s_bad = np.diag([2.0, 2.0])
    assert np.allclose(s_good @ sig @ s_good.T, sig)
    assert not np.allclose(s_bad @ sig @ s_bad.T, sig)
    assert is_symplectic(s_good).verdict
    assert not is_symplectic(s_bad).verdict


def test_is_symplectic_rejects_odd_dimension():
    with pytest.raises(DimensionError):
        is_symplectic(np.eye(3))


def test_is_symplectic_fails_an_infinite_residual():
    # ||S||_F^2 overflows, so the threshold is infinite; the residual
    # overflows too, and an infinite residual fails
    with np.errstate(over="ignore"):
        check = is_symplectic(1e300 * np.eye(2))
    assert check.residual == math.inf and not check.verdict


@pytest.mark.parametrize(
    "entry",
    [
        lambda z: decompose(z),
        lambda z: invariants(z),
        lambda z: squeezing_witness(z),
        # a 0-mode state or channel is refused when it is built, so
        # condense_correlations and normalize_channel never see one
        lambda z: BipartiteCovariance(0, z, z, z),
        lambda z: GaussianChannel(0, z, z),
        lambda z: GaussianChannel.from_xy(z, z),
    ],
    ids=["decompose", "invariants", "squeezing_witness", "BipartiteCovariance", "GaussianChannel", "GaussianChannel.from_xy"],
)
def test_an_empty_matrix_is_refused_as_a_dimension_error(entry):
    with pytest.raises(DimensionError, match="must have positive even dimension, got 0"):
        entry(np.zeros((0, 0)))


def test_gl_embed_identity():
    assert np.array_equal(gl_embed(np.eye(2)), np.eye(4))


def test_gl_embed_scalar():
    assert np.allclose(gl_embed([[2.0]]), np.diag([0.5, 2.0]))


def test_gl_embed_rejects_singular():
    with pytest.raises(SingularInput):
        gl_embed(np.zeros((2, 2)))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_gl_embed_is_symplectic(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    assert is_symplectic(gl_embed(g)).verdict


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_gl_embed_antihomomorphism(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    h = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    lhs = gl_embed(g) @ gl_embed(h)
    rhs = gl_embed(h @ g)
    scale = np.linalg.norm(g) * np.linalg.norm(h)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_direct_sum_scalars():
    assert np.array_equal(direct_sum(np.eye(1), [[9.0]]), np.diag([1.0, 9.0]))
    assert np.array_equal(direct_sum([[1.0]], [[2.0]]), np.diag([1.0, 2.0]))


def test_direct_sum_spectrum_union():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    got = np.sort_complex(np.linalg.eigvals(direct_sum(a, b)))
    want = np.sort_complex(np.concatenate([np.linalg.eigvals(a), np.linalg.eigvals(b)]))
    assert np.allclose(got, want)


def test_mode_direct_sum_layout():
    # one mode with labelled quadrants, another scaled: P/Q sectors must not interleave
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[10.0, 20.0], [30.0, 40.0]])
    out = mode_direct_sum(a, b)
    assert out.shape == (4, 4)
    assert out[0, 0] == 1.0 and out[0, 2] == 2.0
    assert out[2, 0] == 3.0 and out[2, 2] == 4.0
    assert out[1, 1] == 10.0 and out[1, 3] == 20.0
    assert out[3, 1] == 30.0 and out[3, 3] == 40.0


def _mode_direct_sum_by_quadrants(a, b):
    na, nb = a.shape[0] // 2, b.shape[0] // 2
    n = na + nb
    out = np.zeros((2 * n, 2 * n))
    # copy each (row sector, column sector) quadrant, sector 0 = P and 1 = Q
    for rs in (0, 1):
        for cs in (0, 1):
            ra, ca = slice(rs * na, (rs + 1) * na), slice(cs * na, (cs + 1) * na)
            rb, cb = slice(rs * nb, (rs + 1) * nb), slice(cs * nb, (cs + 1) * nb)
            out[rs * n : rs * n + na, cs * n : cs * n + na] = a[ra, ca]
            out[rs * n + na : (rs + 1) * n, cs * n + na : (cs + 1) * n] = b[rb, cb]
    return out


@pytest.mark.parametrize("na", [1, 2, 3, 4])
@pytest.mark.parametrize("nb", [1, 2, 3, 4])
def test_mode_direct_sum_equals_quadrant_reference(na, nb):
    rng = np.random.default_rng(10 * na + nb)
    a = rng.standard_normal((2 * na, 2 * na))
    b = rng.standard_normal((2 * nb, 2 * nb))
    assert np.array_equal(mode_direct_sum(a, b), _mode_direct_sum_by_quadrants(a, b))


def test_mode_direct_sum_preserves_symplectic_form():
    assert np.array_equal(
        mode_direct_sum(symplectic_form(1), symplectic_form(2)), symplectic_form(3)
    )


def test_random_symplectic_deterministic():
    a = random_symplectic(3, seed=42)
    b = random_symplectic(3, seed=42)
    assert np.array_equal(a, b)


@given(seeds, small_n)
@settings(max_examples=30, deadline=None)
def test_random_symplectic_in_group(seed, n):
    s = random_symplectic(n, seed=seed)
    check = is_symplectic(s)
    assert check.residual <= 1e-10 * max(1.0, np.linalg.norm(s) ** 2)
    assert abs(np.linalg.det(s) - 1.0) <= 1e-8 * max(1.0, np.linalg.norm(s) ** 2)


@given(seeds, small_n)
@settings(max_examples=20, deadline=None)
def test_group_closure(seed, n):
    a = random_symplectic(n, seed=seed)
    b = random_symplectic(n, seed=seed + 1)
    assert is_symplectic(a @ b).verdict
    assert is_symplectic(a.T).verdict
    assert is_symplectic(np.linalg.inv(a), Tolerances(residual_tol=1e-6)).verdict


def test_hermitian_min_eig_matches_complex_solver():
    rng = np.random.default_rng(8)
    r = rng.standard_normal((6, 6))
    r = (r + r.T) / 2
    a = rng.standard_normal((6, 6))
    a = (a - a.T) / 2
    want = np.linalg.eigvalsh(r + 1j * a)[0]
    assert abs(hermitian_min_eig(r, a) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n", range(1, 17))
def test_hermitian_min_eig_matches_real_doubling(n):
    # the real symmetric doubling [[R, -A], [A, R]] has the spectrum of
    # R + iA with every eigenvalue twice
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        r = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        r = (r + r.T) / 2
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        a = (a - a.T) / 2
        want = float(np.linalg.eigvalsh(np.block([[r, -a], [a, r]]))[0])
        assert abs(hermitian_min_eig(r, a) - want) <= 1e-12 * max(1.0, abs(want))


def test_checked_min_eig_equals_the_public_one_bit_for_bit():
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        r, a = rng.standard_normal((2, 2 * n, 2 * n))
        assert min_eig_of_checked(r, a) == hermitian_min_eig(r, a)


@pytest.mark.parametrize("bad, value", [("R", np.inf), ("A", np.inf), ("R", np.nan), ("A", -np.inf)])
def test_checked_min_eig_raises_the_public_error_on_a_non_finite_entry(bad, value):
    r, a = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
    (r if bad == "R" else a)[0, 1] = value
    for fn in (hermitian_min_eig, min_eig_of_checked):
        with np.errstate(invalid="ignore"), pytest.raises(InvalidInput, match=f"^{bad} contains non-finite entries$"):
            fn(r, a)


def test_hermitian_min_eig_rejects_empty_matrices():
    with pytest.raises(DimensionError):
        hermitian_min_eig(np.zeros((0, 0)), np.zeros((0, 0)))


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(residual_tol=0.0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError):
            Tolerances(residual_tol=value)


@given(
    n=st.integers(min_value=2, max_value=8),
    log_rcond=st.floats(min_value=-14.0, max_value=0.0),
    log_scale=st.floats(min_value=-100.0, max_value=100.0),
    seed=seeds,
    floor=st.sampled_from([1e-12, 1e-10]),
)
@settings(max_examples=200, deadline=None)
def test_gated_inverse_decides_as_the_singular_values_do(n, log_rcond, log_scale, seed, floor):
    # singular values 1 >= ... >= 10^log_rcond, dressed by random orthogonal
    # factors and scaled
    rng = np.random.default_rng(seed)
    sv = np.r_[1.0, 10.0 ** rng.uniform(log_rcond, 0.0, n - 2), 10.0**log_rcond]
    q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q1 * sv) @ q2 * 10.0**log_scale
    rc = reciprocal_condition(a)
    inv, value = gated_inverse(a, floor)
    assert (inv is None) == (rc < floor)
    if inv is not None:
        assert np.array_equal(inv, np.linalg.inv(a))
    # the bound never exceeds rcond_2; both computed values round by about
    # eps, since the least singular value is accurate to eps of the largest
    assert value <= rc + 4 * n * np.finfo(float).eps


def test_gated_inverse_reads_the_singular_values_where_inv_fails(monkeypatch):
    a = np.eye(3)
    a[:, 1] = 0.0
    assert gated_inverse(a, 1e-12) == (None, 0.0)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    # a LinAlgError is raised again only where rcond clears the floor
    monkeypatch.setattr(np.linalg, "inv", failing)
    with pytest.raises(np.linalg.LinAlgError):
        gated_inverse(np.eye(3), 1e-12)
