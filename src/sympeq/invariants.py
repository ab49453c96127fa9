"""Equivalence invariants of a real matrix under two-sided symplectic maps.

For X of size 2n x 2n the product ``Sigma(X) = X sigma X^T sigma^T`` is
unchanged up to similarity when X is multiplied by symplectic matrices on
either side, so its eigenvalues are a complete set of continuous invariants.
The spectrum is two-fold degenerate and conjugation-closed; this module
computes it, clusters the doubles, and classifies entries as real values or
complex-conjugate pairs.

Each input class has one route, chosen by the shape first. For one mode,
X sigma X^T = det(X) sigma, so Sigma(X) = det(X) I and the one invariant
is det X with no eigensolve at all (``one_mode_spectrum``); every 2 x 2 X
takes this route, a passive or anti-passive one included. For n >= 2, a
passive X, X sigma = sigma X, or an anti-passive one, X sigma = -sigma X,
takes one n x n complex SVD in place of the 2n x 2n eigensolve
(``passive_svd``): the invariants are +-s^2 of its singular values s, each
doubled.

This module is the one place where the spectral policy is decided, in one
function, ``spectrum_from_eigenvalues``: the gap (``degeneracy_gap`` relative
to ``spectral_scale``, max|w|), the snap of near-real eigenvalues to the real
axis, the clustering and its checks, and the canonical order (descending re,
ascending im; reals before pairs where real parts tie within the gap). The
canonical-form construction takes its clusters and scales from here.

At a few modes numpy's per-call overhead outweighs the arithmetic, so numpy
does only the scale, the snap and the sort orders of the runs, a fixed
number of calls; the split into reals and the two half planes, the linkage,
the checks (the mirror check included), the spreads and the means run over
Python scalars, in one pass where they can, rounding exactly as numpy's
elementwise and summing ufuncs and sorting as ``np.sort_complex`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import add, attrgetter

import numpy as np

from .core import DEFAULT_TOL, Tolerances, as_even_square, readonly_form
from .errors import ClusteringAmbiguous, EigenFailure

__all__ = [
    "REAL",
    "COMPLEX_PAIR",
    "Invariant",
    "InvariantSpectrum",
    "sigma_matrix",
    "invariants",
    "multiset_distance",
]

REAL = "real"
COMPLEX_PAIR = "complex_pair"


@dataclass(frozen=True)
class Invariant:
    """One invariant: a real value, or one member (im > 0) of a conjugate pair."""

    re: float
    im: float
    kind: str

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class InvariantSpectrum:
    """Clustered invariants in canonical order (descending re, ascending im).

    Real parts within the clustering gap (``degeneracy_gap`` times the
    relative ``spectral_scale``) count as tied, so the order does not hang on
    rounding: within a chain of tied entries the reals come first, in
    descending order, then the pairs, by ascending im.

    ``n`` is the mode count; each real entry fills one of the n slots and each
    complex-pair entry fills two (the pair value and its conjugate), so the
    entries cover the 2n eigenvalues of Sigma(X) twice over.
    """

    n: int
    values: tuple[Invariant, ...]
    pairing_residual: float
    has_zero: bool

    def slots(self) -> int:
        return sum(1 if v.kind == REAL else 2 for v in self.values)

    def as_multiset(self) -> np.ndarray:
        """The n invariants as complex numbers, conjugates included, sorted."""
        return invariant_multiset(self.values)


def invariant_multiset(values) -> np.ndarray:
    """Invariants as complex numbers, conjugates included, sorted by (re, im)."""
    out: list[complex] = []
    for v in values:
        if v.kind == REAL:
            out.append(complex(v.re, 0.0))
        else:
            out.append(complex(v.re, v.im))
            out.append(complex(v.re, -v.im))
    return np.array(sorted(out, key=lambda z: (z.real, z.imag)), dtype=complex)


def sigma_matrix(x) -> np.ndarray:
    """Sigma(X) = X sigma X^T sigma^T, exactly skew-Hamiltonian as assembled.

    The antisymmetric core X sigma X^T is antisymmetrized before the final
    (exact) multiplication by sigma^T, so ``(Sigma sigma)^T = -(Sigma sigma)``
    holds to the last bit.
    """
    x = as_even_square(x, "X")
    return sigma_of_checked(x)


def sigma_of_checked(x: np.ndarray) -> np.ndarray:
    """``sigma_matrix`` of a checked even square float array."""
    sig = readonly_form(x.shape[0] // 2)
    core = x @ sig @ x.T
    core = (core - core.T) / 2
    return core @ sig.T


def spectral_scale(w) -> float:
    """The unit of every spectral gap: max|w|, or 1 when that is 0 or w is empty.

    The scale is relative, so every gap, and with it the snap to the real
    axis, the clustering and ``has_zero``, is the same for X and cX: the
    invariants scale by c^2 and no verdict changes.
    """
    w = np.asarray(w)
    return (float(np.abs(w).max()) or 1.0) if w.size else 1.0


def passive_svd(x: np.ndarray):
    """The invariants and SVD of a passive or anti-passive X, or None.

    X sigma = sigma X holds exactly where X = [[C, D], [-D, C]], the real
    form R(Z) = [[Re Z, Im Z], [-Im Z, Re Z]] of Z = C + iD, and
    X sigma = -sigma X where X = [[C, D], [D, -C]] = R(C - iD) F with
    F = diag(I, -I). The test is exact, with no threshold, and a general X
    fails it on the scalars x[0, 0] and +-x[n, n]. R is multiplicative and
    maps the unitaries onto the orthogonal symplectic matrices, so with
    Z = U diag(s) V^H, Sigma(X) = sign X X^T is orthogonally similar to
    sign diag(s^2, s^2). Returns ``(w, sign, u, s, vh)``: w holds the 2n
    eigenvalues sign s^2 twice over, and s (with u's columns and vh's rows)
    runs in the canonical order of the invariants sign s^2, descending for
    sign +1 and ascending for -1. One full SVD serves ``invariants`` and
    ``decompose`` alike, so both read the same bits. Both call it for
    n >= 2 only: every 2 x 2 X takes the one-mode route.
    """
    n = x.shape[0] // 2
    head, tail = x.item(0, 0), x.item(n, n)
    if head != tail and head != -tail:
        return None
    c, d = x[:n, :n], x[:n, n:]
    # X = [[C, D], [-sign D, sign C]]; where head and tail are 0 both signs fit
    for sign in (1.0, -1.0):
        if head == sign * tail and (x[n:, n:] == sign * c).all() and (x[n:, :n] == -sign * d).all():
            break
    else:
        return None
    z = np.empty((n, n), dtype=complex)
    z.real, z.imag = c, sign * d
    try:
        u, s, vh = np.linalg.svd(z)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(f"singular value decomposition failed on X: {exc}") from exc
    if sign < 0:  # -s^2 descends as s ascends
        u, s, vh = u[:, ::-1], s[::-1], vh[::-1]
    w = sign * s * s
    return np.concatenate((w, w)), sign, u, s, vh


def _scaled_det(x: np.ndarray):
    """det X of a 2 x 2 X, read off the exactly rescaled X^ = 2^-k X.

    k = frexp(max|x|)[1], so max|x^| lies in [1/2, 1): d^ = det X^ neither
    overflows nor underflows short of X being singular to rounding, and
    d = det X = 2^2k d^ is rounded once, where it is subnormal. Powers of
    two scale exactly, so where no product under- or overflows, d equals
    the unscaled a e - b c bit for bit. Returns ``(k, entries of X^ in row order, d^, d)``,
    with d = +-inf where det X overflows.
    """
    (a, b), (c, e) = x.tolist()
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(e)))[1]
    a, b, c, e = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k), math.ldexp(e, -k)
    dh = a * e - b * c
    try:
        d = math.ldexp(dh, 2 * k)
    except OverflowError:
        d = math.copysign(math.inf, dh)
    return k, (a, b, c, e), dh, d


def one_mode_spectrum(d: float) -> InvariantSpectrum:
    """The invariant spectrum of a 2 x 2 X from d = det X (``_scaled_det``).

    At n = 1, X sigma X^T = det(X) sigma, so Sigma(X) = det(X) I: the one
    invariant is d, real and exactly doubled, with no eigensolve and no
    classification, for every 2 x 2 X, passive or not. Its spectrum is the
    one ``spectrum_from_eigenvalues`` gives for the eigenvalues (d, d):
    has_zero only where d is 0, and a pairing residual of 0. Raises
    EigenFailure where d overflows, as the eigensolve of the overflowing
    Sigma(X) does.
    """
    if not math.isfinite(d):
        raise EigenFailure(f"Sigma(X) = det(X) I is not finite: det X = {d}")
    invariant = Invariant(d, 0.0, REAL)
    return InvariantSpectrum(n=1, values=(invariant,), pairing_residual=0.0, has_zero=d == 0.0)


def invariants(x, tol: Tolerances = DEFAULT_TOL) -> InvariantSpectrum:
    """Invariant spectrum of X: eigenvalues of Sigma(X), clustered into doubles.

    Eigenvalues whose imaginary part is below ``degeneracy_gap`` times the
    spectral scale are snapped to the real axis, then clustered; each cluster
    of size 2m yields m equal invariants. Repeated invariants are reported as
    repeats, not rejected; only clusters that cannot be doubled raise
    ClusteringAmbiguous. ``has_zero`` flags invariants at zero (singular X),
    which downstream canonical-form construction refuses. Every 2 x 2 X
    takes its one invariant det X in closed form (``one_mode_spectrum``);
    for n >= 2 a passive or anti-passive X takes its eigenvalues from one
    n x n complex SVD (``passive_svd``), and any other X from one
    eigensolve of Sigma(X).
    """
    x = as_even_square(x, "X")
    if x.shape[0] == 2:
        return one_mode_spectrum(_scaled_det(x)[3])
    passive = passive_svd(x)
    if passive is not None:
        return spectrum_from_eigenvalues(passive[0], tol)[0]
    try:
        w = np.linalg.eigvals(sigma_of_checked(x))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(f"eigensolver failed on Sigma(X): {exc}") from exc
    return spectrum_from_eigenvalues(w, tol)[0]


def _linkage(order: list[int], vals: list[complex], gap_abs: float) -> list[list[int]]:
    # single linkage over a sorted index order; break where the distance
    # between consecutive members exceeds the gap (abs of a complex is hypot)
    groups = [[order[0]]]
    prev = vals[order[0]]
    for i in order[1:]:
        if abs(vals[i] - prev) <= gap_abs:
            groups[-1].append(i)
        else:
            groups.append([i])
        prev = vals[i]
    return groups


def _mean(members: list[complex]) -> tuple[float, float]:
    """(re, im) of the mean, each part summed as ``np.add.reduce`` sums it.

    numpy adds fewer than 8 elements one by one from 0.0, which ``reduce``
    repeats exactly; from 8 on it sums pairwise, so numpy does those sums.
    """
    size = len(members)
    if size < 8:
        total = reduce(add, members, 0.0)
        return total.real / size, total.imag / size
    arr = np.array(members)
    return float(np.add.reduce(arr.real)) / size, float(np.add.reduce(arr.imag)) / size


_re_im = attrgetter("real", "imag")


def _tie_key(cluster):
    inv = cluster[0]
    return (False, -inv.re) if inv.kind == REAL else (True, inv.im)


def spectrum_from_eigenvalues(w: np.ndarray, tol: Tolerances):
    """Snap, cluster and order the 2n raw eigenvalues of Sigma(X) once.

    The absolute gap is ``degeneracy_gap`` times ``spectral_scale(w)``.
    Eigenvalues whose imaginary part lies within it are snapped to the real
    axis (on a copy; ``w`` is not modified), then grouped by single linkage,
    the reals along the real axis and the members with im > 0 in (re, im)
    order. Returns ``(spectrum, clusters)``, where each cluster is an
    ``(Invariant, indices)`` pair in canonical order and a pair cluster
    lists only its members with im > 0, so that a caller holding the
    eigenvectors of the same eigensolve can build on them. Raises
    ClusteringAmbiguous when conjugate closure is broken, a cluster has odd
    size, or conjugate partners do not match within the gap.
    """
    n = w.shape[0] // 2
    scale = spectral_scale(w)
    gap_abs = tol.degeneracy_gap * scale
    w = w.astype(complex)
    w.imag[np.abs(w.imag) <= gap_abs] = 0.0
    vals = w.tolist()
    reals, ups, downs = [], [], []
    for i, z in enumerate(vals):
        if z.imag == 0.0:
            reals.append(i)
        elif z.imag > 0.0:
            ups.append(i)
        elif z.imag < 0.0:
            downs.append(i)
    if len(ups) != len(downs):
        raise ClusteringAmbiguous(
            "conjugate closure violated: unequal counts above/below the real axis"
        )

    # the run orders are numpy's, whose argsort is not stable on exact ties;
    # a real member is a complex with im 0.0, so abs of a difference is |re|
    runs = []
    if reals:
        order = np.argsort(w.real[reals]).tolist()
        runs.append((REAL, _linkage([reals[k] for k in order], vals, gap_abs)))
    if ups:
        order = np.lexsort((w.imag[ups], w.real[ups])).tolist()
        runs.append((COMPLEX_PAIR, _linkage([ups[k] for k in order], vals, gap_abs)))
    clusters, worst = [], 0.0
    for kind, groups in runs:
        for group in groups:
            if len(group) == 2:  # as _mean and the pairwise spread take it
                a, b = vals[group[0]], vals[group[1]]
                total = 0.0 + a + b
                spread, mean = abs(a - b), (total.real / 2, total.imag / 2)
            elif len(group) % 2 != 0:
                name = "real" if kind == REAL else "complex"
                raise ClusteringAmbiguous(
                    f"{name} eigenvalue cluster of odd size {len(group)} cannot be doubled"
                )
            else:
                members = [vals[i] for i in group]
                spread = max(abs(a - b) for a, b in combinations(members, 2))
                mean = _mean(members)
            worst = max(worst, spread)
            clusters.append((Invariant(*mean, kind), group))
    # mirror check against the lower half plane, sorted as np.sort_complex sorts
    if ups:
        up_sorted = sorted([vals[i] for i in ups], key=_re_im)
        down_sorted = sorted([vals[i].conjugate() for i in downs], key=_re_im)
        if max(abs(a - b) for a, b in zip(up_sorted, down_sorted)) > gap_abs:
            raise ClusteringAmbiguous("conjugate partners do not match within the gap")

    clusters.sort(key=lambda c: (-c[0].re, c[0].im))
    # real parts within the gap are tied: in a chain of tied clusters the
    # reals come first (descending), then the pairs (ascending im)
    start = 0
    for end in range(1, len(clusters) + 1):
        if end == len(clusters) or clusters[end - 1][0].re - clusters[end][0].re > gap_abs:
            if end - start > 1:
                clusters[start:end] = sorted(clusters[start:end], key=_tie_key)
            start = end
    values = tuple(v for v, group in clusters for _ in range(len(group) // 2))
    spectrum = InvariantSpectrum(
        n=n,
        values=values,
        pairing_residual=worst / scale,
        has_zero=any(abs(v.as_complex()) <= gap_abs for v in values),
    )
    return spectrum, clusters


def multiset_distance(a: InvariantSpectrum, b: InvariantSpectrum) -> float:
    """Worst matched-entry distance between two invariant multisets, relative
    to the larger spectral scale. Returns inf on slot-count mismatch."""
    va = a.as_multiset()
    vb = b.as_multiset()
    if va.shape != vb.shape:
        return float("inf")
    scale = max(spectral_scale(va), spectral_scale(vb))
    return float(np.max(np.abs(va - vb))) / scale
