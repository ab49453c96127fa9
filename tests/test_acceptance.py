"""Acceptance gate: one test per release criterion, printed pass by pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Expected values tagged as derived are computed from independent
oracles (direct matrix arithmetic, hyperbolic identities, dense eigensolves)
inside the tests themselves.
"""

import json
import math
import time

import numpy as np
import pytest

from sympeq import (
    REAL,
    ClusteringAmbiguous,
    DegenerateSpectrum,
    GaussianChannel,
    Tolerances,
    attenuator,
    channel_validity,
    condense_correlations,
    decompose,
    factor_two_symmetric,
    invariants,
    is_symplectic,
    multiset_distance,
    normalize_channel,
    random_symplectic,
    random_valid_channel,
    schmidt_relation_check,
    sigma_matrix,
    squeezing_witness,
    two_mode_squeezed,
    williamson,
)
from sympeq.cli import run as cli_run

DIMS = (1, 2, 3, 4, 6)


def announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_round_trip_decomposition():
    trials_per_dim = 200
    start = time.perf_counter()
    successes = failures = 0
    worst_recon = worst_s1 = worst_s2 = 0.0
    for n in DIMS:
        for trial in range(trials_per_dim):
            seed = 10_000 * n + trial
            x = np.random.default_rng(seed).standard_normal((2 * n, 2 * n))
            try:
                d = decompose(x)
            except (DegenerateSpectrum, ClusteringAmbiguous):
                failures += 1
                continue
            successes += 1
            assert d.recon_residual <= 1e-8
            assert d.s1_residual <= 1e-8
            assert d.s2_residual <= 1e-8
            worst_recon = max(worst_recon, d.recon_residual)
            worst_s1 = max(worst_s1, d.s1_residual)
            worst_s2 = max(worst_s2, d.s2_residual)
    elapsed = time.perf_counter() - start
    total = trials_per_dim * len(DIMS)
    assert successes + failures == total
    assert successes >= 0.99 * total
    assert elapsed < 30.0
    announce(
        1,
        f"{successes}/{total} round trips in {elapsed:.1f}s; worst residuals "
        f"recon {worst_recon:.2e}, s1 {worst_s1:.2e}, s2 {worst_s2:.2e}",
    )


def test_criterion_2_equivalence_invariance():
    worst = 0.0
    for i in range(100):
        n = 1 + i % 6
        x = np.random.default_rng(500 + i).standard_normal((2 * n, 2 * n))
        s1 = random_symplectic(n, seed=2 * i)
        s2 = random_symplectic(n, seed=2 * i + 1)
        dist = multiset_distance(invariants(x), invariants(s1 @ x @ s2))
        worst = max(worst, dist)
        assert dist <= 1e-6
    announce(2, f"100 triples, worst invariant multiset distance {worst:.2e}")


def test_criterion_3_spectrum_doubling():
    worst = 0.0
    for i in range(100):
        n = 1 + i % 6
        x = np.random.default_rng(500 + i).standard_normal((2 * n, 2 * n))
        spectrum = invariants(x)
        worst = max(worst, spectrum.pairing_residual)
        assert spectrum.pairing_residual <= 1e-6
        assert spectrum.slots() == n
    announce(3, f"100 spectra cluster into doubles, worst pairing residual {worst:.2e}")


def test_criterion_4_williamson_consistency():
    worst_diag = worst_gap = 0.0
    for i in range(100):
        n = 1 + i % 6
        rng = np.random.default_rng(900 + i)
        r = rng.standard_normal((2 * n, 2 * n))
        x = r @ r.T + np.eye(2 * n)
        res = williamson(x)
        d = np.diag(np.concatenate([res.nu, res.nu]))
        diag_res = np.linalg.norm(res.s @ x @ res.s.T - d) / max(1.0, np.linalg.norm(x))
        assert diag_res <= 1e-8
        spectrum = invariants(x)
        lam = np.asarray(sorted((v.re for v in spectrum.values), reverse=True))
        nu_sq = np.sort(res.nu**2)[::-1]
        gap = np.max(np.abs(lam - nu_sq)) / max(1.0, np.max(np.abs(lam)))
        assert gap <= 1e-6
        worst_diag = max(worst_diag, diag_res)
        worst_gap = max(worst_gap, gap)
    announce(4, f"100 SPD matrices, worst diag residual {worst_diag:.2e}, worst lambda=nu^2 gap {worst_gap:.2e}")


def test_criterion_5_tmss_pipeline():
    # oracle: lambda = -sinh(2r)^2 and nu = sqrt(1 - lambda) = cosh(2r)
    for r, nu_ref in ((0.5, 1.5430806), (1.0, 3.7621957)):
        lam_ref = -math.sinh(2 * r) ** 2
        g = two_mode_squeezed(r)
        res = condense_correlations(g)
        x_out = res.g_out.x
        assert abs(x_out[0, 0] - 1.0) <= 1e-9
        assert abs(x_out[1, 1] - lam_ref) <= 1e-9 * abs(lam_ref)
        assert abs(x_out[0, 1]) <= 1e-9 and abs(x_out[1, 0]) <= 1e-9
        lam = res.blocks.blocks[0].re
        assert abs(lam - lam_ref) <= 1e-9 * abs(lam_ref)
        rep = schmidt_relation_check(g)
        assert rep.max_relative_error <= 1e-8
        assert rep.nu_local[0] == pytest.approx(math.cosh(2 * r), rel=1e-8)
        assert rep.nu_local[0] == pytest.approx(nu_ref, rel=1e-7)
    announce(5, "TMSS r=0.5 and r=1.0 condense and satisfy the Schmidt relation")


def test_criterion_6_passive_realness_and_witness():
    tight = Tolerances(degeneracy_gap=1e-8)
    for i in range(100):
        n = 1 + i % 4
        ch = random_valid_channel(n, 1 + i % 3, squeezing=False, seed=3_000 + i)
        c, d = ch.x[:n, :n], ch.x[:n, n:]
        closed = np.block(
            [
                [d @ d.T + c @ c.T, d @ c.T - c @ d.T],
                [c @ d.T - d @ c.T, d @ d.T + c @ c.T],
            ]
        )
        direct = sigma_matrix(ch.x)
        assert np.linalg.norm(closed - direct) <= 1e-10 * max(1.0, np.linalg.norm(closed))
        # snapping at 1e-8 certifies |Im lambda| <= 1e-8 * scale
        spectrum = invariants(ch.x, tight)
        assert all(v.kind == REAL for v in spectrum.values)
    for a, b in ((1.0, 2.0), (0.5, 0.1), (-1.0, 3.0)):
        n_mat = np.zeros((4, 4))
        n_mat[:2, :2] = np.eye(2)
        n_mat[2:, 2:] = [[a, b], [-b, a]]
        assert squeezing_witness(n_mat).verdict == "squeezing_witnessed"
        dressed = random_symplectic(2, seed=17) @ n_mat @ random_symplectic(2, seed=18)
        assert squeezing_witness(dressed).verdict == "squeezing_witnessed"
    announce(6, "100 passive dilations have real invariants; complex blocks are witnessed")


def test_criterion_7_channel_normalization():
    preserved = 0
    for i in range(100):
        n = 1 + i % 4
        base = random_valid_channel(n, 2, squeezing=bool(i % 2), seed=7_000 + i)
        # margin noise scales with the channel so verdicts survive transport
        margin = 0.05 * max(1.0, np.linalg.norm(base.y))
        ch = GaussianChannel.from_xy(base.x, base.y + margin * np.eye(2 * n))
        before = channel_validity(ch)
        assert before.valid and before.min_eig > 1e-6
        res = normalize_channel(ch)
        assert is_symplectic(res.s1).residual <= 1e-8
        assert is_symplectic(res.s2).residual <= 1e-8
        after = channel_validity(res.ch_out)
        assert after.valid == before.valid
        preserved += 1
        # canonical shape: unit P sector, couplings only inside the Q sector
        x_out = res.ch_out.x
        assert np.linalg.norm(x_out[:n, :n] - np.eye(n)) <= 1e-7 * max(1.0, np.linalg.norm(x_out))
        assert np.linalg.norm(x_out[:n, n:]) <= 1e-7 * max(1.0, np.linalg.norm(x_out))
        assert np.linalg.norm(x_out[n:, :n]) <= 1e-7 * max(1.0, np.linalg.norm(x_out))
        # invalid perturbations stay invalid
        bad = GaussianChannel(n=n, x=base.x, y=base.y - margin * np.eye(2 * n))
        assert not channel_validity(bad).valid
        assert not channel_validity(normalize_channel(bad).ch_out).valid
    res = normalize_channel(attenuator(0.36))
    assert np.allclose(res.ch_out.x, np.diag([1.0, 0.36]), atol=1e-10)
    announce(7, f"{preserved}/100 margin-separated channels keep their validity verdict")


def test_criterion_8_two_symmetric_factorization():
    worst = 0.0
    for i in range(100):
        n = 2 + i % 11  # up to 12x12
        m = np.random.default_rng(4_000 + i).standard_normal((n, n))
        fact = factor_two_symmetric(m, seed=i)
        assert np.linalg.norm(fact.a - fact.a.T) <= 1e-12 * max(1.0, np.linalg.norm(fact.a))
        assert np.linalg.norm(fact.b - fact.b.T) <= 1e-12 * max(1.0, np.linalg.norm(fact.b))
        rel = np.linalg.norm(fact.a @ fact.b - m) / np.linalg.norm(m)
        assert rel <= 1e-6
        worst = max(worst, rel)
    m_rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    a_ref = np.diag([1.0, -1.0])
    b_ref = np.array([[0.0, -1.0], [-1.0, 0.0]])
    assert np.array_equal(a_ref @ b_ref, m_rot)
    fact = factor_two_symmetric(m_rot, seed=0)
    assert np.linalg.norm(fact.a @ fact.b - m_rot) <= 1e-10
    announce(8, f"100 factorizations up to 12x12, worst relative residual {worst:.2e}")


def test_criterion_9_cli_golden_determinism(tmp_path):
    pipelines = [
        (("--kind", "identity", "--n", "2"), "decompose"),
        (("--kind", "tmss", "--r", "0.5"), "condense"),
        (("--kind", "tmss", "--r", "1.0"), "validate-state"),
        (("--kind", "attenuator", "--eta", "0.36"), "channel-normalize"),
        (("--kind", "attenuator", "--eta", "0.36"), "validate-channel"),
        (("--kind", "passive", "--n", "2", "--env-modes", "2", "--seed", "3"), "witness"),
        (("--kind", "random-x", "--n", "3", "--seed", "5"), "invariants"),
        (("--kind", "random-symplectic", "--n", "2", "--seed", "5"), "decompose"),
    ]
    for idx, (gen_args, command) in enumerate(pipelines):
        outputs = []
        for rerun in (0, 1):
            gen_path = tmp_path / f"in-{idx}-{rerun}.json"
            out_path = tmp_path / f"out-{idx}-{rerun}.json"
            assert cli_run(["gen", "--output", str(gen_path), *gen_args]) == 0
            rc = cli_run(
                [command, "--input", str(gen_path), "--output", str(out_path), "--seed", "2"]
            )
            assert rc == 0
            # strip the run-specific input path from the envelope before comparing
            doc = json.loads(out_path.read_text())
            doc["inputs"] = sorted(doc["inputs"].values())
            outputs.append(json.dumps(doc, sort_keys=True))
        assert outputs[0] == outputs[1]
    # same file analyzed twice: byte-identical reports
    gen_path = tmp_path / "stable.json"
    assert cli_run(["gen", "--output", str(gen_path), "--kind", "tmss", "--r", "0.5"]) == 0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli_run(["condense", "--input", str(gen_path), "--output", str(a)]) == 0
    assert cli_run(["condense", "--input", str(gen_path), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    announce(9, "gen -> analyze pipelines are byte-stable across reruns")
