"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from misodof import cli
from misodof.channel import CsitConfig
from misodof.mc import McConfig, estimate
from misodof.oracles import (
    conditional_log_bounds_check,
    exp_log_mean,
    exp_log_mean_monte_carlo,
    rotation_mean_log_closed_form,
    rotation_mean_log_quadrature,
)
from misodof.rates import rate_scheme
from misodof.regions import (
    Scheme,
    dof_imperfect_delayed,
    dof_scheme,
    region_common_message,
    region_main,
)
from reference import policy_matrices

SEED = 20240817


def _report(number, message):
    print(f"[PASS] criterion {number}: {message}")


def _fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


def _analytic_main_vertices(alpha):
    s = (2.0 + alpha) / 3.0
    raw = [(0.0, 0.0), (1.0, 0.0), (1.0, alpha), (s, s), (alpha, 1.0), (0.0, 1.0)]
    kept = []
    for p in raw:
        if not any(max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= 1e-12 for q in kept):
            kept.append(p)
    return np.array(kept)


def test_criterion_1_region_exactness():
    start = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for alpha in [round(0.1 * k, 10) for k in range(11)]:
        region = region_main(alpha)
        expected = _analytic_main_vertices(alpha)
        assert region.vertices.shape == expected.shape
        worst = max(worst, float(np.max(np.abs(region.vertices - expected))))
        assert worst < 1e-12
        for p in rng.uniform(-0.2, 1.3, size=(1000, 2)):
            direct = (
                p[0] <= 1 + 1e-9 and p[1] <= 1 + 1e-9
                and p[0] + 2 * p[1] <= 2 + alpha + 1e-9
                and 2 * p[0] + p[1] <= 2 + alpha + 1e-9
                and p[0] >= -1e-9 and p[1] >= -1e-9
            )
            assert region.contains(p) == direct
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"region vertices exact (max dev {worst:.1e}), "
               f"11x1000 membership checks agree ({elapsed:.2f}s)")


def test_criterion_2_common_message_polyhedron():
    start = time.time()
    for alpha in (0.0, 0.5, 1.0):
        region = region_common_message(alpha)
        s = (2.0 + alpha) / 3.0
        listed = [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (0.0, 1.0, alpha), (0.0, alpha, 1.0), (0.0, s, s),
            (1.0 - alpha, alpha, alpha),
        ]
        for v in listed:
            assert region.contains(v), f"vertex {v} infeasible at alpha={alpha}"
            assert region.active_constraints(v) >= 3
        mixed = (1.0 - alpha, alpha, alpha)
        assert any(np.max(np.abs(np.array(mixed) - w)) < 1e-15 for w in region.vertices)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, f"all listed corners feasible with >=3 active constraints, "
               f"mixed point exact ({elapsed:.2f}s)")


def test_criterion_3_slope_suite():
    start = time.time()
    grid_db = [40.0 + 5.0 * k for k in range(9)]
    log2p = [db / 10.0 * math.log2(10.0) for db in grid_db]
    theory = {"zf": 1.0, "tdma": 1.0, "mat": 4.0 / 3.0,
              "rszf": 1.5, "proposed": 5.0 / 3.0}
    mc_cfg = McConfig(n_samples=100_000, seed=SEED)
    schemes = tuple(theory)
    sums = {scheme: [] for scheme in schemes}
    cfgs = [CsitConfig.from_alpha(10.0 ** (db / 10.0), 0.5) for db in grid_db]
    for at_snr in rate_scheme(schemes, cfgs, mc_cfg):
        for scheme, res in zip(schemes, at_snr):
            sums[scheme].append(res.r1 + res.r2)
    lines = []
    for scheme, target in theory.items():
        slope = _fit(log2p, sums[scheme])
        assert abs(slope - target) <= 0.08, f"{scheme}: {slope} vs {target}"
        lines.append(f"{scheme} {slope:.3f}")
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(3, "sum-rate pre-logs " + ", ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_4_proposed_slope_across_alpha():
    start = time.time()
    grid_db = [40.0 + 5.0 * k for k in range(9)]
    log2p = [db / 10.0 * math.log2(10.0) for db in grid_db]
    mc_cfg = McConfig(n_samples=100_000, seed=SEED)
    lines = []
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    cfgs = [CsitConfig.from_alpha(10.0 ** (db / 10.0), alpha)
            for alpha in alphas for db in grid_db]
    results = rate_scheme(Scheme.PROPOSED, cfgs, mc_cfg)
    for k, alpha in enumerate(alphas):
        at_alpha = results[k * len(grid_db):(k + 1) * len(grid_db)]
        slope = _fit(log2p, [res.r1 + res.r2 for res in at_alpha])
        target = 2.0 * (2.0 + alpha) / 3.0
        assert abs(slope - target) <= 0.08, f"alpha={alpha}: {slope} vs {target}"
        lines.append(f"a={alpha}: {slope:.3f}")
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(4, "proposed pre-logs " + ", ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_5_interference_power_scaling():
    from reference import policy_beams, vectors

    start = time.time()
    mc_cfg = McConfig(n_samples=100_000, seed=SEED)
    lines = []
    for alpha in (0.25, 0.5, 0.75):
        xs, ys = [], []
        for log2_power in (20, 30, 40):
            cfg = CsitConfig.from_alpha(2.0 ** log2_power, alpha)

            def f(batch):
                v = vectors(batch)
                comps = policy_beams(cfg, v.h_hat, v.g_hat)
                total = sum(c * np.abs(np.sum(np.conj(v.h) * w, axis=-1)) ** 2
                            for c, w in comps["q_v"])
                return np.maximum(total, 0.0)

            [est] = estimate(f, mc_cfg, [cfg])
            xs.append(float(log2_power))
            ys.append(math.log2(est.mean[0]))
        slope = _fit(xs, ys)
        assert abs(slope - (1.0 - alpha)) <= 0.05, f"alpha={alpha}: {slope}"
        lines.append(f"a={alpha}: {slope:.3f}")
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(5, "interference-power exponents " + ", ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_6_mimo_rate_slope():
    start = time.time()
    mc_cfg = McConfig(n_samples=100_000, seed=SEED)
    lines = []
    alphas, log2_powers = (0.0, 0.5, 1.0), (40, 60, 80)
    cfgs = [CsitConfig.from_alpha(2.0 ** log2_power, alpha)
            for alpha in alphas for log2_power in log2_powers]
    results = rate_scheme(Scheme.PROPOSED, cfgs, mc_cfg)
    for k, alpha in enumerate(alphas):
        at_alpha = results[k * len(log2_powers):(k + 1) * len(log2_powers)]
        slope = _fit(log2_powers, [res.r_mimo1 for res in at_alpha])
        assert abs(slope - (2.0 - alpha)) <= 0.08, f"alpha={alpha}: {slope}"
        lines.append(f"a={alpha}: {slope:.3f}")
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(6, "equivalent-MIMO pre-logs " + ", ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_7_oracle_suite():
    start = time.time()
    pairs = np.random.default_rng(SEED).uniform(0.05, 10.0, size=(1000, 2))
    quads = rotation_mean_log_quadrature(pairs[:, 0], pairs[:, 1])
    worst = max(abs(q - rotation_mean_log_closed_form(a, b)) for q, (a, b) in zip(quads, pairs))
    assert worst < 1e-6

    # the constant is E log2 X for X ~ Exp(1): its integral, to 30 digits
    with mpmath.workdps(30):
        integral = mpmath.quad(lambda x: mpmath.exp(-x) * mpmath.log(x, 2), [0, 1, mpmath.inf])
    gamma = exp_log_mean()
    constant_gap = abs(gamma - float(integral))
    assert constant_gap <= 1e-12

    # 10M exponential samples, eight per channel draw
    est = exp_log_mean_monte_carlo(McConfig(n_samples=10_000_000, seed=SEED))
    gamma_gap = abs(gamma - est.mean[0])
    assert gamma_gap <= 5.0 * est.std_error[0]

    bounds_cfg = CsitConfig.from_sigma_sq(1000.0, 0.1)
    report = conditional_log_bounds_check(
        (bounds_cfg.snr_p, 0.0), bounds_cfg,
        McConfig(n_samples=100_000, seed=SEED), n_batches=100, gamma=gamma)
    assert report.passed
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(7, f"rotation identity max err {worst:.1e}; gamma {constant_gap:.1e} from its "
               f"integral, mc gap {gamma_gap:.1e} <= 5se; 100/100 bound batches clean "
               f"({elapsed:.1f}s)")


def test_criterion_8_imperfect_delayed_formula():
    start = time.time()
    cases = {(0.5, 1.0): 5.0 / 6.0, (0.5, 0.75): 0.75, (0.5, 0.5): 2.0 / 3.0}
    for (alpha, beta), expected in cases.items():
        sym, _ = dof_imperfect_delayed(alpha, beta)
        assert sym == pytest.approx(expected, abs=1e-12)
    betas = np.linspace(0.0, 1.0, 101)
    syms = np.array([dof_imperfect_delayed(0.5, b)[0] for b in betas])
    diffs = np.diff(syms)
    assert np.all(diffs >= -1e-12)           # monotone in beta
    assert np.max(np.abs(diffs)) <= 2.0 / 3.0 / 100.0 + 1e-12   # no jumps
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(8, f"reference points exact, 101-point beta sweep monotone and "
               f"continuous ({elapsed:.2f}s)")


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    payloads = []
    for tag, workers in (("w1", 1), ("w4", 4), ("w8", 8), ("w1b", 1)):
        out = tmp_path / f"rates_{tag}.csv"
        code = cli.main([
            "rates", "--scheme", "all", "--alpha", "0.5",
            "--snr-db", "10:10:30", "--samples", "20000",
            "--seed", str(SEED), "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2] == payloads[3]
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(9, f"CSV byte-identical across workers 1/4/8 and a re-run ({elapsed:.1f}s)")


def _brute_force_common_message(policy_fn, snr_p, sigma_sq, n, seed):
    """Independent evaluator of the common-message rates from explicit 2x2 matrices.

    Row i of the (n, 16) normals is sample i's stream: the real then the
    imaginary parts of h_hat, g_hat, then of the errors of h and g.
    """
    z = np.random.default_rng(seed).standard_normal((n, 16))
    est_scale = math.sqrt((1.0 - sigma_sq) / 2.0)
    err_scale = math.sqrt(sigma_sq / 2.0)
    h_hat = (z[:, 0:2] + 1j * z[:, 2:4]) * est_scale
    g_hat = (z[:, 4:6] + 1j * z[:, 6:8]) * est_scale
    h = h_hat + (z[:, 8:10] + 1j * z[:, 10:12]) * err_scale
    g = g_hat + (z[:, 12:14] + 1j * z[:, 14:16]) * err_scale
    q_c, q_p1, q_p2 = policy_fn(snr_p, h_hat, g_hat)

    def quad(x, q):
        return np.einsum("ni,nij,nj->n", np.conj(x), q, x).real

    vals = np.stack([
        np.log2(1.0 + quad(h, q_c) / (1.0 + quad(h, q_p1) + quad(h, q_p2))),
        np.log2(1.0 + quad(g, q_c) / (1.0 + quad(g, q_p1) + quad(g, q_p2))),
        np.log2(1.0 + quad(h, q_p1) / (1.0 + quad(h, q_p2))),
        np.log2(1.0 + quad(g, q_p2) / (1.0 + quad(g, q_p1))),
    ], axis=1)
    mean = vals.sum(axis=0) / n
    var = np.maximum((vals * vals).sum(axis=0) - n * mean * mean, 0.0) / (n - 1)
    se = np.sqrt(var / n)
    branch = 0 if mean[0] <= mean[1] else 1
    return ((mean[branch], se[branch]), (mean[2], se[2]), (mean[3], se[3]))


def _default_policy(sigma_sq):
    # The default policy's (q_c, q_p1, q_p2) at (P, sigma_sq), one (2, 2)
    # matrix per sample, as _brute_force_common_message takes them.
    def policy(p, h_hat, g_hat):
        q = policy_matrices(CsitConfig.from_sigma_sq(p, sigma_sq), h_hat, g_hat)
        return tuple(np.broadcast_to(q[name], (h_hat.shape[0], 2, 2))
                     for name in ("q_c", "q_p1", "q_p2"))
    return policy


def test_criterion_10_common_message_oracle_equivalence():
    # RS-ZF's shipped common-message columns against the brute-force
    # evaluator of the same policy's explicit matrices.  sigma^2 = 1 leaves
    # no private power (common message only); at sigma^2 = 0.25 and 0.01 the
    # privates are zero-forced along the estimates, and at 0.01 and 20 dB
    # they take all of P.
    start = time.time()
    n = 20_000
    snr_dbs = (20.0, 30.0, 40.0)
    checked = 0
    for sigma_sq in (0.01, 0.25, 1.0):
        cfgs = [CsitConfig.from_sigma_sq(10.0 ** (db / 10.0), sigma_sq) for db in snr_dbs]
        results = rate_scheme(Scheme.RS_ZF, cfgs, McConfig(n, SEED))
        for snr_db, cfg, res in zip(snr_dbs, cfgs, results):
            oracle = _brute_force_common_message(
                _default_policy(sigma_sq), cfg.snr_p, sigma_sq, n, SEED + 1)
            pairs = [
                (res.r_c, res.se_r_c, *oracle[0]),
                (res.r_p1, res.se_r_p1, *oracle[1]),
                (res.r_p2, res.se_r_p2, *oracle[2]),
            ]
            for value, se_value, ref, se_ref in pairs:
                combined = math.hypot(se_value, se_ref)
                assert abs(value - ref) <= 3.0 * combined + 1e-12, \
                    f"sigma_sq {sigma_sq}@{snr_db}dB: {value} vs {ref} (3se={3 * combined:.2e})"
                checked += 1
    assert checked == 27
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(10, f"{checked} rate components match the brute-force evaluator "
                f"within 3 combined std errors ({elapsed:.1f}s)")


def _nearest_vertex_gap(region, point):
    return float(np.min(np.max(np.abs(region.vertices - np.asarray(point)), axis=1)))


def test_criterion_11_dof_is_the_high_snr_limit_of_the_rates():
    # Over 1000:3000 dB every config shares one 8192-sample draw, and the
    # rates are finite up to 3082 dB, so each slope in log2 P is the DoF to
    # well within 1e-4, where 40:80 dB gives it to 0.08.  A distortion
    # exponent off by 5% moves the MAT and proposed slopes by over 5e-3.
    start = time.time()
    grid_db = [1000.0 + 500.0 * k for k in range(5)]
    log2p = [db / 10.0 * math.log2(10.0) for db in grid_db]
    alphas, schemes = (0.0, 0.25, 0.5, 1.0), tuple(Scheme)
    cfgs = [CsitConfig.from_alpha(10.0 ** (db / 10.0), alpha) for alpha in alphas for db in grid_db]
    results = rate_scheme(schemes, cfgs, McConfig(n_samples=8192, seed=SEED))
    worst = 0.0
    for k, alpha in enumerate(alphas):
        at_alpha = results[k * len(grid_db):(k + 1) * len(grid_db)]
        main, common = region_main(alpha), region_common_message(alpha)
        for j, scheme in enumerate(schemes):
            rows = [at_snr[j] for at_snr in at_alpha]
            pair = [_fit(log2p, [getattr(res, f) for res in rows]) for f in ("r1", "r2")]
            gap = max(abs(d - dof_scheme(scheme, alpha)) for d in pair)
            assert gap <= 1e-4, f"{scheme.value} at alpha={alpha}: slopes {pair}"
            assert main.contains(pair, tol=1e-4), f"{scheme.value} at alpha={alpha}: {pair}"
            worst = max(worst, gap)
        rs_zf, proposed = ([at_snr[schemes.index(s)] for at_snr in at_alpha]
                           for s in (Scheme.RS_ZF, Scheme.PROPOSED))
        corner = [_fit(log2p, [res.r_c + res.r_p1 for res in rs_zf]),
                  _fit(log2p, [res.r_p2 for res in rs_zf])]
        triple = [_fit(log2p, [getattr(res, f) for res in proposed])
                  for f in ("r_c", "r_p1", "r_p2")]
        assert np.max(np.abs(np.array(corner) - (1.0, alpha))) <= 1e-4, f"alpha={alpha}: {corner}"
        assert _nearest_vertex_gap(main, corner) <= 1e-4
        assert np.max(np.abs(np.array(triple) - (1.0 - alpha, alpha, alpha))) <= 1e-4, \
            f"alpha={alpha}: {triple}"
        assert _nearest_vertex_gap(common, triple) <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(11, f"per-user slopes over 1000:3000 dB within {worst:.1e} of the DoF; "
                f"RS-ZF corner and phase-2 triple on their vertices ({elapsed:.2f}s)")


def test_criterion_12_proposed_bridges_mat_and_zero_forcing():
    # The abstract's bridge claim: without current CSIT (alpha = 0) the
    # proposed scheme is MAT, bit for bit, and with perfect current CSIT
    # (alpha = 1) it is ZF and RS-ZF: no common message, nothing to
    # quantize, and the sum rate's standard error of RS-ZF.
    start = time.time()
    grid_db = (20.0, 40.0, 60.0, 80.0, 1000.0, 3000.0, 3082.0)
    mc_cfg = McConfig(n_samples=20_000, seed=SEED)
    schemes = (Scheme.PROPOSED, Scheme.MAT, Scheme.ZF, Scheme.RS_ZF)
    worst = worst_se = 0.0
    for alpha in (0.0, 1.0):
        cfgs = [CsitConfig.from_alpha(10.0 ** (db / 10.0), alpha) for db in grid_db]
        for db, (proposed, mat, zf, rs_zf) in zip(grid_db, rate_scheme(schemes, cfgs, mc_cfg)):
            if alpha == 0.0:
                assert proposed == mat, f"{db} dB"
                continue
            assert (proposed.r_c, proposed.r_eta1, proposed.r_eta2, rs_zf.r_c) == (0.0,) * 4, \
                f"{db} dB"
            assert (rs_zf.r1, rs_zf.r2) == (zf.r1, zf.r2), f"{db} dB"
            for got, want in ((proposed.r1, zf.r1), (proposed.r2, zf.r2)):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), f"{db} dB"
                worst = max(worst, abs(got - want) / abs(want))
            se = math.hypot(proposed.se_r1, proposed.se_r2)
            se_rs = math.hypot(rs_zf.se_r1, rs_zf.se_r2)
            assert se == pytest.approx(se_rs, rel=1e-9, abs=0.0), f"{db} dB"
            worst_se = max(worst_se, abs(se - se_rs) / se_rs)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(12, f"proposed is MAT at alpha 0 exactly, ZF and RS-ZF at alpha 1 within "
                f"{worst:.1e} relative, sum-rate stderr within {worst_se:.1e} "
                f"({elapsed:.2f}s)")
