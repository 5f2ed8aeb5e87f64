import math

import numpy as np
import pytest

from misodof import mc, rates
from misodof.channel import CsitConfig, Normals, sample_batch
from misodof.mc import McConfig, estimate
from misodof.oracles import mean_log2_quadratic
from misodof.rates import (
    RateResult,
    _beam_pairs,
    _distortion,
    _mimo_logdets,
    _power_split,
    _project,
    quantization_rate,
    rate_scheme,
)
from misodof.regions import Scheme
from reference import (
    E1, E2, interference_power, pair_entries, perp, policy_beams, policy_matrices, unit, vectors,
)

# Frozen by a straight-line determinant evaluation done ahead of the
# implementation: h=(1,0), g=(0,1), Q_u=diag(4,1), Q_v=diag(1,4), D=0.5.
MIMO_FIXED_SAMPLE_RATE = 2.874469117916141


def _rng(seed=0):
    return mc.block_rng(seed, 0)


def _explicit_mimo_logdets(h, g, q_u, q_v, d):
    # both users' equivalent-MIMO rates at P = 1 from the explicit entries
    # of S q S^H; q_u and q_v must share their determinant
    (u00, u11, u_off), (v00, v11, _) = (pair_entries(h, g, q) for q in (q_u, q_v))
    out = np.empty((2, np.size(u00)))
    _mimo_logdets(np.array([[v00, u11], [u00, v11]]), 1.0, u00 * u11 - u_off, d, 1.0, out)
    return out[0], out[1]


def _fixed_mimo_rates(q_u, q_v, d):
    # both users' equivalent-MIMO rates at h = (1, 0), g = (0, 1)
    h = np.array([[1.0 + 0j, 0.0 + 0j]])
    g = np.array([[0.0 + 0j, 1.0 + 0j]])
    m1, m2 = _explicit_mimo_logdets(h, g, q_u, q_v, d)
    return float(m1[0]), float(m2[0])


class TestDefaultPolicy:
    def test_no_csit_split(self):
        cfg = CsitConfig.from_sigma_sq(1e4, 1.0)
        p1, p2, p_c, p_p = _power_split(cfg)
        p = cfg.snr_p
        assert p_p == 0.0
        assert p_c == pytest.approx(p)
        assert p1 == pytest.approx(p / 2.0)
        assert p2 == pytest.approx(p / 2.0)
        # isotropic phase-1 covariances in the no-CSIT regime: each zero
        # estimate's two beams carry p/4 each
        [batch] = sample_batch(_rng(1), [cfg], 64)
        v = vectors(batch)
        sq, det = _project(batch)
        m = _beam_pairs(sq, p1 / 2.0, p2 / 2.0)
        for m00, m11 in ((m[0, 0], m[1, 1]), (m[1, 0], m[0, 1])):  # h_hat's, g_hat's beams
            np.testing.assert_allclose(m00, p / 4.0 * np.sum(np.abs(v.h) ** 2, axis=1),
                                       rtol=1e-12)
            np.testing.assert_allclose(m11, p / 4.0 * np.sum(np.abs(v.g) ** 2, axis=1),
                                       rtol=1e-12)
        gram = np.abs(np.linalg.det(np.stack([v.h, v.g], axis=-1))) ** 2
        np.testing.assert_allclose(det, gram, rtol=1e-9)

    def test_perfect_csit_split(self):
        cfg = CsitConfig.from_sigma_sq(1e4, 1e-4)
        assert _power_split(cfg) == (cfg.snr_p, 0.0, 0.0, cfg.snr_p)  # p1, p2, p_c, p_p
        assert _distortion(cfg) == 1.0

    def test_traces_meet_power_budget_exactly(self):
        p = 10 ** 4.7
        for alpha in (0.0, 0.3, 0.5, 1.0):
            p1, p2, p_c, p_p = _power_split(CsitConfig.from_alpha(p, alpha))
            assert abs(p1 + p2 - p) < 1e-9 * p
            assert abs(p_c + p_p - p) < 1e-9 * p
        # the explicit covariances built from the split spend exactly P per phase
        cfg = CsitConfig.from_alpha(p, 0.3)
        [batch] = sample_batch(_rng(3), [cfg], 512)
        v = vectors(batch)
        q = policy_matrices(cfg, v.h_hat, v.g_hat)
        tr1 = np.real(np.trace(q["q_u"], axis1=-2, axis2=-1)
                      + np.trace(q["q_v"], axis1=-2, axis2=-1))
        tr2 = np.real(np.trace(q["q_c"]) + np.trace(q["q_p1"], axis1=-2, axis2=-1)
                      + np.trace(q["q_p2"], axis1=-2, axis2=-1))
        assert np.max(np.abs(tr1 - cfg.snr_p)) < 1e-9 * cfg.snr_p
        assert np.max(np.abs(tr2 - cfg.snr_p)) < 1e-9 * cfg.snr_p

    def test_distortion_clamped(self):
        assert _distortion(CsitConfig.from_alpha(2.0 ** 10, 0.5)) == pytest.approx(2.0 ** -5)
        # 1 when the error variance is below the AWGN level, where alpha is 1
        assert _distortion(CsitConfig.from_sigma_sq(1e4, 1e-6)) == 1.0


class TestInterferencePower:
    def test_identity_covariance(self):
        h = np.array([1.0, 0.0], dtype=complex)
        assert interference_power(h, np.eye(2, dtype=complex)) == pytest.approx(1.0)

    def test_estimate_sees_only_aligned_power(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        [batch] = sample_batch(_rng(6), [cfg], 256)
        v = vectors(batch)
        q_v = policy_matrices(cfg, v.h_hat, v.g_hat)["q_v"]
        got = interference_power(v.h_hat, q_v)
        expected = (_power_split(cfg)[1] / 2.0) * np.sum(np.abs(v.h_hat) ** 2, axis=1)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_mean_scaling_with_power(self):
        # quick version of the averaged-interference scaling law
        alpha = 0.5
        xs, ys = [], []
        for log2p in (12, 18, 24):
            cfg = CsitConfig.from_alpha(2.0 ** log2p, alpha)

            def f(batch):
                v = vectors(batch)
                comps = policy_beams(cfg, v.h_hat, v.g_hat)
                return np.maximum(
                    sum(c * np.abs(np.sum(np.conj(v.h) * w, axis=-1)) ** 2
                        for c, w in comps["q_v"]), 0.0)

            [est] = estimate(f, McConfig(50_000, 7), [cfg])
            xs.append(log2p)
            ys.append(math.log2(est.mean[0]))
        slope = np.polyfit(xs, ys, 1)[0]
        assert abs(slope - (1.0 - alpha)) < 0.05


class TestQuantizationRate:
    def test_values(self):
        assert quantization_rate(1.0) == 0.0
        assert math.copysign(1.0, quantization_rate(1.0)) == 1.0   # never -0.0
        assert quantization_rate(0.25) == pytest.approx(2.0)
        cfg = CsitConfig.from_alpha(2.0 ** 10, 0.5)
        assert quantization_rate(_distortion(cfg)) == pytest.approx(5.0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            quantization_rate(bad)


class TestMimoRate:
    def test_zero_covariance_gives_zero(self):
        zero = np.zeros((2, 2), complex)
        assert _fixed_mimo_rates(zero, zero, 0.5) == (0.0, 0.0)

    def test_unit_distortion_reduces_to_sinr(self):
        cfg = CsitConfig.from_alpha(1e3, 0.5)
        [batch] = sample_batch(_rng(8), [cfg], 64)
        v = vectors(batch)
        q_u = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]], dtype=complex)
        q_v = np.array([[1.0, -0.2j], [0.2j, 3.0]], dtype=complex)
        # at d = 1 no side information is decoded, so det(q) is never read
        m1, m2 = _explicit_mimo_logdets(v.h, v.g, q_u, q_v, 1.0)
        sig, noise = interference_power(v.h, q_u), interference_power(v.h, q_v)
        np.testing.assert_allclose(m1, np.log2(1.0 + sig / (1.0 + noise)), rtol=1e-12)
        sig, noise = interference_power(v.g, q_v), interference_power(v.g, q_u)
        np.testing.assert_allclose(m2, np.log2(1.0 + sig / (1.0 + noise)), rtol=1e-12)

    def test_frozen_fixed_sample_value(self):
        m1, m2 = _fixed_mimo_rates(np.diag([4.0, 1.0]).astype(complex),
                                   np.diag([1.0, 4.0]).astype(complex), 0.5)
        assert m1 == pytest.approx(MIMO_FIXED_SAMPLE_RATE, rel=1e-12)
        assert m2 == pytest.approx(MIMO_FIXED_SAMPLE_RATE, rel=1e-12)


class TestCommonMessage:
    def test_full_private_power_recovers_zero_forcing(self):
        # At alpha = 1 the default policy puts all of P into the zero-forced
        # privates (p_p = P/2 each, like ZF's beams) and none into the common
        # message, so RS-ZF's private rates are ZF's rates, bit for bit.
        cfgs = [CsitConfig.from_alpha(2.0 ** k, 1.0) for k in (10, 40, 100)]
        for cfg in cfgs:
            assert _power_split(cfg)[2:] == (0.0, cfg.snr_p)
        for rs_zf, zf in rate_scheme((Scheme.RS_ZF, Scheme.ZF), cfgs, McConfig(20_000, 11)):
            assert rs_zf.r_c == 0.0
            assert (rs_zf.r_p1, rs_zf.r_p2) == (zf.r1, zf.r2)

    @pytest.mark.parametrize("build, quality", [
        (CsitConfig.from_alpha, 0.0), (CsitConfig.from_alpha, 0.5),
        (CsitConfig.from_alpha, 1.0), (CsitConfig.from_sigma_sq, 0.1),
    ])
    def test_zero_forcing_is_private_rates_only(self, build, quality):
        # ZF is rate splitting at the alpha = 1 split, whatever the CSIT: no
        # common message, and each user's rate is its private rate.
        cfgs = [build(10.0 ** (db / 10.0), quality) for db in (20.0, 60.0)]
        for zf in rate_scheme(Scheme.ZF, cfgs, McConfig(5_000, 12)):
            assert (zf.r_c, zf.se_r_c) == (0.0, 0.0)
            assert (zf.r_p1, zf.r_p2) == (zf.r1, zf.r2)
            assert (zf.se_r_p1, zf.se_r_p2) == (zf.se_r1, zf.se_r2)


class TestProposedScheme:
    def test_perfect_csit_degenerates_to_single_phase(self):
        cfg = CsitConfig.from_alpha(1e4, 1.0)
        [res] = rate_scheme("proposed", [cfg], McConfig(20_000, 13))
        assert res.r_eta1 == 0.0 and res.r_eta2 == 0.0
        assert res.r1 == res.r_mimo1
        assert res.r2 == res.r_mimo2

    def test_no_csit_has_no_private_messages(self):
        cfg = CsitConfig.from_alpha(1e4, 0.0)
        [res] = rate_scheme("proposed", [cfg], McConfig(20_000, 14))
        assert res.r_p1 == 0.0 and res.r_p2 == 0.0
        r_eta = res.r_eta1 + res.r_eta2
        assert res.r_eta1 == pytest.approx(math.log2(1e4))
        assert res.r1 == pytest.approx(res.r_c * res.r_mimo1 / (res.r_c + r_eta), rel=1e-12)

    def test_user_symmetry(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        [res] = rate_scheme("proposed", [cfg], McConfig(100_000, 15))
        combined = math.hypot(res.se_r1, res.se_r2)
        assert abs(res.r1 - res.r2) < 3.0 * combined

    def test_monotone_in_alpha(self):
        mc_cfg = McConfig(30_000, 16)
        sums, errs = [], []
        for alpha in np.linspace(0.0, 1.0, 6):
            cfg = CsitConfig.from_alpha(2.0 ** 40, alpha)
            [res] = rate_scheme("proposed", [cfg], mc_cfg)
            sums.append(res.r1 + res.r2)
            errs.append(math.hypot(res.se_r1, res.se_r2))
        for k in range(len(sums) - 1):
            slack = 3.0 * math.hypot(errs[k], errs[k + 1])
            assert sums[k + 1] >= sums[k] - slack

    def test_all_components_nonnegative(self):
        cfg = CsitConfig.from_alpha(1e3, 0.3)
        [res] = rate_scheme("proposed", [cfg], McConfig(10_000, 17))
        for field in ("r1", "r2", "r_c", "r_p1", "r_p2", "r_mimo1", "r_mimo2",
                      "r_eta1", "r_eta2"):
            assert getattr(res, field) >= 0.0
        assert math.isfinite(res.r1) and math.isfinite(res.r2)

    def test_quantization_rate_bound(self):
        # E[log2 interference powers] stays below 2(1-alpha) log2 P + C with
        # C calibrated at the lowest power
        alpha = 0.5
        mc_cfg = McConfig(50_000, 18)
        measured = {}
        for log2p in (20, 30, 40):
            cfg = CsitConfig.from_alpha(2.0 ** log2p, alpha)

            def f(batch):
                v = vectors(batch)
                comps = policy_beams(cfg, v.h_hat, v.g_hat)
                s1 = np.maximum(
                    sum(c * np.abs(np.sum(np.conj(v.h) * w, axis=-1)) ** 2
                        for c, w in comps["q_v"]), 1e-300)
                s2 = np.maximum(
                    sum(c * np.abs(np.sum(np.conj(v.g) * w, axis=-1)) ** 2
                        for c, w in comps["q_u"]), 1e-300)
                return np.log2(s1) + np.log2(s2)

            [est] = estimate(f, mc_cfg, [cfg])
            measured[log2p] = (est.mean, est.std_error)
        c_fit = measured[20][0] - 2.0 * (1.0 - alpha) * 20
        for log2p in (30, 40):
            bound = 2.0 * (1.0 - alpha) * log2p + c_fit
            mean, se = measured[log2p]
            assert mean <= bound + 3.0 * se + 0.15


class TestBaselines:
    def test_mat_matches_forced_policy(self):
        cfg = CsitConfig.from_alpha(1e4, 0.6)
        mc_cfg = McConfig(20_000, 19)
        [mat] = rate_scheme("mat", [cfg], mc_cfg)
        assert mat.r_eta1 == pytest.approx(math.log2(cfg.snr_p))
        assert mat.r_p1 == 0.0

    def test_rs_zf_time_sharing_identity(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        [res] = rate_scheme("rszf", [cfg], McConfig(20_000, 20))
        assert res.r1 == pytest.approx(0.5 * res.r_c + res.r_p1, rel=1e-12)
        assert res.r2 == pytest.approx(0.5 * res.r_c + res.r_p2, rel=1e-12)

    def test_tdma_half_time_share(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)

        def full_slot(batch):
            v = vectors(batch)
            beam = unit(v.h_hat, E1)
            sig = cfg.snr_p * np.abs(np.sum(np.conj(v.h) * beam, axis=-1)) ** 2
            return np.log2(1.0 + sig)

        mc_cfg = McConfig(20_000, 21)
        [res] = rate_scheme("tdma", [cfg], mc_cfg)
        [ref] = estimate(full_slot, mc_cfg, [cfg])
        assert res.r1 == pytest.approx(0.5 * ref.mean, rel=1e-12)

    def test_zf_perfect_nulling_of_estimates(self):
        # the beam serving user 2 carries no power toward user 1's estimate
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        [batch] = sample_batch(_rng(22), [cfg], 1024)
        h_hat = vectors(batch).h_hat
        w2 = perp(h_hat, E2)
        leak = np.abs(np.sum(np.conj(h_hat) * w2, axis=-1)) ** 2
        assert leak.max() < 1e-20

    def test_positive_rates_all_schemes(self):
        cfg = CsitConfig.from_alpha(1e3, 0.5)
        mc_cfg = McConfig(5_000, 23)
        for scheme in ("tdma", "zf", "mat", "rszf", "proposed"):
            [res] = rate_scheme(scheme, [cfg], mc_cfg)
            assert res.r1 > 0 and res.r2 > 0
            assert res.se_r1 >= 0 and res.se_r2 >= 0


def test_rate_result_dataclass_defaults():
    res = RateResult(r1=1.0, r2=2.0, se_r1=0.1, se_r2=0.1)
    assert res.r_c == 0.0 and res.r_eta2 == 0.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_scheme_group_equals_single_schemes(alpha, workers):
    # One shared estimate for a tuple of schemes gives each scheme exactly
    # its own single-scheme result, in the order asked for.  At alpha 0 the
    # estimates are zero and their fixed beams decide.
    cfg = CsitConfig.from_alpha(1e3, alpha)
    mc_cfg = McConfig(10_000, 25, workers)
    singles = {s: rate_scheme(s, [cfg], mc_cfg)[0] for s in Scheme}
    assert rate_scheme(tuple(Scheme), [cfg], mc_cfg) == [tuple(singles.values())]
    permuted = (Scheme.PROPOSED, Scheme.TDMA, Scheme.RS_ZF, Scheme.MAT, Scheme.ZF)
    assert rate_scheme(permuted, [cfg], mc_cfg) == [tuple(singles[s] for s in permuted)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_snr_grid_equals_per_config_calls(alpha, workers):
    # One call over a grid of SNRs draws each block once for every config;
    # each config's batches and results stay exactly those of its own
    # one-element grid.
    cfgs = [CsitConfig.from_alpha(10.0 ** (db / 10.0), alpha) for db in (10.0, 30.0, 50.0)]
    grid_batches = list(sample_batch(mc.block_rng(27, 0), cfgs, 8192))
    fields = ("h", "g", "h_hat", "g_hat", "h_tilde", "g_tilde")
    for cfg, batch in zip(cfgs, grid_batches):
        [own] = sample_batch(mc.block_rng(27, 0), [cfg], 8192)
        assert batch.csit == own.csit == cfg
        v, own_v = vectors(batch), vectors(own)
        assert all(np.array_equal(getattr(v, k), getattr(own_v, k)) for k in fields)

    mc_cfg = McConfig(2 * 8192 + 100, 27, workers)
    grid = rate_scheme(tuple(Scheme), cfgs, mc_cfg)
    assert grid == [rate_scheme(tuple(Scheme), [cfg], mc_cfg)[0] for cfg in cfgs]
    assert rate_scheme(Scheme.PROPOSED, cfgs, mc_cfg) == [at[-1] for at in grid]


@pytest.mark.parametrize("group", [tuple(Scheme), tuple(reversed(Scheme)), "proposed", "tdma"])
def test_group_runs_each_kernel_pair_once_per_block(group, monkeypatch):
    # Any group, in any order, reads one projection onto both estimates'
    # beams per config and block.  With estimates (alpha 0.5) g_hat's beams
    # read g's errors in g_hat's frame, one rotation that every config of
    # the block shares, TDMA's row too; at alpha 0 the estimates are zero
    # and nothing is rotated.
    snrs = (1e3, 1e4, 1e5)
    for alpha, rotations in ((0.0, 0), (0.5, 1)):
        calls = {"_project": 0, "g_frame": 0}

        def counted(name, real):
            def call(*a):
                calls[name] += 1
                return real(*a)
            return call

        monkeypatch.setattr(rates, "_project", counted("_project", rates._project))
        monkeypatch.setattr(Normals.g_frame, "func", counted("g_frame", Normals.g_frame.func))
        rate_scheme(group, [CsitConfig.from_alpha(p, alpha) for p in snrs],
                    McConfig(2 * 8192, 26))
        monkeypatch.undo()
        assert calls == {"_project": 2 * len(snrs), "g_frame": 2 * rotations}


@pytest.mark.parametrize("csit", [*(("alpha", a) for a in (0.0, 0.25, 0.5, 1.0)),
                                  ("sigma_sq", 1.0)], ids="{0[0]}{0[1]}".format)
@pytest.mark.parametrize("group", [*Scheme, tuple(Scheme), tuple(reversed(Scheme))],
                         ids=["tdma", "zf", "mat", "rszf", "proposed", "all", "all_reversed"])
def test_integrand_rows_are_distinct_and_not_constant(group, csit, monkeypatch):
    # Each column a group reads is one row of its integrand, computed and
    # reduced once: a column that is exactly 0 (ZF's common pair, MAT's
    # private pair) is no row, and one that schemes share is one row.  At
    # alpha 0.5 the group of every scheme has 14 rows, the proposed scheme 6.
    kind, value = csit
    cfg = (CsitConfig.from_alpha if kind == "alpha" else CsitConfig.from_sigma_sq)(1e4, value)
    real, captured = mc.estimate, []

    def grab(f, mc_cfg, cfgs):
        captured.append(f)
        return real(f, mc_cfg, cfgs)

    monkeypatch.setattr(mc, "estimate", grab)
    rate_scheme(group, [cfg], McConfig(2, 0))
    [batch] = sample_batch(_rng(29), [cfg], 512)
    rows = captured[0](batch)
    assert np.all(np.ptp(rows, axis=1) > 0.0)
    assert len(np.unique(rows, axis=0)) == len(rows)
    widths = {Scheme.PROPOSED: 6, tuple(Scheme): 14, tuple(reversed(Scheme)): 14}
    if csit == ("alpha", 0.5) and group in widths:
        assert len(rows) == widths[group]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_mat_common_rate_matches_exact_mean(alpha):
    # MAT sends no private power (p_p = 0), so its common columns are
    # log2(1 + (P/2) ||h||^2) with h ~ CN(0, I) at any alpha, whose mean the
    # oracle evaluates exactly; the outer min of the two users' means may
    # only pull r_c down by its sampling noise.
    snrs = [2.0 ** k for k in range(20, 201, 30)]
    results = rate_scheme(Scheme.MAT, [CsitConfig.from_alpha(p, alpha) for p in snrs],
                          McConfig(50_000, 3))
    for p, res in zip(snrs, results):
        exact = float(mean_log2_quadratic((p / 2.0, p / 2.0), np.zeros(2), 1.0))
        assert abs(res.r_c - exact) <= 4.0 * res.se_r_c, p


def test_a_bare_config_is_not_a_grid():
    # the sampler, the estimator and the rate entry point take only a
    # sequence of configs; a lone CsitConfig fails loudly, never runs as one
    cfg = CsitConfig.from_alpha(1e3, 0.5)
    with pytest.raises(TypeError):
        sample_batch(_rng(1), cfg, 8)
    with pytest.raises(TypeError):
        estimate(lambda batch: np.ones(batch.n), McConfig(16, 1), cfg)
    with pytest.raises(TypeError):
        rate_scheme(Scheme.ZF, cfg, McConfig(16, 1))
