"""Every scheme's integrand against independent evaluations of its formulas.

The integrands work from one projection kernel (``rates._project``).  Here
each one is checked sample by sample against (a) explicit covariance
matrices built from ``default_policy`` and rank-1 projectors, evaluated with
``interference_power`` and a 2x2 determinant, and (b) an mpmath evaluation
of the same per-sample formulas at extreme SNR, where forming a covariance
in double precision would lose the nulled quadratic forms.
"""

import mpmath
import numpy as np
import pytest
from numpy.random import Generator, Philox

from misodof import mc, rates
from misodof.channel import CsitConfig, orthogonal_complement, projector, sample_batch
from misodof.mc import McConfig
from misodof.rates import default_policy, interference_power, rate_scheme

SCHEMES = ("tdma", "zf", "mat", "rszf", "proposed")
E1 = np.array([1.0 + 0j, 0.0])
E2 = np.array([0.0 + 0j, 1.0])


def _integrand(scheme, cfg):
    """The batch integrand ``f`` that ``scheme`` hands to ``mc.estimate``."""
    captured = []
    real_estimate = mc.estimate

    def grab(f, mc_cfg, csit):
        captured.append(f)
        return real_estimate(f, McConfig(1, 0), csit)

    mc.estimate = grab
    try:
        rate_scheme(scheme, cfg, McConfig(1, 0))
    finally:
        mc.estimate = real_estimate
    assert len(captured) == 1
    return captured[0]


def _batch(cfg, n, seed):
    return sample_batch(Generator(Philox(key=np.array([seed, 0], dtype=np.uint64))), cfg, n)


def _policy_cfg(scheme, cfg):
    return CsitConfig.from_sigma_sq(cfg.snr_p, 1.0) if scheme == "mat" else cfg


def _unit(x, fallback):
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(norm > 0, x / np.where(norm > 0, norm, 1.0), fallback)


def _perp(x, fallback):
    zero = np.linalg.norm(x, axis=-1, keepdims=True) == 0
    safe = np.where(zero, E1, x)
    return np.where(zero, fallback, orthogonal_complement(safe))


def _explicit_mimo(h, g, pol):
    s = np.stack([np.conj(h), np.conj(g)], axis=-2)
    sh = np.conj(np.swapaxes(s, -1, -2))
    m_u, m_v = s @ pol.q_u @ sh, s @ pol.q_v @ sh
    d = pol.d1_tilde
    sig1, sig2 = m_v[:, 0, 0].real, m_u[:, 1, 1].real

    def gain(sig):
        return np.where((sig > 0) & (d < 1.0), (1.0 - d) / np.where(sig > 0, sig * d, 1.0), 0.0)

    out = []
    for m, r0, r1 in ((m_u, 1.0 / (1.0 + sig1 * d), gain(sig2)),
                      (m_v, gain(sig1), 1.0 / (1.0 + sig2 * d))):
        rows = np.stack([r0, r1], axis=-1)[:, :, None]
        det = np.linalg.det(np.eye(2) + rows * m).real
        out.append(np.log2(np.maximum(det, 1.0)))
    return out


def _explicit_integrand(scheme, cfg, batch):
    h, g, p = batch.h, batch.g, cfg.snr_p
    if scheme == "tdma":
        q_h = p * projector(_unit(batch.h_hat, E1))
        q_g = p * projector(_unit(batch.g_hat, E1))
        return np.stack([np.log2(1.0 + interference_power(h, q_h)),
                         np.log2(1.0 + interference_power(g, q_g))], axis=-1)
    if scheme == "zf":
        q1 = p / 2.0 * projector(_perp(batch.g_hat, E1))
        q2 = p / 2.0 * projector(_perp(batch.h_hat, E2))
        ip = interference_power
        return np.stack([np.log2(1.0 + ip(h, q1) / (1.0 + ip(h, q2))),
                         np.log2(1.0 + ip(g, q2) / (1.0 + ip(g, q1)))], axis=-1)
    pol = default_policy(_policy_cfg(scheme, cfg), batch)
    ch, ph1, ph2, cg, pg1, pg2 = (interference_power(x, q) for x in (h, g)
                                  for q in (pol.q_c, pol.q_p1, pol.q_p2))
    cols = [np.log2(1.0 + ch / (1.0 + ph1 + ph2)), np.log2(1.0 + cg / (1.0 + pg1 + pg2)),
            np.log2(1.0 + ph1 / (1.0 + ph2)), np.log2(1.0 + pg2 / (1.0 + pg1))]
    if scheme != "rszf":
        cols += _explicit_mimo(h, g, pol)
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("snr_p", [1e2, 1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrand_matches_explicit_matrices(scheme, snr_p, alpha):
    cfg = CsitConfig.from_alpha(snr_p, alpha)
    batch = _batch(cfg, 512, seed=41)
    got = _integrand(scheme, cfg)(batch)
    np.testing.assert_allclose(got, _explicit_integrand(scheme, cfg, batch),
                               rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("fallback", [E1, E2])
def test_kernel_columns_match_projectors(alpha, fallback):
    cfg = CsitConfig.from_alpha(1e4, alpha)
    batch = _batch(cfg, 256, seed=42)
    for est in (batch.h_hat, batch.g_hat):
        w = _unit(est, fallback)
        w_perp = np.stack([-np.conj(w[:, 1]), np.conj(w[:, 0])], axis=-1)
        h_par, h_perp, g_par, g_perp = rates._project(batch, est, fallback)
        for col, x, beam in ((h_par, batch.h, w), (h_perp, batch.h, w_perp),
                             (g_par, batch.g, w), (g_perp, batch.g, w_perp)):
            np.testing.assert_allclose(np.abs(col) ** 2, interference_power(x, projector(beam)),
                                       rtol=1e-12, atol=1e-14)
        a, b = 3.0, 0.25
        q = a * projector(w_perp) + b * projector(w)
        s = np.stack([np.conj(batch.h), np.conj(batch.g)], axis=-2)
        m = s @ q @ np.conj(np.swapaxes(s, -1, -2))
        (m00, m11, off), h_perp2, g_perp2 = rates._beam_pair((h_par, h_perp, g_par, g_perp), a, b)
        np.testing.assert_allclose(m00, m[:, 0, 0].real, rtol=1e-12)
        np.testing.assert_allclose(m11, m[:, 1, 1].real, rtol=1e-12)
        np.testing.assert_allclose(off, np.abs(m[:, 0, 1]) ** 2, rtol=1e-10)
        np.testing.assert_allclose(h_perp2, np.abs(h_perp) ** 2, rtol=1e-15)
        np.testing.assert_allclose(g_perp2, np.abs(g_perp) ** 2, rtol=1e-15)


# --- mpmath evaluation of the same per-sample formulas --------------------
#
# Split in two, because the nulled projections are ill-conditioned in their
# inputs: with g = g_hat + g_tilde rounded to double, |g_hat-perp^H g| ~ sigma
# carries an absolute error ~eps |g| whatever evaluates it.  So the kernel is
# checked for backward stability (absolute error a few eps |x|), and the
# arithmetic after it, where a formed covariance would cancel, is checked at
# rtol 1e-9 against mpmath fed the kernel's own columns.

EPS = np.finfo(float).eps
# (fallback of g_hat, fallback of h_hat) each scheme gives the kernel
FALLBACKS = {"tdma": (E1, E1), "zf": (E2, E1), "mat": (E2, E2), "rszf": (E2, E2),
             "proposed": (E2, E2)}


def _mp_vec(x):
    return [mpmath.mpc(complex(v)) for v in x]


def _mp_log2(x):
    return mpmath.log(x, 2)


def _mp_sample(scheme, cfg, x_pow, cols_g, cols_h):
    """Per-sample log terms from per-antenna powers and the kernel columns."""
    p = mpmath.mpf(cfg.snr_p)
    ab2 = [[abs(v) ** 2 for v in cols] for cols in (cols_g, cols_h)]
    (hg, hg_perp, gg, gg_perp), (hh, hh_perp, gh, gh_perp) = ab2
    if scheme == "tdma":
        return [_mp_log2(1 + p * hh), _mp_log2(1 + p * gg)]
    if scheme == "zf":
        return [_mp_log2(1 + p / 2 * hg_perp / (1 + p / 2 * hh_perp)),
                _mp_log2(1 + p / 2 * gh_perp / (1 + p / 2 * gg_perp))]
    pcfg = _policy_cfg(scheme, cfg)
    p1, p2, p_c, p_p = (mpmath.mpf(v) for v in rates._power_split(pcfg))
    d = mpmath.mpf(rates._distortion(pcfg))
    ch, cg = p_c / 2 * (x_pow[0] + x_pow[1]), p_c / 2 * (x_pow[2] + x_pow[3])
    ph1, pg1, ph2, pg2 = (p_p / 2 * v for v in (hg_perp, gg_perp, hh_perp, gh_perp))
    out = [_mp_log2(1 + ch / (1 + ph1 + ph2)), _mp_log2(1 + cg / (1 + pg1 + pg2)),
           _mp_log2(1 + ph1 / (1 + ph2)), _mp_log2(1 + pg2 / (1 + pg1))]
    if scheme == "rszf":
        return out

    def entries(cols):
        # S Q S^H for Q = (p1/2) w-perp w-perp^H + (p2/2) w w^H, S = [h^H; g^H]
        h_par, h_perp, g_par, g_perp = cols
        m01 = p1 / 2 * h_perp * mpmath.conj(g_perp) + p2 / 2 * h_par * mpmath.conj(g_par)
        return (p1 / 2 * abs(h_perp) ** 2 + p2 / 2 * abs(h_par) ** 2,
                p1 / 2 * abs(g_perp) ** 2 + p2 / 2 * abs(g_par) ** 2, abs(m01) ** 2)

    def gain(sig):
        return 0 if sig <= 0 or d >= 1 else (1 - d) / (sig * d)

    (u00, u11, u_off), (v00, v11, v_off) = entries(cols_g), entries(cols_h)
    for m00, m11, off, r0, r1 in ((u00, u11, u_off, 1 / (1 + v00 * d), gain(u11)),
                                  (v00, v11, v_off, gain(v00), 1 / (1 + u11 * d))):
        out.append(_mp_log2(max((1 + r0 * m00) * (1 + r1 * m11) - r0 * r1 * off, 1)))
    return out


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("log2_p", [60, 80, 100, 120])
@pytest.mark.parametrize("fallback", [E1, E2])
def test_kernel_backward_stable_at_extreme_snr(fallback, log2_p, alpha):
    cfg = CsitConfig.from_alpha(2.0 ** log2_p, alpha)
    batch = _batch(cfg, 16, seed=43)
    with mpmath.workdps(80):
        for est in (batch.h_hat, batch.g_hat):
            cols = rates._project(batch, est, fallback)
            for i in range(batch.n):
                e = _mp_vec(est[i])
                norm = mpmath.sqrt(sum(abs(v) ** 2 for v in e))
                w = [v / norm for v in e]
                w_perp = [-mpmath.conj(w[1]), mpmath.conj(w[0])]
                for k, (x, beam) in enumerate(((batch.h, w), (batch.h, w_perp),
                                               (batch.g, w), (batch.g, w_perp))):
                    xi = _mp_vec(x[i])
                    ref = mpmath.conj(beam[0]) * xi[0] + mpmath.conj(beam[1]) * xi[1]
                    assert abs(mpmath.mpc(complex(cols[k][i])) - ref) <= 4 * EPS * mpmath.sqrt(
                        abs(xi[0]) ** 2 + abs(xi[1]) ** 2)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("log2_p", [60, 80, 100, 120])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrand_matches_mpmath_at_extreme_snr(scheme, log2_p, alpha):
    cfg = CsitConfig.from_alpha(2.0 ** log2_p, alpha)
    batch = _batch(cfg, 16, seed=43)
    got = _integrand(scheme, cfg)(batch)
    fb_g, fb_h = FALLBACKS[scheme]
    cols_g = rates._project(batch, batch.g_hat, fb_g)
    cols_h = rates._project(batch, batch.h_hat, fb_h)
    with mpmath.workdps(80):
        ref = np.array([[float(v) for v in _mp_sample(
            scheme, cfg, [abs(v) ** 2 for v in _mp_vec([*batch.h[i], *batch.g[i]])],
            _mp_vec(c[i] for c in cols_g), _mp_vec(c[i] for c in cols_h))]
            for i in range(batch.n)])
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
