"""Every scheme's integrand against independent evaluations of its formulas.

The integrands work from one projection kernel (``rates._project``), built
from the block's estimate and error normals apart.  Here each one is checked
sample by sample against (a) explicit covariance matrices that
``reference.policy_matrices`` builds from rank-1 projectors, evaluated with
``interference_power`` and a 2x2 determinant, and (b) an mpmath evaluation
of the same per-sample formulas at extreme SNR, fed the estimates and errors
themselves, where forming a covariance or the sum h = h_hat + h_tilde in
double precision would lose the nulled quadratic forms.
"""

import mpmath
import numpy as np
import pytest
from numpy.random import Generator, Philox

from misodof import mc, rates
from misodof.channel import CsitConfig, sample_batch
from misodof.mc import McConfig
from misodof.rates import interference_power, rate_scheme
from misodof.regions import Scheme
from reference import E1, E2, perp, policy_matrices, projector, unit

SCHEMES = ("tdma", "zf", "mat", "rszf", "proposed")
# each fallback beam with the kernel's name for it
FALLBACKS = [(E1, rates._E1), (E2, rates._E2)]


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


def _explicit_mimo(h, g, q_u, q_v, d):
    s = np.stack([np.conj(h), np.conj(g)], axis=-2)
    sh = np.conj(np.swapaxes(s, -1, -2))
    m_u, m_v = s @ q_u @ sh, s @ q_v @ sh
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
        q_h = p * projector(unit(batch.h_hat, E1))
        q_g = p * projector(unit(batch.g_hat, E1))
        return np.stack([np.log2(1.0 + interference_power(h, q_h)),
                         np.log2(1.0 + interference_power(g, q_g))], axis=-1)
    if scheme == "zf":
        q1 = p / 2.0 * projector(perp(batch.g_hat, E1))
        q2 = p / 2.0 * projector(perp(batch.h_hat, E2))
        ip = interference_power
        return np.stack([np.log2(1.0 + ip(h, q1) / (1.0 + ip(h, q2))),
                         np.log2(1.0 + ip(g, q2) / (1.0 + ip(g, q1)))], axis=-1)
    pcfg = _policy_cfg(scheme, cfg)
    q = policy_matrices(pcfg, batch.h_hat, batch.g_hat)
    ch, ph1, ph2, cg, pg1, pg2 = (interference_power(x, q[name]) for x in (h, g)
                                  for name in ("q_c", "q_p1", "q_p2"))
    cols = [np.log2(1.0 + ch / (1.0 + ph1 + ph2)), np.log2(1.0 + cg / (1.0 + pg1 + pg2)),
            np.log2(1.0 + ph1 / (1.0 + ph2)), np.log2(1.0 + pg2 / (1.0 + pg1))]
    if scheme != "rszf":
        cols += _explicit_mimo(h, g, q["q_u"], q["q_v"], rates._distortion(pcfg))
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


def test_zero_estimate_row_is_non_finite():
    # Below sigma_sq = 1 a zero estimate has probability 0 and no fallback
    # beam: its row comes out non-finite, which mc.estimate reports (exit 3).
    cfg = CsitConfig.from_alpha(1e4, 0.5)
    batch = _batch(cfg, 64, seed=44)
    batch.normals.e[5, 0:2] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _integrand(tuple(Scheme), cfg)(batch)
    assert np.flatnonzero(~np.isfinite(got).all(axis=1)).tolist() == [5]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("fallback", FALLBACKS)
def test_kernel_columns_match_projectors(alpha, fallback):
    cfg = CsitConfig.from_alpha(1e4, alpha)
    batch = _batch(cfg, 256, seed=42)
    fallback_beam, order = fallback
    for name in ("h_hat", "g_hat"):
        w = unit(getattr(batch, name), fallback_beam)
        w_perp = np.stack([-np.conj(w[:, 1]), np.conj(w[:, 0])], axis=-1)
        cols = rates._project(batch, order)[name]
        kernel = rates._Kernel(cols)
        h_par, h_perp, g_par, g_perp = cols
        for col, x, beam in ((h_par, batch.h, w), (h_perp, batch.h, w_perp),
                             (g_par, batch.g, w), (g_perp, batch.g, w_perp)):
            np.testing.assert_allclose(np.abs(col) ** 2, interference_power(x, projector(beam)),
                                       rtol=1e-12, atol=1e-14)
        a, b = 3.0, 0.25
        q = a * projector(w_perp) + b * projector(w)
        s = np.stack([np.conj(batch.h), np.conj(batch.g)], axis=-2)
        m = s @ q @ np.conj(np.swapaxes(s, -1, -2))
        m00, m11, off = rates._beam_pair(kernel, a, b)
        np.testing.assert_allclose(m00, m[:, 0, 0].real, rtol=1e-12)
        np.testing.assert_allclose(m11, m[:, 1, 1].real, rtol=1e-12)
        np.testing.assert_allclose(off, np.abs(m[:, 0, 1]) ** 2, rtol=1e-10)
        for col, col_sq in zip(cols, kernel.sq):
            np.testing.assert_allclose(col_sq, np.abs(col) ** 2, rtol=1e-15)


# --- mpmath evaluation of the same per-sample formulas --------------------
#
# The reference is fed the estimates and errors as stored, sums
# h = h_hat + h_tilde exactly and takes its beams from the estimates.  The
# kernel never forms the rounded sum, so along a nulled direction it keeps
# |h_hat-perp^H h| ~ sigma to full relative precision even where
# sigma ~ eps |h_hat|; projecting a rounded h would leave a residue
# ~eps |h_hat| that the private beam scales by ~P.

EPS = np.finfo(float).eps


def _mp_vec(x):
    return [mpmath.mpc(complex(v)) for v in x]


def _mp_log2(x):
    return mpmath.log(x, 2)


def _mp_beams(est):
    # w = est/|est| and w-perp = (-conj(w_2), conj(w_1))
    norm = mpmath.sqrt(sum(abs(v) ** 2 for v in est))
    w = [v / norm for v in est]
    return w, [-mpmath.conj(w[1]), mpmath.conj(w[0])]


def _mp_dot(beam, x):
    # beam^H x
    return mpmath.conj(beam[0]) * x[0] + mpmath.conj(beam[1]) * x[1]


def _mp_channels(batch, i):
    # h_hat, g_hat and the exact h, g of sample i
    h_hat, g_hat = _mp_vec(batch.h_hat[i]), _mp_vec(batch.g_hat[i])
    h = [u + v for u, v in zip(h_hat, _mp_vec(batch.h_tilde[i]))]
    g = [u + v for u, v in zip(g_hat, _mp_vec(batch.g_tilde[i]))]
    return h_hat, g_hat, h, g


def _mp_sample(scheme, cfg, h_hat, g_hat, h, g):
    """Per-sample log terms from the estimates and the exact channels."""
    p = mpmath.mpf(cfg.snr_p)
    # (h.w, h.w-perp, g.w, g.w-perp) for the beams of g_hat and of h_hat
    cols_g, cols_h = ([_mp_dot(b, x) for x in (h, g) for b in _mp_beams(est)]
                      for est in (g_hat, h_hat))
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
    ch, cg = (p_c / 2 * sum(abs(v) ** 2 for v in x) for x in (h, g))
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
@pytest.mark.parametrize("fallback", FALLBACKS)
def test_kernel_backward_stable_at_extreme_snr(fallback, log2_p, alpha):
    # Every column is within a few eps |x| of the exact projection of the
    # exact x; the fallback is unused, as no estimate is zero.
    cfg = CsitConfig.from_alpha(2.0 ** log2_p, alpha)
    batch = _batch(cfg, 16, seed=43)
    with mpmath.workdps(80):
        for name in ("h_hat", "g_hat"):
            cols = rates._project(batch, fallback[1])[name]
            for i in range(batch.n):
                h_hat, g_hat, h, g = _mp_channels(batch, i)
                w, w_perp = _mp_beams(h_hat if name == "h_hat" else g_hat)
                for k, (x, beam) in enumerate(((h, w), (h, w_perp), (g, w), (g, w_perp))):
                    ref = _mp_dot(beam, x)
                    assert abs(mpmath.mpc(complex(cols[k][i])) - ref) <= 4 * EPS * mpmath.sqrt(
                        abs(x[0]) ** 2 + abs(x[1]) ** 2)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("log2_p", [60, 80, 100, 120])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrand_matches_mpmath_at_extreme_snr(scheme, log2_p, alpha):
    cfg = CsitConfig.from_alpha(2.0 ** log2_p, alpha)
    batch = _batch(cfg, 16, seed=43)
    got = _integrand(scheme, cfg)(batch)
    with mpmath.workdps(80):
        ref = np.array([[float(v) for v in _mp_sample(scheme, cfg, *_mp_channels(batch, i))]
                        for i in range(batch.n)])
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
