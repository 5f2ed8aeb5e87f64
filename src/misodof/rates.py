"""Exact finite-SNR ergodic achievable rates, logs base 2, bits per use.

Implements the two-phase quantize-and-multicast scheme (precoded broadcast of
two private signals, then multicast of the digitized overheard interferences
as a common message with two fresh private messages superposed) and the
TDMA / ZF / MAT-style / rate-split-ZF baselines.  Expectations are Monte
Carlo estimates over joint draws of channels and estimates; transmit policies
may depend on the estimates only.

The built-in schemes never form a covariance matrix: each covariance is a
sum of rank-1 beams along a unit estimate direction and its orthogonal
complement, and every quadratic form is summed beam by beam from one
kernel's projections of h and g onto those directions.  That matters
numerically: at very high SNR the matrix entries are ~P while quadratic
forms along nulled directions are O(1), and forming the matrix first loses
them to cancellation.  So is the rounding of h = h_hat + h_tilde: the kernel
builds each user's coordinates from its estimate's norm and its error
normals apart, which nulls h_hat exactly.  The sampler's canonical frame
(see ``channel``) puts h_hat along the first antenna and g_hat along the real
direction (r, -s), so the kernel neither normalizes nor divides by a norm.
Kernels hold squared projections only: det(S Q S^H) = det Q |det[h g]|^2,
one value per batch, stands in for every cross term.  The explicit-matrix
reference the tests check this arithmetic against is ``tests/reference.py``.

Each scheme is a (width, fill, finalize) triple: ``fill(shared, out)``
writes its per-sample log terms into ``out``, its (width, n) rows of one
array, from ``shared``, the batch's ``_Shared`` memo, and
``finalize(mean, se)`` maps their means and standard errors to a result.
Any set of schemes at any set of configs (say, every SNR of a sweep) is
thus one estimate over one draw per block.  Each block's errors are
rotated into g_hat's frame once, and each batch's ``_Shared`` forms its two
kernels, one per estimate, |det[h g]|^2 and each phase-2 split once.  A
zero estimate (sigma_sq = 1, the no-CSIT limit) still has a fixed beam
pair, chosen by ``_project`` alone, so every scheme reads the same two
kernels at every config.
``rate_scheme`` always takes a sequence of configs, as ``mc.estimate`` does,
and returns one entry per config; a single config is a one-element grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .channel import CsitConfig
from .regions import Scheme


@dataclass(frozen=True)
class RateResult:
    """Per-user rates with Monte Carlo standard errors and rate components."""

    r1: float
    r2: float
    se_r1: float
    se_r2: float
    r_c: float = 0.0
    r_p1: float = 0.0
    r_p2: float = 0.0
    r_mimo1: float = 0.0
    r_mimo2: float = 0.0
    r_eta1: float = 0.0
    r_eta2: float = 0.0
    se_r_c: float = 0.0
    se_r_p1: float = 0.0
    se_r_p2: float = 0.0
    se_r_mimo1: float = 0.0
    se_r_mimo2: float = 0.0


def _abs2(z):
    # |z|^2 of the entries with real parts z[0] and imaginary parts z[1]; squares z
    np.square(z, out=z)
    return z[0] + z[1]


def _abs2_det(z):
    # |det[h g]|^2 = |h_1 g_2 - h_2 g_1|^2 for h = (z_0, z_1) and g = (z_2,
    # z_3), the complex entries with real parts z[0] and imaginary parts z[1]
    (h1, h2, g1, g2), (h1i, h2i, g1i, g2i) = z
    re = h1 * g2 - h1i * g2i - h2 * g1 + h2i * g1i
    im = h1 * g2i + h1i * g2 - h2 * g1i - h2i * g1
    return re * re + im * im


def _project(batch):
    """The kernels behind every scheme's integrand, for h_hat's and then
    g_hat's unit direction w: rows |h.w|^2, |h.w-perp|^2, |g.w|^2, |g.w-perp|^2
    (x.w = w^H x); then |det[h g]|^2.  In its own estimate's frame a user is
    a (|e|, 0) + b (its error), so h.w-perp is exactly b n_h2 for h_hat.
    h_hat's frame is the antenna frame, where g_hat is a |e_g| (r, -s); in
    g_hat's, h_hat is a |e_h| (r, s) and the errors are ``normals.g_frame``.
    At sigma_sq = 1 (a = 0) the estimates are zero: h_hat points at antenna
    1 and g_hat at antenna 2 (r = 0, s = 1), each w-perp at the other."""
    a, b, normals = batch.a, batch.b, batch.normals
    x_h, x_g = a * normals.norm  # |h_hat| and |g_hat|
    h = np.multiply(normals.n, b)  # h, then g, in h_hat's frame
    h[0, 0] += x_h
    h[0, 2] += x_g * normals.r
    h[0, 3] -= x_g * normals.s
    det = _abs2_det(h)
    kernel_h = _abs2(h)
    if a == 0.0:
        return kernel_h, kernel_h[[1, 0, 3, 2]], det  # g_hat's frame swaps each pair
    g = np.multiply(normals.g_frame, b)  # h, then g, in g_hat's frame
    g[0, 0] += x_h * normals.r
    g[0, 1] += x_h * normals.s
    g[0, 2] += x_g
    return kernel_h, _abs2(g), det


def _beam_pair(kernel, a, b):
    # The diagonal (m00, m11) of S Q S^H, S = [h^H; g^H] and Q = a w-perp
    # w-perp^H + b w w^H, from the kernel of w's estimate.
    m = a * kernel[1::2]
    m += b * kernel[0::2]
    return m


class _Shared:
    """What a group's schemes read from one batch, each computed once: the
    kernels ``h`` and ``g`` of h_hat's and g_hat's beams, |det[h g]|^2 as
    ``det``, and the default policy's phase-2 rows."""

    def __init__(self, batch):
        self.h, self.g, self.det = _project(batch)
        self.p = batch.csit.snr_p
        self._phase2 = {}

    def phase2(self, p_c, p_p, out):
        # Phase-2 log terms of the default policy, q_c = (p_c/2) I and q_p1,
        # q_p2 = (p_p/2) along g_hat-perp, h_hat-perp, into out[:4], over P.
        if (p_c, p_p) in self._phase2:
            out[:4] = self._phase2[p_c, p_p]
            return
        c, s = p_c / (2.0 * self.p), p_p / (2.0 * self.p)
        # hg = |h.g_hat-perp|^2 and so on; |x|^2 = |x.w|^2 + |x.w-perp|^2
        _, hg, gw, gg = self.g
        hw, hh, _, gh = self.h
        _phase2_logs(c * (hw + hh), s * hg, s * hh, c * (gw + gg), s * gg, s * gh, 1 / self.p, out)
        self._phase2[p_c, p_p] = out[:4]


def _power_split(cfg):
    # Phase-1 split (p1 orthogonal / p2 aligned with the crossing user's
    # estimate) and phase-2 split (p_c common / p_p private zero-forced).
    p_p = cfg.alpha_hat / cfg.sigma_hat_sq
    p_c = max(cfg.snr_p - p_p, 0.0)
    p2 = max((1.0 - cfg.alpha_hat) * (cfg.snr_p / 2.0) * cfg.sigma_hat_sq, 0.0)
    p1 = cfg.snr_p - p2
    if p_p > cfg.snr_p * (1.0 + 1e-12):
        raise AssertionError("private power exceeds the budget; config is inconsistent")
    return p1, p2, p_c, p_p


def _distortion(cfg):
    # Quantizer distortion at the AWGN level relative to the interference
    # power, clamped into [1/P, 1].
    raw = max(1.0 / (cfg.snr_p * cfg.sigma_sq), 1.0 / cfg.snr_p)
    return min(raw, 1.0)


def quantization_rate(d_tilde):
    """Bits per symbol needed to quantize a unit source at distortion d_tilde."""
    if not 0.0 < d_tilde <= 1.0:
        raise ValueError(f"normalized distortion must lie in (0, 1], got {d_tilde}")
    # log2 is <= 0 on (0, 1]; abs() also turns -log2(1) = -0.0 into 0.0
    return abs(math.log2(d_tilde))


def _side_gain(sig, d_tilde, pd):
    # Effective gain of the decoded-interference observation, (1 - d)/(sig
    # d), from sig over P and pd = P d; zero when the quantizer conveys
    # nothing (d == 1).  Where nothing is overheard (sig == 0, a null event)
    # it stays finite, and multiplies powers and a determinant that are 0.
    return (1.0 - d_tilde) / np.maximum(sig * pd, np.finfo(float).tiny)


def _mimo_logdets(u, v, det_m, d1, d2, p, out):
    """Per-sample rates of both users' equivalent 2x2 channels (phase 1),
    into ``out[0]`` and ``out[1]``.

    ``u``, ``v``: the diagonals (m00, m11) over P of M = S q S^H, S = [h^H;
    g^H], for q_u and q_v, from ``_beam_pair``; ``det_m``: det M over P^2,
    det q |det S|^2, the same for both.  Each receiver stacks its direct
    observation (aligned interference removed, residual quantization noise
    folded into the noise floor) with the decoded quantized version of what
    the other receiver overheard: log2 det(I + diag(r0, r1) M) = log2(1 +
    r0 m00 + r1 m11 + r0 r1 det M), with no cross term, is evaluated over
    P^2, where every term stays finite for any finite P, plus 2 log2 P.
    """
    pd1, pd2 = p * d1, p * d2
    sig1, sig2 = v[0], u[1]  # interference powers seen by users 1 and 2, over P
    rows = ((1.0 / (1.0 + sig1 * pd1), _side_gain(sig2, d2, pd2)),
            (_side_gain(sig1, d1, pd1), 1.0 / (1.0 + sig2 * pd2)))
    for (m00, m11), (r0, r1), row in zip((u, v), rows, out):
        np.log2((r0 * m00 + r1 * m11) / p + r0 * r1 * det_m + p ** -2.0, out=row)
        row += 2.0 * math.log2(p)


def _phase2_logs(ch, ph1, ph2, cg, pg1, pg2, noise, out):
    # Per-sample log terms of the common-message region from the received
    # powers of q_c, q_p1, q_p2 at h and g, over a noise power ``noise``,
    # into rows 0-3 of ``out``: common message under both privates, then
    # each private under the other.
    np.log2(1.0 + ch / (noise + ph1 + ph2), out=out[0])
    np.log2(1.0 + cg / (noise + pg1 + pg2), out=out[1])
    np.log2(1.0 + ph1 / (noise + ph2), out=out[2])
    np.log2(1.0 + pg2 / (noise + pg1), out=out[3])


def _common_message_rates(mean, se):
    # RateResult's common-message fields from the _phase2_logs columns; the
    # common rate takes the outer min of the two users' expectations.
    branch = 0 if mean[0] <= mean[1] else 1
    return dict(r_c=float(mean[branch]), se_r_c=float(se[branch]),
                r_p1=float(mean[2]), se_r_p1=float(se[2]),
                r_p2=float(mean[3]), se_r_p2=float(se[3]))


def _combine_rate(r_c, se_c, r_m, se_m, r_p, se_p, r_eta):
    # Slot-ratio-eliminated combination; the common phase carries the
    # quantized interference, so its share is r_eta/(r_c + r_eta).
    den = r_c + r_eta
    if den <= 0.0:
        return r_m, se_m
    val = (r_c * r_m + r_eta * r_p) / den
    d_c = r_eta * (r_m - r_p) / den ** 2
    se = math.sqrt((d_c * se_c) ** 2 + (r_c / den * se_m) ** 2 + (r_eta / den * se_p) ** 2)
    return val, se


def _proposed_columns(pcfg):
    # Quantize-and-multicast with powers and distortions derived from ``pcfg``.
    p1, p2, p_c, p_p = _power_split(pcfg)
    p = pcfg.snr_p
    a, b = p1 / (2.0 * p), p2 / (2.0 * p)  # beam powers over P
    d_tilde = _distortion(pcfg)
    r_eta1 = r_eta2 = quantization_rate(d_tilde)
    r_eta = r_eta1 + r_eta2

    def fill(shared, out):
        # q_u = a g_hat-perp + b g_hat and q_v = a h_hat-perp + b h_hat,
        # one beam pair per estimate direction
        shared.phase2(p_c, p_p, out)
        _mimo_logdets(_beam_pair(shared.g, a, b), _beam_pair(shared.h, a, b),
                      a * b * shared.det, d_tilde, d_tilde, p, out[4:6])

    def finalize(mean, se):
        cm = _common_message_rates(mean, se)
        r_c, se_c = cm["r_c"], cm["se_r_c"]
        r_m1, r_m2 = float(mean[4]), float(mean[5])
        se_m1, se_m2 = float(se[4]), float(se[5])
        r1, se1 = _combine_rate(r_c, se_c, r_m1, se_m1, cm["r_p1"], cm["se_r_p1"], r_eta)
        r2, se2 = _combine_rate(r_c, se_c, r_m2, se_m2, cm["r_p2"], cm["se_r_p2"], r_eta)
        return RateResult(
            r1=r1, r2=r2, se_r1=se1, se_r2=se2,
            r_mimo1=r_m1, r_mimo2=r_m2,
            r_eta1=r_eta1, r_eta2=r_eta2,
            se_r_mimo1=se_m1, se_r_mimo2=se_m2, **cm,
        )

    return 6, fill, finalize


def _user_pair(share):
    # finalize of one rate column per user, each user served ``share`` of the time
    def finalize(mean, se):
        return RateResult(r1=float(mean[0]) * share, r2=float(mean[1]) * share,
                          se_r1=float(se[0]) * share, se_r2=float(se[1]) * share)
    return finalize


def _tdma_columns(cfg):
    # Alternating single-user slots, full power beamformed along the
    # estimated channel.
    p = cfg.snr_p

    def fill(shared, out):
        np.log2(1.0 + p * shared.h[0], out=out[0])
        np.log2(1.0 + p * shared.g[2], out=out[1])

    return 2, fill, _user_pair(0.5)


def _zf_columns(cfg):
    # Equal-power beams w1 = g_hat-perp and w2 = h_hat-perp, leakage
    # treated as noise.
    half_p = cfg.snr_p / 2.0

    def fill(shared, out):
        _, h_w1, _, g_w1 = shared.g
        _, h_w2, _, g_w2 = shared.h
        np.log2(1.0 + half_p * h_w1 / (1.0 + half_p * h_w2), out=out[0])
        np.log2(1.0 + half_p * g_w2 / (1.0 + half_p * g_w1), out=out[1])

    return 2, fill, _user_pair(1.0)


def _rs_zf_columns(cfg):
    # Equal time-sharing of the two one-sided rate-splitting corners: each
    # user gets common + private in one slot and private-only in the other.
    _, _, p_c, p_p = _power_split(cfg)

    def fill(shared, out):
        shared.phase2(p_c, p_p, out)

    def finalize(mean, se):
        cm = _common_message_rates(mean, se)
        half_c, half_se_c = 0.5 * cm["r_c"], 0.5 * cm["se_r_c"]
        return RateResult(
            r1=half_c + cm["r_p1"], r2=half_c + cm["r_p2"],
            se_r1=math.sqrt(half_se_c ** 2 + cm["se_r_p1"] ** 2),
            se_r2=math.sqrt(half_se_c ** 2 + cm["se_r_p2"] ** 2), **cm,
        )

    return 4, fill, finalize


_COLUMNS = {
    Scheme.TDMA: _tdma_columns, Scheme.ZF: _zf_columns, Scheme.RS_ZF: _rs_zf_columns,
    # MAT: the proposed scheme with powers and distortions as if sigma_sq were 1
    Scheme.MAT: lambda cfg: _proposed_columns(CsitConfig.from_sigma_sq(cfg.snr_p, 1.0)),
    Scheme.PROPOSED: _proposed_columns,
}


def rate_scheme(scheme, cfgs, mc_cfg):
    """Ergodic rates of one scheme, or of a tuple of schemes, at each config
    of a sequence.

    The result is a list with one entry per config: a RateResult for a bare
    scheme, a tuple of them in its order for a tuple.  It is all one
    ``mc.estimate``: each block is drawn once for every scheme and config,
    and each result is exactly the scheme's own one at that config.  A
    ``NonFiniteSampleError`` names, as ``scheme`` and ``config_index``, the
    failing scheme and config.
    """
    single = isinstance(scheme, str)
    schemes = [Scheme(s) for s in ((scheme,) if single else scheme)]
    cfgs = list(cfgs)
    columns = {c: [_COLUMNS[s](c) for s in schemes] for c in cfgs}
    bounds = np.cumsum([0] + [width for width, _, _ in columns[cfgs[0]]])
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def f(batch):
        shared, out = _Shared(batch), np.empty((bounds[-1], batch.n))
        for (_, fill, _), span in zip(columns[batch.csit], spans):
            fill(shared, out[span])
        return out

    try:
        estimates = mc.estimate(f, mc_cfg, cfgs)
    except mc.NonFiniteSampleError as exc:
        exc.scheme = schemes[np.searchsorted(bounds, exc.column, side="right") - 1]
        raise
    results = []
    for c, est in zip(cfgs, estimates):
        at = tuple(finalize(est.mean[span], est.std_error[span])
                   for (_, _, finalize), span in zip(columns[c], spans))
        results.append(at[0] if single else at)
    return results
