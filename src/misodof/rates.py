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
projects estimate and error normals apart, which nulls h_hat exactly.  Only
``rate_common_message``, which evaluates a caller's policy, and
``interference_power`` take (..., 2, 2) matrices.

Each scheme is a (width, fill, finalize) triple: ``fill(batch, shared, out)``
writes its per-sample log terms into ``out``, its (n, width) slice of one
array, from ``shared``, the batch's ``_Shared`` memo, and
``finalize(mean, se)`` maps their means and standard errors to a result.
Any set of schemes at any set of configs (say, every SNR of a sweep) is
thus one estimate over one draw per block.  Each block's frames are projected
once, and the memo forms each kernel and phase-2 split once per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .channel import CsitConfig
from .regions import Scheme

_E1 = (0, 1)  # fallback beams of a zero estimate: the antennas of (w, w-perp)
_E2 = (1, 0)


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


@dataclass(frozen=True)
class CommonMessageRates:
    """Rate triple of superposition coding with a common message."""

    r_c: float
    r_p1: float
    r_p2: float
    se_r_c: float
    se_r_p1: float
    se_r_p2: float


def _abs2(z):
    return z.real ** 2 + z.imag ** 2


class _Kernel:
    """``sq``, the |.|^2 of columns (h.w, h.w-perp, g.w, g.w-perp), and
    ``cross``, (h.w-perp conj(g.w-perp), h.w conj(g.w)) for every m01."""

    def __init__(self, cols):
        self.sq = [_abs2(z) for z in cols]
        self.cross = (cols[1] * np.conj(cols[3]), cols[0] * np.conj(cols[2]))


def _frames(normals):
    """What every config of a block shares: each estimate's |e| and its own
    user's error coordinates (w^H n, w-perp^H n), for w = e/|e| from the
    estimate's unit normals e and w-perp = (-conj(w_2), conj(w_1)); and
    (r, s) = (w_h^H w_g, w_h^H w_g-perp), so that [[r, s], [-conj(s), conj(r)]]
    takes coordinates in g_hat's frame to h_hat's."""
    e, n = normals.e, normals.n
    own, beams = [], []
    for i in (0, 2):
        x1, x2 = e[:, i], e[:, i + 1]
        norm = np.sqrt(_abs2(x1) + _abs2(x2))
        inv = 1.0 / norm  # a complex division by norm costs twice as much
        w1, w2 = x1 * inv, x2 * inv
        par = n[:, i] * np.conj(w1)
        par += n[:, i + 1] * np.conj(w2)
        perp = n[:, i + 1] * w1
        perp -= n[:, i] * w2
        own.append((norm, par, perp))
        beams.append((w1, w2))
    (h1, h2), (g1, g2) = beams
    return own, np.conj(h1) * g1 + np.conj(h2) * g2, np.conj(h2 * g1 - h1 * g2)


def _project(batch, fallback):
    """The kernels behind every scheme's integrand, {estimate name: columns
    (h.w, h.w-perp, g.w, g.w-perp)}, x.w = w^H x along the estimate's unit
    direction w and w-perp.  In its own estimate's frame a user's columns are
    a (|e|, 0) + b (its error's _frames coordinates), so h.w-perp is exactly
    b w-perp^H n_h for h_hat; the other user's are those rotated.  At
    sigma_sq = 1 (a = 0) the estimates are zero: w is the fallback axis and
    w-perp the other one, up to a sign that no beam power or m01 sees."""
    a, b = batch.a, batch.b
    if a == 0.0:
        i, j = fallback
        cols = [batch.normals.n[:, k] * b for k in (i, j, i + 2, j + 2)]
        return {"h_hat": cols, "g_hat": cols}
    memo = batch.normals.memo
    if "frames" not in memo:
        memo["frames"] = _frames(batch.normals)
    ((norm_h, par_h, perp_h), (norm_g, par_g, perp_g)), r, s = memo["frames"]
    h0, h1 = a * norm_h + b * par_h, b * perp_h  # h in h_hat's frame
    g0, g1 = a * norm_g + b * par_g, b * perp_g  # g in g_hat's frame
    rc, sc = np.conj(r), np.conj(s)
    return {"h_hat": [h0, h1, r * g0 + s * g1, rc * g1 - sc * g0],
            "g_hat": [rc * h0 - s * h1, sc * h0 + r * h1, g0, g1]}


def _beam_pair(kernel, a, b):
    # Entries (m00, m11, |m01|^2) of S Q S^H, Q = a w-perp w-perp^H + b w w^H, from a _Kernel.
    h_par2, h_perp2, g_par2, g_perp2 = kernel.sq
    m00 = a * h_perp2 + b * h_par2
    m11 = a * g_perp2 + b * g_par2
    off = _abs2(a * kernel.cross[0] + b * kernel.cross[1])
    return m00, m11, off


class _Shared:
    """What a group's schemes read from one batch, each computed once: the
    _Kernels and the default policy's phase-2 columns."""

    def __init__(self, batch):
        self.batch, self._kernels, self._phase2 = batch, {}, {}

    def kernel(self, name, fallback):
        # kernels depend on the estimates if there are any, else on the fallback
        key = None if self.batch.a else fallback
        if key not in self._kernels:
            self._kernels[key] = {est: _Kernel(cols)
                                  for est, cols in _project(self.batch, fallback).items()}
        return self._kernels[key][name]

    def phase2(self, p_c, p_p, out):
        # Phase-2 log terms of the default policy, q_c = (p_c/2) I and q_p1,
        # q_p2 = (p_p/2) along g_hat-perp, h_hat-perp, into out[:, :4].
        if (p_c, p_p) in self._phase2:
            out[:, :4] = self._phase2[p_c, p_p]
            return
        c, s = p_c / 2.0, p_p / 2.0
        # hg = |h.g_hat-perp|^2 and so on; |x|^2 = |x.w|^2 + |x.w-perp|^2
        _, hg, gw, gg = self.kernel("g_hat", _E2).sq
        hw, hh, _, gh = self.kernel("h_hat", _E2).sq
        _phase2_logs(c * hw + c * hh, s * hg, s * hh, c * gw + c * gg, s * gg, s * gh, out)
        self._phase2[p_c, p_p] = out[:, :4]


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


def interference_power(h, q_v):
    """Quadratic form h^H Q h: received power of a covariance at channel h."""
    h = np.asarray(h, dtype=complex)
    val = np.einsum("...i,...ij,...j->...", np.conj(h), np.asarray(q_v, dtype=complex), h)
    return val.real


def quantization_rate(d_tilde):
    """Bits per symbol needed to quantize a unit source at distortion d_tilde."""
    if not 0.0 < d_tilde <= 1.0:
        raise ValueError(f"normalized distortion must lie in (0, 1], got {d_tilde}")
    # log2 is <= 0 on (0, 1]; abs() also turns -log2(1) = -0.0 into 0.0
    return abs(math.log2(d_tilde))


def _side_gain(sig, d_tilde):
    # Effective gain of the decoded-interference observation:
    # (1 - d)/(sig * d).  Zero when nothing is overheard (sig == 0) or the
    # quantizer conveys nothing (d == 1).
    sig = np.asarray(sig, dtype=float)
    useless = (sig <= 0.0) | (d_tilde >= 1.0)
    den = np.where(useless, 1.0, sig * d_tilde)
    return np.where(useless, 0.0, (1.0 - d_tilde) / den)


def _det_rowscaled(m00, m11, off, r0, r1):
    # det(I + diag(r0, r1) @ M) for Hermitian M given by m00, m11, |m01|^2
    return (1.0 + r0 * m00) * (1.0 + r1 * m11) - r0 * r1 * off


def _mimo_logdets(u, v, d1, d2):
    """Per-sample rates of both users' equivalent 2x2 channels (phase 1).

    ``u``, ``v``: the entries (m00, m11, |m01|^2) of q_u and q_v that
    ``_beam_pair`` returns for the g_hat and h_hat beams.  Each receiver stacks
    its direct observation (aligned interference removed, residual
    quantization noise folded into the noise floor) with the decoded
    quantized version of what the other receiver overheard.
    """
    u00, u11, u_off = u
    v00, v11, v_off = v
    sig1 = np.maximum(v00, 0.0)   # interference power seen by user 1
    sig2 = np.maximum(u11, 0.0)   # interference power seen by user 2
    det1 = _det_rowscaled(u00, u11, u_off, 1.0 / (1.0 + sig1 * d1), _side_gain(sig2, d2))
    det2 = _det_rowscaled(v00, v11, v_off, _side_gain(sig1, d1), 1.0 / (1.0 + sig2 * d2))
    return np.log2(np.maximum(det1, 1.0)), np.log2(np.maximum(det2, 1.0))


def _phase2_logs(ch, ph1, ph2, cg, pg1, pg2, out):
    # Per-sample log terms of the common-message region from the received
    # powers of q_c, q_p1, q_p2 at h and g, into columns 0-3 of ``out``:
    # common message under both privates, then each private under the other.
    out[:, 0] = np.log2(1.0 + ch / (1.0 + ph1 + ph2))
    out[:, 1] = np.log2(1.0 + cg / (1.0 + pg1 + pg2))
    out[:, 2] = np.log2(1.0 + ph1 / (1.0 + ph2))
    out[:, 3] = np.log2(1.0 + pg2 / (1.0 + pg1))


def _common_message_rates(mean, se):
    # The common rate takes the outer min of the two users' expectations.
    branch = 0 if mean[0] <= mean[1] else 1
    return CommonMessageRates(
        r_c=float(mean[branch]), se_r_c=float(se[branch]),
        r_p1=float(mean[2]), se_r_p1=float(se[2]),
        r_p2=float(mean[3]), se_r_p2=float(se[3]),
    )


def rate_common_message(cfg, policy_map, mc_cfg):
    """Ergodic rate triple of superposition coding with a common message.

    ``policy_map(cfg, h_hat, g_hat)`` must build the covariances
    (q_c, q_p1, q_p2) from the estimates only; it receives batched estimate
    arrays (n, 2) and may return (2, 2) or (n, 2, 2) matrices.  The
    common-message rate takes the outer min of the two users' expectations.
    """

    def fill(batch, shared, out):
        qs = policy_map(cfg, batch.h_hat, batch.g_hat)
        _phase2_logs(*(np.maximum(interference_power(x, q), 0.0)
                       for x in (batch.h, batch.g) for q in qs), out)

    return _estimate_group([None], lambda c: [(4, fill, _common_message_rates)],
                           [cfg], mc_cfg)[0][0]


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
    a, b = p1 / 2.0, p2 / 2.0
    d_tilde = _distortion(pcfg)
    r_eta1 = r_eta2 = quantization_rate(d_tilde)
    r_eta = r_eta1 + r_eta2

    def fill(batch, shared, out):
        # q_u = a g_hat-perp + b g_hat and q_v = a h_hat-perp + b h_hat,
        # one beam pair per estimate direction
        u = _beam_pair(shared.kernel("g_hat", _E2), a, b)
        v = _beam_pair(shared.kernel("h_hat", _E2), a, b)
        shared.phase2(p_c, p_p, out)
        out[:, 4], out[:, 5] = _mimo_logdets(u, v, d_tilde, d_tilde)

    def finalize(mean, se):
        cm = _common_message_rates(mean, se)
        r_m1, r_m2 = float(mean[4]), float(mean[5])
        se_m1, se_m2 = float(se[4]), float(se[5])
        r1, se1 = _combine_rate(cm.r_c, cm.se_r_c, r_m1, se_m1, cm.r_p1, cm.se_r_p1, r_eta)
        r2, se2 = _combine_rate(cm.r_c, cm.se_r_c, r_m2, se_m2, cm.r_p2, cm.se_r_p2, r_eta)
        return RateResult(
            r1=r1, r2=r2, se_r1=se1, se_r2=se2,
            r_c=cm.r_c, r_p1=cm.r_p1, r_p2=cm.r_p2,
            r_mimo1=r_m1, r_mimo2=r_m2,
            r_eta1=r_eta1, r_eta2=r_eta2,
            se_r_c=cm.se_r_c, se_r_p1=cm.se_r_p1, se_r_p2=cm.se_r_p2,
            se_r_mimo1=se_m1, se_r_mimo2=se_m2,
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
    # estimated channel (e1 when the estimate is zero).
    p = cfg.snr_p

    def fill(batch, shared, out):
        out[:, 0] = np.log2(1.0 + p * shared.kernel("h_hat", _E1).sq[0])
        out[:, 1] = np.log2(1.0 + p * shared.kernel("g_hat", _E1).sq[2])

    return 2, fill, _user_pair(0.5)


def _zf_columns(cfg):
    # Equal-power beams w1 = g_hat-perp (e1 when g_hat is zero) and w2 =
    # h_hat-perp (e2 when h_hat is zero), leakage treated as noise.
    half_p = cfg.snr_p / 2.0

    def fill(batch, shared, out):
        _, h_w1, _, g_w1 = shared.kernel("g_hat", _E2).sq
        _, h_w2, _, g_w2 = shared.kernel("h_hat", _E1).sq
        out[:, 0] = np.log2(1.0 + half_p * h_w1 / (1.0 + half_p * h_w2))
        out[:, 1] = np.log2(1.0 + half_p * g_w2 / (1.0 + half_p * g_w1))

    return 2, fill, _user_pair(1.0)


def _rs_zf_columns(cfg):
    # Equal time-sharing of the two one-sided rate-splitting corners: each
    # user gets common + private in one slot and private-only in the other.
    _, _, p_c, p_p = _power_split(cfg)

    def fill(batch, shared, out):
        shared.phase2(p_c, p_p, out)

    def finalize(mean, se):
        cm = _common_message_rates(mean, se)
        return RateResult(
            r1=0.5 * cm.r_c + cm.r_p1, r2=0.5 * cm.r_c + cm.r_p2,
            se_r1=math.sqrt((0.5 * cm.se_r_c) ** 2 + cm.se_r_p1 ** 2),
            se_r2=math.sqrt((0.5 * cm.se_r_c) ** 2 + cm.se_r_p2 ** 2),
            r_c=cm.r_c, r_p1=cm.r_p1, r_p2=cm.r_p2,
            se_r_c=cm.se_r_c, se_r_p1=cm.se_r_p1, se_r_p2=cm.se_r_p2,
        )

    return 4, fill, finalize


_COLUMNS = {
    Scheme.TDMA: _tdma_columns, Scheme.ZF: _zf_columns, Scheme.RS_ZF: _rs_zf_columns,
    # MAT: the proposed scheme with powers and distortions as if sigma_sq were 1
    Scheme.MAT: lambda cfg: _proposed_columns(CsitConfig.from_sigma_sq(cfg.snr_p, 1.0)),
    Scheme.PROPOSED: _proposed_columns,
}


def _estimate_group(schemes, columns_at, cfgs, mc_cfg):
    """Finalized results of the schemes' columns at each config of ``cfgs``,
    from one estimate.  ``columns_at(cfg)`` lists the schemes' column triples
    at a config.  Each block is drawn once for every config; at each config it
    fills one array, each scheme its own slice, from one ``_Shared`` memo of
    the batch."""
    columns = {cfg: columns_at(cfg) for cfg in cfgs}
    bounds = np.cumsum([0] + [width for width, _, _ in columns[cfgs[0]]])
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def f(batch):
        shared, out = _Shared(batch), np.empty((batch.n, bounds[-1]))
        for (_, fill, _), span in zip(columns[batch.csit], spans):
            fill(batch, shared, out[:, span])
        return out

    try:
        estimates = mc.estimate(f, mc_cfg, cfgs)
    except mc.NonFiniteSampleError as exc:
        exc.scheme = schemes[np.searchsorted(bounds, exc.column, side="right") - 1]
        raise
    return [[finalize(est.mean[span], est.std_error[span])
             for (_, _, finalize), span in zip(columns[cfg], spans)]
            for cfg, est in zip(cfgs, estimates)]


def rate_scheme(scheme, cfg, mc_cfg):
    """Ergodic rates of one scheme, or of a tuple of schemes, at one config
    or at each config of a sequence.

    A tuple gives RateResults in its order; a sequence of configs gives a
    list with one entry per config.  It is all one ``mc.estimate``: each
    block is drawn once for every scheme and config, and each result is
    exactly the scheme's own one at that config.  A ``NonFiniteSampleError``
    names, as ``scheme`` and ``config_index``, the failing scheme and config.
    """
    single = isinstance(scheme, str)
    schemes = [Scheme(s) for s in ((scheme,) if single else scheme)]
    one_cfg = isinstance(cfg, CsitConfig)
    cfgs = [cfg] if one_cfg else list(cfg)
    results = _estimate_group(schemes, lambda c: [_COLUMNS[s](c) for s in schemes],
                              cfgs, mc_cfg)
    results = [at[0] if single else tuple(at) for at in results]
    return results[0] if one_cfg else results
