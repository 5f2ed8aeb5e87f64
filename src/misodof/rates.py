"""Exact finite-SNR ergodic achievable rates, logs base 2, bits per use.

Implements the two-phase quantize-and-multicast scheme (precoded broadcast of
two private signals, then multicast of the digitized overheard interferences
as a common message with two fresh private messages superposed) and the
TDMA / ZF / MAT-style / rate-split-ZF baselines.  Expectations are Monte
Carlo estimates over joint draws of channels and estimates; transmit policies
may depend on the estimates only.

Covariances are explicit (..., 2, 2) matrices on the public surface.  Inside
the Monte Carlo integrands every quadratic form is summed beam by beam from
one kernel's projections of h and g onto the unit estimate directions.  That
matters numerically: at very high SNR the matrix entries are ~P while
quadratic forms along nulled directions are O(1), and forming the matrix
first loses them to cancellation.

Each scheme is a (width, fill, finalize) triple: ``fill(batch, proj, out)``
writes its per-sample log terms into ``out``, its (n, width) slice of one
array, from the kernel columns ``proj(estimate name, fallback)``, and
``finalize(mean, se)`` maps their means and standard errors to a result.
Any set of schemes at one config is thus one estimate over one draw per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .channel import CsitConfig, projector
from .regions import Scheme

_E1 = (1.0 + 0.0j, 0.0j)  # fallback beams for zero estimates; tuples key the kernel memo
_E2 = (0.0j, 1.0 + 0.0j)

_ZERO_DIR_TOL = 1e-12
_PSD_TOL = 1e-9


@dataclass(frozen=True)
class PowerPolicy:
    """Covariance, power-split, and distortion parameters of one scheme use.

    Matrices are complex (..., 2, 2); a leading batch axis carries
    per-sample (estimate-dependent) covariances.  ``d1_tilde``/``d2_tilde``
    are the normalized quantizer distortions in (0, 1].
    """

    q_u: np.ndarray
    q_v: np.ndarray
    q_c: np.ndarray
    q_p1: np.ndarray
    q_p2: np.ndarray
    p1: float
    p2: float
    p_c: float
    p_p: float
    d1_tilde: float
    d2_tilde: float

    def validate(self, snr_p):
        budget = snr_p * (1.0 + 1e-9)
        tr_phase1 = _trace(self.q_u) + _trace(self.q_v)
        tr_phase2 = _trace(self.q_c) + _trace(self.q_p1) + _trace(self.q_p2)
        if np.any(tr_phase1 > budget) or np.any(tr_phase2 > budget):
            raise ValueError("policy exceeds the transmit power budget")
        for q in (self.q_u, self.q_v, self.q_c, self.q_p1, self.q_p2):
            _check_psd(q)
        if not (0.0 < self.d1_tilde <= 1.0 and 0.0 < self.d2_tilde <= 1.0):
            raise ValueError("normalized distortions must lie in (0, 1]")


def _trace(q):
    return np.asarray(q)[..., 0, 0].real + np.asarray(q)[..., 1, 1].real


def _check_psd(q):
    q = np.asarray(q)
    herm_err = np.max(np.abs(q - np.conj(np.swapaxes(q, -1, -2))))
    scale = np.maximum(_trace(q), 1.0)
    if herm_err > _PSD_TOL * np.max(scale):
        raise ValueError("covariance matrix is not Hermitian")
    min_eig = np.min(np.linalg.eigvalsh(q), axis=-1)
    if np.any(min_eig < -_PSD_TOL * scale):
        raise ValueError("covariance matrix is not positive semidefinite")


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


def _unit_cols(x, fallback):
    """Entries (w_1, w_2) of w = x/|x|, or of ``fallback`` where |x| < _ZERO_DIR_TOL."""
    x, fallback = np.asarray(x, dtype=complex), np.asarray(fallback, dtype=complex)
    x1, x2 = x[..., 0], x[..., 1]
    norm = np.sqrt(_abs2(x1) + _abs2(x2))
    degenerate = norm < _ZERO_DIR_TOL
    inv = 1.0 / np.where(degenerate, 1.0, norm)
    return (np.where(degenerate, fallback[0], x1 * inv),
            np.where(degenerate, fallback[1], x2 * inv))


def _unit_or(x, fallback):
    return np.stack(_unit_cols(x, fallback), axis=-1)


def _perp_unit(x, fallback):
    x = np.asarray(x, dtype=complex)
    v = np.stack([-np.conj(x[..., 1]), np.conj(x[..., 0])], axis=-1)
    return _unit_or(v, fallback)


def _pair_entries(h, g, q):
    """Entries (m00, m11, |m01|^2) of S Q S^H with S = [h^H; g^H]."""
    s = np.stack([np.conj(h), np.conj(g)], axis=-2)
    sh = np.conj(np.swapaxes(s, -1, -2))
    m = s @ np.asarray(q, dtype=complex) @ sh
    return m[..., 0, 0].real, m[..., 1, 1].real, _abs2(m[..., 0, 1])


def _project(batch, est, fallback):
    """The one kernel behind every scheme's integrand: coefficients w^H x of
    h and g along the unit estimate direction w = est/|est| and along
    w-perp = (-conj(w_2), conj(w_1)), as (n,) complex columns (h.w, h.w-perp,
    g.w, g.w-perp).  A zero estimate's w falls back to the given axis, and
    w-perp to the other axis up to a sign, which no beam power or m01 sees.
    """
    w1, w2 = _unit_cols(est, fallback)
    w1c, w2c = np.conj(w1), np.conj(w2)
    cols = []
    for x in (batch.h, batch.g):
        # x before w: complex products are not bitwise commutative, and this
        # order keeps each column bitwise equal to conj(x^H w).
        par = x[:, 0] * w1c
        par += x[:, 1] * w2c
        perp = x[:, 1] * w1
        perp -= x[:, 0] * w2
        cols += (par, perp)
    return cols


def _beam_pair(cols, a, b):
    # Entries (m00, m11, |m01|^2) of S Q S^H for Q = a w-perp w-perp^H + b w w^H
    # from one direction's kernel columns, plus |h.w-perp|^2 and |g.w-perp|^2.
    h_par, h_perp, g_par, g_perp = cols
    h_perp2, g_perp2 = _abs2(h_perp), _abs2(g_perp)
    m00 = a * h_perp2 + b * _abs2(h_par)
    m11 = a * g_perp2 + b * _abs2(g_par)
    off = _abs2(a * h_perp * np.conj(g_perp) + b * h_par * np.conj(g_par))
    return (m00, m11, off), h_perp2, g_perp2


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


def _policy_components(cfg, h_hat, g_hat):
    """Rank-1 components of all five covariances of the default policy."""
    p1, p2, p_c, p_p = _power_split(cfg)
    perp_g = _perp_unit(g_hat, _E1)
    par_g = _unit_or(g_hat, _E2)
    perp_h = _perp_unit(h_hat, _E1)
    par_h = _unit_or(h_hat, _E2)
    return {
        "q_u": ((p1 / 2.0, perp_g), (p2 / 2.0, par_g)),
        "q_v": ((p1 / 2.0, perp_h), (p2 / 2.0, par_h)),
        "q_c": ((p_c / 2.0, _E1), (p_c / 2.0, _E2)),
        "q_p1": ((p_p / 2.0, perp_g),),
        "q_p2": ((p_p / 2.0, perp_h),),
        "powers": (p1, p2, p_c, p_p),
    }


def _matrix_of(components):
    total = 0.0
    for coeff, w in components:
        total = total + coeff * projector(w)
    return np.asarray(total, dtype=complex)


def default_policy(cfg, sample):
    """The fixed precoding/power/distortion choices of the proposed scheme.

    ``sample`` may be a ChannelSample or a ChannelBatch; covariances are
    built from the estimates only.  Zero estimates (no-CSIT regime) fall
    back to the fixed orthonormal pair (e1, e2), under which the phase-1
    covariances become isotropic because p1 == p2 there.
    """
    comps = _policy_components(cfg, sample.h_hat, sample.g_hat)
    p1, p2, p_c, p_p = comps["powers"]
    d_tilde = _distortion(cfg)
    return PowerPolicy(
        q_u=_matrix_of(comps["q_u"]), q_v=_matrix_of(comps["q_v"]),
        q_c=_matrix_of(comps["q_c"]), q_p1=_matrix_of(comps["q_p1"]),
        q_p2=_matrix_of(comps["q_p2"]),
        p1=p1, p2=p2, p_c=p_c, p_p=p_p,
        d1_tilde=d_tilde, d2_tilde=d_tilde,
    )


def default_phase2_policy(cfg, h_hat, g_hat):
    """Policy map for the common-message phase: (q_c, q_p1, q_p2) matrices."""
    comps = _policy_components(cfg, h_hat, g_hat)
    return _matrix_of(comps["q_c"]), _matrix_of(comps["q_p1"]), _matrix_of(comps["q_p2"])


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

    ``u``, ``v``: the ``_pair_entries`` of q_u and q_v.  Each receiver stacks
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


def mimo_rate(sample, policy, user):
    """Equivalent-MIMO rate of one user for a single channel sample."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    for q in (policy.q_u, policy.q_v):
        _check_psd(q)
    m1, m2 = _mimo_logdets(_pair_entries(sample.h, sample.g, policy.q_u),
                           _pair_entries(sample.h, sample.g, policy.q_v),
                           policy.d1_tilde, policy.d2_tilde)
    return float(m1 if user == 1 else m2)


def _phase2_logs(ch, ph1, ph2, cg, pg1, pg2, out):
    # Per-sample log terms of the common-message region from the received
    # powers of q_c, q_p1, q_p2 at h and g, into columns 0-3 of ``out``:
    # common message under both privates, then each private under the other.
    out[:, 0] = np.log2(1.0 + ch / (1.0 + ph1 + ph2))
    out[:, 1] = np.log2(1.0 + cg / (1.0 + pg1 + pg2))
    out[:, 2] = np.log2(1.0 + ph1 / (1.0 + ph2))
    out[:, 3] = np.log2(1.0 + pg2 / (1.0 + pg1))
    return out


def _policy_phase2(batch, g_perp2, h_perp2, p_c, p_p, out):
    # Phase-2 log terms of the default policy: q_c = (p_c/2) I and
    # q_p1, q_p2 = (p_p/2) along g_hat-perp, h_hat-perp.  ``g_perp2`` holds
    # |h.g_hat-perp|^2 and |g.g_hat-perp|^2, ``h_perp2`` the same for h_hat.
    c, s = p_c / 2.0, p_p / 2.0
    ch = c * _abs2(batch.h[:, 0]) + c * _abs2(batch.h[:, 1])
    cg = c * _abs2(batch.g[:, 0]) + c * _abs2(batch.g[:, 1])
    return _phase2_logs(ch, s * g_perp2[0], s * h_perp2[0],
                        cg, s * g_perp2[1], s * h_perp2[1], out)


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
    arrays (n, 2) and may return (2, 2) or (n, 2, 2) matrices (or a full
    PowerPolicy).  The common-message rate takes the outer min of the two
    users' expectations.
    """

    def fill(batch, proj, out):
        qs = policy_map(cfg, batch.h_hat, batch.g_hat)
        if isinstance(qs, PowerPolicy):
            qs = (qs.q_c, qs.q_p1, qs.q_p2)
        _phase2_logs(*(np.maximum(interference_power(x, q), 0.0)
                       for x in (batch.h, batch.g) for q in qs), out)

    return _estimate_group([None], [(4, fill, _common_message_rates)], cfg, mc_cfg)[0]


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


def _proposed_columns(cfg, pcfg):
    # Quantize-and-multicast with powers and distortions derived from ``pcfg``.
    if pcfg.snr_p != cfg.snr_p:
        raise ValueError("policy config must use the same transmit power")
    p1, p2, p_c, p_p = _power_split(pcfg)
    a, b = p1 / 2.0, p2 / 2.0
    d_tilde = _distortion(pcfg)
    r_eta1 = r_eta2 = quantization_rate(d_tilde)
    r_eta = r_eta1 + r_eta2

    def fill(batch, proj, out):
        # q_u = a g_hat-perp + b g_hat and q_v = a h_hat-perp + b h_hat,
        # one beam pair per estimate direction
        u, *g_perp2 = _beam_pair(proj("g_hat", _E2), a, b)
        v, *h_perp2 = _beam_pair(proj("h_hat", _E2), a, b)
        _policy_phase2(batch, g_perp2, h_perp2, p_c, p_p, out)
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

    def fill(batch, proj, out):
        out[:, 0] = np.log2(1.0 + p * _abs2(proj("h_hat", _E1)[0]))
        out[:, 1] = np.log2(1.0 + p * _abs2(proj("g_hat", _E1)[2]))

    return 2, fill, _user_pair(0.5)


def _zf_columns(cfg):
    # Equal-power beams w1 = g_hat-perp (e1 when g_hat is zero) and w2 =
    # h_hat-perp (e2 when h_hat is zero), leakage treated as noise.
    half_p = cfg.snr_p / 2.0

    def fill(batch, proj, out):
        _, h_w1, _, g_w1 = proj("g_hat", _E2)
        _, h_w2, _, g_w2 = proj("h_hat", _E1)
        out[:, 0] = np.log2(1.0 + half_p * _abs2(h_w1) / (1.0 + half_p * _abs2(h_w2)))
        out[:, 1] = np.log2(1.0 + half_p * _abs2(g_w2) / (1.0 + half_p * _abs2(g_w1)))

    return 2, fill, _user_pair(1.0)


def _rs_zf_columns(cfg):
    # Equal time-sharing of the two one-sided rate-splitting corners: each
    # user gets common + private in one slot and private-only in the other.
    _, _, p_c, p_p = _power_split(cfg)

    def fill(batch, proj, out):
        g_perp2 = [_abs2(z) for z in proj("g_hat", _E2)[1::2]]
        h_perp2 = [_abs2(z) for z in proj("h_hat", _E2)[1::2]]
        _policy_phase2(batch, g_perp2, h_perp2, p_c, p_p, out)

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
    Scheme.MAT: lambda cfg: _proposed_columns(cfg, CsitConfig.from_sigma_sq(cfg.snr_p, 1.0)),
    Scheme.PROPOSED: lambda cfg: _proposed_columns(cfg, cfg),
}


def _estimate_group(schemes, columns, cfg, mc_cfg):
    """Finalized results of the schemes' columns from one estimate: each block
    is drawn once and fills one array, each scheme its own slice, and each
    distinct (estimate, fallback) kernel projection is computed once a block."""
    bounds = np.cumsum([0] + [width for width, _, _ in columns])
    spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def f(batch):
        kernel = {}

        def proj(name, fallback):
            if (name, fallback) not in kernel:
                kernel[name, fallback] = _project(batch, getattr(batch, name), fallback)
            return kernel[name, fallback]

        out = np.empty((batch.n, bounds[-1]))
        for (_, fill, _), span in zip(columns, spans):
            fill(batch, proj, out[:, span])
        return out

    try:
        est = mc.estimate(f, mc_cfg, cfg)
    except mc.NonFiniteSampleError as exc:
        exc.scheme = schemes[np.searchsorted(bounds, exc.column, side="right") - 1]
        raise
    return [finalize(est.mean[span], est.std_error[span])
            for (_, _, finalize), span in zip(columns, spans)]


def rate_proposed(cfg, mc_cfg, policy_cfg=None):
    """Ergodic rate pair of the two-phase quantize-and-multicast scheme.

    ``policy_cfg`` optionally overrides the config used to derive powers and
    distortions (the channel itself still follows ``cfg``); it is how the
    no-current-CSIT (MAT-style) variant is evaluated.
    """
    pcfg = cfg if policy_cfg is None else policy_cfg
    return _estimate_group([Scheme.PROPOSED], [_proposed_columns(cfg, pcfg)], cfg, mc_cfg)[0]


def rate_baseline(scheme, cfg, mc_cfg):
    """Ergodic rates of a baseline scheme: TDMA, ZF, MAT, or RS_ZF."""
    if Scheme(scheme) is Scheme.PROPOSED:
        raise ValueError(f"{scheme} is not a baseline; use rate_proposed")
    return rate_scheme(scheme, cfg, mc_cfg)


def rate_scheme(scheme, cfg, mc_cfg):
    """Ergodic rates of one scheme, or of a tuple of schemes at one config.

    A tuple gives RateResults in its order from one ``mc.estimate``, each
    block drawn once for all of them and each result exactly the scheme's own
    one.  A ``NonFiniteSampleError`` names, as ``scheme``, the failing scheme.
    """
    single = isinstance(scheme, str)
    schemes = [Scheme(s) for s in ((scheme,) if single else scheme)]
    results = _estimate_group(schemes, [_COLUMNS[s](cfg) for s in schemes], cfg, mc_cfg)
    return results[0] if single else tuple(results)
