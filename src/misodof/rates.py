"""Exact finite-SNR ergodic achievable rates, logs base 2, bits per use.

Implements the two-phase quantize-and-multicast scheme (precoded broadcast of
two private signals, then multicast of the digitized overheard interferences
as a common message with two fresh private messages superposed) and the
TDMA, ZF, MAT-style and rate-split-ZF baselines.  MAT and ZF are the two
ends of the scheme's bridge: MAT is its policy at alpha = 0 and ZF is
rate-split ZF at the alpha = 1 power split, with no common message.
Expectations are Monte Carlo estimates over joint draws of channels and
estimates; transmit policies may depend on the estimates only.

The built-in schemes never form a covariance matrix: each covariance is a
sum of rank-1 beams along a unit estimate direction and its orthogonal
complement, and every quadratic form is summed beam by beam from one
kernel's squared projections of h and g.  That matters numerically: at very
high SNR the matrix entries are ~P while quadratic forms along nulled
directions are O(1), and forming the matrix first loses them to
cancellation.  So is the rounding of h = h_hat + h_tilde: the kernel builds
each user's coordinates from its estimate's norm and its error normals
apart, which nulls h_hat exactly.  The sampler's canonical frame (see
``channel``) puts h_hat along the first antenna and g_hat along the real
direction (r, -s), so the kernel neither normalizes nor divides by a norm.
It builds only the rows the schemes read: |h|^2, |g|^2, each user's
projections onto the zero-forcing beams h_hat-perp and g_hat-perp, and
TDMA's along-estimate rows.  A beam pair a w-perp w-perp^H + b w w^H puts b
|x|^2 + (a - b) |x.w-perp|^2 on x, and det(S Q S^H) = det Q |det[h g]|^2,
one value per batch, stands in for every cross term.  Each log term is a
difference of logs of sums over P, so it is finite for every finite P.  The
explicit-matrix reference the tests check this arithmetic against is
``tests/reference.py``.

Each scheme is a pair: the columns it reads, by key, and ``finalize(mean,
se)``, which maps their means and standard errors to a result.  A key names
a ``_Shared`` producer and its parameters: ``("tdma", P)``, ``("phase2", p_c,
p_p)`` or ``("mimo", a, b, d_tilde)``.  Per config, the group's distinct keys
are laid out once in one integrand array, each producer writing its rows in
place, so any set of schemes at any set of configs (say, every SNR of a
sweep) is one estimate over one draw per block, and a column that schemes
share is computed and reduced once.  A phase-2 pair whose power is 0 is
exactly 0, not a column: ``finalize`` reads 0.0 there.  A zero estimate
(sigma_sq = 1, the no-CSIT limit) still has a fixed beam pair, chosen by
``_project`` alone, so every scheme reads the same rows at every config.
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


def _project(batch):
    """The kernel: one (8, n) array of squared projections x.w = w^H x, and
    |det[h g]|^2.  Rows 0-3 are |h.h_hat-perp|^2, |g.g_hat-perp|^2,
    |h.g_hat-perp|^2 and |g.h_hat-perp|^2, each user's leakage and then its
    own power under the beams w1 = g_hat-perp and w2 = h_hat-perp; rows 4-7
    are |h|^2, |g|^2, |h.h_hat|^2 and |g.h_hat|^2.  In the antenna frame,
    h_hat's, g_hat is a |e_g| (r, -s) and g_hat-perp (s, r): h.h_hat-perp is
    exactly b n_h2 and g.g_hat-perp b (s n_g1 + r n_g2), from the errors
    alone (``normals.g_frame``), and h.g_hat-perp = s h_1 + r h_2 is not
    nulled.  At sigma_sq = 1 (a = 0) the estimates are zero: h_hat points at
    antenna 1 and g_hat at antenna 2 (r = 0, s = 1), each w-perp at the other."""
    a, b, normals = batch.a, batch.b, batch.normals
    r, s = normals.r, normals.s
    x_h, x_g = a * normals.norm  # |h_hat| and |g_hat|
    z = np.multiply(normals.n, b)  # h, then g, in the antenna frame
    z[0, 0] += x_h
    z[0, 2] += x_g * r
    z[0, 3] -= x_g * s
    # det[h g] = h_1 g_2 - h_2 g_1, from the (re re, im im) and (re im, im re) products
    re = z[:, 0] * z[:, 3] - z[:, 1] * z[:, 2]
    im = z[:, 0] * z[::-1, 3] - z[:, 1] * z[::-1, 2]
    det = np.square(re[0] - re[1]) + np.square(im[0] + im[1])
    sq = np.empty((8, batch.n))
    if a > 0.0:
        w = np.empty((2, 2, batch.n))  # g.g_hat-perp, then h.g_hat-perp
        np.multiply(normals.g_frame[:, 1], b, out=w[:, 0])
        np.multiply(z[:, 0], s, out=w[:, 1])
        w[:, 1] += z[:, 1] * r
        np.add(*np.square(w, out=w), out=sq[1:3])
    np.square(z, out=z)
    np.add(z[0, 1::2], z[1, 1::2], out=sq[0:4:3])
    np.add(z[0, 0::2], z[1, 0::2], out=sq[6:8])
    np.add(sq[6:8], sq[0:4:3], out=sq[4:6])
    if a == 0.0:
        sq[1:3] = sq[7:5:-1]  # g_hat-perp is antenna 1
    return sq, det


def _beam_pairs(sq, a, b):
    # Diagonals of S q S^H over P, S = [h^H; g^H], q = a w-perp w-perp^H + b w
    # w^H: b |x|^2 + (a - b) |x.w-perp|^2, nonnegative as a >= b.  Row 0 is each
    # user's interference (m00 of q_v, m11 of q_u), row 1 its own (m00 of q_u, m11 of q_v).
    m = np.multiply(sq[:4], a - b).reshape(2, 2, -1)
    m += b * sq[4:6]
    return m


class _Shared:
    """What a group's columns read from one batch, ``_project``'s rows ``sq``
    and ``det``, and each key's producer, ``getattr(shared, key[0])(out,
    *key[1:])``, which writes the key's rows into ``out``."""

    def __init__(self, batch):
        self.batch, self.p = batch, batch.csit.snr_p
        self.sq, self.det = _project(batch)

    def g_along(self):
        # |g.g_hat|^2 = |a |e_g| + b (r n_g1 - s n_g2)|^2, TDMA's alone
        batch = self.batch
        if batch.a == 0.0:
            return self.sq[3]
        x = np.multiply(batch.normals.g_frame[:, 0], batch.b)
        x[0] += batch.a * batch.normals.norm[1]
        return np.add(*np.square(x, out=x))

    def tdma(self, out, p):
        np.add(self.sq[6], 1.0 / p, out=out[0])
        np.add(self.g_along(), 1.0 / p, out=out[1])
        np.log2(out, out=out)
        out += math.log2(p)

    def phase2(self, out, p_c, p_p):
        # Phase-2 log terms of the default policy, q_c = (p_c/2) I and q_p1,
        # q_p2 = (p_p/2) along g_hat-perp, h_hat-perp: the common message
        # under both privates, then each private under the other's, each pair
        # only if its power is not 0.  Without privates (MAT) own = leak = 1/P
        # is a scalar, whose numpy log2 is that of each entry of a constant row.
        p, own = self.p, 1.0 / self.p
        if p_p > 0.0:
            leak = np.multiply(self.sq[0:2], 0.5 * (p_p / p))
            leak += own
            own = np.multiply(self.sq[2:4], 0.5 * (p_p / p))
            own += leak
        if p_c > 0.0:
            both = np.multiply(self.sq[4:6], 0.5 * (p_c / p), out=out[:2])
            both += own
            np.log2(both, out=both)
        own = np.log2(own, out=own if p_p > 0.0 else None)
        if p_c > 0.0:
            both -= own
        if p_p > 0.0:
            np.subtract(own, np.log2(leak, out=leak), out=out[-2:])

    def mimo(self, out, a, b, d):
        _mimo_logdets(_beam_pairs(self.sq, a, b), a * b, self.det, d, self.p, out)


def _power_split(cfg):
    # Phase-1 split (p1 orthogonal / p2 aligned with the crossing user's
    # estimate) and phase-2 split (p_c common / p_p private zero-forced):
    # p_p = alpha P^alpha <= P and p2 = (1 - alpha) (P/2) P^-alpha <= P/2
    # for 0 <= alpha <= 1, with p_c = P - p_p and p1 = P - p2.  (p_p, p2) is
    # exactly MAT's (0, P/2) at alpha = 0 and zero-forcing's (P, 0) at 1.
    p, alpha = cfg.snr_p, cfg.alpha
    p_p = alpha * p ** alpha
    p2 = (1.0 - alpha) * (p / 2.0) * p ** -alpha
    return p - p2, p2, p - p_p, p_p


def _distortion(cfg):
    # Quantizer distortion, unit noise over the overheard interference power
    # P^(1 - alpha): P^(alpha - 1), in [1/P, 1] and exactly 1 at alpha = 1.
    return cfg.snr_p ** (cfg.alpha - 1.0)


def quantization_rate(d_tilde):
    """Bits per symbol needed to quantize a unit source at distortion d_tilde."""
    if not 0.0 < d_tilde <= 1.0:
        raise ValueError(f"normalized distortion must lie in (0, 1], got {d_tilde}")
    # log2 is <= 0 on (0, 1]; abs() also turns -log2(1) = -0.0 into 0.0
    return abs(math.log2(d_tilde))


def _mimo_logdets(m, det_q, det, d, p, out):
    """Per-sample rates of both users' equivalent 2x2 channels (phase 1),
    into ``out[0]`` and ``out[1]``.

    ``m``: ``_beam_pairs``' interference and own powers over P of M = S q
    S^H, S = [h^H; g^H], for q_u and q_v; det M over P^2 is det_q det, the
    same for both.  Each receiver stacks its direct observation (aligned
    interference removed, residual quantization noise folded into the noise
    floor, gain r = 1/(1 + sig_own P d)) with the decoded quantized version
    of what the other receiver overheard, whose gain times its power sig is
    k = (1 - d)/(P d), or 0 where nothing is overheard (sig == 0, a null
    event).  So log2 det(I + diag(r0, r1) M), with no cross term, is log2(r
    (m_own/P + det_q k det/sig) + k/P + 1/P^2) + 2 log2 P, where every term
    stays finite for any finite P.
    """
    (sig, own), pd, noise = m, p * d, 1.0 / p
    k, sig_o = (1.0 - d) / pd, sig[::-1]
    t = np.divide(det * (det_q * k), np.maximum(sig_o, np.finfo(float).tiny))
    t += own * noise
    t /= sig * pd + 1.0
    np.add(t, k * noise, out=t, where=sig_o > 0.0)
    t += noise * noise
    np.log2(t, out=out)
    out += 2.0 * math.log2(p)


def _common_message_rates(mean, se):
    # RateResult's common-message fields from the phase-2 columns; the
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
    a, b = 0.5 * (p1 / p), 0.5 * (p2 / p)  # beam powers over P
    d_tilde = _distortion(pcfg)
    r_eta1 = r_eta2 = quantization_rate(d_tilde)
    r_eta = r_eta1 + r_eta2

    # q_u = a g_hat-perp + b g_hat and q_v = a h_hat-perp + b h_hat, one
    # beam pair per estimate direction.  At alpha = 1 (a, b, d_tilde) = (1/2,
    # 0, 1): nothing is overheard, and each user's equivalent channel is its
    # zero-forced private link, so phase 1 reads the private pair.
    if pcfg.alpha == 1.0:
        keys, mimo = (("phase2", p_c, p_p),), 2
    else:
        keys, mimo = (("phase2", p_c, p_p), ("mimo", a, b, d_tilde)), 4

    def finalize(mean, se):
        cm = _common_message_rates(mean, se)
        r_c, se_c = cm["r_c"], cm["se_r_c"]
        r_m1, r_m2 = float(mean[mimo]), float(mean[mimo + 1])
        se_m1, se_m2 = float(se[mimo]), float(se[mimo + 1])
        r1, se1 = _combine_rate(r_c, se_c, r_m1, se_m1, cm["r_p1"], cm["se_r_p1"], r_eta)
        r2, se2 = _combine_rate(r_c, se_c, r_m2, se_m2, cm["r_p2"], cm["se_r_p2"], r_eta)
        return RateResult(
            r1=r1, r2=r2, se_r1=se1, se_r2=se2,
            r_mimo1=r_m1, r_mimo2=r_m2,
            r_eta1=r_eta1, r_eta2=r_eta2,
            se_r_mimo1=se_m1, se_r_mimo2=se_m2, **cm,
        )

    return keys, finalize


def _tdma_columns(cfg):
    # Alternating single-user slots, full power beamformed along the
    # estimated channel: log2(1/P + |x.w|^2) + log2 P, half the time each.
    def finalize(mean, se):
        return RateResult(r1=float(mean[0]) * 0.5, r2=float(mean[1]) * 0.5,
                          se_r1=float(se[0]) * 0.5, se_r2=float(se[1]) * 0.5)

    return (("tdma", cfg.snr_p),), finalize


def _rs_zf_columns(cfg):
    # Equal time-sharing of the two one-sided rate-splitting corners: each
    # user gets common + private in one slot and private-only in the other.
    _, _, p_c, p_p = _power_split(cfg)

    def finalize(mean, se):
        cm = _common_message_rates(mean, se)
        half_c, half_se_c = 0.5 * cm["r_c"], 0.5 * cm["se_r_c"]
        return RateResult(
            r1=half_c + cm["r_p1"], r2=half_c + cm["r_p2"],
            se_r1=math.sqrt(half_se_c ** 2 + cm["se_r_p1"] ** 2),
            se_r2=math.sqrt(half_se_c ** 2 + cm["se_r_p2"] ** 2), **cm,
        )

    return (("phase2", p_c, p_p),), finalize


# Each scheme's (keys, finalize) at a config; every key's columns are user pairs.
_COLUMNS = {
    Scheme.TDMA: _tdma_columns, Scheme.RS_ZF: _rs_zf_columns,
    # The two ends of the bridge.  ZF: rate splitting at the alpha = 1
    # split, all of P on the zero-forced privates, so no common pair.
    Scheme.ZF: lambda cfg: _rs_zf_columns(CsitConfig.from_alpha(cfg.snr_p, 1.0)),
    # MAT: the proposed policy at alpha = 0, so no private pair
    Scheme.MAT: lambda cfg: _proposed_columns(CsitConfig.from_alpha(cfg.snr_p, 0.0)),
    Scheme.PROPOSED: _proposed_columns,
}


def _slots(key):
    # Each full-width column of a key: its row among the key's rows, or None
    # for a phase-2 pair whose power is 0, which is exactly 0 and not a row.
    if key[0] != "phase2":
        return [0, 1]
    rows = iter(range(4))
    return [next(rows) if power > 0.0 else None for power in key[1:] for _ in range(2)]


def _layout(schemes, cfg):
    # One config's integrand: each distinct key's rows once, in the order the
    # schemes first read them, with each row's first reader; and per scheme
    # its finalize with the row of each full-width column, -1 for a zero.
    specs = [_COLUMNS[s](cfg) for s in schemes]
    rows, readers = {}, []
    for s, (keys, _) in zip(schemes, specs):
        for key in keys:
            if key not in rows:
                n = sum(j is not None for j in _slots(key))
                rows[key] = slice(len(readers), len(readers) + n)
                readers += [s] * n
    return rows, readers, [
        (finalize, [-1 if j is None else rows[key].start + j for key in keys for j in _slots(key)])
        for keys, finalize in specs]


def rate_scheme(scheme, cfgs, mc_cfg):
    """Ergodic rates of one scheme, or of a tuple of schemes, at each config
    of a sequence.

    The result is a list with one entry per config: a RateResult for a bare
    scheme, a tuple of them in its order for a tuple.  It is all one
    ``mc.estimate``: each block is drawn once for every scheme and config,
    and each result is exactly the scheme's own one at that config.  A
    ``NonFiniteSampleError`` names, as ``scheme`` and ``config_index``, the
    failing config and the first scheme, in the order asked for, that reads
    the failing column.
    """
    single = isinstance(scheme, str)
    schemes = [Scheme(s) for s in ((scheme,) if single else scheme)]
    cfgs = list(cfgs)
    layouts = {c: _layout(schemes, c) for c in cfgs}

    def f(batch):
        rows, readers, _ = layouts[batch.csit]
        shared, out = _Shared(batch), np.empty((len(readers), batch.n))
        for key, span in rows.items():
            getattr(shared, key[0])(out[span], *key[1:])
        return out

    try:
        estimates = mc.estimate(f, mc_cfg, cfgs)
    except mc.NonFiniteSampleError as exc:
        exc.scheme = layouts[cfgs[exc.config_index]][1][exc.column]
        raise
    results = []
    for c, est in zip(cfgs, estimates):
        mean, se = np.append(est.mean, 0.0), np.append(est.std_error, 0.0)
        at = tuple(finalize(mean[cols], se[cols]) for finalize, cols in layouts[c][2])
        results.append(at[0] if single else at)
    return results
