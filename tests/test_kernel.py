"""Every scheme's integrand against independent evaluations of its formulas.

The integrands work from one projection kernel (``rates._project``), built
from the block's estimate and error normals apart, and TDMA's one further
row, ``_Shared.g_along``.  Here each one is checked sample by sample
against (a) explicit covariance matrices that
``reference.policy_matrices`` builds from rank-1 projectors, evaluated with
``reference.interference_power`` and a 2x2 determinant, and (b) an mpmath
evaluation of the same per-sample formulas at extreme SNR, fed the estimates
and errors themselves, where forming a covariance or the sum h = h_hat +
h_tilde in double precision would lose the nulled quadratic forms.
"""

import mpmath
import numpy as np
import pytest

from misodof import mc, rates
from misodof.channel import ChannelBatch, CsitConfig, Normals, sample_batch
from misodof.mc import McConfig
from misodof.rates import rate_scheme
from misodof.regions import Scheme
from reference import (
    E1, E2, interference_power, isotropic_batch, pair_entries, perp, policy_matrices, projector,
    unit, vectors,
)

SCHEMES = ("tdma", "zf", "mat", "rszf", "proposed")
# each estimate with the beam it takes when zero
FALLBACKS = {"h_hat": E1, "g_hat": E2}


def _integrand(scheme, cfg):
    """The batch integrand ``f`` that ``scheme`` hands to ``mc.estimate``."""
    captured = []
    real_estimate = mc.estimate

    def grab(f, mc_cfg, csit):
        captured.append(f)
        return real_estimate(f, McConfig(2, 0), csit)

    mc.estimate = grab
    try:
        rate_scheme(scheme, [cfg], McConfig(2, 0))
    finally:
        mc.estimate = real_estimate
    assert len(captured) == 1
    return captured[0]


def _full_width(scheme, cfg, rows):
    """``scheme``'s integrand ``rows`` as its finalize reads them: full width,
    with 0.0 in each column the layout leaves out.  At alpha = 1 the proposed
    scheme reads phase 1 from its private pair, so that pair is read twice."""
    [(_, cols)] = rates._layout([Scheme(scheme)], cfg)[2]
    if scheme == "proposed" and cfg.alpha == 1.0:
        cols = cols + cols[2:]
    return np.vstack([rows, np.zeros(rows.shape[1])])[cols]


def _batch(cfg, n, seed):
    [batch] = sample_batch(mc.block_rng(seed, 0), [cfg], n)
    return batch


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


def _explicit_integrand(scheme, cfg, v):
    # the scheme's log terms from the explicit vectors v, as ``vectors`` names them
    h, g, p = v.h, v.g, cfg.snr_p
    if scheme == "tdma":
        q_h = p * projector(unit(v.h_hat, E1))
        q_g = p * projector(unit(v.g_hat, E2))
        return np.stack([np.log2(1.0 + interference_power(h, q_h)),
                         np.log2(1.0 + interference_power(g, q_g))])
    if scheme == "zf":
        # rate-split ZF's columns with no common message: P/2 beams along
        # the estimates' perpendiculars
        q1 = p / 2.0 * projector(perp(v.g_hat, E1))
        q2 = p / 2.0 * projector(perp(v.h_hat, E2))
        ip, zero = interference_power, np.zeros(len(h))
        return np.stack([zero, zero, np.log2(1.0 + ip(h, q1) / (1.0 + ip(h, q2))),
                         np.log2(1.0 + ip(g, q2) / (1.0 + ip(g, q1)))])
    pcfg = _policy_cfg(scheme, cfg)
    q = policy_matrices(pcfg, v.h_hat, v.g_hat)
    ch, ph1, ph2, cg, pg1, pg2 = (interference_power(x, q[name]) for x in (h, g)
                                  for name in ("q_c", "q_p1", "q_p2"))
    cols = [np.log2(1.0 + ch / (1.0 + ph1 + ph2)), np.log2(1.0 + cg / (1.0 + pg1 + pg2)),
            np.log2(1.0 + ph1 / (1.0 + ph2)), np.log2(1.0 + pg2 / (1.0 + pg1))]
    if scheme != "rszf":
        cols += _explicit_mimo(h, g, q["q_u"], q["q_v"], rates._distortion(pcfg))
    return np.stack(cols)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("snr_p", [1e2, 1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_integrand_matches_explicit_matrices(scheme, snr_p, alpha):
    cfg = CsitConfig.from_alpha(snr_p, alpha)
    batch = _batch(cfg, 512, seed=41)
    got = _integrand(scheme, cfg)(batch)
    # a column the layout leaves out reads 0.0, so the reference's must be
    # zero within atol
    np.testing.assert_allclose(_full_width(scheme, cfg, got),
                               _explicit_integrand(scheme, cfg, vectors(batch)),
                               rtol=1e-9, atol=1e-12)
    if scheme == "zf":  # no common message: its layout has no common column
        [(_, cols)] = rates._layout([Scheme.ZF], cfg)[2]
        assert cols == [-1, -1, 0, 1]


@pytest.mark.parametrize("snr_db", [10.0, 37.0, 80.0, 1000.0, 3082.0])
def test_mat_common_rows_subtract_a_constant_row(snr_db):
    # MAT sends no private power, so its own = leak = 1/P is a constant row,
    # which the kernel keeps as a scalar: numpy's log2 of it must equal that
    # of every entry of the row, bit for bit.
    cfg = CsitConfig.from_alpha(10.0 ** (snr_db / 10.0), 0.0)
    shared, p = rates._Shared(_batch(cfg, 512, seed=49)), cfg.snr_p
    got = np.empty((2, 512))
    shared.phase2(got, p, 0.0)
    own = np.full((2, 512), 1.0 / p)
    np.testing.assert_array_equal(got, np.log2(shared.sq[4:6] * 0.5 + own) - np.log2(own))


def test_zero_norm_row_is_its_small_norm_limit():
    # The kernel never divides by an estimate's norm: below sigma_sq = 1 a
    # zero estimate, which has probability 0, keeps its frame's beams, so
    # its row is finite and equals the limit of a vanishing norm.  Row 5
    # zeroes both norms, row 6 h_hat's and row 7 g_hat's.
    cfg = CsitConfig.from_alpha(1e4, 0.5)
    f = _integrand(tuple(Scheme), cfg)
    got = []
    for norm in (0.0, 1e-300):
        batch = _batch(cfg, 64, seed=44)
        batch.normals.norm[:, 5] = batch.normals.norm[0, 6] = batch.normals.norm[1, 7] = norm
        got.append(f(batch))
    assert np.isfinite(got[0]).all()
    np.testing.assert_array_equal(got[0], got[1])


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_canonical_frame_matches_isotropic_draw(scheme, alpha):
    # sample_batch draws the estimates in their canonical frame, with real r
    # and s; every integrand is invariant under a common unitary and a
    # per-user phase, so its column means match those of the isotropic draw.
    cfg = CsitConfig.from_alpha(1e3, alpha)
    n = 20_000
    iso = isotropic_batch(mc.block_rng(46, 0), cfg, n)
    rows = [_explicit_integrand(scheme, cfg, v) for v in (iso, vectors(_batch(cfg, n, seed=47)))]
    mean = [r.mean(axis=1) for r in rows]
    se = [r.std(axis=1, ddof=1) / np.sqrt(n) for r in rows]
    assert np.all(np.abs(mean[0] - mean[1]) <= 4.0 * np.hypot(*se))


def _kernel(batch, name):
    # The kernel's squared projections onto one estimate's beams, as (row,
    # x, beam) with beam "w", "perp" or, for |x|^2, None
    sq, _ = rates._project(batch)
    if name == "h_hat":
        return [(sq[6], "h", "w"), (sq[0], "h", "perp"), (sq[7], "g", "w"),
                (sq[3], "g", "perp"), (sq[4], "h", None), (sq[5], "g", None)]
    return [(sq[2], "h", "perp"), (rates._Shared(batch).g_along(), "g", "w"),
            (sq[1], "g", "perp")]


def _pair_rows(batch, name, a, b):
    # rates._beam_pairs' (m00, m11) of S Q S^H for Q = a w-perp w-perp^H + b w w^H
    m = rates._beam_pairs(rates._project(batch)[0], a, b)
    return (m[0, 0], m[1, 1]) if name == "h_hat" else (m[1, 0], m[0, 1])


def _beams(v, name, fallback_beam):
    # the estimate's unit direction w and w-perp, from the reference's projectors
    w = unit(getattr(v, name), fallback_beam)
    return w, np.stack([-np.conj(w[:, 1]), np.conj(w[:, 0])], axis=-1)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("fallback", FALLBACKS.items())
def test_kernel_columns_match_projectors(alpha, fallback):
    cfg = CsitConfig.from_alpha(1e4, alpha)
    batch = _batch(cfg, 256, seed=42)
    v = vectors(batch)
    name, fallback_beam = fallback
    w, w_perp = _beams(v, name, fallback_beam)
    beams = {"w": projector(w), "perp": projector(w_perp), None: np.eye(2)}
    for col_sq, x, beam in _kernel(batch, name):
        np.testing.assert_allclose(col_sq, interference_power(getattr(v, x), beams[beam]),
                                   rtol=1e-12, atol=1e-14)
    a, b = 3.0, 0.25
    m00, m11, _ = pair_entries(v.h, v.g, a * projector(w_perp) + b * projector(w))
    got00, got11 = _pair_rows(batch, name, a, b)
    np.testing.assert_allclose(got00, m00, rtol=1e-12)
    np.testing.assert_allclose(got11, m11, rtol=1e-12)


@pytest.mark.parametrize("snr_p, alpha, s", [
    (1e4, 0.0, None), (1e4, 0.5, None), (1e4, 1.0, None), (1e12, 1.0, 1e-7),
])
@pytest.mark.parametrize("fallback", FALLBACKS.items())
def test_det_identity_matches_explicit_matrices(fallback, snr_p, alpha, s):
    # m00 m11 - |m01|^2 of S Q S^H, S = [h^H; g^H] and Q = a w-perp w-perp^H
    # + b w w^H, is det Q |det S|^2 = a b |det[h g]|^2, the kernel's one
    # determinant per batch for either estimate's beams.  The last case puts
    # g_hat within 1e-7 of h_hat's direction, with errors ~1e-6, so h and g
    # are nearly collinear; the explicit m00 m11 - |m01|^2 then cancels
    # about 12 digits, and the bound allows for that.
    cfg = CsitConfig.from_alpha(snr_p, alpha)
    batch = _batch(cfg, 256, seed=48)
    if s is not None:
        batch.normals.s[:] = s
        batch.normals.r[:] = np.sqrt(1.0 - s * s)
    v = vectors(batch)
    name, fallback_beam = fallback
    w, w_perp = _beams(v, name, fallback_beam)
    a, b = 3.0, 0.25
    m00, m11, off = pair_entries(v.h, v.g, a * projector(w_perp) + b * projector(w))
    det = rates._project(batch)[1]
    explicit = m00 * m11 - off
    assert np.all(np.abs(a * b * det - explicit) <= 1e-13 * m00 * m11 + 1e-12 * explicit)
    if s is not None:
        assert np.median(explicit / (m00 * m11)) < 1e-8


# each scheme's full-width integrand columns with the two users swapped
USER_SWAP = {"tdma": [1, 0], "zf": [1, 0, 3, 2], "rszf": [1, 0, 3, 2],
             "mat": [1, 0, 3, 2, 5, 4], "proposed": [1, 0, 3, 2, 5, 4]}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_estimate_beams_are_user_symmetric(scheme):
    # Without CSIT (sigma_sq = 1) no user is favoured: relabelling the
    # antennas and swapping the users, (h1, h2, g1, g2) -> (g2, g1, h2, h1),
    # maps h_hat's zero-estimate beams onto g_hat's, so every integrand
    # comes out with its user columns swapped.
    cfg = CsitConfig.from_sigma_sq(1e3, 1.0)
    batch = _batch(cfg, 256, seed=45)
    order = [3, 2, 1, 0]
    normals = batch.normals
    swapped = ChannelBatch(Normals(normals.norm[::-1], normals.r, normals.s,
                                   normals.n[:, order]), cfg)
    f = _integrand(scheme, cfg)
    got = _full_width(scheme, cfg, f(swapped))
    want = _full_width(scheme, cfg, f(batch))[USER_SWAP[scheme]]
    if scheme in ("mat", "proposed"):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    else:
        np.testing.assert_array_equal(got, want)


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


def _mp_channels(v, i):
    # h_hat, g_hat and the exact h, g of sample i of the explicit vectors v
    h_hat, g_hat = _mp_vec(v.h_hat[i]), _mp_vec(v.g_hat[i])
    h = [x + e for x, e in zip(h_hat, _mp_vec(v.h_tilde[i]))]
    g = [x + e for x, e in zip(g_hat, _mp_vec(v.g_tilde[i]))]
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
        return [0, 0, _mp_log2(1 + p / 2 * hg_perp / (1 + p / 2 * hh_perp)),
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
@pytest.mark.parametrize("fallback", FALLBACKS.items())
def test_kernel_backward_stable_at_extreme_snr(fallback, log2_p, alpha):
    # Every row of the estimate's kernel is within a few eps |x| of the
    # modulus of the exact projection of the exact x; its zero-estimate beam
    # is unused, as no estimate is zero.
    cfg = CsitConfig.from_alpha(2.0 ** log2_p, alpha)
    batch = _batch(cfg, 16, seed=43)
    name, _ = fallback
    kernel, v = _kernel(batch, name), vectors(batch)
    with mpmath.workdps(80):
        for i in range(batch.n):
            h_hat, g_hat, h, g = _mp_channels(v, i)
            w, w_perp = _mp_beams(h_hat if name == "h_hat" else g_hat)
            for row, x_name, beam in kernel:
                x = h if x_name == "h" else g
                norm = mpmath.sqrt(abs(x[0]) ** 2 + abs(x[1]) ** 2)
                ref = norm if beam is None else abs(_mp_dot(w if beam == "w" else w_perp, x))
                assert abs(mpmath.sqrt(row[i]) - ref) <= 5 * EPS * norm


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("scheme, log2_p", [
    *((scheme, log2_p) for scheme in SCHEMES for log2_p in (60, 80, 100, 120)),
    ("mat", 1000), ("proposed", 1000),
])
def test_integrand_matches_mpmath_at_extreme_snr(scheme, log2_p, alpha):
    # At P = 2^1000 the phase-1 determinant is ~P^2, beyond the double
    # range; the reference's m00 m11 - |m01|^2 cancels up to log10 P^2
    # digits, so it works with that many more.
    cfg = CsitConfig.from_alpha(2.0 ** log2_p, alpha)
    batch = _batch(cfg, 16, seed=43)
    got, v = _integrand(scheme, cfg)(batch), vectors(batch)
    with mpmath.workdps(80 if log2_p <= 120 else 80 + log2_p):
        ref = np.array([[float(x) for x in _mp_sample(scheme, cfg, *_mp_channels(v, i))]
                        for i in range(batch.n)]).T
    np.testing.assert_allclose(_full_width(scheme, cfg, got), ref, rtol=1e-9, atol=1e-12)
