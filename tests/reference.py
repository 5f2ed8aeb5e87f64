"""Explicit-matrix reference for the default policy's beams.

``misodof.rates`` never forms a covariance matrix: every integrand sums
quadratic forms beam by beam from the projection kernel.  The tests check
that arithmetic against the covariances written out here, so this module
builds them independently of the kernel: rank-1 projectors, unit and
orthogonal-complement directions with a zero estimate's fixed beams (h_hat
along E1 with its complement along E2, g_hat along E2 with its complement
along E1), the five covariances (q_u, q_v, q_c, q_p1, q_p2) of the default
policy, and the quadratic forms h^H Q h of explicit (..., 2, 2) matrices.
Only the scalar power split comes from ``rates``.  ``vectors`` writes a
sampler batch, which holds its draw in the estimates' canonical frame, as
the explicit (n, 2) complex vectors h_hat, g_hat, h_tilde, g_tilde, h and g.
``isotropic_batch`` is a channel draw in antenna coordinates with no frame
chosen, in the same namespace, to check the sampler's canonical-frame draw
against in law.
"""

import math
from types import SimpleNamespace

import numpy as np

from misodof.rates import _power_split

E1 = np.array([1.0 + 0j, 0.0])
E2 = np.array([0.0 + 0j, 1.0])


def projector(x):
    """Rank-1 orthogonal projector onto the direction of ``x``, (..., 2) -> (..., 2, 2)."""
    x = np.asarray(x, dtype=complex)
    norm_sq = np.sum(x.real ** 2 + x.imag ** 2, axis=-1)
    if np.any(norm_sq <= 0.0):
        raise ValueError("projector of the zero vector is undefined")
    return x[..., :, None] * np.conj(x)[..., None, :] / norm_sq[..., None, None]


def orthogonal_complement(x):
    """Unit vector (-conj(x2), conj(x1)) / ||x|| orthogonal to ``x``, (..., 2)."""
    x = np.asarray(x, dtype=complex)
    norm = np.sqrt(np.sum(x.real ** 2 + x.imag ** 2, axis=-1))
    if np.any(norm <= 0.0):
        raise ValueError("orthogonal complement of the zero vector is undefined")
    return np.stack([-np.conj(x[..., 1]), np.conj(x[..., 0])], axis=-1) / norm[..., None]


def unit(x, fallback):
    """x / ||x|| per row, or ``fallback`` where x is zero."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.where(norm > 0, x / np.where(norm > 0, norm, 1.0), fallback)


def perp(x, fallback):
    """The orthogonal complement of x per row, or ``fallback`` where x is zero."""
    zero = np.linalg.norm(x, axis=-1, keepdims=True) == 0
    return np.where(zero, fallback, orthogonal_complement(np.where(zero, E1, x)))


def interference_power(h, q):
    """Quadratic form h^H Q h: received power of a covariance at channel h."""
    h = np.asarray(h, dtype=complex)
    val = np.einsum("...i,...ij,...j->...", np.conj(h), np.asarray(q, dtype=complex), h)
    return val.real


def pair_entries(h, g, q):
    """Entries (m00, m11, |m01|^2) of S Q S^H with S = [h^H; g^H]."""
    s = np.stack([np.conj(h), np.conj(g)], axis=-2)
    m = s @ np.asarray(q, dtype=complex) @ np.conj(np.swapaxes(s, -1, -2))
    return m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 0, 1]) ** 2


def policy_beams(cfg, h_hat, g_hat):
    """(power, unit beam) pairs of the default policy's five covariances."""
    p1, p2, p_c, p_p = _power_split(cfg)
    perp_g, par_g = perp(g_hat, E1), unit(g_hat, E2)
    perp_h, par_h = perp(h_hat, E2), unit(h_hat, E1)
    return {
        "q_u": ((p1 / 2.0, perp_g), (p2 / 2.0, par_g)),
        "q_v": ((p1 / 2.0, perp_h), (p2 / 2.0, par_h)),
        "q_c": ((p_c / 2.0, E1), (p_c / 2.0, E2)),
        "q_p1": ((p_p / 2.0, perp_g),),
        "q_p2": ((p_p / 2.0, perp_h),),
    }


def policy_matrices(cfg, h_hat, g_hat):
    """The default policy's five covariances as explicit (..., 2, 2) matrices."""
    return {name: sum(c * projector(w) for c, w in beams)
            for name, beams in policy_beams(cfg, h_hat, g_hat).items()}


def _channels(cfg, h_hat, g_hat, h_tilde, g_tilde):
    return SimpleNamespace(csit=cfg, n=len(h_hat), h_hat=h_hat, g_hat=g_hat, h_tilde=h_tilde,
                           g_tilde=g_tilde, h=h_hat + h_tilde, g=g_hat + g_tilde)


def vectors(batch):
    """The explicit vectors of a sampler batch, in a namespace: in the
    canonical frame, h_hat = a |e_h| (1, 0) and g_hat = a |e_g| (r, -s), and
    h_tilde and g_tilde are b times the error normals, with h and g the
    rounded sums h_hat + h_tilde and g_hat + g_tilde."""
    normals, a = batch.normals, batch.a
    h_hat, g_hat = np.zeros((batch.n, 2), dtype=complex), np.empty((batch.n, 2), dtype=complex)
    h_hat[:, 0] = a * normals.norm[0]
    scale = a * normals.norm[1]
    g_hat[:, 0], g_hat[:, 1] = scale * normals.r, -scale * normals.s
    err = np.empty((batch.n, 4), dtype=complex)
    err.real, err.imag = np.multiply(normals.n, batch.b).transpose(0, 2, 1)
    return _channels(batch.csit, h_hat, g_hat, err[:, 0:2], err[:, 2:4])


def isotropic_batch(rng, cfg, n):
    """``n`` channel samples at ``cfg`` with every entry of the estimates
    i.i.d. CN(0, 1 - sigma_sq) and of the errors i.i.d. CN(0, sigma_sq), in
    antenna coordinates: 16 normals per sample, the real then the imaginary
    parts of (h_hat, g_hat), then of (h_tilde, g_tilde).  The explicit
    vectors, as ``vectors`` names them, in a namespace."""
    z = rng.standard_normal((n, 16))
    est, err = z[:, 0:4] + 1j * z[:, 4:8], z[:, 8:12] + 1j * z[:, 12:16]
    a, b = math.sqrt((1.0 - cfg.sigma_sq) / 2.0), math.sqrt(cfg.sigma_sq / 2.0)
    return _channels(cfg, est[:, 0:2] * a, est[:, 2:4] * a, err[:, 0:2] * b, err[:, 2:4] * b)
