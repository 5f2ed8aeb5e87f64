"""Fading and CSIT model of the two-user MISO broadcast channel.

The transmitter has two antennas and serves two single-antenna users over an
i.i.d. Rayleigh-fading channel.  At every slot it holds an imperfect estimate
of the current channel vectors: the true vectors decompose as
``h = h_hat + h_tilde`` and ``g = g_hat + g_tilde``, where estimates and
errors are independent circularly-symmetric complex Gaussians with per-entry
variances ``1 - sigma_sq`` and ``sigma_sq``.  Estimation quality is tracked
through the exponent ``alpha`` defined by ``sigma_sq = snr_p ** -alpha``.
A draw keeps that split, unscaled, and each config of a grid scales it.
The sampler always takes a sequence of configs, one or many.

The estimates are drawn in their canonical frame.  Every rate here builds
its beams from the estimates, so its integrand does not change when one
unitary is applied to all four vectors, or one phase to a user's estimate
and error together.  A unitary fixed by the estimates takes h_hat to
|h_hat| (1, 0) and g_hat to |g_hat| (r e^{i t1}, -s e^{i t2}); the phase
e^{-i t1} on g and then diag(1, e^{i (t1 - t2)}) make r and s real.  Both
steps depend on the estimates alone, so the errors stay i.i.d. CN in
antenna coordinates and independent of them.  What is left to draw is
|h_hat|^2 and |g_hat|^2, each (1 - sigma_sq) Gamma(2), and r^2 ~ U(0, 1),
the squared cosine between the estimates, all independent: 13 uniforms per
sample, 8 of them mapped to the errors' normals by Box-Muller, where the
antenna-frame draw took 16 normals.  A block is drawn as rows, one per
quantity, so kernels read contiguous arrays, and ``Normals.g_frame`` rotates
g's errors, and only g's, into g_hat's frame once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def exponent(value, name="alpha"):
    """A CSIT quality exponent: nonnegative, with values above 1 truncated to
    1, as neither the DoF nor the error variance P**-alpha gains beyond it."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be a nonnegative number, got {value}")
    return min(float(value), 1.0) + 0.0  # + 0.0 turns -0.0 into 0.0


def _power(snr_p):
    if not 1.0 < snr_p < math.inf:
        raise ValueError(f"snr_p must be a finite number above 1 (linear), got {snr_p}")
    return float(snr_p)


@dataclass(frozen=True)
class CsitConfig:
    """Transmit power and current-CSIT quality: P, sigma^2 = P**-alpha, alpha.

    Build one with ``from_alpha`` or ``from_sigma_sq``, which raise
    ``ValueError`` unless 1 < P < inf, 0 < sigma^2 <= 1 and alpha >= 0.
    The channel draw reads sigma^2 and the power policy reads alpha, which is
    at most 1: an error variance below the AWGN level 1/P gets the
    perfect-CSIT policy.  Under band-limited Doppler fading with normalized
    bandwidth F = v f_c T / c < 1/2 (speed, carrier, slot, light speed),
    one-step prediction from delayed CSI gives alpha = 1 - 2F.
    """

    snr_p: float
    sigma_sq: float
    alpha: float

    @classmethod
    def from_alpha(cls, snr_p, alpha):
        """Build a config from (P, alpha); the error variance is P**-alpha."""
        snr_p, alpha = _power(snr_p), exponent(alpha)
        return cls(snr_p, snr_p ** -alpha, alpha)

    @classmethod
    def from_sigma_sq(cls, snr_p, sigma_sq):
        """Build a config from (P, sigma^2); alpha = min(-log sigma^2 / log P, 1)."""
        snr_p = _power(snr_p)
        if not 0.0 < sigma_sq <= 1.0:
            raise ValueError(f"sigma_sq must lie in (0, 1], got {sigma_sq}")
        sigma_sq = float(sigma_sq)
        # + 0.0 turns the -0.0 of sigma_sq = 1 into 0.0
        return cls(snr_p, sigma_sq, min(-math.log2(sigma_sq) / math.log2(snr_p), 1.0) + 0.0)


@dataclass(frozen=True)
class Normals:
    """One block's draw in the canonical frame, shared by its batches:
    ``norm``, (2, n), holds |e_h| and |e_g|, the chi^2_4 norms of each
    estimate's two unit-variance complex normals; ``r`` and ``s`` =
    sqrt(1 - r^2), (n,), put g's estimate direction at (r, -s); ``n``, (2,
    4, n), holds the real, then the imaginary, parts of the unit-variance
    complex error normals, rows (h_1, h_2, g_1, g_2) in antenna
    coordinates."""

    norm: np.ndarray
    r: np.ndarray
    s: np.ndarray
    n: np.ndarray

    @cached_property
    def g_frame(self):
        """g's error normals in g_hat's frame, (2, 2, n): (r x_1 - s x_2, s x_1
        + r x_2) along w_g = (r, -s) and w_g-perp = (s, r), one real rotation
        that every config of the block shares."""
        g, s = self.n[:, 2:], self.s
        out = g * self.r  # r x_1, r x_2
        out[:, 0] -= s * g[:, 1]
        out[:, 1] += s * g[:, 0]
        return out


@dataclass(frozen=True)
class ChannelBatch:
    """The block's ``normals`` at config ``csit``, in the canonical frame:
    h_hat = a |e_h| (1, 0) and g_hat = a |e_g| (r, -s), so h_hat-perp =
    (0, 1) and g_hat-perp = (s, r); h_tilde = b n_h and g_tilde = b n_g,
    with a = sqrt((1 - sigma_sq)/2) and b = sqrt(sigma_sq/2)."""

    normals: Normals
    csit: CsitConfig
    n = property(lambda self: self.normals.n.shape[-1])
    a = property(lambda self: math.sqrt((1.0 - self.csit.sigma_sq) / 2.0))
    b = property(lambda self: math.sqrt(self.csit.sigma_sq / 2.0))


def _normals(u):
    """The Normals of a block's (13, n) uniforms on [0, 1), which it overwrites:
    rows 0-3 give the error entries' radii sqrt(-2 ln(1 - u)), 4-7 their phases,
    8-11 the two chi^2_4 norms and 12 r^2.  Box-Muller in tangent form: a phase
    is twice the angle of t = tan(pi (1 - u - 1/2)), with cosine (1 - t^2)/(1 +
    t^2) = 2/(1 + t^2) - 1 and sine 2t/(1 + t^2), so one tan replaces cos and sin."""
    v = np.subtract(1.0, u[:12], out=u[:12])  # exact on Generator.random's 2^-53 grid
    # chi^2_4 = -2 (ln V1 + ln V2) for V1, V2 uniform on (0, 1]: one log of the product
    norm, radius, t = np.multiply(v[8:10], v[10:12]), v[0:4], v[4:8]
    for x in (norm, radius):
        np.sqrt(np.multiply(np.log(x, out=x), -2.0, out=x), out=x)
    np.tan(np.multiply(np.subtract(t, 0.5, out=t), math.pi, out=t), out=t)
    n = np.empty((2, 4, u.shape[1]))
    k = np.divide(radius, np.add(np.multiply(t, t, out=n[0]), 1.0, out=n[0]), out=n[0])
    k += k  # 2 radius / (1 + t^2)
    np.multiply(k, t, out=n[1])
    k -= radius  # radius (1 - t^2)/(1 + t^2)
    return Normals(norm, np.sqrt(u[12]), np.sqrt(1.0 - u[12]), n)


def sample_batch(rng, cfgs, n):
    """Draw ``n`` independent channel samples once, for a sequence of configs.

    An iterator yields one ChannelBatch per config, all sharing the draw:
    one ``rng.random((13, n))`` call, whose rows ``_normals`` maps.  Error
    entries are i.i.d. CN(0, sigma_sq) in antenna coordinates.  The
    estimates lie in the canonical frame (see the module docstring), with
    norms^2 of (1 - sigma_sq) Gamma(2) and r^2 ~ U(0, 1), independent of one
    another and of the errors.  So every integrand invariant under a common
    unitary and a per-user phase, as every rate here is, has the law it
    has under i.i.d. CN(0, 1 - sigma_sq) estimate entries.
    """
    normals = _normals(rng.random((13, n)))  # the fixed draw layout
    return (ChannelBatch(normals, c) for c in cfgs)
