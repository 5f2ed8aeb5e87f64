"""Fading and CSIT model of the two-user MISO broadcast channel.

The transmitter has two antennas and serves two single-antenna users over an
i.i.d. Rayleigh-fading channel.  At every slot it holds an imperfect estimate
of the current channel vectors: the true vectors decompose as
``h = h_hat + h_tilde`` and ``g = g_hat + g_tilde``, where estimates and
errors are independent circularly-symmetric complex Gaussians with per-entry
variances ``1 - sigma_sq`` and ``sigma_sq``.  Estimation quality is tracked
through the exponent ``alpha`` defined by ``sigma_sq = snr_p ** -alpha``.
A draw keeps that split, as unit normals that each config of a grid scales:
the rounded sums h and g lose h's part along h_hat-perp once sigma ~ eps
|h_hat|.  The sampler always takes a sequence of configs, one or many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    ``sigma_hat_sq`` and ``alpha_hat`` are derived: the error variance
    floored at the noise-limited level ``1/snr_p``, and its exponent.  Power
    allocations use the floored pair so they stay meaningful when the raw
    error variance drops below the AWGN floor.  Under band-limited Doppler
    fading with normalized bandwidth F = v f_c T / c < 1/2 (speed, carrier,
    slot, light speed), one-step prediction from delayed CSI gives
    alpha = 1 - 2F.
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

    @property
    def sigma_hat_sq(self):
        return max(1.0 / self.snr_p, self.sigma_sq)

    @property
    def alpha_hat(self):
        return min(max(-math.log(self.sigma_hat_sq) / math.log(self.snr_p), 0.0), 1.0)


@dataclass(frozen=True)
class Normals:
    """One block's unit-variance complex normals, (n, 4) with columns (h_1,
    h_2, g_1, g_2): ``e`` for the estimates, ``n`` for the errors, shared by
    the block's batches; ``memo`` keeps what is derived from them alone."""

    e: np.ndarray
    n: np.ndarray
    memo: dict = field(default_factory=dict, repr=False, compare=False)


def _scaled(normals, first, scale):
    # columns first, first + 1 of the normals times the config's scale
    return cached_property(lambda batch: getattr(batch.normals, normals)[:, first:first + 2]
                           * getattr(batch, scale))


@dataclass(frozen=True)
class ChannelBatch:
    """The block's ``normals`` at config ``csit``: h_hat = a e_h and h_tilde =
    b n_h (likewise g), with a = sqrt((1 - sigma_sq)/2) and b =
    sqrt(sigma_sq/2).  The (n, 2) vectors are formed on first use."""

    normals: Normals
    csit: CsitConfig
    n = property(lambda self: self.normals.e.shape[0])
    a = property(lambda self: math.sqrt(max(1.0 - self.csit.sigma_sq, 0.0) / 2.0))
    b = property(lambda self: math.sqrt(self.csit.sigma_sq / 2.0))
    h_hat = _scaled("e", 0, "a")
    g_hat = _scaled("e", 2, "a")
    h_tilde = _scaled("n", 0, "b")
    g_tilde = _scaled("n", 2, "b")
    h = cached_property(lambda self: self.h_hat + self.h_tilde)
    g = cached_property(lambda self: self.g_hat + self.g_tilde)


def sample_batch(rng, cfgs, n):
    """Draw ``n`` independent channel samples once, for a sequence of configs.

    An iterator yields one ChannelBatch per config, all sharing the draw:
    entries of the estimates are i.i.d. CN(0, 1 - sigma_sq), entries of the
    errors i.i.d. CN(0, sigma_sq), all four vectors mutually independent.
    """
    # Fixed draw layout: 16 reals per sample, estimates first.
    z = rng.standard_normal((n, 16))
    normals = Normals(z[:, 0:4] + 1j * z[:, 4:8], z[:, 8:12] + 1j * z[:, 12:16])
    return (ChannelBatch(normals, c) for c in cfgs)
