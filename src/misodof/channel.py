"""Fading and CSIT model of the two-user MISO broadcast channel.

The transmitter has two antennas and serves two single-antenna users over an
i.i.d. Rayleigh-fading channel.  At every slot it holds an imperfect estimate
of the current channel vectors: the true vectors decompose as
``h = h_hat + h_tilde`` and ``g = g_hat + g_tilde``, where estimates and
errors are independent circularly-symmetric complex Gaussians with per-entry
variances ``1 - sigma_sq`` and ``sigma_sq``.  Estimation quality is tracked
through the exponent ``alpha`` defined by ``sigma_sq = snr_p ** -alpha``.
A draw keeps that split, as unit normals that each config scales: the
rounded sums h and g lose h's part along h_hat-perp once sigma ~ eps |h_hat|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class CsitConfig:
    """Transmit power and current-CSIT quality parameters.

    ``sigma_hat_sq`` is the error variance floored at the noise-limited
    level ``1/snr_p`` and ``alpha_hat`` its exponent; power allocations use
    the floored pair so they stay meaningful when the raw error variance
    drops below the AWGN floor.  Under band-limited Doppler fading with
    normalized bandwidth F = v f_c T / c < 1/2 (speed, carrier, slot,
    light speed), one-step prediction from delayed CSI gives alpha = 1 - 2F.
    """

    snr_p: float
    sigma_sq: float
    alpha: float
    sigma_hat_sq: float
    alpha_hat: float

    def __post_init__(self):
        if not self.snr_p > 1.0:
            raise ValueError(f"snr_p must exceed 1 (linear), got {self.snr_p}")
        if not 0.0 < self.sigma_sq <= 1.0:
            raise ValueError(f"sigma_sq must lie in (0, 1], got {self.sigma_sq}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.sigma_hat_sq < 1.0 / self.snr_p * (1.0 - 1e-12):
            raise ValueError("sigma_hat_sq below the noise floor 1/snr_p")
        if not 0.0 <= self.alpha_hat <= 1.0:
            raise ValueError(f"alpha_hat must lie in [0, 1], got {self.alpha_hat}")

    @classmethod
    def from_alpha(cls, snr_p, alpha):
        """Build a config from (P, alpha); the error variance is P**-alpha."""
        if alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        alpha = min(float(alpha), 1.0)
        sigma_sq = float(snr_p) ** (-alpha)
        return cls._complete(float(snr_p), sigma_sq, alpha)

    @classmethod
    def from_sigma_sq(cls, snr_p, sigma_sq):
        """Build a config from (P, sigma^2); alpha = min(-log sigma^2 / log P, 1)."""
        snr_p = float(snr_p)
        sigma_sq = float(sigma_sq)
        if not 0.0 < sigma_sq <= 1.0:
            raise ValueError(f"sigma_sq must lie in (0, 1], got {sigma_sq}")
        if not snr_p > 1.0:
            raise ValueError(f"snr_p must exceed 1 (linear), got {snr_p}")
        alpha = min(-math.log2(sigma_sq) / math.log2(snr_p), 1.0)
        return cls._complete(snr_p, sigma_sq, alpha)

    @classmethod
    def _complete(cls, snr_p, sigma_sq, alpha):
        sigma_hat_sq = max(1.0 / snr_p, sigma_sq)
        alpha_hat = -math.log(sigma_hat_sq) / math.log(snr_p)
        alpha_hat = min(max(alpha_hat, 0.0), 1.0)
        return cls(snr_p, sigma_sq, alpha, sigma_hat_sq, alpha_hat)


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


def sample_batch(rng, cfg, n):
    """Draw ``n`` independent channel samples as a ChannelBatch.

    Entries of the estimates are i.i.d. CN(0, 1 - sigma_sq), entries of the
    errors i.i.d. CN(0, sigma_sq), all four vectors mutually independent.

    Given a sequence of configs instead, the normals are drawn here once,
    and an iterator yields one ChannelBatch per config, all sharing them.
    Each equals this function's batch for that config alone from the same
    ``rng``.
    """
    # Fixed draw layout: 16 reals per sample, estimates first.
    z = rng.standard_normal((n, 16))
    normals = Normals(z[:, 0:4] + 1j * z[:, 4:8], z[:, 8:12] + 1j * z[:, 12:16])
    if isinstance(cfg, CsitConfig):
        return ChannelBatch(normals, cfg)
    return (ChannelBatch(normals, c) for c in cfg)
