"""Fading and CSIT model of the two-user MISO broadcast channel.

The transmitter has two antennas and serves two single-antenna users over an
i.i.d. Rayleigh-fading channel.  At every slot it holds an imperfect estimate
of the current channel vectors: the true vectors decompose as
``h = h_hat + h_tilde`` and ``g = g_hat + g_tilde``, where estimates and
errors are independent circularly-symmetric complex Gaussians with per-entry
variances ``1 - sigma_sq`` and ``sigma_sq``.  Estimation quality is tracked
through the exponent ``alpha`` defined by ``sigma_sq = snr_p ** -alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
class ChannelBatch:
    """Vectorized collection of channel samples drawn at config ``csit``;
    all arrays are (n, 2)."""

    h: np.ndarray
    g: np.ndarray
    h_hat: np.ndarray
    g_hat: np.ndarray
    h_tilde: np.ndarray
    g_tilde: np.ndarray
    csit: CsitConfig

    @property
    def n(self):
        return self.h.shape[0]


def _draw(rng, n):
    # Fixed draw layout: 16 reals per sample, estimates first; unit-variance
    # complex entries, scaled per config.
    z = rng.standard_normal((n, 16))
    return z[:, 0:4] + 1j * z[:, 4:8], z[:, 8:12] + 1j * z[:, 12:16]


def sample_batch(rng, cfg, n):
    """Draw ``n`` independent channel samples as a ChannelBatch.

    Entries of the estimates are i.i.d. CN(0, 1 - sigma_sq), entries of the
    errors i.i.d. CN(0, sigma_sq), all four vectors mutually independent.

    Given a sequence of configs instead, the normals are drawn here once,
    and an iterator yields one ChannelBatch per config, each scaled only
    when asked for.  Each equals this function's batch for that config
    alone from the same ``rng``; release it before asking for the next.
    """
    single = isinstance(cfg, CsitConfig)
    est0, err0 = _draw(rng, n)
    batches = _scaled_batches(est0, err0, [cfg] if single else list(cfg))
    return next(batches) if single else batches


def _scaled_batches(est0, err0, cfgs):
    for i, cfg in enumerate(cfgs):
        last = i + 1 == len(cfgs)
        s2 = cfg.sigma_sq
        est_scale = math.sqrt(max(1.0 - s2, 0.0) / 2.0)
        err_scale = math.sqrt(s2 / 2.0)
        if last:  # no later config needs the unscaled arrays: scale them in place
            est, err = est0, err0
            est *= est_scale
            err *= err_scale
        else:
            est, err = est0 * est_scale, err0 * err_scale
        h_hat, g_hat = est[:, 0:2], est[:, 2:4]
        h_tilde, g_tilde = err[:, 0:2], err[:, 2:4]
        yield ChannelBatch(
            h=h_hat + h_tilde, g=g_hat + g_tilde,
            h_hat=h_hat, g_hat=g_hat,
            h_tilde=h_tilde, g_tilde=g_tilde, csit=cfg,
        )
        # hold nothing of this batch while the next one is built
        del est, err, h_hat, g_hat, h_tilde, g_tilde
