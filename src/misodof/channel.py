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

LIGHT_SPEED_MPS = 3.0e8

# Estimates with norm below this are considered degenerate and redrawn.
_DEGENERATE_NORM = 1e-12
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class CsitConfig:
    """Transmit power and current-CSIT quality parameters.

    ``sigma_hat_sq`` is the error variance floored at the noise-limited
    level ``1/snr_p`` and ``alpha_hat`` its exponent; power allocations use
    the floored pair so they stay meaningful when the raw error variance
    drops below the AWGN floor.
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
class DopplerParams:
    """Band-limited Doppler fading parameters.

    The normalized one-sided Doppler bandwidth is
    ``F = speed_mps * carrier_hz * slot_sec / light_mps`` and must stay
    below 1/2 for channel prediction to be useful.
    """

    speed_mps: float
    carrier_hz: float
    slot_sec: float
    light_mps: float = LIGHT_SPEED_MPS

    def __post_init__(self):
        if self.speed_mps < 0 or self.carrier_hz <= 0 or self.slot_sec <= 0 or self.light_mps <= 0:
            raise ValueError("Doppler parameters must be positive (speed may be zero)")
        if not self.normalized_bandwidth < 0.5:
            raise ValueError(
                f"normalized Doppler bandwidth F = {self.normalized_bandwidth} >= 1/2; "
                "prediction-based CSIT is useless"
            )

    @property
    def normalized_bandwidth(self):
        return self.speed_mps * self.carrier_hz * self.slot_sec / self.light_mps


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


def _degenerate(est):
    # Rows where h_hat or g_hat has norm below _DEGENERATE_NORM.
    sq = est.real ** 2 + est.imag ** 2
    return ((sq[:, 0] + sq[:, 1] < _DEGENERATE_NORM ** 2)
            | (sq[:, 2] + sq[:, 3] < _DEGENERATE_NORM ** 2))


def sample_batch(rng, cfg, n):
    """Draw ``n`` independent channel samples as a ChannelBatch.

    Entries of the estimates are i.i.d. CN(0, 1 - sigma_sq), entries of the
    errors i.i.d. CN(0, sigma_sq), all four vectors mutually independent.
    Samples with a degenerate estimate direction (norm below 1e-12) are
    redrawn, except in the no-CSIT regime sigma_sq == 1 where the estimates
    are deterministically zero.

    Given a sequence of configs instead, the normals are drawn here once,
    and an iterator yields one ChannelBatch per config, each scaled only
    when asked for.  Each equals this function's batch for that config
    alone from the same ``rng``; release it before asking for the next.
    """
    single = isinstance(cfg, CsitConfig)
    est0, err0 = _draw(rng, n)
    batches = _scaled_batches(rng, est0, err0, [cfg] if single else list(cfg))
    return next(batches) if single else batches


def _scaled_batches(rng, est0, err0, cfgs):
    after_draw = None
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
        if s2 < 1.0 and _degenerate(est).any():
            # Redraw as this config alone would: from the generator state the
            # shared draw left, which the first config to redraw saves for
            # the later ones.
            if after_draw is not None:
                rng.bit_generator.state = after_draw
            elif not last:
                after_draw = rng.bit_generator.state
            _redraw(rng, est, err, est_scale, err_scale)
        h_hat, g_hat = est[:, 0:2], est[:, 2:4]
        h_tilde, g_tilde = err[:, 0:2], err[:, 2:4]
        yield ChannelBatch(
            h=h_hat + h_tilde, g=g_hat + g_tilde,
            h_hat=h_hat, g_hat=g_hat,
            h_tilde=h_tilde, g_tilde=g_tilde, csit=cfg,
        )
        # hold nothing of this batch while the next one is built
        del est, err, h_hat, g_hat, h_tilde, g_tilde


def _redraw(rng, est, err, est_scale, err_scale):
    # Replace the degenerate rows of ``est`` (and their errors) in place.
    for _ in range(_MAX_REDRAWS):
        bad = _degenerate(est)
        if not bad.any():
            return
        est_new, err_new = _draw(rng, int(bad.sum()))
        est[bad] = est_new * est_scale
        err[bad] = err_new * err_scale
    raise RuntimeError(
        "degenerate channel estimates persisted through "
        f"{_MAX_REDRAWS} redraws; generator is broken"
    )


def alpha_from_doppler(params):
    """Current-CSIT quality exponent of a band-limited Doppler channel.

    With noise-free feedback of the channel observations, one-step
    prediction leaves an error decaying as P**-(1 - 2F), so
    alpha = 1 - 2F.
    """
    f = params.normalized_bandwidth
    if f >= 0.5:
        raise ValueError(f"normalized Doppler bandwidth F = {f} >= 1/2")
    return 1.0 - 2.0 * f
