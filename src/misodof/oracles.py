"""Independent numerical verification of the analytic ingredients.

A quadrature evaluation of the uniform-phase log identity, the exact
exponential-log constant, and exact one-dimensional-integral checks of the
slack-free conditional log bounds used by the converse analysis.  Everything
here is decoupled from the rate-evaluation path so it can serve as an oracle.
The one Monte Carlo check, ``exp_log_mean_monte_carlo``, reads the channel
sampler's canonical frame itself: divided by their variances, the error
entries and g_hat's entries are Exp(1) samples and ||h_hat||^2 is Gamma(2),
so its mean tests the batch's scales a and b and the norm law against the
exact constant.  The bound check reads its estimates from it too.

The rotation identity's batched midpoint rule takes arrays of pairs, refines
only the pairs not yet converged and returns an array, NaN where a pair ran
out of panels.  Its working set is bounded by ``_CHUNK`` values per
temporary array, whatever the panel budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import mc
from .channel import CsitConfig, sample_batch
from .mc import block_rng  # by name: tracers count mc.block_rng as mc blocks

# Nodes per summed chunk of a quadrature level, and values per integrand
# call: 0.5 MiB per temporary array.  The package keeps freed heap memory
# (see ``mc``), and the Monte Carlo workers forked after the quadrature map
# the caller's heap as well, so larger quadrature temporaries would stay
# resident for the rest of a run.
_CHUNK = 1 << 16
_START_PANELS = 64
_MAX_PANELS = 1 << 24  # panel budget of the rotation quadrature
_TOLERANCE = 1e-6      # its target absolute error

# Block key of the bound check's one draw: past every mc-engine block's key.
_BATCH_KEY_OFFSET = 1 << 32

# The exp-log check's channel config: both per-entry variances, 1 - sigma^2
# and sigma^2, lie well inside (0, 1), so a mis-scaled estimate and a
# mis-scaled error both shift its mean.  P does not enter the draw.
_EXP_LOG_CSIT = CsitConfig.from_sigma_sq(100.0, 0.25)
_ENTRIES_PER_DRAW = 8
_LOG2_E = 1.0 / math.log(2.0)

# Trapezoid step in u and bound on each cut tail of mean_log2_quadratic.
_STEP = 0.1
_TAIL = 1e-15


def _midpoint_dyadic(fn, n_rows):
    """Midpoint rule on (0, 1) for ``n_rows`` integrands at once.

    ``fn(t, rows)`` returns the integrands of the selected rows at the nodes
    ``t``, shape (len(rows), len(t)).  Each row doubles its panels until two
    successive levels agree within half the tolerance; only the rows still
    refining are evaluated at the next level.  Midpoints never touch the
    interval endpoints, so integrable endpoint/interior log singularities are
    safe.  Returns the (n_rows,) integrals, NaN where a row ran out of panels.

    A level is summed in chunks of ``_CHUNK`` nodes, each chunk of a row with
    its own pairwise sum, so a row's value does not depend on which rows it
    is batched with.  Rows are batched so that one call holds at most
    ``_CHUNK`` values: 0.5 MiB per temporary array.
    """
    out = np.full(n_rows, np.nan)
    active = np.arange(n_rows)
    prev = None
    n = _START_PANELS
    while n <= _MAX_PANELS and active.size:
        totals = np.zeros(active.size)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            t = (np.arange(lo, hi, dtype=float) + 0.5) / n
            step = max(1, _CHUNK // (hi - lo))
            for r in range(0, active.size, step):
                totals[r:r + step] += np.sum(fn(t, active[r:r + step]), axis=1)
        val = totals / n
        if prev is not None:
            done = np.abs(val - prev) <= 0.5 * _TOLERANCE
            out[active[done]] = val[done]
            active, val = active[~done], val[~done]
        prev = val
        n <<= 1
    return out


def rotation_mean_log_closed_form(a_mag, b_mag):
    """Mean over a uniform phase of log2 |b + a e^{j theta}|^2, closed form.

    The average equals log2 max(a^2, b^2).
    """
    a, b = float(a_mag), float(b_mag)
    if a < 0.0 or b < 0.0:
        raise ValueError("magnitudes must be nonnegative")
    if a == 0.0 and b == 0.0:
        raise ValueError("log of zero: a and b cannot both vanish")
    return 2.0 * math.log2(max(a, b))


def rotation_mean_log_quadrature(a_mag, b_mag):
    """Same mean evaluated by direct quadrature of the phase integral.

    ``a_mag`` and ``b_mag`` are arrays (or scalars) that broadcast together;
    the result is an array of that shape with one value per pair, NaN where
    that pair's panel budget ran out.  A pair's value does not depend on the
    pairs it is batched with.

    The integrand has an integrable log singularity when a == b; midpoint
    panels (even counts) never hit it exactly.
    """
    a, b = np.broadcast_arrays(np.asarray(a_mag, dtype=float), np.asarray(b_mag, dtype=float))
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("magnitudes must be nonnegative")
    if np.any((a == 0.0) & (b == 0.0)):
        raise ValueError("log of zero: a and b cannot both vanish")
    c = (a * a + b * b).ravel()
    d = (2.0 * a * b).ravel()

    def fn(t, rows):
        arg = c[rows, None] + d[rows, None] * np.cos(2.0 * math.pi * t)
        return np.log2(np.maximum(arg, 1e-300))

    return _midpoint_dyadic(fn, c.size).reshape(a.shape)


def exp_log_mean():
    """E[log2 X] for a unit-mean exponential X: exactly -EulerGamma / ln 2."""
    return -np.euler_gamma / math.log(2.0)


def _exp_log_integrand(batch):
    # each draw's mean of log2 |x|^2 / Var x over its eight exponential
    # samples; h_hat's two enter through their Gamma(2) sum
    normals, s2 = batch.normals, batch.csit.sigma_sq
    x_h, x_g = batch.a * normals.norm  # |h_hat| and |g_hat|
    total = 2.0 * (np.log2(np.square(x_h) / (1.0 - s2)) - _LOG2_E)
    err = np.square(np.multiply(normals.n, batch.b))
    err = (err[0] + err[1]) / s2  # rows h_1, h_2, g_1, g_2
    for sq in (np.square(x_g * np.stack((normals.r, normals.s))) / (1.0 - s2),
               err[0:2], err[2:4]):
        np.log2(sq, out=sq)
        total += sq[0] + sq[1]
    return total / _ENTRIES_PER_DRAW


def exp_log_mean_monte_carlo(mc_cfg):
    """E[log2 X], X ~ Exp(1), by Monte Carlo over the channel sampler.

    ``mc_cfg.n_samples`` counts exponential samples, and each channel draw
    gives eight, scaled by their variances (1 - sigma^2 for the estimates,
    sigma^2 for the errors).  Six are Exp(1) entries: the four of h_tilde and
    g_tilde, and g_hat's two, each a Uniform share of a Gamma(2) norm^2.  The
    other two are h_hat's: the sampler puts h_hat along the first axis, so
    they enter as ||h_hat||^2 / (1 - sigma^2), which is Gamma(2) with E log2
    = gamma + log2(e), as 2 (log2 ||h_hat||^2 / (1 - sigma^2) - log2(e)).
    It reads the frame: ||h_hat|| = a |e_h|, g_hat = a |e_g| (r, -s), errors b n.
    One ``mc.estimate`` call runs ceil(n_samples / 8) draws, and at least 64,
    where a 5-SE check fails with P(|t_63| > 5) ~ 5e-6; its integrand is each
    draw's mean of the eight log2 values, so the one-column McEstimate's
    standard error is that of the grand mean.  A sampler whose estimate or
    error scaling, or norm law, is off moves the mean from the exact
    ``exp_log_mean()``.
    """
    draws = max(64, -(-mc_cfg.n_samples // _ENTRIES_PER_DRAW))
    return mc.estimate(_exp_log_integrand, replace(mc_cfg, n_samples=draws), [_EXP_LOG_CSIT])[0]


def mean_log2_quadratic(weights, mean_sq, sigma_sq):
    """E log2(1 + sum_i w_i |x_i|^2) for independent x_i ~ CN(mu_i, sigma_sq).

    ``mean_sq`` holds |mu_i|^2 in any shape that broadcasts against
    ``weights`` (k,), such as (..., k) or a scalar shared by every i.
    Exact (Hamdi's lemma): E ln(1 + Q) = int e^{-s} (1 - E e^{-sQ}) du with
    s = e^u, and log E e^{-sQ} = -sum_i [log1p(s w_i sigma^2)
    + s w_i |mu_i|^2 / (1 + s w_i sigma^2)].  The integrand is analytic for
    |Im u| < pi/2, so the trapezoid rule in u converges spectrally; the grid
    stops where the tails, at most E Q e^u and e^{-e^u} e^{-u}, drop below
    ``_TAIL``.
    """
    w = np.asarray(weights, dtype=float)
    mean_sq = np.broadcast_to(mean_sq, np.broadcast_shapes(np.shape(mean_sq), w.shape))
    lo = math.log(_TAIL / float(np.max((mean_sq + sigma_sq) @ w)))
    hi = math.log(-math.log(_TAIL))
    # not np.arange(lo, hi, _STEP): its rounded node spacing biases the sum ~1e-13
    u = lo + _STEP * np.arange(math.ceil((hi - lo) / _STEP))
    s = np.exp(u)
    sw = s[:, None] * w
    sw2 = sw * sigma_sq
    log_mgf = -np.sum(np.log1p(sw2) + sw * mean_sq[..., None, :] / (1.0 + sw2), axis=-1)
    return _STEP * np.sum(np.exp(-s) * -np.expm1(log_mgf), axis=-1) / math.log(2.0)


@dataclass(frozen=True)
class BoundsCheckReport:
    """Per-batch margins of the two conditional log bounds.

    ``upper_margins`` holds ``rhs - lhs`` of the Jensen upper bound on
    E[log2(1 + lambda1 ||h||^2) | h_hat]; any negative entry is a build
    error, not a statistical event.  ``lower_margins`` holds ``lhs - rhs``
    of the rotation-based lower bound on E[log2(1 + g^H K g) | g_hat].
    """

    upper_margins: np.ndarray
    lower_margins: np.ndarray

    @property
    def passed(self):
        return bool(np.all(self.upper_margins >= 0.0) and np.all(self.lower_margins >= 0.0))


def conditional_log_bounds_check(k_eigs, cfg, mc_cfg, n_batches=100, *, gamma):
    """Exact check of the slack-free conditional-expectation bounds.

    For a PSD matrix with eigenvalues ``k_eigs = (lambda1, lambda2)``,
    verifies per estimate-conditioned batch that
    (i)  E[log2(1 + l1 ||h||^2) | h_hat] <= log2(1 + l1 ||h_hat||^2 + 2 sigma^2 l1),
    (ii) E[log2(1 + g^H K g) | g_hat] >= max(log2(2^gamma sigma^2 l1), 0),
    where ``gamma`` is the exponential-log constant E[log2 X], X ~ Exp(1),
    as the caller gives it (``exp_log_mean()``, or a shifted value to test
    the check).
    Batch b's estimates are row b of one ``sample_batch`` draw keyed by the
    seed alone; both sides are exact, so the margins carry no noise.
    """
    lam1, lam2 = float(k_eigs[0]), float(k_eigs[1])
    if not lam1 >= lam2 >= 0.0 or lam1 <= 0.0:
        raise ValueError("eigenvalues must satisfy lambda1 >= lambda2 >= 0 with lambda1 > 0")
    s2 = cfg.sigma_sq
    rhs_lower = max(gamma + math.log2(s2 * lam1), 0.0)

    [batch] = sample_batch(block_rng(mc_cfg.seed, _BATCH_KEY_OFFSET), [cfg], n_batches)
    x_h, x_g = batch.a * batch.normals.norm  # h_hat = x_h (1, 0), g_hat = x_g (r, -s)
    h_hat_sq = np.square(np.stack((x_h, np.zeros_like(x_h)), axis=-1))
    g_hat_sq = np.square(np.stack((x_g * batch.normals.r, x_g * batch.normals.s), axis=-1))
    upper = (np.log2(1.0 + lam1 * np.sum(h_hat_sq, axis=1) + 2.0 * s2 * lam1)
             - mean_log2_quadratic((lam1, lam1), h_hat_sq, s2))
    lower = mean_log2_quadratic((lam1, lam2), g_hat_sq, s2) - rhs_lower
    return BoundsCheckReport(upper_margins=upper, lower_margins=lower)
