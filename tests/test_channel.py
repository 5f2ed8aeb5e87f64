import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from misodof import mc
from misodof.channel import CsitConfig, _normals, sample_batch
from misodof.mc import block_rng
from misodof.rates import _power_split
from reference import E1, E2, orthogonal_complement, perp, projector, vectors


def _rng(seed=0):
    return block_rng(seed, 0)


class TestCsitConfig:
    def test_from_alpha_sets_sigma(self):
        cfg = CsitConfig.from_alpha(1e4, 0.5)
        assert cfg.sigma_sq == pytest.approx(1e-2, rel=1e-12)
        assert cfg.alpha == 0.5

    def test_from_sigma_sq_recovers_alpha(self):
        cfg = CsitConfig.from_sigma_sq(1e4, 1e-2)
        assert cfg.alpha == pytest.approx(0.5, rel=1e-12)

    def test_alpha_truncated_at_one(self):
        cfg = CsitConfig.from_sigma_sq(100.0, 100.0 ** -2)
        assert cfg.alpha == 1.0
        assert cfg.sigma_sq == pytest.approx(1e-4)
        # an error variance below the noise level gets the perfect-CSIT policy
        assert _power_split(cfg) == (100.0, 0.0, 0.0, 100.0)

    def test_no_csit_limit(self):
        cfg = CsitConfig.from_alpha(1e3, 0.0)
        assert cfg.sigma_sq == 1.0
        assert cfg.alpha == 0.0
        assert _power_split(cfg) == (500.0, 500.0, 1e3, 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_rejects_bad_sigma(self, bad):
        with pytest.raises(ValueError):
            CsitConfig.from_sigma_sq(100.0, bad)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            CsitConfig.from_alpha(100.0, -0.1)

    def test_rejects_low_power(self):
        with pytest.raises(ValueError):
            CsitConfig.from_alpha(0.5, 0.5)

    @pytest.mark.parametrize("build, snr_p, value", [
        (CsitConfig.from_alpha, 1.0, 0.5),
        (CsitConfig.from_alpha, 0.0, 0.5),
        (CsitConfig.from_alpha, -4.0, 0.5),
        (CsitConfig.from_alpha, math.nan, 0.5),
        (CsitConfig.from_alpha, math.inf, 0.5),
        (CsitConfig.from_alpha, 10.0, math.nan),
        (CsitConfig.from_sigma_sq, 1.0, 0.5),
        (CsitConfig.from_sigma_sq, 1e-13, 0.5),
        (CsitConfig.from_sigma_sq, 10.0, math.nan),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_rejects_bad_input(self, build, snr_p, value):
        # a ValueError naming the input, never a ZeroDivisionError or a
        # math-domain error from deriving the other quantities first
        with pytest.raises(ValueError, match="snr_p|sigma_sq|alpha"):
            build(snr_p, value)

    def test_derived_quantities_are_not_fields(self):
        cfg = CsitConfig.from_alpha(100.0, 1.5)
        assert [f.name for f in dataclasses.fields(cfg)] == ["snr_p", "sigma_sq", "alpha"]
        assert cfg == CsitConfig(100.0, 0.01, 1.0)


class TestSampling:
    def test_reconstruction_identity_exact(self):
        cfg = CsitConfig.from_sigma_sq(100.0, 0.25)
        [batch] = sample_batch(_rng(1), [cfg], 4096)
        v = vectors(batch)
        assert np.array_equal(v.h, v.h_hat + v.h_tilde)
        assert np.array_equal(v.g, v.g_hat + v.g_tilde)

    def test_second_moments(self):
        cfg = CsitConfig.from_sigma_sq(100.0, 0.25)
        n = 1_000_000
        [batch] = sample_batch(_rng(2), [cfg], n)
        v = vectors(batch)
        err_norm_sq = np.sum(np.abs(v.h_tilde) ** 2, axis=1)
        est_norm_sq = np.sum(np.abs(v.h_hat) ** 2, axis=1)
        for values, target in [(err_norm_sq, 0.5), (est_norm_sq, 1.5)]:
            se = values.std(ddof=1) / math.sqrt(n)
            assert abs(values.mean() - target) < 5 * se

    def test_estimate_error_uncorrelated(self):
        # In the canonical frame an estimate varies by its magnitudes only:
        # ||h_hat||^2 and g_hat's |entries|^2 against every error entry.
        cfg = CsitConfig.from_sigma_sq(100.0, 0.5)
        n = 500_000
        [batch] = sample_batch(_rng(3), [cfg], n)
        v = vectors(batch)
        bound = 5.0 / math.sqrt(n)
        estimates = [np.sum(np.abs(v.h_hat) ** 2, axis=1),
                     np.abs(v.g_hat[:, 0]) ** 2, np.abs(v.g_hat[:, 1]) ** 2]
        errors = [part(x[:, j]) for x in (v.h_tilde, v.g_tilde) for j in range(2)
                  for part in (np.real, np.imag, np.abs)]
        for est in estimates:
            for err in errors:
                assert abs(np.corrcoef(est, err)[0, 1]) < bound

    def test_deterministic_given_state(self):
        cfg = CsitConfig.from_sigma_sq(100.0, 0.25)
        [s1] = sample_batch(_rng(7), [cfg], 4)
        [s2] = sample_batch(_rng(7), [cfg], 4)
        v1, v2 = vectors(s1), vectors(s2)
        assert np.array_equal(v1.h, v2.h)
        assert np.array_equal(v1.g_tilde, v2.g_tilde)

    def test_no_csit_gives_zero_estimates(self):
        cfg = CsitConfig.from_sigma_sq(100.0, 1.0)
        [batch] = sample_batch(_rng(4), [cfg], 1000)
        v = vectors(batch)
        assert np.all(v.h_hat == 0.0)
        assert np.all(v.g_hat == 0.0)
        assert np.all(np.linalg.norm(v.h, axis=1) > 0)

    def test_error_phase_isotropic(self):
        cfg = CsitConfig.from_sigma_sq(100.0, 0.25)
        n = 1_000_000
        [batch] = sample_batch(_rng(6), [cfg], n)
        phase = np.angle(vectors(batch).h_tilde[:, 0])
        stat = stats.kstest(phase, "uniform", args=(-math.pi, 2 * math.pi)).statistic
        assert stat < 1.63 / math.sqrt(n)   # 1% critical value

    @pytest.mark.parametrize("quantity, law", [
        # |e|^2 / 2 of each estimate's two unit complex normals
        (lambda b: b.normals.norm[0] ** 2 / 2.0, stats.gamma(2).cdf),
        (lambda b: b.normals.norm[1] ** 2 / 2.0, stats.gamma(2).cdf),
        # |r|^2, the squared cosine between the two estimates
        (lambda b: b.normals.r ** 2, stats.uniform().cdf),
        # g_hat's entries over their variance: a Uniform share of a Gamma(2)
        (lambda b: np.abs(vectors(b).g_hat[:, 0]) ** 2 / (1.0 - b.csit.sigma_sq),
         stats.expon().cdf),
        (lambda b: np.abs(vectors(b).g_hat[:, 1]) ** 2 / (1.0 - b.csit.sigma_sq),
         stats.expon().cdf),
        # the other error entries' phases (test_error_phase_isotropic has h_1's)
        *[(lambda b, k=k: np.arctan2(b.normals.n[1, k], b.normals.n[0, k]),
           stats.uniform(-math.pi, 2 * math.pi).cdf) for k in range(1, 4)],
        # each error entry's |n|^2 / 2 and real part, and the four entries'
        # total, which is Gamma(4) only if no two share a radius
        *[(lambda b, k=k: (b.normals.n[0, k] ** 2 + b.normals.n[1, k] ** 2) / 2.0,
           stats.expon().cdf) for k in range(4)],
        *[(lambda b, k=k: b.normals.n[0, k], stats.norm().cdf) for k in range(4)],
        (lambda b: np.sum(b.normals.n ** 2, axis=(0, 1)) / 2.0, stats.gamma(4).cdf),
    ], ids=["norm_h", "norm_g", "r", "g_hat_1", "g_hat_2", "phase_h2", "phase_g1", "phase_g2",
            *[f"{q}_{e}" for q in ("exp", "real") for e in ("h1", "h2", "g1", "g2")],
            "errors_total"])
    def test_draw_law(self, quantity, law):
        n = 200_000
        [batch] = sample_batch(_rng(10), [CsitConfig.from_sigma_sq(100.0, 0.25)], n)
        assert stats.kstest(quantity(batch), law).statistic < 1.95 / math.sqrt(n)  # 0.1%

    def test_tangent_map_edges(self):
        # the smallest, middle and largest uniforms of Generator.random in
        # every row: finite fields, no warning, and |n|^2 = -2 ln(1 - u)
        u = np.tile([0.0, 0.5, 1.0 - 2.0 ** -53], (13, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            normals = _normals(u.copy())
        for field in dataclasses.fields(normals):
            assert np.isfinite(getattr(normals, field.name)).all(), field.name
        abs2 = normals.n[0] ** 2 + normals.n[1] ** 2
        np.testing.assert_allclose(abs2, -2.0 * np.log(1.0 - u[0:4]),
                                   rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_draw_layout(self):
        # mc's batch for (seed, block) is, bitwise, the tangent map of one
        # (13, n) array of the block's uniforms: a new uniform source swaps
        # only that array
        seen = []
        mc.estimate(lambda b: seen.append(b.normals) or b.normals.r,
                    mc.McConfig(mc.BLOCK_SIZE + 100, 5), [CsitConfig.from_alpha(100.0, 0.5)])
        assert [got.r.size for got in seen] == [mc.BLOCK_SIZE, 100]
        for block, got in enumerate(seen):
            want = _normals(block_rng(5, block).random((13, got.r.size)))
            for field in dataclasses.fields(got):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


class TestGeometry:
    # The reference projector and orthogonal complement that the kernel and
    # rate tests build their explicit covariances from.
    def test_projector_axis(self):
        psi = projector(np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(psi, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-15)

    def test_projector_known_value(self):
        x = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.allclose(projector(x), expected, atol=1e-15)

    def test_projector_kills_complement(self):
        rng = _rng(8)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        residual = projector(x) @ orthogonal_complement(x)
        assert np.max(np.abs(residual)) < 1e-12

    def test_orthogonal_complement_axis_cases(self):
        assert np.allclose(orthogonal_complement(np.array([1.0 + 0j, 0.0])), [0.0, 1.0])
        assert np.allclose(orthogonal_complement(np.array([0.0, 1.0 + 0j])), [-1.0, 0.0])
        # zero rows take the fallback, others the orthogonal complement
        x = np.array([[0.0, 0.0], [3.0, 4.0j]])
        assert np.array_equal(perp(x, E2)[0], E2)
        assert np.allclose(perp(x, E1)[1], [0.8j, 0.6])

    def test_random_identities(self):
        rng = _rng(9)
        x = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        psi = projector(x)
        herm = np.max(np.abs(psi - np.conj(np.swapaxes(psi, -1, -2))))
        idem = np.max(np.abs(psi @ psi - psi))
        trace = np.abs(psi[:, 0, 0] + psi[:, 1, 1] - 1.0).max()
        fixes = np.max(np.abs(np.einsum("nij,nj->ni", psi, x) - x))
        assert max(herm, idem, trace) < 1e-10
        assert fixes < 1e-10

        v = orthogonal_complement(x)
        ortho = np.abs(np.sum(np.conj(x) * v, axis=1)).max()
        unit = np.abs(np.linalg.norm(v, axis=1) - 1.0).max()
        assert ortho < 1e-12
        assert unit < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            projector(np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            orthogonal_complement(np.zeros(2, dtype=complex))
