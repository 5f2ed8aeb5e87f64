import numpy as np
import pytest

from misodof.regions import (
    DelayedCsitQuality,
    Scheme,
    dof_imperfect_delayed,
    dof_scheme,
    region_common_message,
    region_imperfect_delayed,
    region_main,
)

ALPHAS = [round(0.1 * k, 10) for k in range(11)]


def _analytic_main_vertices(alpha):
    s = (2.0 + alpha) / 3.0
    raw = [(0.0, 0.0), (1.0, 0.0), (1.0, alpha), (s, s), (alpha, 1.0), (0.0, 1.0)]
    kept = []
    for p in raw:
        if not any(max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= 1e-12 for q in kept):
            kept.append(p)
    return kept


class TestMainRegion:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_vertices_match_analytic_set(self, alpha):
        region = region_main(alpha)
        expected = np.array(_analytic_main_vertices(alpha))
        assert region.vertices.shape == expected.shape
        assert np.max(np.abs(region.vertices - expected)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7, 1.0])
    def test_membership_matches_direct_inequalities(self, alpha):
        region = region_main(alpha)
        rng = np.random.default_rng(11)
        points = rng.uniform(-0.2, 1.2, size=(1000, 2))
        for p in points:
            direct = (
                p[0] <= 1 + 1e-9 and p[1] <= 1 + 1e-9
                and p[0] + 2 * p[1] <= 2 + alpha + 1e-9
                and 2 * p[0] + p[1] <= 2 + alpha + 1e-9
                and p[0] >= -1e-9 and p[1] >= -1e-9
            )
            assert region.contains(p) == direct

    def test_symmetry_under_user_swap(self):
        region = region_main(0.4)
        rng = np.random.default_rng(12)
        for p in rng.uniform(0, 1.1, size=(200, 2)):
            assert region.contains(p) == region.contains(p[::-1])

    def test_monotone_in_alpha(self):
        grid = np.linspace(0, 1, 21)
        rng = np.random.default_rng(13)
        points = rng.uniform(0, 1.05, size=(300, 2))
        for a_lo, a_hi in zip(grid[:-1], grid[1:]):
            lo, hi = region_main(a_lo), region_main(a_hi)
            for p in points:
                if lo.contains(p):
                    assert hi.contains(p)

    def test_known_points(self):
        region = region_main(0.5)
        assert region.contains((5.0 / 6.0, 5.0 / 6.0))
        assert not region.contains((5.0 / 6.0 + 1e-3, 5.0 / 6.0))
        assert not region_main(0.0).contains((0.7, 0.7))

    def test_sum_dof_maximized_at_symmetric_vertex(self):
        for alpha in ALPHAS:
            region = region_main(alpha)
            sums = region.vertices.sum(axis=1)
            assert sums.max() == pytest.approx(2.0 * (2.0 + alpha) / 3.0, abs=1e-12)

    def test_truncation_and_domain(self):
        assert np.array_equal(region_main(2.0).vertices, region_main(1.0).vertices)
        with pytest.raises(ValueError):
            region_main(-0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            region_main(0.5).contains((0.1, 0.1, 0.1))


class TestCommonMessageRegion:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_listed_vertices_feasible_and_cornered(self, alpha):
        region = region_common_message(alpha)
        s = (2.0 + alpha) / 3.0
        listed = [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (0.0, 1.0, alpha), (0.0, alpha, 1.0), (0.0, s, s),
            (1.0 - alpha, alpha, alpha),
        ]
        for v in listed:
            assert region.contains(v)
            assert region.active_constraints(v) >= 3

    def test_mixed_point_value(self):
        region = region_common_message(0.5)
        assert any(np.allclose(v, (0.5, 0.5, 0.5), atol=1e-12) for v in region.vertices)
        region = region_common_message(1.0)
        assert any(np.allclose(v, (0.0, 1.0, 1.0), atol=1e-12) for v in region.vertices)

    def test_private_face_matches_main_region(self):
        # zero common-message DoF reduces to the two-user region
        main = region_main(0.3)
        cm = region_common_message(0.3)
        rng = np.random.default_rng(14)
        for p in rng.uniform(0, 1.1, size=(300, 2)):
            assert main.contains(p) == cm.contains((0.0, p[0], p[1]))


class TestSchemeDof:
    def test_values(self):
        assert dof_scheme(Scheme.TDMA, 0.3) == 0.5
        assert dof_scheme(Scheme.ZF, 0.3) == pytest.approx(0.3)
        assert dof_scheme(Scheme.MAT, 0.9) == pytest.approx(2.0 / 3.0)
        assert dof_scheme(Scheme.RS_ZF, 0.5) == pytest.approx(0.75)
        assert dof_scheme(Scheme.PROPOSED, 0.5) == pytest.approx(5.0 / 6.0)

    def test_accepts_string_names(self):
        assert dof_scheme("proposed", 0.5) == pytest.approx(5.0 / 6.0)

    def test_proposed_equals_symmetric_vertex(self):
        for alpha in ALPHAS:
            sym = dof_scheme(Scheme.PROPOSED, alpha)
            region = region_main(alpha)
            assert any(np.allclose(v, (sym, sym), atol=1e-12) for v in region.vertices)


class TestImperfectDelayed:
    def test_reference_values(self):
        assert dof_imperfect_delayed(DelayedCsitQuality(0.5, 1.0))[0] == pytest.approx(5.0 / 6.0)
        assert dof_imperfect_delayed(DelayedCsitQuality(0.5, 0.75))[0] == pytest.approx(0.75)
        assert dof_imperfect_delayed(DelayedCsitQuality(0.5, 0.5))[0] == pytest.approx(2.0 / 3.0)

    def test_perfect_feedback_recovers_main_region(self):
        for alpha in [0.0, 0.25, 0.3, 0.5, 0.75, 1.0]:
            sym, corners = dof_imperfect_delayed(DelayedCsitQuality(alpha, 1.0))
            assert sym == pytest.approx((2.0 + alpha) / 3.0)
            assert corners == [(1.0, alpha), (alpha, 1.0)]
            hull = region_imperfect_delayed(alpha, 1.0)
            main = region_main(alpha)
            assert {tuple(v) for v in np.round(hull.vertices, 12)} == \
                {tuple(v) for v in np.round(main.vertices, 12)}

    def test_monotone_and_continuous_in_beta(self):
        alpha = 0.5
        betas = np.linspace(0.0, 1.0, 101)
        syms = [dof_imperfect_delayed(DelayedCsitQuality(alpha, b))[0] for b in betas]
        diffs = np.diff(syms)
        assert np.all(diffs >= -1e-12)
        assert np.max(np.abs(diffs)) < 0.03   # no jumps on a 0.01 grid

    def test_low_beta_corners_follow_feedback(self):
        _, corners = dof_imperfect_delayed(DelayedCsitQuality(0.8, 0.3))
        assert corners == [(1.0, 0.3), (0.3, 1.0)]

    def test_region_contains_operating_points(self):
        region = region_imperfect_delayed(0.5, 0.9)
        sym, corners = dof_imperfect_delayed(DelayedCsitQuality(0.5, 0.9))
        assert region.contains((sym, sym))
        for c in corners:
            assert region.contains(c)

    def test_bad_quality_rejected(self):
        with pytest.raises(ValueError):
            DelayedCsitQuality(0.5, -0.1)
        with pytest.raises(ValueError):
            DelayedCsitQuality(1.2, 0.5)
