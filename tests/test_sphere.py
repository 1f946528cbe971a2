"""Unit-sphere maps and the geodesic-barycenter solver."""

from __future__ import annotations

import numpy as np
import pytest

from geomerge.errors import AntipodalError, NonFiniteError
from geomerge.sphere import ANTIPODAL_EPS, KarcherConfig, karcher_mean, slerp
from oracles import (
    frechet_objective,
    geodesic_distance,
    grid_frechet_minimizer,
    hemisphere_points,
    karcher_direct,
    normalize_to_sphere,
    sphere_exp,
    sphere_grid,
    sphere_log,
)

E1, E2, E3 = np.eye(3)


def _random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


class TestNormalize:
    def test_three_four_five(self):
        unit, norm = normalize_to_sphere(np.array([3.0, 4.0]))
        np.testing.assert_allclose(unit, [0.6, 0.8], atol=1e-15)
        assert norm == 5.0

    def test_zero_vector_is_degenerate(self):
        assert normalize_to_sphere(np.zeros(3)) is None

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            normalize_to_sphere(np.array([1.0, np.nan]))

    def test_roundtrip_recovers_input(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(1, 64))
            v = rng.standard_normal(d) * float(rng.uniform(0.1, 100))
            unit, norm = normalize_to_sphere(v)
            np.testing.assert_allclose(unit * norm, v, rtol=1e-6)
            assert abs(np.linalg.norm(unit) - 1.0) < 1e-12


class TestLogExp:
    def test_log_of_itself_is_zero(self):
        np.testing.assert_array_equal(sphere_log(E1, E1), np.zeros(3))

    def test_log_to_orthogonal_point(self):
        np.testing.assert_allclose(sphere_log(E1, E2), (np.pi / 2) * E2, atol=1e-15)

    def test_log_antipodal_raises(self):
        with pytest.raises(AntipodalError):
            sphere_log(E1, -E1)

    def test_exp_of_zero_is_base(self):
        np.testing.assert_array_equal(sphere_exp(E1, np.zeros(3)), E1)

    def test_exp_quarter_circle(self):
        np.testing.assert_allclose(sphere_exp(E1, (np.pi / 2) * E2), E2, atol=1e-12)

    def test_exp_rejects_non_tangent(self):
        with pytest.raises(ValueError, match="tangent"):
            sphere_exp(E1, np.array([1.0, 1.0, 0.0]))

    def test_inverse_pair(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(2, 40))
            p = _random_unit(rng, d)
            q = _random_unit(rng, d)
            if np.dot(p, q) <= -1 + 1e-6:
                continue
            np.testing.assert_allclose(sphere_exp(p, sphere_log(p, q)), q, atol=1e-9)

    def test_log_is_tangent_and_has_geodesic_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            d = int(rng.integers(2, 40))
            p, q = _random_unit(rng, d), _random_unit(rng, d)
            if np.dot(p, q) <= -1 + 1e-6:
                continue
            t = sphere_log(p, q)
            tn = np.linalg.norm(t)
            assert abs(np.dot(p, t)) <= 1e-6 * max(tn, 1e-300)
            assert abs(tn - geodesic_distance(p, q)) < 1e-12

    def test_exp_output_is_unit(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 40))
            p = _random_unit(rng, d)
            raw = rng.standard_normal(d)
            tangent = raw - np.dot(raw, p) * p
            assert abs(np.linalg.norm(sphere_exp(p, tangent)) - 1.0) < 1e-12


class TestDistance:
    def test_fixed_values(self):
        assert geodesic_distance(E1, E1) == 0.0
        assert abs(geodesic_distance(E1, E2) - np.pi / 2) < 1e-15
        assert abs(geodesic_distance(E1, -E1) - np.pi) < 1e-15

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            d = int(rng.integers(2, 30))
            a, b, c = (_random_unit(rng, d) for _ in range(3))
            assert geodesic_distance(a, b) == geodesic_distance(b, a)
            assert geodesic_distance(a, c) <= (
                geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-12
            )


class TestSlerp:
    def test_endpoints(self):
        p, q = _random_unit(np.random.default_rng(15), 8), None
        q = _random_unit(np.random.default_rng(16), 8)
        np.testing.assert_array_equal(slerp(p, q, 0.0), p)
        np.testing.assert_array_equal(slerp(p, q, 1.0), q)

    def test_orthogonal_midpoint(self):
        mid = slerp(E1, E2, 0.5)
        np.testing.assert_allclose(mid, [np.sqrt(2) / 2, np.sqrt(2) / 2, 0.0], atol=1e-15)

    def test_antipodal_raises(self):
        with pytest.raises(AntipodalError):
            slerp(E1, -E1, 0.5)

    def test_near_identical_falls_back_to_nlerp(self):
        p = E1
        q = E1 + 1e-15 * E2
        q = q / np.linalg.norm(q)
        out = slerp(p, q, 0.3)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_midpoint_matches_two_point_barycenter(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(2, 30))
            p, q = _random_unit(rng, d), _random_unit(rng, d)
            if np.dot(p, q) <= -1 + 1e-3:
                continue
            mid = slerp(p, q, 0.5)
            mean = karcher_mean([p, q], np.array([0.5, 0.5])).mean
            np.testing.assert_allclose(mean, mid, atol=1e-6)


class TestFrechetObjective:
    def test_zero_at_coincident_points(self):
        pts = [E1, E1, E1]
        assert frechet_objective(E1, pts, np.ones(3)) == 0.0

    def test_single_orthogonal_point(self):
        val = frechet_objective(E1, [E2], np.array([1.0]))
        assert abs(val - (np.pi / 2) ** 2) < 1e-12

    def test_weights_normalized_by_op(self):
        v1 = frechet_objective(E1, [E2, E3], np.array([1.0, 1.0]))
        v2 = frechet_objective(E1, [E2, E3], np.array([10.0, 10.0]))
        assert abs(v1 - v2) < 1e-15

    def test_empty_points_and_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            frechet_objective(E1, np.empty((0, 3)), np.array([]))
        with pytest.raises(ValueError):
            frechet_objective(E1, [E2], np.array([0.0]))

    def test_mean_beats_every_input_point(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            pts = hemisphere_points(rng, m, 4)
            w = rng.uniform(0.1, 1.0, size=m)
            res = karcher_mean(pts, w)
            assert res.converged
            best = frechet_objective(res.mean, pts, w)
            for point in pts:
                assert best <= frechet_objective(point, pts, w) + 1e-12


class TestKarcherMean:
    def test_single_point_zero_iterations(self):
        res = karcher_mean([E2], np.array([3.0]))
        np.testing.assert_array_equal(res.mean, E2)
        assert res.iterations == 0
        assert res.residual == 0.0
        assert res.converged

    def test_symmetric_basis_points_give_diagonal(self):
        res = karcher_mean(np.eye(3), np.ones(3))
        np.testing.assert_allclose(res.mean, np.ones(3) / np.sqrt(3), atol=1e-12)
        assert res.converged

    def test_stationarity_on_converged_results(self):
        rng = np.random.default_rng(19)
        cfg = KarcherConfig()
        for _ in range(100):
            m = int(rng.integers(2, 12))
            d = int(rng.integers(2, 24))
            pts = hemisphere_points(rng, m, d)
            w = rng.uniform(0.05, 1.0, size=m)
            res = karcher_mean(pts, w, cfg)
            assert res.converged
            assert res.residual < cfg.tol
            # recompute the first-order condition directly from the result
            logs = np.array([sphere_log(res.mean, p) for p in pts])
            wn = w / w.sum()
            assert np.linalg.norm(wn @ logs) < cfg.tol

    def test_matches_dense_grid_search_in_3d(self):
        rng = np.random.default_rng(20)
        grid = sphere_grid(1.0)
        for _ in range(5):
            m = int(rng.integers(3, 6))
            pts = hemisphere_points(rng, m, 3)
            w = rng.uniform(0.1, 1.0, size=m)
            res = karcher_mean(pts, w)
            assert res.converged
            grid_best, grid_obj = grid_frechet_minimizer(grid, pts, w)
            assert geodesic_distance(grid_best, res.mean) < np.deg2rad(2.0)
            fixed_obj = frechet_objective(res.mean, pts, w)
            assert fixed_obj <= grid_obj + 2 * np.pi * np.deg2rad(1.0)

    def test_two_point_reduction_equals_slerp(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(2, 20))
            p, q = _random_unit(rng, d), _random_unit(rng, d)
            if np.dot(p, q) <= -1 + 1e-3:
                continue
            res = karcher_mean([p, q], np.array([1.0, 1.0]))
            np.testing.assert_allclose(res.mean, slerp(p, q, 0.5), atol=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        pts = hemisphere_points(rng, 6, 10)
        w = rng.uniform(0.1, 1.0, size=6)
        base = karcher_mean(pts, w).mean
        for _ in range(5):
            perm = rng.permutation(6)
            permuted = karcher_mean(pts[perm], w[perm]).mean
            np.testing.assert_allclose(permuted, base, atol=1e-12)

    def test_repeat_call_bit_stable(self):
        rng = np.random.default_rng(23)
        pts = hemisphere_points(rng, 5, 16)
        w = rng.uniform(0.1, 1.0, size=5)
        a = karcher_mean(pts, w).mean
        b = karcher_mean(pts, w).mean
        np.testing.assert_array_equal(a, b)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(24)
        pts = hemisphere_points(rng, 4, 8)
        w = rng.uniform(0.1, 1.0, size=4)
        a = karcher_mean(pts, w).mean
        b = karcher_mean(pts, 17.5 * w).mean
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_descent_from_chord_initialization(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            pts = hemisphere_points(rng, m, 5)
            w = rng.uniform(0.1, 1.0, size=m)
            wn = w / w.sum()
            chord = wn @ pts
            init = chord / np.linalg.norm(chord)
            res = karcher_mean(pts, w)
            assert res.converged
            assert frechet_objective(res.mean, pts, w) <= frechet_objective(init, pts, w) + 1e-12

    def test_non_convergence_flagged_not_raised(self):
        rng = np.random.default_rng(26)
        pts = hemisphere_points(rng, 5, 6)
        w = np.ones(5)
        res = karcher_mean(pts, w, KarcherConfig(tol=1e-300, max_iter=3))
        assert not res.converged
        assert res.iterations == 3
        assert res.residual >= 1e-300

    def test_antipodal_point_reported_with_iteration(self):
        with pytest.raises(AntipodalError, match="iteration"):
            karcher_mean([E1, -E1], np.array([0.9, 0.1]))

    def test_rejects_zero_norm_point(self):
        with pytest.raises(ValueError, match="zero norm"):
            karcher_mean([E1, np.zeros(3)], np.ones(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            karcher_mean([E1, np.ones(4) / 2.0], np.ones(2))


def _near_parallel(rng, m, d, angle):
    """m unit vectors at ``angle`` from one center, so pairwise angles are about angle."""
    center = _random_unit(rng, d)
    pts = np.empty((m, d))
    for i in range(m):
        t = rng.standard_normal(d)
        t -= np.dot(t, center) * center
        pts[i] = np.cos(angle) * center + np.sin(angle) * (t / np.linalg.norm(t))
    return pts


def _accurate_tangent_mean_norm(x, pts, w):
    """Weighted tangent-mean norm with angles from atan2, accurate at tiny angles."""
    total = np.zeros_like(x)
    for w_i, u in zip(w / w.sum(), pts):
        residual = u - np.dot(u, x) * x
        r = np.linalg.norm(residual)
        if r > 0.0:
            total += w_i * (np.arctan2(r, np.dot(u, x)) / r) * residual
    return float(np.linalg.norm(total))


class TestKarcherDifferential:
    """The Gram-coefficient solver against the n-space iteration in ``oracles``."""

    @staticmethod
    def _assert_agree(pts, w, cfg):
        res = karcher_mean(pts, w, cfg)
        mean, iterations, _, converged = karcher_direct(pts, w, tol=cfg.tol, max_iter=cfg.max_iter)
        assert np.max(np.abs(res.mean - mean)) <= 1e-12
        assert res.iterations == iterations
        assert res.converged == converged

    @pytest.mark.parametrize("m", range(2, 12))
    def test_well_spread(self, m):
        rng = np.random.default_rng(300 + m)
        for tol in (1e-6, 1e-10):
            for _ in range(10):
                pts = hemisphere_points(rng, m, 48)
                w = rng.uniform(1e-3, 1.0, size=m)
                self._assert_agree(pts, w, KarcherConfig(tol=tol))

    @pytest.mark.parametrize("angle", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_nearly_parallel(self, angle):
        rng = np.random.default_rng(int(-np.log10(angle)))
        for m in range(2, 12):
            pts = _near_parallel(rng, m, 48, angle)
            w = rng.uniform(1e-3, 1.0, size=m)
            self._assert_agree(pts, w, KarcherConfig())

    @pytest.mark.parametrize("m", range(2, 12))
    def test_exact_duplicates_singular_gram(self, m):
        rng = np.random.default_rng(400 + m)
        for _ in range(10):
            distinct = hemisphere_points(rng, max(1, m // 2), 48)
            pts = distinct[rng.integers(0, len(distinct), size=m)]
            w = rng.uniform(1e-3, 1.0, size=m)
            self._assert_agree(pts, w, KarcherConfig(tol=1e-10))

    def test_nearly_parallel_converges_at_tight_tol(self):
        # arccos loses half the digits of tiny angles; theta/sin(theta) does not care
        rng = np.random.default_rng(31)
        for angle in (1e-4, 1e-6, 1e-8, 1e-9):
            for m in (3, 7, 11):
                pts = _near_parallel(rng, m, 48, angle)
                w = rng.uniform(1e-3, 1.0, size=m)
                res = karcher_mean(pts, w, KarcherConfig(tol=1e-12))
                assert res.converged
                assert _accurate_tangent_mean_norm(res.mean, pts, w) < 1e-12


class TestKarcherConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": 1.5},
            {"tol": 0.0},
            {"max_iter": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KarcherConfig(**kwargs)

    def test_defaults(self):
        cfg = KarcherConfig()
        assert cfg.eta == 1.0
        assert cfg.tol == 1e-6
        assert cfg.max_iter == 50
        assert ANTIPODAL_EPS == 1e-8
