"""Spectral statistics, bootstrap reports, toy forward harness, norm report."""

from __future__ import annotations

import numpy as np
import pytest

from geomerge.diagnostics import (
    ActivationMatrix,
    SpectralStats,
    bootstrap_stats,
    covariance_spectrum,
    diagnostics_report,
    effective_rank,
    mean_activation_variance,
    numerical_rank,
    participation_ratio,
    spectral_stats,
    stable_rank,
    toy_forward_collect,
    weight_norm_report,
)
from geomerge.errors import AlignmentError
from geomerge.merge_methods import merge_karcher, merge_lerp
from geomerge.tensor_io import Checkpoint, TensorRecord
from oracles import covariance_spectrum_direct


def _cov_by_hand(x: np.ndarray) -> np.ndarray:
    """Nested-loop unbiased covariance, used as an independent oracle."""
    n, d = x.shape
    mean = [sum(x[i][j] for i in range(n)) / n for j in range(d)]
    cov = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            cov[a, b] = sum(
                (x[i][a] - mean[a]) * (x[i][b] - mean[b]) for i in range(n)
            ) / (n - 1)
    return cov


def _random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class TestCovarianceSpectrum:
    def test_identical_rows_zero_spectrum(self):
        x = np.tile(np.array([1.0, -2.0, 3.0]), (5, 1))
        np.testing.assert_allclose(covariance_spectrum(x), np.zeros(3), atol=1e-12)

    def test_two_basis_rows_hand_oracle(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        expected = np.sort(np.linalg.eigvalsh(_cov_by_hand(x)))[::-1]
        np.testing.assert_allclose(covariance_spectrum(x), expected, atol=1e-12)
        # hand-derived values for this configuration: {2/3, 0}
        np.testing.assert_allclose(covariance_spectrum(x), [2.0 / 3.0, 0.0], atol=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((40, 8))
        for _ in range(10):
            q = _random_orthogonal(rng, 8)
            np.testing.assert_allclose(
                covariance_spectrum(x @ q), covariance_spectrum(x), atol=1e-9
            )

    def test_sorted_descending_nonnegative(self):
        rng = np.random.default_rng(71)
        lam = covariance_spectrum(rng.standard_normal((30, 12)))
        assert np.all(lam[:-1] >= lam[1:])
        assert np.all(lam >= 0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            covariance_spectrum(np.ones((1, 3)))


def _oracle_stats(x: np.ndarray) -> SpectralStats:
    lam = covariance_spectrum_direct(x)
    return SpectralStats(
        mean_variance=mean_activation_variance(x),
        eff_rank=effective_rank(lam),
        stable_rank=stable_rank(lam),
        participation_ratio=participation_ratio(lam),
        num_rank=numerical_rank(lam),
    )


def _assert_stats_match(got: SpectralStats, want: SpectralStats) -> None:
    assert got.num_rank == want.num_rank
    for metric in ("mean_variance", "eff_rank", "stable_rank", "participation_ratio"):
        np.testing.assert_allclose(
            getattr(got, metric), getattr(want, metric), rtol=1e-12, atol=0.0, err_msg=metric
        )


class TestSpectrumAgainstDirectOracle:
    """The smaller-Gram eigensolve against the d x d covariance in ``oracles``."""

    def _check(self, x: np.ndarray) -> None:
        n, d = x.shape
        lam = covariance_spectrum(x)
        assert lam.shape == (d,)
        assert np.all(lam[min(n, d):] == 0.0)
        if n >= d:
            np.testing.assert_array_equal(lam, covariance_spectrum_direct(x))
            assert spectral_stats(x) == _oracle_stats(x)
        else:
            _assert_stats_match(spectral_stats(x), _oracle_stats(x))

    @pytest.mark.parametrize("n,d", [(2, 7), (9, 40), (64, 300), (24, 24), (40, 9), (300, 64)])
    def test_gaussian_shapes(self, n, d):
        rng = np.random.default_rng(1000 + n * d)
        self._check(rng.standard_normal((n, d)) * np.linspace(0.2, 3.0, d))

    @pytest.mark.parametrize("n,d", [(32, 128), (128, 32)])
    def test_bootstrap_resample_with_duplicate_rows(self, n, d):
        rng = np.random.default_rng(77)
        x = np.tanh(rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) / np.sqrt(d))
        resampled = x[rng.integers(0, n, size=n)]
        assert len(np.unique(resampled, axis=0)) < n
        self._check(resampled)

    @pytest.mark.parametrize("n,d", [(12, 50), (50, 12)])
    def test_constant_columns(self, n, d):
        rng = np.random.default_rng(78)
        x = rng.standard_normal((n, d))
        x[:, ::3] = 3.0
        self._check(x)

    @pytest.mark.parametrize("n,d", [(6, 20), (20, 6)])
    def test_all_identical_rows(self, n, d):
        x = np.tile(np.arange(d, dtype=np.float64) - 2.0, (n, 1))
        self._check(x)
        assert not covariance_spectrum(x).any()


class TestMeanActivationVariance:
    def test_constant_input_zero(self):
        assert mean_activation_variance(np.ones((6, 3))) == 0.0

    def test_single_active_feature(self):
        x = np.zeros((3, 4))
        x[:, 0] = [0.0, 2.0, 4.0]  # sample variance 4
        assert abs(mean_activation_variance(x) - 1.0) < 1e-15

    def test_equals_spectrum_mean(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            x = rng.standard_normal((25, 7))
            lam = covariance_spectrum(x)
            assert abs(mean_activation_variance(x) - lam.sum() / 7) < 1e-9


class TestRankMeasures:
    def test_effective_rank_flat(self):
        assert abs(effective_rank(np.ones(4)) - 4.0) < 1e-12

    def test_effective_rank_rank_one(self):
        assert effective_rank(np.array([2.0, 0.0, 0.0])) == 1.0

    def test_effective_rank_two_equal_atoms(self):
        assert abs(effective_rank(np.array([0.5, 0.5, 0.0, 0.0])) - 2.0) < 1e-12

    def test_effective_rank_k_equal_eigenvalues(self):
        for k in (1, 2, 3, 5, 8):
            lam = np.concatenate([np.full(k, 3.7), np.zeros(3)])
            assert abs(effective_rank(lam) - k) < 1e-9

    def test_effective_rank_zero_spectrum_flagged_zero(self):
        assert effective_rank(np.zeros(3)) == 0.0

    def test_stable_rank_values(self):
        assert abs(stable_rank(np.ones(4)) - 4.0) < 1e-15
        assert abs(stable_rank(np.array([4.0, 1.0, 1.0])) - 1.5) < 1e-15
        assert stable_rank(np.array([5.0, 0.0])) == 1.0

    def test_participation_ratio_values(self):
        assert abs(participation_ratio(np.ones(4)) - 4.0) < 1e-15
        assert abs(participation_ratio(np.array([2.0, 1.0])) - 1.8) < 1e-15
        assert participation_ratio(np.array([3.0, 0.0])) == 1.0

    def test_numerical_rank_threshold(self):
        assert numerical_rank(np.array([1.0, 1e-20, 0.0])) == 1
        assert numerical_rank(np.ones(6)) == 6
        assert numerical_rank(np.zeros(4)) == 0

    def test_numerical_rank_explicit_tolerance(self):
        lam = np.array([1.0, 1e-3, 1e-9])
        assert numerical_rank(lam, rel_tol=1e-6) == 2

    def test_bounds_on_random_spectra(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            d = int(rng.integers(1, 20))
            lam = rng.uniform(0.01, 5.0, size=d)
            assert 1.0 <= effective_rank(lam) <= d + 1e-9
            assert 1.0 <= stable_rank(lam) <= d + 1e-9
            assert 1.0 <= participation_ratio(lam) <= d + 1e-9
            assert 0 <= numerical_rank(lam) <= d

    def test_scale_invariance_of_metrics(self):
        rng = np.random.default_rng(74)
        x = rng.standard_normal((30, 6))
        for c in (0.5, -3.0, 100.0):
            a = spectral_stats(x)
            b = spectral_stats(c * x)
            assert abs(a.eff_rank - b.eff_rank) < 1e-9
            assert abs(a.stable_rank - b.stable_rank) < 1e-9
            assert abs(a.participation_ratio - b.participation_ratio) < 1e-9
            assert a.num_rank == b.num_rank
            np.testing.assert_allclose(b.mean_variance, c**2 * a.mean_variance, rtol=1e-12)

    def test_rotation_invariance_of_all_rank_metrics(self):
        rng = np.random.default_rng(75)
        x = rng.standard_normal((50, 10))
        ref = spectral_stats(x)
        for _ in range(10):
            q = _random_orthogonal(rng, 10)
            rot = spectral_stats(x @ q)
            assert abs(ref.eff_rank - rot.eff_rank) < 1e-9
            assert abs(ref.stable_rank - rot.stable_rank) < 1e-9
            assert abs(ref.participation_ratio - rot.participation_ratio) < 1e-9
            assert ref.num_rank == rot.num_rank


class TestBootstrap:
    def test_single_draw_zero_std(self):
        rng = np.random.default_rng(76)
        layer = ActivationMatrix("layer_0", rng.standard_normal((20, 4)))
        out = bootstrap_stats(layer, draws=1, seed=0)
        assert all(entry["std"] == 0.0 for entry in out.metrics.values())

    def test_constant_input_zero_std(self):
        layer = ActivationMatrix("layer_0", np.ones((10, 3)))
        out = bootstrap_stats(layer, draws=8, seed=0)
        assert all(entry["std"] == 0.0 for entry in out.metrics.values())

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(77)
        layer = ActivationMatrix("layer_2", rng.standard_normal((30, 5)))
        a = bootstrap_stats(layer, draws=16, seed=42)
        b = bootstrap_stats(layer, draws=16, seed=42)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        rng = np.random.default_rng(78)
        layer = ActivationMatrix("layer_2", rng.standard_normal((30, 5)))
        a = bootstrap_stats(layer, draws=16, seed=1)
        b = bootstrap_stats(layer, draws=16, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_report_shape_and_config_echo(self):
        rng = np.random.default_rng(79)
        layers = [
            ActivationMatrix(f"layer_{k}", rng.standard_normal((12, 3))) for k in range(3)
        ]
        report = diagnostics_report(layers, draws=4, seed=9)
        assert report.draws == 4
        assert report.seed == 9
        assert [l.label for l in report.layers] == ["layer_0", "layer_1", "layer_2"]
        rows = report.csv_rows()
        assert len(rows) == 3 * 5

    def test_draws_must_be_positive(self):
        layer = ActivationMatrix("layer_0", np.ones((4, 2)))
        with pytest.raises(ValueError):
            bootstrap_stats(layer, draws=0, seed=0)


class TestToyForward:
    def test_identity_network_passes_input_through(self):
        rng = np.random.default_rng(80)
        x = rng.standard_normal((10, 4))
        acts = toy_forward_collect([np.eye(4)], x, nonlinearity="identity")
        assert len(acts) == 2
        np.testing.assert_array_equal(acts[0].samples, x)
        np.testing.assert_array_equal(acts[1].samples, x)

    def test_weight_scaling_scales_variance_quadratically(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((40, 6))
        w = rng.standard_normal((6, 6))
        base = toy_forward_collect([w], x)[1]
        scaled = toy_forward_collect([3.0 * w], x)[1]
        np.testing.assert_allclose(
            mean_activation_variance(scaled.samples),
            9.0 * mean_activation_variance(base.samples),
            rtol=1e-12,
        )

    def test_relu_kills_negative_preactivations(self):
        x = np.ones((5, 2))
        w = -np.eye(2)
        acts = toy_forward_collect([w], x, nonlinearity="relu")
        np.testing.assert_array_equal(acts[1].samples, np.zeros((5, 2)))
        lam = covariance_spectrum(acts[1].samples)
        assert effective_rank(lam) == 0.0

    def test_bias_applied(self):
        x = np.zeros((4, 2))
        w = np.eye(2)
        acts = toy_forward_collect([w], x, biases=[np.array([1.0, -2.0])])
        np.testing.assert_array_equal(acts[1].samples, np.tile([1.0, -2.0], (4, 1)))

    def test_shape_mismatch_names_layer(self):
        x = np.ones((4, 3))
        with pytest.raises(ValueError, match="layer 2"):
            toy_forward_collect([np.eye(3), np.ones((4, 2))], x)

    def test_tanh_bounded(self):
        rng = np.random.default_rng(82)
        x = rng.standard_normal((10, 3)) * 10
        acts = toy_forward_collect([np.eye(3)], x, nonlinearity="tanh")
        assert np.all(np.abs(acts[1].samples) <= 1.0)


class TestWeightNormReport:
    def _ckpt(self, arrays):
        return Checkpoint.from_records([TensorRecord(n, a) for n, a in arrays.items()])

    def test_single_source_ratio_one(self):
        ck = self._ckpt({"w": np.array([3.0, 4.0])})
        rows = weight_norm_report([ck], ck)
        assert rows[0]["shrinkage_ratio"] == pytest.approx(1.0)

    def test_lerp_of_orthogonal_tensors_shrinks_by_sqrt2(self):
        a = self._ckpt({"w": 2.0 * np.eye(4)[0]})
        b = self._ckpt({"w": 2.0 * np.eye(4)[1]})
        merged = self._ckpt({"w": merge_lerp([a["w"].data, b["w"].data], [1, 1])})
        rows = weight_norm_report([a, b], merged)
        assert abs(rows[0]["shrinkage_ratio"] - 1.0 / np.sqrt(2)) < 1e-6

    def test_karcher_merge_ratio_is_one(self):
        rng = np.random.default_rng(83)
        tensors = [rng.standard_normal(12) for _ in range(4)]
        merged_vec, _ = merge_karcher(tensors, np.ones(4))
        sources = [self._ckpt({"w": t}) for t in tensors]
        merged = self._ckpt({"w": merged_vec})
        rows = weight_norm_report(sources, merged)
        assert abs(rows[0]["shrinkage_ratio"] - 1.0) < 1e-6

    def test_zero_tensors_ratio_defined_as_one(self):
        z = self._ckpt({"b": np.zeros(3)})
        rows = weight_norm_report([z, z], z)
        assert rows[0]["shrinkage_ratio"] == 1.0

    def test_missing_source_tensor_raises(self):
        a = self._ckpt({"w": np.ones(2)})
        b = self._ckpt({"v": np.ones(2)})
        with pytest.raises(AlignmentError, match="'w'"):
            weight_norm_report([a, b], a)
