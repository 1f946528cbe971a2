"""Per-tensor merge rules and the streaming orchestrator."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from geomerge import merge_methods
from geomerge.delta_ops import SparsifySpec
from geomerge.errors import AlignmentError, ConfigError, DegenerateError
from geomerge.merge_methods import (
    MergeJob,
    MergeMethod,
    merge_dare,
    merge_della,
    merge_karcher,
    merge_lerp,
    merge_model_stock,
    merge_multislerp,
    merge_slerp,
    merge_task_arithmetic,
    merge_ties,
    run_merge,
)
from geomerge.sphere import KarcherConfig
from geomerge.tensor_io import TensorRecord, open_checkpoint, write_checkpoint
from oracles import hemisphere_points, read_records

E1, E2, E3 = np.eye(3)


def _rand(rng, d, norm=None):
    v = rng.standard_normal(d)
    if norm is not None:
        v *= norm / np.linalg.norm(v)
    return v


class TestLerp:
    def test_midpoint(self):
        out = merge_lerp([np.zeros(2), np.array([2.0, 2.0])], [1.0, 1.0])
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_single_source_identity(self):
        v = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(merge_lerp([v], [1.0]), v)

    def test_orthonormal_shrinkage(self):
        for m in range(2, 8):
            out = merge_lerp(list(np.eye(m)), np.ones(m))
            assert abs(np.linalg.norm(out) - 1.0 / np.sqrt(m)) < 1e-12


class TestSlerp:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(40)
        a, b = _rand(rng, 6), _rand(rng, 6)
        np.testing.assert_array_equal(merge_slerp(a, b, 0.0), a)
        np.testing.assert_array_equal(merge_slerp(a, b, 1.0), b)

    def test_orthogonal_midpoint_rescales(self):
        out = merge_slerp(3.0 * E1, 5.0 * E2, 0.5)
        expected = 4.0 * (E1 + E2) / np.sqrt(2.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identical_inputs_any_t(self):
        v = np.array([0.3, -0.7, 1.1])
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            np.testing.assert_array_equal(merge_slerp(v, v, t), v)

    def test_zero_source_degenerate(self):
        with pytest.raises(DegenerateError):
            merge_slerp(np.zeros(3), E1, 0.5)


class TestMultislerp:
    def test_identical_sources(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(merge_multislerp([v, v, v], np.ones(3)), v)

    def test_two_sources_equal_weights_match_slerp(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(2, 40))
            a = _rand(rng, d, norm=float(rng.uniform(0.1, 10)))
            b = _rand(rng, d, norm=float(rng.uniform(0.1, 10)))
            if np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)) <= -1 + 1e-3:
                continue
            out = merge_multislerp([a, b], np.ones(2))
            np.testing.assert_allclose(out, merge_slerp(a, b, 0.5), atol=1e-9)

    def test_output_norm_is_weighted_mean_of_norms(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = int(rng.integers(2, 6))
            d = int(rng.integers(3, 30))
            dirs = hemisphere_points(rng, m, d)
            norms = rng.uniform(0.5, 5.0, size=m)
            tensors = [n * u for n, u in zip(norms, dirs)]
            w = rng.uniform(0.1, 1.0, size=m)
            wn = w / w.sum()
            out = merge_multislerp(tensors, w)
            assert abs(np.linalg.norm(out) - wn @ norms) < 1e-6 * (wn @ norms)

    def test_degenerate_basepoint_falls_back_to_lerp(self, caplog):
        a, b = 2.0 * E1, -2.0 * E1
        with caplog.at_level(logging.WARNING, logger="geomerge.merge_methods"):
            out = merge_multislerp([a, b], np.ones(2))
        np.testing.assert_array_equal(out, np.zeros(3))
        assert any("degenerate" in r.message for r in caplog.records)

    def test_zero_source_rejected(self):
        with pytest.raises(DegenerateError):
            merge_multislerp([np.zeros(3), E1], np.ones(2))


class TestKarcherMerge:
    def test_two_sources_reduce_to_slerp(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            d = int(rng.integers(2, 50))
            a = _rand(rng, d, norm=float(rng.uniform(0.1, 10)))
            b = _rand(rng, d, norm=float(rng.uniform(0.1, 10)))
            if np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)) <= -1 + 1e-3:
                continue
            out, stats = merge_karcher([a, b], np.ones(2))
            assert stats.converged
            ref = merge_slerp(a, b, 0.5)
            assert np.max(np.abs(out - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_representative_norm_rule(self):
        out, _ = merge_karcher([3.0 * E1, 5.0 * E2], np.ones(2))
        assert abs(np.linalg.norm(out) - 4.0) < 1e-6

    def test_identical_sources_returned_exactly(self):
        v = np.array([0.1, 0.2, -0.3])
        out, stats = merge_karcher([v, v, v], np.ones(3))
        np.testing.assert_array_equal(out, v)
        assert stats.iterations == 0
        assert stats.converged

    def test_degenerate_source_excluded_weight_redistributed(self):
        v = 2.0 * E1
        out, stats = merge_karcher([np.zeros(3), v], np.ones(2))
        # direction from the one live source, norm = 0.5*0 + 0.5*2
        np.testing.assert_allclose(out, E1, atol=1e-12)
        assert stats.converged

    def test_all_degenerate_falls_back_to_euclidean_mean(self):
        out, stats = merge_karcher([np.zeros(3), np.zeros(3)], np.ones(2))
        np.testing.assert_array_equal(out, np.zeros(3))
        assert stats.converged

    def test_global_rescale_equivariance(self):
        rng = np.random.default_rng(44)
        dirs = hemisphere_points(rng, 4, 12)
        tensors = [float(rng.uniform(0.5, 3.0)) * u for u in dirs]
        w = rng.uniform(0.1, 1.0, size=4)
        base, _ = merge_karcher(tensors, w)
        scaled, _ = merge_karcher([7.5 * t for t in tensors], w)
        np.testing.assert_allclose(scaled, 7.5 * base, rtol=1e-12)

    def test_norm_preservation_vs_lerp_shrinkage(self):
        rng = np.random.default_rng(45)
        for m in (2, 4, 6):
            dirs = list(np.eye(8)[:m])
            karcher_out, _ = merge_karcher(dirs, np.ones(m))
            lerp_out = merge_lerp(dirs, np.ones(m))
            assert abs(np.linalg.norm(karcher_out) - 1.0) < 1e-6
            assert np.linalg.norm(lerp_out) < 1.0
            assert np.linalg.norm(lerp_out) <= 1.0  # triangle inequality

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_tight_tol_does_not_crash(self, tol):
        # at 1M elements the residual nears its rounding floor before tol
        rng = np.random.default_rng(0)
        sources = [rng.standard_normal(1 << 20) for _ in range(3)]
        out, stats = merge_karcher(sources, np.ones(3), KarcherConfig(tol=tol))
        assert stats.converged
        assert stats.residual < tol
        assert np.isfinite(out).all()

    def test_stall_below_rounding_floor_reported_not_raised(self):
        rng = np.random.default_rng(48)
        sources = [rng.standard_normal(1 << 20) for _ in range(3)]
        _, stats = merge_karcher(sources, np.ones(3), KarcherConfig(tol=1e-300, max_iter=5))
        assert not stats.converged
        assert stats.iterations == 5
        assert np.isfinite(stats.residual)

    def test_custom_config_respected(self):
        rng = np.random.default_rng(46)
        dirs = hemisphere_points(rng, 5, 6)
        out, stats = merge_karcher(list(dirs), np.ones(5), KarcherConfig(tol=1e-300, max_iter=2))
        assert not stats.converged
        assert stats.iterations == 2


class TestTaskArithmetic:
    def test_zero_scaling_returns_base(self):
        base = np.array([1.0, 2.0])
        out = merge_task_arithmetic(base, [np.array([5.0, 5.0])], [1.0], scaling=0.0)
        np.testing.assert_array_equal(out, base)

    def test_single_expert_full_scaling(self):
        base = np.array([1.0, 2.0])
        expert = np.array([4.0, -1.0])
        out = merge_task_arithmetic(base, [expert], [1.0], scaling=1.0)
        np.testing.assert_array_equal(out, expert)

    def test_hand_arithmetic(self):
        out = merge_task_arithmetic(
            np.zeros(1), [np.array([2.0]), np.array([4.0])], [1.0, 1.0], scaling=1.0
        )
        np.testing.assert_array_equal(out, [3.0])


class TestTies:
    def test_experts_equal_base(self):
        base = np.array([1.0, -2.0, 3.0])
        out = merge_ties(base, [base.copy(), base.copy()], np.ones(2), density=0.5)
        np.testing.assert_array_equal(out, base)

    def test_single_expert_full_density(self):
        base = np.array([1.0, 1.0])
        expert = np.array([3.0, -4.0])
        out = merge_ties(base, [expert], [1.0], density=1.0)
        np.testing.assert_array_equal(out, expert)

    def test_sign_election_then_agreeing_average(self):
        base = np.zeros(2)
        experts = [np.array([1.0, -1.0]), np.array([3.0, 1.0])]
        out = merge_ties(base, experts, np.ones(2), density=1.0)
        # coord 0: both positive -> mean 2; coord 1: tie -> +1 elected, only
        # the +1 contribution survives
        np.testing.assert_array_equal(out, [2.0, 1.0])


class TestDare:
    def test_zero_drop_lerp_equals_task_arithmetic_exactly(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = int(rng.integers(1, 100))
            base = rng.standard_normal(d)
            experts = [rng.standard_normal(d) for _ in range(3)]
            w = rng.uniform(0.1, 1.0, size=3)
            a = merge_dare(base, experts, w, drop_rate=0.0, seed=0, tensor_name="x")
            b = merge_task_arithmetic(base, experts, w, scaling=1.0)
            np.testing.assert_array_equal(a, b)

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(48)
        base = rng.standard_normal(64)
        experts = [rng.standard_normal(64) for _ in range(2)]
        a = merge_dare(base, experts, np.ones(2), 0.5, seed=9, tensor_name="w")
        b = merge_dare(base, experts, np.ones(2), 0.5, seed=9, tensor_name="w")
        np.testing.assert_array_equal(a, b)

    def test_expectation_matches_task_arithmetic(self):
        rng = np.random.default_rng(49)
        base = rng.standard_normal(48)
        experts = [rng.standard_normal(48) for _ in range(2)]
        w = np.ones(2)
        target = merge_task_arithmetic(base, experts, w, scaling=1.0)
        trials = 3000
        acc = np.zeros(48)
        for s in range(trials):
            acc += merge_dare(base, experts, w, 0.5, seed=s, tensor_name="mc")
        mean = acc / trials
        spread = sum(np.abs(e - base) for e in experts) / 2
        se = spread / np.sqrt(trials)  # drop variance scale at p=0.5
        assert np.all(np.abs(mean - target) <= 4 * se + 1e-9)

    def test_ties_combine_respects_elected_signs(self):
        rng = np.random.default_rng(50)
        base = rng.standard_normal(32)
        experts = [rng.standard_normal(32) for _ in range(3)]
        out = merge_dare(
            base, experts, np.ones(3), 0.3, combine="ties", density=0.6, seed=1, tensor_name="t"
        )
        assert out.shape == (32,)

    def test_unknown_combine_rejected(self):
        with pytest.raises(ConfigError):
            merge_dare(np.zeros(2), [np.ones(2)], [1.0], 0.1, combine="max")


class TestDella:
    def test_window_zero_is_dare_bitwise(self):
        rng = np.random.default_rng(51)
        base = rng.standard_normal(100)
        experts = [rng.standard_normal(100) for _ in range(2)]
        spec = SparsifySpec(drop_rate=0.4, window=0.0, seed=3)
        a = merge_della(base, experts, np.ones(2), spec, tensor_name="w")
        b = merge_dare(base, experts, np.ones(2), 0.4, seed=3, tensor_name="w")
        np.testing.assert_array_equal(a, b)

    def test_no_drop_no_window_is_task_arithmetic(self):
        rng = np.random.default_rng(52)
        base = rng.standard_normal(30)
        experts = [rng.standard_normal(30) for _ in range(2)]
        spec = SparsifySpec(drop_rate=0.0, window=0.0, seed=0)
        a = merge_della(base, experts, np.ones(2), spec, tensor_name="x")
        b = merge_task_arithmetic(base, experts, np.ones(2), scaling=1.0)
        np.testing.assert_array_equal(a, b)


class TestModelStock:
    def test_identical_deltas_give_expert_mean(self):
        base = np.array([1.0, 1.0, 1.0])
        expert = np.array([2.0, 3.0, 0.0])
        out = merge_model_stock(base, [expert.copy(), expert.copy()])
        np.testing.assert_allclose(out, expert, atol=1e-12)

    def test_orthogonal_deltas_return_base(self):
        base = np.zeros(4)
        experts = [np.eye(4)[0], np.eye(4)[1]]  # orthogonal deltas, c = 0
        out = merge_model_stock(base, experts)
        np.testing.assert_allclose(out, base, atol=1e-9)

    def test_zero_norm_deltas_count_as_agreeing(self):
        base = np.array([1.0, 2.0])
        out = merge_model_stock(base, [base.copy(), base.copy()])
        np.testing.assert_allclose(out, base, atol=1e-12)

    def test_requires_two_experts(self):
        with pytest.raises(ValueError):
            merge_model_stock(np.zeros(2), [np.ones(2)])


class TestPermutationEquivariance:
    def test_unseeded_methods(self):
        rng = np.random.default_rng(53)
        tensors = [_rand(rng, 10, norm=float(rng.uniform(0.5, 3))) for _ in range(4)]
        w = rng.uniform(0.1, 1.0, size=4)
        perm = [2, 0, 3, 1]
        pt = [tensors[i] for i in perm]
        pw = w[perm]
        np.testing.assert_allclose(merge_lerp(pt, pw), merge_lerp(tensors, w), atol=1e-12)
        a, _ = merge_karcher(tensors, w)
        b, _ = merge_karcher(pt, pw)
        np.testing.assert_allclose(a, b, atol=1e-12)



class TestMethodValidation:
    def test_slerp_source_count(self):
        with pytest.raises(ConfigError, match="exactly 2"):
            MergeMethod("slerp").validate_sources(3, False)

    def test_delta_methods_need_base(self):
        for kind in ("ties", "dare_lerp", "della_ties", "task_arithmetic", "model_stock"):
            with pytest.raises(ConfigError, match="base"):
                MergeMethod(kind).validate_sources(2, False)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown merge method"):
            MergeMethod("sce")


class TestRunMerge:
    def _write(self, path, arrays, dtype="f32"):
        write_checkpoint(path, [TensorRecord(n, a) for n, a in arrays.items()], dtype)
        return path

    def _sources(self, tmp_path, rng, n=2, scale=None):
        shapes = {"w0": (4, 6), "w1": (6, 2), "bias": (2,)}
        paths = []
        for i in range(n):
            factor = scale[i] if scale else 1.0
            arrays = {
                name: (rng.standard_normal(shape) * factor).astype(np.float32)
                for name, shape in shapes.items()
            }
            paths.append(self._write(tmp_path / f"src{i}.st", arrays))
        return paths

    def test_identical_sources_reproduce_input(self, tmp_path):
        rng = np.random.default_rng(55)
        arrays = {"a": rng.standard_normal((3, 3)).astype(np.float32)}
        p = self._write(tmp_path / "one.st", arrays)
        with open_checkpoint(p) as h1, open_checkpoint(p) as h2:
            job = MergeJob(
                sources=[h1, h2], method=MergeMethod("karcher"), out_path=tmp_path / "out.st"
            )
            summary = run_merge(job)
        assert summary.tensors_merged == 1
        out = read_records(tmp_path / "out.st")
        np.testing.assert_array_equal(out["a"].data, arrays["a"])

    def test_three_copies_idempotent_for_geometric_and_linear_rules(self, tmp_path):
        rng = np.random.default_rng(62)
        arrays = {"a": rng.standard_normal((4, 5)).astype(np.float32)}
        p = self._write(tmp_path / "one.st", arrays)
        for kind in ("karcher", "lerp", "multislerp"):
            handles = [open_checkpoint(p) for _ in range(3)]
            try:
                job = MergeJob(
                    sources=handles,
                    method=MergeMethod(kind),
                    out_path=tmp_path / f"out_{kind}.st",
                )
                run_merge(job)
            finally:
                for h in handles:
                    h.close()
            out = read_records(tmp_path / f"out_{kind}.st")
            np.testing.assert_array_equal(out["a"].data, arrays["a"], err_msg=kind)

    def test_summary_counts_match_alignment(self, tmp_path):
        rng = np.random.default_rng(56)
        paths = self._sources(tmp_path, rng)
        with open_checkpoint(paths[0]) as h1, open_checkpoint(paths[1]) as h2:
            job = MergeJob(
                sources=[h1, h2], method=MergeMethod("lerp"), out_path=tmp_path / "out.st"
            )
            summary = run_merge(job)
        assert summary.tensors_merged == 3
        assert summary.tensors_skipped == []
        assert {t.name for t in summary.per_tensor} == {"w0", "w1", "bias"}
        assert all(t.iterations is None for t in summary.per_tensor)

    def test_karcher_summary_carries_solver_stats(self, tmp_path):
        rng = np.random.default_rng(57)
        paths = self._sources(tmp_path, rng)
        with open_checkpoint(paths[0]) as h1, open_checkpoint(paths[1]) as h2:
            job = MergeJob(
                sources=[h1, h2], method=MergeMethod("karcher"), out_path=tmp_path / "out.st"
            )
            summary = run_merge(job)
        for t in summary.per_tensor:
            assert t.converged is True
            assert t.residual < 1e-6
            assert len(t.norm_in) == 2

    def test_two_source_karcher_job_matches_slerp_job(self, tmp_path):
        rng = np.random.default_rng(63)
        paths = self._sources(tmp_path, rng)
        for kind in ("karcher", "slerp"):
            with open_checkpoint(paths[0]) as h1, open_checkpoint(paths[1]) as h2:
                job = MergeJob(
                    sources=[h1, h2],
                    method=MergeMethod(kind),
                    out_path=tmp_path / f"out_{kind}.st",
                    out_dtype="f64",
                )
                run_merge(job)
        karcher = read_records(tmp_path / "out_karcher.st", precision="f64")
        slerp = read_records(tmp_path / "out_slerp.st", precision="f64")
        for name in karcher:
            ref = slerp[name].data
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(karcher[name].data - ref)) <= 1e-6 * max(scale, 1e-30)

    def test_strict_mode_rejects_misaligned(self, tmp_path):
        rng = np.random.default_rng(58)
        a = self._write(tmp_path / "a.st", {"x": rng.standard_normal(4).astype(np.float32)})
        b = self._write(
            tmp_path / "b.st",
            {
                "x": rng.standard_normal(4).astype(np.float32),
                "extra": np.ones(2, dtype=np.float32),
            },
        )
        with open_checkpoint(a) as h1, open_checkpoint(b) as h2:
            job = MergeJob(
                sources=[h1, h2], method=MergeMethod("lerp"), out_path=tmp_path / "out.st"
            )
            with pytest.raises(AlignmentError, match="extra"):
                run_merge(job)

    def test_permissive_mode_copies_unmergeable(self, tmp_path):
        rng = np.random.default_rng(59)
        extra = np.full(2, 7.0, dtype=np.float32)
        a = self._write(
            tmp_path / "a.st",
            {"x": rng.standard_normal(4).astype(np.float32), "extra": extra},
        )
        b = self._write(tmp_path / "b.st", {"x": rng.standard_normal(4).astype(np.float32)})
        with open_checkpoint(a) as h1, open_checkpoint(b) as h2:
            job = MergeJob(
                sources=[h1, h2],
                method=MergeMethod("lerp"),
                out_path=tmp_path / "out.st",
                strict=False,
            )
            summary = run_merge(job)
        assert summary.tensors_merged == 1
        assert summary.tensors_skipped == ["extra"]
        out = read_records(tmp_path / "out.st")
        np.testing.assert_array_equal(out["extra"].data, extra)

    def test_permissive_numeric_failure_copies_base(self, tmp_path):
        # antipodal tensors break slerp; permissive mode keeps the first source
        a = self._write(tmp_path / "a.st", {"x": np.array([1.0, 0.0], dtype=np.float32)})
        b = self._write(tmp_path / "b.st", {"x": np.array([-1.0, 0.0], dtype=np.float32)})
        with open_checkpoint(a) as h1, open_checkpoint(b) as h2:
            job = MergeJob(
                sources=[h1, h2],
                method=MergeMethod("slerp"),
                out_path=tmp_path / "out.st",
                strict=False,
            )
            summary = run_merge(job)
        assert summary.tensors_skipped == ["x"]
        out = read_records(tmp_path / "out.st")
        np.testing.assert_array_equal(out["x"].data, [1.0, 0.0])

    def test_strict_numeric_failure_names_tensor(self, tmp_path):
        a = self._write(tmp_path / "a.st", {"x": np.array([1.0, 0.0], dtype=np.float32)})
        b = self._write(tmp_path / "b.st", {"x": np.array([-1.0, 0.0], dtype=np.float32)})
        with open_checkpoint(a) as h1, open_checkpoint(b) as h2:
            job = MergeJob(
                sources=[h1, h2], method=MergeMethod("slerp"), out_path=tmp_path / "out.st"
            )
            with pytest.raises(Exception, match="'x'"):
                run_merge(job)

    def test_strict_failure_keeps_type_of_multi_argument_exception(self, tmp_path, monkeypatch):
        def broken(tensors, weights, **kw):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr(merge_methods, "merge_lerp", broken)
        paths = self._sources(tmp_path, np.random.default_rng(59))
        with open_checkpoint(paths[0]) as h1, open_checkpoint(paths[1]) as h2:
            job = MergeJob(sources=[h1, h2], method=MergeMethod("lerp"), out_path=tmp_path / "o.st")
            with pytest.raises(UnicodeDecodeError) as info:
                run_merge(job)
        assert type(info.value) is UnicodeDecodeError
        assert info.value.reason == "invalid start byte"
        assert any(name in " ".join(info.value.__notes__) for name in ("'w0'", "'w1'", "'bias'"))

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        rng = np.random.default_rng(60)
        paths = self._sources(tmp_path, rng, n=3)
        outs = []
        for threads, tag in ((1, "t1"), (4, "t4")):
            with open_checkpoint(paths[0]) as h1, open_checkpoint(paths[1]) as h2, \
                 open_checkpoint(paths[2]) as h3, open_checkpoint(paths[0]) as hb:
                job = MergeJob(
                    sources=[h1, h2, h3],
                    base=hb,
                    method=MergeMethod("dare_ties", {"seed": 11}),
                    out_path=tmp_path / f"out_{tag}.st",
                    threads=threads,
                )
                run_merge(job)
            outs.append((tmp_path / f"out_{tag}.st").read_bytes())
        assert outs[0] == outs[1]

    def test_weighted_job(self, tmp_path):
        rng = np.random.default_rng(61)
        a_data = rng.standard_normal(5).astype(np.float32)
        b_data = rng.standard_normal(5).astype(np.float32)
        a = self._write(tmp_path / "a.st", {"x": a_data})
        b = self._write(tmp_path / "b.st", {"x": b_data})
        with open_checkpoint(a) as h1, open_checkpoint(b) as h2:
            job = MergeJob(
                sources=[h1, h2],
                weights=[3.0, 1.0],
                method=MergeMethod("lerp"),
                out_path=tmp_path / "out.st",
                out_dtype="f64",
            )
            run_merge(job)
        out = read_records(tmp_path / "out.st", precision="f64")
        expected = 0.75 * a_data.astype(np.float64) + 0.25 * b_data.astype(np.float64)
        np.testing.assert_allclose(out["x"].data, expected, rtol=1e-15)
