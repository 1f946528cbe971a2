"""Acceptance suite.

One test per criterion, each asserting at its stated tolerance and printing a
pass line on success (run with ``pytest tests/test_acceptance.py -v -s`` to
see them; a failed criterion shows up as a failed test).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from geomerge.cli import main as cli_main
from geomerge.delta_ops import SparsifySpec, dare_drop, della_drop, sparsify_stream, trim_topk
from geomerge.diagnostics import (
    effective_rank,
    mean_activation_variance,
    participation_ratio,
    spectral_stats,
    stable_rank,
)
from geomerge.merge_methods import (
    MergeJob,
    MergeMethod,
    merge_dare,
    merge_della,
    merge_karcher,
    merge_lerp,
    merge_multislerp,
    merge_slerp,
    merge_task_arithmetic,
    merge_ties,
    run_merge,
)
from geomerge.sphere import karcher_mean
from geomerge.tensor_io import TensorRecord, open_checkpoint, write_checkpoint
from oracles import (
    frechet_objective,
    geodesic_distance,
    grid_frechet_minimizer,
    hemisphere_points,
    read_records,
    shrinkage_ratio,
    sphere_grid,
    trim_reference,
)


def _passed(number: int, label: str) -> None:
    print(f"PASS criterion {number:02d}: {label}")


def _run_merge_checked(job: MergeJob):
    summary = run_merge(job)
    assert summary.tensors_skipped == []
    return summary


def _random_tensor(rng, d, lo=0.1, hi=10.0):
    v = rng.standard_normal(d)
    return v * (float(rng.uniform(lo, hi)) / np.linalg.norm(v))


def test_c01_slerp_reduction():
    """Two-source geodesic merge equals slerp at t=0.5, elementwise 1e-6."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        d = int(rng.integers(3, 4097))
        a = _random_tensor(rng, d)
        b = _random_tensor(rng, d)
        merged, stats = merge_karcher([a, b], np.ones(2))
        assert stats.converged
        reference = merge_slerp(a, b, 0.5)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(merged - reference)) <= 1e-6 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _passed(1, "karcher(m=2, equal weights) == slerp(t=0.5) within 1e-6")


def test_c02_stationarity():
    """Every converged solve satisfies the first-order condition below tol."""
    rng = np.random.default_rng(1002)
    tol = 1e-6
    for _ in range(500):
        m = int(rng.integers(2, 12))
        d = int(rng.integers(2, 49))
        pts = hemisphere_points(rng, m, d)
        w = rng.uniform(0.05, 1.0, size=m)
        res = karcher_mean(pts, w)
        assert res.converged
        assert res.residual < tol
    _passed(2, "weighted tangent-mean norm < 1e-6 on 500 converged solves")


def test_c03_brute_force_barycenter_oracle():
    """Dense 0.5-degree grid search agrees with the fixed-point solution."""
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    grid = sphere_grid(0.5)
    slack = 2.0 * np.pi * np.deg2rad(0.5)
    for i in range(50):
        m = 3 if i % 2 == 0 else 5
        pts = hemisphere_points(rng, m, 3)
        w = rng.uniform(0.1, 1.0, size=m)
        res = karcher_mean(pts, w)
        assert res.converged
        grid_best, grid_obj = grid_frechet_minimizer(grid, pts, w)
        assert geodesic_distance(grid_best, res.mean) < np.deg2rad(1.0)
        assert frechet_objective(res.mean, pts, w) <= grid_obj + slack
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    _passed(3, "0.5-degree grid minimizer within 1 degree of fixed point")


def test_c04_norm_preservation_vs_chord_shrinkage():
    """Orthonormal sources: lerp norm 1/sqrt(m), karcher norm 1."""
    for m in range(2, 12):
        sources = list(np.eye(m))
        lerp_out = merge_lerp(sources, np.ones(m))
        assert abs(np.linalg.norm(lerp_out) - 1.0 / math.sqrt(m)) < 1e-9
        karcher_out, stats = merge_karcher(sources, np.ones(m))
        assert stats.converged
        assert abs(np.linalg.norm(karcher_out) - 1.0) < 1e-6

        assert abs(shrinkage_ratio(sources, karcher_out) - 1.0) < 1e-6
        assert abs(shrinkage_ratio(sources, lerp_out) - 1.0 / math.sqrt(m)) < 1e-9
    _passed(4, "karcher ratio 1.0 vs lerp ratio 1/sqrt(m), m = 2..11")


def test_c05_shrinkage_stability_across_m():
    """Karcher ratio stays pinned at 1 while lerp's decreases with m."""
    rng = np.random.default_rng(1005)
    q, r = np.linalg.qr(rng.standard_normal((16, 16)))
    q = q * np.sign(np.diag(r))
    directions = [q[:, i] for i in range(11)]
    lerp_ratios = []
    for m in range(2, 12):
        sources = directions[:m]
        karcher_out, stats = merge_karcher(sources, np.ones(m))
        assert stats.converged
        ratio = np.linalg.norm(karcher_out) / 1.0  # all source norms are 1
        assert 1.0 - 1e-6 <= ratio <= 1.0 + 1e-6
        lerp_ratios.append(np.linalg.norm(merge_lerp(sources, np.ones(m))))
    diffs = np.diff(lerp_ratios)
    assert np.all(diffs < 0.0), "lerp shrinkage must be strictly monotone in m"
    _passed(5, "karcher ratio in [1-1e-6, 1+1e-6] for all m; lerp monotone down")


def test_c06_method_reductions():
    """Degenerate parameter settings collapse methods into one another."""
    rng = np.random.default_rng(1006)
    for _ in range(100):
        d = int(rng.integers(2, 80))
        base = rng.standard_normal(d)
        experts = [rng.standard_normal(d) for _ in range(3)]
        w = rng.uniform(0.1, 1.0, size=3)
        seed = int(rng.integers(0, 1000))

        dare0 = merge_dare(base, experts, w, drop_rate=0.0, seed=seed, tensor_name="r")
        ta = merge_task_arithmetic(base, experts, w, scaling=1.0)
        np.testing.assert_array_equal(dare0, ta)

        rate = float(rng.uniform(0.0, 0.8))
        della0 = merge_della(
            base, experts, w,
            SparsifySpec(drop_rate=rate, window=0.0, seed=seed),
            tensor_name="r",
        )
        dare = merge_dare(base, experts, w, drop_rate=rate, seed=seed, tensor_name="r")
        np.testing.assert_array_equal(della0, dare)

    for _ in range(100):
        d = int(rng.integers(2, 80))
        a = _random_tensor(rng, d)
        b = _random_tensor(rng, d)
        ms = merge_multislerp([a, b], np.ones(2))
        sl = merge_slerp(a, b, 0.5)
        np.testing.assert_allclose(ms, sl, atol=1e-9 * max(1.0, np.max(np.abs(sl))))
    _passed(6, "dare@0 == task arithmetic; della@window0 == dare; multislerp@2 == slerp")


def test_c07_unbiasedness_oracles():
    """Monte Carlo means over 10^4 streams match the delta within 3 SE."""
    rng = np.random.default_rng(1007)
    delta = rng.standard_normal(64)
    trials = 10_000

    acc = np.zeros(64)
    p = 0.5
    for s in range(trials):
        acc += dare_drop(delta, p, sparsify_stream(s, "c7-dare", 0))
    mean = acc / trials
    se = np.abs(delta) * math.sqrt(p / (1 - p)) / math.sqrt(trials)
    assert np.all(np.abs(mean - delta) <= 3 * se + 1e-12)

    spec = SparsifySpec(drop_rate=0.5, window=0.3)
    order = np.empty(64, dtype=int)
    order[np.argsort(np.abs(delta), kind="stable")] = np.arange(64)
    p_j = (spec.drop_rate + spec.window) - 2 * spec.window * order / 63.0
    acc = np.zeros(64)
    for s in range(trials):
        acc += della_drop(delta, spec, sparsify_stream(s, "c7-della", 0))
    mean = acc / trials
    se = np.abs(delta) * np.sqrt(p_j / (1 - p_j)) / math.sqrt(trials)
    assert np.all(np.abs(mean - delta) <= 3 * se + 1e-12)
    _passed(7, "dare/della Monte Carlo means within 3 standard errors")


def test_c08_ties_correctness():
    """Sign-consistency of the merge and exact trim counts vs brute force."""
    rng = np.random.default_rng(1008)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(4, 60))
        density = float(rng.uniform(0.2, 1.0))
        base = rng.standard_normal(n)
        experts = [base + np.round(rng.standard_normal(n), 1) for _ in range(m)]
        w = rng.uniform(0.1, 1.0, size=m)
        wn = w / w.sum()

        # brute-force reference: trim, elect, then check the real output
        trimmed_ref = [trim_reference(list(e - base), density) for e in experts]
        elected = np.array(
            [
                1.0 if sum(wn[i] * trimmed_ref[i][j] for i in range(m)) >= 0 else -1.0
                for j in range(n)
            ]
        )
        out_delta = merge_ties(base, experts, w, density=density) - base
        nz = out_delta != 0
        assert np.all(np.sign(out_delta[nz]) == elected[nz])

        for e in experts:
            delta = e - base
            trimmed = trim_topk(delta, density)
            # exactly ceil(density*n) nonzeros whenever the input has that many
            expected_nonzeros = min(math.ceil(density * n), np.count_nonzero(delta))
            assert np.count_nonzero(trimmed) == expected_nonzeros
            np.testing.assert_array_equal(trimmed, trim_reference(list(delta), density))
    _passed(8, "ties signs match election; trim keeps exactly ceil(density*n)")


def test_c09_diagnostics_identities():
    """Endpoint identities, rotation invariance, trace identity."""
    for d in (2, 4, 7, 16):
        flat = np.ones(d)
        assert abs(effective_rank(flat) - d) < 1e-9
        assert stable_rank(flat) == float(d)
        assert participation_ratio(flat) == float(d)
        rank1 = np.zeros(d)
        rank1[0] = 3.7
        assert effective_rank(rank1) == 1.0
        assert stable_rank(rank1) == 1.0
        assert participation_ratio(rank1) == 1.0

    rng = np.random.default_rng(1009)
    x = rng.standard_normal((60, 12))
    ref = spectral_stats(x)
    for _ in range(50):
        q, r = np.linalg.qr(rng.standard_normal((12, 12)))
        q = q * np.sign(np.diag(r))
        rot = spectral_stats(x @ q)
        assert abs(ref.eff_rank - rot.eff_rank) < 1e-9
        assert abs(ref.stable_rank - rot.stable_rank) < 1e-9
        assert abs(ref.participation_ratio - rot.participation_ratio) < 1e-9
        assert ref.num_rank == rot.num_rank

    for _ in range(20):
        x = rng.standard_normal((30, 9))
        centered = x - x.mean(axis=0, keepdims=True)
        trace = np.trace(centered.T @ centered / 29)
        assert abs(mean_activation_variance(x) - trace / 9) < 1e-9
    _passed(9, "rank endpoints exact; rotation invariance 1e-9; variance == trace/d")


def test_c10_collapse_direction_demo(tmp_path):
    """Rotated copies of one toy net: geodesic merge keeps norms, lerp does not."""
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    w0 = rng.standard_normal((16, 24)).astype(np.float32)
    w1 = rng.standard_normal((24, 8)).astype(np.float32)
    common = {"fc1.weight": w0, "fc2.weight": w1}

    expert_paths = []
    for k in range(5):
        records = []
        for name, tensor in common.items():
            flat = tensor.reshape(-1).astype(np.float64)
            q, r = np.linalg.qr(rng.standard_normal((flat.size, flat.size)))
            q = q * np.sign(np.diag(r))
            records.append(TensorRecord(name, (q @ flat).reshape(tensor.shape)))
        path = tmp_path / f"expert{k}.st"
        write_checkpoint(path, records)
        expert_paths.append(path)

    outputs = {}
    for kind in ("karcher", "lerp"):
        handles = [open_checkpoint(p) for p in expert_paths]
        try:
            job = MergeJob(
                sources=handles,
                method=MergeMethod(kind),
                out_path=tmp_path / f"merged_{kind}.st",
            )
            summary = _run_merge_checked(job)
            outputs[kind] = summary
        finally:
            for h in handles:
                h.close()

    def ratios(kind):  # the summary's norm_out / sum_i w_i norm_in_i, equal weights
        return [t.norm_out / np.mean(t.norm_in) for t in outputs[kind].per_tensor]

    for ratio in ratios("karcher"):
        assert abs(ratio - 1.0) <= 1e-6
    for ratio in ratios("lerp"):
        assert ratio < 0.9

    toy_spec = tmp_path / "toy.yaml"
    toy_spec.write_text(
        "nonlinearity: tanh\nsamples: 64\nseed: 3\n"
        "layers:\n  - {weight: fc1.weight}\n  - {weight: fc2.weight}\n"
    )
    report_path = tmp_path / "collapse.json"
    rc = cli_main(
        [
            "diagnose",
            str(tmp_path / "merged_karcher.st"),
            "--toy-forward",
            str(toy_spec),
            "--out",
            str(report_path),
            "--draws",
            "8",
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["layers"]) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 10 took {elapsed:.1f}s"
    _passed(10, "rotated-expert demo: karcher ratios 1.0, lerp < 0.9, report emitted")


def test_c11_end_to_end_determinism(tmp_path):
    """Same recipe and seed: byte-identical outputs at 1 and 8 threads."""
    rng = np.random.default_rng(1011)
    shapes = {"w0": (8, 12), "w1": (12, 4), "b0": (12,)}
    paths = []
    for k in range(3):
        records = [
            TensorRecord(n, rng.standard_normal(s).astype(np.float32))
            for n, s in shapes.items()
        ]
        path = tmp_path / f"m{k}.st"
        write_checkpoint(path, records)
        paths.append(path)

    recipe = tmp_path / "r.yaml"
    recipe.write_text(
        "method: dare_ties\n"
        f"base_model: {paths[0]}\n"
        "models:\n"
        + "".join(f"  - path: {p}\n" for p in paths)
        + "parameters:\n  seed: 123\n"
        f"output:\n  path: {tmp_path / 'out.st'}\n"
    )

    blobs = []
    summaries = []
    for threads in ("1", "8"):
        rc = cli_main(["merge", str(recipe), "--threads", threads])
        assert rc == 0
        blobs.append((tmp_path / "out.st").read_bytes())
        payload = json.loads((tmp_path / "out.st.summary.json").read_text())
        payload.pop("wall_ms")
        summaries.append(payload)
    assert blobs[0] == blobs[1]
    assert summaries[0] == summaries[1]
    _passed(11, "byte-identical merged checkpoint at --threads 1 and 8")


def test_c12_identical_checkpoint_round_trip(tmp_path):
    """Merging two copies of one checkpoint reproduces it for every method."""
    rng = np.random.default_rng(1012)
    arrays = {
        "w0": rng.standard_normal((6, 10)).astype(np.float32),
        "w1": rng.standard_normal((10, 2)).astype(np.float32),
        "scale": (rng.standard_normal(10) + 2.0).astype(np.float32),
    }
    source = tmp_path / "src.st"
    write_checkpoint(source, [TensorRecord(n, a) for n, a in arrays.items()])

    methods = (
        "karcher", "lerp", "slerp", "multislerp", "task_arithmetic",
        "ties", "dare_lerp", "dare_ties", "della_lerp", "della_ties", "model_stock",
    )
    for kind in methods:
        method = MergeMethod(kind)
        out_path = tmp_path / f"out_{kind}.st"
        with open_checkpoint(source) as h1, open_checkpoint(source) as h2, \
             open_checkpoint(source) as hb:
            job = MergeJob(
                sources=[h1, h2],
                base=hb if method.needs_base else None,
                method=method,
                out_path=out_path,
            )
            summary = _run_merge_checked(job)
        assert summary.tensors_merged == len(arrays)
        merged = read_records(out_path)
        for name, original in arrays.items():
            np.testing.assert_array_equal(
                merged[name].data, original, err_msg=f"{kind}:{name}"
            )
    _passed(12, "all 11 methods reproduce a duplicated checkpoint exactly")
