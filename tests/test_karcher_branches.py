"""The Karcher solver's rarer branches: degenerate sources, a degenerate
chord, the iteration cap, a stall, a single model, and the n-space check that
overrules the Gram estimate."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from geomerge import merge_methods, sphere
from geomerge.cli import main
from geomerge.merge_methods import SolverStats, merge_karcher, merge_multislerp
from geomerge.sphere import KarcherConfig, KarcherResult, karcher_mean
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import karcher_mean_to_max_iter, read_records

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_source_degenerate_gives_the_weighted_mean():
    merged, stats = merge_karcher([np.full(4, 1e-14), [1e-14, -1e-14, 2e-14, 0.0]], np.ones(2))
    np.testing.assert_array_equal(merged, [1e-14, 0.0, 1.5e-14, 5e-15])
    assert stats == SolverStats(0, 0.0, True)


def test_degenerate_chord_starts_from_the_heaviest_point():
    # three unit vectors 120 degrees apart: their chord is zero, and the first
    # point (the first of the equal weights) is already stationary
    angles = np.array([0.0, 2.0, 4.0]) * np.pi / 3.0
    pts = np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)
    result = karcher_mean(pts, np.ones(3))
    np.testing.assert_array_equal(result.mean, pts[0])
    assert result.iterations == 0
    assert result.converged


def _write_sources(root: Path, count: int, seed: int = 4) -> list[Path]:
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        paths.append(root / f"s{i}.st")
        records = [
            TensorRecord(name, rng.standard_normal(shape).astype(np.float32))
            for name, shape in (("a", (8, 16)), ("b", (40,)))
        ]
        write_checkpoint(paths[-1], records)
    return paths


def _recipe(root: Path, method: str, models: list[Path], params: str = "{}") -> Path:
    path = root / f"{method}.yaml"
    path.write_text(
        f"method: {method}\nmodels: [{', '.join(map(str, models))}]\n"
        f"parameters: {params}\noutput: {{path: {root / (method + '.st')}}}\n"
    )
    return path


def test_max_iter_warning_reaches_stderr(tmp_path):
    recipe = _recipe(tmp_path, "karcher", _write_sources(tmp_path, 3), "{max_iter: 1}")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "geomerge.cli", "merge", str(recipe)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "karcher.st.summary.json").read_text())
    assert [(t["iterations"], t["converged"]) for t in summary["per_tensor"]] == [(1, False)] * 2
    for t in summary["per_tensor"]:
        warning = f"barycenter solver hit max_iter (residual {t['residual']:.3e})"
        assert f"tensor {t['name']!r}: {warning}" in proc.stderr


def test_one_model_and_no_base(tmp_path, capsys):
    (source,) = _write_sources(tmp_path, 1)
    for method in ("lerp", "karcher"):
        assert main(["merge", str(_recipe(tmp_path, method, [source]))]) == 0
        assert "merged 2 tensors (0 skipped)" in capsys.readouterr().out
    want = read_records(source)
    got = read_records(tmp_path / "karcher.st")
    assert list(got) == list(want)
    for name in want:
        assert got[name].data.tobytes() == want[name].data.tobytes()


def test_n_space_residual_overrules_the_gram_estimate(monkeypatch):
    """A tolerance just below the smallest residual the solver reaches:
    where the Gram estimate calls an iterate converged but the n-space
    residual is not below ``tol``, the solver iterates on."""
    real = sphere._at_iterate
    calls: list[tuple[int, float]] = []

    def spy(*args):
        found = real(*args)
        calls.append((args[4], found[3]))  # (iteration, n-space residual)
        return found

    monkeypatch.setattr(sphere, "_at_iterate", spy)
    max_iter = 100
    overruled = 0
    for seed in range(4):
        pts = np.random.default_rng(seed).standard_normal((3, 50))
        floor = karcher_mean(pts, np.ones(3), KarcherConfig(tol=1e-300, max_iter=max_iter))
        for k in range(5, 10):
            tol = floor.residual * (1.0 - 10.0**-k)
            calls.clear()
            result = karcher_mean(pts, np.ones(3), KarcherConfig(tol=tol, max_iter=max_iter))
            assert result.converged == (result.residual < tol)
            assert calls[-1] == (result.iterations, result.residual)
            overruled += sum(it < max_iter and residual >= tol for it, residual in calls)
    assert overruled


def test_a_stalled_solve_returns_the_iterate_the_cap_would():
    """With ``tol`` below any residual the solver can reach, its steps fall
    below the smallest angle it moves by and the iterate stops.  The solve
    returns one iteration later, with the mean and residual that running on
    to ``max_iter`` gives."""
    for seed in range(4):
        pts = np.random.default_rng(seed).standard_normal((3, 50))
        cfg = KarcherConfig(tol=1e-300, max_iter=200)
        result = karcher_mean(pts, np.ones(3), cfg)
        assert result.stalled and not result.converged
        assert result.iterations < 20  # a tol of 1e-6 takes 4 to 6
        capped = karcher_mean_to_max_iter(pts, np.ones(3), cfg)
        assert capped.iterations == 200
        np.testing.assert_array_equal(result.mean, capped.mean)
        assert result.residual == capped.residual


def test_a_stall_one_before_the_cap_is_told_from_the_cap():
    pts = np.random.default_rng(0).standard_normal((3, 50))
    stop = karcher_mean(pts, np.ones(3), KarcherConfig(tol=1e-300)).iterations
    stall = karcher_mean(pts, np.ones(3), KarcherConfig(tol=1e-300, max_iter=stop))
    cap = karcher_mean(pts, np.ones(3), KarcherConfig(tol=1e-300, max_iter=stop - 1))
    assert (stall.iterations, stall.stalled) == (stop, True)
    assert (cap.iterations, cap.stalled) == (stop - 1, False)


def test_multislerp_of_near_equal_sources_keeps_its_bits(monkeypatch):
    """Sources less than 1e-12 rad apart stall multislerp's one step; its
    output is the one the solver without a stall exit gives."""
    rng = np.random.default_rng(7)
    cases = []
    for n in (4, 1000):
        for angle in (1e-15, 1e-13, 5e-13):
            a = rng.standard_normal(n)
            d = rng.standard_normal(n)
            d -= (d @ a) / (a @ a) * a
            b = a + angle * np.linalg.norm(a) * d / np.linalg.norm(d)
            cases.append(([a, b], rng.uniform(0.5, 2.0, 2)))
    results: list[KarcherResult] = []

    def spy(*args):
        results.append(karcher_mean(*args))
        return results[-1]

    monkeypatch.setattr(merge_methods, "karcher_mean", spy)
    got = [merge_multislerp(sources, w) for sources, w in cases]
    # a stall whose last look finds a zero residual ends converged
    assert all(r.stalled or r.residual == 0.0 for r in results)
    assert any(r.stalled for r in results)
    monkeypatch.setattr(merge_methods, "karcher_mean", karcher_mean_to_max_iter)
    for (sources, w), have in zip(cases, got):
        assert merge_multislerp(sources, w).tobytes() == have.tobytes()


def test_a_stall_logs_its_own_warning(tmp_path, caplog):
    recipe = _recipe(
        tmp_path, "karcher", _write_sources(tmp_path, 3), "{tol: 1.0e-300, max_iter: 200}"
    )
    with caplog.at_level(logging.WARNING, logger="geomerge.merge_methods"):
        assert main(["merge", str(recipe)]) == 0
    logs = [r.getMessage() for r in caplog.records if r.name == "geomerge.merge_methods"]
    summary = json.loads((tmp_path / "karcher.st.summary.json").read_text())
    want = []
    for t in summary["per_tensor"]:
        assert not t["converged"] and t["iterations"] < 200
        want.append(
            f"tensor {t['name']!r}: barycenter solver stalled, stopped at iteration "
            f"{t['iterations']} (residual {t['residual']:.3e})"
        )
    assert logs == want
