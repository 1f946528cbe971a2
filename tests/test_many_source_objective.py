"""The geodesic merge of N > 2 sources, end to end through ``geomerge merge``.

For N in {3, 5, 8} weighted sources of other norms, directions and dtypes,
the karcher output (f64) is checked tensor by tensor against the sphere
geometry of ``oracles``:

- its direction is stationary: the weighted mean of the ``sphere_log`` maps
  from it to the sources has norm below ``tol`` plus rounding;
- its ``frechet_objective`` is no larger than that of the lerp, ties and
  model_stock outputs of the same sources;
- the summary's ``norm_out`` is the weighted sum of its ``norm_in``;
- the solve takes the iterations of ``oracles.karcher_direct``, the n-space
  iteration at the recipe's ``eta``, ``tol`` and ``max_iter``;
- the checkpoint and summary (but ``wall_ms``) are identical at
  ``--threads`` 1 and 3.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from geomerge.cli import main
from geomerge.sphere import normalized_weights
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import frechet_objective, karcher_direct, read_records, sphere_log

SHAPES = {"attn.w": (6, 40), "bias": (17,), "mlp.w": (300,)}
DTYPES = ("f64", "f32", "bf16")
TOL, MAX_ITER = 1e-9, 200


def _sources(root: Path, m: int) -> tuple[list[Path], Path, list[float]]:
    """m sources spread around a common direction, at norms from 0.3 to 4,
    stored in f64, f32 and bf16 in turn, a base, and the sources' weights."""
    rng = np.random.default_rng(100 + m)
    centre = {name: rng.standard_normal(shape) for name, shape in SHAPES.items()}
    paths = []
    for i in range(m):
        records = []
        for name, shape in SHAPES.items():
            direction = centre[name] + rng.uniform(0.5, 1.5) * rng.standard_normal(shape)
            scale = rng.uniform(0.3, 4.0) / np.linalg.norm(direction)
            records.append(TensorRecord(name, direction * scale))
        paths.append(root / f"s{i}.st")
        write_checkpoint(paths[-1], records, output_dtype=DTYPES[i % len(DTYPES)])
    base = root / "base.st"
    noise = [TensorRecord(n, 0.1 * rng.standard_normal(s)) for n, s in SHAPES.items()]
    write_checkpoint(base, noise)
    return paths, base, [float(w) for w in rng.uniform(0.5, 2.0, m)]


def _merge(root: Path, method: str, sources, base, weights, threads: str = "1") -> Path:
    out = root / f"{method}-{threads}.st"
    models = "".join(
        f"  - path: {p}\n" + ("" if weights is None else f"    weight: {w!r}\n")
        for p, w in zip(sources, weights or [None] * len(sources))
    )
    params = f"parameters: {{tol: {TOL}, max_iter: {MAX_ITER}}}\n" if method == "karcher" else ""
    recipe = root / f"{method}-{threads}.yaml"
    recipe.write_text(
        f"method: {method}\nmodels:\n{models}base_model: {base}\n{params}"
        f"output: {{path: {out}, dtype: f64}}\n"
    )
    assert main(["merge", str(recipe), "--threads", threads, "--precision", "f64"]) == 0
    return out


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("m", [3, 5, 8])
def test_karcher_is_the_weighted_frechet_mean_of_many_sources(tmp_path, m):
    sources, base, weights = _sources(tmp_path, m)
    merged = {t: _merge(tmp_path, "karcher", sources, base, weights, t) for t in ("1", "3")}
    assert merged["1"].read_bytes() == merged["3"].read_bytes()
    summaries = [json.loads(Path(f"{merged[t]}.summary.json").read_text()) for t in ("1", "3")]
    for summary in summaries:
        summary.pop("wall_ms")
        summary["output"] = None
    assert summaries[0] == summaries[1]
    others = {
        "lerp": _merge(tmp_path, "lerp", sources, base, weights),
        "ties": _merge(tmp_path, "ties", sources, base, weights),
        "model_stock": _merge(tmp_path, "model_stock", sources, base, None),
    }

    w = normalized_weights(np.array(weights), m)
    inputs = [read_records(p, precision="f64") for p in sources]
    got = read_records(merged["1"], precision="f64")
    outputs = {method: read_records(p, precision="f64") for method, p in others.items()}
    per_tensor = {entry["name"]: entry for entry in summaries[0]["per_tensor"]}
    assert sorted(per_tensor) == sorted(SHAPES)
    for name in SHAPES:
        points = np.stack([src[name].data.reshape(-1) for src in inputs])
        units = points / np.linalg.norm(points, axis=1)[:, None]
        x = _unit(got[name].data.reshape(-1))
        # stationary: the weighted tangent mean vanishes to tol plus rounding
        tangent = sum(wi * sphere_log(x, u) for wi, u in zip(w, units))
        assert np.linalg.norm(tangent) < TOL + 1e-13, name
        objective = frechet_objective(x, units, w)
        for method, out in outputs.items():
            other = _unit(out[name].data.reshape(-1))
            assert objective <= frechet_objective(other, units, w), (name, method)
        entry = per_tensor[name]
        np.testing.assert_allclose(entry["norm_in"], np.linalg.norm(points, axis=1), rtol=1e-14)
        assert entry["norm_out"] == pytest.approx(float(w @ entry["norm_in"]), rel=1e-13)
        assert entry["norm_out"] == pytest.approx(np.linalg.norm(got[name].data), rel=1e-15)
        _, iterations, residual, converged = karcher_direct(points, w, TOL, MAX_ITER)
        assert converged and entry["converged"], name
        assert entry["iterations"] == iterations, name
        assert entry["residual"] < TOL
