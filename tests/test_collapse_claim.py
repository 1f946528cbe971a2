"""The paper's collapse claim, end to end through the CLI.

Experts are a base tanh net plus ``spread`` times Gaussian noise, both at
the init scale 1.5/sqrt(d), written as checkpoints.  Each point of the sweep
(N experts, spread) is merged by ``geomerge merge`` with lerp and with
karcher, and every merged net, and every expert, is run through
``geomerge diagnose --toy-forward``.  The claim: the Euclidean blend loses
activation variance and effective rank as N and the spread grow, while the
norm-preserving Karcher merge stays at the experts' level.  Only orderings
and tolerances are asserted, never values.  No order of any output KL is
asserted: on noise experts lerp's shrunken, less confident outputs can be
closer to the experts on average.

``python tests/test_collapse_claim.py`` prints the README's table from the
same sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from geomerge.cli import main
from geomerge.tensor_io import TensorRecord, write_checkpoint

D = 128
LAYERS = ("fc1.weight", "fc2.weight")
COUNTS = (2, 4, 8)
SPREADS = (0.5, 3.0)
METHODS = ("karcher", "lerp")
#: the last hidden layer of the toy forward
LAYER = "layer_2"
TOY = "nonlinearity: tanh\nsamples: 256\nseed: 3\nlayers:\n" + "".join(
    f"  - {{weight: {name}}}\n" for name in LAYERS
)
#: karcher's variance and effective rank stay within this fraction of the
#: experts' mean at every point of the sweep
TOLERANCE = 0.05


def _write_experts(root: Path) -> dict[float, list[Path]]:
    """max(COUNTS) experts per spread, all around one base, and the toy
    forward's spec."""
    (root / "toy.yaml").write_text(TOY)
    rng = np.random.default_rng(404)
    scale = 1.5 / np.sqrt(D)
    base = {name: scale * rng.standard_normal((D, D)) for name in LAYERS}
    experts: dict[float, list[Path]] = {}
    for spread in SPREADS:
        experts[spread] = []
        for i in range(max(COUNTS)):
            path = root / f"expert-{spread}-{i}.st"
            records = [
                TensorRecord(name, w + spread * scale * rng.standard_normal(w.shape), "f64")
                for name, w in base.items()
            ]
            write_checkpoint(path, records, output_dtype="f64")
            experts[spread].append(path)
    return experts


def _diagnose(root: Path, checkpoint: Path) -> dict[str, float]:
    """The last hidden layer's bootstrap means."""
    spec, report = root / "toy.yaml", checkpoint.with_suffix(".json")
    argv = ["diagnose", str(checkpoint), "--toy-forward", str(spec), "--out", str(report)]
    assert main([*argv, "--draws", "4"]) == 0
    layer = next(x for x in json.loads(report.read_text())["layers"] if x["layer"] == LAYER)
    return {metric: stats["mean"] for metric, stats in layer["metrics"].items()}


def _merge(root: Path, kind: str, sources: list[Path], threads: int) -> tuple[Path, float]:
    """The merged checkpoint and the mean over tensors of
    norm_out / sum_i w_i norm_in_i (equal weights)."""
    out = root / f"{kind}-{len(sources)}-{sources[0].stem}-t{threads}.st"
    recipe = root / f"{out.stem}.yaml"
    models = "".join(f"  - path: {p}\n" for p in sources)
    recipe.write_text(
        f"method: {kind}\nmodels:\n{models}parameters:\n  precision: f64\n"
        f"output:\n  path: {out}\n  dtype: f64\n"
    )
    assert main(["merge", str(recipe), "--threads", str(threads)]) == 0
    summary = json.loads(Path(f"{out}.summary.json").read_text())
    ratios = [t["norm_out"] / np.mean(t["norm_in"]) for t in summary["per_tensor"]]
    return out, float(np.mean(ratios))


def _expert_means(root: Path, experts: dict[float, list[Path]]) -> dict[tuple, dict]:
    """The first N experts' mean of each metric, per (spread, N)."""
    means = {}
    for spread, paths in experts.items():
        own = [_diagnose(root, path) for path in paths]
        for n in COUNTS:
            means[spread, n] = {k: float(np.mean([d[k] for d in own[:n]])) for k in own[0]}
    return means


def _sweep(root: Path, experts: dict, means: dict, threads: int) -> list[dict]:
    """One row per (spread, N, model): the experts' mean, karcher, lerp."""
    rows = []
    for (spread, n), mean in means.items():
        rows.append({"spread": spread, "n": n, "model": "experts", "ratio": 1.0, **mean})
        for kind in METHODS:
            merged, ratio = _merge(root, kind, experts[spread][:n], threads)
            point = {"spread": spread, "n": n, "model": kind, "ratio": ratio}
            rows.append({**point, **_diagnose(root, merged)})
    return rows


def collapse_sweep(root: Path, threads: int = 1) -> list[dict]:
    experts = _write_experts(root)
    return _sweep(root, experts, _expert_means(root, experts), threads)


def table(rows: list[dict]) -> str:
    """The sweep as the README's Markdown table."""
    lines = [
        "| spread | N | model | mean variance | effective rank | norm ratio |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['spread']:g} | {r['n']} | {r['model']} | {r['mean_variance']:.3f} "
            f"| {r['eff_rank']:.1f} | {r['ratio']:.3f} |"
        )
    return "\n".join(lines)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("collapse")


@pytest.fixture(scope="module")
def sweeps(root):
    """The sweep at --threads 1 and 3, over one set of experts."""
    experts = _write_experts(root)
    means = _expert_means(root, experts)
    return {t: _sweep(root, experts, means, t) for t in (1, 3)}


def _pick(rows, model, spread, n):
    return next(r for r in rows if (r["model"], r["spread"], r["n"]) == (model, spread, n))


def _relative(rows, model, spread, n, metric):
    """``model``'s metric over the merged experts' mean of it."""
    return _pick(rows, model, spread, n)[metric] / _pick(rows, "experts", spread, n)[metric]


def test_reports_do_not_depend_on_threads(sweeps, root):
    assert sweeps[1] == sweeps[3]
    # every merged checkpoint and its report, byte for byte
    ones = sorted(root.glob("*-t1.st")) + sorted(root.glob("*-t1.json"))
    assert len(ones) == 2 * len(COUNTS) * len(SPREADS) * len(METHODS)
    for one in ones:
        three = one.with_name(one.name.replace("-t1.", "-t3."))
        assert one.read_bytes() == three.read_bytes(), one.name


def test_karcher_keeps_the_experts_variance_and_rank(sweeps):
    rows = sweeps[1]
    for spread in SPREADS:
        for n in COUNTS:
            for metric in ("mean_variance", "eff_rank"):
                relative = _relative(rows, "karcher", spread, n, metric)
                assert abs(relative - 1.0) <= TOLERANCE, (spread, n, metric, relative)
            assert _pick(rows, "karcher", spread, n)["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_lerp_collapses_with_n_and_spread(sweeps):
    """lerp's variance and effective rank, over the experts', and its norm
    ratio fall strictly as N grows and as the spread grows."""
    rows = sweeps[1]
    for metric in ("mean_variance", "eff_rank", "ratio"):
        for spread in SPREADS:
            values = [_relative(rows, "lerp", spread, n, metric) for n in COUNTS]
            assert all(a > b for a, b in zip(values, values[1:])), (metric, spread, values)
        for n in COUNTS:
            values = [_relative(rows, "lerp", spread, n, metric) for spread in SPREADS]
            assert all(a > b for a, b in zip(values, values[1:])), (metric, n, values)
    assert all(r["ratio"] < 1.0 for r in rows if r["model"] == "lerp")


def test_readme_table_is_the_sweep(sweeps):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert table(sweeps[1]) in readme


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(table(collapse_sweep(Path(tmp))))
