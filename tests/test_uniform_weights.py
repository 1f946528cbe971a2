"""One weight normalizer: no weights means uniform weights, from
``sphere.normalized_weights`` alone.

A job with ``weights=None`` gives the same bytes as one with ``[1.0] * m``:
the checkpoint, the summary (without ``wall_ms``) and the shrinkage ratio
its norms give.  Every weight vector of ``src/`` comes from
``normalized_weights``; an ``ast`` scan finds no hand-built ``np.full``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from geomerge.merge_methods import MergeJob, MergeMethod, run_merge
from geomerge.sphere import normalized_weights
from geomerge.tensor_io import TensorRecord, open_checkpoint, write_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src" / "geomerge"

SHAPES = {"a": (3, 7), "b": (64,)}


def _models(root: Path, m: int) -> tuple[list[Path], Path]:
    rng = np.random.default_rng(2000 + m)
    base = {name: rng.standard_normal(shape) for name, shape in SHAPES.items()}
    paths = []
    for i in range(m):
        path = root / f"e{i}.st"
        records = [
            TensorRecord(name, b + float(rng.uniform(0.5, 3.0)) * rng.standard_normal(b.shape))
            for name, b in base.items()
        ]
        write_checkpoint(path, records)
        paths.append(path)
    write_checkpoint(root / "base.st", [TensorRecord(n, b) for n, b in base.items()])
    return paths, root / "base.st"


def _merge(paths, base_path, kind, weights, out: Path) -> dict:
    handles = [open_checkpoint(p) for p in paths]
    base = open_checkpoint(base_path)
    try:
        job = MergeJob(
            sources=handles,
            base=base,
            method=MergeMethod(kind),
            out_path=out,
            weights=weights,
            out_dtype="f64",
        )
        summary = run_merge(job).to_dict()
    finally:
        for h in [*handles, base]:
            h.close()
    del summary["wall_ms"]
    return summary


@pytest.mark.parametrize("m", [3, 10])
@pytest.mark.parametrize("kind", ["lerp", "karcher", "ties", "model_stock"])
def test_no_weights_merges_as_equal_weights(tmp_path, kind, m):
    paths, base = _models(tmp_path, m)
    uniform = _merge(paths, base, kind, None, tmp_path / "none.st")
    ones = _merge(paths, base, kind, [1.0] * m, tmp_path / "ones.st")
    assert uniform == ones
    assert (tmp_path / "none.st").read_bytes() == (tmp_path / "ones.st").read_bytes()


@pytest.mark.parametrize("m", [1, 3, 10])
def test_no_weights_reports_as_equal_weights(tmp_path, m):
    """The summary's norms give the same shrinkage ratio
    norm_out / sum_i w_i norm_in_i with no weights as with ``[1.0] * m``."""
    paths, base = _models(tmp_path, m)
    reports = []
    for weights, out in ((None, "none.st"), ([1.0] * m, "ones.st")):
        alphas = normalized_weights(np.ones(m) if weights is None else weights, m)
        summary = _merge(paths, base, "lerp", weights, tmp_path / out)
        reports.append(
            {
                row["name"]: row["norm_out"] / float(np.dot(alphas, row["norm_in"]))
                for row in summary["per_tensor"]
            }
        )
    assert sorted(reports[0]) == sorted(SHAPES)
    assert reports[0] == reports[1]


def test_uniform_weights_are_the_rounded_reciprocal():
    for m in range(1, 200):
        want = np.full(m, 1.0 / m)
        assert normalized_weights(np.ones(m), m).tobytes() == want.tobytes(), m


def _full_calls(tree: ast.Module) -> list[int]:
    """Lines of every ``np.full`` / ``numpy.full`` call in ``tree`` whose fill
    value is a division, the form of a hand-built weight vector."""
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "full"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        fills = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "fill_value"]
        if any(isinstance(f, ast.BinOp) and isinstance(f.op, ast.Div) for f in fills):
            lines.append(node.lineno)
    return lines


def test_no_hand_built_weight_vector_in_src():
    found = {
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _full_calls(ast.parse(path.read_text(), str(path)))
    }
    assert not found, found


def test_guard_sees_a_hand_built_weight_vector():
    source = "import numpy as np\nw = np.full(3, 1.0 / 3)\nv = np.full(m, fill_value=1 / m)\n"
    assert _full_calls(ast.parse(source)) == [2, 3]


def test_guard_passes_other_fills():
    source = "import numpy as np\nw = np.full(3, -1.0)\nv = np.full((2, 2), x * 2)\n"
    assert _full_calls(ast.parse(source)) == []
