"""Values at the edge of float64: norms whose squares overflow, merges that
overflow, and the one norm every report uses.

A norm is finite whenever it fits in float64, even where the sum of squares
does not.  A merged tensor with a NaN or Inf entry is a per-tensor numeric
failure, like any other: strict runs exit 3 naming the tensor, non-strict
runs copy the fallback and list the tensor as skipped.  Nothing writes
``Infinity`` or ``NaN`` into a JSON file.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from geomerge.cli import main
from geomerge.sphere import norm
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import build_container, read_records

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, with Python's default warning filters."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, "-m", "geomerge.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _strict_json(text: str) -> dict:
    def reject(constant: str):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _write(path: Path, tensors: dict[str, np.ndarray], dtype: str) -> None:
    write_checkpoint(path, [TensorRecord(k, v, dtype) for k, v in tensors.items()], dtype)


def _recipe(root: Path, kind: str, models: list[str], params: dict, base: str | None = None,
            out_dtype: str = "f64") -> Path:
    path = root / f"{kind}.yaml"
    path.write_text(
        f"method: {kind}\n"
        f"models: [{', '.join(str(root / m) for m in models)}]\n"
        + (f"base_model: {root / base}\n" if base else "")
        + f"parameters: {json.dumps(params)}\n"
        + f"output: {{path: {root / kind}.st, dtype: {out_dtype}}}\n"
    )
    return path


class TestNorm:
    @pytest.mark.parametrize("scale", [1e200, -3e170, 1e155])
    def test_finite_norm_of_overflowing_squares(self, scale):
        v = scale * np.array([1.0, 1.0, 1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(v) == 2.0 * abs(scale)
            assert norm(v.reshape(2, 2)) == 2.0 * abs(scale)

    def test_norm_beyond_float64_is_inf(self):
        assert norm(np.full(4, 1e308)) == math.inf

    def test_non_finite_entries_keep_their_norm(self):
        assert norm(np.array([1e200, np.inf])) == math.inf
        assert math.isnan(norm(np.array([np.nan, 1e200, 1e200])))

    def test_a_finite_sum_keeps_its_bits(self):
        v = np.random.default_rng(4).standard_normal(1000) * 1e150
        assert norm(v) == math.sqrt(np.einsum("i,i->", v, v))


def test_sources_whose_squared_norm_overflows(tmp_path):
    """lerp merges them with a finite summary; the spherical rules either
    merge them to a finite, norm-preserving result or exit 3 naming the
    float64 range of the squared norm."""
    v = np.array([1e200, 1e200, 1e200, -1e200])
    _write(tmp_path / "a.st", {"w": v}, "f64")
    _write(tmp_path / "b.st", {"w": 2.0 * v}, "f64")
    for kind in ("lerp", "karcher", "multislerp"):
        recipe = _recipe(tmp_path, kind, ["a.st", "b.st"], {"precision": "f64"})
        proc = _cli("merge", str(recipe), "--threads", "2")
        assert "Warning" not in proc.stderr, (kind, proc.stderr)
        if kind != "lerp" and proc.returncode == 3:
            assert "squared norm beyond float64 range" in proc.stderr, proc.stderr
            continue
        assert proc.returncode == 0, (kind, proc.stderr)
        summary = _strict_json((tmp_path / f"{kind}.st.summary.json").read_text())
        (stats,) = summary["per_tensor"]
        assert stats["norm_in"] == [2e200, 4e200]
        merged = read_records(tmp_path / f"{kind}.st", precision="f64")["w"].data
        assert np.isfinite(merged).all(), (kind, merged)
        assert stats["norm_out"] == norm(merged)
        if kind != "lerp":  # norm-preserving: the mean of the source norms
            assert stats["norm_out"] == pytest.approx(3e200, rel=1e-12)


class TestOverflowingMerge:
    """task_arithmetic with lambda 1e308 on a base of zeros and an expert of
    tens overflows float64 in every element of ``w``.  The runs are in a
    child interpreter, where numpy's overflow warning would not fail them."""

    @pytest.fixture
    def models(self, tmp_path) -> Path:
        zeros = {"w": np.zeros(5, np.float32), "ok": np.zeros((2, 3), np.float32)}
        _write(tmp_path / "base.st", zeros, "f32")
        _write(tmp_path / "x.st", {**zeros, "w": np.full(5, 10.0, np.float32)}, "f32")
        return tmp_path

    @pytest.mark.parametrize("out_dtype", ["f32", "f64"])
    def test_strict_run_exits_3_naming_the_tensor(self, models, out_dtype):
        recipe = _recipe(models, "task_arithmetic", ["x.st"], {"lambda": 1e308}, "base.st",
                         out_dtype)
        proc = _cli("merge", str(recipe), "--threads", "2")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: tensor 'w': merge produced NaN/Inf values\n", proc.stderr
        assert not (models / "task_arithmetic.st").exists()

    @pytest.mark.parametrize("out_dtype", ["f32", "f64"])
    def test_non_strict_run_copies_the_fallback(self, models, out_dtype):
        params = {"lambda": 1e308, "strict": False}
        recipe = _recipe(models, "task_arithmetic", ["x.st"], params, "base.st", out_dtype)
        proc = _cli("merge", str(recipe), "--threads", "2")
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        assert "tensor 'w' failed (merge produced NaN/Inf values)" in proc.stderr
        summary = _strict_json((models / "task_arithmetic.st.summary.json").read_text())
        assert summary["tensors_skipped"] == ["w"]
        assert [s["name"] for s in summary["per_tensor"]] == ["ok"]
        merged = read_records(models / "task_arithmetic.st", precision="f64")
        assert merged["w"].data.tobytes() == np.zeros(5).tobytes()  # the base's copy
        assert merged["ok"].data.tobytes() == np.zeros((2, 3)).tobytes()


def test_inspect_norms_are_the_summary_norms(tmp_path, capsys):
    rng = np.random.default_rng(8)
    names = [f"t{i}" for i in range(6)]
    for tag in "abc":
        _write(tmp_path / f"{tag}.st",
               {n: rng.standard_normal((200, 137)).astype(np.float32) for n in names}, "f32")
    recipe = _recipe(tmp_path, "karcher", ["a.st", "b.st", "c.st"], {})
    assert main(["merge", str(recipe), "--threads", "2"]) == 0
    summary = _strict_json((tmp_path / "karcher.st.summary.json").read_text())
    capsys.readouterr()
    assert main(["inspect", str(tmp_path / "karcher.st"), "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)["tensors"]
    assert [t["name"] for t in listed] == names
    assert [t["norm"] for t in listed] == [s["norm_out"] for s in summary["per_tensor"]]


def test_inspect_json_gives_null_for_a_non_finite_norm(tmp_path, capsys):
    """A NaN entry, or a norm beyond float64 with every entry finite, lists
    as null: strict JSON has no NaN or Infinity.  The text table is as before."""
    entries = {
        "finite": ("F32", [2], np.array([3.0, 4.0], "<f4").tobytes()),
        "huge": ("F64", [4], np.array([1e308] * 4, "<f8").tobytes()),
        "nan": ("F32", [2], np.array([1.0, np.nan], "<f4").tobytes()),
    }
    (tmp_path / "c.st").write_bytes(build_container(entries))
    assert main(["inspect", str(tmp_path / "c.st"), "--json"]) == 0
    listed = _strict_json(capsys.readouterr().out)["tensors"]
    norms = [(t["name"], t["norm"]) for t in listed]
    assert norms == [("finite", 5.0), ("huge", None), ("nan", None)]
    assert main(["inspect", str(tmp_path / "c.st")]) == 0
    column = [line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert column == ["5", "inf", "nan"]
