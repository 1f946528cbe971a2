"""Finite values that do not fit: a source beyond the working precision, and
norms beyond float64's range.

Two f64 sources ``[1e308] * 4`` and ``[1.5e308] * 4`` hold only finite
values.  At the default f32 working precision they do not load: that is a
per-tensor error saying so, with no numpy warning.  At f64 they load and
merge by lerp to finite values, but their norms (2e308 and more) exceed
float64: that is a per-tensor ``NonFiniteError`` too, so no summary holds
``Infinity``.  Strict runs exit 3; non-strict runs copy the tensor through
and list it as skipped.  The runs are in a child interpreter, where a numpy
warning would reach stderr instead of failing the test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geomerge.errors import DTypeOverflowError, NonFiniteError
from geomerge.tensor_io import TensorRecord, open_checkpoint, write_checkpoint
from oracles import read_records

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(*args: str) -> subprocess.CompletedProcess:
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


@pytest.fixture
def huge(tmp_path) -> Path:
    for tag, value in (("h0", 1e308), ("h1", 1.5e308)):
        records = [TensorRecord("w", np.full(4, value)), TensorRecord("ok", np.ones(3))]
        write_checkpoint(tmp_path / f"{tag}.st", records, output_dtype="f64")
    return tmp_path


def _recipe(root: Path, strict: bool, precision: str = "f32") -> Path:
    path = root / "r.yaml"
    path.write_text(
        f"method: lerp\nmodels: [{root / 'h0.st'}, {root / 'h1.st'}]\n"
        f"parameters: {{strict: {str(strict).lower()}, precision: {precision}}}\n"
        f"output: {{path: {root / 'm.st'}, dtype: f64}}\n"
    )
    return path


class TestBeyondTheWorkingPrecision:
    def test_load_names_the_file_and_the_precision(self, huge):
        with open_checkpoint(huge / "h1.st") as handle:
            with pytest.raises(DTypeOverflowError) as caught:
                handle.load_tensor("w", "f32")
            assert str(caught.value) == (
                f"tensor 'w' in {huge / 'h1.st'} holds 1.5e+308, beyond the range of the "
                "f32 working precision; set precision: f64"
            )
            assert handle.load_tensor("w", "f64").data.tolist() == [1.5e308] * 4
            # without the check the values load as they narrow
            assert np.isinf(handle.load_tensor("w", "f32", strict=False).data).all()

    def test_nan_in_the_source_is_still_reported_as_nan(self, tmp_path):
        write_checkpoint(
            tmp_path / "n.st", [TensorRecord("w", np.array([1e308, np.nan]))], output_dtype="f64"
        )
        with open_checkpoint(tmp_path / "n.st") as handle:
            with pytest.raises(NonFiniteError, match=r"^tensor 'w' in .* contains NaN/Inf$"):
                handle.load_tensor("w", "f32")

    def test_strict_run_exits_3_with_one_true_message(self, huge):
        proc = _cli("merge", str(_recipe(huge, strict=True)))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            f"error: tensor 'w' in {huge / 'h0.st'} holds 1e+308, beyond the range of the "
            "f32 working precision; set precision: f64\n"
        )
        assert not (huge / "m.st").exists()

    def test_non_strict_run_copies_the_tensor_through(self, huge):
        proc = _cli("merge", str(_recipe(huge, strict=False)))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        assert "set precision: f64" in proc.stderr
        summary = _strict_json((huge / "m.st.summary.json").read_text())
        assert summary["tensors_skipped"] == ["w"]
        assert [t["name"] for t in summary["per_tensor"]] == ["ok"]


class TestNormsBeyondFloat64:
    def test_strict_run_exits_3(self, huge):
        proc = _cli("merge", str(_recipe(huge, strict=True, precision="f64")))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: tensor 'w': norm beyond float64 range\n"
        assert not (huge / "m.st").exists()
        assert not (huge / "m.st.summary.json").exists()

    def test_non_strict_run_falls_back_and_the_summary_is_json(self, huge):
        proc = _cli("merge", str(_recipe(huge, strict=False, precision="f64")))
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        assert "tensor 'w' failed (norm beyond float64 range)" in proc.stderr
        summary = _strict_json((huge / "m.st.summary.json").read_text())
        assert summary["tensors_skipped"] == ["w"]
        assert [t["name"] for t in summary["per_tensor"]] == ["ok"]
        merged = read_records(huge / "m.st", precision="f64")
        assert merged["w"].data.tolist() == [1e308] * 4  # the first source's copy
