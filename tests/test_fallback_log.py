"""A non-strict fallback names the failed tensor once.

When a tensor fails to load in a non-strict run, the log line gives the
name and then the load error's reason; the reason does not repeat the name.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from geomerge.cli import main
from geomerge.tensor_io import TensorRecord, write_checkpoint


def _merge(root: Path, tensors: dict[str, list[np.ndarray]], caplog) -> list[str]:
    """Lerp one f64 source per list entry, non-strict; the fallback log lines."""
    models = []
    for i in range(len(next(iter(tensors.values())))):
        models.append(root / f"s{i}.st")
        records = [TensorRecord(name, values[i]) for name, values in tensors.items()]
        write_checkpoint(models[-1], records, output_dtype="f64")
    recipe = root / "r.yaml"
    recipe.write_text(
        f"method: lerp\nmodels: [{', '.join(map(str, models))}]\n"
        "parameters: {strict: false}\n"
        f"output: {{path: {root / 'm.st'}, dtype: f64}}\n"
    )
    with caplog.at_level(logging.WARNING):
        assert main(["merge", str(recipe), "--threads", "2"]) == 0
    return [r.getMessage() for r in caplog.records if "copying fallback" in r.getMessage()]


def test_non_finite_source(tmp_path, caplog):
    ok = np.ones(3)
    logs = _merge(tmp_path, {"n": [ok, np.array([1.0, np.nan, 2.0])], "ok": [ok, ok]}, caplog)
    assert logs == [
        f"tensor 'n' failed ({tmp_path / 's1.st'} contains NaN/Inf); copying fallback"
    ]


def test_source_beyond_the_working_precision(tmp_path, caplog):
    ok = np.ones(3)
    logs = _merge(tmp_path, {"w": [np.full(4, 1e308), np.full(4, 1.5e308)], "ok": [ok, ok]}, caplog)
    assert logs == [
        f"tensor 'w' failed ({tmp_path / 's0.st'} holds 1e+308, beyond the range of the "
        "f32 working precision; set precision: f64); copying fallback"
    ]
