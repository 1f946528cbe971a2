"""slerp and model_stock read no model weights (slerp reads ``t``, and Model
Stock's expert mean is uniform by definition).  Unequal weights for them are
refused when the recipe is parsed, with exit 1 and one ``error:`` line,
before any payload is read; equal or omitted weights merge as before.  Every
other kind's output follows its weights, so ``MethodSpec.weighted`` says
which kinds read them.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from geomerge import tensor_io
from geomerge.cli import main
from geomerge.errors import ConfigError
from geomerge.merge_methods import METHODS, MergeJob, MergeMethod, run_merge
from geomerge.tensor_io import TensorRecord, open_checkpoint, write_checkpoint

UNWEIGHTED = {"slerp": [1, 9], "model_stock": [1, 5, 20]}


@pytest.fixture
def models(tmp_path):
    rng = np.random.default_rng(53)
    base = {"w": rng.standard_normal((4, 6)), "b": rng.standard_normal(9)}
    write_checkpoint(tmp_path / "base.st", [TensorRecord(k, v) for k, v in base.items()])
    for i in range(3):
        records = [TensorRecord(k, v + rng.standard_normal(v.shape)) for k, v in base.items()]
        write_checkpoint(tmp_path / f"e{i}.st", records)
    return tmp_path


@pytest.fixture
def reads(monkeypatch):
    calls: list[int] = []
    real = tensor_io._pread

    def spy(fd, size, offset, *into):
        calls.append(size)
        return real(fd, size, offset, *into)

    monkeypatch.setattr(tensor_io, "_pread", spy)
    return calls


def _recipe(root, kind: str, weights: list | None, out: str = "merged") -> str:
    count = 2 if kind == "slerp" else 3
    models = "".join(
        f"  - path: {root / f'e{i}.st'}\n" + (f"    weight: {weights[i]}\n" if weights else "")
        for i in range(count)
    )
    path = root / f"{out}.yaml"
    path.write_text(
        f"method: {kind}\nbase_model: {root / 'base.st'}\nmodels:\n{models}"
        f"output: {{path: {root / out}.st, dtype: f64}}\n"
    )
    return str(path)


@pytest.mark.parametrize("kind", sorted(UNWEIGHTED))
def test_unequal_weights_are_refused_before_any_read(models, capsys, reads, kind):
    weights = UNWEIGHTED[kind]
    recipe = _recipe(models, kind, weights)
    assert main(["merge", recipe]) == 1
    listed = ", ".join(map(str, weights))
    assert capsys.readouterr().err.splitlines() == [
        f"error: {recipe}: {kind} does not weight its models; "
        f"give them equal weights or none (got {listed})"
    ]
    assert reads == [] and not (models / "merged.st").exists()


@pytest.mark.parametrize("kind", sorted(UNWEIGHTED))
def test_an_unequal_override_is_refused(models, capsys, kind):
    assert main(["merge", _recipe(models, kind, None), "--set", "models.1.weight=3"]) == 1
    assert "does not weight its models" in capsys.readouterr().err
    assert not (models / "merged.st").exists()


@pytest.mark.parametrize("kind", sorted(UNWEIGHTED))
def test_equal_weights_merge_as_omitted_ones(models, kind):
    count = len(UNWEIGHTED[kind])
    assert main(["merge", _recipe(models, kind, None, "omitted")]) == 0
    assert main(["merge", _recipe(models, kind, [2.5] * count, "equal")]) == 0
    assert (models / "equal.st").read_bytes() == (models / "omitted.st").read_bytes()


def _job_outcome(root, kind: str, weights: list | None) -> bytes:
    count = 2 if kind == "slerp" else 3
    out = root / "job.st"
    with contextlib.ExitStack() as stack:
        job = MergeJob(
            sources=[stack.enter_context(open_checkpoint(root / f"e{i}.st")) for i in range(count)],
            base=stack.enter_context(open_checkpoint(root / "base.st")),
            method=MergeMethod(kind),
            out_path=out,
            weights=weights,
            out_dtype="f64",
        )
        run_merge(job)
    return out.read_bytes()


@pytest.mark.parametrize("kind", list(METHODS))
def test_weighted_says_whether_the_output_follows_the_weights(models, reads, kind):
    weights = [1, 9] if kind == "slerp" else [1, 5, 20]
    if METHODS[kind].weighted:
        assert _job_outcome(models, kind, weights) != _job_outcome(models, kind, None)
        return
    with pytest.raises(ConfigError, match=f"{kind} does not weight its models"):
        _job_outcome(models, kind, weights)
    assert reads == []
