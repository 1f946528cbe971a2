"""Recipe paths: each must name a file, and a model given as a plain path
takes ``--set models.N.<key>=...`` overrides like the mapping form."""

from __future__ import annotations

import json

import numpy as np
import pytest

from geomerge.cli import main
from geomerge.tensor_io import TensorRecord, write_checkpoint


@pytest.fixture
def sources(tmp_path, monkeypatch):
    """a.st, b.st, c.st and base.st in a fresh working directory."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(21)
    for tag in ("a", "b", "c", "base"):
        records = [TensorRecord("w", rng.standard_normal((3, 5)))]
        records.append(TensorRecord("v", rng.standard_normal(4)))
        write_checkpoint(tmp_path / f"{tag}.st", records)
    return tmp_path


def _run(tmp_path, capsys, text: str, *args: str) -> tuple[int, str]:
    (tmp_path / "r.yaml").write_text(text)
    before = sorted(tmp_path.iterdir())
    rc = main(["merge", "r.yaml", *args])
    err = capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before  # no output, summary or .tmp sibling
    return rc, err


@pytest.mark.parametrize("path", ["", ".", "/", "..", "out/.."])
def test_output_path_names_no_file_exit_1(sources, capsys, path):
    text = f"method: lerp\nmodels: [a.st, b.st]\noutput: {{path: '{path}'}}\n"
    rc, err = _run(sources, capsys, text)
    assert rc == 1
    assert err.splitlines() == [f"error: r.yaml: output.path must name a file, got {path!r}"]


@pytest.mark.parametrize("method", ["ties", "karcher"])
def test_empty_base_model_exit_1(sources, capsys, method):
    text = f"method: {method}\nmodels: [a.st, b.st]\nbase_model: ''\noutput: {{path: m.st}}\n"
    rc, err = _run(sources, capsys, text)
    assert rc == 1
    assert err.splitlines() == ["error: r.yaml: base_model must name a file, got ''"]


@pytest.mark.parametrize(
    "models, key, path",
    [("['', b.st]", "models[0].path", ""), ("[a.st, {path: .}]", "models[1].path", ".")],
)
def test_model_path_names_no_file_exit_1(sources, capsys, models, key, path):
    rc, err = _run(sources, capsys, f"method: lerp\nmodels: {models}\noutput: {{path: m.st}}\n")
    assert rc == 1
    assert err.splitlines() == [f"error: r.yaml: {key} must name a file, got {path!r}"]


def _merged(tmp_path, capsys, models: str, *args: str) -> tuple[bytes, dict]:
    """Lerp ``models``; the checkpoint bytes and the summary without ``wall_ms``."""
    (tmp_path / "r.yaml").write_text(f"method: lerp\nmodels: {models}\noutput: {{path: m.st}}\n")
    assert main(["merge", "r.yaml", *args]) == 0, capsys.readouterr().err
    summary = json.loads((tmp_path / "m.st.summary.json").read_text())
    del summary["wall_ms"]
    return (tmp_path / "m.st").read_bytes(), summary


def test_override_into_a_plain_path_model(sources, capsys):
    by_override = _merged(sources, capsys, "[a.st, c.st]", "--set", "models.0.weight=2")
    assert by_override == _merged(sources, capsys, "[{path: a.st, weight: 2}, c.st]")
    assert by_override[0] != _merged(sources, capsys, "[a.st, c.st]")[0]


def test_override_path_and_weight_of_a_plain_path_model(sources, capsys):
    overrides = ["--set", "models.1.path=b.st", "--set", "models.1.weight=3"]
    by_override = _merged(sources, capsys, "[a.st, c.st]", *overrides)
    assert by_override == _merged(sources, capsys, "[a.st, {path: b.st, weight: 3}]")
