"""Paths that name a directory, on both sides of a command.

A checkpoint path that names a directory (or anything but a regular file)
exits 2 with one ``error:`` line that names the path.  An output that names
an existing directory is refused the same way before any payload is read:
the merge output when its writer opens, and ``diagnose --out`` and ``--csv``
before the first draw.  No temporary file is left behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from geomerge import tensor_io
from geomerge.cli import main
from geomerge.tensor_io import TensorRecord, write_checkpoint


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(3)
    for tag in "ab":
        write_checkpoint(tmp_path / f"{tag}.st", [TensorRecord("w", rng.standard_normal((4, 3)))])
    (tmp_path / "sub").mkdir()
    return tmp_path


@pytest.fixture
def reads(monkeypatch):
    calls: list[tuple[int, int]] = []
    real = tensor_io._pread

    def spy(fd, size, offset, *into):
        calls.append((size, offset))
        return real(fd, size, offset, *into)

    monkeypatch.setattr(tensor_io, "_pread", spy)
    return calls


def _recipe(root, models: str, output: str):
    path = root / "r.yaml"
    path.write_text(f"method: lerp\nmodels: [{models}]\noutput: {{path: {root / output}}}\n")
    return path


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


# -- a checkpoint path that names a directory -------------------------------------


def test_merge_model_that_is_a_directory(inputs, capsys):
    recipe = _recipe(inputs, f"{inputs / 'a.st'}, {inputs / 'sub'}", "m.st")
    assert main(["merge", str(recipe)]) == 2
    assert f"not a regular file: {inputs / 'sub'}" in _one_error_line(capsys)


def test_diagnose_input_that_is_a_directory(inputs, capsys):
    assert main(["diagnose", str(inputs / "sub"), "--out", str(inputs / "r.json")]) == 2
    assert f"not a regular file: {inputs / 'sub'}" in _one_error_line(capsys)
    assert not (inputs / "r.json").exists()


def test_inspect_of_a_directory(inputs, capsys):
    assert main(["inspect", str(inputs / "sub")]) == 2
    assert f"not a regular file: {inputs / 'sub'}" in _one_error_line(capsys)


# -- an output path that names a directory -----------------------------------------


def test_merge_output_that_is_a_directory(inputs, capsys, reads):
    recipe = _recipe(inputs, f"{inputs / 'a.st'}, {inputs / 'b.st'}", "sub")
    assert main(["merge", str(recipe)]) == 2
    assert f"Is a directory: '{inputs / 'sub'}'" in _one_error_line(capsys)
    assert reads == []
    assert sorted(p.name for p in inputs.iterdir()) == ["a.st", "b.st", "r.yaml", "sub"]
    assert not any((inputs / "sub").iterdir())


def test_merge_output_through_a_symlink_to_a_directory_replaces_the_link(inputs):
    (inputs / "link").symlink_to(inputs / "sub")
    recipe = _recipe(inputs, f"{inputs / 'a.st'}, {inputs / 'b.st'}", "link")
    assert main(["merge", str(recipe)]) == 0
    assert (inputs / "link").is_file() and not (inputs / "link").is_symlink()


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_diagnose_output_that_is_a_directory(inputs, capsys, reads, flag):
    acts = inputs / "acts.st"
    write_checkpoint(acts, [TensorRecord("layer_0", np.ones((4, 2)))])
    outputs = {"--out": inputs / "r.json", "--csv": inputs / "r.csv", flag: inputs / "sub"}
    argv = ["diagnose", str(acts), *[str(a) for kv in outputs.items() for a in kv]]
    assert main(argv) == 2
    assert f"Is a directory: '{inputs / 'sub'}'" in _one_error_line(capsys)
    assert reads == []
    assert not (inputs / "r.json").exists() and not (inputs / "r.csv").exists()


# -- an output that cannot be created ------------------------------------------------


@pytest.mark.parametrize(
    "output,code",
    [
        ("nodir/m.st", "[Errno 2] No such file or directory"),
        ("a.st/m.st", "[Errno 20] Not a directory"),
    ],
)
def test_merge_output_that_cannot_be_created_is_named(inputs, capsys, reads, output, code):
    """The error names the output the recipe gave, not the temporary sibling
    the writer opens, so the same run prints the same line every time."""
    recipe = _recipe(inputs, f"{inputs / 'a.st'}, {inputs / 'b.st'}", output)
    before = sorted(p.name for p in inputs.iterdir())
    for _ in range(2):
        assert main(["merge", str(recipe)]) == 2
        assert _one_error_line(capsys) == f"error: {code}: '{inputs / output}'"
    assert reads == []
    assert sorted(p.name for p in inputs.iterdir()) == before
