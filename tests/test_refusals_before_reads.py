"""Refusals that come before any payload is read.

- An output that cannot be created (its parent is missing or is not a
  directory) is refused at once: by ``merge`` even where a non-strict run
  would first merge a tensor to fix the output layout, and by ``diagnose``
  for ``--out`` and ``--csv`` before the first draw.  The one ``error:``
  line names the path the user gave, and no file is left.
- The source-count and toy-forward bias refusals exit with their code and
  one line, with no payload read.
- The unknown-key refusal of recipes, parameters and toy-forward specs is
  spelled in one function of ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from geomerge import diagnostics, tensor_io
from geomerge.cli import main
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import build_container

SRC = Path(__file__).resolve().parent.parent / "src" / "geomerge"

UNCREATABLE = [
    ("nodir", "[Errno 2] No such file or directory"),
    ("a.st", "[Errno 20] Not a directory"),
]


@pytest.fixture
def reads(monkeypatch):
    calls: list[tuple[int, int]] = []
    real = tensor_io._pread

    def spy(fd, size, offset, *into):
        calls.append((size, offset))
        return real(fd, size, offset, *into)

    monkeypatch.setattr(tensor_io, "_pread", spy)
    return calls


@pytest.fixture
def bootstraps(monkeypatch):
    labels: list[str] = []
    real = diagnostics.bootstrap_stats

    def spy(layer, draws, seed, threads=None):
        labels.append(layer.label)
        return real(layer, draws, seed, threads)

    monkeypatch.setattr(diagnostics, "bootstrap_stats", spy)
    return labels


def _write(path, tensors):
    write_checkpoint(path, [TensorRecord(k, np.asarray(v)) for k, v in tensors.items()], "f64")


def _files(root) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def _refused(capsys, argv, code: int, message: str) -> None:
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


# -- an output that cannot be created --------------------------------------------------


@pytest.mark.parametrize("parent,errno_text", UNCREATABLE)
def test_merge_output_refused_before_an_early_merge_reads(
    tmp_path, capsys, reads, parent, errno_text
):
    """The base, which lerp does not read, holds ``e`` in another shape: a
    non-strict run merges ``e`` once to fix the layout unless the output is
    refused first."""
    rng = np.random.default_rng(19)
    for tag in "ab":
        _write(tmp_path / f"{tag}.st", {"e": rng.standard_normal(4), "w": rng.standard_normal(3)})
    _write(tmp_path / "base.st", {"e": rng.standard_normal(5), "w": rng.standard_normal(3)})
    out = tmp_path / parent / "m.st"
    recipe = tmp_path / "r.yaml"
    recipe.write_text(
        f"method: lerp\nmodels: [{tmp_path / 'a.st'}, {tmp_path / 'b.st'}]\n"
        f"base_model: {tmp_path / 'base.st'}\nparameters: {{strict: false}}\n"
        f"output: {{path: {out}}}\n"
    )
    before = _files(tmp_path)
    _refused(capsys, ["merge", str(recipe)], 2, f"{errno_text}: '{out}'")
    assert reads == []
    assert _files(tmp_path) == before


@pytest.fixture
def acts(tmp_path):
    rng = np.random.default_rng(20)
    _write(tmp_path / "acts.st", {f"layer_{k}": rng.standard_normal((6, 3)) for k in range(2)})
    _write(tmp_path / "a.st", {"w": np.ones(3)})
    return tmp_path


@pytest.mark.parametrize("parent,errno_text", UNCREATABLE)
@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_diagnose_output_refused_before_any_read(
    acts, capsys, reads, bootstraps, flag, parent, errno_text
):
    outputs = {"--out": acts / "r.json", "--csv": acts / "r.csv", flag: acts / parent / "r"}
    before = _files(acts)
    argv = ["diagnose", str(acts / "acts.st"), *[str(a) for kv in outputs.items() for a in kv]]
    _refused(capsys, argv, 2, f"{errno_text}: '{acts / parent / 'r'}'")
    assert reads == [] and bootstraps == []
    assert _files(acts) == before


# -- source counts and the toy-forward bias ----------------------------------------------


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(21)
    for tag in ("a", "base"):
        _write(tmp_path / f"{tag}.st", {"w": rng.standard_normal(3)})
    return tmp_path


@pytest.mark.parametrize(
    "method,base,message",
    [
        ("multislerp", "", "multislerp requires at least 2 models, got 1"),
        (
            "model_stock",
            "base_model: base.st\n",
            "model_stock requires at least 2 expert models, got 1",
        ),
    ],
)
def test_too_few_sources(workdir, capsys, reads, method, base, message):
    recipe = f"method: {method}\nmodels: [a.st]\n{base}output: {{path: o.st}}\n"
    (workdir / "r.yaml").write_text(recipe)
    _refused(capsys, ["merge", "r.yaml"], 1, f"r.yaml: {message}")
    assert reads == []
    assert not (workdir / "o.st").exists()


def test_toy_forward_bias_of_the_wrong_length(workdir, capsys, reads):
    _write(workdir / "net.st", {"w": np.ones((4, 3)), "b": np.ones(5)})
    (workdir / "s.yaml").write_text("layers: [{weight: w, bias: b}]\n")
    argv = ["diagnose", "net.st", "--out", "r.json", "--toy-forward", "s.yaml"]
    _refused(capsys, argv, 3, "shape mismatch at layer 1: bias has 5 entries, expected 3")
    assert reads == []
    assert not (workdir / "r.json").exists()


# -- one unknown-key refusal ---------------------------------------------------------------


def _unknown_key_sites(tree: ast.Module) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of every string constant that spells
    ``unknown key``, alone or inside an f-string; docstrings are prose."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
    }
    found: list[tuple[int, str | None]] = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "unknown key" in node.value and id(node) not in docstrings:
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_unknown_key_refusal_is_spelled_once():
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for line, func in _unknown_key_sites(ast.parse(path.read_text(), str(path))):
            sites[f"{path.name}:{line}"] = func
    assert len(sites) == 1, sites
    ((site, func),) = sites.items()
    assert site.startswith("errors.py:") and func == "refuse_unknown_keys", sites


def test_guard_sees_a_stray_refusal():
    text = (
        'def f(k):\n    """Refuse an unknown key."""\n'
        '    raise ValueError(f"x: unknown key {k!r}")\n'
    )
    assert _unknown_key_sites(ast.parse(text)) == [(3, "f")]


# -- a tensor name that is not valid Unicode ------------------------------------------------

# JSON's \ud800 escape, valid JSON, decodes to a lone surrogate
SURROGATE = "w\ud800"


@pytest.mark.parametrize("command", ["lerp", "dare_ties", "inspect", "diagnose"])
def test_a_name_that_is_not_unicode_is_refused_at_open(tmp_path, capsys, reads, command):
    rng = np.random.default_rng(31)
    raw = {name: rng.standard_normal(2).astype("<f8").tobytes() for name in ("v", SURROGATE)}
    odd = tmp_path / "odd.st"
    odd.write_bytes(build_container({name: ("F64", [2], data) for name, data in raw.items()}))
    _write(tmp_path / "a.st", {"v": rng.standard_normal(2), "w": rng.standard_normal(2)})
    out = tmp_path / "out"
    recipe = tmp_path / "r.yaml"
    if command == "lerp":
        recipe.write_text(
            f"method: lerp\nmodels: [{tmp_path / 'a.st'}, {odd}]\noutput: {{path: {out}}}\n"
        )
    else:
        recipe.write_text(
            f"method: dare_ties\nbase_model: {tmp_path / 'a.st'}\n"
            f"models: [{tmp_path / 'a.st'}, {odd}]\nparameters: {{seed: 3}}\n"
            f"output: {{path: {out}}}\n"
        )
    argv = {
        "inspect": ["inspect", str(odd)],
        "diagnose": ["diagnose", str(odd), "--out", str(out)],
    }.get(command, ["merge", str(recipe), "--threads", "2"])
    message = f"malformed container {odd}: tensor name 'w\\ud800' is not valid Unicode"
    _refused(capsys, argv, 2, message)
    assert reads == []
    assert _files(tmp_path) == ["a.st", "odd.st", "r.yaml"]
