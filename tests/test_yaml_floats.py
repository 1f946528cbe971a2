"""YAML exponent floats, read the same way at every YAML site.

PyYAML follows YAML 1.1, whose float needs a dot and a signed exponent, so
``1e-8`` used to load as the string ``'1e-8'`` and a recipe with
``tol: 1e-8`` exited 1.  ``recipe.load_yaml`` adds the YAML 1.2 exponent
float; every other scalar keeps its type.
"""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import geomerge.cli as cli
from geomerge.cli import main
from geomerge.errors import ConfigError
from geomerge.recipe import load_yaml, parse_recipe
from geomerge.tensor_io import TensorRecord, write_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src" / "geomerge"


def _recipe(params: str, weight: str = "1.0") -> str:
    return (
        "method: karcher\n"
        f"models: [{{path: a.st, weight: {weight}}}, b.st]\n"
        f"parameters: {params}\n"
        "output: {path: m.st}\n"
    )


@pytest.mark.parametrize(
    "text,value", [("1e-8", 1e-8), ("1E+3", 1e3), ("1.0e6", 1e6), ("-2e5", -2e5), (".5e1", 5.0)]
)
def test_exponent_spellings_load_as_floats(text, value):
    assert load_yaml(text) == value and type(load_yaml(text)) is float


@pytest.mark.parametrize("text", ["1e-8", "1E+3", "1.0e6"])
def test_exponent_tol_through_parse_recipe(text):
    recipe = parse_recipe(_recipe(f"{{tol: {text}}}"))
    assert recipe.method.param("tol") == float(text)


def test_signed_exponent_lambda_through_parse_recipe():
    recipe = parse_recipe(
        "method: task_arithmetic\nmodels: [a.st]\nbase_model: b.st\n"
        "parameters: {lambda: -2e5}\noutput: {path: m.st}\n"
    )
    assert recipe.method.param("lambda") == -2e5


def test_exponent_weight_through_parse_recipe():
    assert parse_recipe(_recipe("{}", weight="1E+3")).weights == [1e3, 1.0]


@pytest.mark.parametrize(
    "key,text,value,kind",
    [
        ("max_iter", "7", 7, int),
        ("eta", ".5", 0.5, float),
        ("tol", "1.0e-6", 1e-6, float),
        ("max_iter", "0x1F", 31, int),
        ("max_iter", "1_000", 1000, int),
    ],
)
def test_other_spellings_keep_their_types(key, text, value, kind):
    assert load_yaml(text) == value and type(load_yaml(text)) is kind
    param = parse_recipe(_recipe(f"{{{key}: {text}}}")).method.params[key]
    assert param == value


def test_inf_still_loads_as_float_and_is_rejected():
    assert load_yaml(".inf") == math.inf
    with pytest.raises(ConfigError, match="parameters.tol must be a finite number, got inf"):
        parse_recipe(_recipe("{tol: .inf}"))


@pytest.mark.parametrize("text", ["1e", "e5", "1e5x", "1.2.3e4", "2001-12-14"])
def test_non_numbers_are_not_floats(text):
    assert type(load_yaml(text)) is not float


def test_exponent_float_is_not_an_integer_parameter():
    with pytest.raises(ConfigError, match="max_iter must be a positive integer"):
        parse_recipe(_recipe("{max_iter: 1e3}"))


@pytest.fixture
def pair(tmp_path):
    rng = np.random.default_rng(4)
    for tag in ("a", "b"):
        write_checkpoint(
            tmp_path / f"{tag}.st", [TensorRecord("w", rng.standard_normal(6).astype(np.float32))]
        )
    recipe = tmp_path / "r.yaml"
    recipe.write_text(
        f"method: karcher\nmodels: [{tmp_path / 'a.st'}, {tmp_path / 'b.st'}]\n"
        f"output: {{path: {tmp_path / 'm.st'}}}\n"
    )
    return tmp_path, recipe


def test_cli_set_exponent_tol(pair, capsys):
    tmp_path, recipe = pair
    assert main(["merge", str(recipe), "--set", "parameters.tol=1e-8"]) == 0
    summary = json.loads((tmp_path / "m.st.summary.json").read_text())
    assert summary["parameters"]["tol"] == 1e-8


def test_cli_recipe_exponent_tol(pair):
    tmp_path, recipe = pair
    recipe.write_text(recipe.read_text() + "parameters: {tol: 1e-8}\n")
    assert main(["merge", str(recipe)]) == 0
    summary = json.loads((tmp_path / "m.st.summary.json").read_text())
    assert summary["parameters"]["tol"] == 1e-8


def test_toy_forward_spec_goes_through_the_shared_loader(tmp_path, monkeypatch, capsys):
    loaded = []
    monkeypatch.setattr(cli, "load_yaml", lambda text: loaded.append(text) or load_yaml(text))
    write_checkpoint(tmp_path / "w.st", [TensorRecord("fc", np.eye(3, dtype=np.float32))])
    spec = tmp_path / "toy.yaml"
    # an exponent float is a float, so it is rejected as the sample count
    spec.write_text("samples: 1e2\nlayers: [fc]\n")
    out = tmp_path / "r.json"
    rc = main(["diagnose", str(tmp_path / "w.st"), "--out", str(out), "--toy-forward", str(spec)])
    assert rc == 1
    assert loaded == [spec.read_text()]
    assert "samples must be an integer >= 2" in capsys.readouterr().err


def _yaml_load_calls(tree: ast.Module) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of every ``yaml.*load*`` call, plus the
    line of every ``from yaml import *load*``."""
    found: list[tuple[int, str | None]] = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "yaml"
            and "load" in node.func.attr
        ):
            found.append((node.lineno, func))
        if isinstance(node, ast.ImportFrom) and node.module == "yaml":
            if any("load" in alias.name for alias in node.names):
                found.append((node.lineno, "<from yaml import>"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_yaml_is_loaded_only_by_the_shared_loader():
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for line, func in _yaml_load_calls(ast.parse(path.read_text(), str(path))):
            sites[f"{path.name}:{line}"] = func
    assert len(sites) == 1, sites
    ((site, func),) = sites.items()
    assert site.startswith("recipe.py:") and func == "load_yaml", sites


def test_guard_sees_a_stray_call():
    tree = ast.parse("import yaml\ndef f(t):\n    return yaml.safe_load(t)\n")
    assert _yaml_load_calls(tree) == [(3, "f")]
    tree = ast.parse("from yaml import safe_load\n")
    assert _yaml_load_calls(tree) == [(1, "<from yaml import>")]
