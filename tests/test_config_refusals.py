"""The configuration refusals of ``merge`` recipes and of ``diagnose``.

Each refusal exits with its code (1 for configuration, 2 for a spec that is
not found), prints exactly one ``error:`` line naming the file at fault, and
reads no payload: every check runs on the recipe, the spec or a container
header before any tensor is loaded.
"""

from __future__ import annotations

import numpy as np
import pytest

from geomerge import tensor_io
from geomerge.cli import main
from geomerge.diagnostics import NONLINEARITIES
from geomerge.merge_methods import METHODS
from geomerge.recipe import parse_recipe
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import build_container


@pytest.fixture
def files(tmp_path, monkeypatch):
    """Checkpoints a.st, b.st and base.st, activations acts.st and weights
    net.st (2-D w0, 1-D w1), in a fresh working directory."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(41)
    for tag in ("a", "b", "base"):
        write_checkpoint(tmp_path / f"{tag}.st", [TensorRecord("w", rng.standard_normal((3, 5)))])
    write_checkpoint(tmp_path / "acts.st", [TensorRecord("layer_0", rng.standard_normal((6, 3)))])
    net = [TensorRecord("w0", rng.standard_normal((4, 4))), TensorRecord("w1", np.ones(4))]
    write_checkpoint(tmp_path / "net.st", net)
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


def _refused(capsys, reads, argv: list[str], code: int, message: str) -> None:
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert reads == []


# -- recipes ------------------------------------------------------------------------

MODELS = "models: [a.st, b.st]\n"
OUTPUT = "output: {path: o.st}\n"
LERP = "method: lerp\n" + MODELS + OUTPUT

RECIPES = {
    "not YAML": (
        "method: lerp\nmodels: [a.st\n",
        [],
        "invalid YAML (expected ',' or ']', but got '<stream end>' at line 3, column 1)",
    ),
    "not YAML, with no position mark": (
        "method: lerp\x00\n",
        [],
        "invalid YAML (unacceptable character #x0000: special characters are not allowed"
        ' in "<unicode string>", position 12)',
    ),
    "not a mapping": ("- lerp\n- a.st\n", [], "recipe must be a mapping"),
    "empty override segment": (
        LERP,
        ["models..path=c.st"],
        "override 'models..path=c.st' has an empty path segment",
    ),
    "override value that is not YAML stays text": (
        LERP,
        ["method=[lerp"],
        f"method must be one of {', '.join(METHODS)}, got '[lerp'",
    ),
    "override descends into a scalar": (
        LERP,
        ["method.kind.name=x"],
        "override 'method.kind.name=x' descends into a scalar",
    ),
    "override leaf in a scalar": (
        LERP,
        ["method.kind=x"],
        "override 'method.kind=x' descends into a scalar",
    ),
    "override replaces a model entry": (
        LERP,
        ["models.0=."],
        "models[0].path must name a file, got '.'",
    ),
    "override indexes a list by name": (
        LERP,
        ["models.first.path=c.st"],
        "override 'models.first.path=c.st' indexes a list with 'first'",
    ),
    "base_model is not a string": (
        "method: task_arithmetic\nbase_model: 3\n" + MODELS + OUTPUT,
        [],
        "base_model must be a path string",
    ),
    "models is a string": (
        "method: lerp\nmodels: a.st\n" + OUTPUT,
        [],
        "models must be a non-empty list",
    ),
    "models is empty": (
        "method: lerp\nmodels: []\n" + OUTPUT,
        [],
        "models must be a non-empty list",
    ),
    "model is a number": (
        "method: lerp\nmodels: [a.st, 3]\n" + OUTPUT,
        [],
        "models[1] must be a mapping or path string",
    ),
    "model has no path": (
        "method: lerp\nmodels: [{weight: 1.0}, b.st]\n" + OUTPUT,
        [],
        "models[0] needs a 'path' string",
    ),
    "model path is a number": (
        "method: lerp\nmodels: [a.st, {path: 7}]\n" + OUTPUT,
        [],
        "models[1] needs a 'path' string",
    ),
    "parameters is a list": (LERP + "parameters: [1]\n", [], "parameters must be a mapping"),
    "strict is a number": (
        LERP + "parameters: {strict: 1}\n",
        [],
        "parameters.strict must be a boolean",
    ),
    "output is a string": (
        "method: lerp\n" + MODELS + "output: o.st\n",
        [],
        "output must be a mapping",
    ),
    "output has an unknown key": (
        "method: lerp\n" + MODELS + "output: {path: o.st, format: x}\n",
        [],
        "output: unknown key 'format' (typo?)",
    ),
    "output has no path": (
        "method: lerp\n" + MODELS + "output: {dtype: f32}\n",
        [],
        "output needs a 'path' string",
    ),
}


@pytest.mark.parametrize("case", list(RECIPES))
def test_recipe_refusal(files, capsys, reads, case):
    text, overrides, message = RECIPES[case]
    (files / "r.yaml").write_text(text)
    argv = ["merge", "r.yaml", *[a for item in overrides for a in ("--set", item)]]
    _refused(capsys, reads, argv, 1, f"r.yaml: {message}")
    assert not (files / "o.st").exists()


def test_override_replaces_a_plain_path_model():
    recipe = parse_recipe(LERP, overrides=["models.0=c.st"])
    assert [(str(m.path), m.weight) for m in recipe.models] == [("c.st", 1.0), ("b.st", 1.0)]


# -- diagnose -------------------------------------------------------------------------


def test_zero_draws(files, capsys, reads):
    argv = ["diagnose", "acts.st", "--out", "r.json", "--draws", "0"]
    _refused(capsys, reads, argv, 1, "--draws must be >= 1")


def test_activation_tensor_that_is_not_2d(files, capsys, reads):
    write_checkpoint(files / "flat.st", [TensorRecord("layer_0", np.ones(6))])
    argv = ["diagnose", "flat.st", "--out", "r.json"]
    _refused(capsys, reads, argv, 1, "flat.st: tensor 'layer_0' must be 2-D (samples x features)")


def test_no_layer_tensors(files, capsys, reads):
    (files / "empty.st").write_bytes(build_container({}))
    argv = ["diagnose", "empty.st", "--out", "r.json"]
    _refused(capsys, reads, argv, 1, "empty.st: no layer_<k> tensors found")


def test_toy_forward_spec_not_found(files, capsys, reads):
    argv = ["diagnose", "net.st", "--out", "r.json", "--toy-forward", "missing.yaml"]
    _refused(capsys, reads, argv, 2, "toy-forward spec not found: missing.yaml")


def test_toy_forward_spec_that_is_not_yaml(files, capsys, reads):
    (files / "s.yaml").write_text("layers: [w0\n")
    argv = ["diagnose", "net.st", "--out", "r.json", "--toy-forward", "s.yaml"]
    message = "invalid YAML (expected ',' or ']', but got '<stream end>' at line 2, column 1)"
    _refused(capsys, reads, argv, 1, f"s.yaml: {message}")


SPECS = {
    "not a mapping": ("- w0\n", "toy-forward spec must be a mapping"),
    "nonlinearity": (
        "nonlinearity: cube\nlayers: [w0]\n",
        f"nonlinearity must be one of {sorted(NONLINEARITIES)}",
    ),
    "negative seed": ("seed: -1\nlayers: [w0]\n", "seed must be a non-negative integer"),
    "boolean seed": ("seed: true\nlayers: [w0]\n", "seed must be a non-negative integer"),
    "empty layers": ("layers: []\n", "layers must be a non-empty list"),
    "no layers": ("samples: 8\n", "layers must be a non-empty list"),
    "layer with an unknown key": (
        "layers: [{weight: w0, scale: 2}]\n",
        "layers[0] must be a mapping with 'weight' and optional 'bias'",
    ),
    "layer without a weight": (
        "layers: [w0, {bias: w1}]\n",
        "layers[1] must be a mapping with 'weight' and optional 'bias'",
    ),
    "layer that is a number": (
        "layers: [3]\n",
        "layers[0] must be a mapping with 'weight' and optional 'bias'",
    ),
    "weight that is not 2-D": ("layers: [w0, w1]\n", "layers[1] weight 'w1' must be 2-D"),
}


@pytest.mark.parametrize("case", list(SPECS))
def test_toy_forward_spec_refusal(files, capsys, reads, case):
    text, message = SPECS[case]
    (files / "s.yaml").write_text(text)
    argv = ["diagnose", "net.st", "--out", "r.json", "--toy-forward", "s.yaml"]
    _refused(capsys, reads, argv, 1, f"s.yaml: {message}")
    assert not (files / "r.json").exists()


# -- unknown keys of mixed YAML types --------------------------------------------------

# Keys that do not sort (an int beside a string) are named by repr order,
# where "'zz'" comes before "1".
MIXED_KEYS = {
    "top level": ("merge", LERP + "1: x\nzz: y\n", "unknown key 'zz' (typo?)"),
    "model entry": (
        "merge",
        "method: lerp\nmodels: [{path: a.st, 1: x, zz: y}, b.st]\n" + OUTPUT,
        "models[0]: unknown key 'zz' (typo?)",
    ),
    "parameters": (
        "merge",
        LERP + "parameters: {1: x, zz: y}\n",
        "parameters: unknown key 'zz' (typo?)",
    ),
    "output": (
        "merge",
        "method: lerp\n" + MODELS + "output: {path: o.st, 1: x, zz: y}\n",
        "output: unknown key 'zz' (typo?)",
    ),
    "toy-forward spec": ("diagnose", "layers: [w0]\n1: x\nzz: y\n", "unknown key 'zz' (typo?)"),
}


@pytest.mark.parametrize("case", list(MIXED_KEYS))
def test_unknown_keys_of_mixed_types(files, capsys, reads, case):
    command, text, message = MIXED_KEYS[case]
    (files / "r.yaml").write_text(text)
    if command == "merge":
        argv = ["merge", "r.yaml"]
    else:
        argv = ["diagnose", "net.st", "--out", "r.json", "--toy-forward", "r.yaml"]
    _refused(capsys, reads, argv, 1, f"r.yaml: {message}")
    assert not (files / "o.st").exists() and not (files / "r.json").exists()


def test_unknown_keys_of_one_type_keep_sorted_order(files, capsys, reads):
    (files / "r.yaml").write_text(LERP + "2: x\n10: y\n")
    _refused(capsys, reads, ["merge", "r.yaml"], 1, "r.yaml: unknown key 2 (typo?)")
