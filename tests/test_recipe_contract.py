"""The accepted-recipe contract, as a property of ``geomerge merge``.

Random recipes over every kind, edge parameter values, weights of 0, 1e-300
and 1e300, and checkpoints of every dtype holding empty, scalar, tiny and
70000-entry tensors with zeros, subnormals and values near the f32 and f64
limits, are merged in-process.  Whatever the recipe, ``main`` returns an
exit code in 0-3 with no traceback and no RuntimeWarning, and prints at most
one ``error:`` line.  A merge that succeeds gives the same checkpoint and
summary bytes (``wall_ms`` aside) at ``--threads`` 1 and 3.  A recipe with
an unknown key at any level, text or int, bool or null, exits 1 with one
``error:`` line before any payload is read.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomerge import tensor_io
from geomerge.cli import main
from geomerge.errors import ConfigError
from geomerge.merge_methods import METHODS, PARAMS
from geomerge.recipe import parse_recipe
from geomerge.tensor_io import TensorRecord, write_checkpoint

SHAPES = ((0,), (), (1,), (2, 5), (70000,))
CODES = ("f64", "f32", "f16", "bf16")
#: what each source's tensors hold besides Gaussian entries
FILLS = ("normal", "zero", "subnormal", "f32 limit", "f64 large")
#: the largest finite value of each dtype, where a fixture's values saturate
LIMITS = {
    "f64": float(np.finfo(np.float64).max),
    "f32": float(np.finfo(np.float32).max),
    "f16": float(np.finfo(np.float16).max),
    "bf16": 3.3895313892515355e38,  # bits 0x7F7F
}
EDGES = {
    "t": (0.0, 1e-300, 0.5, 1.0),
    "density": (1e-300, 0.5, 1.0),
    "drop_rate": (0.0, 0.5, 0.9, 0.999),
    "window": (0.0, 0.1, 0.4),
    "lambda": (-1e300, -1.0, 0.0, 1.0, 1e300),
    "eta": (1e-300, 0.5, 1.0),
    "tol": (1e-300, 1e-6, 1e300),
    "max_iter": (1, 3, 1000),
    "seed": (0, 2**64 - 1),
    "precision": ("f32", "f64"),
    "strict": (True, False),
}


def _values(seed: int, shape: tuple, fill: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    flat = values.reshape(-1)
    if fill == "zero":
        flat[:] = 0.0
    elif fill == "subnormal":
        flat[::2] = 5e-324
        flat[1::3] = 1e-40
    elif fill == "f32 limit":
        flat[::3] = 3e38
    elif fill == "f64 large":
        flat[::4] = -1e300
    return values


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(list(METHODS)))
    spec = METHODS[kind]
    # mostly counts and bases the kind accepts, so that most recipes merge
    count = draw(st.integers(1, 4) | st.integers(spec.min_sources, spec.max_sources or 4))
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=2))
    checkpoints = [
        (draw(st.sampled_from(CODES)), draw(st.sampled_from(FILLS)), draw(st.integers(0, 99)))
        for _ in range(count + 1)  # the sources, then the base
    ]
    weight = st.sampled_from((None, 0.0, 1e-300, 1.0, 1e300))
    weights = draw(st.lists(weight, min_size=count, max_size=count))
    keys = draw(st.lists(st.sampled_from(sorted(EDGES)), unique=True, max_size=4))
    params = {key: draw(st.sampled_from(EDGES[key])) for key in keys}
    has_base = draw(st.booleans() | st.just(spec.needs_base))
    out_code = draw(st.sampled_from(CODES))
    return kind, shapes, checkpoints, weights, params, has_base, out_code


def _write(root: Path, case) -> Path:
    """The checkpoints and the recipe of ``case``."""
    kind, shapes, checkpoints, weights, params, has_base, out_code = case
    paths = []
    for i, (code, fill, seed) in enumerate(checkpoints):
        clip = (-LIMITS[code], LIMITS[code])
        records = [
            TensorRecord(f"t{j}", np.clip(_values(seed + 100 * j, shape, fill), *clip), code)
            for j, shape in enumerate(shapes)
        ]
        paths.append(root / f"m{i}.st")
        write_checkpoint(paths[-1], records, output_dtype=code)
    models = "".join(
        f"  - path: {p}\n" + ("" if w is None else f"    weight: {w!r}\n")
        for p, w in zip(paths, weights)
    )
    lines = [f"method: {kind}", "models:", models.rstrip("\n")]
    if has_base:
        lines.append(f"base_model: {paths[-1]}")
    if params:
        lines.append("parameters:")
        lines += [f"  {key}: {json.dumps(value)}" for key, value in params.items()]
    lines.append(f"output: {{path: {root / 'out.st'}, dtype: {out_code}}}")
    recipe = root / "recipe.yaml"
    recipe.write_text("\n".join(lines) + "\n")
    return recipe


def _merge(recipe: Path, threads: int) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["merge", str(recipe), "--threads", str(threads)])
    return code, err.getvalue()


def _output(root: Path) -> tuple[bytes, dict]:
    summary = json.loads((root / "out.st.summary.json").read_text())
    summary.pop("wall_ms")
    return (root / "out.st").read_bytes(), summary


KARCHER_TOL_1E300 = (
    "karcher", [()], [("f64", "normal", 0), ("f64", "normal", 1), ("f64", "normal", 0)],
    [None, None], {"tol": 1e300}, False, "f64",
)  # the square of tol overflowed a float power inside the solver


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cases())
@example(KARCHER_TOL_1E300)
def test_every_recipe_merges_or_fails_with_one_error_line(case):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        root = Path(tmp)
        recipe = _write(root, case)
        code, err = _merge(recipe, 1)
        assert code in (0, 1, 2, 3), (code, err)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) <= 1 and (code == 0) == (not errors), err
        if code == 0:
            first = _output(root)
            assert _merge(recipe, 3) == (0, "")
            assert _output(root) == first
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [
        str(w.message) for w in caught
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cases())
def test_exit_1_is_a_rejected_recipe_and_no_temporary_is_left(case):
    """``main`` exits 1 exactly when ``parse_recipe`` rejects the recipe
    text, and whatever the exit, no ``*.tmp`` sibling of the output stays
    in its directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        recipe = _write(root, case)
        try:
            parse_recipe(recipe.read_text(), source=str(recipe))
            rejected = False
        except ConfigError:
            rejected = True
        code, err = _merge(recipe, 1)
        assert (code == 1) == rejected, (code, err)
        assert not list(root.glob("*.tmp")), sorted(p.name for p in root.iterdir())


def test_karcher_whose_weighted_sources_are_all_zero_takes_the_weighted_mean():
    """The Karcher merge leaves zero-norm sources out of its solve; where
    every source of nonzero weight is such, it takes the weighted Euclidean
    mean, as it does when every source has zero norm, rather than refusing
    the weights that are left."""
    case = ("karcher", [(2, 5)], [("f32", "zero", 0), ("f32", "normal", 1), ("f32", "normal", 2)],
            [1.0, 0.0], {}, False, "f32")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        assert _merge(_write(root, case), 1) == (0, "")
        data, summary = _output(root)
    assert summary["per_tensor"][0]["norm_out"] == 0.0
    assert summary["per_tensor"][0]["iterations"] == 0


#: the keys each level of a recipe knows
KNOWN_KEYS = {
    "top": {"method", "models", "base_model", "parameters", "output"},
    "model": {"path", "weight"},
    "parameters": {*PARAMS, "precision", "strict"},
    "output": {"path", "dtype"},
}
TEXT_KEYS = ("typo", "Method", "weights", "path", "dtype", "method", "t", "precision", "", "1")


@st.composite
def unknown_key_recipes(draw):
    """A recipe the validator accepts, as a mapping, and the same recipe with
    unknown keys of mixed types put in at one or more of its levels."""
    kind = draw(st.sampled_from(list(METHODS)))
    spec = METHODS[kind]
    count = max(spec.min_sources, 2) if spec.max_sources is None else spec.min_sources
    models = [{"path": f"m{i}.st", "weight": 1.0} for i in range(count)]
    recipe = {"method": kind, "models": models, "parameters": {}, "output": {"path": "out.st"}}
    if spec.needs_base:
        recipe["base_model"] = f"m{count}.st"
    levels = st.lists(st.sampled_from(sorted(KNOWN_KEYS)), min_size=1, max_size=4, unique=True)
    mutated = copy.deepcopy(recipe)
    for level in draw(levels):
        text = st.sampled_from([k for k in TEXT_KEYS if k not in KNOWN_KEYS[level]])
        key = text | st.integers(-2, 2) | st.booleans() | st.none()
        if level == "model":
            node = mutated["models"][draw(st.integers(0, count - 1))]
        else:
            node = mutated if level == "top" else mutated[level]
        for k in draw(st.lists(key, min_size=1, max_size=3)):
            node[k] = draw(st.sampled_from((1, 0.5, "x", None, True)))
    return recipe, mutated


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(unknown_key_recipes())
def test_an_unknown_key_at_any_level_is_refused_before_any_read(case):
    recipe, mutated = case
    reads = []
    real_pread = tensor_io._pread

    def spy(*args):
        reads.append(args[1:3])
        return real_pread(*args)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i in range(len(recipe["models"]) + 1):
            write_checkpoint(root / f"m{i}.st", [TensorRecord("w", np.arange(3.0))], "f32")
        for node in (recipe, mutated):
            for entry in (*node["models"], node["output"]):
                entry["path"] = str(root / entry["path"])
            if "base_model" in node:
                node["base_model"] = str(root / node["base_model"])
        parse_recipe(yaml.safe_dump(recipe))  # accepted with its known keys alone
        path = root / "recipe.yaml"
        path.write_text(yaml.safe_dump(mutated, sort_keys=False))
        with mock.patch.object(tensor_io, "_pread", spy):
            code, err = _merge(path, 1)
        assert not (root / "out.st").exists()
    assert code == 1, err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "unknown key" in err and "Traceback" not in err, err
    assert reads == []
