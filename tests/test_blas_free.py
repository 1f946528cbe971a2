"""Merge kernels make no threaded BLAS call.

Every n-length norm, dot and m x n product in ``merge_methods`` and
``sphere`` goes through the einsum helpers in ``sphere`` (``norm``,
``inner``, ``combine_rows``, ``row_dots``, ``gram_matrix``).  einsum with its
default ``optimize=False`` never calls BLAS and sums on the calling thread
in an order fixed by the shapes, so a merge's bytes and summary do not
depend on the BLAS thread count, and no BLAS thread pool spins inside the
``--threads`` workers.
"""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geomerge import dtypes
from geomerge.cli import main
from geomerge.errors import DTypeOverflowError
from geomerge.sphere import norm
from geomerge.tensor_io import TensorRecord, write_checkpoint
from oracles import encode_array_direct, read_records

SRC = Path(__file__).resolve().parent.parent / "src"

# OpenBLAS splits ddot across its threads only above 10k elements
SHAPES = {"w": (96, 256), "v": (20_000,), "s": (7,)}
KINDS = ("karcher", "multislerp", "slerp", "model_stock", "lerp")


@pytest.fixture(scope="module")
def f32_models(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("f32_models")
    rng = np.random.default_rng(21)
    base = {k: rng.standard_normal(s).astype(np.float32) for k, s in SHAPES.items()}
    write_checkpoint(root / "base.st", [TensorRecord(k, v) for k, v in base.items()])
    for tag in "abc":
        write_checkpoint(
            root / f"{tag}.st",
            [
                TensorRecord(k, v + rng.standard_normal(v.shape).astype(np.float32))
                for k, v in base.items()
            ],
        )
    return root


def _recipe(root: Path, kind: str, out: str) -> Path:
    models = "abc" if kind != "slerp" else "ab"
    path = root / f"{out}.yaml"
    path.write_text(
        f"method: {kind}\n"
        f"models: [{', '.join(str(root / f'{t}.st') for t in models)}]\n"
        + (f"base_model: {root / 'base.st'}\n" if kind == "model_stock" else "")
        + f"output: {{path: {root / out}.st}}\n"
    )
    return path


_CHILD = (
    "import sys\n"
    "from geomerge.cli import main\n"
    "for recipe in sys.argv[1:]:\n"
    "    rc = main(['merge', recipe, '--threads', '2'])\n"
    "    if rc:\n"
    "        sys.exit(rc)\n"
)


def _merge_in_child(recipes: list[Path], blas_threads: str) -> None:
    """Run the merges in one fresh interpreter whose BLAS has ``blas_threads``."""
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": blas_threads,
        "OMP_NUM_THREADS": blas_threads,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *map(str, recipes)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _summary(path: Path) -> dict:
    summary = json.loads(Path(f"{path}.summary.json").read_text())
    del summary["wall_ms"]
    return summary


def test_outputs_do_not_depend_on_blas_threads(f32_models):
    root = f32_models
    runs = {}
    for threads in ("1", "2"):
        recipes = [_recipe(root, kind, f"{kind}-blas{threads}") for kind in KINDS]
        _merge_in_child(recipes, threads)
        runs[threads] = {
            kind: (
                (root / f"{kind}-blas{threads}.st").read_bytes(),
                _summary(root / f"{kind}-blas{threads}.st"),
            )
            for kind in KINDS
        }
    for kind in KINDS:
        one, two = runs["1"][kind], runs["2"][kind]
        assert one[1] == two[1], f"{kind}: summary differs between 1 and 2 BLAS threads"
        assert one[0] == two[0], f"{kind}: checkpoint differs between 1 and 2 BLAS threads"


def test_source_norms_match_the_merge_norm_in(f32_models):
    root = f32_models
    out = root / "lerp-report.st"
    assert main(["merge", str(_recipe(root, "lerp", "lerp-report"))]) == 0
    norm_in = {row["name"]: row["norm_in"] for row in _summary(out)["per_tensor"]}
    sources = [read_records(root / f"{t}.st") for t in "abc"]
    assert sorted(norm_in) == list(read_records(out))
    for name, norms in norm_in.items():
        # both sum the same f32 values in float64, in the same order
        assert [norm(src[name].data) for src in sources] == norms, name


def test_norm_of_f32_makes_no_full_length_copy():
    v = np.random.default_rng(3).standard_normal(1 << 20).astype(np.float32)
    tracemalloc.start()
    try:
        result = norm(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # a float64 copy would be 8 MiB
    exact = math.sqrt(math.fsum(float(x) ** 2 for x in v.astype(np.float64)))
    assert result == pytest.approx(exact, rel=1e-13)


def test_norm_flattens_and_handles_empty_and_scalar():
    m = np.arange(12.0).reshape(3, 4)
    assert norm(m) == norm(m.reshape(-1))
    assert norm(np.empty(0)) == 0.0
    assert norm(np.array(-3.0)) == 3.0


# -- guard: no BLAS-backed call in the merge kernels --------------------------

_BLAS_ATTRS = {"dot", "vdot", "inner"}


def _blas_calls(tree: ast.Module) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of every BLAS-backed call: ``np.linalg.norm``,
    any ``.dot(``, ``np.vdot``, ``np.inner``, an ``einsum`` given ``optimize``
    (which hands products to BLAS), and ``from numpy... import`` of those names."""
    found: list[tuple[int, str | None]] = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if (
                attr == "dot"
                or (attr in _BLAS_ATTRS and owner_name in ("np", "numpy"))
                or (attr == "norm" and owner_name == "linalg")
                or (attr == "einsum" and any(k.arg == "optimize" for k in node.keywords))
            ):
                found.append((node.lineno, func))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if any(alias.name in _BLAS_ATTRS | {"norm", "linalg"} for alias in node.names):
                found.append((node.lineno, "<from numpy import>"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", ["merge_methods.py", "sphere.py"])
def test_merge_kernels_make_no_blas_call(module):
    path = SRC / "geomerge" / module
    assert _blas_calls(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "snippet,line,func",
    [
        ("import numpy as np\ndef f(v):\n    return np.linalg.norm(v)\n", 3, "f"),
        ("import numpy as np\ndef f(a, b):\n    return np.dot(a, b)\n", 3, "f"),
        ("def f(a, b):\n    return a.dot(b)\n", 2, "f"),
        ("import numpy as np\nx = np.vdot([1.0], [2.0])\n", 2, None),
        ("import numpy\ndef g(a, b):\n    return numpy.inner(a, b)\n", 3, "g"),
        ("import numpy as np\ndef f(a):\n    return np.einsum('i,i->', a, a, optimize=True)\n", 3, "f"),
        ("from numpy.linalg import norm\n", 1, "<from numpy import>"),
        ("from numpy import dot\n", 1, "<from numpy import>"),
    ],
)
def test_guard_sees_a_stray_call(snippet, line, func):
    assert _blas_calls(ast.parse(snippet)) == [(line, func)]


def test_guard_passes_the_helpers_and_small_products():
    snippet = (
        "import numpy as np\n"
        "def f(w, a, rows):\n"
        "    return np.einsum('i,i->', a, a, dtype=np.float64), w @ rows, np.sinc(a)\n"
    )
    assert _blas_calls(ast.parse(snippet)) == []


# -- encode: overflow read off the rounded bits --------------------------------

_BF16_MAX = 3.3895313892515355e38
_ROUNDS_TO_INF = 3.3961776e38  # halfway from bf16 max to the next step: rounds up


def _cases() -> list[tuple[str, np.ndarray]]:
    # quiet and signaling NaNs, both signs, with payload bits
    nan_payloads = np.array([0x7FC00000, 0x7F800001, 0xFFC00001, 0x7FBFFFFF], np.uint32)
    return [
        ("bf16 max", np.array([_BF16_MAX, -_BF16_MAX, 1.5])),
        ("bf16 max f32", np.array([_BF16_MAX, -_BF16_MAX], np.float32)),
        ("rounds to inf", np.array([_ROUNDS_TO_INF, -_ROUNDS_TO_INF, 2.0], np.float32)),
        ("f32 max", np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max], np.float32)),
        ("beyond f32", np.array([1e39, -1e300, 0.25, np.finfo(np.float64).max])),
        ("beyond f16", np.array([65504.0, 65520.0, -7e4, 1.0])),
        ("non-finite", np.array([np.inf, -np.inf, np.nan, 1.0])),
        ("nan payloads f32", nan_payloads.view(np.float32)),
        (
            "nan payloads f64",
            np.array(
                [0x7FF0000000000001, 0xFFF8000000000001, 0x7FF8001230000000], np.uint64
            ).view(np.float64),
        ),
        ("signed zeros", np.array([-0.0, 0.0, -0.0], np.float32)),
        ("subnormals f32", np.array([1e-45, -1e-40, 9.2e-41, 1.1754942e-38], np.float32)),
        ("subnormals f64", np.array([5e-324, -2.2e-308, 1e-310, 1e-45])),
        ("mixed", np.random.default_rng(5).standard_normal(5000) * 1e38),
    ]


@pytest.mark.parametrize("in_work", [False, True], ids=["bytes", "work"])
@pytest.mark.parametrize("code", ["f64", "f32", "f16", "bf16"])
@pytest.mark.parametrize("label,values", _cases(), ids=lambda v: v if isinstance(v, str) else "")
@np.errstate(invalid="ignore")  # casting a signaling NaN sets the invalid flag
def test_encode_matches_the_rewidening_oracle(label, values, code, in_work):
    work = None
    if in_work:  # the writer's path: buffers already used by a larger block
        work = dtypes.Workspace()
        dtypes.encode_array(np.full(2 * values.size + 7, 3.0), code, work)
    try:
        expected = encode_array_direct(values, code)
    except OverflowError as exc:
        with pytest.raises(DTypeOverflowError) as raised:
            dtypes.encode_array(values, code, work)
        assert str(raised.value) == str(exc), label
    else:
        assert bytes(dtypes.encode_array(values, code, work)) == expected, label


def test_encode_does_not_modify_its_input():
    values = np.array([_ROUNDS_TO_INF, 1e5, -1.0, np.nan], np.float32)
    before = values.tobytes()
    dtypes.encode_array(values, "f32")  # each value is a finite f32
    for code in ("f16", "bf16"):
        with pytest.raises(DTypeOverflowError):
            dtypes.encode_array(values, code)
    assert values.tobytes() == before


def test_bf16_encode_temporaries():
    n = 1 << 16
    values = np.random.default_rng(6).standard_normal(n)
    tracemalloc.start()
    try:
        dtypes.encode_array(values, "bf16")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # re-widening the bits for the overflow check used to cost 18 bytes per element
    assert peak / n < 14, peak / n
