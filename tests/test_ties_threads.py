"""The TIES family on the calling thread, with its delta pipeline in place.

``elect_signs`` sums the weighted deltas by OpenBLAS gemv in column blocks
small enough that each gemv runs on one thread, so no BLAS thread pool
wakes inside the merge workers.  The blocks are a power of two wide, which
keeps every total bit-equal to one single-threaded ``w @ mat``: the tie
signs, and with them the merged bytes, do not depend on the BLAS thread
count.  ``merge_della``'s ties branch makes, drops and trims each delta in
its own row of the m x n stack, with one buffer of draws for all rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geomerge.delta_ops import (
    SparsifySpec,
    _weighted_totals,
    della_drop,
    elect_signs,
    sparsify_stream,
)
from geomerge.merge_methods import merge_della
from geomerge.tensor_io import TensorRecord, write_checkpoint

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# the columns of a tie-heavy stack: each sums to zero in exact arithmetic,
# so the last bits of its rounded total depend on the order of the sum
TIE_COLUMNS = ((0.1, 0.2, -0.3), (0.3, -0.1, -0.2))
# with weights 1/3 this column's rounded total is +0.0 in one summation
# order of gemv and negative in another: its elected sign flips between them
FLIP_COLUMN = (-0.1, 0.2, -0.1)


def _env(blas_threads: str) -> dict[str, str]:
    return {
        **os.environ,
        "OPENBLAS_NUM_THREADS": blas_threads,
        "OMP_NUM_THREADS": blas_threads,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }


def _run_child(code: str, args: list[str], blas_threads: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=_env(blas_threads),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# -- the blocked totals ---------------------------------------------------------

N = 1_000_003
STACKS = [(m, "rounded") for m in (1, 2, 3, 4, 5, 16)] + [(3, "ties")]


def _stack(m: int, style: str) -> tuple[np.ndarray, np.ndarray]:
    """An m x N float64 stack and its weights."""
    if style == "ties":
        columns = np.array(TIE_COLUMNS).T
        return np.tile(columns, (1, N // 2 + 1))[:, :N].copy(), np.full(3, 1.0 / 3.0)
    rng = np.random.default_rng(500 + m)
    w = rng.random(m)
    return np.round(rng.standard_normal((m, N)), 2), w / w.sum()


_GEMV_CHILD = (
    "import sys\n"
    "from pathlib import Path\n"
    "import numpy as np\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from test_ties_threads import STACKS, _stack\n"
    "for m, style in STACKS:\n"
    "    mat, w = _stack(m, style)\n"
    "    np.save(Path(sys.argv[2]) / f'{style}-{m}.npy', w @ mat)\n"
)


@pytest.fixture(scope="module")
def single_thread_totals(tmp_path_factory) -> Path:
    """``w @ mat`` for every stack, from an interpreter whose BLAS has one thread."""
    root = tmp_path_factory.mktemp("gemv")
    _run_child(_GEMV_CHILD, [str(TESTS), str(root)], "1")
    return root


@pytest.mark.parametrize("m,style", STACKS)
def test_blocked_totals_keep_single_thread_gemv_bits(single_thread_totals, m, style):
    mat, w = _stack(m, style)
    expected = np.load(single_thread_totals / f"{style}-{m}.npy")
    totals = _weighted_totals(mat, w)
    differ = np.flatnonzero(totals.view(np.uint64) != expected.view(np.uint64))
    assert differ.size == 0, f"{differ.size} totals differ, first at {differ[:4]}"
    signs = elect_signs(mat, w)
    assert signs.tobytes() == np.where(expected < 0.0, -1.0, 1.0).tobytes()


def test_blocked_totals_of_short_and_empty_stacks():
    rng = np.random.default_rng(510)
    for m, n in ((1, 0), (3, 0), (2, 1), (3, 5), (4, 2047), (4, 2049), (5000, 3)):
        mat, w = rng.standard_normal((m, n)), rng.random(m)
        totals = _weighted_totals(mat, w)
        assert totals.shape == (n,)
        np.testing.assert_allclose(totals, w @ mat, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        _weighted_totals(np.ones((3, 4)), np.ones(2))


# -- merges do not depend on the BLAS thread count ------------------------------

RECIPES = {
    "ties": "{density: 1.0, precision: f64}",
    "dare_ties": "{drop_rate: 0.1, density: 0.9, seed: 4, precision: f64}",
    "della_ties": "{drop_rate: 0.2, window: 0.1, density: 0.9, seed: 4, precision: f64}",
}
OUT_DTYPES = ("f64", "f32", "bf16")
# at 3 x 200,003 entries a single gemv goes to OpenBLAS's thread pool, whose
# split falls mid-column-block, so "v" shows what threads would change
SHAPES = {"v": (200_003,), "w": (96, 256), "s": (7,)}

_MERGE_CHILD = (
    "import sys\n"
    "from geomerge.cli import main\n"
    "for recipe in sys.argv[1:]:\n"
    "    rc = main(['merge', recipe, '--threads', '2'])\n"
    "    if rc:\n"
    "        sys.exit(rc)\n"
)


@pytest.fixture(scope="module")
def tie_models(tmp_path_factory) -> Path:
    """A zero base and three f64 experts whose deltas are ``FLIP_COLUMN``
    in every column."""
    root = tmp_path_factory.mktemp("tie_models")
    write_checkpoint(
        root / "base.st",
        [TensorRecord(k, np.zeros(s)) for k, s in SHAPES.items()],
        output_dtype="f64",
    )
    for i, value in enumerate(FLIP_COLUMN):
        records = [TensorRecord(k, np.full(s, value)) for k, s in SHAPES.items()]
        write_checkpoint(root / f"e{i}.st", records, output_dtype="f64")
    return root


def _recipe(root: Path, kind: str, dtype: str, tag: str) -> Path:
    path = root / f"{kind}-{dtype}-{tag}.yaml"
    path.write_text(
        f"method: {kind}\n"
        f"models: [{', '.join(str(root / f'e{i}.st') for i in range(3))}]\n"
        f"base_model: {root / 'base.st'}\n"
        f"parameters: {RECIPES[kind]}\n"
        f"output: {{path: {path.with_suffix('.st')}, dtype: {dtype}}}\n"
    )
    return path


def _result(recipe: Path) -> tuple[bytes, dict]:
    out = recipe.with_suffix(".st")
    summary = json.loads(Path(f"{out}.summary.json").read_text())
    del summary["wall_ms"]
    return out.read_bytes(), summary


def test_ties_outputs_do_not_depend_on_blas_threads(tie_models):
    runs = {}
    for threads in ("1", "2"):
        recipes = [
            _recipe(tie_models, kind, dtype, f"blas{threads}")
            for kind in RECIPES
            for dtype in OUT_DTYPES
        ]
        _run_child(_MERGE_CHILD, list(map(str, recipes)), threads)
        runs[threads] = [_result(r) for r in recipes]
    cases = [(kind, dtype) for kind in RECIPES for dtype in OUT_DTYPES]
    for case, one, two in zip(cases, runs["1"], runs["2"]):
        assert one[1] == two[1], f"{case}: summary differs between 1 and 2 BLAS threads"
        assert one[0] == two[0], f"{case}: checkpoint differs between 1 and 2 BLAS threads"


# -- the delta pipeline in place ------------------------------------------------


@pytest.mark.parametrize("window", [0.0, 0.2])
@pytest.mark.parametrize("n", [0, 1, 7, 100_003])
def test_in_place_drop_matches_the_allocating_one(n, window):
    spec = SparsifySpec(drop_rate=0.4, window=window, seed=8)
    rng = np.random.default_rng(520 + n)
    deltas = np.round(rng.standard_normal((3, n)), 1)  # ties in |d|, and zeros
    deltas[rng.random((3, n)) < 0.1] = -0.0
    draws = np.empty(n)
    for i, d in enumerate(deltas):
        expected = della_drop(d, spec, sparsify_stream(spec.seed, "t", i))
        row = d.copy()
        got = della_drop(row, spec, sparsify_stream(spec.seed, "t", i), out=row, draws=draws)
        assert got is row
        assert got.tobytes() == expected.tobytes(), (n, window, i)


@pytest.mark.parametrize(
    "drop_rate,window",
    [(0.0, 0.0), (0.5, 0.0), (0.5, 0.2)],
    ids=["ties", "dare_ties", "della_ties"],
)
def test_ties_pipeline_holds_the_stack_and_few_vectors(drop_rate, window):
    m, n = 3, 1 << 20
    rng = np.random.default_rng(530)
    base = rng.standard_normal(n, dtype=np.float32)
    experts = [base + 0.1 * rng.standard_normal(n, dtype=np.float32) for _ in range(m)]
    spec = SparsifySpec(density=0.5, drop_rate=drop_rate, window=window, seed=2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        merge_della(base, experts, np.ones(m), spec, "ties", "t")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the m x n float64 stack plus at most four n-length float64 vectors
    assert peak < (m + 4) * 8 * n, peak / (8 * n)
