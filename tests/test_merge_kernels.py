"""The merge kernels' inputs: how sources become float64, and what that costs.

Every merge function takes a list of arrays of any float dtype and shape,
each flattened, or one m x n float64 matrix, used without a copy.  Each
input is widened to float64 once, inside the arithmetic: no float64 copy is
made only to read it.  The peaks below are tracemalloc bytes over n-length
float64 vectors (8 n bytes), with m = 4 sources of n = 1M float32 values.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geomerge.delta_ops import SparsifySpec, elect_signs, task_vector
from geomerge.merge_methods import (
    merge_dare,
    merge_della,
    merge_karcher,
    merge_lerp,
    merge_model_stock,
    merge_multislerp,
    merge_slerp,
    merge_task_arithmetic,
    merge_ties,
)

M, N = 4, 1 << 20


@pytest.fixture(scope="module")
def f32_vectors() -> list[np.ndarray]:
    rng = np.random.default_rng(3)
    return [rng.standard_normal(N, dtype=np.float32) for _ in range(M)]


def _peak_vectors(fn, *args) -> float:
    """Peak bytes traced while ``fn(*args)`` runs, in n-length float64 vectors."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / (8 * N)
    finally:
        tracemalloc.stop()


def test_lerp_widens_inside_the_product(f32_vectors):
    # the sum and one product; a float64 copy of each source would add one more
    peak = _peak_vectors(merge_lerp, f32_vectors, np.ones(M))
    assert peak < 2.3, peak


def test_task_vector_subtracts_in_one_step(f32_vectors):
    # the difference alone; float64 copies of both inputs would add two more
    peak = _peak_vectors(task_vector, f32_vectors[0], f32_vectors[1])
    assert peak < 1.3, peak


def test_elect_signs_casts_straight_into_the_stack(f32_vectors):
    # the m x n stack and the totals; per-row float64 copies stacked after
    # would hold the m rows twice
    peak = _peak_vectors(elect_signs, f32_vectors, np.ones(M) / M)
    assert peak < M + 2.5, peak


# -- the same merge from every input form -------------------------------------

SHAPES = {0: [(0,), (0, 3)], 1: [(), (1,), (1, 1)], 7: [(7,)], 8193: [(8193,), (3, 2731)]}


def _draw_rows(seed: int, m: int, n: int, style: str) -> np.ndarray:
    """m float32 rows of length n, with signed zeros."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n).astype(np.float32)
    if style == "equal":
        rows = np.tile(base, (m, 1))
    elif style == "near":
        rows = base + 0.05 * rng.standard_normal((m, n)).astype(np.float32)
    else:
        rows = rng.standard_normal((m, n)).astype(np.float32)
    if style == "zero-row":
        rows[-1] = -0.0
    if n:
        rows[:, rng.integers(0, n, size=max(1, n // 50))] = 0.0
        rows[:, rng.integers(0, n, size=max(1, n // 50))] = -0.0
    return rows


def _rules(weights: list[float]):
    """The 11 merges, each as a function of (source list, base)."""
    spec = SparsifySpec(density=0.4, drop_rate=0.3, window=0.1, seed=7)
    return {
        "lerp": lambda v, b: merge_lerp(v, weights),
        "slerp": lambda v, b: merge_slerp(v[0], v[1], 0.3),
        "multislerp": lambda v, b: merge_multislerp(v, weights),
        "karcher": lambda v, b: merge_karcher(v, weights),
        "task_arithmetic": lambda v, b: merge_task_arithmetic(b, v, weights, 0.7),
        "ties": lambda v, b: merge_ties(b, v, weights, 0.4),
        "dare_lerp": lambda v, b: merge_dare(b, v, weights, 0.3, "lerp", 0.5, 5, "t"),
        "dare_ties": lambda v, b: merge_dare(b, v, weights, 0.3, "ties", 0.6, 5, "t"),
        "della_lerp": lambda v, b: merge_della(b, v, weights, spec, "lerp", "t"),
        "della_ties": lambda v, b: merge_della(b, v, weights, spec, "ties", "t"),
        "model_stock": lambda v, b: merge_model_stock(b, v),
    }


def _outcome(rule, vectors, base):
    """The result's dtype, shape and bytes (and solver stats), or the
    exception's type and text."""
    try:
        out = rule(vectors, base)
    except Exception as exc:  # the same failure must come from every form
        return type(exc), str(exc)
    merged, stats = out if isinstance(out, tuple) else (out, None)
    return merged.dtype, merged.shape, merged.tobytes(), stats


@settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.sampled_from(sorted(SHAPES)),
    pick=st.integers(0, 2),
    m=st.integers(3, 4),
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(["far", "near", "equal", "zero-row"]),
    weights=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
)
def test_every_input_form_gives_the_same_merge(n, pick, m, seed, style, weights):
    shapes = SHAPES[n]
    shape = shapes[pick % len(shapes)]
    rows = _draw_rows(seed, m + 1, n, style)
    base32, experts32 = rows[0].reshape(shape), [r.reshape(shape) for r in rows[1:]]
    forms = {
        "f32 list": (experts32, base32),
        "f64 list": ([e.astype(np.float64) for e in experts32], base32.astype(np.float64)),
        "f64 matrix": (rows[1:].astype(np.float64), rows[0].astype(np.float64)),
    }
    for kind, rule in _rules(weights[:m]).items():
        want = _outcome(rule, *forms["f32 list"])
        for form in ("f64 list", "f64 matrix"):
            assert _outcome(rule, *forms[form]) == want, (kind, form)
